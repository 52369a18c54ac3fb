"""Event trees, market files, portfolio evaluation, and the fixtures."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import (
    AdaptedProcess,
    EventTree,
    HedgePortfolio,
    LiquidatingStrategy,
    MarketSpec,
    TerminalClaim,
    TreeError,
    build_market,
    load_fixture,
    market_to_json,
    portfolio_value,
    portfolio_values,
)
from semistatic.fixtures import FixtureError, fixture_json, p2_measure, verify_p2
from semistatic.market import MarketError
from semistatic.stopping import enumerate_stopping_times, stop_everywhere_at

from conftest import rand_rational, random_market, random_process
from oracles import gains_to, liquidate_payoff, strategy_from_mixture

F = Fraction


def test_tree_structure(t2):
    tree = t2.tree
    assert tree.root == "r"
    assert tree.horizon == 2
    assert tree.leaves == ("uu", "ud", "du", "dd")
    assert tree.path("ud") == ("r", "u", "ud")
    assert tree.leaves_under("d") == ("du", "dd")
    assert tree.time("du") == 2


def test_tree_validation_errors():
    with pytest.raises(TreeError, match="root"):
        EventTree([("a", None, 0), ("b", None, 0)])
    with pytest.raises(TreeError, match="time"):
        EventTree([("a", None, 0), ("b", "a", 2)])
    with pytest.raises(TreeError, match="childless"):
        EventTree([("a", None, 0), ("b", "a", 1), ("c", "b", 2), ("d", "a", 1)])
    with pytest.raises(TreeError, match="duplicate"):
        EventTree([("a", None, 0), ("b", "a", 1), ("b", "a", 1)])


def test_b1_shape(b1):
    assert len(b1.tree.nodes) == 3
    assert b1.dim == 1
    assert b1.S.scalar_at("r") == 2
    assert [b1.S.scalar_at(l) for l in b1.tree.leaves] == [3, 1]


def test_t2_lattice_values(t2):
    assert len(t2.tree.nodes) == 7
    assert [t2.S.scalar_at(l) for l in t2.tree.leaves] == [16, 4, 4, 1]


def test_missing_stock_value_names_node():
    doc = json.loads(fixture_json("B1"))
    del doc["nodes"][1]["S"]
    with pytest.raises(TreeError, match="'u'"):
        build_market(doc)


def test_missing_process_value_names_node(b1):
    with pytest.raises(TreeError, match="'d'"):
        AdaptedProcess(b1.tree, {"r": 0, "u": 1})


@pytest.mark.parametrize("values, message", [
    ({"u": 1}, "leaf 'd': missing claim value"),
    ({"u": 1, "d": 0, "r": 1}, r"claim values for non-leaf nodes \['r'\]"),
    ({"u": 1, "d": 0, "zz": 1}, r"claim values for unknown nodes \['zz'\]"),
])
def test_claim_values_name_the_node_they_miss_or_misplace(b1, values, message):
    with pytest.raises(TreeError, match=message):
        TerminalClaim(b1.tree, values)


def test_round_trip_is_identity():
    for name in ("B1", "T2", "P2"):
        text = fixture_json(name)
        again = market_to_json(build_market(text))
        assert text == again
        assert market_to_json(build_market(again)) == again


def test_round_trip_preserves_exact_rationals():
    doc = json.loads(fixture_json("B1"))
    doc["european_buy_only"] = [
        {"payoff": {"u": "22/7", "d": "-3/11"}, "price": "355/113"}
    ]
    text = json.dumps(doc)
    market = build_market(text)
    assert market.g[0].at("u") == F(22, 7)
    assert market.g_prices[0] == F(355, 113)
    assert build_market(market_to_json(market)).g_prices[0] == F(355, 113)


def test_gains_zero_strategy(b1):
    H = AdaptedProcess(b1.tree, {n: 0 for n in b1.tree.nodes})
    assert all(gains_to(H, b1, leaf) == 0 for leaf in b1.tree.leaves)


def test_gains_b1_unit_position(b1):
    H = AdaptedProcess(b1.tree, {n: 1 for n in b1.tree.nodes})
    assert gains_to(H, b1, "u") == 1
    assert gains_to(H, b1, "d") == -1


def test_gains_t2_telescopes(t2):
    H = AdaptedProcess(t2.tree, {n: 1 for n in t2.tree.nodes})
    assert gains_to(H, t2, "uu") == (8 - 4) + (16 - 8)
    # telescoping: equals one-step increments summed
    for leaf in t2.tree.leaves:
        path = t2.tree.path(leaf)
        inc = sum(t2.S.scalar_at(b) - t2.S.scalar_at(a) for a, b in zip(path, path[1:]))
        assert gains_to(H, t2, leaf) == inc


def test_portfolio_zero(b1):
    port = HedgePortfolio()
    assert all(portfolio_value(b1, port, leaf) == 0 for leaf in b1.tree.leaves)


def test_portfolio_two_sided_leg(b1):
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})  # f = S_1
    market = b1.with_options(f=[f], f_prices=[2])
    port = HedgePortfolio(a=(F(1),))
    assert portfolio_value(market, port, "u") == 1
    assert portfolio_value(market, port, "d") == -1


def test_portfolio_american_leg_exercise_at_root(b1):
    h = AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 3})
    market = b1.with_options(h=[h], h_prices=[0])
    mu = LiquidatingStrategy.from_stopping_time(stop_everywhere_at(b1.tree, 0))
    port = HedgePortfolio(c=(F(1),), mu=(mu,))
    assert portfolio_value(market, port, "u") == 1
    assert portfolio_value(market, port, "d") == 1


def test_portfolios_built_apart_compare_and_hash_by_value(b1):
    """Two portfolios built separately from equal data are equal and hash
    equal (H and every exercise flow compare by their node values, not by
    identity); changing one node value of H or of a flow breaks equality."""
    def build(h_root=1, flow_root=1):
        H = AdaptedProcess(b1.tree, {"r": h_root, "u": 0, "d": F(1, 2)})
        mu = LiquidatingStrategy.from_map(
            b1.tree, {"r": flow_root, "u": 1 - flow_root, "d": 1 - flow_root})
        return HedgePortfolio(H=H, a=(F(1, 3),), b=(F(2),), c=(F(1),), mu=(mu,))

    port = build()
    assert port == build() and hash(port) == hash(build())
    assert len({port, build()}) == 1
    assert port != build(h_root=2)
    assert port != build(flow_root=F(1, 2))
    assert AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 0}) != "not a process"


def test_portfolio_linearity_random(b1):
    rng = random.Random(5)
    h = AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 3})
    market = b1.with_options(
        f=[TerminalClaim(b1.tree, {"u": 2, "d": -1})], f_prices=[F(1, 2)],
        g=[TerminalClaim(b1.tree, {"u": 1, "d": 0})], g_prices=[F(1, 3)],
        h=[h], h_prices=[F(1, 7)],
    )
    mu = LiquidatingStrategy.from_map(b1.tree, {"r": F(1, 2), "u": F(1, 2), "d": F(1, 2)})

    def rand_H():
        return AdaptedProcess(b1.tree, {n: rng.randint(-3, 3) for n in b1.tree.nodes})

    for _ in range(20):
        H1, H2 = rand_H(), rand_H()
        a1, a2 = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        b_1, b_2 = F(rng.randint(0, 4)), F(rng.randint(0, 4))
        c1, c2 = F(rng.randint(0, 4)), F(rng.randint(0, 4))
        lam = F(rng.randint(0, 8), 8)
        mixed_H = AdaptedProcess(b1.tree, {
            n: lam * H1.scalar_at(n) + (1 - lam) * H2.scalar_at(n)
            for n in b1.tree.nodes
        })
        p1 = HedgePortfolio(H=H1, a=(a1,), b=(b_1,), c=(c1,), mu=(mu,))
        p2_ = HedgePortfolio(H=H2, a=(a2,), b=(b_2,), c=(c2,), mu=(mu,))
        mix = HedgePortfolio(
            H=mixed_H,
            a=(lam * a1 + (1 - lam) * a2,),
            b=(lam * b_1 + (1 - lam) * b_2,),
            c=(lam * c1 + (1 - lam) * c2,),
            mu=(mu,),
        )
        for leaf in b1.tree.leaves:
            v1 = portfolio_value(market, p1, leaf)
            v2 = portfolio_value(market, p2_, leaf)
            vm = portfolio_value(market, mix, leaf)
            assert vm == lam * v1 + (1 - lam) * v2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gains_telescoping_property(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    from conftest import random_market, random_process

    market = random_market(rng, max_depth=2)
    H = random_process(rng, market.tree)
    for leaf in market.tree.leaves:
        path = market.tree.path(leaf)
        total = Fraction(0)
        for a, b in zip(path, path[1:]):
            total += H.scalar_at(a) * (market.S.scalar_at(b) - market.S.scalar_at(a))
        assert gains_to(H, market, leaf) == total


def _path_walk(market, port, leaf):
    """A portfolio's value at one leaf, walked along its own root path."""
    total = gains_to(port.H, market, leaf) if port.H is not None else Fraction(0)
    for coef, claim, price in zip(port.a, market.f, market.f_prices):
        total += coef * (claim.at(leaf) - price)
    for coef, claim, price in zip(port.b, market.g, market.g_prices):
        total += coef * (claim.at(leaf) - price)
    for coef, eta, h, price in zip(port.c, port.mu, market.h, market.h_prices):
        total += coef * (liquidate_payoff(eta, h, leaf) - price)
    return total


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_portfolio_values_equal_a_path_walk_at_every_leaf(data):
    """The one-pass evaluator gives, at every requested leaf (in any order,
    repeats included), what an independent walk down that leaf's path gives:
    gains_to + the static legs + liquidate_payoff.  Markets with a 1- or
    2-dimensional stock and with American options; H present or None;
    positions drawn zero about a third of the time."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    market = random_market(rng, max_depth=3)
    tree = market.tree
    if data.draw(st.booleans(), label="dim 2"):
        S = AdaptedProcess(tree, {n: [market.S.scalar_at(n), rand_rational(rng, 1, 8)]
                                  for n in tree.nodes})
        market = MarketSpec(tree=tree, S=S, f=market.f, f_prices=market.f_prices,
                            g=market.g, g_prices=market.g_prices,
                            h=market.h, h_prices=market.h_prices)

    def position(lo):
        return F(0) if rng.random() < 0.35 else rand_rational(rng, lo, 4)

    H = None
    if data.draw(st.booleans(), label="with H"):
        H = AdaptedProcess(tree, {n: [position(-4) for _ in range(market.dim)]
                                  for n in tree.nodes})
    taus = enumerate_stopping_times(tree)
    mu = []
    for _ in market.h:
        lam = F(rng.randint(0, 4), 4)
        mu.append(strategy_from_mixture([lam, 1 - lam], [rng.choice(taus), rng.choice(taus)]))
    port = HedgePortfolio(
        H=H, a=tuple(position(-4) for _ in market.f), b=tuple(position(0) for _ in market.g),
        c=tuple(position(0) for _ in market.h), mu=tuple(mu),
    )
    leaves = list(tree.leaves) + [rng.choice(tree.leaves)]
    rng.shuffle(leaves)
    assert portfolio_values(market, port, leaves) == [
        _path_walk(market, port, leaf) for leaf in leaves]
    assert [portfolio_value(market, port, leaf) for leaf in leaves] == [
        _path_walk(market, port, leaf) for leaf in leaves]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_whole_unit_is_worth_the_stopped_portfolio_at_every_leaf(data):
    """`whole_unit` inverts `exercised_at` on portfolios: a portfolio of the
    market with its American options exercised whole at fixed stops, read
    back as American holdings exercised at those stops, is worth the same at
    every leaf.  Random markets with one or two options and random stops."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    market = random_market(rng, max_depth=3)
    tree = market.tree
    if not market.h:
        market = market.with_options(h=[random_process(rng, tree)], h_prices=[rand_rational(rng)])
    stops = enumerate_stopping_times(tree)
    taus = tuple(rng.choice(stops) for _ in market.h)
    stopped = market.exercised_at(taus)

    def position(lo):
        return F(0) if rng.random() < 0.35 else rand_rational(rng, lo, 4)

    p = HedgePortfolio(H=AdaptedProcess(tree, {n: [position(-4)] for n in tree.nodes}),
                       a=tuple(position(-4) for _ in stopped.f),
                       b=tuple(position(0) for _ in stopped.g))
    whole = market.whole_unit(p, taus)
    assert whole.c == p.b[len(market.g):]
    assert whole.mu == tuple(LiquidatingStrategy.from_stopping_time(tau) for tau in taus)
    assert portfolio_values(market, whole, tree.leaves) == \
        portfolio_values(stopped, p, tree.leaves)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_portfolio_values_over_large_coprime_denominators_equal_a_path_walk(data):
    """The same cross-check with the stock, every payoff, quote, position and
    exercise weight over large primes, so that the evaluator's one common
    denominator is a product of several of them."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    market = random_market(rng, max_depth=3)
    tree = market.tree
    primes = (2**61 - 1, 10**9 + 7, 998244353, 2**31 - 1)

    def big(lo=-4):
        p = rng.choice(primes)
        return F(0) if rng.random() < 0.2 else F(rng.randint(lo * p, 8 * p), p)

    def claims(book):
        return [TerminalClaim(tree, {l: big() for l in tree.leaves}) for _ in book]

    market = MarketSpec(
        tree=tree, S=AdaptedProcess(tree, {n: big(1) for n in tree.nodes}),
        f=claims(market.f), f_prices=tuple(big() for _ in market.f),
        g=claims(market.g), g_prices=tuple(big() for _ in market.g),
        h=tuple(AdaptedProcess(tree, {n: big() for n in tree.nodes}) for _ in market.h),
        h_prices=tuple(big() for _ in market.h))
    taus = enumerate_stopping_times(tree)
    mu = []
    for _ in market.h:
        lam = F(rng.randint(0, primes[1]), primes[1])
        mu.append(strategy_from_mixture([lam, 1 - lam], [rng.choice(taus), rng.choice(taus)]))
    port = HedgePortfolio(
        H=AdaptedProcess(tree, {n: big() for n in tree.nodes}),
        a=tuple(big() for _ in market.f), b=tuple(big(0) for _ in market.g),
        c=tuple(big(0) for _ in market.h), mu=tuple(mu),
    )
    leaves = list(tree.leaves)
    assert portfolio_values(market, port, leaves) == [
        _path_walk(market, port, leaf) for leaf in leaves]


def test_portfolio_values_refuse_non_leaves_and_a_wrong_H_dimension(t2):
    port = HedgePortfolio(H=AdaptedProcess(t2.tree, {n: [1, 1] for n in t2.tree.nodes}))
    for bad in ("u", "r", "zz"):
        with pytest.raises(MarketError, match="is not a leaf"):
            portfolio_values(t2, HedgePortfolio(), ["uu", bad])
        with pytest.raises(MarketError, match="is not a leaf"):
            portfolio_value(t2, port, bad)
    with pytest.raises(MarketError, match="H dimension 2 != stock dimension 1"):
        portfolio_values(t2, port, ["uu"])


@pytest.mark.parametrize("legs, book", [
    ({"a": (F(1), F(5))}, "f"),
    ({"b": (F(1), F(5))}, "g"),
    ({"c": (F(1), F(5)), "mu": "two"}, "h"),
    ({"b": ()}, "g"),
])
def test_portfolio_values_refuse_legs_that_do_not_match_the_books(b1, legs, book):
    """A portfolio holds one position per option of each book: extra units
    are refused, not dropped (B1 plus the up-digital quoted at 1/2 would
    value b = (1, 5) as b = (1,)), and so is a missing position."""
    digital = b1.claims["up_digital"]
    h = AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 3})
    market = b1.with_options(f=[digital], f_prices=[F(1, 2)], g=[digital], g_prices=[F(1, 2)],
                             h=[h], h_prices=[F(1)])
    mu = LiquidatingStrategy.from_stopping_time(stop_everywhere_at(b1.tree, 0))
    full = {"a": (F(1),), "b": (F(1),), "c": (F(1),), "mu": (mu,)}
    if legs.get("mu") == "two":
        legs = {**legs, "mu": (mu, mu)}
    port = HedgePortfolio(**{**full, **legs})
    with pytest.raises(MarketError, match=f"options of book {book}"):
        portfolio_values(market, port, b1.tree.leaves)
    assert portfolio_values(market, HedgePortfolio(**full), ("u", "d")) == [F(1), F(-1)]


def test_path_consistency_of_evaluation(t2):
    # same node reached via different leaves gives the same S value
    assert t2.S.at("u") == t2.S.at("u")
    H = AdaptedProcess(t2.tree, {n: t2.tree.time(n) for n in t2.tree.nodes})
    g_uu = gains_to(H, t2, "uu")
    g_ud = gains_to(H, t2, "ud")
    # the t=0..1 contribution along both paths through u is identical
    first_step = H.scalar_at("r") * (t2.S.scalar_at("u") - t2.S.scalar_at("r"))
    assert g_uu - (H.scalar_at("u") * (16 - 8)) == first_step
    assert g_ud - (H.scalar_at("u") * (4 - 8)) == first_step


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        load_fixture("Z9")


def test_p2_self_test_refuses_an_american_psi(p2):
    import dataclasses

    tampered = dataclasses.replace(p2, claims={**p2.claims, "psi": p2.h[0]})
    with pytest.raises(FixtureError, match="psi is not a European claim"):
        verify_p2(tampered)


def test_p2_self_test_catches_tampering(p2):
    doc = json.loads(fixture_json("P2"))
    doc["american_buy_only"][0]["payoff"]["u1"] = "7"
    with pytest.raises(FixtureError):
        verify_p2(build_market(doc))
    doc2 = json.loads(fixture_json("P2"))
    doc2["nodes"][1]["S"] = ["5"]  # breaks the forced 1/2-1/2 first period
    with pytest.raises(FixtureError):
        verify_p2(build_market(doc2))


def test_p2_expected_claim_formula(p2):
    psi = p2.claims["psi"]
    for p_, q_ in [(F(1, 3), F(1, 5)), (F(1, 4), F(1, 8)), (F(2, 5), F(3, 7))]:
        Q = p2_measure(p2, p_, q_)
        assert Q.expect_claim(psi) == F(3, 4) * p_ + 5 * q_ - F(5, 4)


def test_markets_compare_and_hash_by_identity(t2):
    """A market is equal only to itself and hashes, as does a pricing set on
    it: `_kept` tells markets apart by identity, and so does `==`."""
    from semistatic import PricingSetSpec

    m = t2.with_options(g=[t2.claims["put5_eu"]], g_prices=[F(1)])
    assert {m: 1}[m] == 1 and m == m
    assert m != replace(m) and m != build_market(market_to_json(m))
    assert {PricingSetSpec(m): 1}[PricingSetSpec(m)] == 1


def test_without_american_is_one_object_per_market_and_keep(t2):
    """`without_american(k)` is the market itself when it holds at most k
    American options, and otherwise one object per market and k, however it
    is reached, so that what it has decided is shared."""
    put = t2.claims["put5_am"]
    market = t2.with_options(h=[put, put], h_prices=[F(3), F(4)])
    assert t2.without_american(0) is t2
    assert market.without_american(2) is market and market.without_american(5) is market
    one, none = market.without_american(1), market.without_american(0)
    assert market.without_american(1) is one and market.without_american() is none
    assert one.without_american(0) is none and none.without_american(0) is none
    assert (one.h, one.h_prices, none.h, none.h_prices) == ((put,), (F(3),), (), ())
    assert (none.f, none.g, none.support, none.S) == (market.f, market.g, market.support, market.S)


def test_on_support_is_one_object_per_market_and_leaf_set(t2):
    """`on_support(leaves)` is the market itself on its own support, and
    otherwise one object per market and leaf set, whatever the order of the
    leaves, sharing the market's books, quotes and claims."""
    market = t2.with_options(g=[t2.claims["put5_eu"]], g_prices=[F(1)],
                             h=[t2.claims["put5_am"]], h_prices=[F(3)])
    assert market.on_support(market.support) is market
    assert market.on_support(reversed(market.tree.leaves)) is market
    three = market.on_support(["uu", "ud", "du"])
    assert three is market.on_support(("du", "uu", "ud"))
    assert three is market.on_support({"ud", "du", "uu"})
    assert three is not market and three.support == frozenset({"uu", "ud", "du"})
    assert three.support_leaves() == ("uu", "ud", "du")
    assert market.on_support(["uu", "dd"]) is not three
    for name in ("tree", "S", "f", "f_prices", "g", "g_prices", "h", "h_prices", "claims",
                 "priors"):
        assert getattr(three, name) is getattr(market, name)
    with pytest.raises(MarketError, match="empty support"):
        market.on_support(())
    with pytest.raises(MarketError, match="non-leaf"):
        market.on_support(["u"])
    with pytest.raises(MarketError, match=r"unknown nodes \['zz'\]"):
        market.on_support(["zz"])


def test_market_file_priors_stay_with_the_parsed_market(t2):
    """The priors a market file carries are the parsed market's `priors`,
    written back by `market_to_json`; a market made without them has none."""
    rows = ({l: F(1, 4) for l in t2.tree.leaves},)
    text = market_to_json(replace(t2, priors=rows))
    market = build_market(text)
    assert market.priors == rows and market_to_json(market) == text
    assert t2.priors == () and "priors" not in json.loads(market_to_json(t2))


def test_derived_markets_keep_the_claims_and_priors(t2):
    """Every market derived from a parsed one (`with_options`,
    `without_american`, `exercised_at`, `on_support`) carries its bundled
    claims and its priors, the same objects."""
    rows = ({l: F(1, 4) for l in t2.tree.leaves},)
    market = build_market(market_to_json(replace(t2, priors=rows))).with_options(
        h=[t2.claims["put5_am"]], h_prices=[F(3)])
    derived = (
        market.with_options(),
        market.with_options(g=[t2.claims["put5_eu"]], g_prices=[1]),
        market.without_american(),
        market.exercised_at(enumerate_stopping_times(t2.tree)[:1]),
        market.on_support(("uu", "ud")),
    )
    assert market.priors == rows and set(market.claims) == {"put5_eu", "put5_am"}
    for m in derived:
        assert m is not market
        assert m.claims is market.claims and m.priors is market.priors


def test_support_designation_round_trips():
    doc = json.loads(fixture_json("T2"))
    doc["support"] = ["uu", "ud", "du"]
    market = build_market(doc)
    assert market.support == frozenset({"uu", "ud", "du"})
    assert build_market(market_to_json(market)).support == market.support


@pytest.mark.parametrize("edit, field", [
    (lambda d: d.update(support=5), "support"),
    (lambda d: d.update(support="u"), "support"),
    (lambda d: d.update(nodes="abc"), "nodes"),
    (lambda d: d["nodes"].append("abc"), "node"),
    (lambda d: d["nodes"][0].update(S="12"), "S"),
    (lambda d: d.update(european_buy_only=["abc"]), "european_buy_only"),
    (lambda d: d.update(american_buy_only=5), "american_buy_only"),
    (lambda d: d.update(priors="abc"), "priors"),
    (lambda d: d.update(priors=["abc"]), r"priors\[0\]"),
    (lambda d: d.update(european_buy_only=[{"payoff": "abc", "price": "1"}]),
     "european_buy_only payoff"),
    (lambda d: d.update(claims={"x": "abc"}), "claim 'x'"),
    (lambda d: d.update(claims={"x": {"type": "european", "values": "abc"}}), "claim 'x' values"),
])
def test_wrong_json_type_names_the_field(edit, field):
    doc = json.loads(fixture_json("B1"))
    edit(doc)
    with pytest.raises(MarketError, match=f"{field}.* must be a JSON"):
        build_market(json.dumps(doc))
