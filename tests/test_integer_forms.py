"""Measures, claims, processes and LP rows computed on as integers over one
denominator, cross-checked against the Fraction sums and the Fraction row
builders of `oracles`.

Measures are drawn with zero weights (explicit zero entries included), with
weight off the market's support, and with large coprime denominators; claims
and processes mix small rationals with values over large primes, so that the
lcm of a form's denominators is a product of them."""

import copy
import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import (
    AdaptedProcess,
    Measure,
    PricingSetSpec,
    TerminalClaim,
    check_na,
    check_sna,
    closure_polytope,
    max_slack,
    membership,
    minimax_check,
    sub_hedge_american,
    sub_hedge_european,
    super_hedge_divisible,
    super_hedge_indivisible,
)
from semistatic import ftap, hedging, measures, robust
from semistatic import market as market_module
from semistatic.hedging import StrategySpace, dual_optimum, hedge_primal
from semistatic.lp import EQ, GE, LE, con, int_con
from semistatic.measures import (
    SLACK_VAR,
    _claim_row,
    _stop_rows,
    _weight_var,
    pricing_rows,
    strict_emm_slack,
)
from semistatic.rational import rat_str
from semistatic.stopping import (
    _unnormalized_snell,
    count_stopping_times,
    enumerate_stopping_times,
    snell_optimal_stop,
    snell_value,
)

import oracles
from oracles import martingale_system
from conftest import rand_rational, random_market, random_process

F = Fraction
PRIMES = (2**61 - 1, 10**9 + 7, 998244353, 2**31 - 1, 65537)


def _value(rng: random.Random) -> Fraction:
    """A small rational, or one over a large prime, or zero."""
    roll = rng.random()
    if roll < 0.2:
        return F(0)
    if roll < 0.6:
        p = rng.choice(PRIMES)
        return F(rng.randint(-4 * p, 8 * p), p)
    return rand_rational(rng)


def _claim(rng, tree) -> TerminalClaim:
    return TerminalClaim(tree, {l: _value(rng) for l in tree.leaves})


def _process(rng, tree) -> AdaptedProcess:
    return AdaptedProcess(tree, {n: _value(rng) for n in tree.nodes})


def _measure(rng, tree) -> Measure:
    """Weights on a random subset of the leaves, some over large primes, with
    explicit zero entries on some of the others."""
    leaves = list(tree.leaves)
    keep = rng.sample(leaves, rng.randint(1, len(leaves)))
    raw = {l: F(rng.randint(1, 8), rng.choice((1, 3) + PRIMES)) for l in keep}
    total = sum(raw.values())
    weights = {l: w / total for l, w in raw.items()}
    weights.update({l: 0 for l in leaves if l not in raw and rng.random() < 0.5})
    return Measure(tree, weights)


def _draw(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    market = random_market(rng, max_depth=3)
    return rng, market, market.tree


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_expectations_equal_fraction_sums(data):
    rng, _, tree = _draw(data)
    Q = _measure(rng, tree)
    for claim in (_claim(rng, tree), _claim(rng, tree)):
        assert Q.expect_claim(claim) == oracles.expect_claim(Q, claim)
    h = _process(rng, tree)
    for tau in rng.sample(enumerate_stopping_times(tree), 4) if len(tree.leaves) > 3 \
            else enumerate_stopping_times(tree):
        assert Q.expect_at_stop(h, tau) == oracles.expect_at_stop(Q, h, tau)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_masses_and_envelope_equal_fraction_sums(data):
    rng, _, tree = _draw(data)
    Q = _measure(rng, tree)
    h = _process(rng, tree)
    assert {n: F(m, Q.den) for n, m in Q.masses().items()} == \
        oracles.subtree_masses(Q)
    reference = oracles.unnormalized_snell(Q, h)
    V, den = _unnormalized_snell(Q, h)
    assert den == Q.den * h.scaled()[0]
    assert {n: F(v, den) for n, v in V.items()} == reference
    assert snell_value(Q, h) == reference[tree.root]
    assert Q.expect_at_stop(h, snell_optimal_stop(Q, h)) == reference[tree.root]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_membership_drift_and_envelope_checks_equal_fraction_sums(data):
    """membership names exactly the nonzero Fraction drifts, in node-then-
    component order, flags weight off the market's support, and flags an
    American cap exactly when the Fraction envelope exceeds it."""
    rng, market, tree = _draw(data)
    if data.draw(st.booleans(), label="dim 2"):
        S = AdaptedProcess(tree, {n: [market.S.scalar_at(n), _value(rng)] for n in tree.nodes})
        market = replace(market, S=S)
    if data.draw(st.booleans(), label="smaller support"):
        market = replace(market, support=frozenset(
            rng.sample(tree.leaves, rng.randint(1, len(tree.leaves)))))
    Q = _measure(rng, tree)
    for strict in (False, True):
        report = membership(Q, PricingSetSpec(market), strict=strict)
        drift = [v for v in report.violations if v.startswith("martingale drift")]
        assert drift == [f"martingale drift {rat_str(d)} at node {node} component {l}"
                         for (node, l), d in oracles.martingale_drift(Q, market).items() if d]
        off = any(v.startswith("support outside") for v in report.violations)
        assert off == bool(Q.support() - market.support)
        for k, (h, cap) in enumerate(zip(market.h, market.h_prices)):
            got = oracles.unnormalized_snell(Q, h)[tree.root]
            flagged = any(v.startswith(f"h[{k}] exercise envelope {rat_str(got)} ")
                          for v in report.violations)
            assert flagged == (got > cap or (strict and got == cap))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_measures_equal_in_any_written_form_share_one_hash(data):
    """The same weights written as unreduced "p/q" text, with explicit "0"
    entries on the other leaves and in shuffled order, make one measure:
    equal, one hash, one `weights` view and one integer form."""
    rng, _, tree = _draw(data)
    Q = _measure(rng, tree)
    k = rng.randint(2, 9)
    text = {l: f"{w.numerator * k}/{w.denominator * k}" for l, w in Q.weights.items()}
    text.update({l: "0" for l in tree.leaves if l not in text})
    items = list(text.items())
    rng.shuffle(items)
    other = Measure(tree, dict(items))
    assert other == Q and hash(other) == hash(Q)
    assert other.weights == Q.weights and (other.den, other.num) == (Q.den, Q.num)


def test_measure_written_three_ways(b1):
    halves = [Measure(b1.tree, {"u": "1/2", "d": "1/2"}),
              Measure(b1.tree, {"u": F(2, 4), "d": F(1, 2)}),
              Measure(b1.tree, {"d": "2/4", "u": F(1, 2)})]
    assert len(set(halves)) == 1 and all(Q == halves[0] for Q in halves)
    assert all(Q.weights == {"u": F(1, 2), "d": F(1, 2)} for Q in halves)
    one = Measure(b1.tree, {"u": 1, "d": 0})
    assert one == Measure(b1.tree, {"u": "3/3"}) and hash(one) == hash(Measure(b1.tree, {"u": 1}))
    assert one.weights == {"u": 1} and (one.den, one.num) == (1, {"u": 1})
    assert one != halves[0]


# ---------------------------------------------------------------------------
# LP rows: the integer constructor and the builders
# ---------------------------------------------------------------------------

_RATIONALS = st.one_of(
    st.just(F(0)),
    st.integers(-10**6, 10**6).map(F),
    st.builds(F, st.integers(-10**12, 10**12), st.sampled_from((1, 2, 6, 9, 10**9 + 7, 2**61 - 1))),
)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.dictionaries(st.sampled_from("abcdef"), _RATIONALS, max_size=6),
       rhs=_RATIONALS, k=st.integers(1, 10**6), rel=st.sampled_from((LE, EQ, GE)))
def test_integer_constructor_equals_con_of_the_fraction_row(coeffs, rhs, k, rel):
    """Coefficients over any positive multiple of the denominator make the
    row `con` makes of the Fractions: the same canonical integers (over the
    lcm of the reduced denominators, no common factor left), names in the
    same order, and the same Fraction view."""
    den = k * lcm(rhs.denominator, *[c.denominator for c in coeffs.values()])
    num = {v: c.numerator * (den // c.denominator) for v, c in coeffs.items()}
    row = int_con(num, rel, rhs.numerator * (den // rhs.denominator), den, "r")
    assert row == con(coeffs, rel, rhs, "r")
    assert list(row.num) == list(coeffs)
    assert row.coeffs == coeffs and row.rhs == rhs and row.rel == rel
    assert row.den == lcm(rhs.denominator, *[c.denominator for c in coeffs.values()])
    assert gcd(row.den, row.rhs_num, *row.num.values()) == 1


def _view(rows):
    return [(r.name, r.rel, r.coeffs, r.rhs) for r in rows]


def _fractions(den_num):
    den, num = den_num
    return {v: F(c, den) for v, c in num.items()}


@contextmanager
def _recorded(module, name):
    """Calls of `module.name` recorded as they pass through: the LPs handed
    to `solve`, or the `build` of `max_slack`'s `solve_with_stop_cuts` loop."""
    seen = []
    orig = getattr(module, name)

    def spy(first, *args, **kwargs):
        seen.append(first)
        return orig(first, *args, **kwargs)

    with mock.patch.object(module, name, spy):
        yield seen


def _draw_market(data):
    """A random market, sometimes with a two-component stock, with some of
    its options dropped, a leaf subset to restrict it to, and its pricing set
    capped at the quotes."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    market = random_market(rng, max_depth=data.draw(st.sampled_from((2, 3)), label="depth"))
    tree = market.tree
    if data.draw(st.booleans(), label="dim 2"):
        S = AdaptedProcess(tree, {n: [market.S.scalar_at(n), rand_rational(rng)]
                                  for n in tree.nodes})
        market = replace(market, S=S)
    leaves = tuple(l for l in tree.leaves if rng.random() < 0.8) or tree.leaves[:1]
    g = [j for j in range(len(market.g)) if rng.random() >= 0.2]
    h = [k for k in range(len(market.h)) if rng.random() >= 0.2]
    market = market.with_options(
        g=[market.g[j] for j in g], g_prices=[market.g_prices[j] for j in g],
        h=[market.h[k] for k in h], h_prices=[market.h_prices[k] for k in h])
    spec = PricingSetSpec(
        market, support_floor=frozenset(rng.sample(leaves, rng.randint(0, len(leaves)))))
    return rng, market, spec, leaves


def _cuts(rng, tree, k_options, n=3):
    """n random (option, stop) cuts, repeats allowed."""
    taus = enumerate_stopping_times(tree)
    return [(rng.choice(k_options), rng.choice(taus)) for _ in range(n)] if k_options else []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pricing_set_rows_equal_the_fraction_builders(data):
    """The martingale, pricing, closure and slack rows (with stop cuts), and
    `dual_optimum`'s rows, over a leaf subset: same names, relations and
    Fraction views as the Fraction builders."""
    rng, market, spec, leaves = _draw_market(data)
    restricted = replace(spec, market=market.on_support(leaves))
    assert _view(martingale_system(restricted.market).constraints) == \
        _view(oracles.martingale_rows(market, leaves))
    for slack in (None, SLACK_VAR):
        assert _view(pricing_rows(spec, leaves, slack)) == \
            _view(oracles.pricing_rows(spec, leaves, slack))
    for claim in market.f + market.g:
        assert _fractions(_claim_row(claim, leaves)) == oracles.claim_row(claim, leaves)
    cuts = _cuts(rng, market.tree, range(len(market.h)))
    weights = {l: _weight_var(l) for l in leaves}
    for k, tau in cuts:
        h, cap = market.h[k], market.h_prices[k]
        assert _view([_stop_rows(h, cap, weights)(tau, "h")]) == \
            _view([con(oracles.stop_row(h, tau, leaves), LE, cap, "h")])
    if count_stopping_times(market.tree) < 200:
        assert _view(closure_polytope(restricted).constraints) == _view(
            oracles.closure_rows(spec, leaves, enumerate_stopping_times(market.tree)))
    with _recorded(measures, "solve_with_stop_cuts") as builds:
        max_slack(restricted)
    for n in (0, len(cuts)):
        assert _view(builds[0](cuts[:n]).constraints) == \
            _view(oracles.slack_rows(spec, leaves, cuts[:n], SLACK_VAR))
    if market.support == frozenset(leaves) and count_stopping_times(market.tree) < 200:
        claim = random_process(rng, market.tree)
        with _recorded(hedging, "solve") as problems:
            dual_optimum(spec, claim, "sub_am")
        assert _view(problems[0].constraints) == _view(
            oracles.dual_rows(spec, claim, "sub_am", enumerate_stopping_times(market.tree)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_strategy_rows_equal_the_fraction_builders(data):
    """The structure rows, every leaf's phi coefficients, each hedge LP's
    rows over a pointwise leaf subset, and the cone LP's rows and objective:
    same names, relations and Fraction views as the Fraction builders."""
    rng, market, _, leaves = _draw_market(data)
    for eta in (False, True):
        assert _view(StrategySpace(market, eta).structure_rows()) == \
            _view(oracles.structure_rows(market, eta))
    for leaf in market.tree.leaves:
        assert _fractions(StrategySpace(market).phi_coeffs(leaf)) == \
            oracles.phi_coeffs(market, leaf)
    psi = TerminalClaim(market.tree, {l: rand_rational(rng) for l in market.tree.leaves})
    for kind, claim in (("sub_eu", psi), ("super_div", psi),
                        ("sub_am", random_process(rng, market.tree))):
        with _recorded(hedging, "solve") as problems:
            hedge_primal(market.on_support(leaves), claim, kind)
        assert _view(problems[0].constraints) == \
            _view(oracles.hedge_rows(market, claim, kind, leaves))
    with _recorded(ftap, "solve") as problems:
        check_na(market.on_support(leaves))
    rows, objective = oracles.cone_rows(market, leaves)
    assert _view(problems[0].constraints) == _view(rows)
    assert problems[0].objective == objective


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_minimax_rows_equal_the_fraction_builders(data):
    """When `minimax_check` solves its one LP, that LP has the Fraction
    builder's stop-side rows; when a strict vertex proves the identity
    without it, its rhs and attaining measure are the Fraction stop-side
    LP's optimum and mixture.  The Fraction flow-side LP's optimum is its
    lhs either way, on vertices with large coprime denominators."""
    rng, market, _, _ = _draw_market(data)
    tree = market.tree
    verts = [_measure(rng, tree) for _ in range(rng.randint(1, 3))]
    hs = [_process(rng, tree) for _ in range(rng.randint(1, 2))]
    with _recorded(robust, "solve") as problems:
        result = minimax_check(verts, hs)
    if problems:
        _, rhs = oracles.minimax_rows(verts, hs, enumerate_stopping_times(tree))
        assert len(problems) == 1
        assert _view(problems[0].constraints) == _view(rhs)
    else:
        assert oracles.minimax_stop_side(verts, hs) == (result.rhs, result.attaining)
    assert oracles.minimax_flow_value(verts, hs) == result.lhs


def _state(Q: Measure) -> dict:
    """Every attribute of a measure but its masses memo, its dicts copied."""
    state = {}
    for name in [*getattr(Q, "__dict__", {}), *getattr(type(Q), "__slots__", ())]:
        value = getattr(Q, name)
        if name != "_mass":
            state[name] = dict(value) if isinstance(value, dict) else value
    return state


def test_reading_a_measure_leaves_it_as_it_was():
    """`snell_value`, `snell_optimal_stop`, `membership` and `check_sna`
    leave every measure they read as it was, apart from its masses memo:
    the measures `check_sna` builds (each stop-cut round's witness) and the
    ones they are given alike."""
    made = []
    real_set = Measure._set

    def recorded(Q, tree, weights):
        real_set(Q, tree, weights)
        made.append((Q, _state(Q)))

    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        market = random_market(rng)
        if not market.h:
            continue
        with mock.patch.object(Measure, "_set", recorded):
            check_sna(market)
        Q = _measure(rng, market.tree)
        before = _state(Q)
        for h in market.h:
            snell_value(Q, h)
            snell_optimal_stop(Q, h)
        membership(Q, PricingSetSpec(market), strict=True)
        assert _state(Q) == before
        checked += 1
    assert checked >= 5 and len(made) >= 5
    assert all(_state(Q) == before for Q, before in made)


def _strict_market_with_every_book():
    """The first seeded random market that is strictly arbitrage-free and
    has a two-sided and a buy-only European option and one American."""
    for seed in range(500):
        m = random_market(random.Random(seed))
        if m.f and m.g and len(m.h) == 1 and strict_emm_slack(m).strictly_positive:
            return m, random.Random(seed)
    raise AssertionError("no such market in 500 seeds")


def test_martingale_rows_are_kept_on_the_stock_process(t2):
    """The martingale rows depend on the stock process and the leaf set alone:
    every market that shares the stock reads the same row objects."""
    derived = t2.with_options(h=[t2.claims["put5_am"]], h_prices=[F(3)])
    for leaves in (t2.support_leaves(), ("uu", "ud", "du")):
        rows = martingale_system(t2.on_support(leaves)).constraints
        for market in (derived, derived.without_american(0), replace(t2, support=frozenset())):
            assert list(map(id, martingale_system(market.on_support(leaves)).constraints)) == \
                list(map(id, rows))
        assert _view(rows) == _view(oracles.martingale_rows(t2, leaves))


def test_each_market_builds_its_strategy_rows_once(t2):
    """The terminal-value coefficients are kept on the market object: a
    market and each of its `on_support` restrictions (one object per leaf
    set) build them once, equal in value, and read the same objects on every
    later call.  A market exercised at a stop has other quotes and payoffs,
    and builds its own.  The structure rows, built per LP, are equal across
    a market and its restrictions."""
    market = t2.with_options(h=[t2.claims["put5_am"]], h_prices=[F(3)])
    restricted = market.on_support(("uu", "ud", "du"))
    markets = (market, restricted, restricted.on_support(("uu", "ud")))
    leaves = t2.tree.leaves
    with mock.patch.object(market_module, "_phi_den", wraps=market_module._phi_den) as built:
        for eta in (False, True):
            rows = [StrategySpace(m, eta).structure_rows() for m in markets]
            assert all(_view(r) == _view(rows[0]) for r in rows)
        for leaf in leaves:
            coeffs = [StrategySpace(m).phi_coeffs(leaf) for m in markets]
            assert all(StrategySpace(m).phi_coeffs(leaf)[1] is c[1]
                       for m, c in zip(markets, coeffs))
            assert all(c == coeffs[0] for c in coeffs)
        StrategySpace(market.on_support(("du", "uu", "ud"))).phi_coeffs("uu")
        assert built.call_count == len(markets)
        exercised = market.exercised_at(enumerate_stopping_times(t2.tree)[:1])
        for leaf in leaves:
            assert StrategySpace(exercised).phi_coeffs(leaf)[1] is not \
                StrategySpace(market).phi_coeffs(leaf)[1]
        assert built.call_count == len(markets) + 1


def test_a_market_keeps_its_terminal_values_whole(t2):
    """The first `phi_coeffs` call keeps every leaf's coefficients as one
    map, which later calls read and never extend."""
    market = t2.with_options(h=[t2.claims["put5_am"]], h_prices=[F(3)])
    StrategySpace(market).phi_coeffs("uu")
    den, rows = market.__dict__["_kept"]["phi"]
    before = copy.deepcopy(rows)
    assert rows.keys() == set(t2.tree.leaves)
    for leaf in t2.tree.leaves:
        assert StrategySpace(market).phi_coeffs(leaf) == (den, before[leaf])
    assert rows == before


def test_hedges_leave_the_kept_skeletons_unchanged():
    """The four hedges of one market share its kept row skeletons and build
    their own rows from them: afterwards every kept row is what it was, and
    still equals the Fraction builders' row."""
    market, rng = _strict_market_with_every_book()
    tree, leaves = market.tree, market.support_leaves()
    for eta in (False, True):
        StrategySpace(market, eta).structure_rows()
    for leaf in leaves:
        StrategySpace(market).phi_coeffs(leaf)
    martingale_system(market)
    kept = {"market": market.__dict__["_kept"], "stock": market.S.__dict__["_kept"]}
    # the keys stay the kept objects: the stock's slack round 0 is kept
    # under its claims, which compare by identity
    before = {store: dict(zip(d, copy.deepcopy(list(d.values())))) for store, d in kept.items()}
    psi = TerminalClaim(tree, {l: rand_rational(rng) for l in tree.leaves})
    for hedge, claim in ((sub_hedge_european, psi), (super_hedge_divisible, psi),
                         (super_hedge_indivisible, psi),
                         (sub_hedge_american, random_process(rng, tree))):
        hedge(market, claim)
    for store in before:
        assert {key: kept[store][key] for key in before[store]} == before[store]
    for leaf in leaves:
        assert _fractions(StrategySpace(market).phi_coeffs(leaf)) == \
            oracles.phi_coeffs(market, leaf)
    for eta in (False, True):
        assert _view(StrategySpace(market, eta).structure_rows()) == \
            _view(oracles.structure_rows(market, eta))
    assert _view(martingale_system(market).constraints) == \
        _view(oracles.martingale_rows(market, leaves))
