"""Multi-prior markets: quasi-sure hedging, robust strict no-arbitrage,
dominating measures, and the minimax identity."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from semistatic import (
    ARBITRAGE,
    NO_ARBITRAGE,
    Measure,
    PricingSetSpec,
    PriorSet,
    RobustDualityGapError,
    RobustSpec,
    TerminalClaim,
    check_sna,
    check_sna_robust,
    closure_polytope,
    dominating_measure,
    membership,
    minimax_check,
    sub_hedge_american,
    sub_hedge_european,
    sub_hedge_robust,
    union_support,
    vertices,
)
from semistatic import measures, robust
from semistatic.hedging import HedgeResult, VerificationFailure
from semistatic.lp import ZERO
from semistatic.market import MarketSpec, build_market, market_to_json, portfolio_value
from semistatic.measures import polytope_vertices_as_measures
from semistatic.robust import HypothesisFailure, RobustError
from semistatic.stopping import (
    EnumerationCapError,
    enumerate_stopping_times,
    snell_optimal_stop,
    snell_value,
    stop_everywhere_at,
)
from semistatic.tree import AdaptedProcess, EventTree

from conftest import random_claim, random_market, random_measure, random_process, random_tree
import oracles
from oracles import constant_claim, robust_pricing_set

F = Fraction


def _uniform(tree):
    n = len(tree.leaves)
    return Measure(tree, {l: F(1, n) for l in tree.leaves})


def _emm_t2(tree):
    return Measure(tree, {"uu": F(1, 9), "ud": F(2, 9), "du": F(2, 9), "dd": F(4, 9)})


def _partial_t2(tree):
    return Measure(tree, {"uu": F(1, 3), "ud": F(1, 3), "du": F(1, 3)})


def test_union_support(t2):
    full = _uniform(t2.tree)
    part = _partial_t2(t2.tree)
    assert union_support(PriorSet((full,))) == frozenset(t2.tree.leaves)
    assert union_support(PriorSet((full, part))) == frozenset(t2.tree.leaves)
    a = Measure(t2.tree, {"uu": 1})
    b = Measure(t2.tree, {"dd": 1})
    assert union_support(PriorSet((a, b))) == frozenset({"uu", "dd"})


def test_inputs_on_another_tree_are_refused(t2):
    """Priors, minimax vertices and options must all live on one tree: a
    second parse of T2 is another tree, and each mix is refused when it is
    made, by name."""
    other = build_market(market_to_json(t2))
    here, there = _uniform(t2.tree), _uniform(other.tree)
    refusals = [
        (lambda: PriorSet((here, there)), "priors must share one tree"),
        (lambda: RobustSpec(t2, PriorSet((there,))), "priors must live on the market's tree"),
        (lambda: minimax_check([here, there], [t2.claims["put5_am"]]),
         "vertices must share one tree"),
        (lambda: minimax_check([here], [other.claims["put5_am"]]),
         "options must live on the vertex tree"),
    ]
    for make, message in refusals:
        with pytest.raises(RobustError, match=message):
            make()


def test_robust_pricing_set_single_full_prior_reduces(t2):
    spec = RobustSpec(t2, PriorSet((_uniform(t2.tree),)))
    [poly] = robust_pricing_set(spec)
    single = closure_polytope(PricingSetSpec(t2))
    assert {tuple(sorted(v.items())) for v in vertices(poly)} == \
        {tuple(sorted(v.items())) for v in vertices(single)}


def test_robust_pricing_set_partial_component_empty(t2):
    """Martingality at the down node forces mass on dd, so no martingale
    measure lives inside a prior that omits it."""
    spec = RobustSpec(t2, PriorSet((_uniform(t2.tree), _partial_t2(t2.tree))))
    full_poly, partial_poly = robust_pricing_set(spec)
    assert vertices(full_poly)
    assert vertices(partial_poly) == []


def test_robust_pricing_set_infinite_caps(p2):
    spec = RobustSpec(p2.without_american(), PriorSet((_uniform(p2.tree),)))
    [poly] = robust_pricing_set(spec)
    # pure martingale polytope: the full (p, q) square, 4 corners
    assert len(vertices(poly)) == 4


def test_sub_hedge_robust_singleton_reduces_to_single_prior(t2):
    rng = random.Random(14)
    psi = random_claim(rng, t2.tree)
    spec = RobustSpec(t2, PriorSet((_uniform(t2.tree),)))
    robust = sub_hedge_robust(spec, psi)
    single = sub_hedge_european(t2, psi)
    assert robust.price == single.price

    phi = random_process(rng, t2.tree)
    assert sub_hedge_robust(spec, phi).price == sub_hedge_american(t2, phi).price


def test_sub_hedge_robust_t2_two_priors_put(t2):
    put = t2.claims["put5_am"]
    spec = RobustSpec(t2, PriorSet((_uniform(t2.tree), _partial_t2(t2.tree))))
    result = sub_hedge_robust(spec, put)
    assert result.price == F(20, 9)
    assert snell_value(result.dual, put) == F(20, 9)


def test_sub_hedge_robust_constant_claim(t2):
    spec = RobustSpec(t2, PriorSet((_uniform(t2.tree), _partial_t2(t2.tree))))
    assert sub_hedge_robust(spec, constant_claim(t2.tree, F(9, 4))).price == F(9, 4)


def test_sub_hedge_robust_checks_hypothesis(b1):
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    bad = b1.with_options(f=[f], f_prices=[3])
    spec = RobustSpec(bad, PriorSet((_uniform(b1.tree),)))
    with pytest.raises(HypothesisFailure):
        sub_hedge_robust(spec, b1.claims["up_digital"])


def test_check_sna_robust_singleton_agrees_with_single_prior():
    rng = random.Random(606)
    for _ in range(12):
        market = random_market(rng, max_depth=2)
        spec = RobustSpec(market, PriorSet((_uniform(market.tree),)))
        robust = check_sna_robust(spec)
        single = check_sna(market)
        assert (robust.verdict == NO_ARBITRAGE) == (single.verdict == NO_ARBITRAGE)


def test_check_sna_robust_quasi_sure_arbitrage(t2):
    f = TerminalClaim(t2.tree, {l: t2.S.scalar_at(l) for l in t2.tree.leaves})
    bad = t2.with_options(f=[f], f_prices=[6])  # terminal stock sold at 6 != 4
    spec = RobustSpec(bad, PriorSet((_uniform(t2.tree), _partial_t2(t2.tree))))
    verdict = check_sna_robust(spec)
    assert verdict.verdict == ARBITRAGE
    union = sorted(union_support(spec.priors))
    values = [portfolio_value(bad, verdict.portfolio, l) for l in union]
    assert all(v >= 0 for v in values) and any(v > 0 for v in values)


def test_check_sna_robust_two_prior_stock_only(t2):
    spec = RobustSpec(t2, PriorSet((_uniform(t2.tree), _partial_t2(t2.tree))))
    assert check_sna_robust(spec).verdict == NO_ARBITRAGE


@pytest.mark.parametrize("witness, priors, message", [
    (_uniform, (_uniform,), "martingale drift"),
    (_emm_t2, (_partial_t2, lambda tree: Measure(tree, {"uu": F(1, 2), "dd": F(1, 2)})),
     "support inside no prior's support"),
], ids=["not_a_martingale", "not_dominated"])
def test_robust_witness_is_re_verified_on_every_call(monkeypatch, t2, witness, priors, message):
    """A NO_ARBITRAGE verdict's witness must be a strict pricing measure
    dominated by some prior; the kept verdict is re-checked on each call."""
    market = build_market(market_to_json(t2))
    Q = witness(market.tree)
    monkeypatch.setattr(robust, "_dominating_slack",
                        lambda spec, floor: measures.SlackResult("optimal", F(1, 9), witness=Q))
    spec = RobustSpec(market, PriorSet(tuple(P(market.tree) for P in priors)))
    for _ in range(2):
        with pytest.raises(VerificationFailure, match=message):
            check_sna_robust(spec)


def test_robust_witness_may_leave_the_market_support(t2):
    """Quasi-sure questions range over the priors' supports, not the market
    file's `support`: a witness on a prior wider than it re-checks."""
    market = build_market(market_to_json(t2.on_support(["uu", "ud", "du"])))
    spec = RobustSpec(market, PriorSet((_uniform(market.tree),)))
    verdict = check_sna_robust(spec)
    assert verdict.verdict == NO_ARBITRAGE and verdict.pricing.support() == set(t2.tree.leaves)


def _asked(ask, read=lambda r: r):
    """`read` of what a robust question answered, or the refusal's type and
    message."""
    try:
        return read(ask())
    except (RobustError, VerificationFailure) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_market_support_moves_no_robust_answer(seed):
    """Quasi-sure means pointwise on the union of the prior supports, with no
    reference measure: on random markets with two nested priors (in either
    order), every robust answer on the market restricted to a random leaf
    set equals the one on the market itself.  Compared are the verdict, its
    slacks and witness, the European and American sub-hedges' price and
    dual, each prior's dominating measure with its caps and mixture weight,
    and the minimax identity over the priors."""
    rng = random.Random(seed)
    market = random_market(rng, max_depth=2)
    priors = _two_nested_priors(rng, market.tree)
    if rng.random() < 0.5:
        priors = PriorSet(priors.priors[::-1])
    leaves = rng.sample(market.tree.leaves, rng.randint(1, len(market.tree.leaves)))
    claims = (random_claim(rng, market.tree), random_process(rng, market.tree))

    def answers(m):
        spec = RobustSpec(m, priors)
        verdict = check_sna_robust(spec)
        return ([(verdict.verdict, verdict.g_slacks, verdict.h_slacks, verdict.pricing)]
                + [_asked(lambda: sub_hedge_robust(spec, claim), lambda r: (r.price, r.dual))
                   for claim in claims]
                + [_asked(lambda: dominating_measure(spec, P)) for P in priors]
                + [_asked(lambda: minimax_check(list(spec.priors), list(spec.market.h)))])

    assert answers(market.on_support(leaves)) == answers(market)


def test_robust_spec_market_is_the_market_on_the_union_support(t2):
    """A spec's market is restricted to the union of the prior supports when
    the spec is made: the given market itself when that is its support, and
    one object per market and union otherwise."""
    full = PriorSet((_uniform(t2.tree), _partial_t2(t2.tree)))
    assert RobustSpec(t2, full).market is t2
    narrow = t2.on_support(["uu"])
    assert RobustSpec(narrow, full).market is narrow.on_support(t2.tree.leaves)
    spec = RobustSpec(t2, PriorSet((_partial_t2(t2.tree),)))
    assert spec.market is t2.on_support(["uu", "ud", "du"])
    assert spec.reduced(0).market is spec.market


def test_dominating_measure_base_case(b1):
    spec = RobustSpec(b1, PriorSet((_uniform(b1.tree),)))
    result = dominating_measure(spec, _uniform(b1.tree))
    assert result.Q.weights == {"u": F(1, 2), "d": F(1, 2)}
    assert result.h_tilde == ()


def test_dominating_measure_one_option(t2):
    put = t2.claims["put5_am"]
    market = t2.with_options(h=[put], h_prices=[F(3)])  # cheap cap: 20/9 < 3
    priors = PriorSet((_uniform(t2.tree), _partial_t2(t2.tree)))
    spec = RobustSpec(market, priors)
    for P in priors:
        result = dominating_measure(spec, P)
        assert P.support() <= result.Q.support()
        assert result.h_tilde[0] < F(3)
        assert snell_value(result.Q, put) <= result.h_tilde[0]
        pset = PricingSetSpec(market, g_cap=result.g_tilde, h_cap=result.h_tilde)
        assert membership(result.Q, pset, strict=False)


def test_dominating_measure_two_options_recursion(t2):
    """Two American options exercise the full induction: the last option is
    sub-hedged in the reduced market, the recursion handles the first."""
    put = t2.claims["put5_am"]
    call_vals = {n: max(t2.S.scalar_at(n) - 4, F(0)) for n in t2.tree.nodes}
    call = AdaptedProcess(t2.tree, call_vals)
    # envelope values under the unique pricing measure: put 20/9, call 4/3
    market = t2.with_options(h=[put, call], h_prices=[F(3), F(2)])
    priors = PriorSet((_uniform(t2.tree), _partial_t2(t2.tree)))
    spec = RobustSpec(market, priors)
    for P in priors:
        result = dominating_measure(spec, P)
        assert result.lam is not None
        assert result.h_tilde[0] < 3 and result.h_tilde[1] < 2
        assert snell_value(result.Q, put) <= result.h_tilde[0]
        assert snell_value(result.Q, call) <= result.h_tilde[1]
        assert P.support() <= result.Q.support()


def test_dominating_measure_small_support_prior(t2):
    put = t2.claims["put5_am"]
    market = t2.with_options(h=[put], h_prices=[F(3)])
    tiny = Measure(t2.tree, {"dd": 1})
    priors = PriorSet((_uniform(t2.tree), tiny))
    result = dominating_measure(RobustSpec(market, priors), tiny)
    # supports only grow under mixing
    assert tiny.support() <= result.Q.support()


def test_dominating_measure_refuses_without_sna(b1):
    h = AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 3})
    market = b1.with_options(h=[h], h_prices=[F(1)])  # exercise value 3/2 > 1
    spec = RobustSpec(market, PriorSet((_uniform(b1.tree),)))
    from semistatic.robust import RobustError

    with pytest.raises(RobustError):
        dominating_measure(spec, _uniform(b1.tree))


def _two_nested_priors(rng, tree):
    full = _uniform(tree)
    leaves = list(tree.leaves)
    k = rng.randint(1, len(leaves))
    sub = rng.sample(leaves, k)
    weights = {l: F(rng.randint(1, 5)) for l in sub}
    total = sum(weights.values())
    partial = Measure(tree, {l: w / total for l, w in weights.items()})
    return PriorSet((full, partial))


@pytest.mark.parametrize("seed", range(6))
def test_domination_criterion_agreement_random(seed):
    """Robust strict no-arbitrage holds exactly when a dominating measure is
    constructible for every prior; the caps of the constructions are strictly
    inside the quotes."""
    rng = random.Random(12_000 + seed)
    for _ in range(4):
        market = random_market(rng, max_depth=2)
        if len(market.h) > 1:
            market = market.without_american(1)
        priors = _two_nested_priors(rng, market.tree)
        spec = RobustSpec(market, priors)
        verdict = check_sna_robust(spec)
        try:
            results = [dominating_measure(spec, P) for P in priors]
            constructed = True
        except Exception:
            constructed = False
        assert (verdict.verdict == NO_ARBITRAGE) == constructed
        if constructed:
            g_tilde = tuple(min(r.g_tilde[j] for r in results)
                            for j in range(len(market.g)))
            h_tilde = tuple(min(r.h_tilde[k] for r in results)
                            for k in range(len(market.h)))
            for g_t, g_p in zip(g_tilde, market.g_prices):
                assert g_t < g_p
            for h_t, h_p in zip(h_tilde, market.h_prices):
                assert h_t < h_p
            for r, P in zip(results, priors):
                pset = PricingSetSpec(market, g_cap=g_tilde or (), h_cap=h_tilde or ())
                # the common caps may be tighter than this prior's own; its
                # measure still satisfies its own caps strictly under quotes
                own = PricingSetSpec(market, g_cap=r.g_tilde, h_cap=r.h_tilde)
                assert membership(r.Q, own, strict=False)


def _rows_key(problem):
    """An LP as a hashable value: its sense, objective, variables and rows."""
    return (problem.sense, tuple(problem.objective.items()), tuple(problem.variables),
            problem.free, tuple((r.name, r.rel, tuple(r.num.items()), r.rhs_num, r.den)
                                for r in problem.constraints))


def test_robust_ops_on_one_market_solve_no_lp_twice(monkeypatch):
    """The benchmark's robust operations on one market with one American
    option and two nested priors (the verdict, a domination of each prior,
    and a robust sub-hedge of a European and of an American claim) pass no LP
    to `solve` twice: the reduced market's slack LPs are the full market's
    first cut rounds, kept on the stock process."""
    from semistatic import ftap, hedging
    from semistatic.lp import solve

    seen = []

    def keep(problem):
        seen.append(_rows_key(problem))
        return solve(problem)

    for module in (ftap, hedging, measures, robust):
        monkeypatch.setattr(module, "solve", keep)
    asked = 0
    for seed in range(40):
        rng = random.Random(14_000 + seed)
        market = random_market(rng, max_depth=2)
        if not market.h:
            continue
        spec = RobustSpec(market.without_american(1), _two_nested_priors(rng, market.tree))
        seen.clear()
        check_sna_robust(spec)
        for P in spec.priors:
            try:
                dominating_measure(spec, P)
            except (RobustError, VerificationFailure):
                pass
        for claim in (random_claim(rng, market.tree), random_process(rng, market.tree)):
            try:
                sub_hedge_robust(spec, claim)
            except HypothesisFailure:
                pass
        assert len(seen) == len(set(seen)), seed
        asked += len(seen) > 0
    assert asked >= 10


@pytest.mark.parametrize("seed", range(5))
def test_robust_duality_random_nested(seed):
    rng = random.Random(13_000 + seed)
    done = 0
    while done < 3:
        market = random_market(rng, max_depth=2)
        priors = _two_nested_priors(rng, market.tree)
        spec = RobustSpec(market, priors)
        try:
            psi = random_claim(rng, market.tree)
            result = sub_hedge_robust(spec, psi)
        except HypothesisFailure:
            continue
        done += 1
        assert result.gap == 0


def test_empty_pricing_set_prices_at_infinity(t2):
    """A cap below every attainable exercise value empties the pricing set
    while the stock-and-European hypothesis still holds: the price is the
    tagged infinity, never a rational."""
    from semistatic import INFINITE_PRICE

    put = t2.claims["put5_am"]
    market = t2.with_options(h=[put], h_prices=[F(1)])  # envelope value is 20/9
    spec = RobustSpec(market, PriorSet((_uniform(t2.tree),)))
    result = sub_hedge_robust(spec, t2.claims["put5_eu"])
    assert result.price == INFINITE_PRICE
    assert result.details["pricing_set_empty"]


def test_priors_round_trip_in_market_file(t2):
    from semistatic.market import build_market, market_to_json

    text = market_to_json(replace(t2, priors=({"uu": F(1, 2), "dd": F(1, 2)},)))
    again = build_market(text)
    assert again.priors == ({"uu": F(1, 2), "dd": F(1, 2)},)
    assert market_to_json(again) == text


def test_recombination_gap_detected():
    """Non-nested priors: a martingale measure straddling both supports prices
    the claim strictly below every component, so the operation refuses."""
    tree = EventTree([
        ("r", None, 0),
        ("a", "r", 1), ("b", "r", 1), ("c", "r", 1), ("d", "r", 1),
    ])
    S = AdaptedProcess(tree, {"r": F(5, 2), "a": 1, "b": 2, "c": 3, "d": 4})
    market = MarketSpec(tree=tree, S=S)
    p_odd = Measure(tree, {"a": F(1, 2), "d": F(1, 2)})
    p_even = Measure(tree, {"b": F(1, 2), "c": F(1, 2)})
    spec = RobustSpec(market, PriorSet((p_odd, p_even)))
    psi = TerminalClaim(tree, {"a": 0, "b": 1, "c": 0, "d": 1})
    with pytest.raises(RobustDualityGapError):
        sub_hedge_robust(spec, psi)


def test_robust_dual_certificate_is_checked_against_its_component():
    """The returned measure must be dominated by the attaining prior: a
    martingale measure off that prior's support fails the re-check even when
    it values the claim at the price."""
    from dataclasses import replace

    from semistatic.hedging import VerificationFailure, duality_gap_report

    tree = EventTree([
        ("r", None, 0),
        ("a", "r", 1), ("b", "r", 1), ("c", "r", 1), ("d", "r", 1),
    ])
    S = AdaptedProcess(tree, {"r": F(5, 2), "a": 1, "b": 2, "c": 3, "d": 4})
    market = MarketSpec(tree=tree, S=S)
    p_odd = Measure(tree, {"a": F(1, 2), "d": F(1, 2)})
    p_even = Measure(tree, {"b": F(1, 2), "c": F(1, 2)})
    spec = RobustSpec(market, PriorSet((p_odd, p_even)))
    result = sub_hedge_robust(spec, constant_claim(tree, F(3, 2)))
    assert result.price == F(3, 2)
    assert result.dual == p_odd  # the first component attains; ties keep it
    assert duality_gap_report(result)["verified"]
    off_component = Measure(tree, {"b": F(1, 2), "c": F(1, 2)})
    assert membership(off_component, PricingSetSpec(market), strict=False)
    with pytest.raises(VerificationFailure, match="support outside the market support"):
        duality_gap_report(replace(result, dual=off_component))


def test_minimax_singleton_is_sum_of_envelopes(t2):
    put = t2.claims["put5_am"]
    emm = _emm_t2(t2.tree)
    result = minimax_check([emm], [put])
    assert result.lhs == result.mid == result.rhs == F(20, 9)
    double = minimax_check([emm], [put, put])
    assert double.rhs == 2 * result.rhs


def test_minimax_t2_segment_with_oracle(t2):
    """Two-vertex hull: the lower envelope of the per-stop affine values over
    the segment is scanned exactly (endpoints plus pairwise crossings)."""
    put = t2.claims["put5_am"]
    emm, uni = _emm_t2(t2.tree), _uniform(t2.tree)
    result = minimax_check([emm, uni], [put])
    assert result.lhs == result.mid == result.rhs

    taus = enumerate_stopping_times(t2.tree)
    lines = []
    for tau in taus:
        v0 = uni.expect_at_stop(put, tau)
        v1 = emm.expect_at_stop(put, tau)
        lines.append((v0, v1 - v0))  # value at lam: v0 + lam * slope
    candidates = {F(0), F(1)}
    for (b1_, s1), (b2_, s2) in combinations(lines, 2):
        if s1 != s2:
            lam = (b2_ - b1_) / (s1 - s2)
            if 0 <= lam <= 1:
                candidates.add(lam)
    oracle = min(max(b + lam * s for b, s in lines) for lam in candidates)
    assert result.rhs == oracle
    assert snell_value(result.attaining, put) == oracle


def test_minimax_two_options_additivity(t2):
    put = t2.claims["put5_am"]
    call_vals = {n: max(t2.S.scalar_at(n) - 4, 0) for n in t2.tree.nodes}
    call = AdaptedProcess(t2.tree, call_vals)
    emm, uni = _emm_t2(t2.tree), _uniform(t2.tree)
    both = minimax_check([emm, uni], [put, call])
    assert both.lhs == both.mid == both.rhs


def _random_hull(seed):
    """The random hull and options of `test_minimax_random`'s seed."""
    rng = random.Random(14_000 + seed)
    tree = random_market(rng, max_depth=2).tree
    verts = [random_measure(rng, tree, full_support=rng.random() < 0.7)
             for _ in range(rng.randint(1, 3))]
    return verts, [random_process(rng, tree) for _ in range(rng.randint(1, 2))]


# the path each hull of `test_minimax_random` takes: "strict" when one vertex
# is proved the strict optimum from its optimal stops, else "lp"
_RANDOM_HULL_PATHS = ("lp", "strict", "strict", "lp", "lp", "lp")


@pytest.mark.parametrize("seed", range(6))
def test_minimax_random(seed, monkeypatch):
    """The identity on random hulls, each on its pinned path; both paths are
    among the six."""
    solves = _count(monkeypatch, robust, "solve")
    verts, hs = _random_hull(seed)
    result = minimax_check(verts, hs)
    assert result.lhs == result.mid == result.rhs
    total = sum((snell_value(result.attaining, h) for h in hs), F(0))
    assert total == result.rhs
    assert ("lp" if solves else "strict") == _RANDOM_HULL_PATHS[seed]
    assert set(_RANDOM_HULL_PATHS) == {"lp", "strict"}


def _proved_strict_vertex(verts, hs):
    """The vertex whose optimal stops prove it the hull's strict optimum, or
    None: the one vertex with the least summed envelope, when its optimal
    stops are worth more than that at every other vertex."""
    sums = [sum((snell_value(R, h) for h in hs), F(0)) for R in verts]
    least = [b for b, v in enumerate(sums) if v == min(sums)]
    if len(least) > 1:
        return None
    b = least[0]
    taus = [snell_optimal_stop(verts[b], h) for h in hs]
    worth = [sum((R.expect_at_stop(h, tau) for h, tau in zip(hs, taus)), F(0)) for R in verts]
    return b if all(c > sums[b] for j, c in enumerate(worth) if j != b) else None


def test_minimax_solves_one_lp(monkeypatch):
    """At most one LP per call on the random hulls of `test_minimax_random`:
    none, and no stop enumerated, when one vertex is proved the strict
    optimum; else exactly one, whose duals give the flows, so no second LP
    (nor a cut loop) runs.  Both kinds of hull occur."""
    solves = _count(monkeypatch, robust, "solve")
    enumerations = _count(monkeypatch, robust, "enumerate_stopping_times")
    cut_loops = _count(monkeypatch, measures, "solve")
    strict = []
    for seed in range(6):
        verts, hs = _random_hull(seed)
        solves.clear()
        enumerations.clear()
        cut_loops.clear()
        minimax_check(verts, hs)
        strict.append(_proved_strict_vertex(verts, hs) is not None)
        assert len(solves) == len(enumerations) == (0 if strict[-1] else 1)
        assert not cut_loops
    assert set(strict) == {True, False}


def test_minimax_equals_the_oracle_stop_side_lp(monkeypatch):
    """On random hulls of depth <= 2 trees, 1-3 vertices with partial
    supports and a duplicated vertex forcing ties, and 1-2 options,
    `minimax_check`'s lhs, mid and rhs equal the optimum of the stop-side LP
    solved from `oracles.minimax_rows`'s Fraction rows, and its attaining
    measure is that LP's optimal mixture, den and num in the same leaf
    order: on hulls proved by a strict vertex (no LP) and on hulls the
    engine's own LP decides, both seen."""
    solves = _count(monkeypatch, robust, "solve")
    lps_per_call = set()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tie=st.booleans(), n_options=st.integers(1, 2))
    def compare(seed, tie, n_options):
        rng = random.Random(seed)
        tree = random_tree(rng, max_depth=2)
        verts = [random_measure(rng, tree, full_support=rng.random() < 0.5)
                 for _ in range(rng.randint(1, 3))]
        if tie and len(verts) > 1:
            verts[-1] = Measure(tree, rng.choice(verts[:-1]).weights)
        hs = [random_process(rng, tree) for _ in range(n_options)]
        solves.clear()
        result = minimax_check(verts, hs)
        lps_per_call.add(len(solves))
        rhs, attaining = oracles.minimax_stop_side(verts, hs)
        assert result.values() == (rhs, rhs, rhs)
        assert result.attaining.den == attaining.den
        assert list(result.attaining.num.items()) == list(attaining.num.items())

    compare()
    assert lps_per_call == {0, 1}


def _ends_t2(tree):
    return Measure(tree, {"uu": F(1, 2), "dd": F(1, 2)})


def test_minimax_t2_mixture_optimum(t2):
    """The uniform vertex and the half-half measure on uu and dd: their put
    envelopes are 7/4 and 2, and the hull's optimum is 5/3, at the strict
    mixture 2/3 uniform plus 1/3 of the other."""
    put = t2.claims["put5_am"]
    uni, ends = _uniform(t2.tree), _ends_t2(t2.tree)
    assert (snell_value(uni, put), snell_value(ends, put)) == (F(7, 4), F(2))
    result = minimax_check([uni, ends], [put])
    assert result.values() == (F(5, 3),) * 3
    assert result.attaining == uni.mixture(ends, F(2, 3))


def _tamper_t2_mixture(monkeypatch, t2, alter):
    """`minimax_check` on the hull of `test_minimax_t2_mixture_optimum`,
    whose optimum is a strict mixture so that the stop-side LP decides it,
    its LP solution altered by `alter(solution, n_stops)` after `lp.solve`
    has verified it."""
    real = robust.solve

    def tampered(problem):
        sol = real(problem)
        alter(sol, len(enumerate_stopping_times(t2.tree)))
        return sol

    monkeypatch.setattr(robust, "solve", tampered)
    return minimax_check([_uniform(t2.tree), _ends_t2(t2.tree)], [t2.claims["put5_am"]])


def test_minimax_rejects_a_flow_moved_to_a_worse_stop(monkeypatch, t2):
    """Option 0's first stop weight (2/3) moved onto stopping at the root
    (worth 1, the optimum is 5/3): the flow keeps unit mass but a vertex
    values it below rhs."""
    def move(sol, n):
        i = next(i for i in range(2, 1 + n) if sol.duals[i])
        sol.duals[1], sol.duals[i] = sol.duals[1] + sol.duals[i], ZERO

    with pytest.raises(VerificationFailure, match="minimax identity broken: 7/6, 5/3, 5/3"):
        _tamper_t2_mixture(monkeypatch, t2, move)


def test_minimax_rejects_a_flow_without_unit_mass(monkeypatch, t2):
    """Option 0's stop duals doubled: they sum to -2, so the flow's path mass
    is 2; a typed verification failure, not the strategy's TreeError."""
    def scale(sol, n):
        sol.duals[1:1 + n] = [2 * y for y in sol.duals[1:1 + n]]

    with pytest.raises(VerificationFailure, match="option 0: .*path mass 2 != 1"):
        _tamper_t2_mixture(monkeypatch, t2, scale)


def test_minimax_rejects_a_mixture_that_misses_rhs(monkeypatch, t2):
    """The optimal mixture (2/3, 1/3) replaced by the uniform vertex, whose
    envelope 7/4 is not rhs 5/3."""
    def swap(sol, n):
        sol.values["lam[0]"], sol.values["lam[1]"] = F(1), ZERO

    with pytest.raises(VerificationFailure, match="attaining measure gives 7/4, expected 5/3"):
        _tamper_t2_mixture(monkeypatch, t2, swap)


def test_minimax_rejects_a_strict_vertex_stop_that_misses_its_envelope(monkeypatch, t2):
    """On the T2 segment hull the uniform vertex is the strict optimum; its
    optimal stop replaced by stopping at the root (worth 1, the envelope is
    7/4) is a typed verification failure, not a fall back to the LP."""
    solves = _count(monkeypatch, robust, "solve")
    enumerations = _count(monkeypatch, robust, "enumerate_stopping_times")
    monkeypatch.setattr(robust, "snell_optimal_stop",
                        lambda Q, h: stop_everywhere_at(h.tree, 0))
    with pytest.raises(VerificationFailure,
                       match="optimal stops of vertex 1 are worth 1, its summed envelopes 7/4"):
        minimax_check([_emm_t2(t2.tree), _uniform(t2.tree)], [t2.claims["put5_am"]])
    assert not solves and not enumerations


def test_minimax_past_the_enumeration_cap(monkeypatch):
    """On the full depth-4 trinomial (389,017,001 stops, past the cap) a
    one-vertex hull is its own strict optimum and answers from its
    envelopes, with no LP; two vertices with equal summed envelopes leave no
    strict vertex, so the stop-side LP would need every stop, and it
    refuses."""
    rows = [("r", None, 0)]
    level = ["r"]
    for t in range(1, 5):
        level = [f"{n}{b}" for n in level for b in "udm"]
        rows += [(n, n[:-1], t) for n in level]
    tree = EventTree(rows)
    rng = random.Random(7)
    R, h = random_measure(rng, tree), random_process(rng, tree)
    solves = _count(monkeypatch, robust, "solve")
    result = minimax_check([R], [h])
    assert result.values() == (snell_value(R, h),) * 3 and result.attaining == R
    assert not solves
    with pytest.raises(EnumerationCapError, match="389017001 stopping times exceeds cap"):
        minimax_check([R, Measure(tree, R.weights)], [h])


def _count(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _t2_with_put(t2):
    """T2 with its American put quoted at 3, and the uniform and the partial
    prior."""
    market = t2.with_options(h=[t2.claims["put5_am"]], h_prices=[F(3)])
    return market, PriorSet((_uniform(t2.tree), _partial_t2(t2.tree)))


def _answers(spec_of):
    """Robust sub-hedges of both puts and a domination of each prior, each
    asked of a spec from `spec_of()`, as comparable values."""
    spec = spec_of()
    claims, priors = spec.market.claims, spec.priors
    eu = sub_hedge_robust(spec_of(), claims["put5_eu"])
    am = sub_hedge_robust(spec_of(), claims["put5_am"])
    doms = [dominating_measure(spec_of(), P) for P in priors]
    return ([(r.price, r.dual) for r in (eu, am)]
            + [(d.g_tilde, d.h_tilde, d.Q, d.lam) for d in doms])


def _deciders(monkeypatch):
    """Counted calls of what decides the robust questions: the verdict, the
    component slack LPs and the hedge LPs."""
    from semistatic import robust

    return {name: _count(monkeypatch, robust, name)
            for name in ("_robust_verdict", "max_slack", "hedge_primal")}


def _counts(deciders):
    return {name: len(calls) for name, calls in deciders.items()}


def _asked_again(once):
    """`_answers`' counts when nothing is decided again: each robust hedge
    solves its one hedge LP (the union's, which is the full prior's; the
    partial prior's support lies inside it) per call, and the domination's
    sub-hedge is kept."""
    return {**once, "hedge_primal": once["hedge_primal"] + 2 * 1}


def test_robust_hypothesis_decided_once_per_spec(monkeypatch, t2):
    """Robust hedges and dominations on one market and prior supports decide
    the hypothesis once and solve each prior support's component slack LPs
    once; new specs on the same market ask nothing again and answer the
    same."""
    market, priors = _t2_with_put(t2)
    deciders = _deciders(monkeypatch)
    spec = RobustSpec(market, priors)
    shared = _answers(lambda: spec)
    # one component is solved per prior: the partial prior's support lies
    # inside the full one's, so its own component is never asked
    assert _counts(deciders)["_robust_verdict"] == 1
    assert _counts(deciders)["max_slack"] == 2
    once = _counts(deciders)
    assert _answers(lambda: RobustSpec(market, priors)) == shared
    assert _counts(deciders) == _asked_again(once)


def test_sub_hedge_of_domination_solved_once_per_spec(monkeypatch, t2):
    """The sub-hedge of the last American option does not depend on the prior:
    dominating two priors solves its one hedge LP (the union's, which is the
    full prior's; the partial prior's support lies inside it) once per market
    and prior supports."""
    market, priors = _t2_with_put(t2)
    hedges = _deciders(monkeypatch)["hedge_primal"]
    shared = [dominating_measure(RobustSpec(market, priors), P) for P in priors]
    assert len(hedges) == 1
    fresh = [dominating_measure(RobustSpec(market, priors), P) for P in priors]
    assert len(hedges) == 1
    assert ([(d.g_tilde, d.h_tilde, d.Q, d.lam) for d in shared]
            == [(d.g_tilde, d.h_tilde, d.Q, d.lam) for d in fresh])


def test_failed_hypothesis_refuses_every_call(monkeypatch, b1):
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    market = b1.with_options(f=[f], f_prices=[3])
    priors = PriorSet((_uniform(b1.tree),))
    verdicts = _deciders(monkeypatch)["_robust_verdict"]
    refusals = []
    for claim in (b1.claims["up_digital"], constant_claim(b1.tree, 1), b1.claims["up_digital"]):
        with pytest.raises(HypothesisFailure) as failure:
            sub_hedge_robust(RobustSpec(market, priors), claim)
        refusals.append(failure.value.verdict)
    assert refusals[0].verdict == ARBITRAGE
    assert all(v is refusals[0] for v in refusals)
    assert len(verdicts) == 1


def test_priors_with_equal_supports_share_every_decision(monkeypatch, t2):
    """The robust decisions read the priors through their supports only:
    reweighted priors on the same supports ask nothing again and get the
    same answers."""
    market, priors = _t2_with_put(t2)
    reweighted = PriorSet((_emm_t2(t2.tree),
                           Measure(t2.tree, {"uu": F(1, 2), "ud": F(1, 4), "du": F(1, 4)})))
    assert [P.support() for P in reweighted] == [P.support() for P in priors]
    assert reweighted != priors
    deciders = _deciders(monkeypatch)
    shared = _answers(lambda: RobustSpec(market, priors))
    once = _counts(deciders)
    assert _answers(lambda: RobustSpec(market, reweighted)) == shared
    assert _counts(deciders) == _asked_again(once)


def test_rebuilt_market_decides_again(monkeypatch, t2):
    """Decisions are kept on the market object: the same market read back
    from its file decides everything again, with equal answers."""
    market, priors = _t2_with_put(t2)
    deciders = _deciders(monkeypatch)
    shared = _answers(lambda: RobustSpec(market, priors))
    once = _counts(deciders)
    rebuilt = build_market(market_to_json(market))
    rebuilt_priors = PriorSet(tuple(Measure(rebuilt.tree, P.weights) for P in priors))
    assert _answers(lambda: RobustSpec(rebuilt, rebuilt_priors)) == shared
    assert _counts(deciders) == {name: 2 * n for name, n in once.items()}


def test_robust_spec_cell_is_not_part_of_its_value(t2):
    priors = PriorSet((_uniform(t2.tree),))
    spec = RobustSpec(t2, priors)
    check_sna_robust(spec)
    assert spec == RobustSpec(t2, priors)
    assert repr(spec) == repr(RobustSpec(t2, priors))


@pytest.mark.parametrize("partial_first,slack_lps,hedge_lps", [(False, 1, 1), (True, 3, 2)],
                         ids=["full_first", "partial_first"])
def test_robust_hedge_solves_one_lp_per_maximal_support(monkeypatch, t2, partial_first,
                                                        slack_lps, hedge_lps):
    """A robust hedge solves one LP per prior support not inside an earlier
    prior's, the union's among them, and nothing else: no closure-side dual
    LP.  With the full prior first, the partial prior is never asked: the
    hypothesis solves the full prior's slack LP and each hedge the union LP
    (which is the full prior's).  With the partial prior first, the later
    full prior strictly contains it and is asked too: the partial prior's
    slack over both components and the full prior's over its own, and a
    hedge LP on each support."""
    from semistatic import hedging, measures, robust

    market = t2.with_options(h=[t2.claims["put5_am"]], h_prices=[F(3)])
    priors = (_uniform(t2.tree), _partial_t2(t2.tree))
    spec = RobustSpec(market, PriorSet(priors[::-1] if partial_first else priors))
    slacks = _count(monkeypatch, robust, "max_slack")
    sub_hedge_robust(spec, constant_claim(t2.tree, 1))  # decides the hypothesis
    assert len(slacks) == slack_lps
    monkeypatch.undo()
    for claim in (t2.claims["put5_eu"], t2.claims["put5_am"]):
        solves = [_count(monkeypatch, mod, "solve") for mod in (hedging, measures, robust)]
        duals = [_count(monkeypatch, mod, "dual_optimum")
                 for mod in (hedging, robust) if hasattr(mod, "dual_optimum")]
        result = sub_hedge_robust(spec, claim)
        assert result.gap == 0
        assert sum(map(len, solves)) == hedge_lps
        assert sum(map(len, duals)) == 0
        monkeypatch.undo()


def test_robust_hedge_market_is_the_market_on_the_union_support():
    """A robust hedge's market is its market restricted to the union of the
    prior supports (`on_support`), the same object for every claim, and
    `duality_gap_report` re-checks the portfolio on exactly those leaves; on
    random two-prior sets whose union misses some leaf."""
    from semistatic import INFINITE_PRICE
    from semistatic.hedging import duality_gap_report

    rng = random.Random(4)
    found = 0
    while found < 4:
        market = random_market(rng, max_depth=2)
        priors = _random_priors(rng, market)
        union = union_support(priors)
        if union == frozenset(market.tree.leaves):
            continue
        spec = RobustSpec(market, priors)
        for claim in (random_claim(rng, market.tree), random_process(rng, market.tree)):
            try:
                result = sub_hedge_robust(spec, claim)
            except (HypothesisFailure, RobustDualityGapError):
                break
            assert result.market is market.on_support(union)
            assert result.market.support_leaves() == \
                tuple(l for l in market.tree.leaves if l in union)
            assert "pointwise_leaves" not in result.details
            if result.price != INFINITE_PRICE:
                assert duality_gap_report(result)["leaves_checked"] == len(union)
            found += 1


def _random_priors(rng, market):
    """Two priors, nested or not: each a mixture of two closure vertices (a
    non-empty component) or a random measure on a random support."""
    verts = polytope_vertices_as_measures(closure_polytope(PricingSetSpec(market)),
                                          market.tree)
    out = []
    for _ in range(2):
        if verts and rng.random() < 0.7:
            out.append(rng.choice(verts).mixture(rng.choice(verts), F(rng.randint(1, 3), 4)))
        else:
            out.append(random_measure(rng, market.tree, full_support=rng.random() < 0.3))
    return PriorSet(tuple(out))


@pytest.mark.parametrize("seed", range(3))
def test_robust_price_is_the_cheapest_component_dual(seed):
    """The robust hedge's components (hedge LPs on each prior's support)
    against the closure-side dual LP of each component, on random two-prior
    sets, nested or not: the price, or the component minimum a duality-gap
    refusal reports, is the least non-empty component's `dual_optimum`, and
    the price is infinite exactly when every component is empty."""
    from dataclasses import replace

    from semistatic import INFINITE_PRICE
    from semistatic.hedging import dual_optimum

    rng = random.Random(14_000 + seed)
    done = 0
    while done < 20:
        market = random_market(rng, max_depth=2)
        if rng.random() < 0.5:
            # without European books, non-nested martingale priors pass the hypothesis
            market = market.with_options(f=[], f_prices=[], g=[], g_prices=[])
        priors = _random_priors(rng, market)
        spec = RobustSpec(market, priors)
        for kind, claim in (("sub_eu", random_claim(rng, market.tree)),
                            ("sub_am", random_process(rng, market.tree))):
            try:
                price = sub_hedge_robust(spec, claim).price
            except HypothesisFailure:
                break
            except RobustDualityGapError as gap:
                price = gap.dual
            components = [dual_optimum(PricingSetSpec(replace(market, support=P.support())),
                                       claim, kind)[0] for P in priors]
            values = [sol.objective for sol in components if sol.status == "optimal"]
            assert price == (min(values) if values else INFINITE_PRICE), kind
        else:
            done += 1


def _on(rng, tree, leaves):
    """A measure with random positive weights on `leaves`."""
    weights = {l: F(rng.randint(1, 8)) for l in leaves}
    total = sum(weights.values())
    return Measure(tree, {l: w / total for l, w in weights.items()})


def _shaped_priors(rng, market, shape):
    """A prior list of the given shape, with random weights on supports made
    of the supports of the market's closure vertices (so that components are
    rarely empty), or of single leaves when the closure has no vertex."""
    tree = market.tree
    verts = polytope_vertices_as_measures(closure_polytope(PricingSetSpec(market)), tree)
    blocks = [sorted(Q.support()) for Q in verts] or [[l] for l in tree.leaves]
    rng.shuffle(blocks)
    every = sorted(set().union(*blocks))
    some = sorted(set(blocks[0]).union(*blocks[1:rng.randint(1, len(blocks))]))
    if shape == "nested":
        return PriorSet((_on(rng, tree, every), _on(rng, tree, some), _on(rng, tree, blocks[0])))
    if shape == "disjoint":
        rest = [b for b in blocks[1:] if not set(b) & set(blocks[0])]
        other = rest[0] if rest else sorted(set(tree.leaves) - set(blocks[0]))
        return PriorSet((_on(rng, tree, blocks[0]), _on(rng, tree, other or every)))
    if shape == "equal":
        return PriorSet((_on(rng, tree, some), _on(rng, tree, some)))
    if shape == "single_leaf":
        return PriorSet((_on(rng, tree, every[:1]), _on(rng, tree, every),
                         _on(rng, tree, every[-1:])))
    assert shape == "later_contains_earlier"
    return PriorSet((_on(rng, tree, blocks[0]), _on(rng, tree, every)))


def _outcome(ask):
    """What a robust question answered, as a comparable value: the hedge's
    market, price, measure, portfolio, exercise flow and dual component, or
    any other result as is, or the refusal's type and message."""
    return _asked(ask, lambda r: (r.market, r.price, r.dual, r.portfolio, r.eta, r.details)
                  if isinstance(r, HedgeResult) else r)


@pytest.mark.parametrize("shape", ["nested", "disjoint", "equal", "single_leaf",
                                   "later_contains_earlier"])
def test_maximal_supports_answer_as_every_support(monkeypatch, shape):
    """Asking only the prior supports not inside an earlier prior's changes
    no answer: against the unpruned reference (every component and every
    prior solved, the earlier one winning ties) on random markets, the
    verdict, each prior's best slack (status, optimum, witness, certificate),
    the robust sub-hedges and the dominating measures are equal.  The
    reference dominations are the engine's construction with the unpruned
    slack and sub-hedge, on a copy of the market that has decided nothing."""
    from dataclasses import replace

    rng = random.Random(15_000 + len(shape))
    held = 0
    for _ in range(16):
        market = random_market(rng, max_depth=2)
        if len(market.tree.leaves) < 2:
            continue
        if rng.random() < 0.5:
            market = market.with_options(f=[], f_prices=[], g=[], g_prices=[])
        if shape == "disjoint":
            # every measure is a martingale of a flat stock, so that priors on
            # disjoint supports can each be dominated
            market = replace(market, S=AdaptedProcess(market.tree,
                                                      {n: 1 for n in market.tree.nodes}))
        priors = _shaped_priors(rng, market, shape)
        spec = RobustSpec(market, priors)
        verdict = check_sna_robust(spec)
        assert verdict == oracles.unpruned_robust_verdict(spec)
        held += verdict.verdict == NO_ARBITRAGE
        for P in priors:
            assert robust._dominating_slack(spec, P.support()) == \
                oracles.unpruned_dominating_slack(spec, P.support())
        for claim in (random_claim(rng, market.tree), random_process(rng, market.tree)):
            assert _outcome(lambda: sub_hedge_robust(spec, claim)) == \
                _outcome(lambda: oracles.unpruned_sub_hedge_robust(spec, claim))
        doms = [_outcome(lambda: dominating_measure(spec, P)) for P in priors]
        with monkeypatch.context() as patched:
            patched.setattr(robust, "_dominating_slack", oracles.unpruned_dominating_slack)
            patched.setattr(robust, "sub_hedge_robust", oracles.unpruned_sub_hedge_robust)
            fresh = RobustSpec(replace(market), priors)
            assert doms == [_outcome(lambda: dominating_measure(fresh, P)) for P in priors]
    assert held
