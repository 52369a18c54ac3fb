"""Pricing-set polytopes, slack maximization, and membership."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semistatic import (
    Measure,
    PricingSetSpec,
    TerminalClaim,
    closure_polytope,
    closure_vertices,
    load_fixture,
    max_slack,
    membership,
    vertices,
)
from semistatic import measures
from semistatic.fixtures import p2_measure
from semistatic.hedging import dual_optimum
from semistatic.lp import GE, LE, LpProblem, con, solve
from semistatic.measures import MeasureError, polytope_vertices_as_measures
from semistatic.stopping import count_stopping_times, enumerate_stopping_times, snell_value
from conftest import random_claim, random_market, random_measure, random_process
from oracles import martingale_system, p2_params_of, stop_node, witness_slacks

F = Fraction


def test_measure_validation(b1):
    with pytest.raises(MeasureError, match="sum"):
        Measure(b1.tree, {"u": F(1, 2), "d": F(1, 3)})
    with pytest.raises(MeasureError, match="negative"):
        Measure(b1.tree, {"u": F(3, 2), "d": F(-1, 2)})
    with pytest.raises(MeasureError, match="non-leaf node 'r'"):
        Measure(b1.tree, {"r": 1})
    with pytest.raises(MeasureError, match="unknown node 'zz'"):
        Measure(b1.tree, {"zz": 1})


def test_b1_martingale_system(b1):
    frag = martingale_system(b1)
    names = [c.name for c in frag.constraints]
    assert "mass" in names
    sol = solve(LpProblem("max", {}, frag.constraints, frag.variables))
    assert sol.values["w[u]"] == F(1, 2)


def test_t2_martingale_system_unique(t2):
    frag = martingale_system(t2)
    # 3 node equations + mass
    assert len(frag.constraints) == 4
    sol = solve(LpProblem("max", {}, frag.constraints, frag.variables))
    assert [sol.values[f"w[{l}]"] for l in t2.tree.leaves] == \
        [F(1, 9), F(2, 9), F(2, 9), F(4, 9)]


def test_p2_martingale_family_two_parameters(p2):
    poly = closure_polytope(PricingSetSpec(p2.without_american()))
    vs = vertices(poly)
    # pure martingale polytope over (p, q) in [0, 1/2]^2: a 2-dim family
    params = sorted(p2_params_of(Q) for Q in polytope_vertices_as_measures(poly, p2.tree))
    assert params == [(F(0), F(0)), (F(0), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1, 2))]
    assert len(vs) == 4


def test_t2_closure_no_options_single_point(t2):
    poly = closure_polytope(PricingSetSpec(t2))
    ms = polytope_vertices_as_measures(poly, t2.tree)
    assert len(ms) == 1
    assert ms[0].at("dd") == F(4, 9)


def test_p2_closure_with_zero_cap_is_region_a(p2):
    poly = closure_polytope(PricingSetSpec(p2))
    params = sorted(p2_params_of(Q) for Q in polytope_vertices_as_measures(poly, p2.tree))
    assert params == [
        (F(0), F(0)), (F(0), F(1, 5)), (F(1, 3), F(1, 5)),
        (F(1, 2), F(0)), (F(1, 2), F(3, 20)),
    ]


def test_infeasible_caps_empty_polytope(t2):
    put = t2.claims["put5_am"]
    market = t2.with_options(h=[put], h_prices=[F(20, 9)])
    # the unique pricing measure values the claim at 20/9; capping below kills it
    poly = closure_polytope(PricingSetSpec(market, h_cap=(F(2),)))
    assert vertices(poly) == []


def test_max_slack_b1_call(b1):
    call = TerminalClaim(b1.tree, {"u": 1, "d": 0})
    market = b1.with_options(g=[call], g_prices=[F(3, 4)])
    res = max_slack(PricingSetSpec.strict_emm(market))
    assert res.optimum == F(1, 4)
    option_slack, floor_slack = witness_slacks(PricingSetSpec.strict_emm(market), res.witness)
    assert option_slack == F(1, 4)
    assert floor_slack == F(1, 2)
    assert res.witness.at("u") == F(1, 2)


def test_max_slack_p2_interior_witness(p2):
    res = max_slack(PricingSetSpec.strict_emm(p2))
    assert res.strictly_positive
    ok = membership(res.witness, PricingSetSpec.strict_emm(p2), strict=True)
    assert ok, ok.violations
    p_, q_ = p2_params_of(res.witness)
    assert 0 < p_ < F(1, 2) and 0 < q_ < F(1, 2)
    # strictly inside the region: the exercise envelope is strictly negative
    from semistatic.stopping import snell_value
    assert snell_value(res.witness, p2.h[0]) < 0


def test_max_slack_infeasible_when_two_sided_leg_mispriced(b1):
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    market = b1.with_options(f=[f], f_prices=[F(3)])  # forces E[S1] = 3 != 2
    res = max_slack(PricingSetSpec.strict_emm(market))
    assert res.status == "infeasible"
    assert res.witness is None


def test_max_slack_cap_below_minimum_nonpositive(t2):
    put_eu = t2.claims["put5_eu"]
    market = t2.with_options(g=[put_eu], g_prices=[F(1)])
    # unique pricing measure values the claim at 11/9 > 1: no slack possible
    res = max_slack(PricingSetSpec.strict_emm(market))
    assert res.status == "optimal"
    assert res.optimum <= 0


def test_max_slack_min_identity(b1, t2, p2):
    """At the optimum, min(option slack, floor slack, 1) equals the LP value."""
    rng = random.Random(31)
    markets = [b1, t2, p2] + [random_market(rng) for _ in range(15)]
    for market in markets:
        spec = PricingSetSpec.strict_emm(market)
        res = max_slack(spec)
        if res.status != "optimal":
            continue
        candidates = [F(1)] + [s for s in witness_slacks(spec, res.witness) if s is not None]
        assert min(candidates) == res.optimum


def test_membership_t2_generous_caps(t2):
    put_eu = t2.claims["put5_eu"]
    market = t2.with_options(g=[put_eu], g_prices=[F(5)])
    Q = Measure(t2.tree, {"uu": F(1, 9), "ud": F(2, 9), "du": F(2, 9), "dd": F(4, 9)})
    assert membership(Q, PricingSetSpec.strict_emm(market), strict=True)


def test_membership_p2_printed_point(p2):
    Q = p2_measure(p2, F(1, 3), F(1, 5))
    spec = PricingSetSpec(p2)
    report = membership(Q, spec, strict=False)
    assert report, report.violations
    # the same point fails strictly (it sits on the boundary of the region)
    strict = membership(Q, spec, strict=True)
    assert not strict


def test_membership_violation_names_the_cap(p2):
    Q = p2_measure(p2, F(9, 20), F(9, 20))
    report = membership(Q, PricingSetSpec(p2), strict=False)
    assert not report
    assert any("h[0]" in v and "envelope" in v for v in report.violations)


def test_membership_martingale_violation_named(b1):
    Q = Measure(b1.tree, {"u": F(3, 4), "d": F(1, 4)})
    report = membership(Q, PricingSetSpec(b1), strict=False)
    assert not report
    assert any("martingale" in v and "r" in v for v in report.violations)


def test_closure_vertices_respect_caps(p2, t2):
    from semistatic.stopping import snell_value

    for market in (p2,):
        spec = PricingSetSpec(market)
        for Q in polytope_vertices_as_measures(closure_polytope(spec), market.tree):
            for k, cap in enumerate(market.h_prices):
                assert snell_value(Q, market.h[k]) <= cap


def test_mixture_density_property(p2):
    """Mixing the strict witness into any closure vertex stays strictly
    feasible: the strict set is dense in its closure."""
    spec_strict = PricingSetSpec.strict_emm(p2)
    res = max_slack(spec_strict)
    Q0 = res.witness
    poly = closure_polytope(PricingSetSpec(p2))
    for Qv in polytope_vertices_as_measures(poly, p2.tree):
        for lam in (F(1), F(1, 2), F(1, 7), F(1, 64)):
            mix = Q0.mixture(Qv, lam)
            assert membership(mix, spec_strict, strict=True), lam


def _cut_oracle_markets(p2, seed):
    """P2 plus random markets of depth <= 3 with American options, at least
    one on a tree with more than 32 stopping times."""
    rng = random.Random(seed)
    markets = [p2] + [m for m in (random_market(rng) for _ in range(12)) if m.h]
    assert max(count_stopping_times(m.tree) for m in markets) > 32
    return rng, markets


def _enumerated_slack_lp(spec):
    """The slack LP written out on closure_polytope's enumerated rows: t
    enters every g[..] and h[..] cap row, the floor rows and the cap t <= 1."""
    poly = closure_polytope(spec)
    rows = []
    for c in poly.constraints:
        if c.name.startswith(("g[", "h[")):
            c = con({**c.coeffs, "t": 1}, c.rel, c.rhs, c.name)
        rows.append(c)
    rows += [con({f"w[{l}]": 1, "t": -1}, GE, 0, f"floor[{l}]")
             for l in spec.market.support_leaves() if l in spec.support_floor]
    rows.append(con({"t": 1}, LE, 1, "slack_cap"))
    return LpProblem("max", {"t": 1}, rows, poly.variables + ["t"], free=frozenset({"t"}))


def test_closure_vertices_pass_snell_membership(p2):
    _, markets = _cut_oracle_markets(p2, 77)
    for market in markets:
        spec = PricingSetSpec(market)
        for Q in polytope_vertices_as_measures(closure_polytope(spec), market.tree):
            report = membership(Q, spec, strict=False)
            assert report, report.violations


def test_max_slack_equals_enumerated_slack_lp(p2):
    rng = random.Random(78)
    markets = [p2] + [random_market(rng) for _ in range(12)]
    assert max(count_stopping_times(m.tree) for m in markets) > 32
    for market in markets:
        spec = PricingSetSpec.strict_emm(market)
        cut = max_slack(spec)
        enum = solve(_enumerated_slack_lp(spec))
        assert cut.status == enum.status
        if enum.status == "optimal":
            assert cut.optimum == enum.objective


def test_max_slack_with_a_kept_round_0_equals_every_round_solved(monkeypatch):
    """A market, its reduction without American options, a copy with lower
    American quotes and their restrictions to a leaf subset share each slack
    LP's round 0, kept on the stock process; with it, `max_slack` returns
    field for field what solving every round afresh returns: the witness,
    the optimum and the certificate, on positive and nonpositive optima and
    on infeasible LPs alike."""
    import oracles
    from semistatic import measures

    calls = {"engine": 0, "oracle": 0}

    def counted(module, name):
        real = module.solve

        def solve_counted(problem):
            calls[name] += 1
            return real(problem)

        monkeypatch.setattr(module, "solve", solve_counted)

    counted(measures, "engine")
    counted(oracles, "oracle")
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        market = random_market(rng, max_depth=2)
        if not market.h:
            continue
        leaves = [l for l in market.tree.leaves if rng.random() < 0.7] or market.tree.leaves
        lowered = market.with_options(h_prices=[p - 1 for p in market.h_prices])
        for m in (market.without_american(0), market, lowered):
            for spec in (PricingSetSpec.strict_emm(m), PricingSetSpec(m.on_support(leaves))):
                calls.update(engine=0, oracle=0)
                got = max_slack(spec)
                fresh = oracles.slack_every_round(spec)
                assert got == fresh
                kept = calls["engine"] == calls["oracle"] - 1
                assert kept or calls["engine"] == calls["oracle"]
                sign = "infeasible" if got.status != "optimal" else got.optimum > 0
                seen.add((sign, kept, calls["engine"] > 0))
    assert {("infeasible", True, False), (False, True, False), (True, True, False),
            (True, True, True), (False, True, True), (True, False, True)} <= seen


def test_stop_cut_loop_refuses_a_round_that_makes_no_progress(monkeypatch):
    """A round whose LP answers with the last round's solution finds the same
    violated stop again; the loop raises naming the option instead of
    solving forever.  On a fresh T2 (so round 0 is solved, not read from the
    stock's store) with put5_am quoted at 1, round 1 is handed round 0's
    solution."""
    t2 = load_fixture("T2")
    market = t2.with_options(h=[t2.claims["put5_am"]], h_prices=[F(1)])
    solutions = []

    def stale(problem):
        solutions.append(solutions[0] if solutions else solve(problem))
        return solutions[-1]

    monkeypatch.setattr(measures, "solve", stale)
    with pytest.raises(MeasureError, match=r"failed to progress on option h\[0\]"):
        max_slack(PricingSetSpec.strict_emm(market))
    assert len(solutions) == 2


def test_dual_optimum_equals_enumerated_lp(p2):
    rng, markets = _cut_oracle_markets(p2, 77)
    for market in markets:
        spec = PricingSetSpec(market)
        poly = closure_polytope(spec)
        taus = enumerate_stopping_times(market.tree)
        psi = random_claim(rng, market.tree)
        phi = random_process(rng, market.tree)
        objective = {f"w[{l}]": psi.at(l) for l in market.support_leaves()}
        epigraph = [con({**{f"w[{l}]": phi.scalar_at(stop_node(tau, l))
                            for l in market.support_leaves()},
                         "z": -1}, LE, 0, f"epi[{i}]") for i, tau in enumerate(taus)]
        oracles = {
            "sub_eu": LpProblem("min", objective, poly.constraints, poly.variables),
            "super_div": LpProblem("max", objective, poly.constraints, poly.variables),
            "sub_am": LpProblem("min", {"z": 1}, poly.constraints + epigraph,
                                poly.variables + ["z"], free=frozenset({"z"})),
        }
        for kind, problem in oracles.items():
            enum = solve(problem)
            sol, Q = dual_optimum(spec, phi if kind == "sub_am" else psi, kind)
            assert sol.status == enum.status, kind
            if enum.status == "optimal":
                assert sol.objective == enum.objective, kind
                assert membership(Q, spec, strict=False), kind


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_caps_are_the_quotes_of_a_requoted_market(seed):
    """`PricingSetSpec(m, g_cap=c, h_cap=d)` is the pricing set of
    `m.with_options(g_prices=c, h_prices=d)`: the same closure rows, the same
    slack LP result and the same membership reports, strict or not."""
    rng = random.Random(seed)
    market = random_market(rng, max_depth=2)
    shifts = [F(-1, 2), F(0), F(1, 4), F(1)]
    c = tuple(p + rng.choice(shifts) for p in market.g_prices)
    d = tuple(p + rng.choice(shifts) for p in market.h_prices)
    floor = frozenset(l for l in market.support_leaves() if rng.random() < 0.5)
    capped = PricingSetSpec(market, g_cap=c, h_cap=d, support_floor=floor)
    quoted = PricingSetSpec(market.with_options(g_prices=c, h_prices=d), support_floor=floor)
    assert closure_polytope(capped) == closure_polytope(quoted)
    assert max_slack(capped) == max_slack(quoted)
    for Q in (random_measure(rng, market.tree), random_measure(rng, market.tree, False)):
        for strict in (False, True):
            assert membership(Q, capped, strict).violations == \
                membership(Q, quoted, strict).violations


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_closure_vertices_are_the_enumerated_vertices_kept_per_market(seed):
    """`closure_vertices` is `polytope_vertices_as_measures(closure_polytope)`
    on random markets, on them re-quoted with two American options at tight
    quotes (a pricing measure's Snell values) and restricted to a random
    support; a repeated call, at any floor, returns the kept tuple itself,
    and a `with_options` copy at other American quotes (or a spec with
    other caps) and an `on_support` restriction, asked after the market,
    are other markets that each enumerate and keep their own."""

    def decided(spec):
        """The vertices `spec`'s market keeps, checked to be its own."""
        before = dict(spec.market.__dict__.get("_kept", {}))
        got = closure_vertices(spec)
        assert "closure_vertices" not in before
        assert spec.market.__dict__["_kept"]["closure_vertices"] is got
        assert list(got) == polytope_vertices_as_measures(
            closure_polytope(spec), spec.market.tree)
        return got

    rng = random.Random(seed)
    market = random_market(rng, max_depth=2)
    tree = market.tree
    Q = measures.strict_emm_slack(market.without_american()).witness
    if Q is not None:
        h = (list(market.h) + [random_process(rng, tree) for _ in range(2)])[:2]
        market = market.with_options(h=h, h_prices=[snell_value(Q, hk) for hk in h])
    leaves = list(tree.leaves)
    support = rng.sample(leaves, rng.randint(1, len(leaves)))
    for m in {market: None, market.on_support(support): None}:
        kept = decided(PricingSetSpec(m))
        assert type(kept) is tuple
        floor = frozenset(l for l in m.support_leaves() if rng.random() < 0.5)
        assert closure_vertices(PricingSetSpec(m, support_floor=floor)) is kept
        if m.h:
            quotes = [p + rng.choice([F(-1, 4), F(1, 4), F(1)]) for p in m.h_prices]
            for other in (PricingSetSpec(m.with_options(h_prices=quotes)),
                          PricingSetSpec(m, h_cap=quotes)):
                decided(other)
        assert closure_vertices(PricingSetSpec(m)) is kept
