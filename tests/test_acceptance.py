"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Tolerances are exact rational equality except in the
floating-point utility audit, whose bounds are fixed here (1e-6 / 1e-5 / 1e-9).

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from semistatic import (
    NO_ARBITRAGE,
    Measure,
    PricingSetSpec,
    PriorSet,
    RobustSpec,
    check_sna,
    check_sna_robust,
    dominating_measure,
    load_fixture,
    log_utility,
    max_slack,
    membership,
    minimax_check,
    power_utility,
    snell_value,
    sub_hedge_american,
    sub_hedge_european,
    sub_hedge_robust,
    super_hedge_divisible,
    super_hedge_indivisible,
    duality_audit,
    UtilitySpec,
)
from semistatic.hedging import VerificationFailure, duality_gap_report
from semistatic.lp import EQ, LpProblem, con, solve
from semistatic.market import portfolio_value
from semistatic import robust
from semistatic.robust import HypothesisFailure, RobustError
from semistatic.stopping import StoppingTime, enumerate_stopping_times

from conftest import random_claim, random_market, random_measure, random_process
from oracles import minimax_flow_value, p2_params_of

F = Fraction


def _report(name: str, start: float, extra: str = ""):
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s){' ' + extra if extra else ''}")


@pytest.fixture(scope="module")
def corpus():
    """Randomized markets: <= 3 periods, <= 3 branches per node, <= 2 options
    of each kind, small rational data."""
    rng = random.Random(20240)
    return [random_market(rng) for _ in range(500)]


def test_criterion_1_motivating_market_reproduction():
    """Exact reproduction of the motivating two-period market's numbers."""
    start = time.monotonic()
    p2 = load_fixture("P2")
    psi = p2.claims["psi"]

    indiv = super_hedge_indivisible(p2, psi)
    assert indiv.price == F(1, 8)

    div = super_hedge_divisible(p2, psi)
    assert div.price == 0

    # the stop-late-up / stop-early-down inner value
    tau21 = StoppingTime(p2.tree, ["u1", "u2", "u3", "d"])
    assert indiv.details["per_stop_values"][tuple(sorted(tau21.stop_nodes))] == F(13, 8)

    # the dual maximizer of the divisible problem sits at (1/3, 1/5), where
    # the affine objective 3/4 p + 5 q - 5/4 vanishes and is maximal over the
    # closure of the admissible region
    Q = div.dual
    assert Q.expect_claim(psi) == 0
    p_, q_ = p2_params_of(Q)
    assert (p_, q_) == (F(1, 3), F(1, 5))
    objective = lambda p, q: F(3, 4) * p + 5 * q - F(5, 4)
    assert objective(p_, q_) == 0
    from semistatic.cli import emit_region

    polygon = emit_region(p2, ["u1", "d1"])
    assert all(objective(pt["u1"], pt["d1"]) <= 0 for pt in polygon)
    assert max(objective(pt["u1"], pt["d1"]) for pt in polygon) == 0

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("1 (motivating market: 1/8, 0, 13/8, (1/3,1/5))", start)


def test_criterion_2_strict_no_arbitrage_equivalence(corpus):
    """Three independently computed booleans agree on every instance and all
    certificates re-verify."""
    start = time.monotonic()
    holds = 0
    for market in corpus:
        spec = PricingSetSpec.strict_emm(market)
        slack = max_slack(spec)
        b_slack = slack.strictly_positive
        b_witness = (
            slack.status == "optimal"
            and slack.witness is not None
            and bool(membership(slack.witness, spec, strict=True))
        )
        verdict = check_sna(market)
        b_sna = verdict.verdict == NO_ARBITRAGE
        assert b_sna == b_slack == b_witness, market
        if b_sna:
            holds += 1
            # independent certificate re-check
            report = membership(verdict.pricing, spec, strict=True)
            assert report, report.violations
        elif verdict.portfolio is not None:
            shifted = market.with_options(
                g_prices=verdict.shifted_g, h_prices=verdict.shifted_h
            )
            values = [portfolio_value(shifted, verdict.portfolio, l)
                      for l in market.support_leaves()]
            assert all(v >= 0 for v in values) and any(v > 0 for v in values)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("2 (strict no-arbitrage equivalence)", start,
            f"{len(corpus)} markets, {holds} strictly arbitrage-free")


def test_criterion_3_hedging_duality_and_ordering(corpus):
    """Gap-free sub-hedging LPs and the price ordering chain on every
    strictly arbitrage-free instance (the indivisible link where defined,
    i.e. at most one American option); strictness witnessed on the
    motivating market (criterion 1: 0 < 1/8)."""
    start = time.monotonic()
    rng = random.Random(99_001)
    checked = 0
    for market in corpus:
        if not max_slack(PricingSetSpec.strict_emm(market)).strictly_positive:
            continue
        checked += 1
        psi = random_claim(rng, market.tree)
        phi = random_process(rng, market.tree)
        sub_eu = sub_hedge_european(market, psi)
        sub_am = sub_hedge_american(market, phi)
        assert sub_eu.gap == 0 and sub_am.gap == 0
        sup_div = super_hedge_divisible(market, psi)
        assert sup_div.gap == 0
        assert sub_eu.price <= sup_div.price
        # every closed-set pricing measure sits between the bounds
        assert sub_eu.price <= sub_eu.dual.expect_claim(psi)
        assert sup_div.dual.expect_claim(psi) <= sup_div.price
        mids = [sub_eu.dual, sup_div.dual, sub_am.dual]
        for Q in mids:
            assert sub_eu.price <= Q.expect_claim(psi) <= sup_div.price
        if len(market.h) <= 1:
            sup_indiv = super_hedge_indivisible(market, psi)
            assert sup_div.price <= sup_indiv.price
    # strictness of the divisible/indivisible gap, witnessed on the fixture
    p2 = load_fixture("P2")
    psi = p2.claims["psi"]
    assert super_hedge_divisible(p2, psi).price < super_hedge_indivisible(p2, psi).price
    _report("3 (hedging duality + ordering chain)", start, f"{checked} SNA markets")


def test_criterion_4_flow_stop_envelope_identity():
    """Liquidating-strategy LP value == stopping-time scan == envelope root,
    exactly, on 100+ random (measure, claim) pairs."""
    start = time.monotonic()
    rng = random.Random(44_001)
    pairs = 0
    while pairs < 120:
        market = random_market(rng)
        tree = market.tree
        h = random_process(rng, tree)
        Q = random_measure(rng, tree, full_support=rng.random() < 0.7)
        mass = {leaf: Q.at(leaf) for leaf in tree.leaves}
        for node in reversed(tree.nodes):
            if not tree.is_leaf(node):
                mass[node] = sum((mass[c] for c in tree.children(node)), F(0))
        rows = [con({f"eta[{n}]": 1 for n in tree.path(leaf)}, EQ, 1, f"p[{leaf}]")
                for leaf in tree.leaves]
        objective = {f"eta[{n}]": mass[n] * h.scalar_at(n) for n in tree.nodes
                     if mass[n] * h.scalar_at(n)}
        sol = solve(LpProblem("max", objective, rows,
                              [f"eta[{n}]" for n in tree.nodes]))
        assert sol.status == "optimal"
        scan = max(Q.expect_at_stop(h, tau) for tau in enumerate_stopping_times(tree))
        env = snell_value(Q, h)
        assert sol.objective == scan == env
        pairs += 1
    _report("4 (flow = stop scan = envelope root)", start, f"{pairs} pairs")


def test_criterion_5_minimax_identity(monkeypatch):
    """The three minimax quantities agree exactly, and with the Fraction
    flow-side LP's optimum, on 100+ randomized hulls, including singletons
    and 2-3 vertex hulls, with an attaining measure; both paths are seen,
    hulls proved by a strict vertex with no LP and hulls the stop-side LP
    decides."""
    start = time.monotonic()
    solves = []
    real_solve = robust.solve
    monkeypatch.setattr(robust, "solve", lambda problem: solves.append(1) or real_solve(problem))
    rng = random.Random(55_001)
    done = 0
    sizes = {1: 0, 2: 0, 3: 0}
    paths = {"strict": 0, "lp": 0}
    while done < 110:
        market = random_market(rng, max_depth=2)
        tree = market.tree
        n_vert = rng.choice([1, 2, 2, 3])
        verts = [random_measure(rng, tree, full_support=rng.random() < 0.7)
                 for _ in range(n_vert)]
        hs = [random_process(rng, tree) for _ in range(rng.randint(1, 2))]
        solves.clear()
        result = minimax_check(verts, hs)
        paths["lp" if solves else "strict"] += 1
        assert minimax_flow_value(verts, hs) == result.lhs == result.mid == result.rhs
        total = sum((snell_value(result.attaining, h) for h in hs), F(0))
        assert total == result.rhs
        sizes[n_vert] += 1
        done += 1
    assert all(sizes[k] > 0 for k in (1, 2, 3))
    assert all(paths.values())
    _report("5 (minimax identity)", start,
            f"{done} instances, hull sizes {dict(sizes)}, paths {paths}")


def _nested_priors(rng, tree):
    n = len(tree.leaves)
    full = Measure(tree, {l: F(1, n) for l in tree.leaves})
    leaves = list(tree.leaves)
    sub = rng.sample(leaves, rng.randint(1, n))
    weights = {l: F(rng.randint(1, 5)) for l in sub}
    total = sum(weights.values())
    return PriorSet((full, Measure(tree, {l: w / total for l, w in weights.items()})))


def test_criterion_6_robust_suite():
    """Two-prior randomized instances: quasi-sure hedge value equals the
    cheapest component dual exactly; the strict no-arbitrage verdict agrees
    with constructibility of dominating measures for every prior; every
    constructed measure respects strictly improved caps."""
    start = time.monotonic()
    rng = random.Random(66_001)
    priced = agreed = 0
    while priced < 40 or agreed < 40:
        market = random_market(rng, max_depth=2)
        if len(market.h) > 1:
            market = market.without_american(1)
        priors = _nested_priors(rng, market.tree)
        spec = RobustSpec(market, priors)

        verdict = check_sna_robust(spec)
        try:
            results = [dominating_measure(spec, P) for P in priors]
            constructed = True
        except (RobustError, VerificationFailure, HypothesisFailure):
            constructed = False
        assert (verdict.verdict == NO_ARBITRAGE) == constructed
        agreed += 1
        if constructed:
            for r, P in zip(results, priors):
                assert P.support() <= r.Q.support()
                for g_t, g_p in zip(r.g_tilde, market.g_prices):
                    assert g_t < g_p
                for h_t, h_p in zip(r.h_tilde, market.h_prices):
                    assert h_t < h_p
                pset = PricingSetSpec(market, g_cap=r.g_tilde, h_cap=r.h_tilde)
                assert membership(r.Q, pset, strict=False)

        try:
            psi = random_claim(rng, market.tree)
            res_eu = sub_hedge_robust(spec, psi)
            phi = random_process(rng, market.tree)
            res_am = sub_hedge_robust(spec, phi)
        except HypothesisFailure:
            continue
        assert res_eu.gap == 0 and res_am.gap == 0
        assert duality_gap_report(res_eu)["verified"]
        assert duality_gap_report(res_am)["verified"]
        priced += 1
    _report("6 (robust hedging + domination)", start,
            f"{agreed} verdicts, {priced} priced")


def test_criterion_7_utility_duality():
    """Value-function conjugacy and optimizer coupling within 1e-6, derivative
    formulas within 1e-5, on 20-point grids for log and power(1/2) utilities
    on both fixtures; closed forms on the one-period market within 1e-9."""
    import math

    start = time.monotonic()
    b1 = load_fixture("B1")
    t2 = load_fixture("T2")
    x_grid = list(np.geomspace(0.25, 4.0, 20))
    y_grid = [0.5, 1.0, 2.0]
    for market in (b1, t2):
        leaves = market.support_leaves()
        P = Measure(market.tree, {l: F(1, len(leaves)) for l in leaves})
        for utility in (log_utility(), power_utility(0.5)):
            spec = UtilitySpec(market, utility, P)
            report = duality_audit(spec, x_grid, y_grid)
            assert report.passed
            assert report.residuals["optimizer_coupling"] <= 1e-6
            assert report.residuals["product_identity"] <= 1e-6
            assert report.residuals["conjugacy_u_from_v"] <= 1e-6
            assert report.residuals["conjugacy_v_from_u"] <= 1e-6
            assert report.residuals["u_prime_formula"] <= 1e-5
            assert report.residuals["v_prime_formula"] <= 1e-5
    # closed form on the one-period market with log utility
    from semistatic.utility import dual_v, primal_u

    spec = UtilitySpec(b1, log_utility(),
                       Measure(b1.tree, {"u": F(1, 2), "d": F(1, 2)}))
    for x in x_grid:
        u, _ = primal_u(spec, x)
        assert abs(u - math.log(x)) <= 1e-9
    for y in (0.5, 1.0, 2.0, 4.0):
        v, _ = dual_v(spec, y)
        assert abs(v - (-math.log(y) - 1.0)) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("7 (utility duality)", start)
