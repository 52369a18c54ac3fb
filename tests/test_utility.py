"""Utility-maximization duality: closed forms on the complete market and the
grid audit."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from semistatic import (
    AuditFailure,
    Measure,
    UtilitySpec,
    dual_v,
    duality_audit,
    log_utility,
    power_utility,
    primal_u,
)
from semistatic.utility import UtilityError

F = Fraction


def _spec(market, utility):
    leaves = market.support_leaves()
    P = Measure(market.tree, {l: F(1, len(leaves)) for l in leaves})
    return UtilitySpec(market, utility, P)


def test_log_closed_form_b1(b1):
    spec = _spec(b1, log_utility())
    for x in (0.5, 1.0, 2.0, 4.0):
        u, p_hat = primal_u(spec, x)
        assert abs(u - math.log(x)) < 1e-9
        assert np.max(np.abs(p_hat - x)) < 1e-9
    for y in (0.5, 1.0, 3.0):
        v, q_hat = dual_v(spec, y)
        assert abs(v - (-math.log(y) - 1)) < 1e-9
        assert np.max(np.abs(q_hat - y)) < 1e-9


def test_log_conjugacy_spot_check_b1(b1):
    spec = _spec(b1, log_utility())
    u1, _ = primal_u(spec, 1.0)
    best = min(dual_v(spec, y)[0] + 1.0 * y for y in np.linspace(0.4, 2.5, 200))
    assert abs(u1 - 0.0) < 1e-9
    assert abs(best - u1) < 1e-4  # coarse grid; the audit does this properly


def test_power_closed_form_conjugate():
    util = power_utility(0.5)
    ys = np.array([0.25, 1.0, 4.0])
    assert np.allclose(util.V(ys), 1.0 / ys)
    assert np.allclose(util.I(ys), ys ** -2.0)


def test_inada_rejected():
    with pytest.raises(UtilityError):
        power_utility(1.5)


def test_reference_must_have_full_support(b1):
    P = Measure(b1.tree, {"u": 1})
    with pytest.raises(UtilityError, match="support"):
        UtilitySpec(b1, log_utility(), P)


def test_t2_log_closed_form(t2):
    """Complete two-period market: p-hat = x P/Q leafwise and
    u(x) = log x + KL(P || Q)."""
    spec = _spec(t2, log_utility())
    q = {"uu": F(1, 9), "ud": F(2, 9), "du": F(2, 9), "dd": F(4, 9)}
    P = F(1, 4)
    for x in (1.0, 3.0):
        u, p_hat = primal_u(spec, x)
        expect = [x * float(P / q[l]) for l in t2.tree.leaves]
        assert np.max(np.abs(p_hat - np.array(expect))) < 1e-7
        kl = sum(float(P) * math.log(float(P / q[l])) for l in t2.tree.leaves)
        assert abs(u - (math.log(x) + kl)) < 1e-9


def test_primal_respects_budget_constraints(p2):
    spec = _spec(p2, power_utility(0.5))
    x = 2.0
    _, p_hat = primal_u(spec, x)
    A = spec.densities * spec.p_weights[np.newaxis, :]
    assert np.all(A @ p_hat <= x + 1e-9)
    assert np.all(p_hat >= -1e-12)


def test_inada_trend_at_small_wealth(b1):
    spec = _spec(b1, power_utility(0.5))
    slopes = []
    for x in (1e-2, 1e-3, 1e-4):
        dx = 1e-6 * x
        up, _ = primal_u(spec, x + dx)
        dn, _ = primal_u(spec, x - dx)
        slopes.append((up - dn) / (2 * dx))
    assert slopes[0] < slopes[1] < slopes[2]  # u'(x) grows without bound


def test_dual_slope_vanishes_at_large_y(b1):
    spec = _spec(b1, log_utility())
    vals = []
    for y in (1e2, 1e4, 1e6):
        dy = 1e-6 * y
        up, _ = dual_v(spec, y + dy)
        dn, _ = dual_v(spec, y - dy)
        vals.append(abs((up - dn) / (2 * dy)))
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 1e-5


def test_audit_b1_log(b1):
    spec = _spec(b1, log_utility())
    grid = list(np.geomspace(0.25, 4.0, 20))
    report = duality_audit(spec, grid, y_grid=[0.5, 1.0, 2.0])
    assert report.passed
    assert report.asymptotic_elasticity < 1
    assert report.residuals["conjugacy_u_from_v"] <= 1e-6
    # closed form within 1e-9 on the grid
    for x, u in zip(report.x_grid, report.u_values):
        assert abs(u - math.log(x)) < 1e-9


def test_audit_t2_power(t2):
    spec = _spec(t2, power_utility(0.5))
    grid = list(np.geomspace(0.5, 4.0, 8))
    report = duality_audit(spec, grid, y_grid=[1.0, 2.0])
    assert report.passed
    assert abs(report.asymptotic_elasticity - 0.5) < 1e-12


def test_audit_single_point_grid(b1):
    spec = _spec(b1, log_utility())
    report = duality_audit(spec, [1.0])
    assert report.passed
    assert len(report.u_values) == 1


def test_audit_detects_violated_tolerance(b1, monkeypatch):
    import semistatic.utility as utility

    monkeypatch.setattr(utility, "TOL", 1e-18)
    monkeypatch.setattr(utility, "DERIV_TOL", 1e-18)
    spec = _spec(b1, log_utility())
    with pytest.raises(AuditFailure):
        duality_audit(spec, [1.0, 2.0])


@pytest.mark.parametrize("grid", ["x", "y"])
@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_audit_rejects_non_finite_grid_points(b1, grid, point):
    spec = _spec(b1, log_utility())
    x_grid, y_grid = ([1.0, point], None) if grid == "x" else ([1.0], [0.5, point])
    with pytest.raises(UtilityError, match="must be positive and finite"):
        duality_audit(spec, x_grid, y_grid)


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf, 0.0])
def test_solvers_reject_non_finite_or_non_positive_arguments(b1, point):
    spec = _spec(b1, log_utility())
    with pytest.raises(UtilityError, match="wealth must be positive and finite"):
        primal_u(spec, point)
    with pytest.raises(UtilityError, match="dual argument must be positive and finite"):
        dual_v(spec, point)


def test_audit_fails_on_nan_residual(b1):
    """NaN compares false against every bound; the audit must still fail."""
    util = dataclasses.replace(log_utility(), I=lambda y: np.full_like(y, np.nan))
    spec = _spec(b1, util)
    with pytest.raises(AuditFailure, match="optimizer_coupling residual nan"):
        duality_audit(spec, [1.0, 2.0])


def test_audit_fails_on_the_x_grid_before_the_y_grid_bisection(b1, monkeypatch):
    """An x-grid residual over tolerance raises before the y grid's conjugacy
    bisection, which would otherwise solve up to 200 primal problems per y.
    The residual comes from an inverse marginal utility off by a factor 2."""
    import semistatic.utility as utility

    calls = []
    real = utility.primal_u

    def budgeted(*args, **kwargs):
        calls.append(args[1])
        if len(calls) > 10:
            raise RuntimeError("primal_u call budget exhausted")
        return real(*args, **kwargs)

    monkeypatch.setattr(utility, "primal_u", budgeted)
    real_util = power_utility(0.5)
    spec = _spec(b1, dataclasses.replace(real_util, I=lambda y: 2 * real_util.I(y)))
    with pytest.raises(AuditFailure, match="optimizer_coupling residual"):
        duality_audit(spec, [1.0], [0.5, 2.0])
    assert len(calls) == 3  # x and x +- dx only


def test_incomplete_market_relations():
    """Incomplete one-period trinomial with two pricing vertices: the dual
    mixes densities and the coupling relations still close."""
    from semistatic.market import MarketSpec
    from semistatic.tree import AdaptedProcess, EventTree

    tree = EventTree([("r", None, 0), ("a", "r", 1), ("b", "r", 1), ("c", "r", 1)])
    S = AdaptedProcess(tree, {"r": 2, "a": 1, "b": 2, "c": 4})
    market = MarketSpec(tree=tree, S=S)
    spec = _spec(market, log_utility())
    assert spec.densities.shape[0] == 2
    x = 1.5
    u_x, p_hat = primal_u(spec, x)
    dx = 1e-5 * x
    y = (primal_u(spec, x + dx)[0] - primal_u(spec, x - dx)[0]) / (2 * dx)
    v_y, q_hat = dual_v(spec, y)
    util = spec.utility
    P = spec.p_weights
    assert np.max(np.abs(p_hat - util.I(q_hat))) < 1e-5
    assert abs(float(P @ (p_hat * q_hat)) - x * y) < 1e-5
    assert abs(u_x - (v_y + x * y)) < 1e-6



P2_UTILITIES = [log_utility, lambda: power_utility(0.5), lambda: power_utility(0.3)]


@pytest.mark.parametrize("make_utility", P2_UTILITIES, ids=["log", "power0.5", "power0.3"])
def test_audit_p2_on_every_grid_order(p2, make_utility):
    """The paper's motivating market, with five pricing vertices: the audit
    passes on every grid, and u(1) does not depend on the grid around it."""
    spec = _spec(p2, make_utility())
    u_at_1 = []
    for grid in ([1.0], [4.0], [2.0, 1.0], [0.5, 1.0, 2.0, 4.0]):
        report = duality_audit(spec, grid)
        assert report.passed
        u_at_1 += [u for x, u in zip(report.x_grid, report.u_values) if x == 1.0]
    assert len(u_at_1) == 3
    assert len(set(u_at_1)) == 1


def test_p2_power_half_values(p2):
    """u(x) = c * sqrt(x) on P2 for U = 2 sqrt(x), with c read off the dual."""
    spec = _spec(p2, power_utility(0.5))
    assert abs(primal_u(spec, 1.0)[0] - 2.143033502) < 1e-9
    assert abs(primal_u(spec, 4.0)[0] - 4.286067005) < 1e-9


@pytest.mark.parametrize("make_utility", P2_UTILITIES, ids=["log", "power0.5", "power0.3"])
@pytest.mark.parametrize("x", [1.0, 4.0])
def test_weak_duality_sandwich_p2(p2, make_utility, x):
    """E_P[U(p~)] <= u(x) <= v(y) + x y, where p~ = I(q^) scaled into the
    budget set is feasible and y = u'(x) by central differences."""
    spec = _spec(p2, make_utility())
    util = spec.utility
    P = spec.p_weights
    A = spec.densities * P[np.newaxis, :]
    u_x, _ = primal_u(spec, x)
    dx = 1e-5 * x
    y = (primal_u(spec, x + dx)[0] - primal_u(spec, x - dx)[0]) / (2 * dx)
    v_y, q_hat = dual_v(spec, y)
    p_tilde = util.I(q_hat)
    p_tilde = p_tilde * min(1.0, x / float(np.max(A @ p_tilde)))
    assert float(P @ util.U(p_tilde)) <= u_x + 1e-9
    assert u_x <= v_y + x * y + 1e-9


def test_newton_step_cap_raises(p2, monkeypatch):
    import semistatic.utility as utility

    monkeypatch.setattr(utility, "NEWTON_CAP", 1)
    spec = _spec(p2, log_utility())
    with pytest.raises(AuditFailure, match="did not converge within 1 steps"):
        primal_u(spec, 1.0)
    with pytest.raises(AuditFailure, match="did not converge within 1 steps"):
        dual_v(spec, 1.0)
