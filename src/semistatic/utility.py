"""Numerical verification of the utility-maximization duality on a finite
market.

All floating point in the package lives here; market data enter as exact
rationals and are converted once.  The primal problem maximizes expected
utility of terminal wealth over claims affordable from x against every vertex
of the closed pricing set; the dual minimizes expected conjugate utility over
the solid convex hull of the vertex densities (its finite-space polar).  Both
are solved by one damped-Newton log-barrier method from a fixed starting
point, with a fixed schedule for the barrier weight (no randomness and no
warm start, so a solve does not depend on the ones before it); a solve that
does not converge within NEWTON_CAP steps raises AuditFailure.  The audit
then checks conjugacy of the two value functions, the optimizer coupling, and
the derivative identities on a grid.

numpy is imported on first use, inside the functions that need it, so that
importing the package (and every CLI command but `utility audit`) does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .lp import VerificationFailure
from .market import MarketSpec
from .measures import Measure, PricingSetSpec, closure_vertices

if TYPE_CHECKING:
    import numpy as np

NEWTON_CAP = 100  # Newton steps per solve; one more raises AuditFailure
TOL = 1e-6        # audit bound on the value and coupling residuals
DERIV_TOL = 1e-5  # audit bound on the derivative and concavity residuals
MU_CUT = 0.02     # factor on the barrier weight each time the iterate is centered
MU_CUTS = 8       # cuts before the last centering: the final weight is 2.6e-14 of the first


class UtilityError(RuntimeError):
    pass


class AuditFailure(VerificationFailure):
    """A residual exceeded its tolerance; names the grid point."""


def _positive_finite(value: float, name: str) -> float:
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise UtilityError(f"{name} must be positive and finite, not {value}")
    return value


@dataclass(frozen=True)
class UtilityFunction:
    name: str
    U: Callable[[np.ndarray], np.ndarray]
    Uprime: Callable[[np.ndarray], np.ndarray]
    Uprime2: Callable[[np.ndarray], np.ndarray]  # U'', for the Newton steps
    I: Callable[[np.ndarray], np.ndarray]     # inverse marginal utility
    V: Callable[[np.ndarray], np.ndarray]     # convex conjugate
    Vprime: Callable[[np.ndarray], np.ndarray]


def log_utility() -> UtilityFunction:
    import numpy as np

    return UtilityFunction(
        name="log",
        U=lambda x: np.log(x),
        Uprime=lambda x: 1.0 / x,
        Uprime2=lambda x: -1.0 / (x * x),
        I=lambda y: 1.0 / y,
        V=lambda y: -np.log(y) - 1.0,
        Vprime=lambda y: -1.0 / y,
    )


def power_utility(gamma: float) -> UtilityFunction:
    """U(x) = x**gamma / gamma for gamma in (0, 1); gamma=1/2 gives 2*sqrt(x)."""
    import numpy as np

    if not 0 < gamma < 1:
        raise UtilityError("power exponent must lie in (0, 1)")
    conj = gamma / (gamma - 1.0)
    return UtilityFunction(
        name=f"power:{gamma}",
        U=lambda x: np.power(x, gamma) / gamma,
        Uprime=lambda x: np.power(x, gamma - 1.0),
        Uprime2=lambda x: (gamma - 1.0) * np.power(x, gamma - 2.0),
        I=lambda y: np.power(y, 1.0 / (gamma - 1.0)),
        V=lambda y: (1.0 - gamma) / gamma * np.power(y, conj),
        Vprime=lambda y: -np.power(y, 1.0 / (gamma - 1.0)),
    )


@dataclass
class UtilitySpec:
    """A utility on a market under a full-support reference measure.  Built
    whole: `p_weights` holds the reference's weights on the support leaves,
    and `densities` one row per vertex of the closed pricing set
    (`closure_vertices`, kept on the market), its density against the
    reference."""

    market: MarketSpec
    utility: UtilityFunction
    reference: Measure
    p_weights: np.ndarray = field(init=False, repr=False)
    densities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        import numpy as np

        leaves = self.market.support_leaves()
        if self.reference.support() != frozenset(leaves):
            raise UtilityError("reference measure must have full support")
        up = self.utility.Uprime
        if not (float(up(np.array(1e-8))) > 1e3 and float(up(np.array(1e8))) < 1e-3):
            raise UtilityError("utility violates the Inada conditions")
        verts = closure_vertices(PricingSetSpec(self.market))
        if not verts:
            raise UtilityError("empty pricing set; utility duality undefined")
        self.p_weights = np.array([float(self.reference.at(l)) for l in leaves])
        self.densities = np.array([[float(Q.at(l)) / float(self.reference.at(l))
                                    for l in leaves] for Q in verts])

    def asymptotic_elasticity(self) -> float:
        import numpy as np

        xs = np.array((1e2, 1e4, 1e6, 1e8))
        vals = xs * self.utility.Uprime(xs) / self.utility.U(xs)
        return float(np.max(vals))


# ---------------------------------------------------------------------------
# Primal and dual solvers
# ---------------------------------------------------------------------------

def _barrier_newton(phi, newton, z: np.ndarray, mu: float) -> np.ndarray:
    """Damped Newton steps along the log-barrier path (Boyd & Vandenberghe,
    Convex Optimization, ch. 11).  phi(z, mu) is the objective plus mu times
    the barrier, infinite outside its domain; newton(z, mu) gives its gradient
    and Newton step.  Backtracking keeps every iterate inside the domain; mu
    falls by MU_CUT each time the iterate is centered, MU_CUTS times.  More
    than NEWTON_CAP steps raise AuditFailure."""
    cuts = 0
    f = phi(z, mu)
    for _ in range(NEWTON_CAP):
        g, d = newton(z, mu)
        slope = float(g @ d)  # minus the squared Newton decrement
        if math.isnan(slope):
            raise AuditFailure("barrier Newton step is not a number")
        # Armijo backtracking; the allowance for rounding accepts the full
        # step once the decrease falls below what f can resolve
        bound, t = f + 1e-14 * (abs(f) + mu), 1.0
        while not (f_new := phi(z + t * d, mu)) <= bound + 0.25 * t * slope:
            t *= 0.5
        z, f = z + t * d, f_new
        if -slope <= mu:  # centered: the squared Newton decrement is at most mu
            if cuts == MU_CUTS:
                return z
            cuts += 1
            mu *= MU_CUT
            f = phi(z, mu)
    raise AuditFailure(f"barrier Newton method did not converge within {NEWTON_CAP} steps")


def primal_u(spec: UtilitySpec, x: float) -> tuple[float, np.ndarray]:
    """max E_P[U(p)] over p >= 0 with E_Q[p] <= x at every pricing vertex;
    returns (u(x), maximizer).  The barrier is on the budget rows only: the
    Inada conditions keep the optimum off p = 0, and the line search keeps
    p > 0.  The Newton system is solved through the J x J Woodbury matrix,
    which stays well conditioned as the active slacks shrink with mu."""
    import numpy as np

    _positive_finite(x, "wealth")
    P = spec.p_weights
    A = spec.densities * P[np.newaxis, :]  # row j: leaf weights of vertex j
    util = spec.utility

    def phi(p, mu):
        s = x - A @ p
        if not (p.min() > 0 and s.min() > 0):
            return math.inf
        return -float(P @ util.U(p)) - mu * float(np.log(s).sum())

    def newton(p, mu):
        s = x - A @ p
        g = A.T @ (mu / s) - P * util.Uprime(p)
        dinv = -1.0 / (P * util.Uprime2(p))  # inverse Hessian of -E_P[U(p)]
        AD = A * dinv
        h = dinv * g
        M = np.diag(s * s / mu) + AD @ A.T
        return g, AD.T @ np.linalg.solve(M, A @ h) - h

    # E_P of every vertex density is 1, so p = x/2 leaves every budget row
    # slack; the barrier weight starts at the objective's scale x U'(x)
    p = _barrier_newton(phi, newton, np.full(len(P), 0.5 * x),
                        x * float(util.Uprime(np.array(x))))
    return float(P @ util.U(p)), p


def dual_v(spec: UtilitySpec, y: float) -> tuple[float, np.ndarray]:
    """min E_P[V(q)] over q = y * (mixture of vertex densities); returns
    (v(y), minimizer q).  The mixture weights live on the simplex: a barrier
    on each weight and Newton steps that keep their sum at 1, solved in the
    weights' own scale.  V'' is -1 / U''(I(q))."""
    import numpy as np

    _positive_finite(y, "the dual argument")
    P = spec.p_weights
    Z = spec.densities
    util = spec.utility
    J = Z.shape[0]
    if J == 1:
        q = y * Z[0]
        return float(P @ util.V(np.maximum(q, 1e-300))), q

    def phi(lam, mu):
        q = y * (lam @ Z)
        if not (lam.min() > 0 and q.min() > 0):
            return math.inf
        return float(P @ util.V(q)) - mu * float(np.log(lam).sum())

    def newton(lam, mu):
        # KKT system for the step d = lam * e with sum(d) = 0: the barrier's
        # Hessian diag(mu / lam**2) becomes mu * I
        q = y * (lam @ Z)
        g = y * (Z @ (P * util.Vprime(q))) - mu / lam
        Zs = (y * lam)[:, np.newaxis] * Z
        K = np.zeros((J + 1, J + 1))
        K[:J, :J] = (Zs * (-P / util.Uprime2(util.I(q)))) @ Zs.T + mu * np.eye(J)
        K[:J, J] = K[J, :J] = lam
        e = np.linalg.solve(K, np.append(-lam * g, 0.0))
        return g, lam * e[:J]

    lam = _barrier_newton(phi, newton, np.full(J, 1.0 / J),
                          y * float(util.I(np.array(y))))
    q = y * (lam @ Z)
    return float(P @ util.V(q)), q


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------

@dataclass
class DualityReport:
    utility: str
    x_grid: list[float]
    y_grid: list[float]
    u_values: list[float]
    v_values: list[float]
    asymptotic_elasticity: float
    residuals: dict[str, float]
    passed: bool


def _u_prime(spec: UtilitySpec, x: float, p_hat: np.ndarray) -> float:
    """The sensitivity of u via the optimizer formula (validated separately
    against finite differences in the audit)."""
    P = spec.p_weights
    return float(P @ (p_hat * spec.utility.Uprime(p_hat))) / x


def duality_audit(
    spec: UtilitySpec,
    x_grid: Sequence[float],
    y_grid: Sequence[float] | None = None,
) -> DualityReport:
    """Grid audit of the value-function duality.

    For each grid x: y = u'(x) by central differences, then the optimizer
    coupling p = I(q), E[pq] = xy, both derivative formulas, and conjugacy in
    both directions.  Any residual beyond its bound (`TOL`, `DERIV_TOL`)
    raises AuditFailure naming the grid point; the x-grid residuals are
    checked before the y grid's conjugacy bisection runs."""
    import numpy as np

    x_grid = [_positive_finite(float(x), "wealth") for x in x_grid]
    y_grid = [_positive_finite(float(y), "the dual argument")
              for y in (y_grid if y_grid is not None else [])]
    ae = spec.asymptotic_elasticity()
    if ae >= 1.0:
        raise AuditFailure(f"asymptotic elasticity bound {ae} is not < 1")
    util = spec.utility
    P = spec.p_weights

    residuals: dict[str, float] = {}
    worst: dict[str, float] = {}

    def record(key: str, value: float, at: float):
        old = residuals.get(key, -1.0)
        # a NaN residual stays the worst one, so that its check below fails
        if value > old or (math.isnan(value) and not math.isnan(old)):
            residuals[key] = value
            worst[key] = at

    bounds = {
        "optimizer_coupling": TOL,
        "product_identity": TOL,
        "conjugacy_u_from_v": TOL,
        "conjugacy_v_from_u": TOL,
        "u_prime_formula": DERIV_TOL,
        "v_prime_formula": DERIV_TOL,
        "u_monotone": TOL,
        "u_concave": DERIV_TOL,
    }

    def check():
        for key, bound in bounds.items():
            if key in residuals and not residuals[key] <= bound:  # NaN fails too
                raise AuditFailure(
                    f"{key} residual {residuals[key]:.3e} exceeds {bound:.1e} "
                    f"at grid point {worst[key]:.6g}"
                )

    u_vals, v_vals = [], []

    u_cache: dict[float, tuple[float, np.ndarray]] = {}

    def solve_u(x: float) -> tuple[float, np.ndarray]:
        if x not in u_cache:
            u_cache[x] = primal_u(spec, x)
        return u_cache[x]

    for x in x_grid:
        u_x, p_hat = solve_u(x)
        u_vals.append(u_x)
        dx = 1e-5 * x
        u_plus, _ = solve_u(x + dx)
        u_minus, _ = solve_u(x - dx)
        y = (u_plus - u_minus) / (2 * dx)
        v_y, q_hat = dual_v(spec, y)
        v_vals.append(v_y)

        record("optimizer_coupling", float(np.max(np.abs(p_hat - util.I(q_hat)))), x)
        record("product_identity", abs(float(P @ (p_hat * q_hat)) - x * y), x)
        record("u_prime_formula", abs(_u_prime(spec, x, p_hat) - y), x)
        dy = 1e-5 * y
        v_plus, _ = dual_v(spec, y + dy)
        v_minus, _ = dual_v(spec, y - dy)
        v_prime_fd = (v_plus - v_minus) / (2 * dy)
        v_prime_formula = float(P @ (q_hat * util.Vprime(q_hat))) / y
        record("v_prime_formula", abs(v_prime_fd - v_prime_formula), x)
        # conjugacy u(x) = inf_y [v(y) + x y]: the infimum sits at y = u'(x)
        record("conjugacy_u_from_v", abs(u_x - (v_y + x * y)), x)

    # shape checks along the x grid
    order = np.argsort(x_grid)
    xs = np.array(x_grid)[order]
    us = np.array(u_vals)[order]
    if len(xs) >= 2:
        slopes = np.diff(us) / np.diff(xs)
        record("u_monotone", float(max(0.0, -np.min(slopes))), float(xs[0]))
        if len(xs) >= 3:
            record("u_concave", float(max(0.0, np.max(np.diff(slopes)))), float(xs[0]))

    # a residual over tolerance on the x grid fails before the y-grid bisection
    check()

    # conjugacy v(y) = sup_x [u(x) - x y]: locate x with u'(x) = y by bisection
    def u_slope(x: float) -> float:
        return _u_prime(spec, x, solve_u(x)[1])

    for y in y_grid:
        lo, hi = 1e-6, 1e6
        for _ in range(200):
            midp = math.sqrt(lo * hi)
            if u_slope(midp) > y:
                lo = midp
            else:
                hi = midp
            if hi / lo < 1 + 1e-12:
                break
        x_star = math.sqrt(lo * hi)
        u_star, _ = solve_u(x_star)
        v_y, _ = dual_v(spec, y)
        record("conjugacy_v_from_u", abs(v_y - (u_star - x_star * y)), y)

    check()
    return DualityReport(
        utility=util.name,
        x_grid=x_grid, y_grid=y_grid,
        u_values=u_vals, v_values=v_vals,
        asymptotic_elasticity=ae,
        residuals=residuals,
        passed=True,
    )
