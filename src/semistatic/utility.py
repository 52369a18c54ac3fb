"""Numerical verification of the utility-maximization duality on a finite
market.

All floating point in the package lives here; market data enter as exact
rationals and are converted once.  The primal problem maximizes expected
utility of terminal wealth over claims affordable from x against every vertex
of the closed pricing set; the dual minimizes expected conjugate utility over
the solid convex hull of the vertex densities (its finite-space polar).  Both
are solved by projected gradient (spectral step lengths, backtracking line
search along the feasible chord) from the fixed starting point x * 1 (no
randomness anywhere), driving the stationarity residual well below 1e-9, and
the audit then checks conjugacy of the two value functions, the optimizer
coupling, and the derivative identities on a grid.

numpy is imported on first use, inside the functions that need it, so that
importing the package (and every CLI command but `utility audit`) does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .market import MarketSpec
from .measures import Measure, PricingSetSpec, closure_polytope, polytope_vertices_as_measures

if TYPE_CHECKING:
    import numpy as np

KKT_TOL = 1e-9
ITER_CAP = 100_000


class UtilityError(RuntimeError):
    pass


class AuditFailure(UtilityError):
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
    I: Callable[[np.ndarray], np.ndarray]     # inverse marginal utility
    V: Callable[[np.ndarray], np.ndarray]     # convex conjugate
    Vprime: Callable[[np.ndarray], np.ndarray]


def log_utility() -> UtilityFunction:
    import numpy as np

    return UtilityFunction(
        name="log",
        U=lambda x: np.log(x),
        Uprime=lambda x: 1.0 / x,
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
        I=lambda y: np.power(y, 1.0 / (gamma - 1.0)),
        V=lambda y: (1.0 - gamma) / gamma * np.power(y, conj),
        Vprime=lambda y: -np.power(y, 1.0 / (gamma - 1.0)),
    )


@dataclass
class UtilitySpec:
    market: MarketSpec
    utility: UtilityFunction
    reference: Measure

    # populated on first use
    _leaves: tuple[str, ...] = field(default=(), repr=False)
    _p_weights: np.ndarray | None = field(default=None, repr=False)
    _densities: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        support = frozenset(self.market.support_leaves())
        if self.reference.support() != support:
            raise UtilityError("reference measure must have full support")
        self._check_inada()

    def _check_inada(self):
        import numpy as np

        up = self.utility.Uprime
        if not (float(up(np.array(1e-8))) > 1e3 and float(up(np.array(1e8))) < 1e-3):
            raise UtilityError("utility violates the Inada conditions")

    def asymptotic_elasticity(self, grid=(1e2, 1e4, 1e6, 1e8)) -> float:
        import numpy as np

        xs = np.array(grid)
        vals = xs * self.utility.Uprime(xs) / self.utility.U(xs)
        return float(np.max(vals))

    def prepare(self):
        import numpy as np

        if self._densities is not None:
            return
        self._leaves = self.market.support_leaves()
        self._p_weights = np.array(
            [float(self.reference.at(l)) for l in self._leaves]
        )
        poly = closure_polytope(PricingSetSpec(self.market))
        verts = polytope_vertices_as_measures(poly, self.market.tree)
        if not verts:
            raise UtilityError("empty pricing set; utility duality undefined")
        rows = []
        for Q in verts:
            rows.append([
                float(Q.at(l)) / float(self.reference.at(l)) for l in self._leaves
            ])
        self._densities = np.array(rows)

    @property
    def densities(self) -> np.ndarray:
        self.prepare()
        return self._densities

    @property
    def p_weights(self) -> np.ndarray:
        self.prepare()
        return self._p_weights


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    import numpy as np

    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _project_orthant_halfspace(z: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Exact Euclidean projection onto {p >= 0, a . p <= b} for a >= 0, b > 0.

    If clipping alone satisfies the cap we are done; otherwise the projection
    is clip(z - t a) with the unique t > 0 making the cap tight.  The map
    t -> a . clip(z - t a) is piecewise linear and decreasing, with coordinate
    i active on t < z_i / a_i, so t is solved interval by interval using the
    breakpoint order (never re-evaluated floating differences)."""
    import numpy as np

    p = np.maximum(z, 0.0)
    if float(a @ p) <= b:
        return p
    pos = a > 0
    ratios = z[pos] / a[pos]
    az = a[pos] * z[pos]
    a2 = a[pos] * a[pos]
    bounds = [0.0] + sorted(set(float(r) for r in ratios if r > 0))
    for k, lo in enumerate(bounds):
        active = ratios > lo
        sa2 = float(a2[active].sum())
        if sa2 == 0:
            break
        t = (float(az[active].sum()) - b) / sa2
        hi = bounds[k + 1] if k + 1 < len(bounds) else math.inf
        if lo - 1e-12 <= t <= hi:
            return np.maximum(z - t * a, 0.0)
    # numerically at the boundary of the last interval
    t = bounds[-1]
    return np.maximum(z - t * a, 0.0)


def _project_feasible(z: np.ndarray, A: np.ndarray, b: float,
                      sweeps: int = 2000, tol: float = 1e-14) -> np.ndarray:
    """Projection onto {p >= 0, A p <= b} (rows of A nonnegative, b > 0).

    One cap row: exact.  Several: Dykstra over the exactly-projectable sets
    {p >= 0, row . p <= b}, followed by a multiplicative repair so the result
    is always feasible (the solvers reject infeasible points anyway)."""
    import numpy as np

    if A.shape[0] == 1:
        return _project_orthant_halfspace(z, A[0], b)
    sets = A.shape[0]
    p = np.maximum(z, 0.0)
    corrections = [np.zeros_like(z) for _ in range(sets)]
    for _ in range(sweeps):
        prev = p.copy()
        for s in range(sets):
            y = p + corrections[s]
            proj = _project_orthant_halfspace(y, A[s], b)
            corrections[s] = y - proj
            p = proj
        if np.max(np.abs(p - prev)) <= tol * max(1.0, np.max(np.abs(p))):
            break
    p = np.maximum(p, 0.0)
    loads = A @ p
    worst = float(np.max(loads))
    if worst > b:
        p = p * (b / worst)
    return p


# ---------------------------------------------------------------------------
# Primal and dual solvers
# ---------------------------------------------------------------------------

def primal_u(spec: UtilitySpec, x: float,
             start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """max E_P[U(p)] over p >= 0 with E_Q[p] <= x at every pricing vertex;
    returns (u(x), maximizer).  Projected gradient ascent from x * 1."""
    import numpy as np

    _positive_finite(x, "wealth")
    spec.prepare()
    P = spec.p_weights
    A = spec.densities * P[np.newaxis, :]  # row j: leaf weights of vertex j
    util = spec.utility

    def value(p: np.ndarray) -> float:
        if np.any(p < 0) or float(np.max(A @ p)) > x * (1 + 1e-12):
            return -math.inf
        if np.any(p <= 0) and util.name == "log":
            return -math.inf
        with np.errstate(divide="ignore"):
            return float(P @ util.U(p))

    p = start.copy() if start is not None else np.full(len(P), float(x))
    p = _project_feasible(p, A, float(x))
    p = np.maximum(p, 1e-300)
    fval = value(p)
    # two orders tighter than the reported 1e-9 tolerance: the iterate error
    # is the residual divided by the local curvature, which can be ~1e-2 here
    rtol = 0.01 * KKT_TOL * max(1.0, float(x))
    noise = 1e-15 * max(1.0, abs(fval))
    best_res, stale = math.inf, 0
    step = 1.0
    prev: tuple[np.ndarray, np.ndarray] | None = None
    for _ in range(ITER_CAP):
        grad = P * util.Uprime(p)
        res = float(np.max(np.abs(_project_feasible(p + grad, A, float(x)) - p)))
        if res <= rtol:
            break
        if res < 0.9 * best_res:
            best_res, stale = res, 0
        else:
            stale += 1
            if stale > 500:
                break  # float-resolution plateau
        if prev is not None:
            s = p - prev[0]
            curv = float(s @ (prev[1] - grad))  # positive for concave objectives
            ss = float(s @ s)
            if curv > 0 and ss > 0:
                step = min(max(ss / curv, 1e-12), 1e12)
        prev = (p.copy(), grad.copy())
        target = _project_feasible(p + step * grad, A, float(x))
        d = target - p
        slope = float(grad @ d)
        if slope <= 0:
            step = 1.0
            continue
        gamma = 1.0
        while gamma > 1e-14:
            cand = np.maximum(p + gamma * d, 1e-300)
            fcand = value(cand)
            if fcand >= fval + 1e-4 * gamma * slope - noise:
                p, fval = cand, max(fcand, fval)
                break
            gamma *= 0.5
        else:
            break
    return fval, p


def dual_v(spec: UtilitySpec, y: float,
           start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """min E_P[V(q)] over q = y * (mixture of vertex densities); returns
    (v(y), minimizer q).  The mixture weights live on the simplex."""
    import numpy as np

    _positive_finite(y, "the dual argument")
    spec.prepare()
    P = spec.p_weights
    Z = spec.densities
    util = spec.utility
    J = Z.shape[0]
    if J == 1:
        q = y * Z[0]
        return float(P @ util.V(np.maximum(q, 1e-300))), q

    def value(lam: np.ndarray) -> float:
        q = y * (lam @ Z)
        if np.any(q <= 0):
            return math.inf
        return float(P @ util.V(q))

    lam = start.copy() if start is not None else np.full(J, 1.0 / J)
    fval = value(lam)
    noise = 1e-15 * max(1.0, abs(fval))
    best_res, stale = math.inf, 0
    step = 1.0
    prev: tuple[np.ndarray, np.ndarray] | None = None
    for _ in range(ITER_CAP):
        q = np.maximum(y * (lam @ Z), 1e-300)
        grad = y * (Z @ (P * util.Vprime(q)))
        res = float(np.max(np.abs(_project_simplex(lam - grad) - lam)))
        if res <= 0.01 * KKT_TOL:
            break
        if res < 0.9 * best_res:
            best_res, stale = res, 0
        else:
            stale += 1
            if stale > 500:
                break
        if prev is not None:
            s = lam - prev[0]
            curv = float(s @ (grad - prev[1]))  # positive for convex objectives
            ss = float(s @ s)
            if curv > 0 and ss > 0:
                step = min(max(ss / curv, 1e-12), 1e12)
        prev = (lam.copy(), grad.copy())
        target = _project_simplex(lam - step * grad)
        d = target - lam
        slope = float(grad @ d)
        if slope >= 0:
            step = 1.0
            continue
        gamma = 1.0
        while gamma > 1e-14:
            cand = lam + gamma * d
            fcand = value(cand)
            if fcand <= fval + 1e-4 * gamma * slope + noise:
                lam, fval = cand, min(fcand, fval)
                break
            gamma *= 0.5
        else:
            break
    return fval, y * (lam @ Z)


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
    worst_points: dict[str, float]
    passed: bool


def _u_prime(spec: UtilitySpec, x: float, u_x: float, p_hat: np.ndarray) -> float:
    """The sensitivity of u via the optimizer formula (validated separately
    against finite differences in the audit)."""
    P = spec.p_weights
    return float(P @ (p_hat * spec.utility.Uprime(p_hat))) / x


def duality_audit(
    spec: UtilitySpec,
    x_grid: Sequence[float],
    y_grid: Sequence[float] | None = None,
    tol: float = 1e-6,
    deriv_tol: float = 1e-5,
) -> DualityReport:
    """Grid audit of the value-function duality.

    For each grid x: y = u'(x) by central differences, then the optimizer
    coupling p = I(q), E[pq] = xy, both derivative formulas, and conjugacy in
    both directions.  Any residual beyond tolerance raises AuditFailure naming
    the grid point; the x-grid residuals are checked before the y grid's
    conjugacy bisection runs."""
    import numpy as np

    x_grid = [_positive_finite(float(x), "wealth") for x in x_grid]
    y_grid = [_positive_finite(float(y), "the dual argument")
              for y in (y_grid if y_grid is not None else [])]
    spec.prepare()
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
        "optimizer_coupling": tol,
        "product_identity": tol,
        "conjugacy_u_from_v": tol,
        "conjugacy_v_from_u": tol,
        "u_prime_formula": deriv_tol,
        "v_prime_formula": deriv_tol,
        "u_monotone": tol,
        "u_concave": deriv_tol,
    }

    def check():
        for key, bound in bounds.items():
            if key in residuals and not residuals[key] <= bound:  # NaN fails too
                raise AuditFailure(
                    f"{key} residual {residuals[key]:.3e} exceeds {bound:.1e} "
                    f"at grid point {worst[key]:.6g}"
                )

    u_vals, v_vals = [], []

    prev: tuple[float, np.ndarray] | None = None
    u_cache: dict[float, tuple[float, np.ndarray]] = {}

    def solve_u(x: float) -> tuple[float, np.ndarray]:
        nonlocal prev
        if x in u_cache:
            return u_cache[x]
        start = prev[1] * (x / prev[0]) if prev is not None else None
        val, p = primal_u(spec, x, start=start)
        prev = (x, p)
        u_cache[x] = (val, p)
        return val, p

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
        record("u_prime_formula", abs(_u_prime(spec, x, u_x, p_hat) - y), x)
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
        val, p_hat = solve_u(x)
        return _u_prime(spec, x, val, p_hat)

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
        residuals=residuals, worst_points=worst,
        passed=True,
    )
