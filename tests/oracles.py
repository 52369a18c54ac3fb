"""Independent reference implementations that the engine's faster code is
checked against: straightforward evaluations in Fractions, one term at a
time.

  * `gains_to` and `liquidate_payoff` walk one root-to-leaf path; together
    with the static legs they give a portfolio's value at a leaf, the
    reference for `market.portfolio_values`.
  * `verify_solution`, `verify_farkas` and `verify_ray` re-check LP
    certificates with Fraction sums (`_dot`), the reference for the integer
    re-checks in `semistatic.lp`: on every certificate both raise the same
    `LpVerificationError` message, or neither raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from semistatic.lp import GE, LE, LpProblem, LpSolution, LpVerificationError
from semistatic.market import MarketError, MarketSpec
from semistatic.stopping import LiquidatingStrategy
from semistatic.tree import AdaptedProcess

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Portfolio evaluation, one path at a time
# ---------------------------------------------------------------------------

def gains_to(H: AdaptedProcess, market: MarketSpec, node: str) -> Fraction:
    """Trading gains along the root-to-node path: sum over steps s < t of
    H_s . (S_{s+1} - S_s).  H is read on non-leaf nodes only."""
    tree = market.tree
    if H.dim != market.S.dim:
        raise MarketError(f"H dimension {H.dim} != stock dimension {market.S.dim}")
    path = tree.path(node)
    total = Fraction(0)
    for here, there in zip(path, path[1:]):
        hvec = H.at(here)
        s_here = market.S.at(here)
        s_there = market.S.at(there)
        total += sum(hl * (b - a) for hl, a, b in zip(hvec, s_here, s_there))
    return total


def liquidate_payoff(eta: LiquidatingStrategy, h: AdaptedProcess, leaf: str) -> Fraction:
    """Path-wise exercise payoff: sum of h * flow along the path to `leaf`."""
    return sum((eta.at(n) * h.scalar_at(n) for n in h.tree.path(leaf)), Fraction(0))


# ---------------------------------------------------------------------------
# LP certificate re-checks in Fractions
# ---------------------------------------------------------------------------

def _dot(pairs: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """Exact sum of a * b over rational pairs (Fractions or ints).

    The terms are summed as one integer numerator over a running lcm of their
    denominators and normalized once at the end, instead of building and
    normalizing one Fraction per term; the result is the same Fraction."""
    num, den = 0, 1
    for a, b in pairs:
        p = a.numerator * b.numerator
        if p:
            q = a.denominator * b.denominator
            if den % q:
                step = q // gcd(den, q)
                num *= step
                den *= step
            num += p * (den // q)
    return Fraction(num, den)


def eval_row(coeffs: Mapping[str, Fraction], values: Mapping[str, Fraction]) -> Fraction:
    return _dot((c, values.get(v, 0)) for v, c in coeffs.items())


def _check(ok: bool, msg: str) -> None:
    if not ok:
        raise LpVerificationError(msg)


def _combine(problem: LpProblem, multipliers: Sequence[Fraction]) -> dict[str, Fraction]:
    """y^T A of the original rows, per variable."""
    terms: dict[str, list] = {v: [] for v in problem.variables}
    for y, row in zip(multipliers, problem.constraints):
        if y:
            for v, c in row.coeffs.items():
                terms[v].append((y, c))
    return {v: _dot(t) for v, t in terms.items()}


def verify_solution(problem: LpProblem, sol: LpSolution) -> None:
    """Exact primal feasibility, dual sign consistency, complementary
    slackness, reduced costs equal to c - A^T y and of the right sign, and
    primal objective == b.y == dual objective, all computed from the original
    problem's coefficients."""
    sense_sign = 1 if problem.sense == "max" else -1
    for v in problem.variables:
        if v not in problem.free:
            _check(sol.values.get(v, ZERO) >= 0, f"variable {v} negative")
    # a rational has its numerator's sign: dual signs are read off numerators
    for i, row in enumerate(problem.constraints):
        lhs = eval_row(row.coeffs, sol.values)
        y = sol.duals[i]
        label = row.name or f"#{i}"
        if row.rel == LE:
            _check(lhs <= row.rhs, f"constraint {label} violated")
            _check(sense_sign * y.numerator >= 0, f"dual sign at {label}")
        elif row.rel == GE:
            _check(lhs >= row.rhs, f"constraint {label} violated")
            _check(sense_sign * y.numerator <= 0, f"dual sign at {label}")
        else:
            _check(lhs == row.rhs, f"constraint {label} violated")
        _check(y == 0 or lhs == row.rhs, f"complementary slackness at {label}")
    combo = _combine(problem, sol.duals)
    for v in problem.variables:
        rc = sol.reduced_costs[v]
        _check(rc + combo[v] == problem.objective.get(v, 0),
               f"reduced cost at {v} is not c - A^T y")
        if v in problem.free:
            _check(rc == 0, f"nonzero reduced cost on free variable {v}")
        else:
            _check(sense_sign * rc.numerator <= 0, f"dual infeasibility at variable {v}")
            _check(rc == 0 or sol.values.get(v, ZERO) == 0, f"variable slackness at {v}")
    _check(eval_row(problem.objective, sol.values) == sol.objective,
           "objective value mismatch")
    dual = _dot(zip(sol.duals, [row.rhs for row in problem.constraints]))
    _check(sol.dual_objective == dual, "dual objective is not b.y")
    _check(dual == sol.objective, "strong duality gap is nonzero")


def verify_farkas(problem: LpProblem, farkas: Sequence[Fraction]) -> None:
    """Multiply out an infeasibility certificate and check it."""
    for y, row in zip(farkas, problem.constraints):
        label = row.name or "?"
        if row.rel == LE:
            _check(y >= 0, f"farkas sign at {label}")
        elif row.rel == GE:
            _check(y <= 0, f"farkas sign at {label}")
    combo = _combine(problem, farkas)
    for v in problem.variables:
        if v in problem.free:
            _check(combo[v] == 0, f"farkas combination not zero on free {v}")
        else:
            _check(combo[v] >= 0, f"farkas combination negative on {v}")
    total = _dot(zip(farkas, [row.rhs for row in problem.constraints]))
    _check(total < 0, "farkas certificate does not separate")


def verify_ray(problem: LpProblem, point: Mapping[str, Fraction],
               ray: Mapping[str, Fraction]) -> None:
    """Check feasible point + improving recession direction."""
    for v in problem.variables:
        if v not in problem.free:
            _check(point.get(v, ZERO) >= 0, f"point negative at {v}")
            _check(ray.get(v, ZERO) >= 0, f"ray negative at {v}")
    for row in problem.constraints:
        lhs = eval_row(row.coeffs, point)
        step = eval_row(row.coeffs, ray)
        label = row.name or "?"
        if row.rel == LE:
            _check(lhs <= row.rhs and step <= 0, f"ray violates {label}")
        elif row.rel == GE:
            _check(lhs >= row.rhs and step >= 0, f"ray violates {label}")
        else:
            _check(lhs == row.rhs and step == 0, f"ray violates {label}")
    gain = eval_row(problem.objective, ray)
    if problem.sense == "max":
        _check(gain > 0, "ray does not improve the objective")
    else:
        _check(gain < 0, "ray does not improve the objective")
