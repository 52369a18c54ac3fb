"""Independent reference implementations that the engine's faster code is
checked against: straightforward evaluations in Fractions, one term at a
time.

  * `gains_to` and `liquidate_payoff` walk one root-to-leaf path; together
    with the static legs they give a portfolio's value at a leaf, the
    reference for `market.portfolio_values`.
  * `verify_solution`, `verify_farkas` and `verify_ray` re-check LP
    certificates with Fraction sums (`_dot`), the reference for the integer
    re-checks in `semistatic.lp`: on every certificate both raise the same
    `VerificationFailure` message, or neither raises.
  * `GaussJordan` is the dense Fraction simplex tableau, pivoted by plain
    Gauss-Jordan elimination: the reference for the integer rows of
    `lp._Tableau`, each over its own denominator.
  * `expect_claim`, `expect_at_stop`, `subtree_masses`, `unnormalized_snell`
    and `martingale_drift` are the Fraction sums, one term at a time, that
    the engine's integer forms replace: references for `Measure.expect_*`
    and `Measure.masses`, `stopping._unnormalized_snell`, and the drift
    check of `measures.membership`.
  * `snell_envelope` is the normalized backward induction, the reference for
    the unnormalized envelope behind `stopping.snell_value`, `antichains`
    lists the stops' node sets in the enumeration's order, the reference for
    `stopping.enumerate_stopping_times`, and `strategy_from_mixture` builds
    the exercise flow of a mixture of stops.
  * `hrep_from_vertices` and `contains` run vertex enumeration backwards,
    the round-trip reference for `polytope.vertices`, and
    `vertices_by_active_sets` solves every choice of active rows, its
    brute-force reference, with `measure_form` the reference for the
    measures made from the vertices and `region_polygon` for
    `cli.emit_region`; `hrep_text` writes a polytope's rows out as plain
    text.  `reference_dd_cone` and `reference_vertices` take the plain
    double description step, the reference for the leaner kernel's
    generators, vertex lists and witness rays.
  * `martingale_rows`, `pricing_rows`, `claim_row`, `stop_row`,
    `slack_rows`, `closure_rows`, `dual_rows`, `structure_rows`, `phi_coeffs`,
    `hedge_rows`, `cone_rows` and `minimax_rows` build the engine's LP rows
    from Fractions with `lp.con`: references for the builders that emit
    integer rows from the market's integer forms.  `minimax_rows` also
    builds the flow side of the minimax identity, which the engine reads off
    the stop side's duals; `minimax_flow_value` solves it, the reference for
    `minimax_check`'s lhs, and `minimax_stop_side` solves the stop side over
    every enumerated stop, the reference for its rhs and attaining measure.
  * `martingale_system` (the kept martingale rows of a market's support as
    an LP fragment) and `constant_claim` are conveniences only the tests
    use.
  * `find_pricing_measure` is the witness measure of `ftap.check_sna`, and
    `witness_slacks` re-measures a slack LP's witness against its caps and
    floor.
  * `robust_pricing_set` lists the closure polytope of each prior's
    component, `american_exchange_values` computes the pure-option value four
    ways over the closure's vertices (the inf-sup against sup-inf exchange
    over stops), and `p2_params_of` reads the fixture P2's parameters off a
    measure.
  * `unpruned_dominating_slack`, `unpruned_robust_verdict` and
    `unpruned_sub_hedge_robust` ask every robust question of every prior
    and every component, the earlier one winning ties: the reference for
    `robust`, which asks only the prior supports not inside an earlier
    one's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from semistatic.fixtures import FixtureError
from semistatic.ftap import (
    ARBITRAGE, NO_ARBITRAGE, STRICT_NO_ARBITRAGE_FAILS, ArbitrageVerdict, check_na, check_sna,
)
from semistatic.hedging import (
    INFINITE_PRICE, HedgeResult, HedgingError, duality_gap_report, hedge_primal,
)
from semistatic.lp import (
    EQ, GE, LE, Constraint, LpProblem, LpSolution, VerificationFailure, con, solve,
)
from semistatic.market import MarketError, MarketSpec
from semistatic.measures import (
    SLACK_VAR,
    Measure,
    PricingSetSpec,
    SlackResult,
    _martingale_rows,
    _slack_certificate,
    closure_polytope,
    max_slack,
    polytope_vertices_as_measures,
)
from semistatic.polytope import (
    Polytope,
    PolytopeError,
    UnboundedPolytopeError,
    _dd_cone,
    _primitive_int,
)
from semistatic.rational import rat, rat_str
from semistatic.robust import (
    HypothesisFailure, RobustDualityGapError, RobustError, RobustSpec, minimax_check,
    union_support,
)
from semistatic.stopping import (
    LiquidatingStrategy, StoppingTime, enumerate_stopping_times, snell_optimal_stop,
)
from semistatic.tree import AdaptedProcess, EventTree, TerminalClaim

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
        raise VerificationFailure(msg)


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
    slackness, one reduced cost per variable, equal to c - A^T y and of the
    right sign, and primal objective == b.y == dual objective, all computed
    from the original problem's coefficients."""
    sense_sign = 1 if problem.sense == "max" else -1
    m = len(problem.constraints)
    _check(len(sol.duals) == m, f"{len(sol.duals)} duals for {m} rows")
    missing = [v for v in problem.variables if v not in sol.reduced_costs]
    _check(not missing, f"no reduced cost for variable {', '.join(missing)}")
    extra = [str(v) for v in sol.reduced_costs if v not in problem.variables]
    _check(not extra, f"reduced cost for unknown variable {', '.join(extra)}")
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
    m = len(problem.constraints)
    _check(len(farkas) == m, f"{len(farkas)} farkas multipliers for {m} rows")
    for i, (y, row) in enumerate(zip(farkas, problem.constraints)):
        label = row.name or f"#{i}"
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
    for i, row in enumerate(problem.constraints):
        lhs = eval_row(row.coeffs, point)
        step = eval_row(row.coeffs, ray)
        label = row.name or f"#{i}"
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


# ---------------------------------------------------------------------------
# The simplex tableau, dense and in Fractions
# ---------------------------------------------------------------------------

class GaussJordan:
    """A dense simplex tableau in Fractions, pivoted by plain Gauss-Jordan
    elimination: the reference for the rows of `lp._Tableau`.

    The columns are laid out as `lp.solve` lays them out: the structural
    columns, a slack or surplus per non-equality row in row order, then an
    artificial per `>=` and `=` row in row order.  A row with a negative rhs
    is negated and its relation flipped, and each row is scaled to primitive
    integers, so every row starts on its slack or artificial with b >= 0.
    `T[k]` and `b[k]` are row k's true entries and `basis[k]` its basic
    column."""

    def __init__(self, problem: LpProblem):
        names = problem.variables
        rels, rows = [], []
        for row in problem.constraints:
            vec = [row.coeffs.get(v, ZERO) for v in names] + [row.rhs]
            rel = row.rel
            if row.rhs < 0:
                vec = [-x for x in vec]
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            den = lcm(*[x.denominator for x in vec])
            g = gcd(*[x.numerator * (den // x.denominator) for x in vec]) or 1
            rels.append(rel)
            rows.append([x * den / g for x in vec])
        n = len(names)
        aux = {}  # row -> its slack or surplus column
        for k, rel in enumerate(rels):
            if rel != EQ:
                aux[k] = n + len(aux)
        art = {}  # row -> its artificial column
        for k, rel in enumerate(rels):
            if rel != LE:
                art[k] = n + len(aux) + len(art)
        ncols = n + len(aux) + len(art)
        self.T: list[list[Fraction]] = []
        self.b: list[Fraction] = []
        self.basis: list[int] = []
        for k, (vec, rel) in enumerate(zip(rows, rels)):
            line = vec[:-1] + [ZERO] * (ncols - n)
            if k in aux:
                line[aux[k]] = Fraction(1 if rel == LE else -1)
            if k in art:
                line[art[k]] = Fraction(1)
            self.T.append(line)
            self.b.append(vec[-1])
            self.basis.append(aux[k] if rel == LE else art[k])

    def pivot(self, i: int, j: int) -> None:
        """Divide row i by its entry at column j and eliminate column j from
        every other row."""
        piv = self.T[i][j]
        self.T[i] = [x / piv for x in self.T[i]]
        self.b[i] /= piv
        for k, row in enumerate(self.T):
            f = row[j]
            if k != i and f:
                self.T[k] = [x - f * y for x, y in zip(row, self.T[i])]
                self.b[k] -= f * self.b[i]
        self.basis[i] = j

    def reduced(self, costs: Sequence[int]) -> list[Fraction]:
        """c_j - c_B . (column j), per column."""
        return [c - _dot((costs[var], row[j]) for var, row in zip(self.basis, self.T))
                for j, c in enumerate(costs)]


# ---------------------------------------------------------------------------
# Measures: expectations, masses and envelopes as Fraction sums
# ---------------------------------------------------------------------------

def expect_claim(Q: Measure, claim: TerminalClaim) -> Fraction:
    return sum((w * claim.at(l) for l, w in Q.weights.items()), ZERO)


def stop_node(tau: StoppingTime, leaf: str) -> str:
    """The one node of `tau` on the root-to-`leaf` path, found by walking it."""
    hits = [n for n in tau.tree.path(leaf) if n in tau.stop_nodes]
    _check(len(hits) == 1, f"leaf {leaf!r}: path stops {len(hits)} times")
    return hits[0]


def expect_at_stop(Q: Measure, h: AdaptedProcess, tau: StoppingTime) -> Fraction:
    return sum((w * h.scalar_at(stop_node(tau, l)) for l, w in Q.weights.items()), ZERO)


def subtree_masses(Q: Measure) -> dict[str, Fraction]:
    """Q's mass on the leaves under every node."""
    tree = Q.tree
    mass: dict[str, Fraction] = {}
    for node in reversed(tree.nodes):
        kids = tree.children(node)
        mass[node] = sum((mass[c] for c in kids), ZERO) if kids else Q.at(node)
    return mass


def unnormalized_snell(Q: Measure, h: AdaptedProcess) -> dict[str, Fraction]:
    """V(n) = max over stopping times of E_Q[h_tau restricted to paths
    through n], by backward induction on Q's subtree masses."""
    tree, mass = h.tree, subtree_masses(Q)
    V: dict[str, Fraction] = {}
    for node in reversed(tree.nodes):
        stop_here = mass[node] * h.scalar_at(node)
        kids = tree.children(node)
        V[node] = max(stop_here, sum((V[c] for c in kids), ZERO)) if kids else stop_here
    return V


def martingale_drift(Q: Measure, market: MarketSpec) -> dict[tuple[str, int], Fraction]:
    """Sum over children of (S_child - S_node) * Q(child's leaves), at every
    non-leaf node and stock component; all zero exactly for a martingale
    measure."""
    tree, mass, S = market.tree, subtree_masses(Q), market.S
    return {(node, l): sum(((S.at(c)[l] - S.at(node)[l]) * mass[c]
                            for c in tree.children(node)), ZERO)
            for node in tree.nonleaf_nodes() for l in range(market.dim)}


# ---------------------------------------------------------------------------
# Stopping: the normalized envelope and mixtures of stops
# ---------------------------------------------------------------------------

def snell_envelope(Q: Measure, h: AdaptedProcess) -> tuple[AdaptedProcess, Fraction]:
    """Backward-induction envelope of h under Q and its root value.

    U_T = h_T and U_t = max(h_t, E_Q[U_{t+1} | node]).  On zero-mass nodes the
    conditional expectation is taken under the uniform child distribution (an
    arbitrary convention; zero-mass subtrees cannot affect the root value).
    The root value equals max over all stopping times of E_Q[h_tau].
    """
    tree = h.tree
    mass = subtree_masses(Q)
    U: dict[str, Fraction] = {}
    for node in reversed(tree.nodes):
        if tree.is_leaf(node):
            U[node] = h.scalar_at(node)
            continue
        kids = tree.children(node)
        if mass[node] > 0:
            cont = sum((mass[c] * U[c] for c in kids), Fraction(0)) / mass[node]
        else:
            cont = sum((U[c] for c in kids), Fraction(0)) / len(kids)
        U[node] = max(h.scalar_at(node), cont)
    envelope = AdaptedProcess(tree, U)
    root_value = unnormalized_snell(Q, h)[tree.root]
    assert U[tree.root] == root_value or mass[tree.root] != 1
    return envelope, root_value


def antichains(tree: EventTree, node: str | None = None) -> list[frozenset[str]]:
    """Every stopping time of the subtree at `node` (the root by default) as
    its set of stop nodes: stopping at `node` first, then one stop per child
    in the order of `itertools.product`."""
    node = tree.root if node is None else node
    out = [frozenset([node])]
    if not tree.is_leaf(node):
        below = [antichains(tree, c) for c in tree.children(node)]
        out += [frozenset().union(*combo) for combo in product(*below)]
    return out


def strategy_from_mixture(
    weights: Sequence, taus: Sequence[StoppingTime]
) -> LiquidatingStrategy:
    """Exercise flow of a convex mixture of stopping times."""
    ws = [rat(w) for w in weights]
    if len(ws) != len(taus):
        raise ValueError(f"{len(ws)} weights for {len(taus)} stopping times")
    if any(w < 0 for w in ws):
        raise ValueError("mixture weights must be nonnegative")
    if sum(ws, Fraction(0)) != 1:
        raise ValueError(f"mixture weights sum to {sum(ws, Fraction(0))}, not 1")
    if not taus:
        raise ValueError("empty mixture")
    tree = taus[0].tree
    values = {n: Fraction(0) for n in tree.nodes}
    for w, tau in zip(ws, taus):
        for n in tau.stop_nodes:
            values[n] += w
    return LiquidatingStrategy.from_map(tree, values)


# ---------------------------------------------------------------------------
# Polytopes: facets from vertices, and membership
# ---------------------------------------------------------------------------

def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (direction only)."""
    denom = lcm(*[v.denominator for v in vec])
    return _primitive_int([v.numerator * (denom // v.denominator) for v in vec])


def hrep_from_vertices(
    variables: Sequence[str], verts: Sequence[Mapping[str, Fraction]]
) -> Polytope:
    """Facet description of the convex hull of `verts` (full-dimensional)."""
    names = list(variables)
    if not verts:
        # canonical empty polytope
        return Polytope(names, [con({names[0]: 1}, LE, -1, "empty"),
                                con({names[0]: 1}, GE, 1, "empty")])
    k = len(verts)
    centroid = {
        v: sum((rat(pt[v]) for pt in verts), ZERO) / k for v in names
    }
    dim = len(names) + 1  # (s, a) with facets a.(x - centroid) <= s
    rows = []
    for pt in verts:
        base = [ZERO] * dim
        base[0] = Fraction(-1)
        for i, v in enumerate(names):
            base[i + 1] = rat(pt[v]) - centroid[v]
        rows.append(_primitive(base))
    s_row = [0] * dim
    s_row[0] = -1
    rows.append(tuple(s_row))  # s >= 0
    lines, rays = _dd_cone([(r, False) for r in rows], dim)
    if any(any(l[1:]) for l in lines):
        raise PolytopeError("vertex set is not full-dimensional")
    constraints = []
    for idx, (r, _) in enumerate(sorted(rays)):
        s = Fraction(r[0])
        if s == 0:
            if any(r[1:]):
                raise PolytopeError("vertex set is not full-dimensional")
            continue
        coeffs = {v: Fraction(r[i + 1]) for i, v in enumerate(names) if r[i + 1]}
        rhs = s + sum(coeffs.get(v, ZERO) * centroid[v] for v in names)
        constraints.append(con(coeffs, LE, rhs, f"facet{idx}"))
    return Polytope(names, constraints)


def reference_dd_cone(rows: Sequence[tuple[tuple[int, ...], bool]], dim: int):
    """The plain double description step: the pivot line's product taken
    twice, every line and ray re-made and reduced (those on the row too),
    the negative rays re-made for the next cone, and every mask containing a
    pair's common mask counted.  The reference for the leaner
    `polytope._dd_cone`: the same lines and the same rays, masks and order."""
    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], int]] = []

    for idx, (row, eq) in enumerate(rows):
        bit = 1 << idx
        pivot_line = next((l for l in lines if sum(map(mul, row, l))), None)
        if pivot_line is not None:
            pl = sum(map(mul, row, pivot_line))
            new_lines = []
            for l in lines:
                if l is pivot_line:
                    continue
                d = sum(map(mul, row, l))
                new_lines.append(_primitive_int([pl * a - d * b for a, b in zip(l, pivot_line)]))
            new_rays = []
            for r, act in rays:
                d = sum(map(mul, row, r))
                if pl < 0:
                    d = -d
                # scaling by |pl| keeps earlier activity sets unchanged
                proj = [abs(pl) * a - d * b for a, b in zip(r, pivot_line)]
                new_rays.append((_primitive_int(proj), act | bit))
            if not eq:
                born = tuple(-x for x in pivot_line) if pl > 0 else pivot_line
                new_rays.append((_primitive_int(born), bit - 1))
            lines, rays = new_lines, new_rays
            continue
        neg, zero, pos = [], [], []
        for r, act in rays:
            d = sum(map(mul, row, r))
            if d < 0:
                neg.append((r, act, d))
            elif d == 0:
                zero.append((r, act | bit))
            else:
                pos.append((r, act, d))
        new_rays = zero if eq else [(r, act) for r, act, _ in neg] + zero
        # row idx is active at none of the pairs below, so the masks before
        # it was added decide containment of their common masks
        masks = [act for _, act in rays]
        need = dim - 2 - len(lines)
        for p, pact, pd in pos:
            for n, nact, nd in neg:
                common = pact & nact
                if common.bit_count() < need:
                    continue
                # p's and n's masks contain it; adjacent iff no third does
                if sum(common & act == common for act in masks) > 2:
                    continue
                combo = [pd * b - nd * a for a, b in zip(p, n)]
                new_rays.append((_primitive_int(combo), common | bit))
        rays = new_rays
    return lines, rays


def reference_vertices(poly: Polytope) -> list[dict[str, Fraction]]:
    """`polytope.vertices` over `reference_dd_cone`, every coordinate made a
    Fraction: the reference for `vertices`, the same vertex list in the same
    order or the same witness ray, on rows over the polytope's variables."""
    names = poly.variables
    dim = len(names) + 1  # homogenizing coordinate t first
    t_row = [0] * dim
    t_row[0] = -1
    rows = [(tuple(t_row), False)]  # t >= 0
    col = {v: i + 1 for i, v in enumerate(names)}
    for c in poly.constraints:
        # the row's stored integers, as `lp.solve` reads them
        base = [0] * dim
        base[0] = -c.rhs_num
        for v, x in c.num.items():
            if v in col:
                base[col[v]] = x
        row = _primitive_int(base)
        rows.append((tuple(-x for x in row) if c.rel == GE else row, c.rel == EQ))
    lines, rays = reference_dd_cone(rows, dim)

    points = [r for r, _ in rays if r[0] > 0]
    recession = [r for r, _ in rays if r[0] == 0 and any(r[1:])]
    recession += [l for l in lines if any(l[1:])]
    if points and recession:
        r = recession[0]
        raise UnboundedPolytopeError({v: Fraction(r[i + 1]) for i, v in enumerate(names)})
    # a vertex's coordinates x / t, over the common denominator `den`, are
    # the integers x * (den // t): sorting those orders the rational tuples
    den = lcm(*[r[0] for r in points])
    keyed = sorted((tuple([x * (den // r[0]) for x in r[1:]]), r) for r in points)
    return [{v: Fraction(x, r[0]) for v, x in zip(names, r[1:])} for _, r in keyed]


def contains(poly: Polytope, point: Mapping[str, Fraction]) -> bool:
    for c in poly.constraints:
        lhs = sum((rat(c.coeffs.get(v, ZERO)) * rat(point.get(v, ZERO))
                   for v in set(c.coeffs) | set(point)), ZERO)
        if c.rel == LE and lhs > c.rhs:
            return False
        if c.rel == GE and lhs < c.rhs:
            return False
        if c.rel == EQ and lhs != c.rhs:
            return False
    return True


def _row_reduce(rows: Sequence[tuple[list[Fraction], Fraction]], n: int):
    """Gauss-Jordan elimination in Fractions of the augmented rows (a, b) of
    `a . x == b`: the reduced rows and their rank over the n columns of a."""
    A = [list(a) + [b] for a, b in rows]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(A)) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [v / A[r][col] for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [v - f * w for v, w in zip(A[i], A[r])]
        r += 1
    return A, r


def vertices_by_active_sets(poly: Polytope) -> list[dict[str, Fraction]]:
    """The vertices of a bounded polytope by brute force in Fractions, the
    reference for `polytope.vertices`: every equality row is kept active,
    every choice of as many remaining inequality rows as the equalities
    leave free coordinates is made active too, each system with one solution
    is solved, and the solutions that satisfy every inequality are the
    vertices.  Returned distinct, in the order of their coordinate tuples."""
    names = list(poly.variables)
    n = len(names)

    def side(c: Constraint, sign: int) -> tuple[list[Fraction], Fraction]:
        return [sign * rat(c.coeffs.get(v, ZERO)) for v in names], sign * rat(c.rhs)

    eqs = [side(c, 1) for c in poly.constraints if c.rel == EQ]
    ineqs = [side(c, 1 if c.rel == LE else -1) for c in poly.constraints if c.rel != EQ]
    points = set()
    for chosen in combinations(ineqs, n - _row_reduce(eqs, n)[1]):
        A, rank = _row_reduce(eqs + list(chosen), n)
        if rank < n or any(row[n] != 0 for row in A[rank:]):
            continue
        x = [row[n] for row in A[:n]]
        if all(sum((a * v for a, v in zip(coeffs, x)), ZERO) <= b for coeffs, b in ineqs):
            points.add(tuple(x))
    return [dict(zip(names, pt)) for pt in sorted(points)]


def measure_form(point: Mapping[str, Fraction]) -> tuple[int, dict[str, int]]:
    """A closure vertex's nonzero leaf weights `w[leaf]` as integers over
    the lcm of their denominators: the reference for a `Measure`'s
    (`den`, `num`)."""
    w = {name[2:-1]: rat(x) for name, x in point.items() if name.startswith("w[") and x}
    den = lcm(*[x.denominator for x in w.values()])
    return den, {leaf: x.numerator * den // x.denominator for leaf, x in w.items()}


def region_polygon(market: MarketSpec, params: Sequence[str]):
    """The pricing region of `cli.emit_region` in Fractions: the closure's
    vertices by active sets, each parameter the ratio of two subtree masses,
    and the hull by the monotone chain on those Fractions.  A refusal is
    returned as the phrase that `emit_region`'s `UsageError` carries."""
    tree = market.tree
    verts = vertices_by_active_sets(closure_polytope(PricingSetSpec(market)))
    masses = [subtree_masses(Measure(tree, {name[2:-1]: x for name, x in v.items() if x}))
              for v in verts]
    if not masses:
        return []
    for n in params:
        parent = {m[tree.parent(n)] for m in masses}
        if len(parent) > 1:
            return "not affine"
        if parent == {ZERO}:
            return "null node"
    points = sorted({tuple(m[n] / m[tree.parent(n)] for n in params) for m in masses})
    if len(params) <= 1 or len(points) <= 2:
        hull = points[:1] + points[1:][-1:]
    else:
        def turn(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        chains = []
        for pts in (points, points[::-1]):
            chain = []
            for p in pts:
                while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                    chain.pop()
                chain.append(p)
            chains.append(chain[:-1])
        hull = chains[0] + chains[1]
    return [dict(zip(params, pt)) for pt in hull]


def hrep_text(poly: Polytope) -> str:
    """Plain text H-representation for external verification: the variable
    names, then one line per row with its Fraction coefficients."""
    lines = [" ".join(poly.variables)]
    for c in poly.constraints:
        terms = " ".join(f"{rat_str(c.coeffs.get(v, ZERO))}" for v in poly.variables)
        lines.append(f"{terms} {c.rel} {rat_str(c.rhs)} # {c.name}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# LP rows in Fractions: the builders the integer rows replace
# ---------------------------------------------------------------------------

def _w(leaf: str) -> str:
    return f"w[{leaf}]"


def martingale_rows(market: MarketSpec, leaves: Sequence[str]) -> list[Constraint]:
    """The total-mass row and one row per non-leaf node and stock component:
    the martingale condition over the weights of `leaves`."""
    tree, leaf_set = market.tree, set(leaves)
    rows = [con({_w(l): 1 for l in leaves}, EQ, 1, "mass")]
    for node in tree.nonleaf_nodes():
        for l_idx in range(market.dim):
            coeffs: dict[str, Fraction] = {}
            for child in tree.children(node):
                step = market.S.at(child)[l_idx] - market.S.at(node)[l_idx]
                if step == 0:
                    continue
                for leaf in tree.leaves_under(child):
                    if leaf in leaf_set:
                        coeffs[_w(leaf)] = step
            if coeffs:
                rows.append(con(coeffs, EQ, 0, f"mart[{node}][{l_idx}]"))
    return rows


def claim_row(claim: TerminalClaim, leaves: Sequence[str]) -> dict[str, Fraction]:
    return {_w(l): claim.at(l) for l in leaves if claim.at(l)}


def stop_row(h: AdaptedProcess, tau: StoppingTime, leaves: Sequence[str]) -> dict[str, Fraction]:
    values = {l: h.scalar_at(stop_node(tau, l)) for l in leaves}
    return {_w(l): v for l, v in values.items() if v}


def pricing_rows(spec, leaves: Sequence[str], slack_var: str | None = None) -> list[Constraint]:
    m = spec.market
    rows = [con(claim_row(claim, leaves), EQ, price, f"f[{i}]")
            for i, (claim, price) in enumerate(zip(m.f, m.f_prices))]
    for j, (claim, cap) in enumerate(zip(m.g, m.g_prices)):
        coeffs = claim_row(claim, leaves)
        if slack_var is not None:
            coeffs[slack_var] = Fraction(1)
        rows.append(con(coeffs, LE, cap, f"g[{j}]"))
    return rows


def slack_rows(spec, leaves: Sequence[str], cuts, slack_var: str) -> list[Constraint]:
    """The rows of `max_slack`'s LP with the stop cuts (k, tau) `cuts`."""
    m = spec.market
    rows = martingale_rows(m, leaves) + pricing_rows(spec, leaves, slack_var)
    for k, tau in cuts:
        coeffs = stop_row(m.h[k], tau, leaves)
        coeffs[slack_var] = Fraction(1)
        rows.append(con(coeffs, LE, m.h_prices[k], f"h[{k}]cut"))
    rows += [con({_w(l): 1, slack_var: -1}, GE, 0, f"floor[{l}]")
             for l in leaves if l in spec.support_floor]
    rows.append(con({slack_var: 1}, LE, 1, "slack_cap"))
    return rows


def slack_every_round(spec) -> SlackResult:
    """`max_slack(spec)` with every stop-cut round solved afresh from the
    Fraction builders (`slack_rows`), round 0 included: each round adds the
    optimal stop of every American option whose exercise value under the
    round's witness exceeds its quote minus the slack, and the certificate
    spells out the last round's duals (optimum <= 0) or Farkas multipliers
    (infeasible) through `_slack_certificate`."""
    m = spec.market
    leaves = m.support_leaves()
    variables = [_w(l) for l in leaves] + [SLACK_VAR]
    fixed = martingale_rows(m, leaves) + pricing_rows(spec, leaves, SLACK_VAR)
    cuts: list[tuple[int, StoppingTime]] = []
    while True:
        sol = solve(LpProblem("max", {SLACK_VAR: 1}, slack_rows(spec, leaves, cuts, SLACK_VAR),
                              variables, free=frozenset({SLACK_VAR})))
        if sol.status != "optimal":
            return SlackResult(status="infeasible",
                               certificate=_slack_certificate(m, fixed, cuts, sol.farkas))
        Q = Measure(m.tree, {l: sol.values.get(_w(l), ZERO) for l in leaves})
        slack = sol.values.get(SLACK_VAR, ZERO)
        new = [(k, snell_optimal_stop(Q, h)) for k, (h, cap) in enumerate(zip(m.h, m.h_prices))
               if snell_envelope(Q, h)[1] > cap - slack]
        if not new:
            break
        cuts += new
    certificate = _slack_certificate(m, fixed, cuts, sol.duals) if sol.objective <= 0 else None
    return SlackResult(status="optimal", optimum=sol.objective, witness=Q,
                       certificate=certificate)


def witness_slacks(spec, Q: Measure) -> tuple[Fraction | None, Fraction | None]:
    """(option slack, floor slack) of a slack LP's witness Q over the market's
    support: the least cap minus expectation or exercise envelope over the
    options, and the least weight on the support floor; None where there is
    no option or no floor.  At the optimum, min(both, 1) is the LP
    value."""
    m = spec.market
    option = [cap - expect_claim(Q, claim) for claim, cap in zip(m.g, m.g_prices)]
    option += [cap - snell_envelope(Q, h)[1] for h, cap in zip(m.h, m.h_prices)]
    floor = [Q.at(l) for l in m.support_leaves() if l in spec.support_floor]
    return min(option, default=None), min(floor, default=None)


def closure_rows(spec, leaves: Sequence[str], taus: Sequence[StoppingTime],
                 nonneg: bool = True) -> list[Constraint]:
    """The rows of `closure_polytope` with every stop of `taus`; without the
    rows w[l] >= 0 when `nonneg` is False."""
    m = spec.market
    rows = martingale_rows(m, leaves)
    if nonneg:
        rows += [con({_w(l): 1}, GE, 0, f"nonneg[{l}]") for l in leaves]
    rows += pricing_rows(spec, leaves)
    for k, (h, cap) in enumerate(zip(m.h, m.h_prices)):
        rows += [con(stop_row(h, tau, leaves), LE, cap, f"h[{k}]tau[{t}]")
                 for t, tau in enumerate(taus)]
    return rows


def dual_rows(spec, claim, kind: str, taus: Sequence[StoppingTime]) -> list[Constraint]:
    """The rows of `hedging.dual_optimum`'s LP: the closure rows with every
    stop of `taus` but the nonnegativity rows, which the LP's column bounds
    impose, and for "sub_am" one epigraph row E[claim at tau] - z <= 0 per
    stop."""
    leaves = spec.market.support_leaves()
    rows = closure_rows(spec, leaves, taus, nonneg=False)
    if kind == "sub_am":
        for t_idx, tau in enumerate(taus):
            coeffs = stop_row(claim, tau, leaves)
            coeffs["z"] = Fraction(-1)
            rows.append(con(coeffs, LE, 0, f"epi[{t_idx}]"))
    return rows


def structure_rows(market: MarketSpec, include_eta: bool) -> list[Constraint]:
    """Path sums of each American option's flow nu equal its holding c, and
    (with `include_eta`) unit path sums of the claim's exercise flow."""
    tree = market.tree
    rows = []
    for k in range(len(market.h)):
        for leaf in tree.leaves:
            coeffs = {f"nu[{k}][{n}]": Fraction(1) for n in tree.path(leaf)}
            coeffs[f"c[{k}]"] = Fraction(-1)
            rows.append(con(coeffs, EQ, 0, f"liq[{k}][{leaf}]"))
    if include_eta:
        rows += [con({f"eta[{n}]": Fraction(1) for n in tree.path(leaf)}, EQ, 1, f"flow[{leaf}]")
                 for leaf in tree.leaves]
    return rows


def phi_coeffs(market: MarketSpec, leaf: str) -> dict[str, Fraction]:
    """Column coefficients of a semi-static portfolio's terminal value at
    `leaf`."""
    m, path = market, market.tree.path(leaf)
    coeffs: dict[str, Fraction] = {}
    for here, there in zip(path, path[1:]):
        for l in range(m.dim):
            step = m.S.at(there)[l] - m.S.at(here)[l]
            if step:
                coeffs[f"H[{here}][{l}]"] = step
    for name, book, prices in (("a", m.f, m.f_prices), ("b", m.g, m.g_prices)):
        for i, (claim, price) in enumerate(zip(book, prices)):
            if claim.at(leaf) - price:
                coeffs[f"{name}[{i}]"] = claim.at(leaf) - price
    for k, (h, price) in enumerate(zip(m.h, m.h_prices)):
        for n in path:
            if h.scalar_at(n):
                coeffs[f"nu[{k}][{n}]"] = h.scalar_at(n)
        if price:
            coeffs[f"c[{k}]"] = -price
    return coeffs


def hedge_rows(market: MarketSpec, claim, kind: str, leaves: Sequence[str]) -> list[Constraint]:
    """The rows of `hedge_primal`'s LP."""
    rows = structure_rows(market, kind == "sub_am")
    for leaf in leaves:
        coeffs = phi_coeffs(market, leaf)
        if kind == "sub_eu":
            coeffs["x"] = Fraction(-1)
            rows.append(con(coeffs, GE, -claim.at(leaf), f"leaf[{leaf}]"))
        elif kind == "super_div":
            coeffs["x"] = Fraction(1)
            rows.append(con(coeffs, GE, claim.at(leaf), f"leaf[{leaf}]"))
        else:
            for n in market.tree.path(leaf):
                if claim.scalar_at(n):
                    coeffs[f"eta[{n}]"] = coeffs.get(f"eta[{n}]", ZERO) + claim.scalar_at(n)
            coeffs["x"] = Fraction(-1)
            rows.append(con(coeffs, GE, 0, f"leaf[{leaf}]"))
    return rows


def cone_rows(market: MarketSpec, support: Sequence[str]) -> tuple[list[Constraint], dict]:
    """The rows and the objective of `check_na`'s cone LP."""
    rows = structure_rows(market, False)
    total: dict[str, Fraction] = {}
    for leaf in support:
        coeffs = phi_coeffs(market, leaf)
        rows.append(con(coeffs, GE, 0, f"leaf[{leaf}]"))
        for v, cv in coeffs.items():
            total[v] = total.get(v, ZERO) + cv
    rows.append(con(total, LE, 1, "normalization"))
    return rows, total


def minimax_rows(R_vertices: Sequence[Measure], h_list: Sequence[AdaptedProcess],
                 taus: Sequence[StoppingTime]) -> tuple[list, list]:
    """The rows of the two sides of the minimax identity: the flow side (max t
    such that every vertex gives the exercise flows mu[k] at least t) and the
    stop side over `taus`, the one LP `minimax_check` solves."""
    tree = R_vertices[0].tree
    lhs = [con({f"mu[{k}][{n}]": 1 for n in tree.path(leaf)}, EQ, 1, f"flow[{k}][{leaf}]")
           for k in range(len(h_list)) for leaf in tree.leaves]
    for v_idx, R in enumerate(R_vertices):
        masses = subtree_masses(R)
        coeffs = {f"mu[{k}][{n}]": masses[n] * h.scalar_at(n)
                  for k, h in enumerate(h_list) for n in tree.nodes
                  if masses[n] * h.scalar_at(n)}
        coeffs["t"] = Fraction(-1)
        lhs.append(con(coeffs, GE, 0, f"vertex[{v_idx}]"))
    hull = con({f"lam[{i}]": 1 for i in range(len(R_vertices))}, EQ, 1, "hull")

    def stop_row(k, t, tau):
        coeffs = {f"lam[{i}]": expect_at_stop(R, h_list[k], tau)
                  for i, R in enumerate(R_vertices) if expect_at_stop(R, h_list[k], tau)}
        coeffs[f"w[{k}]"] = Fraction(-1)
        return con(coeffs, LE, 0, f"stop[{k}][{t}]")

    rhs = [hull] + [stop_row(k, t, tau) for k in range(len(h_list))
                    for t, tau in enumerate(taus)]
    return lhs, rhs


def minimax_flow_value(R_vertices: Sequence[Measure],
                       h_list: Sequence[AdaptedProcess]) -> Fraction:
    """sup over exercise flows of the worst vertex's sum_k E_R[flow_k(h_k)]:
    the flow-side rows of `minimax_rows` solved with `lp.solve`, the
    reference for `minimax_check`'s lhs."""
    tree = R_vertices[0].tree
    rows, _ = minimax_rows(R_vertices, h_list, ())
    variables = ["t"] + [f"mu[{k}][{n}]" for k in range(len(h_list)) for n in tree.nodes]
    sol = solve(LpProblem("max", {"t": 1}, rows, variables, free=frozenset({"t"})))
    if sol.status != "optimal":
        raise VerificationFailure(f"flow-side LP is {sol.status}")
    return sol.objective


def minimax_stop_side(R_vertices: Sequence[Measure],
                      h_list: Sequence[AdaptedProcess]) -> tuple[Fraction, Measure]:
    """inf over the hull of the summed exercise envelopes, and the mixture of
    the vertices that attains it: the stop-side rows of `minimax_rows` over
    every enumerated stop solved with `lp.solve`, the reference for
    `minimax_check`'s rhs and attaining measure."""
    tree = R_vertices[0].tree
    _, rows = minimax_rows(R_vertices, h_list, enumerate_stopping_times(tree))
    lam_vars = [f"lam[{i}]" for i in range(len(R_vertices))]
    w_vars = [f"w[{k}]" for k in range(len(h_list))]
    sol = solve(LpProblem("min", {w: 1 for w in w_vars}, rows, lam_vars + w_vars,
                          free=frozenset(w_vars)))
    if sol.status != "optimal":
        raise VerificationFailure(f"stop-side LP is {sol.status}")
    weights: dict[str, Fraction] = {}
    for lam, R in zip(lam_vars, R_vertices):
        for leaf, w in R.weights.items():
            weights[leaf] = weights.get(leaf, ZERO) + sol.values.get(lam, ZERO) * w
    return sol.objective, Measure(tree, weights)


# ---------------------------------------------------------------------------
# Conveniences only the tests use
# ---------------------------------------------------------------------------

def martingale_system(market: MarketSpec) -> LpProblem:
    """Martingale + total-mass equalities over the weights of the market's
    support leaves (weights outside it are fixed to zero by omission), as an
    LP fragment (zero objective, ready to be extended): the engine's rows,
    kept on the stock process per leaf set."""
    variables, rows = _martingale_rows(market, market.support_leaves())
    return LpProblem("max", {}, list(rows), list(variables))


def constant_claim(tree: EventTree, value) -> TerminalClaim:
    return TerminalClaim(tree, {leaf: rat(value) for leaf in tree.leaves})


# ---------------------------------------------------------------------------
# FTAP: the witness measure
# ---------------------------------------------------------------------------

def find_pricing_measure(market: MarketSpec) -> Measure:
    """The slack-maximal strictly consistent pricing measure."""
    verdict = check_sna(market)
    if verdict.verdict != NO_ARBITRAGE or verdict.pricing is None:
        raise VerificationFailure(f"strict no-arbitrage fails: {verdict.verdict}")
    return verdict.pricing


# ---------------------------------------------------------------------------
# Pricing sets read whole: robust components, exchange values, P2 parameters
# ---------------------------------------------------------------------------

def robust_pricing_set(spec: RobustSpec) -> list[Polytope]:
    """One polytope per prior: martingale measures supported inside that
    prior's support, pricing f exactly and capped on the buy-only books.
    No equivalence constraint (martingale measures, not equivalent ones);
    empty components are allowed."""
    return [closure_polytope(PricingSetSpec(spec.market.on_support(P.support())))
            for P in spec.priors]


def american_exchange_values(market: MarketSpec, phi: AdaptedProcess) -> dict:
    """The pure-option value computed four ways over the closed pricing set:

      sup_flow inf_Q  E_Q[flow(phi)]      (the flow-side LP, `minimax_flow_value`)
      inf_Q sup_flow  E_Q[flow(phi)]      (`minimax_check`'s mid)
      inf_Q sup_stop  E_Q[phi_at_stop]    (its rhs)
      sup_stop inf_Q  E_Q[phi_at_stop]    (max over stops of a vertex minimum)

    All four range over the vertices of the closure polytope: a linear
    minimum over a polytope is attained at a vertex.  The first three agree
    exactly (`minimax_check` raises unless its own three do); the fourth is
    only <= (the exchange in that order genuinely fails in general)."""
    verts = polytope_vertices_as_measures(closure_polytope(PricingSetSpec(market)),
                                          market.tree)
    if not verts:
        raise HedgingError("empty pricing set; the exchange values are +inf")
    flows = minimax_check(verts, [phi])
    return {
        "sup_flow_inf": minimax_flow_value(verts, [phi]),
        "inf_sup_flow": flows.mid,
        "inf_sup_stop": flows.rhs,
        "sup_stop_inf": max(min(Q.expect_at_stop(phi, tau) for Q in verts)
                            for tau in enumerate_stopping_times(market.tree)),
    }


def p2_params_of(Q: Measure) -> tuple[Fraction, Fraction]:
    """Recover (p, q) from a P2 pricing measure (conditional first-child weights)."""
    wu = sum(Q.weights.get(l, Fraction(0)) for l in ("u1", "u2", "u3"))
    wd = sum(Q.weights.get(l, Fraction(0)) for l in ("d1", "d2", "d3"))
    if wu == 0 or wd == 0:
        raise FixtureError("measure has no mass on a time-1 subtree")
    return Q.weights.get("u1", Fraction(0)) / wu, Q.weights.get("d1", Fraction(0)) / wd


# ---------------------------------------------------------------------------
# Robust questions asked of every prior and every component
# ---------------------------------------------------------------------------

def unpruned_dominating_slack(spec: RobustSpec, floor: frozenset[str]) -> SlackResult | None:
    """The best slack of a measure dominating a prior with support `floor`:
    one slack LP per prior whose support contains the floor, the earliest
    best optimum kept; None when none is feasible."""
    best = None
    for P in spec.priors:
        if floor <= P.support():
            res = max_slack(PricingSetSpec(spec.market.on_support(P.support()),
                                           support_floor=floor))
            if res.status == "optimal" and (best is None or res.optimum > best.optimum):
                best = res
    return best


def unpruned_robust_verdict(spec: RobustSpec) -> ArbitrageVerdict:
    """Robust strict no-arbitrage with every prior's best slack solved: the
    uniform slack is their minimum and the pricing measure the first prior's
    witness; otherwise the quasi-sure `check_na` verdicts on the union
    market, at the quotes and at quotes shifted down by 1/2."""
    m = spec.market
    slacks = [unpruned_dominating_slack(spec, P.support()) for P in spec.priors]
    fails = "no dominating measures under any uniform strict shift"
    if all(s is not None and s.strictly_positive for s in slacks):
        t = min(s.optimum for s in slacks)
        return ArbitrageVerdict(
            verdict=NO_ARBITRAGE, pricing=slacks[0].witness,
            g_slacks=tuple(t for _ in m.g), h_slacks=tuple(t for _ in m.h),
            notes=f"robust strict no-arbitrage holds with uniform slack {rat_str(t)}; "
                  f"{len(slacks)} dominating witnesses",
        )
    union = m.on_support(union_support(spec.priors))
    plain = check_na(union)
    if plain.verdict == ARBITRAGE:
        return plain
    if m.g or m.h:
        half = Fraction(1, 2)
        shifted = check_na(union.with_options(g_prices=[p - half for p in m.g_prices],
                                              h_prices=[p - half for p in m.h_prices]))
        if shifted.verdict == ARBITRAGE:
            return ArbitrageVerdict(verdict=STRICT_NO_ARBITRAGE_FAILS,
                                    portfolio=shifted.portfolio, shifted_g=shifted.shifted_g,
                                    shifted_h=shifted.shifted_h, notes=fails)
    return ArbitrageVerdict(verdict=STRICT_NO_ARBITRAGE_FAILS, notes=fails)


def unpruned_sub_hedge_robust(spec: RobustSpec, claim) -> HedgeResult:
    """The robust sub-hedge with one hedge LP per prior: the union market's
    portfolio, priced by the cheapest component, the earliest prior winning
    ties; refused as `sub_hedge_robust` refuses."""
    verdict = unpruned_robust_verdict(spec.reduced(0))
    if verdict.verdict != NO_ARBITRAGE:
        raise HypothesisFailure(verdict)
    m = spec.market
    american = isinstance(claim, AdaptedProcess)
    kind = "sub_am" if american else "sub_eu"
    union = m.on_support(union_support(spec.priors))
    primal, space, _ = hedge_primal(union, claim, kind)
    best = None
    for P in spec.priors:
        sol, _, Q = hedge_primal(m.on_support(P.support()), claim, kind)
        if sol.status == "optimal" and (best is None or sol.objective < best[0]):
            best = (sol.objective, Q, P.support())
    if best is None:
        if primal.status == "optimal":
            raise RobustDualityGapError(primal.objective, INFINITE_PRICE)
        return HedgeResult(kind=kind, market=union, claim=claim, price=INFINITE_PRICE,
                           details={"pricing_set_empty": True})
    if primal.status != "optimal":
        raise RobustError(f"quasi-sure hedge LP is {primal.status}")
    price, Q, leaves = best
    if primal.objective != price:
        raise RobustDualityGapError(primal.objective, price)
    result = HedgeResult(
        kind=kind, market=union, claim=claim, price=price,
        portfolio=space.extract_portfolio(primal.values),
        eta=space.extract_eta(primal.values) if american else None, dual=Q,
        details={"dual_spec": PricingSetSpec(m.on_support(leaves))},
    )
    duality_gap_report(result)
    return result
