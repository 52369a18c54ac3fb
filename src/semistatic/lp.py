"""Exact rational linear programming with verified certificates.

Two-phase primal simplex with one pivot rule: largest-coefficient pricing
and a lexicographic ratio test (Dantzig, Orden & Wolfe), which cannot cycle,
so the solver terminates on degenerate problems (the hedging LPs have many
ties).  Each free variable is a single column.  The tableau is condensed
(Tucker: only nonbasic columns are stored) and held in integers, each row
over a positive denominator of its own, so a pivot rewrites only the rows
whose pivot-column entry is nonzero.  A stored row may be any positive
multiple of the true row: a pivot cross-multiplies a row by the pivot and by
the row's own pivot-column entry, each divided by their gcd, and divides no
cell, and a row whose denominator outgrows one 30-bit digit is cut to lowest
terms.  The rewrite subtracts only on the pivot row's nonzero columns, in
place when the row's own factor is 1; every other entry is only scaled.  A
row scale changes no ratio and no sign, so the pivot path is the same at
every scale (`_Tableau` has the details).  A `>=` row's surplus and
artificial share one column: the artificial's column is always the negated
surplus's, and its reduced cost follows from the surplus's, so a pair stores
at most one column, and none while one member is basic (the other then never
improves the objective).  The initial tableau holds the structural columns
only.

A row is held once, as integers in canonical form (`Constraint`): integer
coefficients and rhs over one positive denominator, the lcm of the reduced
denominators of its rationals, so that the three share no common factor.
Builders make rows from integers (`int_con`) or from rationals (`con`), and
`LpProblem` holds its objective the same way.  Set-up and extraction do no
per-entry Fraction arithmetic: each stored row is divided by the gcd of its
coefficients and rhs, and negated if its rhs is negative, and that factor is
kept as an integer pair.  Each value, dual, Farkas entry and reduced cost is
read off the final tableau as one Fraction of two integers, and a zero one is
returned as the shared `ZERO`.

Every result carries a certificate and is re-verified before it is returned,
from the original problem's stored rows only (never from the tableau):

  optimal    -> primal feasibility, duals of the right signs with exact
                complementary slackness, reduced costs equal to c - A^T y
                and of the right signs, and primal objective == b.y == dual
                objective (rational equality),
  infeasible -> a Farkas multiplier vector, checked by multiplication,
  unbounded  -> a feasible point plus an improving ray, checked directly.

The re-checks run in integers.  Each solution vector (values, duals or
Farkas multipliers with the reduced costs, a ray) is put over one common
denominator, and read against each row's stored integers and denominator in
`problem.constraints`.  Every feasibility, sign, slackness, c - A^T y,
objective and b.y check is then one exact integer comparison, equivalent to
the same check summed in Fractions.

Variables are nonnegative unless listed in `free`; anything else (upper
bounds, lower bounds) is written as an explicit constraint row.  Solves share
no state and can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .rational import over_lcm, rat

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

ZERO = Fraction(0)


class LpError(ValueError):
    pass


class VerificationFailure(RuntimeError):
    """A certificate failed its independent re-check; names the culprit.
    Every re-check in the package raises it or a subclass."""


@dataclass(frozen=True, slots=True)
class Constraint:
    """The row sum(num[v] * x_v) / den  rel  rhs_num / den, in canonical
    form: den > 0 is the lcm of the reduced denominators of the row's
    rationals, so gcd(den, *num, rhs_num) == 1 and rows of equal rationals
    compare equal.  Make rows with `int_con` or `con`; `coeffs` and `rhs` are
    the Fraction views."""

    num: Mapping[str, int]
    rel: str
    rhs_num: int
    den: int = 1
    name: str = ""

    def __post_init__(self):
        if self.rel not in _RELS:
            raise LpError(f"bad relation {self.rel!r}")

    @property
    def coeffs(self) -> dict[str, Fraction]:
        return {v: Fraction(c, self.den) for v, c in self.num.items()}

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.den)


def int_con(num: Mapping[str, int], rel: str, rhs_num: int = 0, den: int = 1,
            name: str = "") -> Constraint:
    """The row num / den  rel  rhs_num / den for any positive den, reduced to
    canonical form.  `num` is kept, not copied, when nothing divides out: the
    caller hands it over and must not change it afterwards."""
    g = gcd(den, rhs_num, *num.values())
    if g > 1:
        num = {v: c // g for v, c in num.items()}
        rhs_num //= g
        den //= g
    return Constraint(num, rel, rhs_num, den, name)


def con(coeffs: Mapping[str, object], rel: str, rhs, name: str = "") -> Constraint:
    """The row of rational (int, Fraction or "p/q") coefficients and rhs."""
    den, num = over_lcm({k: rat(v) for k, v in coeffs.items()})
    rhs = rat(rhs)
    return int_con({k: c * rhs.denominator for k, c in num.items()}, rel,
                   rhs.numerator * den, den * rhs.denominator, name)


@dataclass
class LpProblem:
    """max or min objective . x over the rows, x >= 0 but for `free`.

    `objective` is given as a map of rationals, or as a row whose left side
    it is.  It is kept as its Fraction map and, once, as integers over one
    denominator (`cost_num` over `cost_den`), which the solver and the
    re-checks read."""

    sense: str
    objective: Mapping[str, Fraction] | Constraint
    constraints: list[Constraint]
    variables: list[str]
    free: frozenset[str] = field(default_factory=frozenset)
    cost_den: int = field(init=False, repr=False, compare=False)
    cost_num: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise LpError(f"bad sense {self.sense!r}")
        if isinstance(self.objective, Constraint):
            cost = int_con(self.objective.num, EQ, 0, self.objective.den)
            self.cost_den, self.cost_num = cost.den, cost.num
            self.objective = cost.coeffs
        else:
            self.objective = {k: rat(v) for k, v in self.objective.items()}
            self.cost_den, self.cost_num = over_lcm(self.objective)
        order = set(self.variables)
        if len(order) != len(self.variables):
            raise LpError("duplicate variable names")
        for name in self.objective:
            if name not in order:
                raise LpError(f"objective references unknown variable {name!r}")
        for row in self.constraints:
            for name in row.num:
                if name not in order:
                    raise LpError(f"constraint {row.name!r} references unknown "
                                  f"variable {name!r}")
        unknown_free = self.free - order
        if unknown_free:
            raise LpError(f"free-variable names not declared: {sorted(unknown_free)}")


@dataclass
class LpSolution:
    status: str
    objective: Fraction | None = None
    values: dict[str, Fraction] = field(default_factory=dict)
    duals: list[Fraction] = field(default_factory=list)
    reduced_costs: dict[str, Fraction] = field(default_factory=dict)
    dual_objective: Fraction | None = None
    farkas: list[Fraction] | None = None
    ray: dict[str, Fraction] | None = None
    feasible_point: dict[str, Fraction] | None = None
    pivots: tuple[int, int] = (0, 0)  # phase 1 (with drive-outs), phase 2


# ---------------------------------------------------------------------------
# Simplex core
# ---------------------------------------------------------------------------

_TWIN = -2  # slot_of of a pair member whose column is minus its twin's
_CUT = 1 << 30  # a row whose denominator reaches this is cut to lowest terms


def _lowest(den: int, row: list[int], rhs: int = 0) -> tuple[int, list[int], int]:
    """den, row and rhs divided by their gcd."""
    g = gcd(den, rhs, *row)
    if g > 1:
        return den // g, [v // g for v in row], rhs // g
    return den, row, rhs


class _Tableau:
    """Condensed equality-form tableau max c.x, Ax = b, x >= 0, with b >= 0.

    Only nonbasic columns are stored: slot s of every row holds the column of
    variable `slot_var[s]` (`slot_of` maps back, -1 when basic), and a basic
    variable's unit column is implicit.  A pivot swaps the entering and the
    leaving variable between the pivot row's basis entry and the slot.

    A `>=` row's surplus s and artificial a are twins (`twin` pairs them):
    their input columns are negatives of each other, so column(a) =
    -column(s) in every tableau, and since z_a = -z_s the reduced costs obey
    rc(a) + rc(s) = c_s + c_a = C, the same for every pair (-1 in phase 1, 0
    in phase 2).  A pair keeps at most one slot.  The member not stored has
    `slot_of` _TWIN: while its twin is stored its column is minus the slot
    and its obj entry is od * C - obj[slot]; while its twin is basic its
    column is minus that row's unit and its reduced cost is od * C <= 0, so
    it never enters (a drive-out can still pivot it in).  A twin entering
    from a shared slot first takes the slot over, negating the column.

    Every entry is an integer, and each row keeps a scale of its own: row
    k's true entries are rows[k] / rd[k] and b[k] / rd[k], and the objective
    row's are obj / od, for any positive rd[k] and od that make them
    integers.  A pivot on entry piv of row i leaves that row at its own
    scale: the true row divided by piv / rd[i] is prow / piv, so rd[i]
    becomes piv and the leaving variable's slot takes the old rd[i] (all
    negated first if piv < 0, which only a drive-out can meet).  Each
    row with a nonzero pivot-column entry f becomes p * row - q * prow over
    rd[k] * p, where h = gcd(piv, f), p = piv / h and q = f / h: the true
    update row / rd[k] - (f / rd[k]) * (prow / piv) over the common
    denominator rd[k] * piv / h.  Rows the pivot column misses are left
    alone.  The pivot row's nonzero columns are listed once per pivot, and
    q * prow is subtracted on those alone: a row with p == 1 is updated in
    place, any other is scaled by p first; the objective row is rewritten
    the same way.  No cell is divided, so a row's integers only grow until
    its denominator reaches _CUT (one 30-bit CPython digit); from then on it
    is divided, rhs and denominator with it, by their gcd after each
    rewrite, so a row past _CUT is in lowest terms.  Every // divides by a
    gcd of its own operands, or an lcm by one of its factors, so each is
    exact.  The scales cannot move the pivot path: pricing compares
    objective entries over one positive od, and the ratio test and its
    lexicographic tie-break compare ratios of entries of one row, which no
    positive row scale changes.  Extraction returns a zero entry as the
    shared `ZERO`.

    A free variable is one column.  It is negated (and `sign` records it) when
    it enters with a negative reduced cost; once basic it never leaves."""

    def __init__(self, ncols: int, basis: list[int], free: Sequence[int], twin: list[int]):
        self.basis = basis
        self.twin = twin  # the other member of a surplus/artificial pair, else -1
        self.slot_of = [-1] * ncols
        self.slot_var: list[int] = []
        basic = set(basis)
        for j in range(ncols):
            if twin[j] in basic:
                self.slot_of[j] = _TWIN
            elif j not in basic:
                self.slot_of[j] = len(self.slot_var)
                self.slot_var.append(j)
        self.rows: list[list[int]] = []
        self.b: list[int] = []
        self.rd = [1] * len(basis)
        self.obj: list[int] = []  # od * (c_j - z_j), in integerized cost units
        self.od = 1
        self.pair_cost = 0  # C = c_s + c_a of every twin pair
        self.free = tuple(free)
        self.sign = [1] * ncols  # -1 on a free column stored negated
        self.ray_col = -1
        self.pivots = 0

    def _negate(self, s: int, total: int = 0) -> None:
        """Negate slot s's column; its obj entry becomes total - obj[s]."""
        for row in self.rows:
            row[s] = -row[s]
        self.obj[s] = total - self.obj[s]

    def _store(self, j: int) -> int:
        """The slot of nonbasic j, which a twin first takes over from its
        stored partner."""
        s = self.slot_of[j]
        if s == _TWIN:
            t = self.twin[j]
            s = self.slot_of[t]
            self._negate(s, self.od * self.pair_cost)
            self.slot_var[s], self.slot_of[j], self.slot_of[t] = j, s, _TWIN
        return s

    def pivot(self, i: int, j: int) -> None:
        rows, b, rd = self.rows, self.b, self.rd
        if self.slot_of[j] == _TWIN and self.twin[j] == self.basis[i]:
            # j's column is -(unit at row i) (a drive-out: a surplus replaces
            # its own artificial): row i is negated, every other row keeps
            # its entries, and each reduced cost gains C times row i's entry,
            # over the lcm of the two denominators
            od, r = self.od, rd[i]
            self.od = den = lcm(od, r)
            u, w = den // od, self.pair_cost * (den // r)
            self.obj = [u * x + w * v for x, v in zip(self.obj, rows[i])]
            if den >= _CUT:
                self.od, self.obj, _ = _lowest(den, self.obj)
            rows[i] = [-v for v in rows[i]]
            b[i] = -b[i]
            self.slot_of[self.basis[i]], self.slot_of[j] = _TWIN, -1
            self.basis[i] = j
            self.pivots += 1
            return
        s = self._store(j)
        prow, bi, r = rows[i], b[i], rd[i]
        piv = prow[s]
        if piv < 0:  # only reachable on degenerate drive-out pivots (b_i = 0)
            prow = [-v for v in prow]
            piv, bi, r = -piv, -bi, -r
        support = [(c, y) for c, y in enumerate(prow) if y and c != s]
        for k, row in enumerate(rows):
            f = row[s]
            if f and k != i:
                h = gcd(piv, f) if piv != 1 else 1
                p, q = piv // h, f // h
                rows[k] = row = [p * x for x in row] if p != 1 else row
                for c, y in support:
                    row[c] -= q * y
                row[s] = -q * r  # the leaving variable's column
                b[k] = bk = p * b[k] - q * bi
                rd[k] = d = rd[k] * p
                if d >= _CUT and (g := gcd(d, bk, *row)) > 1:
                    rows[k], rd[k], b[k] = [v // g for v in row], d // g, bk // g
        f = self.obj[s]
        if f:
            h = gcd(piv, f) if piv != 1 else 1
            p, q = piv // h, f // h
            self.obj = obj = [p * x for x in self.obj] if p != 1 else self.obj
            for c, y in support:
                obj[c] -= q * y
            obj[s] = -q * r
            self.od *= p
            if self.od >= _CUT:
                self.od, self.obj, _ = _lowest(self.od, obj)
        prow[s] = r
        rows[i], b[i], rd[i] = prow, bi, piv
        if piv >= _CUT:
            rd[i], rows[i], b[i] = _lowest(piv, prow, bi)
        self.slot_var[s], self.basis[i] = self.basis[i], j
        self.slot_of[self.slot_var[s]], self.slot_of[j] = s, -1
        self.pivots += 1

    def entry(self, k: int, j: int) -> int:
        """Row k's entry at variable j, over the row's denominator rd[k]."""
        s = self.slot_of[j]
        if s >= 0:
            return self.rows[k][s]
        if s == _TWIN:
            return -self.entry(k, self.twin[j])
        return self.rd[k] if self.basis[k] == j else 0

    def reduced(self, j: int) -> int:
        """od * (c_j - z_j): 0 at a basic variable."""
        s = self.slot_of[j]
        if s == _TWIN:
            return self.od * self.pair_cost - self.reduced(self.twin[j])
        return self.obj[s] if s >= 0 else 0

    def run(self, limit: int) -> str:
        """Pivot until no variable below `limit` improves the objective.

        Pricing is largest coefficient, ties to the lowest variable index; a
        free variable is priced by the size of its reduced cost and offered
        first.  Both members of a pair in a slot are priced, each with its own
        index.  Ratio-test ties are broken lexicographically on the columns
        that were basic when the phase began.  Those columns are the identity
        then, so every row starts lexicographically positive, stays so, and
        the objective row rises lexicographically with every pivot: no basis
        repeats and the phase terminates.  A ratio and a lexicographic
        comparison are the same at every row scale, so each row is read over
        its own denominator.  Rows whose basic variable is free are left out
        of the ratio test."""
        lex = list(self.basis)
        rows, b, rd, free, twin = self.rows, self.b, self.rd, self.free, self.twin
        basis, slot_of, slot_var = self.basis, self.slot_of, self.slot_var
        while True:
            obj = self.obj
            enter, best = -1, 0
            for j in free:
                s = slot_of[j]
                if s >= 0 and abs(obj[s]) > best:
                    enter, best = j, abs(obj[s])
            if enter < 0:
                oc = self.od * self.pair_cost
                for s, o in enumerate(obj):
                    if o > 0 and o >= best:
                        j = slot_var[s]
                        if j < limit and (o > best or j < enter):
                            enter, best = j, o
                    o = oc - o  # the twin's, if slot s holds a pair member
                    if o > 0 and o >= best:
                        j = twin[slot_var[s]]
                        if 0 <= j < limit and (o > best or j < enter):
                            enter, best = j, o
            if enter < 0:
                return "optimal"
            s = self._store(enter)
            if obj[s] < 0:
                self._negate(s)
                self.sign[enter] = -self.sign[enter]
            leave = -1
            for i, row in enumerate(rows):
                a = row[s]
                if a <= 0 or basis[i] in free:
                    continue
                if leave >= 0:
                    # compare row / a against the incumbent by cross
                    # multiplication, reading stored and basic columns in
                    # place
                    lrow = rows[leave]
                    ap = lrow[s]
                    diff = b[i] * ap - b[leave] * a
                    for c in lex:
                        if diff:
                            break
                        t = slot_of[c]
                        if t >= 0:
                            diff = row[t] * ap - lrow[t] * a
                        elif t == -1:  # basic: rd on its own row, 0 elsewhere
                            diff = ((rd[i] * ap if basis[i] == c else 0)
                                    - (rd[leave] * a if basis[leave] == c else 0))
                        else:
                            diff = self.entry(i, c) * ap - self.entry(leave, c) * a
                    if diff >= 0:
                        continue
                leave = i
            if leave < 0:
                self.ray_col = enter
                return "unbounded"
            self.pivot(leave, enter)

    def set_costs(self, costs: list[int]) -> None:
        """Recompute the reduced-cost row for a new integer cost vector, over
        the lcm of the denominators of the rows whose basic cost is not 0."""
        costs = [c * s for c, s in zip(costs, self.sign)]
        self.pair_cost = next((costs[j] + costs[t] for j, t in enumerate(self.twin) if t >= 0), 0)
        basic = [(costs[var], i) for i, var in enumerate(self.basis) if costs[var]]
        od = lcm(*[self.rd[i] for _, i in basic])
        obj = [od * costs[j] for j in self.slot_var]
        for cb, i in basic:
            w = cb * (od // self.rd[i])
            for s, v in enumerate(self.rows[i]):
                if v:
                    obj[s] -= w * v
        self.od, self.obj = od, obj
        if od >= _CUT:
            self.od, self.obj, _ = _lowest(od, obj)

    def basic_values(self) -> dict[int, Fraction]:
        return {var: Fraction(self.sign[var] * x, self.rd[i]) if x else ZERO
                for i, (var, x) in enumerate(zip(self.basis, self.b))}


def solve(problem: LpProblem) -> LpSolution:
    """Solve exactly; the returned certificate is re-verified before return."""
    sense_sign = 1 if problem.sense == "max" else -1

    # column layout: one column per variable, free or not
    col_of = {v: j for j, v in enumerate(problem.variables)}
    nstruct = len(col_of)
    m = len(problem.constraints)

    # normalize to b >= 0 by negating a row with a negative rhs, flipping its
    # relation; then a slack (<=) or surplus (>=) column per row in row order,
    # and an artificial per >= and = row.  A row's identity column (its slack
    # or artificial) starts basic; a >= row's surplus and artificial are twins.
    flip = [row.rhs_num < 0 for row in problem.constraints]
    rels = [{LE: GE, GE: LE, EQ: EQ}[row.rel] if f else row.rel
            for row, f in zip(problem.constraints, flip)]
    aux = [0] * m
    total_cols = nstruct
    for i, rel in enumerate(rels):
        if rel != EQ:
            aux[i] = total_cols
            total_cols += 1
    art_start = total_cols
    ident = []
    for i, rel in enumerate(rels):
        if rel == LE:
            ident.append(aux[i])
        else:
            ident.append(total_cols)
            total_cols += 1
    twin = [-1] * total_cols
    for i, rel in enumerate(rels):
        if rel == GE:
            twin[aux[i]], twin[ident[i]] = ident[i], aux[i]

    # each stored integer row is divided by the gcd of its coefficients and
    # rhs, so the tableau pivots in small ints; internal row i is the original
    # row times row_scale[i] = num / den (negative if flipped), and duals
    # unscale at extraction.  Each row starts on its identity column, so the
    # structural columns are the only slots.
    tab = _Tableau(total_cols, list(ident),
                   [col_of[v] for v in problem.variables if v in problem.free], twin)
    row_scale: list[tuple[int, int]] = []
    for row, f in zip(problem.constraints, flip):
        sgn = -1 if f else 1
        g = gcd(row.rhs_num, *row.num.values()) or 1  # 0 on an all-zero row
        q = sgn * g
        dense = [0] * nstruct
        for v, c in row.num.items():
            dense[col_of[v]] = c // q
        tab.rows.append(dense)
        tab.b.append(row.rhs_num // q)
        row_scale.append((sgn * row.den, g))
    rhs = list(tab.b)  # the internal rhs, before any pivot

    obj_scale = problem.cost_den
    objective_int = [0] * total_cols
    for v, c in problem.cost_num.items():
        objective_int[col_of[v]] = sense_sign * c

    # ---- phase 1 ----
    if art_start < total_cols:
        phase1 = [0] * art_start + [-1] * (total_cols - art_start)
        tab.set_costs(phase1)
        state = tab.run(total_cols)
        if state != "optimal":  # the phase-1 objective is bounded above by 0
            raise VerificationFailure(f"phase 1 ended {state}")
        infeas = any(tab.basis[i] >= art_start and tab.b[i] > 0 for i in range(m))
        if infeas:
            # y_i = z at the row's identity column, z_j = c_j - obj_j / od,
            # times row_scale[i] because internal row i is that multiple of
            # the original row: one Fraction of integers per entry
            od = tab.od
            farkas = [Fraction(y * num, od * den) if y else ZERO for y, (num, den) in zip(
                [phase1[idc] * od - tab.reduced(idc) for idc in ident], row_scale)]
            sol = LpSolution(status="infeasible", farkas=farkas, pivots=(tab.pivots, 0))
            verify_farkas(problem, farkas)
            return sol
        # drive remaining artificials out of the basis
        for i in range(m):
            if tab.basis[i] >= art_start:
                for j in range(art_start):
                    if tab.entry(i, j):
                        tab.pivot(i, j)
                        break
                # else: redundant all-zero row; its artificial stays basic at 0
    phase1_pivots = tab.pivots

    # ---- phase 2: artificial columns are no longer priced ----
    tab.set_costs(objective_int)
    state = tab.run(art_start)
    pivots = (phase1_pivots, tab.pivots - phase1_pivots)

    def named(col_values: Mapping[int, Fraction]) -> dict[str, Fraction]:
        return {v: col_values.get(col_of[v], ZERO) for v in problem.variables}

    if state == "unbounded":
        j = tab.ray_col
        ray_cols: dict[int, Fraction] = {j: Fraction(tab.sign[j])}
        for i, var in enumerate(tab.basis):
            a = tab.entry(i, j)
            if a:
                ray_cols[var] = -Fraction(tab.sign[var] * a, tab.rd[i])
        point = named(tab.basic_values())
        ray = named(ray_cols)
        sol = LpSolution(status="unbounded", feasible_point=point, ray=ray, pivots=pivots)
        verify_ray(problem, point, ray)
        return sol

    # duals are read as the Farkas vector is, with the costs' obj_scale and
    # sense undone; a structural column's reduced cost is its own obj entry,
    # negated back if the column is stored negated.  verify_solution checks
    # both against c - A^T y of the original problem.  y below is internal
    # row i's dual times od * obj_scale, and internal row i is the original
    # row times row_scale[i], so b.y is one integer sum of y * rhs[i].
    od = tab.od
    values = named(tab.basic_values())
    duals: list[Fraction] = []
    by = 0
    for i, idc in enumerate(ident):
        num, den = row_scale[i]
        y = sense_sign * (objective_int[idc] * od - tab.reduced(idc))
        duals.append(Fraction(y * num, od * obj_scale * den) if y else ZERO)
        by += y * rhs[i]
    reduced = {v: Fraction(sense_sign * tab.sign[j] * rc, od * obj_scale) if rc else ZERO
               for (v, j), rc in zip(col_of.items(), map(tab.reduced, col_of.values()))}
    basic = [(objective_int[var] * tab.sign[var], i)
             for i, var in enumerate(tab.basis) if objective_int[var]]
    den = lcm(*[tab.rd[i] for _, i in basic])
    objective = sense_sign * Fraction(
        sum([c * tab.b[i] * (den // tab.rd[i]) for c, i in basic]), den * obj_scale)
    sol = LpSolution(
        status="optimal", objective=objective, values=values, duals=duals,
        reduced_costs=reduced, dual_objective=Fraction(by, od * obj_scale), pivots=pivots,
    )
    verify_solution(problem, sol)
    return sol


# ---------------------------------------------------------------------------
# Certificate verification (independent of solver internals)
# ---------------------------------------------------------------------------

def _check(ok: bool, msg: str, *args) -> None:
    """Raise `msg` formatted with `args` (formatted only on failure)."""
    if not ok:
        raise VerificationFailure(msg.format(*args))


def _common(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals over one common denominator: (numerators, denominator)."""
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def _equals(num: int, den: int, x: Fraction) -> bool:
    return num * x.denominator == x.numerator * den


def _combine(problem: LpProblem, multipliers: Sequence[Fraction],
             *dens: int) -> tuple[dict[str, int], int, int]:
    """y^T A per variable and y.b of the original rows, over one denominator
    D: a common multiple of `dens` and of each y_i's denominator times its
    row's, so y_i * row_i is (y_i * D / row_i.den) * integer row_i / D.
    Returns (D * y^T A, D * y.b, D)."""
    rows = problem.constraints
    den = lcm(*[y.denominator * row.den for y, row in zip(multipliers, rows) if y], *dens)
    combo = dict.fromkeys(problem.variables, 0)
    total = 0
    for y, row in zip(multipliers, rows):
        if y:
            z = y.numerator * (den // (y.denominator * row.den))
            for v, c in row.num.items():
                combo[v] += z * c
            total += z * row.rhs_num
    return combo, total, den


def verify_solution(problem: LpProblem, sol: LpSolution) -> None:
    """Exact primal feasibility, dual sign consistency, complementary
    slackness, one reduced cost per variable, equal to c - A^T y and of the
    right sign, and primal objective == b.y == dual objective, all computed
    from the original problem's stored rows and costs."""
    sense_sign = 1 if problem.sense == "max" else -1
    _check(len(sol.duals) == len(problem.constraints), "{} duals for {} rows",
           len(sol.duals), len(problem.constraints))
    names = problem.variables
    xs, dx = _common([sol.values.get(v, ZERO) for v in names])
    x = dict(zip(names, xs))
    missing = [v for v in names if v not in sol.reduced_costs]
    _check(not missing, "no reduced cost for variable {}", ", ".join(missing))
    extra = [str(v) for v in sol.reduced_costs if v not in x]
    _check(not extra, "reduced cost for unknown variable {}", ", ".join(extra))
    for v in names:
        if v not in problem.free:
            _check(x[v] >= 0, "variable {} negative", v)
    # a rational has its numerator's sign: dual signs are read off numerators
    for i, row in enumerate(problem.constraints):
        lhs = sum([c * x[v] for v, c in row.num.items()])
        rhs = row.rhs_num * dx
        y = sol.duals[i]
        label = row.name or f"#{i}"
        if row.rel == LE:
            _check(lhs <= rhs, "constraint {} violated", label)
            _check(sense_sign * y.numerator >= 0, "dual sign at {}", label)
        elif row.rel == GE:
            _check(lhs >= rhs, "constraint {} violated", label)
            _check(sense_sign * y.numerator <= 0, "dual sign at {}", label)
        else:
            _check(lhs == rhs, "constraint {} violated", label)
        _check(y == 0 or lhs == rhs, "complementary slackness at {}", label)
    # the duals, the reduced costs and c over one denominator
    costs, cd = problem.cost_num, problem.cost_den
    combo, by, den = _combine(problem, sol.duals,
                              *[r.denominator for r in sol.reduced_costs.values()], cd)
    for v in names:
        rc = sol.reduced_costs[v]
        _check(rc.numerator * (den // rc.denominator) + combo[v]
               == costs.get(v, 0) * (den // cd),
               "reduced cost at {} is not c - A^T y", v)
        if v in problem.free:
            _check(rc == 0, "nonzero reduced cost on free variable {}", v)
        else:
            _check(sense_sign * rc.numerator <= 0, "dual infeasibility at variable {}", v)
            _check(rc == 0 or x[v] == 0, "variable slackness at {}", v)
    cx = (den // cd) * sum([c * x[v] for v, c in costs.items()])
    _check(_equals(cx, den * dx, sol.objective), "objective value mismatch")
    _check(_equals(by, den, sol.dual_objective), "dual objective is not b.y")
    _check(_equals(by, den, sol.objective), "strong duality gap is nonzero")


def verify_farkas(problem: LpProblem, farkas: Sequence[Fraction]) -> None:
    """Multiply out an infeasibility certificate and check it."""
    _check(len(farkas) == len(problem.constraints), "{} farkas multipliers for {} rows",
           len(farkas), len(problem.constraints))
    for i, (y, row) in enumerate(zip(farkas, problem.constraints)):
        label = row.name or f"#{i}"
        if row.rel == LE:
            _check(y.numerator >= 0, "farkas sign at {}", label)
        elif row.rel == GE:
            _check(y.numerator <= 0, "farkas sign at {}", label)
    combo, total, _ = _combine(problem, farkas)
    for v in problem.variables:
        if v in problem.free:
            _check(combo[v] == 0, "farkas combination not zero on free {}", v)
        else:
            _check(combo[v] >= 0, "farkas combination negative on {}", v)
    _check(total < 0, "farkas certificate does not separate")


def verify_ray(problem: LpProblem, point: Mapping[str, Fraction],
               ray: Mapping[str, Fraction]) -> None:
    """Check feasible point + improving recession direction."""
    names = problem.variables
    ps, dp = _common([point.get(v, ZERO) for v in names])
    rs, _ = _common([ray.get(v, ZERO) for v in names])
    p, r = dict(zip(names, ps)), dict(zip(names, rs))
    for v in names:
        if v not in problem.free:
            _check(p[v] >= 0, "point negative at {}", v)
            _check(r[v] >= 0, "ray negative at {}", v)
    for i, row in enumerate(problem.constraints):
        lhs = sum([c * p[v] for v, c in row.num.items()])
        rhs = row.rhs_num * dp
        step = sum([c * r[v] for v, c in row.num.items()])
        label = row.name or f"#{i}"
        if row.rel == LE:
            _check(lhs <= rhs and step <= 0, "ray violates {}", label)
        elif row.rel == GE:
            _check(lhs >= rhs and step >= 0, "ray violates {}", label)
        else:
            _check(lhs == rhs and step == 0, "ray violates {}", label)
    gain = sum([c * r[v] for v, c in problem.cost_num.items()])
    if problem.sense == "max":
        _check(gain > 0, "ray does not improve the objective")
    else:
        _check(gain < 0, "ray does not improve the objective")
