"""Exact LP solver: hand-checked instances, certificates, and a brute-force
oracle."""

import copy
import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from semistatic.lp import (
    EQ,
    GE,
    LE,
    LpProblem,
    VerificationFailure,
    ZERO,
    _CUT,
    _TWIN,
    _Tableau,
    con,
    solve,
    verify_farkas,
    verify_ray,
    verify_solution,
)

import oracles
from oracles import _dot, eval_row

F = Fraction


def test_single_bound():
    sol = solve(LpProblem("max", {"x": 1}, [con({"x": 1}, LE, 1, "cap")], ["x"]))
    assert sol.status == "optimal"
    assert sol.objective == 1
    assert sol.values["x"] == 1
    assert sol.duals == [F(1)]
    assert sol.dual_objective == sol.objective


def test_degenerate_face():
    sol = solve(LpProblem(
        "max", {"x": 1, "y": 1},
        [con({"x": 1, "y": 1}, LE, 1), con({"x": 1}, LE, 1), con({"y": 1}, LE, 1)],
        ["x", "y"],
    ))
    assert sol.status == "optimal"
    assert sol.objective == 1


def test_b1_martingale_feasibility(b1):
    from oracles import martingale_system

    frag = martingale_system(b1)
    sol = solve(LpProblem("max", {}, frag.constraints, frag.variables))
    assert sol.status == "optimal"
    assert sol.values["w[u]"] == F(1, 2)
    assert sol.values["w[d]"] == F(1, 2)


def test_min_sense_duals():
    sol = solve(LpProblem(
        "min", {"x": 1, "y": 2},
        [con({"x": 1, "y": 1}, GE, 3, "mix"), con({"x": 1}, LE, 2, "capx")],
        ["x", "y"],
    ))
    assert sol.status == "optimal"
    assert sol.objective == 4  # x=2, y=1
    assert sol.dual_objective == 4


def test_equality_and_free_variables():
    sol = solve(LpProblem(
        "min", {"z": 1},
        [con({"z": 1, "x": -1}, EQ, 0), con({"x": 1}, GE, 5)],
        ["z", "x"], free=frozenset({"z", "x"}),
    ))
    assert sol.objective == 5


def test_infeasible_farkas_certificate():
    prob = LpProblem(
        "max", {},
        [con({"x": 1, "y": 1}, LE, 1), con({"x": 1, "y": 1}, GE, 2)],
        ["x", "y"],
    )
    sol = solve(prob)
    assert sol.status == "infeasible"
    verify_farkas(prob, sol.farkas)


def test_phase_one_that_does_not_end_optimal_raises(monkeypatch):
    monkeypatch.setattr(_Tableau, "run", lambda self, limit: "unbounded")
    prob = LpProblem("max", {"x": 1}, [con({"x": 1}, GE, 1), con({"x": 1}, LE, 2)], ["x"])
    with pytest.raises(VerificationFailure, match="phase 1 ended unbounded"):
        solve(prob)


def test_unbounded_ray_certificate():
    prob = LpProblem("max", {"x": 1, "y": -1}, [con({"y": 1}, GE, 0)], ["x", "y"])
    sol = solve(prob)
    assert sol.status == "unbounded"
    verify_ray(prob, sol.feasible_point, sol.ray)


def test_negative_rhs_normalization():
    sol = solve(LpProblem(
        "max", {"x": 1}, [con({"x": -1}, GE, -3, "mirror")], ["x"],
    ))
    assert sol.objective == 3
    assert sol.duals == [F(-1)]


def test_determinism():
    rng = random.Random(7)
    rows = [con({"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)}, LE, rng.randint(0, 5))
            for _ in range(6)]
    prob = LpProblem("max", {"x": 2, "y": 3}, rows, ["x", "y"])
    a, b = solve(prob), solve(prob)
    assert a.values == b.values and a.duals == b.duals


def test_beale_cycling_example_terminates():
    """Beale's classical degenerate LP cycles under largest-coefficient
    pricing with a naive ratio test; the lexicographic ratio test must break
    the tie so that the solve terminates."""
    prob = LpProblem(
        "max",
        {"x1": F(3, 4), "x2": F(-150), "x3": F(1, 50), "x4": F(-6)},
        [
            con({"x1": F(1, 4), "x2": F(-60), "x3": F(-1, 25), "x4": F(9)}, LE, 0),
            con({"x1": F(1, 2), "x2": F(-90), "x3": F(-1, 50), "x4": F(3)}, LE, 0),
            con({"x3": F(1)}, LE, 1),
        ],
        ["x1", "x2", "x3", "x4"],
    )
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == F(1, 20)


def _split_free(prob):
    """The same LP with every free variable x written by hand as x+ - x-,
    both nonnegative."""
    def split(coeffs):
        out = {}
        for v, c in coeffs.items():
            if v in prob.free:
                out[v + "+"], out[v + "-"] = c, -c
            else:
                out[v] = c
        return out

    names = [w for v in prob.variables
             for w in ((v + "+", v + "-") if v in prob.free else (v,))]
    rows = [con(split(r.coeffs), r.rel, r.rhs, r.name) for r in prob.constraints]
    return LpProblem(prob.sense, split(prob.objective), rows, names)


def _random_mixed_lp(seed):
    """A small LP with all three relations, free variables and rational (not
    only integer) coefficients, rhs and objective."""
    rng = random.Random(5000 + seed)

    def draw(lo, hi):
        return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 5)))

    nvars = rng.randint(2, 5)
    names = [f"x{i}" for i in range(nvars)]
    free = frozenset(n for n in names if rng.random() < 0.4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {n: draw(-8, 8) for n in names if rng.random() < 0.8}
        if not coeffs:
            continue
        rows.append(con(coeffs, rng.choice([LE, GE, EQ]), draw(-10, 12)))
    objective = {n: draw(-8, 8) for n in names}
    return LpProblem("max" if rng.random() < 0.5 else "min",
                     objective, rows, names, free=free)


@pytest.mark.parametrize("seed", range(120))
def test_random_mixed_shapes_self_certify(seed):
    """Random LPs with all three relations and free variables: solve() only
    returns after its certificate passes the independent exact re-check, so
    touching every status on varied shapes is already a strong test.  The
    same LP with its free variables split by hand into nonnegative pairs must
    give the same status and objective."""
    prob = _random_mixed_lp(seed)
    sol = solve(prob)
    assert sol.status in ("optimal", "infeasible", "unbounded")
    if sol.status == "infeasible":
        verify_farkas(prob, sol.farkas)
    split = solve(_split_free(prob))
    assert split.status == sol.status
    assert split.objective == sol.objective


def _with_row(prob, k, row):
    rows = list(prob.constraints)
    rows[k] = row
    return LpProblem(prob.sense, prob.objective, rows, prob.variables, free=prob.free)


def _assert_same_but_row(base, other, k, factor):
    """Every field equal, except that row k's dual or Farkas entry is `factor`
    times the base one."""
    multipliers = "farkas" if base.status == "infeasible" else "duals"
    for name in ("status", "objective", "values", "reduced_costs", "dual_objective",
                 "farkas", "duals", "ray", "feasible_point"):
        if name != multipliers:
            assert getattr(other, name) == getattr(base, name), name
    want = list(getattr(base, multipliers))
    if base.status != "unbounded":  # an unbounded solve has no multipliers
        want[k] *= factor
    assert getattr(other, multipliers) == want


@pytest.mark.parametrize("seed", range(60))
def test_row_scale_and_flip_change_only_that_rows_multiplier(seed):
    """A row is integerized to the same primitive integer row whatever
    positive multiple of it is given, and a row with a negative rhs is
    negated with its relation flipped.  So scaling row k by a rational
    lambda > 0 changes nothing but row k's dual (or Farkas entry), divided by
    lambda; negating row k and its nonzero rhs with LE and GE swapped changes
    nothing but that entry's sign."""
    prob = _random_mixed_lp(seed)
    rng = random.Random(seed)
    base = solve(prob)
    k = rng.randrange(len(prob.constraints))
    row = prob.constraints[k]
    lam = rng.choice((F(3, 2), F(2, 7), F(35, 4), F(9, 10), F(1000003, 999983)))
    scaled = con({v: lam * c for v, c in row.coeffs.items()}, row.rel, lam * row.rhs)
    _assert_same_but_row(base, solve(_with_row(prob, k, scaled)), k, 1 / lam)
    if row.rhs != 0:
        negated = con({v: -c for v, c in row.coeffs.items()},
                      {LE: GE, GE: LE, EQ: EQ}[row.rel], -row.rhs)
        _assert_same_but_row(base, solve(_with_row(prob, k, negated)), k, -1)


def test_verify_rejects_corrupted_solution():
    prob = LpProblem("max", {"x": 1}, [con({"x": 1}, LE, 1)], ["x"])
    sol = solve(prob)
    sol.values["x"] = F(2)
    with pytest.raises(VerificationFailure):
        verify_solution(prob, sol)


def _rejects(prob, sol, field, key, value):
    """verify_solution must raise once sol.<field>[key] is set to value."""
    bad = copy.deepcopy(sol)
    getattr(bad, field)[key] = value
    with pytest.raises(VerificationFailure):
        verify_solution(prob, bad)


def test_verify_rejects_corrupted_duals_and_reduced_costs():
    """x + 2y + z <= 4 and 3x + y <= 6 are tight at the optimum (duals 2/5
    and 1/5), x <= 5 is slack, and z has reduced cost -7/5.  Nudging a tight
    row's dual keeps every sign and complementary slackness: only the checks
    that recompute c - A^T y and b.y from the duals show it."""
    prob = LpProblem(
        "max", {"x": 1, "y": 1, "z": -1},
        [con({"x": 1, "y": 2, "z": 1}, LE, 4), con({"x": 3, "y": 1}, LE, 6),
         con({"x": 1}, LE, 5)],
        ["x", "y", "z"],
    )
    sol = solve(prob)
    assert sol.duals == [F(2, 5), F(1, 5), 0] and sol.reduced_costs["z"] == F(-7, 5)
    for i in (0, 1):
        _rejects(prob, sol, "duals", i, sol.duals[i] + F(1, 7))
    _rejects(prob, sol, "reduced_costs", "z", F(7, 5))
    # the zero entries are the shared ZERO, and tampering with any is caught:
    # the slack row's dual, the basic x and y's reduced costs, z's value
    assert sol.duals[2] is ZERO and sol.values["z"] is ZERO
    assert sol.reduced_costs["x"] is ZERO and sol.reduced_costs["y"] is ZERO
    for y in (F(1, 7), F(-1, 7)):
        _rejects(prob, sol, "duals", 2, y)
        for v in ("x", "y"):
            _rejects(prob, sol, "reduced_costs", v, y)
    _rejects(prob, sol, "values", "z", F(1))
    bad = copy.deepcopy(sol)
    bad.dual_objective += F(1, 7)
    with pytest.raises(VerificationFailure):
        verify_solution(prob, bad)


@pytest.mark.parametrize("verify", [verify_solution, oracles.verify_solution],
                         ids=["integer", "oracle"])
def test_verify_names_a_missing_or_extra_reduced_cost(verify):
    """Reduced costs keyed by other than the problem's variables are a typed
    verification failure that names the variable, not a KeyError."""
    prob = LpProblem("max", {"x": 1, "y": 2},
                     [con({"x": 1, "y": 1}, LE, 3), con({"y": 1}, LE, 1)], ["x", "y"])
    sol = solve(prob)
    missing = copy.deepcopy(sol)
    del missing.reduced_costs["y"]
    with pytest.raises(VerificationFailure, match="no reduced cost for variable y"):
        verify(prob, missing)
    extra = copy.deepcopy(sol)
    extra.reduced_costs["z"] = ZERO
    with pytest.raises(VerificationFailure, match="reduced cost for unknown variable z"):
        verify(prob, extra)


def test_verify_rejects_each_dual_mutation_on_random_lps():
    """On random optimal LPs: a dual nudged by 1/7 on any row with a nonzero
    coefficient, any nonzero reduced cost with its sign flipped, any zero
    reduced cost set to 1/7, and a nonzero dual of either sign at any slack
    row are all caught."""
    checked = 0
    for seed in range(200):
        prob = _random_mixed_lp(seed)
        sol = solve(prob)
        if sol.status != "optimal":
            continue
        checked += 1
        for i, row in enumerate(prob.constraints):
            if any(row.coeffs.values()):
                _rejects(prob, sol, "duals", i, sol.duals[i] + F(1, 7))
            if eval_row(row.coeffs, sol.values) != row.rhs:
                for y in (F(1, 7), F(-1, 7)):
                    _rejects(prob, sol, "duals", i, y)
        for v, rc in sol.reduced_costs.items():
            _rejects(prob, sol, "reduced_costs", v, -rc if rc else F(1, 7))
    assert checked >= 20


def test_verify_farkas_rejects_scaled_and_wrong_sign_entries():
    prob = LpProblem(
        "max", {}, [con({"x": 1, "y": 1}, LE, 1), con({"x": 1, "y": 1}, GE, 2)], ["x", "y"],
    )
    farkas = solve(prob).farkas
    assert farkas == [1, -1]
    for i in (0, 1):
        for factor in (2, -1):
            bad = list(farkas)
            bad[i] *= factor
            with pytest.raises(VerificationFailure):
                verify_farkas(prob, bad)


def test_verifiers_label_an_unnamed_row_by_its_index():
    """A failure on a row without a name names it #i in all three verifiers."""
    prob = LpProblem(
        "max", {}, [con({"x": 1, "y": 1}, LE, 1), con({"x": 1, "y": 1}, GE, 2)], ["x", "y"],
    )
    with pytest.raises(VerificationFailure, match="^farkas sign at #1$"):
        verify_farkas(prob, [F(1), F(1)])
    prob = LpProblem("max", {"x": 1}, [con({"x": 1}, GE, 0), con({"x": 1}, LE, 1)], ["x"])
    bad = solve(prob)
    bad.values["x"] = F(2)
    with pytest.raises(VerificationFailure, match="^constraint #1 violated$"):
        verify_solution(prob, bad)
    prob = LpProblem("max", {"x": 1}, [con({"x": 1}, GE, 0), con({"y": 1}, LE, 1)],
                     ["x", "y"])
    sol = solve(prob)
    assert sol.status == "unbounded"
    with pytest.raises(VerificationFailure, match="^ray violates #1$"):
        verify_ray(prob, sol.feasible_point, {**sol.ray, "y": F(1)})


def test_certificates_of_the_wrong_length_are_rejected():
    """A duals list or a Farkas vector with one entry per row too few (or too
    many) raises VerificationFailure, not IndexError, and is not accepted
    by zipping it with the rows."""
    prob = LpProblem(
        "max", {"x": 1, "y": 1},
        [con({"x": 1, "y": 2}, LE, 4), con({"x": 3, "y": 1}, LE, 6), con({"x": 1}, LE, 5)],
        ["x", "y"],
    )
    sol = solve(prob)
    for duals in (sol.duals[:2], sol.duals + [ZERO]):
        bad = copy.deepcopy(sol)
        bad.duals = duals
        with pytest.raises(VerificationFailure, match=f"^{len(duals)} duals for 3 rows$"):
            verify_solution(prob, bad)
    prob = LpProblem(
        "max", {},
        [con({"x": 1, "y": 1}, LE, 1), con({"x": 1, "y": 1}, GE, 2), con({"x": 1}, LE, 9)],
        ["x", "y"],
    )
    farkas = solve(prob).farkas
    assert farkas == [1, -1, 0]
    for bad in (farkas[:2], farkas + [ZERO]):
        with pytest.raises(VerificationFailure,
                           match=f"^{len(bad)} farkas multipliers for 3 rows$"):
            verify_farkas(prob, bad)


def _raised(verify, *args):
    """The message `verify(*args)` raises, or None when it passes."""
    try:
        verify(*args)
    except VerificationFailure as exc:
        return str(exc)
    return None


def _mutations(prob, sol):
    """(verifier name, arguments) of the solve's own certificate and of its
    mutations: each dual +-1/7, each nonzero reduced cost negated and each
    zero one set to 1/7, each value +1/7 and set to -1/7, both objectives
    +1/7; each Farkas entry times 2 and times -1; each point and ray entry
    +1/7."""
    if sol.status == "optimal":
        yield "verify_solution", (prob, sol)
        for field, key, new in (
            [("duals", i, y + d) for i, y in enumerate(sol.duals) for d in (F(1, 7), F(-1, 7))]
            + [("reduced_costs", v, -rc if rc else F(1, 7))
               for v, rc in sol.reduced_costs.items()]
            + [("values", v, x) for v, y in sol.values.items() for x in (y + F(1, 7), F(-1, 7))]
        ):
            bad = copy.deepcopy(sol)
            getattr(bad, field)[key] = new
            yield "verify_solution", (prob, bad)
        for field in ("objective", "dual_objective"):
            bad = copy.deepcopy(sol)
            setattr(bad, field, getattr(sol, field) + F(1, 7))
            yield "verify_solution", (prob, bad)
    elif sol.status == "infeasible":
        yield "verify_farkas", (prob, sol.farkas)
        for i in range(len(sol.farkas)):
            for factor in (2, -1):
                bad = list(sol.farkas)
                bad[i] *= factor
                yield "verify_farkas", (prob, bad)
    else:
        yield "verify_ray", (prob, sol.feasible_point, sol.ray)
        for v in prob.variables:
            for point, ray in (({**sol.feasible_point, v: sol.feasible_point[v] + F(1, 7)},
                                sol.ray),
                               (sol.feasible_point, {**sol.ray, v: sol.ray[v] + F(1, 7)})):
                yield "verify_ray", (prob, point, ray)


def test_integer_rechecks_agree_with_the_fraction_oracle():
    """The integer re-checks raise exactly when the Fraction re-checks of
    `tests/oracles.py` raise, with the same message, on the certificates of
    random LPs of every status and on their mutations."""
    verifiers = {"verify_solution": verify_solution, "verify_farkas": verify_farkas,
                 "verify_ray": verify_ray}
    outcomes = {}
    for seed in range(200):
        prob = _random_mixed_lp(seed)
        sol = solve(prob)
        for name, args in _mutations(prob, sol):
            want = _raised(getattr(oracles, name), *args)
            assert _raised(verifiers[name], *args) == want, (seed, name)
            key = (name, want is None)
            outcomes[key] = outcomes.get(key, 0) + 1
    # every verifier both passes and rejects some certificates
    assert len(outcomes) == 6 and min(outcomes.values()) >= 10, outcomes


_RATIONALS = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.builds(F, st.integers(-10**12, 10**12),
              st.sampled_from((1, 2, 3, 6, 7, 10**9 + 7, 2**61 - 1, 3**40, 5**30))),
)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.dictionaries(st.sampled_from("abcdef"), _RATIONALS, max_size=6),
       values=st.dictionaries(st.sampled_from("abcdefgh"), _RATIONALS, max_size=8))
def test_common_denominator_sum_equals_fraction_sum(coeffs, values):
    """The re-checks' one-denominator sum is the same Fraction as summing
    one Fraction per term, on rows with zeros, values missing from the point,
    plain ints, negative entries, large coprime denominators and no terms."""
    expected = sum((c * values.get(v, 0) for v, c in coeffs.items()), F(0))
    for got in (eval_row(coeffs, values),
                _dot((c, values.get(v, 0)) for v, c in coeffs.items())):
        assert type(got) is F
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate candidate active sets and compare
# ---------------------------------------------------------------------------

def _gauss_solve(rows, rhs):
    """Exact solve of a square system; None if singular."""
    n = len(rows)
    A = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = F(1) / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def brute_force_max(objective, rows, nvars):
    """Max of objective over {x >= 0, rows '<=' rhs} by checking every basic
    solution (intersections of n constraint/axis hyperplanes)."""
    planes = [(r, b) for r, b in rows] + [
        (tuple(1 if j == i else 0 for j in range(nvars)), F(0)) for i in range(nvars)
    ]
    best = None
    for combo in combinations(range(len(planes)), nvars):
        mat = [planes[i][0] for i in combo]
        rhs = [planes[i][1] for i in combo]
        x = _gauss_solve([list(map(F, m)) for m in mat], rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(c * v for c, v in zip(r, x)) > b for r, b in rows):
            continue
        val = sum(c * v for c, v in zip(objective, x))
        if best is None or val > best:
            best = val
    return best


@pytest.mark.parametrize("seed", range(25))
def test_against_brute_force(seed):
    rng = random.Random(1000 + seed)
    nvars = rng.randint(2, 4)
    nrows = rng.randint(2, 5)
    rows = []
    for _ in range(nrows):
        coeffs = tuple(F(rng.randint(-3, 4)) for _ in range(nvars))
        rows.append((coeffs, F(rng.randint(0, 6))))
    # a box keeps the brute-force enumeration finite and the LP bounded
    for i in range(nvars):
        rows.append((tuple(F(1) if j == i else F(0) for j in range(nvars)), F(5)))
    objective = tuple(F(rng.randint(-3, 4)) for _ in range(nvars))

    names = [f"x{i}" for i in range(nvars)]
    prob = LpProblem(
        "max", {n: c for n, c in zip(names, objective)},
        [con({n: c for n, c in zip(names, coeffs)}, LE, b) for coeffs, b in rows],
        names,
    )
    sol = solve(prob)
    expected = brute_force_max(objective, rows, nvars)
    assert sol.status == "optimal"
    assert sol.objective == expected


# ---------------------------------------------------------------------------
# Tableau branches: drive-out pivots, redundant rows, rows left untouched
# ---------------------------------------------------------------------------

def _spy(monkeypatch):
    """Record the tableau's steps of the next solve: ("pivot", entering
    column, pivot-row entry, pivots in a row that left the pivot row
    untouched, the pivot row's denominator before the pivot),
    ("take", column, twin) when a pair member takes its stored twin's slot
    over, and ("costs", basis, b) at each set_costs."""
    steps, idle = [], []
    pivot, set_costs, store = _Tableau.pivot, _Tableau.set_costs, _Tableau._store

    def spy_pivot(tab, i, j):
        steps.append(("pivot", j, tab.entry(i, j), idle[i], tab.rd[i]))
        idle[:] = [0 if k == i or tab.entry(k, j) else n + 1 for k, n in enumerate(idle)]
        pivot(tab, i, j)

    def spy_costs(tab, costs):
        idle[:] = [0] * len(tab.rows)
        set_costs(tab, costs)
        steps.append(("costs", list(tab.basis), list(tab.b)))

    def spy_store(tab, j):
        if tab.slot_of[j] == _TWIN:
            steps.append(("take", j, tab.twin[j]))
        return store(tab, j)

    monkeypatch.setattr(_Tableau, "pivot", spy_pivot)
    monkeypatch.setattr(_Tableau, "set_costs", spy_costs)
    monkeypatch.setattr(_Tableau, "_store", spy_store)
    return steps


def _oracle_max(prob):
    """brute_force_max of a max problem with nonnegative variables; an
    equality row is given as two opposite <= rows."""
    names = prob.variables
    rows = []
    for row in prob.constraints:
        coeffs = tuple(row.coeffs.get(v, F(0)) for v in names)
        if row.rel in (LE, EQ):
            rows.append((coeffs, row.rhs))
        if row.rel in (GE, EQ):
            rows.append((tuple(-c for c in coeffs), -row.rhs))
    return brute_force_max(tuple(prob.objective.get(v, F(0)) for v in names), rows, len(names))


def test_negative_drive_out_pivot(monkeypatch):
    """-x - y = 0 leaves its artificial basic at 0 after phase 1, and the
    drive-out pivots on x's entry -1: the pivot row is negated first.  No
    pivot came before, so the row is still the input row, over 1."""
    prob = LpProblem("max", {"x": 1}, [con({"x": -1, "y": -1}, EQ, 0)], ["x", "y"])
    steps = _spy(monkeypatch)
    sol = solve(prob)
    assert ("pivot", 0, -1, 0, 1) in steps
    assert sol.status == "optimal" and sol.pivots == (1, 0)
    assert sol.values == {"x": 0, "y": 0} and sol.objective == 0 == _oracle_max(prob)
    verify_solution(prob, sol)


def test_redundant_equality_keeps_its_artificial_basic_at_zero(monkeypatch):
    """2x + 2y = 2 repeats x + y = 1: after phase 1 one row is zero on every
    non-artificial column, so no drive-out pivot exists and that row's
    artificial (column 2 or 3) is still basic, at 0, in phase 2."""
    prob = LpProblem("max", {"x": 1, "y": F(1, 2)},
                     [con({"x": 1, "y": 1}, EQ, 1), con({"x": 2, "y": 2}, EQ, 2)], ["x", "y"])
    steps = _spy(monkeypatch)
    sol = solve(prob)
    _, basis, b = [s for s in steps if s[0] == "costs"][-1]
    assert [(var, bi) for var, bi in zip(basis, b) if var >= 2] == [(2, 0)]
    assert sol.status == "optimal" and sol.pivots == (1, 0)
    assert sol.values == {"x": 1, "y": 0} and sol.objective == 1 == _oracle_max(prob)
    verify_solution(prob, sol)


def test_row_left_untouched_by_several_pivots_becomes_the_pivot_row(monkeypatch):
    """x3's bound row has no entry in the columns of the first two pivots
    (elements 2 and 3), so it is never rewritten and is still the input row,
    over 1, when x3 enters and it is the pivot row.  The same holds for the
    first two pivot rows.  Only the last row is rewritten: over 1 * 2 by the
    first pivot (its x1 entry 1, gcd(2, 1) = 1) and over 2 * 3 by the second
    (its x2 entry 2, gcd(3, 2) = 1)."""
    prob = LpProblem(
        "max", {"x1": 4, "x2": 3, "x3": 2},
        [con({"x1": 2}, LE, 3), con({"x2": 3}, LE, 4), con({"x3": 5}, LE, 7),
         con({"x1": 1, "x2": 1, "x3": 1, "x4": 1}, LE, 10)],
        ["x1", "x2", "x3", "x4"],
    )
    steps = _spy(monkeypatch)
    sol = solve(prob)
    assert [s for s in steps if s[0] == "pivot"] == [
        ("pivot", 0, 2, 0, 1), ("pivot", 1, 3, 1, 1), ("pivot", 2, 5, 2, 1)]
    assert sol.status == "optimal" and sol.pivots == (0, 3)
    assert sol.objective == F(64, 5) == _oracle_max(prob)
    verify_solution(prob, sol)


def test_pricing_tie_goes_to_the_lowest_column_after_slots_move(monkeypatch):
    """After x0 and x1 enter, x2 (column 2) and the first row's slack
    (column 3, now stored where x0 was) tie on reduced cost.  The tie goes to
    x2, the lower column, whatever slot holds it; the slack would end at
    x2 = 0."""
    prob = LpProblem(
        "max", {"x0": 1, "x1": 1},
        [con({"x0": 1, "x1": -2, "x2": 1}, LE, 0), con({"x0": 3, "x1": 2}, LE, 2)],
        ["x0", "x1", "x2"],
    )
    steps = _spy(monkeypatch)
    sol = solve(prob)
    assert [s[1] for s in steps if s[0] == "pivot"] == [0, 1, 2]
    assert sol.values == {"x0": 0, "x1": 1, "x2": 2} and sol.pivots == (0, 3)
    assert sol.objective == 1 == _oracle_max(prob)
    verify_solution(prob, sol)



# ---------------------------------------------------------------------------
# Twin columns: a >= row's surplus and artificial share one slot
# ---------------------------------------------------------------------------

def _implicit(monkeypatch):
    """Record (column, twin is stored) for every reduced cost read while the
    column itself is not stored but derived from its twin."""
    seen = []
    reduced = _Tableau.reduced

    def spy_reduced(tab, j):
        if tab.slot_of[j] == _TWIN:
            seen.append((j, tab.slot_of[tab.twin[j]] >= 0))
        return reduced(tab, j)

    monkeypatch.setattr(_Tableau, "reduced", spy_reduced)
    return seen


def test_surplus_replaces_its_own_artificial_in_the_drive_out(monkeypatch):
    """max -x - 2y on y >= 2, -y >= -2 (flipped to y <= 2).  y enters and the
    ratio tie goes to the slack's row, leaving row 0's artificial (column 4)
    basic at 0 with row 0 zero on x and y.  Its surplus (column 2) is not
    stored: its column is minus the artificial's unit column, entry -1 on
    row 0, so the drive-out negates row 0, and that counts as a phase-1
    pivot.  In phase 2 the slack (column 3)
    enters on row 0, so the surplus is stored and the artificial is implicit
    when row 0's dual is read: y = (-2, 0) with c - A^T y = (-1, 0), and
    b.y = -4 = the objective at (0, 2).  Every pivot row is over 1: row 1 is
    the input row, row 0 is rewritten by y's pivot on element 1 with its own
    entry 1 (p = 1 / gcd(1, 1) = 1), and a drive-out keeps the row's scale."""
    prob = LpProblem("max", {"x": -1, "y": -2},
                     [con({"y": 1}, GE, 2), con({"y": -1}, GE, -2)], ["x", "y"])
    steps = _spy(monkeypatch)
    implicit = _implicit(monkeypatch)
    sol = solve(prob)
    assert [s for s in steps if s[0] != "costs"] == [
        ("pivot", 1, 1, 0, 1), ("pivot", 2, -1, 0, 1), ("pivot", 3, 1, 0, 1)]
    assert (4, True) in implicit
    assert sol.pivots == (2, 1)
    assert sol.values == {"x": 0, "y": 2} and sol.objective == -4 == sol.dual_objective
    assert sol.duals == [-2, 0] and sol.reduced_costs == {"x": -1, "y": 0}
    verify_solution(prob, sol)


def test_surplus_takes_its_artificials_slot_in_phase_1(monkeypatch):
    """x + y = 2, x >= 0, -2x - y = -1 is infeasible (x = -1).  x enters on
    the rhs-0 row, whose artificial (column 4) takes x's slot; then its
    surplus (column 2) has phase-1 reduced cost -1 - rc(artificial) = 3 and
    enters from that slot.  When y later replaces the surplus, the surplus is
    stored and the artificial implicit, and the Farkas entry of x >= 0 is
    read from it: y = (-1, -1, -1) gives 0 on x and y, and -2 + 1 < 0.  The
    first two pivot rows are over 1: x's element 1 leaves rows 0 and 2 over
    1 * 1, and the surplus enters on row 2, over 1.  That pivot on element 2
    leaves row 2 over its own element 2, where y's entry is 1 (the true
    entry 1/2), so the last pivot is on 1 over 2."""
    prob = LpProblem("max", {}, [con({"x": 1, "y": 1}, EQ, 2), con({"x": 1}, GE, 0),
                                 con({"x": -2, "y": -1}, EQ, -1)], ["x", "y"])
    steps = _spy(monkeypatch)
    implicit = _implicit(monkeypatch)
    sol = solve(prob)
    assert [s for s in steps if s[0] != "costs"] == [
        ("pivot", 0, 1, 0, 1), ("take", 2, 4), ("pivot", 2, 2, 0, 1),
        ("pivot", 1, 1, 0, 2)]
    assert (4, True) in implicit
    assert sol.status == "infeasible" and sol.pivots == (3, 0)
    assert sol.farkas == [-1, -1, -1]
    verify_farkas(prob, sol.farkas)


def test_surplus_takes_its_artificials_slot_in_phase_2(monkeypatch):
    """max x on x >= 1, x <= 5: phase 1 puts x in, and the artificial of
    x >= 1 takes x's slot.  In phase 2 its reduced cost is -1, so the
    surplus's is +1: the surplus takes the slot over and enters on the
    bound row.  x = 5 with duals (0, 1).  Both pivots are on 1 over 1: x's
    pivot row is an input row, and its element 1 leaves the bound row over
    1 * 1."""
    prob = LpProblem("max", {"x": 1}, [con({"x": 1}, GE, 1), con({"x": 1}, LE, 5)], ["x"])
    steps = _spy(monkeypatch)
    sol = solve(prob)
    assert [s for s in steps if s[0] != "costs"] == [
        ("pivot", 0, 1, 0, 1), ("take", 1, 3), ("pivot", 1, 1, 0, 1)]
    assert sol.pivots == (1, 1)
    assert sol.values == {"x": 5} and sol.objective == 5 == _oracle_max(prob)
    assert sol.duals == [0, 1]
    verify_solution(prob, sol)


def test_unbounded_ray_enters_on_a_surplus(monkeypatch):
    """max x - y on x - y >= 1: after phase 1, x = 1 + y + surplus, so y's
    reduced cost is 0 and the surplus's is 1.  The surplus enters from its
    artificial's slot, no row bounds it, and the ray is its column read back
    on x: point (1, 0), ray (1, 0).  The one pivot is on the input row, over
    1."""
    prob = LpProblem("max", {"x": 1, "y": -1}, [con({"x": 1, "y": -1}, GE, 1)], ["x", "y"])
    steps = _spy(monkeypatch)
    sol = solve(prob)
    assert [s for s in steps if s[0] != "costs"] == [("pivot", 0, 1, 0, 1), ("take", 2, 3)]
    assert sol.status == "unbounded" and sol.pivots == (1, 0)
    assert sol.feasible_point == {"x": 1, "y": 0} and sol.ray == {"x": 1, "y": 0}
    verify_ray(prob, sol.feasible_point, sol.ray)


# ---------------------------------------------------------------------------
# The pivot path, pinned
# ---------------------------------------------------------------------------

def _pin_lp(seed):
    """A small LP for the pinned corpus: all three relations, negative rhs,
    `>=` rows with rhs 0 (degenerate phase 1), now and then a repeated row
    (a redundant artificial), and free columns."""
    rng = random.Random(9000 + seed)

    def draw(lo, hi):
        return F(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))

    names = [f"x{i}" for i in range(rng.randint(2, 6))]
    free = frozenset(n for n in names if rng.random() < 0.25)
    rows = []
    for _ in range(rng.randint(1, 7)):
        coeffs = {n: draw(-5, 5) for n in names if rng.random() < 0.7}
        if not coeffs:
            continue
        rel = rng.choice([LE, GE, GE, EQ])
        rhs = F(0) if rel == GE and rng.random() < 0.4 else draw(-9, 9)
        rows.append(con(coeffs, rel, rhs))
        if rng.random() < 0.1:
            rows.append(con({v: 2 * c for v, c in coeffs.items()}, rel, 2 * rhs))
    if rng.random() < 0.7:  # a box keeps most of the corpus bounded
        rows += [con({n: 1}, GE if n in free else LE, -8 if n in free else 8)
                 for n in names]
        rows += [con({n: 1}, LE, 8) for n in sorted(free)]
    objective = {n: draw(-6, 6) for n in names if rng.random() < 0.8}
    return LpProblem(rng.choice(("max", "min")), objective, rows, names, free=free)


# sha256 over every LpSolution field of the 400 corpus LPs, recorded when the
# pivot path was last changed on purpose; a change that moves a single pivot
# or any returned value must re-record it and say why
PINNED_PATH_SHA256 = "020b22086ed3aea5bdbb8501bbbf2762ab21db1631b32e2aaaa977bcb6f64ea3"


def test_pivot_path_is_pinned():
    """Every field of every solution, `pivots` included, is what it was when
    the constant was recorded: storage changes to the tableau must not move
    the pivot path."""
    from dataclasses import fields

    digest = hashlib.sha256()
    statuses = set()
    for seed in range(400):
        sol = solve(_pin_lp(seed))
        statuses.add(sol.status)
        digest.update(repr([(f.name, getattr(sol, f.name)) for f in fields(sol)]).encode())
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert digest.hexdigest() == PINNED_PATH_SHA256



# ---------------------------------------------------------------------------
# Every pivot against a dense Fraction tableau; row integers stay small
# ---------------------------------------------------------------------------

def _replay(monkeypatch, problems):
    """Solve `problems` with the tableau checked against
    `oracles.GaussJordan` after every set_costs and every pivot: each row's
    stored integers over its own denominator, rows[k] / rd[k] and
    b[k] / rd[k], and the reduced costs obj / od are the dense tableau's true
    entries, with a column stored negated (`sign`) read back; a row or
    objective whose denominator is past _CUT is in lowest terms.  Returns
    the checks made, the rows and objectives seen past _CUT, the bit length
    of the largest integer a row stored (entries, rhs, denominator), and the
    row and objective rewrites p * row - q * prow made in place (p == 1) and
    scaled (p > 1)."""
    pivot, set_costs = _Tableau.pivot, _Tableau.set_costs
    state = {}
    seen = {"checks": 0, "past_cut": 0, "bits": 0, "in_place": 0, "scaled": 0}

    def check(tab):
        ref, costs = state["ref"], state["costs"]
        assert tab.basis == ref.basis
        for k, var in enumerate(tab.basis):
            r, sk = tab.rd[k], tab.sign[var]
            assert r > 0 and F(tab.b[k], r) == sk * ref.b[k]
            for j, x in enumerate(ref.T[k]):
                assert F(tab.entry(k, j), r) == sk * tab.sign[j] * x
            if r >= _CUT:
                seen["past_cut"] += 1
                assert gcd(r, tab.b[k], *tab.rows[k]) == 1
            seen["bits"] = max(seen["bits"], r.bit_length(), abs(tab.b[k]).bit_length(),
                               *[abs(v).bit_length() for v in tab.rows[k]])
        rc = ref.reduced(costs)
        assert tab.od > 0
        assert [F(tab.reduced(j), tab.od) for j in range(len(rc))] == [
            s * x for s, x in zip(tab.sign, rc)]
        if tab.od >= _CUT:
            seen["past_cut"] += 1
            assert gcd(tab.od, *tab.obj) == 1
        seen["checks"] += 1

    def spy_costs(tab, costs):
        set_costs(tab, costs)
        state["costs"] = list(costs)
        check(tab)

    def spy_pivot(tab, i, j):
        if not (tab.slot_of[j] == _TWIN and tab.twin[j] == tab.basis[i]):  # not a drive-out
            piv = abs(tab.entry(i, j))
            column = [tab.entry(k, j) for k in range(len(tab.rows)) if k != i]
            for f in column + [tab.reduced(j)]:
                if f:
                    seen["in_place" if piv == gcd(piv, f) else "scaled"] += 1
        pivot(tab, i, j)
        state["ref"].pivot(i, j)
        check(tab)

    monkeypatch.setattr(_Tableau, "pivot", spy_pivot)
    monkeypatch.setattr(_Tableau, "set_costs", spy_costs)
    for prob in problems:
        state["ref"] = oracles.GaussJordan(prob)
        solve(prob)
    return seen


def test_every_pivot_matches_a_dense_fraction_tableau(monkeypatch):
    """The pinned corpus, replayed step by step against the dense tableau."""
    seen = _replay(monkeypatch, [_pin_lp(seed) for seed in range(400)])
    assert seen["checks"] > 1000
    assert seen["in_place"] > 0 and seen["scaled"] > 0, seen


def test_slack_lp_with_a_stop_cut_matches_a_dense_fraction_tableau(monkeypatch):
    """The strict-no-arbitrage slack LP of a depth-3 random market with an
    American option, as `check_sna` solves it on the benchmark's `verdicts`
    workload: its second solve holds the stop-cut row that the first
    solve's witness violated.  Replayed step by step against the dense
    tableau.  The market is moved to a fresh copy of its stock, on which no
    slack LP has been solved, so both rounds are solved here: the
    generator's slack LP of the bare market is this one's round 0, kept on
    the stock."""
    from conftest import random_market
    from semistatic import measures
    from semistatic.tree import AdaptedProcess

    market = random_market(random.Random(81))
    S = market.S
    market = replace(market, S=AdaptedProcess(S.tree, {n: S.at(n) for n in S.tree.nodes}))
    problems = []

    def keep(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(measures, "solve", keep)
    measures.max_slack(measures.PricingSetSpec.strict_emm(market))
    prob = problems[-1]
    assert market.tree.horizon == 3 and len(problems) == 2
    assert [row.name for row in prob.constraints if row.name.endswith("cut")] == ["h[0]cut"]
    assert (len(prob.constraints), len(prob.variables)) == (18, 10)
    seen = _replay(monkeypatch, [prob])
    assert seen["checks"] > 20
    assert seen["in_place"] > 0 and seen["scaled"] > 0, seen


def test_hedge_lp_rows_stay_small(monkeypatch):
    """A 14-row x 13-column sub-hedge LP of a depth-3 random market (14
    leaves, one quoted European option), like
    the 16 x 12 hedge LPs of the benchmark's `hedging` workload.  Its largest
    stored row integer has 55 bits; when every pivot row was brought to the
    basis determinant (Bareiss 1968) and every rewritten row carried it, it
    had 244.  Rows pass _CUT, and each is checked in lowest terms there."""
    from conftest import random_claim, random_market
    from semistatic import hedging

    rng = random.Random(207)
    market = random_market(rng)
    claim = random_claim(rng, market.tree)
    problems = []

    def keep(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(hedging, "solve", keep)
    sol, _, _ = hedging.hedge_primal(market, claim, "sub_eu")
    [prob] = problems
    assert sol.status == "optimal"
    assert (len(prob.constraints), len(prob.variables)) == (14, 13)
    seen = _replay(monkeypatch, [prob])
    assert seen["past_cut"] > 0
    assert seen["bits"] <= 64
