"""Exact LP solver: hand-checked instances, certificates, and a brute-force
oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from semistatic.lp import (
    EQ,
    GE,
    LE,
    LpProblem,
    LpVerificationError,
    con,
    dump_lp,
    solve,
    verify_farkas,
    verify_ray,
    verify_solution,
)

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
    from semistatic.measures import martingale_system

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


@pytest.mark.parametrize("seed", range(120))
def test_random_mixed_shapes_self_certify(seed):
    """Random LPs with all three relations and free variables: solve() only
    returns after its certificate passes the independent exact re-check, so
    touching every status on varied shapes is already a strong test.  The
    same LP with its free variables split by hand into nonnegative pairs must
    give the same status and objective."""
    rng = random.Random(5000 + seed)
    nvars = rng.randint(2, 5)
    names = [f"x{i}" for i in range(nvars)]
    free = frozenset(n for n in names if rng.random() < 0.4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {n: F(rng.randint(-4, 4)) for n in names if rng.random() < 0.8}
        if not coeffs:
            continue
        rel = rng.choice([LE, GE, EQ])
        rows.append(con(coeffs, rel, F(rng.randint(-5, 6))))
    objective = {n: F(rng.randint(-4, 4)) for n in names}
    prob = LpProblem("max" if rng.random() < 0.5 else "min",
                     objective, rows, names, free=free)
    sol = solve(prob)
    assert sol.status in ("optimal", "infeasible", "unbounded")
    if sol.status == "infeasible":
        verify_farkas(LpProblem("max", objective, rows, names, free=free), sol.farkas)
    split = solve(_split_free(prob))
    assert split.status == sol.status
    assert split.objective == sol.objective


def test_verify_rejects_corrupted_solution():
    prob = LpProblem("max", {"x": 1}, [con({"x": 1}, LE, 1)], ["x"])
    sol = solve(prob)
    sol.values["x"] = F(2)
    with pytest.raises(LpVerificationError):
        verify_solution(prob, sol)


def test_dump_is_flagged_lossy():
    prob = LpProblem("max", {"x": F(1, 3)}, [con({"x": 1}, LE, F(2, 7), "r")], ["x"])
    text = dump_lp(prob)
    assert "LOSSY" in text
    assert "1/3" in text and "2/7" in text


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
