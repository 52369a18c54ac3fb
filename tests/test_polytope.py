"""Vertex enumeration by double description, against hand values and a
brute-force active-set oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from semistatic.lp import EQ, GE, LE, con
from semistatic.polytope import Polytope, UnboundedPolytopeError, vertices

from oracles import contains, hrep_from_vertices

F = Fraction


def box2d():
    return Polytope(["x", "y"], [
        con({"x": 1}, LE, 1), con({"x": 1}, GE, 0),
        con({"y": 1}, LE, 1), con({"y": 1}, GE, 0),
    ])


def as_tuples(verts, names):
    return sorted(tuple(v[n] for n in names) for v in verts)


def test_unit_square():
    vs = vertices(box2d())
    assert as_tuples(vs, ["x", "y"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_redundant_rows_do_not_add_vertices():
    poly = box2d()
    poly.constraints.append(con({"x": 1, "y": 1}, LE, 5, "loose"))
    poly.constraints.append(con({"x": 1, "y": 1}, LE, 2, "touching"))
    vs = vertices(poly)
    assert as_tuples(vs, ["x", "y"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_degenerate_cut_through_vertex():
    poly = box2d()
    poly.constraints.append(con({"x": 1, "y": 1}, LE, 2, "corner"))
    poly.constraints.append(con({"x": 1, "y": -1}, LE, 1, "edge_at_corner"))
    vs = vertices(poly)
    assert (F(1), F(1)) in {tuple(v[n] for n in ["x", "y"]) for v in vs}


def test_triangle_with_equality():
    poly = Polytope(["x", "y", "z"], [
        con({"x": 1, "y": 1, "z": 1}, EQ, 1, "mass"),
        con({"x": 1}, GE, 0), con({"y": 1}, GE, 0), con({"z": 1}, GE, 0),
    ])
    vs = vertices(poly)
    assert as_tuples(vs, ["x", "y", "z"]) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_cube_and_octahedron():
    names = ["x", "y", "z"]
    cube = Polytope(names, [])
    for n in names:
        cube.constraints += [con({n: 1}, LE, 1), con({n: 1}, GE, -1)]
    assert len(vertices(cube)) == 8
    octa = Polytope(names, [])
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                octa.constraints.append(con({"x": sx, "y": sy, "z": sz}, LE, 1))
    assert len(vertices(octa)) == 6


def test_empty_polytope():
    poly = Polytope(["x"], [con({"x": 1}, LE, 0), con({"x": 1}, GE, 1)])
    assert vertices(poly) == []


def test_unbounded_rejected_with_ray():
    poly = Polytope(["x", "y"], [con({"x": 1}, GE, 0), con({"y": 1}, GE, 0)])
    with pytest.raises(UnboundedPolytopeError) as exc:
        vertices(poly)
    ray = exc.value.ray
    assert any(ray.values())
    assert all(v >= 0 for v in ray.values())


def test_t2_martingale_polytope_single_vertex(t2):
    from semistatic.measures import PricingSetSpec, closure_polytope

    poly = closure_polytope(PricingSetSpec(t2))
    vs = vertices(poly)
    assert len(vs) == 1
    v = vs[0]
    assert v["w[uu]"] == F(1, 9)
    assert v["w[ud]"] == F(2, 9)
    assert v["w[du]"] == F(2, 9)
    assert v["w[dd]"] == F(4, 9)


def test_p2_region_polygon(p2):
    """Closure of the no-arbitrage parameter region: case-splitting the max
    expressions gives the five corners, with (1/3, 1/5) among them."""
    from semistatic.cli import emit_region

    polygon = emit_region(p2, ["u1", "d1"])
    pts = sorted((pt["u1"], pt["d1"]) for pt in polygon)
    assert pts == [
        (F(0), F(0)), (F(0), F(1, 5)),
        (F(1, 3), F(1, 5)),
        (F(1, 2), F(0)), (F(1, 2), F(3, 20)),
    ]


def test_region_of_complete_market_is_a_point(t2):
    from semistatic.cli import emit_region

    polygon = emit_region(t2, ["uu", "du"])
    assert polygon == [{"uu": F(1, 3), "du": F(1, 3)}]


def test_region_with_killing_caps_is_empty(p2):
    from semistatic.cli import emit_region

    # the exercise envelope never drops below -1/2, so a quote of -2 on the
    # American option empties the pricing region
    market = p2.with_options(h=[p2.h[0]], h_prices=[F(-2)])
    assert emit_region(market, ["u1", "d1"]) == []


def test_region_rejects_more_than_two_parameters(p2):
    from semistatic.cli import UsageError, emit_region

    with pytest.raises(UsageError, match="two"):
        emit_region(p2, ["u1", "u2", "d1"])


def test_round_trip_square():
    names = ["x", "y"]
    vs = vertices(box2d())
    hrep = hrep_from_vertices(names, vs)
    assert as_tuples(vertices(hrep), names) == as_tuples(vs, names)


def test_round_trip_3d_random_hull():
    rng = random.Random(11)
    names = ["x", "y", "z"]
    pts = [{n: F(rng.randint(-4, 4), rng.randint(1, 3)) for n in names} for _ in range(12)]
    hull1 = hrep_from_vertices(names, pts)
    vs = vertices(hull1)
    assert vs  # nondegenerate with this seed
    hull2 = hrep_from_vertices(names, vs)
    assert as_tuples(vertices(hull2), names) == as_tuples(vs, names)
    for p in pts:
        assert contains(hull1, p)


@pytest.mark.parametrize("seed", range(10))
def test_random_3d_against_active_set_scan(seed):
    """Vertices from double description equal the brute-force scan over all
    feasible intersections of three constraint planes."""
    rng = random.Random(4000 + seed)
    names = ["x", "y", "z"]
    rows = []
    for n in names:
        rows.append(con({n: 1}, LE, 4))
        rows.append(con({n: 1}, GE, -4))
    for _ in range(rng.randint(1, 4)):
        coeffs = {n: rng.randint(-2, 2) for n in names}
        if not any(coeffs.values()):
            continue
        rows.append(con(coeffs, LE, rng.randint(-1, 5)))
    poly = Polytope(names, rows)
    vs = {tuple(v[n] for n in names) for v in vertices(poly)}

    def norm(row):
        sign = 1 if row.rel == LE else -1
        return ([sign * F(row.coeffs.get(n, 0)) for n in names], sign * row.rhs)

    lines = [norm(r) for r in rows]
    expected = set()
    for trio in combinations(lines, 3):
        mat = [t[0] for t in trio]
        rhs = [t[1] for t in trio]
        x = _gauss3(mat, rhs)
        if x is None:
            continue
        if all(sum(a * v for a, v in zip(coeffs, x)) <= b for coeffs, b in lines):
            expected.add(tuple(x))
    assert vs == expected


def _gauss3(rows, rhs):
    n = 3
    A = [list(map(F, r)) + [F(b)] for r, b in zip(rows, rhs)]
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


@pytest.mark.parametrize("seed", range(12))
def test_random_2d_against_halfplane_scan(seed):
    rng = random.Random(3000 + seed)
    names = ["x", "y"]
    rows = [con({"x": 1}, LE, 5), con({"x": 1}, GE, -5),
            con({"y": 1}, LE, 5), con({"y": 1}, GE, -5)]
    for _ in range(rng.randint(1, 5)):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a == b == 0:
            continue
        rows.append(con({"x": a, "y": b}, LE, rng.randint(-2, 6)))
    poly = Polytope(names, rows)
    vs = vertices(poly)

    # oracle: every pair of boundary lines, checked for feasibility
    def norm(row):
        sign = {LE: 1, GE: -1, EQ: 1}[row.rel]
        return (sign * row.coeffs.get("x", F(0)), sign * row.coeffs.get("y", F(0)),
                sign * row.rhs)

    lines = [norm(r) for r in rows]
    expected = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if all(a * x + b * y <= c for a, b, c in lines):
            expected.add((x, y))
    assert set(as_tuples(vs, names)) == expected
