"""Vertex enumeration by double description, against hand values and a
brute-force active-set oracle."""

import random
from fractions import Fraction
from itertools import combinations
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from semistatic.lp import EQ, GE, LE, con
from semistatic.polytope import Polytope, UnboundedPolytopeError, _dd_cone, vertices

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


def test_a_row_on_an_unknown_variable_is_refused():
    """A row naming a variable the polytope does not list is refused by
    name, not read with that term dropped."""
    from semistatic.polytope import PolytopeError

    poly = box2d()
    poly.constraints.append(con({"x": 1, "z": 1}, LE, 1, "stray"))
    with pytest.raises(PolytopeError, match="row 'stray' names 'z'"):
        vertices(poly)


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


def test_region_rejects_a_repeated_parameter(p2):
    from semistatic.cli import UsageError, emit_region

    with pytest.raises(UsageError, match="'u1' is repeated"):
        emit_region(p2, ["u1", "u1"])


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


# ---------------------------------------------------------------------------
# Closure polytopes and the adjacency tests, against the active-set oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("start", range(0, 200, 25))
def test_closure_polytopes_against_active_set_oracle(start):
    """On the closure polytopes of random markets with at most 6 support
    leaves (equality rows, so lines in the homogenized cone, and degenerate
    stop rows), `vertices` returns the oracle's points in the oracle's order,
    and the measures made from them have the oracle's integer forms."""
    from conftest import random_market
    from semistatic.measures import PricingSetSpec, closure_polytope, polytope_vertices_as_measures

    from oracles import measure_form, vertices_by_active_sets

    sizes = []
    for seed in range(start, start + 25):
        market = random_market(random.Random(seed))
        if len(market.support_leaves()) > 6:
            continue
        poly = closure_polytope(PricingSetSpec(market))
        assert any(c.rel == EQ for c in poly.constraints)
        expected = vertices_by_active_sets(poly)
        assert vertices(poly) == expected
        assert [(Q.den, Q.num) for Q in polytope_vertices_as_measures(poly, market.tree)] == \
            [measure_form(pt) for pt in expected]
        sizes.append(len(expected))
    assert max(sizes) >= 2


@pytest.mark.parametrize("start", range(4))
def test_region_against_fraction_hull(start):
    """`emit_region` on two parameters of random markets with at most 6
    support leaves returns the Fraction oracle's polygon, in its order along
    the hull, and refuses where it refuses.  Depth-1 trees condition on the
    root, so their regions are projections of the closure polytope; deeper
    ones also meet parent masses that vary or vanish."""
    from conftest import random_market
    from semistatic.cli import UsageError, emit_region

    from oracles import region_polygon

    sizes = []
    for seed in range(start, 200, 4):
        rng = random.Random(seed)
        market = random_market(rng, max_depth=1 + seed % 2, max_branch=4)
        tree = market.tree
        if len(market.support_leaves()) > 6 or len(tree.nodes) < 3:
            continue
        params = rng.sample([n for n in tree.nodes if n != tree.root], 2)
        expected = region_polygon(market, params)
        if isinstance(expected, str):
            with pytest.raises(UsageError, match=expected):
                emit_region(market, params)
        else:
            assert emit_region(market, params) == expected
            sizes.append(len(expected))
    assert max(sizes) >= 3


def test_region_refuses_a_null_parent():
    """A stock that stays put on the up move forces zero mass on the down
    node, so a parameter below it conditions on a null node."""
    from semistatic import EventTree, MarketSpec
    from semistatic.cli import UsageError, emit_region
    from semistatic.tree import AdaptedProcess

    tree = EventTree([("0", None, 0), ("u", "0", 1), ("d", "0", 1), ("uu", "u", 2),
                      ("ud", "u", 2), ("du", "d", 2), ("dd", "d", 2)])
    S = AdaptedProcess(tree, {"0": 2, "u": 2, "d": 1, "uu": 3, "ud": 1, "du": 2, "dd": F(1, 2)})
    market = MarketSpec(tree=tree, S=S)
    assert emit_region(market, ["uu"]) == [{"uu": F(1, 2)}]
    with pytest.raises(UsageError, match="null node"):
        emit_region(market, ["uu", "du"])


def test_square_pyramid_apex_prunes_by_cardinality():
    """The box [-1, 1]^2 x [0, 2] (homogenized rows over (t, x, y, z), t >= 0
    first), cut down by the four sides of the square pyramid with apex
    (0, 0, 1), meets pairs of rays on opposite sides of a side row that
    share fewer than dim - 2 active rows.  The cardinality test rejects each
    such pair; the combinatorial test would too (a third ray's mask contains
    their common mask), so the vertices, the four-fold degenerate apex among
    them, are the oracle's."""
    from oracles import vertices_by_active_sets

    box = [(-1, 1, 0, 0), (-1, -1, 0, 0), (-1, 0, 1, 0), (-1, 0, -1, 0),
           (0, 0, 0, -1), (-2, 0, 0, 1)]
    sides = [(-1, 1, 0, 1), (-1, -1, 0, 1), (-1, 0, 1, 1), (-1, 0, -1, 1)]
    rows, dim = [(-1, 0, 0, 0)] + box + sides, 4
    pruned = []
    for k, row in enumerate(rows):
        lines, rays = _dd_cone([(r, False) for r in rows[:k]], dim)
        if lines:
            continue
        side = {r: sum(a * b for a, b in zip(row, r)) for r, _ in rays}
        for (p, pact), (n, nact) in combinations(rays, 2):
            common = pact & nact
            if side[p] * side[n] < 0 and common.bit_count() < dim - 2:
                pruned.append(sum(common & act == common for _, act in rays))
    assert pruned and all(count > 2 for count in pruned)

    names = ["x", "y", "z"]
    poly = Polytope(names, [con(dict(zip(names, r[1:])), LE, -r[0]) for r in rows[1:]])
    expected = [{"x": F(x), "y": F(y), "z": F(z)}
                for x, y, z in [(-1, -1, 0), (-1, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 0)]]
    assert vertices_by_active_sets(poly) == expected
    assert vertices(poly) == expected
    _, rays = _dd_cone([(r, False) for r in rows], dim)
    apex = [act for r, act in rays if r == (1, 0, 0, 1)]
    assert apex == [sum(1 << i for i in range(7, 11))]  # the four sides, and nothing else


@pytest.mark.parametrize("rows, ray", [
    ([con({"x": 1}, GE, 0), con({"x": 1}, LE, 1)], {"x": F(0), "y": F(-1)}),
    ([con({"x": 1, "y": 1}, EQ, 1), con({"z": 1}, GE, 0), con({"z": 1}, LE, 2)],
     {"x": F(1), "y": F(-1), "z": F(0)}),
])
def test_unbounded_along_a_line_raises_with_its_ray(rows, ray):
    """A line left in the homogenized cone is the witness ray, pinned here,
    and a recession direction of every row."""
    names = sorted(ray)
    with pytest.raises(UnboundedPolytopeError) as exc:
        vertices(Polytope(names, rows))
    assert exc.value.ray == ray
    for c in rows:
        lhs = sum(c.coeffs.get(v, F(0)) * ray[v] for v in names)
        assert lhs == 0 if c.rel == EQ else (lhs <= 0 if c.rel == LE else lhs >= 0)


def _outcome(poly):
    """`vertices(poly)`, or the witness ray it raises."""
    try:
        return vertices(poly)
    except UnboundedPolytopeError as exc:
        return ("unbounded", exc.ray)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_an_equality_is_its_inequality_pair(data):
    """Passing an equality to the double description once, as a hyperplane
    with one mask bit, gives the same vertices, or the same witness ray, as
    passing it as its `<=` and `>=` rows: random rows in two to four
    variables with small integer coefficients, in or out of a box, and one
    to three equalities among them (which may leave the set empty, a point
    or a face), and exact or positively scaled copies of drawn rows (an
    equality's copy may be one of its inequalities).

    Every cone the double description passes through holds each ray once,
    with the mask of exactly the rows active at it: the adjacency test alone
    keeps duplicate rays out."""
    names = ["x", "y", "z", "u"][:data.draw(st.integers(2, 4), label="variables")]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names))
    rows = []
    if data.draw(st.booleans(), label="box"):
        for n in names:
            rows += [con({n: 1}, LE, data.draw(st.integers(1, 4))), con({n: 1}, GE, -2)]
    for _ in range(data.draw(st.integers(1, 6), label="rows")):
        a = data.draw(coeffs)
        if any(a):
            rel = data.draw(st.sampled_from((LE, GE, EQ, EQ)))
            rows.insert(data.draw(st.integers(0, len(rows))),
                        con(dict(zip(names, a)), rel, data.draw(st.integers(-4, 6))))
    for _ in range(data.draw(st.integers(0, 3), label="copies") if rows else 0):
        c, k = data.draw(st.sampled_from(rows)), data.draw(st.integers(1, 3), label="scale")
        rel = data.draw(st.sampled_from((EQ, LE, GE))) if c.rel == EQ else c.rel
        rows.insert(data.draw(st.integers(0, len(rows))),
                    con({v: k * x for v, x in c.coeffs.items()}, rel, k * c.rhs))
    pairs = []
    for c in rows:
        pairs += [con(c.coeffs, LE, c.rhs), con(c.coeffs, GE, c.rhs)] if c.rel == EQ else [c]
    with mock.patch("semistatic.polytope._dd_cone", wraps=_dd_cone) as dd:
        assert _outcome(Polytope(names, rows)) == _outcome(Polytope(names, pairs))
    for (cone_rows, dim), _ in dd.call_args_list:
        for k in range(1, len(cone_rows) + 1):
            _, rays = _dd_cone(cone_rows[:k], dim)
            assert len({r for r, _ in rays}) == len(rays)
            for r, act in rays:
                assert act == sum(1 << i for i, (row, _) in enumerate(cone_rows[:k])
                                  if not sum(map(mul, row, r)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_kernel_equals_the_reference_step(data):
    """`_dd_cone` makes the same lines and the same rays, with the same masks
    in the same order, as `oracles.reference_dd_cone` on every cone
    `vertices` hands it, and `vertices` returns the reference's vertex list
    or raises with its witness ray: random rows in one to four variables,
    with or without a box (so bounded, empty and unbounded sets, and lines
    left in the cone), equalities, redundant scaled copies, and degenerate
    rows through one drawn point."""
    from oracles import reference_dd_cone, reference_vertices

    names = ["x", "y", "z", "u"][:data.draw(st.integers(1, 4), label="variables")]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names))
    rows = []
    if data.draw(st.booleans(), label="box"):
        for n in names:
            rows += [con({n: 1}, LE, data.draw(st.integers(0, 3))), con({n: 1}, GE, -2)]
    point = data.draw(coeffs, label="point")
    for _ in range(data.draw(st.integers(0, 5), label="through the point")):
        a = data.draw(coeffs)
        if any(a):
            rel = data.draw(st.sampled_from((LE, LE, GE, EQ)))
            rows.insert(data.draw(st.integers(0, len(rows))),
                        con(dict(zip(names, a)), rel, sum(map(mul, a, point))))
    for _ in range(data.draw(st.integers(0, 5), label="rows")):
        a = data.draw(coeffs)
        if any(a):
            rel = data.draw(st.sampled_from((LE, GE, EQ)))
            rows.insert(data.draw(st.integers(0, len(rows))),
                        con(dict(zip(names, a)), rel, data.draw(st.integers(-4, 6))))
    for _ in range(data.draw(st.integers(0, 2), label="copies") if rows else 0):
        c, k = data.draw(st.sampled_from(rows)), data.draw(st.integers(1, 3), label="scale")
        rows.insert(data.draw(st.integers(0, len(rows))),
                    con({v: k * x for v, x in c.coeffs.items()}, c.rel, k * c.rhs))
    poly = Polytope(names, rows)
    try:
        want = reference_vertices(poly)
    except UnboundedPolytopeError as exc:
        want = ("unbounded", exc.ray)
    with mock.patch("semistatic.polytope._dd_cone", wraps=_dd_cone) as dd:
        assert _outcome(poly) == want
    ((cone_rows, dim), _), = dd.call_args_list
    assert _dd_cone(cone_rows, dim) == reference_dd_cone(cone_rows, dim)


@pytest.mark.parametrize("start", range(0, 120, 40))
def test_closure_cones_equal_the_reference_step(start):
    """On the closure polytopes of random markets (equality rows, stop rows
    and their degeneracies), `_dd_cone` makes the reference step's lines and
    rays, masks and order."""
    from conftest import random_market
    from semistatic.measures import PricingSetSpec, closure_polytope

    from oracles import reference_dd_cone

    for seed in range(start, start + 40):
        market = random_market(random.Random(seed), max_depth=2)
        if len(market.support_leaves()) > 8:
            continue
        with mock.patch("semistatic.polytope._dd_cone", wraps=_dd_cone) as dd:
            vertices(closure_polytope(PricingSetSpec(market)))
        ((cone_rows, dim), _), = dd.call_args_list
        assert _dd_cone(cone_rows, dim) == reference_dd_cone(cone_rows, dim)
