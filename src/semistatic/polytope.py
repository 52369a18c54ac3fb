"""Rational polytopes: H-representation and exact vertex enumeration.

Vertex enumeration runs the double description method on the homogenization
cone {(t, x): A x <= b t, C x = d t, t >= 0}; extreme rays with t > 0 are
vertices, rays with t = 0 witness unboundedness.  Each equality row enters
once, as a hyperplane with one bit of every ray's activity mask, not as a pair
of inequalities (Fukuda & Prodon 1996).  It runs in integers throughout:
generators are primitive integer vectors, so numbers never grow inside the
incremental loop, and each ray's set of active rows is an int bitmask, so the
adjacency test, the only filter (no ray is made twice), is a few big-int ands.
Each row costs one product per generator: a generator on the row is kept as
it is (a line taking the pivot's sign), only the others are re-made, and the
adjacency count stops at the third mask that contains a pair's common mask.
Fractions are first made in `vertices`, one per nonzero coordinate of each
vertex (a zero is the shared `lp.ZERO`), or per coordinate of the witness
ray.  Sizes here are desk scale (tens of facets), where double description is
entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .lp import EQ, GE, ZERO, Constraint


class PolytopeError(ValueError):
    pass


class UnboundedPolytopeError(PolytopeError):
    """Raised when vertex enumeration meets a recession direction."""

    def __init__(self, ray: dict[str, Fraction]):
        self.ray = ray
        super().__init__(f"polytope is unbounded along {ray}")


@dataclass
class Polytope:
    """H-representation over named coordinates.  Nonnegativity is not
    implicit: include explicit rows if wanted."""

    variables: list[str]
    constraints: list[Constraint] = field(default_factory=list)


def _dd_cone(rows: Sequence[tuple[tuple[int, ...], bool]], dim: int):
    """Generators of the cone {x: r . x <= 0 for every row (r, False) and
    r . x == 0 for every row (r, True)}.

    Returns (lines, rays): primitive integer vectors, each ray with its
    activity set as an int bitmask (bit i is set when row i is active at the
    ray; an equality is active at every ray, one bit).  Standard incremental
    double description.  Each row takes the generators' products with it
    once, in one pass over the lines and one over the rays.  A generator with
    product 0 is kept as it is, the row's bit added to a ray's mask, except
    that a kept line takes the pivot's sign, as `pl * l` would.  A ray on the
    positive side of the new row is combined with one on the negative side
    only when the two are adjacent.  First the cardinality test: the face
    they span has dimension 2 + len(lines), so their common active rows have
    rank dim - 2 - len(lines), and there must be at least that many.  Then
    the combinatorial test: no third ray's mask contains their common mask,
    a count that stops at the third mask that does.

    An equality is the hyperplane, not a pair of inequalities: a line it
    cuts projects the other lines and the rays onto it and gives no ray of
    its own, and otherwise the rays on either side of it are dropped once
    their adjacent pairs are combined onto it.

    Each ray is an extreme ray, made once, with the mask of its active rows:
    a combined ray lies inside the 2-face of exactly one adjacent pair, and
    two projected rays differ by more than a multiple of their pivot line.
    """
    zero = (0,) * dim
    lines = [zero[:i] + (1,) + zero[i + 1:] for i in range(dim)]
    rays: list[tuple[tuple[int, ...], int]] = []

    for idx, (row, eq) in enumerate(rows):
        bit = 1 << idx
        dots = [sum(map(mul, row, l)) for l in lines]
        j = next((j for j, d in enumerate(dots) if d), None)
        if j is not None:
            pivot_line, pl = lines[j], dots[j]
            sign = 1 if pl > 0 else -1
            new_lines = []
            for k, (l, d) in enumerate(zip(lines, dots)):
                if k == j:
                    continue
                if not d:  # l is primitive, so pl * l is sign * l once reduced
                    new_lines.append(l if sign > 0 else tuple([-a for a in l]))
                else:
                    new_lines.append(
                        _primitive_int([pl * a - d * b for a, b in zip(l, pivot_line)]))
            # scaling by |pl| keeps earlier activity sets unchanged
            apl = sign * pl
            new_rays = []
            for r, act in rays:
                d = sign * sum(map(mul, row, r))
                if not d:
                    new_rays.append((r, act | bit))
                else:
                    proj = [apl * a - d * b for a, b in zip(r, pivot_line)]
                    new_rays.append((_primitive_int(proj), act | bit))
            if not eq:  # the pivot line is primitive, so its born ray is too
                new_rays.append((tuple([-x for x in pivot_line]) if sign > 0 else pivot_line,
                                 bit - 1))
            lines, rays = new_lines, new_rays
            continue
        neg, zero, pos, masks = [], [], [], []
        for ray in rays:
            r, act = ray
            masks.append(act)
            d = sum(map(mul, row, r))
            if d < 0:
                neg.append((ray, d))
            elif d:
                pos.append((ray, d))
            else:
                zero.append((r, act | bit))
        new_rays = zero if eq else [ray for ray, _ in neg] + zero
        # row idx is active at none of the pairs below, so the masks before
        # it was added decide containment of their common masks
        need = dim - 2 - len(lines)
        for (p, pact), pd in pos:
            for (n, nact), nd in neg:
                common = pact & nact
                if common.bit_count() < need:
                    continue
                # p's and n's masks contain it; adjacent iff no third does
                hits = 0
                for act in masks:
                    if common & act == common:
                        hits += 1
                        if hits > 2:
                            break
                else:
                    combo = [pd * b - nd * a for a, b in zip(p, n)]
                    new_rays.append((_primitive_int(combo), common | bit))
        rays = new_rays
    return lines, rays


def _primitive_int(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g > 1:
        return tuple([v // g for v in vec])
    return tuple(vec)


def vertices(poly: Polytope) -> list[dict[str, Fraction]]:
    """Exact, duplicate-free, minimal vertex set of a bounded polytope, in
    the order of the sorted tuples of its rational coordinates.

    Each vertex x is the one primitive integer ray (t, t x), t > 0, of the
    homogenization cone; the order is taken on integer keys over one common
    denominator, and the Fractions are made last, one dict per vertex.  A
    row's stored integers are placed by their variables' columns; a row
    naming a variable outside `poly.variables` raises PolytopeError.

    Raises UnboundedPolytopeError (carrying a witness ray) if the feasible
    set is nonempty but unbounded; returns [] when it is empty.
    """
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
        try:
            for v, x in c.num.items():
                base[col[v]] = x
        except KeyError:
            raise PolytopeError(f"row {c.name!r} names {v!r}, not a polytope variable") from None
        row = _primitive_int(base)
        rows.append((tuple([-x for x in row]) if c.rel == GE else row, c.rel == EQ))
    lines, rays = _dd_cone(rows, dim)

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
    return [{v: Fraction(x, r[0]) if x else ZERO for v, x in zip(names, r[1:])}
            for _, r in keyed]
