"""Rational polytopes: H-representation and exact vertex enumeration.

Vertex enumeration runs the double description method on the homogenization
cone {(t, x): A x <= b t, t >= 0}; extreme rays with t > 0 are vertices,
rays with t = 0 witness unboundedness.  Generators are kept as primitive
integer vectors so Fractions never grow inside the incremental loop.  Sizes
here are desk scale (tens of facets), where double description is entirely
adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .lp import Constraint, EQ, GE, LE


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


def _dd_cone(rows: list[tuple[int, ...]], dim: int):
    """Generators of the cone {x: r . x <= 0 for every row r}.

    Returns (lines, rays) with rays carrying their active row sets.  Standard
    incremental double description with the combinatorial adjacency test.
    """
    lines: list[tuple[int, ...]] = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        lines.append(tuple(e))
    rays: list[tuple[tuple[int, ...], frozenset[int]]] = []

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    for idx, row in enumerate(rows):
        pivot_line = next((l for l in lines if dot(row, l) != 0), None)
        if pivot_line is not None:
            pl = dot(row, pivot_line)
            new_lines = []
            for l in lines:
                if l is pivot_line:
                    continue
                d = dot(row, l)
                new_lines.append(_primitive_int(tuple(pl * a - d * b for a, b in
                                                      zip(l, pivot_line))))
            new_rays = []
            for r, act in rays:
                d = dot(row, r)
                proj = tuple(abs(pl) * a - (d if pl > 0 else -d) * b
                             for a, b in zip(r, pivot_line))
                # scaling by |pl| keeps earlier activity sets unchanged
                new_rays.append((_primitive_int(proj), act | {idx}))
            born = tuple(-x for x in pivot_line) if pl > 0 else pivot_line
            new_rays.append((_primitive_int(born), frozenset(range(idx))))
            lines, rays = new_lines, new_rays
            continue
        neg, zero, pos = [], [], []
        for r, act in rays:
            d = dot(row, r)
            if d < 0:
                neg.append((r, act, d))
            elif d == 0:
                zero.append((r, act | {idx}))
            else:
                pos.append((r, act, d))
        if not pos:
            rays = [(r, act) for r, act, _ in neg] + zero
            continue
        new_rays = [(r, act) for r, act, _ in neg] + zero
        for p, pact, pd in pos:
            for n, nact, nd in neg:
                common = pact & nact
                adjacent = True
                for r, act in rays_iter_acts(neg, zero, pos):
                    if r is p or r is n:
                        continue
                    if common <= act:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(pd * b - nd * a for a, b in zip(p, n))
                new_rays.append((_primitive_int(combo), common | {idx}))
        # drop duplicate directions defensively (degenerate inputs)
        seen: dict[tuple[int, ...], int] = {}
        deduped: list[tuple[tuple[int, ...], frozenset[int]]] = []
        for r, act in new_rays:
            if r in seen:
                old_r, old_act = deduped[seen[r]]
                deduped[seen[r]] = (old_r, old_act | act)
            else:
                seen[r] = len(deduped)
                deduped.append((r, act))
        rays = deduped
    return lines, rays


def rays_iter_acts(neg, zero, pos):
    for r, act, _ in neg:
        yield r, act
    for r, act in zero:
        yield r, act
    for r, act, _ in pos:
        yield r, act


def _primitive_int(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g > 1:
        return tuple(v // g for v in vec)
    return tuple(vec)


def vertices(poly: Polytope) -> list[dict[str, Fraction]]:
    """Exact, duplicate-free, minimal vertex set of a bounded polytope.

    Raises UnboundedPolytopeError (carrying a witness ray) if the feasible
    set is nonempty but unbounded; returns [] when it is empty.
    """
    names = poly.variables
    dim = len(names) + 1  # homogenizing coordinate t first
    rows: list[tuple[int, ...]] = []
    t_row = [0] * dim
    t_row[0] = -1
    rows.append(tuple(t_row))  # t >= 0
    col = {v: i + 1 for i, v in enumerate(names)}
    for c in poly.constraints:
        # the row's stored integers, as `lp.solve` reads them
        base = [0] * dim
        base[0] = -c.rhs_num
        for v, x in c.num.items():
            if v in col:
                base[col[v]] = x
        row = _primitive_int(base)
        if c.rel in (LE, EQ):
            rows.append(row)
        if c.rel in (GE, EQ):
            rows.append(tuple(-x for x in row))
    lines, rays = _dd_cone(rows, dim)

    verts: list[dict[str, Fraction]] = []
    recession: list[tuple[int, ...]] = []
    for r, _ in rays:
        if r[0] > 0:
            verts.append({v: Fraction(r[i + 1], r[0]) for i, v in enumerate(names)})
        elif r[0] == 0 and any(r[1:]):
            recession.append(r)
    for l in lines:
        if any(l[1:]):
            recession.append(l)

    if verts and recession:
        r = recession[0]
        raise UnboundedPolytopeError({v: Fraction(r[i + 1]) for i, v in enumerate(names)})
    uniq: dict[tuple, dict[str, Fraction]] = {}
    for v in verts:
        key = tuple(v[name] for name in names)
        uniq[key] = v
    return [uniq[k] for k in sorted(uniq)]
