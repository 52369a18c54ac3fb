"""Seeded market generator of the benchmark, independent of the engine.

It follows the distribution of the acceptance suite's random markets (at most
3 periods, at most 3 branches per node, at most 2 options per book, small
rationals), but it quotes options from its own reference measure instead of
asking the engine for one: when the stock is built as strict convex
combinations of its children, those convex weights already define a
full-support martingale measure, and Snell values come from a backward
induction written here.  So a change to the LP (a different optimal vertex)
can never change the benchmark's inputs.

Markets are plain market-file documents (the JSON format the README
documents), written without `market_to_json`.  Nothing here imports
`semistatic`.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

F = Fraction


def rat_text(x: Fraction) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rand_rational(rng: random.Random, lo=-4, hi=8, max_den=4) -> Fraction:
    den = rng.randint(1, max_den)
    return F(rng.randint(lo * den, hi * den), den)


class Tree:
    """Parent/children/time tables of a generated event tree, nodes in
    depth-first order (the order the engine also uses)."""

    def __init__(self, rows):
        self.rows = rows  # (id, parent, time) in creation order
        self.children = {n: [] for n, _, _ in rows}
        self.time = {n: t for n, _, t in rows}
        for n, p, _ in rows:
            if p is not None:
                self.children[p].append(n)
        self.root = rows[0][0]
        order, stack = [], [self.root]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(self.children[n]))
        self.nodes = order
        self.leaves = [n for n in order if not self.children[n]]
        self.horizon = max(self.time.values())

    def count_stops(self, node=None):
        node = self.root if node is None else node
        if not self.children[node]:
            return 1
        total = 1
        for c in self.children[node]:
            total *= self.count_stops(c)
        return 1 + total


SHAPE_SEED = 20240


class Shape:
    """The structure of a market: its event tree, whether the stock is built
    to admit a martingale measure, and the size of each option book."""

    def __init__(self, tree: Tree, feasible: bool, n_f: int, n_g: int, n_h: int):
        self.tree, self.feasible = tree, feasible
        self.n_f, self.n_g, self.n_h = n_f, n_g, n_h


def random_tree(rng: random.Random, depth: int, max_branch=3) -> Tree:
    rows = [("n0", None, 0)]
    frontier = ["n0"]
    counter = 1
    for t in range(1, depth + 1):
        nxt = []
        for parent in frontier:
            for _ in range(rng.randint(1, max_branch)):
                name = f"n{counter}"
                counter += 1
                rows.append((name, parent, t))
                nxt.append(name)
        frontier = nxt
    return Tree(rows)


def shape_catalog(size: int, max_depth=3, n_h=None) -> list[Shape]:
    """A fixed draw, independent of the run's seed, of `size` market shapes
    from the acceptance distribution: depth in {1, 2, 2, 2, 3} (capped at
    `max_depth`), 1 to 3 branches per node, 70% feasible stocks, 0-1 f and
    0-2 g and h options (`n_h` fixes the American book's size).

    Workloads cycle through their catalog and draw every number (stock
    values, payoffs, quotes, claims) from the run's seed.  The cost of an
    operation grows steeply with the tree, so drawing shapes per seed made
    the work of a run depend on whether it met one 27-leaf tree; a fixed
    catalog makes every run do the same mix of sizes at fresh data.  Depth,
    feasibility and book sizes are dealt from shuffled blocks holding each
    value in its exact proportion, so the catalog has the distribution's mix.
    """
    rng = random.Random(SHAPE_SEED)
    blocks = {
        "depth": [1, 2, 2, 2, 3],
        "feasible": [True] * 7 + [False] * 3,
        "f": [0, 0, 0, 1],
        "g": [0, 0, 1, 1, 2],
        "h": [0, 0, 1, 1, 2],
    }
    pools = {k: [] for k in blocks}

    def draw(key):
        if not pools[key]:
            pools[key] = list(blocks[key])
            rng.shuffle(pools[key])
        return pools[key].pop()

    out = []
    for _ in range(size):
        tree = random_tree(rng, min(draw("depth"), max_depth))
        h = draw("h")
        out.append(Shape(tree, draw("feasible"), draw("f"), draw("g"),
                         h if n_h is None else n_h))
    return out


def random_stock(rng: random.Random, tree: Tree, feasible: bool):
    """Positive stock values.  With `feasible`, every parent is a strict
    convex combination of its children; the combination weights are returned
    as one-step conditional probabilities (else None)."""
    S, cond = {}, {}
    if feasible:
        for node in reversed(tree.nodes):
            kids = tree.children[node]
            if not kids:
                S[node] = rand_rational(rng, 1, 8)
                continue
            weights = [F(rng.randint(1, 4)) for _ in kids]
            total = sum(weights)
            for w, c in zip(weights, kids):
                cond[c] = w / total
            S[node] = sum((w / total * S[c] for w, c in zip(weights, kids)), F(0))
        return S, cond
    for node in tree.nodes:
        S[node] = rand_rational(rng, 1, 8)
    return S, None


def leaf_measure(tree: Tree, cond) -> dict:
    """Leaf weights of the measure whose one-step probabilities are `cond`."""
    mass = {tree.root: F(1)}
    for node in tree.nodes:
        for c in tree.children[node]:
            mass[c] = mass[node] * cond[c]
    return {l: mass[l] for l in tree.leaves}


def expect(Q: dict, claim: dict) -> Fraction:
    return sum((w * claim[l] for l, w in Q.items()), F(0))


def snell_root(tree: Tree, Q: dict, h: dict) -> Fraction:
    """max over stopping times of E_Q[h_tau]: backward induction on
    unnormalized subtree masses (zero-mass subtrees contribute 0)."""
    V, mass = {}, {}
    for node in reversed(tree.nodes):
        kids = tree.children[node]
        if not kids:
            mass[node] = Q.get(node, F(0))
            V[node] = mass[node] * h[node]
        else:
            mass[node] = sum((mass[c] for c in kids), F(0))
            V[node] = max(mass[node] * h[node], sum((V[c] for c in kids), F(0)))
    return V[tree.root]


def market_doc(tree: Tree, S, f=(), g=(), h=(), claims=None, priors=None) -> dict:
    """A market file document; books are lists of (payoff map, price)."""
    doc = {
        "horizon": tree.horizon,
        "nodes": [
            {"id": n, "parent": p, "time": t, "S": [rat_text(S[n])]}
            for n, p, t in tree.rows
        ],
        "european_two_sided": [
            {"payoff": {l: rat_text(v) for l, v in pay.items()}, "price": rat_text(p)}
            for pay, p in f
        ],
        "european_buy_only": [
            {"payoff": {l: rat_text(v) for l, v in pay.items()}, "price": rat_text(p)}
            for pay, p in g
        ],
        "american_buy_only": [
            {"payoff": {n: rat_text(v) for n, v in pay.items()}, "price": rat_text(p)}
            for pay, p in h
        ],
    }
    if claims:
        doc["claims"] = {
            name: {"type": kind, "values": {k: rat_text(v) for k, v in vals.items()}}
            for name, (kind, vals) in claims.items()
        }
    if priors:
        doc["priors"] = [{l: rat_text(w) for l, w in P.items()} for P in priors]
    return doc


SHIFTS = [F(0), F(1, 4), F(1, 2), F(-1, 4)]


def random_market(rng: random.Random, shape: Shape, priced_fair=0.6, strict=False):
    """One market on `shape` with data from `rng`: (tree, S, Q, f, g, h, sna),
    books as lists of (payoff map, price).

    The default follows the acceptance distribution: fair quotes (reference
    value plus a shift in {0, 1/4, 1/2, -1/4}) with probability
    `priced_fair`, random quotes otherwise.  With `strict`, the stock is
    always feasible, f is priced by the reference measure Q and every
    buy-only quote sits strictly above its value under Q.  `sna` is True
    whenever that holds, so the market is strictly arbitrage-free by
    construction (Q itself is a strictly consistent pricing measure)."""
    tree = shape.tree
    feasible = shape.feasible or strict
    S, cond = random_stock(rng, tree, feasible)
    Q = leaf_measure(tree, cond) if cond is not None else None
    shifts = [F(1, 4), F(1, 2)] if strict else SHIFTS
    sna = Q is not None

    def fair():
        return Q is not None and (strict or rng.random() < priced_fair)

    f, g, h = [], [], []
    for _ in range(shape.n_f):
        pay = {l: rand_rational(rng) for l in tree.leaves}
        if fair():
            f.append((pay, expect(Q, pay)))
        else:
            f.append((pay, rand_rational(rng)))
            sna = False
    for _ in range(shape.n_g):
        pay = {l: rand_rational(rng) for l in tree.leaves}
        if fair():
            shift = rng.choice(shifts)
            g.append((pay, expect(Q, pay) + shift))
            sna = sna and shift > 0
        else:
            g.append((pay, rand_rational(rng)))
            sna = False
    for _ in range(shape.n_h):
        pay = {n: rand_rational(rng) for n in tree.nodes}
        if fair():
            shift = rng.choice(shifts)
            h.append((pay, snell_root(tree, Q, pay) + shift))
            sna = sna and shift > 0
        else:
            h.append((pay, rand_rational(rng)))
            sna = False
    return tree, S, Q, f, g, h, sna


def random_claim(rng: random.Random, tree: Tree) -> dict:
    return {l: rand_rational(rng) for l in tree.leaves}


def random_process(rng: random.Random, tree: Tree) -> dict:
    return {n: rand_rational(rng) for n in tree.nodes}


def random_measure(rng: random.Random, tree: Tree, full_support=True) -> dict:
    leaves = list(tree.leaves)
    if not full_support and len(leaves) > 1:
        keep = rng.sample(leaves, rng.randint(1, len(leaves)))
    else:
        keep = leaves
    weights = {l: F(rng.randint(1, 8)) for l in keep}
    total = sum(weights.values())
    return {l: w / total for l, w in weights.items()}


def nested_priors(rng: random.Random, tree: Tree):
    """A uniform full-support prior plus a random prior inside it (the
    reference-plus-stress shape the robust module is built for)."""
    n = len(tree.leaves)
    full = {l: F(1, n) for l in tree.leaves}
    sub = rng.sample(list(tree.leaves), rng.randint(1, n))
    weights = {l: F(rng.randint(1, 5)) for l in sub}
    total = sum(weights.values())
    return [full, {l: w / total for l, w in weights.items()}]


def digest(data) -> str:
    """SHA-256 of the canonical JSON text of generated data."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=rat_text)
    return hashlib.sha256(text.encode()).hexdigest()
