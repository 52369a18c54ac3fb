"""Event trees and the processes that live on them.

An `EventTree` is a finite rooted tree whose nodes at depth t are the market
states observable at time t; the filtration is implicit (a node is an atom of
the time-t sigma-field).  `AdaptedProcess` attaches an exact rational (or a
fixed-dimension rational vector) to every node, `TerminalClaim` to every leaf.
Both are read as Fractions (`at`, `scalar_at`) and computed on as integers over
one denominator per component (`scaled`), made on first use and kept.

Everything here is immutable after construction and safe to share across
threads read-only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .rational import over_lcm, rat


class TreeError(ValueError):
    """Structural problem in a tree or node-indexed data; names the node."""


class EventTree:
    def __init__(self, nodes: Iterable[tuple[str, str | None, int]]):
        """Build from (node_id, parent_id or None for the root, time) rows."""
        rows = list(nodes)
        ids = [r[0] for r in rows]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise TreeError(f"duplicate node id {dup!r}")
        self._time: dict[str, int] = {}
        self._parent: dict[str, str] = {}
        children: dict[str, list[str]] = {i: [] for i in ids}
        roots = []
        for node_id, parent_id, t in rows:
            if isinstance(t, bool) or not isinstance(t, int) or t < 0:
                raise TreeError(f"node {node_id!r}: bad time {t!r}")
            self._time[node_id] = t
            if parent_id is None:
                roots.append(node_id)
            else:
                if parent_id not in children:
                    raise TreeError(f"node {node_id!r}: unknown parent {parent_id!r}")
                self._parent[node_id] = parent_id
                children[parent_id].append(node_id)
        if len(roots) != 1:
            raise TreeError(f"expected exactly one root, found {roots!r}")
        self.root = roots[0]
        if self._time[self.root] != 0:
            raise TreeError(f"root {self.root!r} must have time 0")
        self._children: dict[str, tuple[str, ...]] = {
            n: tuple(kids) for n, kids in children.items()}
        self.horizon = max(self._time.values())
        if self.horizon < 1:
            raise TreeError("horizon must be at least 1")
        for node_id in ids:
            t = self._time[node_id]
            parent = self._parent.get(node_id)
            if parent is not None and self._time[parent] != t - 1:
                raise TreeError(f"node {node_id!r}: time {t} but parent time {self._time[parent]}")
            if not self._children[node_id] and t != self.horizon:
                raise TreeError(f"node {node_id!r}: childless at time {t} < horizon {self.horizon}")
            if self._children[node_id] and t == self.horizon:
                raise TreeError(f"node {node_id!r}: children beyond horizon")
        # reachability in depth-first order; fixes a deterministic node order
        order: list[str] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(self._children[n]))
        if len(order) != len(ids):
            missing = sorted(set(ids) - set(order))
            raise TreeError(f"unreachable nodes {missing!r}")
        self.nodes: tuple[str, ...] = tuple(order)
        self.leaves: tuple[str, ...] = tuple(n for n in order if not self._children[n])
        self._path: dict[str, tuple[str, ...]] = {}
        for n in order:
            parent = self._parent.get(n)
            self._path[n] = (n,) if parent is None else self._path[parent] + (n,)
        self._leaves_under: dict[str, tuple[str, ...]] = {}
        for n in reversed(order):
            kids = self._children[n]
            if not kids:
                self._leaves_under[n] = (n,)
            else:
                acc: list[str] = []
                for c in kids:
                    acc.extend(self._leaves_under[c])
                self._leaves_under[n] = tuple(acc)

    def time(self, node: str) -> int:
        return self._time[node]

    def parent(self, node: str) -> str:
        if node == self.root:
            raise TreeError(f"root {node!r} has no parent")
        return self._parent[node]

    def children(self, node: str) -> tuple[str, ...]:
        return self._children[node]

    def is_leaf(self, node: str) -> bool:
        return not self._children[node]

    def path(self, node: str) -> tuple[str, ...]:
        """Nodes from the root to `node`, inclusive."""
        return self._path[node]

    def leaves_under(self, node: str) -> tuple[str, ...]:
        return self._leaves_under[node]

    def nonleaf_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self._children[n])

    def __contains__(self, node: str) -> bool:
        return node in self._time

    def __repr__(self) -> str:
        return f"EventTree({len(self.nodes)} nodes, horizon {self.horizon})"


class AdaptedProcess:
    """Node-indexed rational data: a value (or d-vector) for every node.

    Adaptedness is automatic; being node-indexed is exactly being measurable
    w.r.t. the node's sigma-field atom.
    """

    def __init__(self, tree: EventTree, values: Mapping[str, object]):
        self.tree = tree
        vals: dict[str, tuple[Fraction, ...]] = {}
        seen_dim = None
        for node in tree.nodes:
            if node not in values:
                raise TreeError(f"node {node!r}: missing process value")
            v = values[node]
            if isinstance(v, (list, tuple)):
                row = tuple(rat(c) for c in v)
            else:
                row = (rat(v),)
            if not row:
                raise TreeError(f"node {node!r}: empty value vector")
            if seen_dim is None:
                seen_dim = len(row)
            elif len(row) != seen_dim:
                raise TreeError(f"node {node!r}: dimension {len(row)} != {seen_dim}")
            vals[node] = row
        extra = set(values) - set(tree.nodes)
        if extra:
            raise TreeError(f"values for unknown nodes {sorted(extra)!r}")
        self.dim = seen_dim
        self._values = vals
        self._scaled: dict[int, tuple[int, dict[str, int]]] = {}

    def at(self, node: str) -> tuple[Fraction, ...]:
        return self._values[node]

    def scalar_at(self, node: str) -> Fraction:
        if self.dim != 1:
            raise TreeError(f"process has dimension {self.dim}, not scalar")
        return self._values[node][0]

    def scaled(self, i: int | None = None) -> tuple[int, dict[str, int]]:
        """Component `i` (the scalar value when None) at every node, as
        integers over one denominator (`over_lcm`)."""
        if i is None:
            if self.dim != 1:
                raise TreeError(f"process has dimension {self.dim}, not scalar")
            i = 0
        if i not in self._scaled:
            self._scaled[i] = over_lcm({n: v[i] for n, v in self._values.items()})
        return self._scaled[i]

    def as_scalar_map(self) -> dict[str, Fraction]:
        return {n: self.scalar_at(n) for n in self.tree.nodes}

    def __eq__(self, other) -> bool:
        return isinstance(other, AdaptedProcess) and self._values == other._values

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def __repr__(self) -> str:
        return f"AdaptedProcess(dim={self.dim}, {len(self._values)} nodes)"


class TerminalClaim:
    """Leaf-indexed rational payoff (an F_T-measurable claim)."""

    def __init__(self, tree: EventTree, values: Mapping[str, object]):
        self.tree = tree
        vals: dict[str, Fraction] = {}
        for leaf in tree.leaves:
            if leaf not in values:
                raise TreeError(f"leaf {leaf!r}: missing claim value")
            vals[leaf] = rat(values[leaf])
        unknown = set(values) - set(tree.nodes)
        extra = unknown or set(values) - set(tree.leaves)
        if extra:
            kind = "unknown" if unknown else "non-leaf"
            raise TreeError(f"claim values for {kind} nodes {sorted(extra)!r}")
        self._values = vals
        self._scaled: tuple[int, dict[str, int]] | None = None

    def at(self, leaf: str) -> Fraction:
        return self._values[leaf]

    def scaled(self) -> tuple[int, dict[str, int]]:
        """The payoff at every leaf as integers over one denominator."""
        if self._scaled is None:
            self._scaled = over_lcm(self._values)
        return self._scaled

    def __repr__(self) -> str:
        return f"TerminalClaim({len(self._values)} leaves)"
