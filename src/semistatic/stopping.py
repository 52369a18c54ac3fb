"""Stopping times, liquidating strategies, and Snell envelopes.

A liquidating strategy is a nonnegative adapted exercise flow whose values sum
to exactly one along every root-to-leaf path; it is the divisible-American
exercise primitive.  Stopping times embed as the {0,1}-valued flows.  The
liquidation mass is normalized over times 0..T, so that exercise at time 0 is
available and the stopping-time embedding is total.

The Snell envelope runs in integers: a measure's subtree masses are integers
over its one denominator (`Measure.masses`) and a payoff process's values
integers over its own, so the envelope is an integer process over their
product, and a Fraction is made only for the value returned.  A measure keeps
each process's envelope after first use (`Measure.envelope`), so the stop-cut
loop, `membership` and `snell_value` on one pair compute it once.

A `StoppingTime` carries its leaf-to-stop-node map.  Built from user input,
`StoppingTime(tree, nodes)` checks that every root-to-leaf path meets the
nodes exactly once.  The stops the engine builds itself (every enumerated
stop, the greedy stop of an envelope, the deterministic stop tau = t) are
stopping times by construction, so each is made with its map as it is built
(`StoppingTime._built`), without the path re-check; the enumeration still
checks its count against `count_stopping_times`, and the greedy stop is still
re-checked to attain the envelope.

All functions here are pure over immutable inputs and parallel-safe.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator

from .lp import VerificationFailure
from .rational import rat_str
from .tree import AdaptedProcess, EventTree, TreeError

if TYPE_CHECKING:  # pragma: no cover
    from .measures import Measure

DEFAULT_ENUM_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Too many stopping times, or whole-unit stop combinations, to enumerate.
    Only single-stop questions, the explicit closure polytope (and the
    reference `hedging.dual_optimum` over it) and the stop-side LP of
    `robust.minimax_check` (whose duals on the enumerated stop rows are the
    exercise flows) enumerate; the slack LP takes its stop rows from the
    Snell separation oracle and never raises this."""


class StoppingTime:
    """A stopping time stored as its minimal antichain of stop nodes, with
    the node at which it stops on the path to each leaf."""

    __slots__ = ("tree", "stop_nodes", "_stop_at")  # one per enumerated stop

    def __init__(self, tree: EventTree, stop_nodes: Iterable[str]):
        nodes = frozenset(stop_nodes)
        unknown = {n for n in nodes if n not in tree}
        if unknown:
            raise TreeError(f"unknown stop nodes {sorted(unknown)!r}")
        stop_map: dict[str, str] = {}
        for leaf in tree.leaves:
            hits = [n for n in tree.path(leaf) if n in nodes]
            if len(hits) != 1:
                raise TreeError(
                    f"leaf {leaf!r}: path stops {len(hits)} times, expected exactly once"
                )
            stop_map[leaf] = hits[0]
        self.tree, self.stop_nodes, self._stop_at = tree, nodes, stop_map

    @classmethod
    def _built(cls, tree: EventTree, nodes: frozenset[str],
               stop_map: dict[str, str]) -> "StoppingTime":
        """A stop the engine built with its map (every leaf to the one node
        of `nodes` on its path): a stopping time by construction, so the
        path re-check is skipped.  Only this module calls it."""
        tau = cls.__new__(cls)
        tau.tree, tau.stop_nodes, tau._stop_at = tree, nodes, stop_map
        return tau

    def stops_at(self, node: str) -> bool:
        return node in self.stop_nodes

    def stop_node(self, leaf: str) -> str:
        """The node on the path to `leaf` at which the time stops."""
        return self._stop_at[leaf]

    def value_at(self, h: AdaptedProcess, leaf: str) -> Fraction:
        """h evaluated at the stop: the exercise payoff on the path to `leaf`."""
        return h.scalar_at(self._stop_at[leaf])

    def __eq__(self, other) -> bool:
        return isinstance(other, StoppingTime) and self.stop_nodes == other.stop_nodes

    def __hash__(self) -> int:
        return hash(self.stop_nodes)

    def __repr__(self) -> str:
        return f"StoppingTime({sorted(self.stop_nodes)})"


def stop_everywhere_at(tree: EventTree, t: int) -> StoppingTime:
    """The deterministic stopping time tau = t: every path has one node at
    each time 0..horizon, the one it stops at."""
    if not 0 <= t <= tree.horizon:
        raise TreeError(f"no stopping time tau = {t}: times run from 0 to {tree.horizon}")
    nodes = [n for n in tree.nodes if tree.time(n) == t]
    stop_map = {leaf: n for n in nodes for leaf in tree.leaves_under(n)}
    return StoppingTime._built(tree, frozenset(nodes), stop_map)


class LiquidatingStrategy:
    """Nonnegative exercise flow with unit mass on every path."""

    def __init__(self, eta: AdaptedProcess):
        if eta.dim != 1:
            raise TreeError("liquidating strategy must be scalar")
        tree = eta.tree
        den, mass = eta.scaled()
        for node in tree.nodes:
            if mass[node] < 0:
                raise TreeError(f"node {node!r}: negative exercise mass")
        for leaf in tree.leaves:
            total = sum(mass[n] for n in tree.path(leaf))
            if total != den:
                raise TreeError(f"leaf {leaf!r}: path mass {Fraction(total, den)} != 1")
        self.tree = tree
        self.eta = eta

    @classmethod
    def from_map(cls, tree: EventTree, values) -> "LiquidatingStrategy":
        return cls(AdaptedProcess(tree, values))

    @classmethod
    def from_stopping_time(cls, tau: StoppingTime) -> "LiquidatingStrategy":
        values = {n: Fraction(1) if tau.stops_at(n) else Fraction(0) for n in tau.tree.nodes}
        return cls(AdaptedProcess(tau.tree, values))

    def at(self, node: str) -> Fraction:
        return self.eta.scalar_at(node)

    def __eq__(self, other) -> bool:
        return isinstance(other, LiquidatingStrategy) and self.eta == other.eta

    def __hash__(self) -> int:
        return hash(self.eta)

    def __repr__(self) -> str:
        nz = {n: str(v) for n, v in self.eta.as_scalar_map().items() if v}
        return f"LiquidatingStrategy({nz})"


def strategy_to_json(eta: LiquidatingStrategy) -> dict[str, str]:
    """Node -> "p/q" map in the market-file rational convention."""
    return {n: rat_str(v) for n, v in eta.eta.as_scalar_map().items() if v}


def count_stopping_times(tree: EventTree, node: str | None = None) -> int:
    """Independent recursive count: 1 + product over children (leaves count 1)."""
    node = tree.root if node is None else node
    if tree.is_leaf(node):
        return 1
    total = 1
    for child in tree.children(node):
        total *= count_stopping_times(tree, child)
    return 1 + total


def enumerate_stopping_times(tree: EventTree) -> list[StoppingTime]:
    """All stopping times of the tree, duplicate-free.

    Refuses with `EnumerationCapError` when the count exceeds
    `DEFAULT_ENUM_CAP`.
    """
    n = count_stopping_times(tree)
    if n > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{n} stopping times exceeds cap {DEFAULT_ENUM_CAP}; only single-stop questions, "
            "the explicit closure polytope, the reference dual LP over it and the "
            "minimax stop-side LP enumerate them (the slack LP's stop rows come "
            "from the Snell oracle)"
        )

    def stops(node: str) -> tuple[list[frozenset[str]], list[dict[str, str]]]:
        """The stopping times of the subtree at `node`, stopping at `node`
        first: their stop nodes and, in step, their maps from the subtree's
        leaves."""
        sets, maps = [frozenset([node])], [dict.fromkeys(tree.leaves_under(node), node)]
        if not tree.is_leaf(node):
            for nodes, stop_map in later(node):
                sets.append(nodes)
                maps.append(stop_map)
        return sets, maps

    def later(node: str) -> Iterator[tuple[frozenset[str], dict[str, str]]]:
        """The stopping times of the subtree at non-leaf `node` that do not
        stop at `node`: one stop per child, in `product` order, their stop
        nodes joined and their maps merged."""
        below = [stops(c) for c in tree.children(node)]
        for combo, parts in zip(product(*[s for s, _ in below]),
                                product(*[m for _, m in below])):
            stop_map: dict[str, str] = {}
            for part in parts:
                stop_map.update(part)
            yield frozenset().union(*combo), stop_map

    # the root's stops go straight into the list: no list of node sets and
    # maps is held beside the stops they become
    root = tree.root
    taus = [StoppingTime._built(tree, frozenset([root]), dict.fromkeys(tree.leaves, root))]
    taus += [StoppingTime._built(tree, nodes, stop_map) for nodes, stop_map in later(root)]
    if len(taus) != n:
        raise VerificationFailure(f"enumerated {len(taus)} stopping times, counted {n}")
    return taus


def _unnormalized_snell(Q: "Measure", h: AdaptedProcess) -> tuple[dict[str, int], int]:
    """V(n) = max over stopping times of E_Q[h_tau restricted to paths through n],
    as integers over one denominator (Q's times h's), from Q's `masses`;
    returns V and that denominator.

    Works verbatim on zero-mass subtrees (they contribute 0), which is what
    makes the root value equal max over all stopping times of E_Q[h_tau].
    """
    tree, mass = h.tree, Q.masses()
    den, hn = h.scaled()
    V: dict[str, int] = {}
    for node in reversed(tree.nodes):
        kids = tree.children(node)
        stop_here = mass[node] * hn[node]
        V[node] = max(stop_here, sum([V[c] for c in kids])) if kids else stop_here
    return V, Q.den * den


def snell_value(Q: "Measure", h: AdaptedProcess) -> Fraction:
    """max over stopping times of E_Q[h_tau], by backward induction (the
    envelope Q keeps, `Measure.envelope`)."""
    V, den = Q.envelope(h)
    return Fraction(V[h.tree.root], den)


def snell_optimal_stop(Q: "Measure", h: AdaptedProcess) -> StoppingTime:
    """A stopping time attaining the Snell value: the greedy early-exercise
    rule of the envelope (stop as soon as stopping is no worse than continuing).
    No engine function calls it; `measures.solve_with_stop_cuts` calls `_greedy_stop`.
    """
    return _greedy_stop(Q, h, Q.envelope(h)[0])


def _greedy_stop(Q: "Measure", h: AdaptedProcess, V: dict[str, int]) -> StoppingTime:
    """`snell_optimal_stop` read off h's envelope V under Q
    (`_unnormalized_snell`), re-checked to attain V's root value.  The walk
    from the root stops each path once, so the stop is built with its map."""
    tree, mass = h.tree, Q.masses()
    den, hn = h.scaled()
    stops: list[str] = []
    stop_map: dict[str, str] = {}
    frontier = [tree.root]
    while frontier:
        node = frontier.pop()
        kids = tree.children(node)
        if not kids or mass[node] * hn[node] >= sum([V[c] for c in kids]):
            stops.append(node)
            stop_map.update(dict.fromkeys(tree.leaves_under(node), node))
        else:
            frontier.extend(kids)
    tau = StoppingTime._built(tree, frozenset(stops), stop_map)
    value, envelope = Q.expect_at_stop(h, tau), Fraction(V[tree.root], Q.den * den)
    if value != envelope:
        raise VerificationFailure(
            f"greedy stop is worth {value}, the exercise envelope {envelope}")
    return tau
