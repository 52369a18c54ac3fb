"""Stopping times, liquidating strategies, and Snell envelopes.

A liquidating strategy is a nonnegative adapted exercise flow whose values sum
to exactly one along every root-to-leaf path; it is the divisible-American
exercise primitive.  Stopping times embed as the {0,1}-valued flows.  The
liquidation mass is normalized over times 0..T, so that exercise at time 0 is
available and the stopping-time embedding is total.

The Snell envelope runs in integers: a measure's subtree masses are integers
over its one denominator (`Measure.masses`) and a payoff process's values
integers over its own, so the envelope is an integer process over their
product, and a Fraction is made only for the value returned.

A `StoppingTime` is its set of stop nodes and nothing per leaf: on each
root-to-leaf path it stops at the one stop node on that path.  Built from
user input, `StoppingTime(tree, nodes)` checks that every path meets the nodes
exactly once.  The stops the engine builds itself (every enumerated stop, the
greedy stop of an envelope, the deterministic stop tau = t) are stopping
times by construction, so each is made from its nodes alone
(`StoppingTime._built`), without the path re-check; the enumeration still
checks its count against `count_stopping_times`, and the greedy stop is still
re-checked to attain the envelope.  A per-leaf read of a process at a stop
(`at_stop`) walks the stop nodes and the leaves under each.

Every function here is parallel-safe and pure over its inputs.  A measure's
subtree masses are read through `Measure.masses`, the one memo a measure keeps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .lp import VerificationFailure
from .rational import rat_str
from .tree import AdaptedProcess, EventTree, TreeError

if TYPE_CHECKING:  # pragma: no cover
    from .measures import Measure

DEFAULT_ENUM_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Too many stopping times, or whole-unit stop combinations, to enumerate.
    Only these enumerate: the explicit closure polytope and the reference
    `hedging.dual_optimum` over it, the stop-side LP of `robust.minimax_check`
    (whose duals on the enumerated stop rows are the exercise flows), the
    per-stop scan of `super_hedge_indivisible`, and the whole-unit scan of
    `check_na(divisible=False)`, which runs only after the divisible cone LP
    finds an arbitrage.  The slack LP takes its stop rows from the Snell
    separation oracle and never raises this."""


class StoppingTime:
    """A stopping time stored as its minimal antichain of stop nodes."""

    __slots__ = ("tree", "stop_nodes")  # one per enumerated stop

    def __init__(self, tree: EventTree, stop_nodes: Iterable[str]):
        nodes = frozenset(stop_nodes)
        unknown = {n for n in nodes if n not in tree}
        if unknown:
            raise TreeError(f"unknown stop nodes {sorted(unknown)!r}")
        for leaf in tree.leaves:
            hits = sum(n in nodes for n in tree.path(leaf))
            if hits != 1:
                raise TreeError(f"leaf {leaf!r}: path stops {hits} times, expected exactly once")
        self.tree, self.stop_nodes = tree, nodes

    @classmethod
    def _built(cls, tree: EventTree, nodes: frozenset[str]) -> "StoppingTime":
        """A stop the engine built, one node of `nodes` on every path: a
        stopping time by construction, so the path re-check is skipped.  Only
        this module calls it."""
        tau = cls.__new__(cls)
        tau.tree, tau.stop_nodes = tree, nodes
        return tau

    def stops_at(self, node: str) -> bool:
        return node in self.stop_nodes

    def __eq__(self, other) -> bool:
        return isinstance(other, StoppingTime) and self.stop_nodes == other.stop_nodes

    def __hash__(self) -> int:
        return hash(self.stop_nodes)

    def __repr__(self) -> str:
        return f"StoppingTime({sorted(self.stop_nodes)})"


def at_stop(tau: StoppingTime, values: Mapping[str, object]) -> dict[str, object]:
    """Node-indexed `values` read at `tau`, leaf by leaf: every leaf gets the
    value at the one stop node on its path.  Index it by leaf; its order is
    the stop nodes'."""
    leaves_under = tau.tree.leaves_under
    return {leaf: values[n] for n in tau.stop_nodes for leaf in leaves_under(n)}


def stop_everywhere_at(tree: EventTree, t: int) -> StoppingTime:
    """The deterministic stopping time tau = t: every path has one node at
    each time 0..horizon, the one it stops at."""
    if not 0 <= t <= tree.horizon:
        raise TreeError(f"no stopping time tau = {t}: times run from 0 to {tree.horizon}")
    return StoppingTime._built(tree, frozenset(n for n in tree.nodes if tree.time(n) == t))


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
            f"{n} stopping times exceeds cap {DEFAULT_ENUM_CAP}; only the closure polytope "
            "and the reference dual LP over it, the minimax stop-side LP, the "
            "indivisible super-hedge's per-stop scan and the whole-unit arbitrage "
            "scan enumerate them (the slack LP's stop rows come from the Snell oracle)"
        )

    def stops(node: str) -> Iterator[frozenset[str]]:
        """The stopping times of the subtree at `node` as their stop nodes:
        stopping at `node` first, then one stop per child, in `product`
        order, joined.  The root's go straight into the list of stops."""
        yield frozenset([node])
        if not tree.is_leaf(node):
            for combo in product(*[stops(c) for c in tree.children(node)]):
                yield frozenset().union(*combo)

    taus = [StoppingTime._built(tree, nodes) for nodes in stops(tree.root)]
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
    """max over stopping times of E_Q[h_tau], by backward induction
    (`_unnormalized_snell`)."""
    V, den = _unnormalized_snell(Q, h)
    return Fraction(V[h.tree.root], den)


def snell_optimal_stop(Q: "Measure", h: AdaptedProcess) -> StoppingTime:
    """A stopping time attaining the Snell value: the greedy early-exercise
    rule of the envelope (stop as soon as stopping is no worse than continuing).
    No engine function calls it; `measures.solve_with_stop_cuts` calls `_greedy_stop`.
    """
    return _greedy_stop(Q, h, _unnormalized_snell(Q, h)[0])


def _greedy_stop(Q: "Measure", h: AdaptedProcess, V: dict[str, int]) -> StoppingTime:
    """`snell_optimal_stop` read off h's envelope V under Q
    (`_unnormalized_snell`), re-checked to attain V's root value.  The walk
    from the root stops each path once, so the stop is built unchecked."""
    tree, mass = h.tree, Q.masses()
    den, hn = h.scaled()
    stops: list[str] = []
    frontier = [tree.root]
    while frontier:
        node = frontier.pop()
        kids = tree.children(node)
        if not kids or mass[node] * hn[node] >= sum([V[c] for c in kids]):
            stops.append(node)
        else:
            frontier.extend(kids)
    tau = StoppingTime._built(tree, frozenset(stops))
    value, envelope = Q.expect_at_stop(h, tau), Fraction(V[tree.root], Q.den * den)
    if value != envelope:
        raise VerificationFailure(
            f"greedy stop is worth {value}, the exercise envelope {envelope}")
    return tau
