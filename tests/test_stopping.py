"""Stopping times, liquidating strategies, Snell envelopes, and the
flow-vs-stop value identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from semistatic import (
    EnumerationCapError,
    LiquidatingStrategy,
    MarketSpec,
    Measure,
    StoppingTime,
    count_stopping_times,
    enumerate_stopping_times,
    snell_optimal_stop,
    snell_value,
)
import semistatic.stopping as stopping
from semistatic.hedging import VerificationFailure
from semistatic.lp import EQ, LpProblem, con, solve
from semistatic.measures import _stop_rows, _weight_var
from semistatic.stopping import _greedy_stop, _unnormalized_snell, at_stop, stop_everywhere_at
from semistatic.tree import AdaptedProcess, EventTree, TreeError

from conftest import random_market, random_measure, random_process
import oracles
from oracles import liquidate_payoff, snell_envelope, strategy_from_mixture

F = Fraction


def test_one_period_enumeration(b1):
    taus = enumerate_stopping_times(b1.tree)
    assert len(taus) == 2
    assert {frozenset(t.stop_nodes) for t in taus} == {
        frozenset({"r"}), frozenset({"u", "d"}),
    }


def test_t2_has_five_stopping_times(t2):
    taus = enumerate_stopping_times(t2.tree)
    assert len(taus) == 5
    assert count_stopping_times(t2.tree) == 5


def test_p2_has_five_stopping_times(p2):
    assert count_stopping_times(p2.tree) == 5
    assert len(enumerate_stopping_times(p2.tree)) == 5


def test_enumeration_matches_recursive_count_random():
    rng = random.Random(42)
    for _ in range(15):
        market = random_market(rng, max_depth=3)
        taus = enumerate_stopping_times(market.tree)
        assert len(taus) == count_stopping_times(market.tree)
        assert len({t.stop_nodes for t in taus}) == len(taus)


def test_enumeration_cap(monkeypatch):
    """The full depth-4 trinomial tree has 1 + 730**3 = 389,017,001 stopping
    times, past DEFAULT_ENUM_CAP: enumeration is refused from the count,
    before any antichain is built."""
    rows = [("r", None, 0)]
    level = ["r"]
    for t in range(1, 5):
        level = [f"{n}{b}" for n in level for b in "udm"]
        rows += [(n, n[:-1], t) for n in level]
    tree = EventTree(rows)
    assert len(tree.leaves) == 81 and count_stopping_times(tree) == 389_017_001

    def refuse(*args):
        raise AssertionError("stopping times enumerated")

    monkeypatch.setattr(stopping, "product", refuse)
    with pytest.raises(EnumerationCapError,
                       match="389017001 stopping times exceeds cap 1000000; .*oracle"):
        enumerate_stopping_times(tree)


def test_stopping_time_validation(t2):
    with pytest.raises(TreeError):
        StoppingTime(t2.tree, ["u"])  # paths through d never stop
    with pytest.raises(TreeError):
        StoppingTime(t2.tree, ["r", "uu"])  # stops twice on one path


def _tree_of(branches: list[list[int]]) -> EventTree:
    """The tree whose time-t nodes have branches[t][i] children each, in
    order (a level's list is cycled over its nodes)."""
    rows, frontier = [("n0", None, 0)], ["n0"]
    for t, level in enumerate(branches, start=1):
        nxt = []
        for i, parent in enumerate(frontier):
            for _ in range(level[i % len(level)]):
                nxt.append(f"n{len(rows)}")
                rows.append((nxt[-1], parent, t))
        frontier = nxt
    return EventTree(rows)


@st.composite
def _trees(draw):
    """Event trees of depth 1 to 4, unary chains included; past depth 3 a
    node has at most two children, so there are at most 677 stops."""
    depth = draw(st.integers(1, 4), label="depth")
    most = 3 if depth <= 3 else 2
    return _tree_of([draw(st.lists(st.integers(1, most), min_size=1, max_size=8))
                     for _ in range(depth)])


def _same_stop(tau: StoppingTime, h: AdaptedProcess) -> None:
    """`tau` equals the validated stop on its nodes, and `at_stop` reads h at
    it, at every leaf, as the oracle's walk down the leaf's path does."""
    checked = StoppingTime(tau.tree, tau.stop_nodes)
    assert tau.stop_nodes == checked.stop_nodes
    assert at_stop(tau, h.as_scalar_map()) == {
        l: h.scalar_at(oracles.stop_node(checked, l)) for l in tau.tree.leaves}


@settings(max_examples=60, deadline=None)
@given(tree=_trees())
@example(tree=_tree_of([[1]] * 4))
@example(tree=_tree_of([[2]] * 4))
@example(tree=_tree_of([[3], [1, 2, 3], [2, 1]]))
def test_built_stops_equal_validated_stops(tree):
    """Every enumerated stop and every deterministic stop tau = t is built
    from its nodes, no path re-check; each equals `StoppingTime(tree, nodes)`
    and reads a process at every leaf as the oracle does, the enumeration
    lists the stops in the order of the antichain recursion
    (`oracles.antichains`), and tau = t exists only for t in 0..horizon."""
    h = AdaptedProcess(tree, {n: i for i, n in enumerate(tree.nodes)})
    taus = enumerate_stopping_times(tree)
    assert [tau.stop_nodes for tau in taus] == oracles.antichains(tree)
    for tau in taus:
        _same_stop(tau, h)
    for t in range(tree.horizon + 1):
        tau = stop_everywhere_at(tree, t)
        assert tau.stop_nodes == {n for n in tree.nodes if tree.time(n) == t}
        _same_stop(tau, h)
    for t in (-1, tree.horizon + 1):
        with pytest.raises(TreeError):
            stop_everywhere_at(tree, t)


def _partial_measure(data, tree: EventTree) -> Measure:
    """A measure whose support may miss leaves and whole subtrees."""
    leaves = list(tree.leaves)
    if data.draw(st.booleans(), label="zero-mass subtree"):
        cut = data.draw(st.sampled_from(tree.nodes[1:]), label="cut")
        keep = [l for l in leaves if l not in tree.leaves_under(cut)] or leaves
    else:
        keep = leaves
    keep = data.draw(st.lists(st.sampled_from(keep), min_size=1, unique=True), label="support")
    raw = {l: data.draw(st.integers(1, 8)) for l in keep}
    total = sum(raw.values())
    return Measure(tree, {l: F(w, total) for l, w in raw.items()})


@settings(max_examples=60, deadline=None)
@given(tree=_trees(), data=st.data())
def test_greedy_stops_and_stop_sums_equal_their_references(tree, data):
    """The greedy stop of an envelope is built from its nodes and equals the
    validated stop on them; `expect_at_stop`, summed over a stop's nodes
    with the measure's subtree masses, equals the leaf-by-leaf Fraction sum
    on measures with partial support and zero-mass subtrees."""
    Q = _partial_measure(data, tree)
    values = st.fractions(min_value=-8, max_value=8, max_denominator=6)
    h = AdaptedProcess(tree, {n: data.draw(values) for n in tree.nodes})
    _same_stop(snell_optimal_stop(Q, h), h)
    for tau in enumerate_stopping_times(tree):
        assert Q.expect_at_stop(h, tau) == oracles.expect_at_stop(Q, h, tau)


@settings(max_examples=40, deadline=None)
@given(tree=_trees(), data=st.data())
def test_leafwise_reads_at_a_stop_equal_the_path_walk(tree, data):
    """For every enumerated stop, the three leaf-by-leaf reads of h at tau
    equal h at the node `oracles.stop_node` finds on each leaf's path:
    `at_stop`, the LP row `measures._stop_rows` makes (over the leaves asked
    for, in the tree's leaf order) and the claim `MarketSpec.exercised_at`
    appends to `g`."""
    values = st.fractions(min_value=-8, max_value=8, max_denominator=6)
    h = AdaptedProcess(tree, {n: data.draw(values) for n in tree.nodes})
    leaves = data.draw(st.permutations(tree.leaves), label="leaves")
    leaves = leaves[:data.draw(st.integers(0, len(leaves)), label="kept")]
    market = MarketSpec(tree=tree, S=AdaptedProcess(tree, {n: 1 for n in tree.nodes}),
                        h=(h,), h_prices=(F(0),))
    stop_row = _stop_rows(h, F(0), {l: _weight_var(l) for l in leaves})
    for tau in enumerate_stopping_times(tree):
        want = {l: h.scalar_at(oracles.stop_node(tau, l)) for l in tree.leaves}
        assert at_stop(tau, h.as_scalar_map()) == want
        row = stop_row(tau, "h")
        assert row.coeffs == {_weight_var(l): want[l] for l in leaves if want[l]}
        assert list(row.num) == [_weight_var(l) for l in tree.leaves if l in leaves and want[l]]
        claim = market.exercised_at([tau]).g[-1]
        assert {l: claim.at(l) for l in tree.leaves} == want


def test_liquidating_strategy_validation(b1):
    with pytest.raises(TreeError, match="mass"):
        LiquidatingStrategy.from_map(b1.tree, {"r": F(1, 2), "u": F(1, 4), "d": F(1, 2)})
    with pytest.raises(TreeError, match="negative"):
        LiquidatingStrategy.from_map(b1.tree, {"r": 2, "u": -1, "d": -1})


def test_liquidate_all_mass_at_root(b1):
    h = AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 3})
    eta = LiquidatingStrategy.from_stopping_time(stop_everywhere_at(b1.tree, 0))
    assert liquidate_payoff(eta, h, "u") == 1
    assert liquidate_payoff(eta, h, "d") == 1


def test_liquidate_half_and_half(b1):
    h = AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 3})
    eta = LiquidatingStrategy.from_map(
        b1.tree, {"r": F(1, 2), "u": F(1, 2), "d": F(1, 2)}
    )
    assert liquidate_payoff(eta, h, "u") == F(1, 2)
    assert liquidate_payoff(eta, h, "d") == 2


def test_stopping_time_embedding_matches_pathwise(t2):
    rng = random.Random(9)
    h = random_process(rng, t2.tree)
    for tau in enumerate_stopping_times(t2.tree):
        eta = LiquidatingStrategy.from_stopping_time(tau)
        for leaf in t2.tree.leaves:
            assert liquidate_payoff(eta, h, leaf) == h.scalar_at(oracles.stop_node(tau, leaf))


def test_snell_constant_payoff(t2):
    Q = random_measure(random.Random(3), t2.tree)
    h = AdaptedProcess(t2.tree, {n: F(7, 3) for n in t2.tree.nodes})
    env, value = snell_envelope(Q, h)
    assert value == F(7, 3)
    assert all(env.scalar_at(n) == F(7, 3) for n in t2.tree.nodes)


def test_snell_b1_example(b1):
    h = AdaptedProcess(b1.tree, {"r": 1, "u": 0, "d": 3})
    Q = Measure(b1.tree, {"u": F(1, 2), "d": F(1, 2)})
    _, value = snell_envelope(Q, h)
    assert value == F(3, 2)


def test_snell_t2_put_envelope(t2):
    put = t2.claims["put5_am"]
    Q = Measure(t2.tree, {"uu": F(1, 9), "ud": F(2, 9), "du": F(2, 9), "dd": F(4, 9)})
    env, value = snell_envelope(Q, put)
    assert value == F(20, 9)
    assert env.scalar_at("r") == F(20, 9)
    assert env.scalar_at("u") == F(2, 3)
    assert env.scalar_at("d") == F(3)
    for leaf in t2.tree.leaves:
        assert env.scalar_at(leaf) == put.scalar_at(leaf)
    # cross-check by enumeration over the five stopping times
    best = max(Q.expect_at_stop(put, tau) for tau in enumerate_stopping_times(t2.tree))
    assert best == value


def test_snell_dominates_and_is_supermartingale(t2):
    rng = random.Random(17)
    for _ in range(10):
        h = random_process(rng, t2.tree)
        Q = random_measure(rng, t2.tree)
        env, _ = snell_envelope(Q, h)
        for node in t2.tree.nodes:
            assert env.scalar_at(node) >= h.scalar_at(node)
        for node in t2.tree.nonleaf_nodes():
            mass = sum(
                (sum((Q.at(l) for l in t2.tree.leaves_under(c)), F(0))
                 for c in t2.tree.children(node)), F(0),
            )
            if mass == 0:
                continue
            cont = sum(
                (sum((Q.at(l) for l in t2.tree.leaves_under(c)), F(0)) * env.scalar_at(c)
                 for c in t2.tree.children(node)), F(0),
            ) / mass
            assert cont <= env.scalar_at(node)


def test_snell_zero_mass_subtree(t2):
    put = t2.claims["put5_am"]
    Q = Measure(t2.tree, {"du": F(2, 3), "dd": F(1, 3)})  # no mass through u
    _, value = snell_envelope(Q, put)
    assert value == max(Q.expect_at_stop(put, tau)
                        for tau in enumerate_stopping_times(t2.tree))


def test_greedy_stop_attains_value():
    rng = random.Random(23)
    for _ in range(25):
        market = random_market(rng, max_depth=3)
        h = random_process(rng, market.tree)
        Q = random_measure(rng, market.tree, full_support=rng.random() < 0.5)
        tau = snell_optimal_stop(Q, h)
        assert Q.expect_at_stop(h, tau) == snell_value(Q, h)


def test_greedy_stop_that_misses_the_envelope_raises(t2):
    Q = Measure(t2.tree, {"uu": F(1, 9), "ud": F(2, 9), "du": F(2, 9), "dd": F(4, 9)})
    put = t2.claims["put5_am"]
    V, _ = _unnormalized_snell(Q, put)
    V[t2.tree.root] += 1
    with pytest.raises(VerificationFailure, match="greedy stop is worth 20/9, "
                                                  "the exercise envelope 7/3"):
        _greedy_stop(Q, put, V)


def test_enumeration_that_misses_the_count_raises(t2, monkeypatch):
    monkeypatch.setattr(stopping, "count_stopping_times", lambda tree: 7)
    with pytest.raises(VerificationFailure, match="enumerated 5 stopping times, counted 7"):
        enumerate_stopping_times(t2.tree)


def test_mixture_single_tau_is_embedding(t2):
    tau = enumerate_stopping_times(t2.tree)[2]
    eta = strategy_from_mixture([1], [tau])
    embedded = LiquidatingStrategy.from_stopping_time(tau)
    assert eta.eta.as_scalar_map() == embedded.eta.as_scalar_map()


def test_mixture_idempotent(t2):
    tau = enumerate_stopping_times(t2.tree)[1]
    eta = strategy_from_mixture([F(1, 2), F(1, 2)], [tau, tau])
    assert eta.eta.as_scalar_map() == LiquidatingStrategy.from_stopping_time(tau).eta.as_scalar_map()


def test_mixture_weight_validation(t2):
    tau = enumerate_stopping_times(t2.tree)[0]
    with pytest.raises(ValueError, match="sum"):
        strategy_from_mixture([F(1, 2)], [tau])


def test_p2_motivating_mixture(p2):
    """The half-and-half mixture of stopping early on the up branch and at
    maturity replicates the bundled European claim pathwise."""
    tree = p2.tree
    tau12 = StoppingTime(tree, ["u", "d1", "d2", "d3"])
    tau2 = stop_everywhere_at(tree, 2)
    eta = strategy_from_mixture([F(1, 2), F(1, 2)], [tau12, tau2])
    h = p2.h[0]
    psi = p2.claims["psi"]
    for leaf in tree.leaves:
        assert liquidate_payoff(eta, h, leaf) == psi.at(leaf)


def _best_flow_value(Q, h):
    """LP over liquidating strategies: max E_Q[flow(h)]."""
    tree = h.tree
    mass = {leaf: Q.at(leaf) for leaf in tree.leaves}
    for node in reversed(tree.nodes):
        if not tree.is_leaf(node):
            mass[node] = sum((mass[c] for c in tree.children(node)), F(0))
    rows = [con({f"eta[{n}]": 1 for n in tree.path(leaf)}, EQ, 1, f"path[{leaf}]")
            for leaf in tree.leaves]
    objective = {f"eta[{n}]": mass[n] * h.scalar_at(n) for n in tree.nodes
                 if mass[n] * h.scalar_at(n)}
    sol = solve(LpProblem("max", objective, rows, [f"eta[{n}]" for n in tree.nodes]))
    assert sol.status == "optimal"
    return sol.objective


@pytest.mark.parametrize("seed", range(20))
def test_flow_stop_snell_identity(seed):
    """Extreme-point property: the flow LP, the stop scan, and the envelope
    root value agree exactly."""
    rng = random.Random(7000 + seed)
    market = random_market(rng, max_depth=3)
    h = random_process(rng, market.tree)
    Q = random_measure(rng, market.tree, full_support=rng.random() < 0.7)
    lp_value = _best_flow_value(Q, h)
    scan_value = max(Q.expect_at_stop(h, tau)
                     for tau in enumerate_stopping_times(market.tree))
    env_value = snell_value(Q, h)
    assert lp_value == scan_value == env_value
