"""Pricing measures and the polytopes they form.

The strict pricing set (equivalent martingale measures pricing f exactly and
the buy-only books strictly below their quotes) is an open set, which no LP
can represent directly.  It is handled through two computable objects:

  * its closure, an H-polytope over leaf weights, and
  * a slack-maximization LP whose optimum is positive exactly when the strict
    set is nonempty (with the witness measure as certificate).

American caps quantify over all stopping times.  The slack LP imposes them
lazily: `solve_with_stop_cuts`, `max_slack`'s loop, adds a stop's row only
when the greedy optimal stop of the exercise envelope under the current
witness violates it.  Its round 0 holds no American row, so a slack LP's
round 0 is the slack LP of the market without American options, and it is
kept on the stock process for every market that poses it.  The LPs that
list one row per enumerated stopping time instead are the closure polytope,
whose vertex enumeration needs its full H-representation, the stop-side LP
of `robust.minimax_check`, whose duals on those rows are the exercise flows,
and the reference `hedging.dual_optimum`, which optimizes over the closure
polytope.

A `Measure` holds integer weights over one denominator, the lcm of its
weights' denominators (a canonical form), and keeps its integer subtree masses
after first use, and nothing else.  Expectations, exercise envelopes and the
membership checks sum integers against the claims' and processes' own integer
forms and make one Fraction, or compare with a Fraction bound by
cross-multiplication.  A stopping time is its stop nodes alone, so
a value at a stop, E[h at tau], is summed over them, h there times the mass
under it (`Measure.expect_at_stop`; `robust.minimax_check`'s stop rows
likewise).  An LP row over leaf weights (`_stop_rows`: the closure polytope's
stop rows, the slack LP's stop cuts, the reference dual LP's epigraph) gives
h at each stop node to the weights of the leaves under it, over one
denominator per option and bound.  A measure from user input
is checked leaf by leaf; one the engine reads off an LP solution, a vertex or
a mixture (`_measure_of`, `hedging._leaf_dual`, `robust.minimax_check`'s
attaining measure) is built by `Measure._built`, which keeps only the sign
and total checks.  LP rows are built as integers from the same forms
(`lp.int_con`); the martingale rows are kept on the stock process per leaf
set.  Every LP here ranges over its market's support: to ask a question on
fewer leaves, ask it of `market.on_support(leaves)`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .lp import EQ, GE, LE, ZERO, Constraint, LpProblem, LpSolution, int_con, solve
from .market import HedgePortfolio, MarketSpec, StrategySpace, _kept
from .polytope import Polytope, vertices
from .rational import over_lcm, rat, rat_str
from .stopping import (
    StoppingTime,
    _greedy_stop,
    _unnormalized_snell,
    enumerate_stopping_times,
)
from .tree import AdaptedProcess, EventTree, TerminalClaim


class MeasureError(ValueError):
    pass


class Measure:
    """Leaf-indexed nonnegative rational weights summing to one.

    `num` holds the nonzero weights as integers over the one denominator
    `den` (`over_lcm`); `weights` is their Fraction view.  Besides these a
    measure keeps its subtree masses (`masses`), and nothing else."""

    __slots__ = ("tree", "den", "num", "weights", "_mass")

    def __init__(self, tree: EventTree, weights: Mapping[str, object]):
        for leaf in weights:
            if leaf not in tree or not tree.is_leaf(leaf):
                kind = "non-leaf" if leaf in tree else "unknown"
                raise MeasureError(f"weight on {kind} node {leaf!r}")
        self._set(tree, {leaf: rat(val) for leaf, val in weights.items()})

    @classmethod
    def _built(cls, tree: EventTree, weights: Mapping[str, Fraction]) -> "Measure":
        """A measure from Fraction weights the engine made on leaves of
        `tree` (an LP's values or duals, a vertex, a mixture): the leaf names
        and the `rat` coercion are not re-checked, the signs and the total
        are.  Only `measures._measure_of`, `hedging._leaf_dual` and
        `robust.minimax_check` call it."""
        Q = cls.__new__(cls)
        Q._set(tree, weights)
        return Q

    def _set(self, tree: EventTree, weights: Mapping[str, Fraction]) -> None:
        w: dict[str, Fraction] = {}
        for leaf, x in weights.items():
            sign = x.numerator  # a Fraction has its numerator's sign
            if sign < 0:
                raise MeasureError(f"negative weight at {leaf!r}")
            if sign:
                w[leaf] = x
        self.tree = tree
        self.den, self.num = over_lcm(w)
        total = sum(self.num.values())
        if total != self.den:
            raise MeasureError(f"weights sum to {Fraction(total, self.den)}, not 1")
        self.weights = w
        self._mass: dict[str, int] | None = None

    def support(self) -> frozenset[str]:
        return frozenset(self.weights)

    def at(self, leaf: str) -> Fraction:
        return self.weights.get(leaf, ZERO)

    def masses(self) -> dict[str, int]:
        """The mass on the leaves under every node, as integers over `den`,
        in one bottom-up pass; computed once and kept."""
        if self._mass is None:
            tree, mass = self.tree, {}
            for node in reversed(tree.nodes):
                kids = tree.children(node)
                mass[node] = sum([mass[c] for c in kids]) if kids else self.num.get(node, 0)
            self._mass = mass
        return self._mass

    def expect_claim(self, claim: TerminalClaim) -> Fraction:
        den, value = claim.scaled()
        return Fraction(sum([w * value[l] for l, w in self.num.items()]), self.den * den)

    def expect_at_stop(self, h: AdaptedProcess, tau: StoppingTime) -> Fraction:
        """E[h at tau]: h at each stop node times the mass under it."""
        den, value = h.scaled()
        mass = self.masses()
        return Fraction(sum([mass[n] * value[n] for n in tau.stop_nodes]), self.den * den)

    def mixture(self, other: "Measure", lam) -> "Measure":
        lam = rat(lam)
        w = {l: lam * self.at(l) + (1 - lam) * other.at(l)
             for l in set(self.weights) | set(other.weights)}
        return Measure(self.tree, w)

    def __eq__(self, other) -> bool:
        return isinstance(other, Measure) and (self.den, self.num) == (other.den, other.num)

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}: {rat_str(w)}" for l, w in sorted(self.weights.items()))
        return f"Measure({{{inner}}})"


@dataclass(frozen=True)
class PricingSetSpec:
    """Constraint recipe for a pricing set over a market's leaf weights.

    The option caps are the market's quotes.  `g_cap` / `h_cap`, when not
    empty, are other caps, one per option: they re-quote the spec's market
    (`with_options`), so the pricing set at those caps is the pricing set of
    the market at those quotes, and a pricing set without an option's cap is
    the pricing set of the market without that option.  `support_floor`
    lists leaves whose weight must be strictly positive in the strict reading
    (the equivalence part of an EMM); the closure drops strictness.
    """

    market: MarketSpec
    g_cap: InitVar[Sequence[Fraction]] = ()
    h_cap: InitVar[Sequence[Fraction]] = ()
    support_floor: frozenset[str] = frozenset()

    def __post_init__(self, g_cap, h_cap):
        if g_cap or h_cap:
            object.__setattr__(self, "market", self.market.with_options(
                g_prices=g_cap or None, h_prices=h_cap or None))

    @classmethod
    def strict_emm(cls, market: MarketSpec) -> "PricingSetSpec":
        """The strict pricing set with equivalence to the reference support."""
        return cls(market, support_floor=frozenset(market.support))


def _weight_var(leaf: str) -> str:
    return f"w[{leaf}]"


def _row(den: int, num: Mapping[str, int], rel: str, bound, name: str,
         unit: str | None = None, sign: int = 1) -> Constraint:
    """The row num / den (+ sign * unit) rel bound, for a rational bound, as
    integers over the lcm of den and the bound's denominator.  `num` is read,
    never changed."""
    d = lcm(den, bound.denominator)
    k = d // den
    row = {v: c * k for v, c in num.items()}
    if unit is not None:
        row[unit] = sign * d
    return int_con(row, rel, bound.numerator * (d // bound.denominator), d, name)


def _martingale_rows(market: MarketSpec, leaves: tuple[str, ...]) -> tuple[list[str], tuple]:
    """The weight variables of `leaves` and the mass and martingale rows over
    them, built from the stock's integer form once per stock process and leaf
    tuple and kept on the process, which every market derived from this one
    shares."""
    S = market.S

    def build():
        tree, var = S.tree, {l: _weight_var(l) for l in leaves}
        variables = [var[l] for l in leaves]
        rows = [int_con(dict.fromkeys(variables, 1), EQ, 1, 1, "mass")]
        stock = [S.scaled(l_idx) for l_idx in range(S.dim)]
        for node in tree.nonleaf_nodes():
            for l_idx, (den, s) in enumerate(stock):
                num: dict[str, int] = {}
                for child in tree.children(node):
                    step = s[child] - s[node]
                    if step:  # each leaf lies under one child
                        for leaf in tree.leaves_under(child):
                            if leaf in var:
                                num[var[leaf]] = step
                if num:
                    rows.append(int_con(num, EQ, 0, den, f"mart[{node}][{l_idx}]"))
        return variables, tuple(rows)

    return _kept(S, ("martingale", leaves), build)


def _claim_row(claim: TerminalClaim, leaves: Sequence[str]) -> tuple[int, dict[str, int]]:
    """E[claim] over the weights of `leaves`: (den, nonzero integer coefficients)."""
    den, value = claim.scaled()
    return den, {_weight_var(l): value[l] for l in leaves if value[l]}


def _stop_rows(h: AdaptedProcess, bound: Fraction, weights: Mapping[str, str],
               unit: str | None = None, sign: int = 1) -> Callable[[StoppingTime, str], Constraint]:
    """The rows E[h at tau] (+ sign * unit) <= bound over the weight variables
    `weights` (leaf -> variable), one per stop tau: `row(tau, name)`.

    Every row is over one denominator, the lcm of h's and the bound's, fixed
    here once per process and bound.  A row reads h at each of tau's stop
    nodes, in the tree's order, and gives it to the weights of the leaves
    under that node, so its coefficients run in the tree's leaf order; a stop
    node where h is 0 gives nothing.  The closure polytope's stop rows, the
    slack LP's stop cuts and `hedging.dual_optimum`'s epigraph rows are all
    made here."""
    tree = h.tree
    den, value = h.scaled()
    d = lcm(den, bound.denominator)
    k = d // den
    rhs = bound.numerator * (d // bound.denominator)
    place = {n: i for i, n in enumerate(tree.nodes)}.__getitem__
    leaves_under = tree.leaves_under

    def row(tau: StoppingTime, name: str) -> Constraint:
        num: dict[str, int] = {}
        for n in sorted(tau.stop_nodes, key=place):
            c = value[n] * k
            if c:
                for leaf in leaves_under(n):
                    w = weights.get(leaf)
                    if w is not None:
                        num[w] = c
        if unit is not None:
            num[unit] = sign * d
        return int_con(num, LE, rhs, d, name)

    return row


def _measure_of(spec_leaves: Sequence[str], sol_values: Mapping[str, Fraction],
                tree: EventTree) -> Measure:
    return Measure._built(tree, {l: sol_values.get(_weight_var(l), ZERO) for l in spec_leaves})


def pricing_rows(
    spec: PricingSetSpec,
    leaves: Sequence[str],
    slack_var: str | None = None,
) -> list[Constraint]:
    """f-pricing equalities plus capped g rows, from the claims' integer
    forms.

    With `slack_var` set, buy-only caps become `E[.] + t <= cap`, the slack
    maximization form.  American caps are not rows here: `max_slack`
    generates them with `solve_with_stop_cuts`, and `closure_polytope`
    enumerates them."""
    m = spec.market
    rows = [_row(*_claim_row(claim, leaves), EQ, price, f"f[{i}]")
            for i, (claim, price) in enumerate(zip(m.f, m.f_prices))]
    rows += [_row(*_claim_row(claim, leaves), LE, cap, f"g[{j}]", slack_var)
             for j, (claim, cap) in enumerate(zip(m.g, m.g_prices))]
    return rows


def closure_polytope(spec: PricingSetSpec) -> Polytope:
    """H-representation of the closure of the pricing set, over the weights
    of the market's support leaves: the mass and martingale rows, one
    nonnegativity row per weight, then `_capped_rows`.

    American caps are expanded into one row per enumerated stopping time, the
    explicit form vertex enumeration needs; trees with more than
    DEFAULT_ENUM_CAP stopping times raise EnumerationCapError."""
    m = spec.market
    leaves = m.support_leaves()
    variables, base = _martingale_rows(m, leaves)
    nonneg = [int_con({w: 1}, GE, 0, 1, f"nonneg[{l}]") for l, w in zip(leaves, variables)]
    return Polytope(list(variables), [*base, *nonneg, *_capped_rows(
        spec, leaves, variables, enumerate_stopping_times(m.tree))])


def _capped_rows(spec: PricingSetSpec, leaves: Sequence[str], variables: Sequence[str],
                 taus: Sequence[StoppingTime]) -> list[Constraint]:
    """The pricing rows and every American cap at every stop of `taus`, over
    the weight `variables` of `leaves`: the closure polytope's rows but for
    the mass, martingale and nonnegativity rows."""
    m = spec.market
    weights = dict(zip(leaves, variables))
    rows = pricing_rows(spec, leaves)
    for k, (h, cap) in enumerate(zip(m.h, m.h_prices)):
        row = _stop_rows(h, cap, weights)
        rows += [row(tau, f"h[{k}]tau[{t_idx}]") for t_idx, tau in enumerate(taus)]
    return rows


@dataclass(frozen=True)
class SlackResult:
    """Outcome of the strictness LP: optimum > 0 iff the strict set is
    nonempty, with the optimal `witness` measure.

    When the optimum is <= 0 or the LP is infeasible, `certificate` is the
    portfolio its duals or Farkas multipliers spell out (`_slack_certificate`),
    unverified; it is None when the optimum is positive."""

    status: str
    optimum: Fraction | None = None
    witness: Measure | None = None
    certificate: HedgePortfolio | None = None

    @property
    def strictly_positive(self) -> bool:
        return self.status == "optimal" and self.optimum > 0


SLACK_VAR = "t[slack]"


def solve_with_stop_cuts(
    build: Callable[[list[tuple[int, StoppingTime]]], LpProblem],
    spec: PricingSetSpec,
    round0: tuple,
) -> tuple[LpSolution, Measure | None, list[tuple[int, StoppingTime]]]:
    """`max_slack`'s loop: solve the slack LP with its American caps'
    "for all stopping times" rows generated lazily; return the last
    solution, the witness read off it (None unless optimal) and the cuts
    that solution's LP holds.

    `build(cuts)` returns the slack LP with one row
    E[h_k at tau] + t <= quote_k per (k, tau) in `cuts`.  Round 0,
    `build([])`, is solved here or read from the stock process's store under
    the key `round0` (`market._kept`).  Each round reads the witness and the
    slack t off its solution, adds the greedy envelope stop of every option
    whose exercise value exceeds its quote minus t, and solves again.  The
    loop is exact and ends because the stopping-time set is finite; a
    violated cut already in the LP raises MeasureError."""
    m = spec.market
    leaves = m.support_leaves()
    sol = _kept(m.S, round0, lambda: solve(build([])))
    cuts: list[tuple[int, StoppingTime]] = []
    while sol.status == "optimal":
        Q = _measure_of(leaves, sol.values, m.tree)
        slack = sol.values.get(SLACK_VAR, ZERO)
        new = []
        for k, (h, cap) in enumerate(zip(m.h, m.h_prices)):
            bound = cap - slack
            V, den = _unnormalized_snell(Q, h)
            if V[m.tree.root] * bound.denominator > bound.numerator * den:
                cut = (k, _greedy_stop(Q, h, V))
                if cut in cuts:
                    raise MeasureError(f"stop cut loop failed to progress on option h[{k}]")
                new.append(cut)
        if not new:
            return sol, Q, cuts
        cuts += new
        sol = solve(build(cuts))
    return sol, None, cuts


def max_slack(spec: PricingSetSpec) -> SlackResult:
    """Maximize a uniform slack t with E g <= cap - t, stop values <= cap - t,
    and weight >= t on the support floor, over the weights of the market's
    support leaves.  The slack is capped at 1 so the LP stays bounded when no
    constraint involves t.  The stop value rows are cut in lazily by
    `solve_with_stop_cuts`, and the certificate reads the multipliers of the
    rows and cuts of its last LP.

    Round 0 of the stop cuts holds no American row, so its LP reads only the
    stock, the support leaves, the f and g claims and quotes, and the floor.
    Its solution is kept on the stock process under exactly those
    (`market._kept`; the claims by identity), so a market, its reductions
    `without_american`, their restrictions `on_support` and `with_options`
    copies that change only American quotes solve it once.
    Later rounds and the certificate are made per call."""
    m = spec.market
    leaves = m.support_leaves()
    base_vars, base = _martingale_rows(m, leaves)
    fixed = list(base) + pricing_rows(spec, leaves, slack_var=SLACK_VAR)
    variables = base_vars + [SLACK_VAR]
    floor = tuple(l for l in leaves if l in spec.support_floor)
    tail = [int_con({_weight_var(l): 1, SLACK_VAR: -1}, GE, 0, 1, f"floor[{l}]")
            for l in floor]
    tail.append(int_con({SLACK_VAR: 1}, LE, 1, 1, "slack_cap"))

    weights = dict(zip(leaves, base_vars))
    stop_rows = [_stop_rows(h, cap, weights, SLACK_VAR) for h, cap in zip(m.h, m.h_prices)]

    def build(cuts: list[tuple[int, StoppingTime]]) -> LpProblem:
        rows = fixed + [stop_rows[k](tau, f"h[{k}]cut") for k, tau in cuts] + tail
        return LpProblem("max", {SLACK_VAR: 1}, rows, variables, free=frozenset({SLACK_VAR}))

    round0 = ("slack_round0", leaves, m.f, m.f_prices, m.g, m.g_prices, floor)
    sol, witness, cuts = solve_with_stop_cuts(build, spec, round0)
    if sol.status != "optimal":
        return SlackResult(status="infeasible",
                           certificate=_slack_certificate(m, fixed, cuts, sol.farkas))
    certificate = None
    if sol.objective <= 0:
        certificate = _slack_certificate(m, fixed, cuts, sol.duals)
    return SlackResult(status="optimal", optimum=sol.objective, witness=witness,
                       certificate=certificate)


def strict_emm_slack(market: MarketSpec) -> SlackResult:
    """`max_slack(PricingSetSpec.strict_emm(market))`, solved once per market
    object and kept on it (`market._kept`): strict no-arbitrage is a property
    of the market alone, so every later question on the same object, or on
    the same reduction `without_american`, reads this result, refusals
    included.  Only a rebuilt market decides it again."""
    return _kept(market, "strict_emm_slack",
                 lambda: max_slack(PricingSetSpec.strict_emm(market)))


def _slack_certificate(m: MarketSpec, fixed: Sequence[Constraint],
                       cuts: Sequence[tuple[int, StoppingTime]],
                       y: Sequence[Fraction]) -> HedgePortfolio:
    """The portfolio that multipliers `y` on the slack LP's rows spell out, as
    `StrategySpace` columns: row `mart[n][l]` gives H[n][l], `f[i]` gives
    a[i], `g[j]` gives b[j], and each stop cut (k, tau) adds its multiplier
    to c[k] and to nu[k] at tau's stop nodes.  `y` lists the `fixed` rows
    first and the cut rows next, in the order `max_slack`'s LP holds them.

    Priced at the market's quotes, its value at a support leaf l is the
    multipliers' column sum at w[l] minus their rhs sum.  For optimal duals
    that is >= |y_floor[l]| + y_cap - optimum, and the free slack's column
    makes sum y_g + sum y_cut + sum |y_floor| + y_cap = 1; so it is >= 0 when
    the optimum is <= 0, and if it vanishes on the support it is worth exactly
    eps at caps lowered by eps.  For Farkas multipliers the slack's column
    forces every g, cut, floor and cap multiplier to 0 and the value is
    >= -(Farkas total) > 0 on every support leaf."""
    column = {"mart": "H", "f": "a", "g": "b"}
    values: dict[str, Fraction] = {}
    for row, yi in zip(fixed, y):
        kind, _, rest = row.name.partition("[")
        if kind in column:
            values[f"{column[kind]}[{rest}"] = yi
    for (k, tau), yi in zip(cuts, y[len(fixed):]):
        for var in [f"c[{k}]"] + [f"nu[{k}][{n}]" for n in tau.stop_nodes]:
            values[var] = values.get(var, ZERO) + yi
    return StrategySpace(m).extract_portfolio(values)


@dataclass
class MembershipReport:
    violations: list[str]

    def __bool__(self) -> bool:
        return not self.violations


def membership(Q: Measure, spec: PricingSetSpec, strict: bool) -> MembershipReport:
    """Exact membership of a measure in the pricing set, naming violations.

    American caps are checked through the exercise envelope (all stopping
    times at once).  `strict` toggles strict option caps and a strictly
    positive floor."""
    m = spec.market
    bad: list[str] = []
    off_support = Q.support() - frozenset(m.support_leaves())
    if off_support:
        bad.append(f"support outside the market support: {sorted(off_support)}")
    tree = m.tree
    mass = Q.masses()
    stock = [m.S.scaled(l_idx) for l_idx in range(m.dim)]
    for node in tree.nonleaf_nodes():
        for l_idx, (den, s) in enumerate(stock):
            drift = sum([(s[c] - s[node]) * mass[c] for c in tree.children(node)])
            if drift != 0:
                bad.append(f"martingale drift {rat_str(Fraction(drift, den * Q.den))} "
                           f"at node {node} component {l_idx}")
    for i, (claim, price) in enumerate(zip(m.f, m.f_prices)):
        got = Q.expect_claim(claim)
        if got != price:
            bad.append(f"f[{i}] prices at {rat_str(got)} != {rat_str(price)}")
    for j, (claim, cap) in enumerate(zip(m.g, m.g_prices)):
        got = Q.expect_claim(claim)
        if got > cap or (strict and got == cap):
            rel = "<" if strict else "<="
            bad.append(f"g[{j}] expectation {rat_str(got)} !{rel} {rat_str(cap)}")
    for k, (h, cap) in enumerate(zip(m.h, m.h_prices)):
        V, den = _unnormalized_snell(Q, h)
        got = V[tree.root]
        over = got * cap.denominator - cap.numerator * den
        if over > 0 or (strict and over == 0):
            rel = "<" if strict else "<="
            bad.append(f"h[{k}] exercise envelope {rat_str(Fraction(got, den))} "
                       f"!{rel} {rat_str(cap)}")
    for l in sorted(spec.support_floor):
        w = Q.at(l)
        if strict and w <= 0:
            bad.append(f"floor leaf {l} has zero weight")
        elif w < 0:
            bad.append(f"negative weight at {l}")
    return MembershipReport(bad)


def polytope_vertices_as_measures(poly: Polytope, tree: EventTree) -> list[Measure]:
    """The vertices of a polytope over leaf weights (`w[leaf]`), from one
    `vertices` call, as measures."""
    leaves = [name[2:-1] for name in poly.variables if name.startswith("w[")]
    return [_measure_of(leaves, vert, tree) for vert in vertices(poly)]
