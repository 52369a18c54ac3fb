"""Multi-prior (quasi-sure) markets: robust hedging, robust strict
no-arbitrage, dominating pricing measures, and the finite-scale minimax
identity.

A prior set is a finite list of measures.  "Quasi-sure" constraints hold
pointwise on the union of the prior supports; a measure is dominated by the
prior set when its support fits inside the support of a single prior, so the
robust pricing set is a union of per-prior polytopes (not convex).  Duals are
therefore minima across per-prior components.  A component is priced the way
every hedge is: by the hedge LP of the market restricted to that prior's
support (`MarketSpec.on_support`), whose leaf duals are the component's
attaining measure.  There is no reference measure: a `RobustSpec` restricts
its market to the union support once, when the spec is made, so a market
file's `support` moves no robust answer.  The quasi-sure questions (the
robust hedge's portfolio, the verdict's `check_na` fallbacks and witness
re-check, the domination's caps) are asked of that market, and each
component's slack of it restricted further to the component's support.

Only the maximal prior supports are asked (`_maximal`): a component or prior
whose support lies inside an earlier prior's is skipped.  Its component's
slack LP is the earlier component's with some weights fixed at 0, so its
optimum is no higher; the prior's own best slack has every component of the
earlier prior as a candidate and fewer floor rows, so it is no lower and moves
neither the verdict nor the uniform slack (a minimum); and its component's
sub-hedge LP has fewer pointwise leaf rows, so it prices no lower.  The
earlier one wins every tie, so each answer is bit-identical to asking every
support.

Raw finite lists are not closed under mixing priors node by node.  When no
prior dominates the whole list, a martingale measure can straddle two prior
supports without belonging to any component, and the quasi-sure hedging LP can
then be strictly cheaper than every component dual.  Such instances raise
RobustDualityGapError rather than returning an inconsistent certificate; prior
lists in which the first prior dominates the rest (the usual
reference-plus-stress shape) never hit this.

Robust strict no-arbitrage of the stock-plus-European part is the standing
hypothesis of robust hedging and domination.  Quasi-sure means pointwise on
the union support and domination means support inclusion, so the verdict,
each prior's best component slack and the robust sub-hedge that
`dominating_measure` mixes in depend on the priors only through their
supports.  Each is decided once per market object and tuple of prior supports
and kept on the market (`market._kept`); a `RobustSpec` is a plain pair, and
the specs `reduced()` derives share the market's reductions
(`MarketSpec.without_american`) and so their decisions.  A restricted market
is one object per market and leaf set and keeps its own LP rows, the
strategy columns' included, so they are built once for every question asked
of it.  Only a rebuilt market decides again.  The certificate checks of every
hedge and domination still run per call.

The minimax identity over a hull of measures takes no LP when one vertex is
the strict optimum: that vertex's exercise envelopes give the worst case, and
their optimal stops, worth more at every other vertex, are the exercise
flows.  Only otherwise does it solve the stop-side LP over every enumerated
stopping time, whose duals are the flows."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .hedging import (
    HedgeResult,
    INFINITE_PRICE,
    PriceInfinity,
    duality_gap_report,
    hedge_primal,
)
from .ftap import ARBITRAGE, NO_ARBITRAGE, STRICT_NO_ARBITRAGE_FAILS, ArbitrageVerdict
from .ftap import check_na, lowered_quotes
from .lp import EQ, LE, ZERO, LpProblem, VerificationFailure, int_con, solve
from .market import MarketSpec, _kept
from .measures import (
    Measure,
    PricingSetSpec,
    SlackResult,
    max_slack,
    membership,
)
from .rational import rat_str
from .stopping import (
    LiquidatingStrategy,
    enumerate_stopping_times,
    snell_optimal_stop,
    snell_value,
)
from .tree import AdaptedProcess, TreeError


class RobustError(RuntimeError):
    pass


class HypothesisFailure(RobustError):
    """The standing no-arbitrage hypothesis failed; carries the verdict."""

    def __init__(self, verdict: ArbitrageVerdict):
        self.verdict = verdict
        super().__init__(f"robust strict no-arbitrage hypothesis fails: {verdict.verdict}")


class RobustDualityGapError(RobustError):
    """The quasi-sure hedge LP and the per-prior component duals disagree.

    Possible only when no single prior dominates the list: a measure mixing
    prior supports prices the claim below every component.  The prior list is
    then not closed under node-wise recombination and the component reading of
    "dominated by the prior set" genuinely differs from the hedging LP."""

    def __init__(self, primal, dual):
        self.primal = primal
        self.dual = dual
        super().__init__(
            f"quasi-sure hedge value {primal} < component dual {dual}; "
            "the prior list is not recombination-closed"
        )


@dataclass(frozen=True)
class PriorSet:
    priors: tuple[Measure, ...]

    def __post_init__(self):
        if not self.priors:
            raise RobustError("prior set must be nonempty")
        tree = self.priors[0].tree
        for P in self.priors:
            if P.tree is not tree:
                raise RobustError("priors must share one tree")

    def __iter__(self):
        return iter(self.priors)

    def __len__(self):
        return len(self.priors)


def union_support(priors: PriorSet) -> frozenset[str]:
    """Quasi-sure pointwise constraints range over exactly this leaf set."""
    out: frozenset[str] = frozenset()
    for P in priors:
        out |= P.support()
    return out


@dataclass(frozen=True)
class RobustSpec:
    market: MarketSpec
    priors: PriorSet

    def __post_init__(self):
        """`market` is made the quasi-sure market: the given one restricted to
        the union of the prior supports (itself when that is its support)."""
        if any(P.tree is not self.market.tree for P in self.priors):
            raise RobustError("priors must live on the market's tree")
        object.__setattr__(self, "market", self.market.on_support(union_support(self.priors)))

    def reduced(self, keep_american: int) -> "RobustSpec":
        return RobustSpec(self.market.without_american(keep_american), self.priors)


def _supports(spec: RobustSpec) -> tuple[frozenset[str], ...]:
    """The prior supports: all that the market's robust decisions read of the
    priors, and the key they are kept under."""
    return tuple(P.support() for P in spec.priors)


def _maximal(supports: Sequence[frozenset[str]]) -> list[frozenset[str]]:
    """The supports not contained in an earlier one, in order: the only ones a
    robust question is asked of (the module docstring says why skipping the
    others changes no answer)."""
    out: list[frozenset[str]] = []
    for s in supports:
        if not any(s <= kept for kept in out):
            out.append(s)
    return out


def _dominating_slack(spec: RobustSpec, floor: frozenset[str]) -> SlackResult | None:
    """The best uniform slack of a measure dominating a prior with support
    `floor`: per component whose support contains the floor, caps shifted by
    t and weight >= t on the floor, maximized over those components; None
    when all of them are empty.  It depends on the prior supports only and is
    solved once per market, prior supports and floor.

    Only the `_maximal` carriers are solved: a carrier inside an earlier one
    (which then contains the floor too) poses the earlier one's slack LP
    with some weights fixed at 0, so its optimum is no higher, it is
    infeasible whenever the earlier one is, and the earlier one wins ties."""
    m, supports = spec.market, _supports(spec)

    def solve_components() -> SlackResult | None:
        best: SlackResult | None = None
        for carrier in _maximal(supports):
            if not floor <= carrier:
                continue
            res = max_slack(PricingSetSpec(m.on_support(carrier), support_floor=floor))
            if res.status != "optimal":
                continue
            if best is None or res.optimum > best.optimum:
                best = res
        return best

    return _kept(m, ("dominating_slack", supports, floor), solve_components)


def check_sna_robust(spec: RobustSpec) -> ArbitrageVerdict:
    """Robust strict no-arbitrage: for a common strict shift of the buy-only
    quotes, every prior must be dominated by a measure from some component.

    Decided by per-prior slack LPs (maximized over the components whose
    support contains the prior's); the verdict's slacks give the common
    shifted quotes.  Only the priors with `_maximal` supports are asked: a
    prior whose support lies inside an earlier prior's has every component
    of that prior as a candidate and fewer floor rows, so its best slack is
    at least the earlier prior's and changes neither the decision nor the
    uniform slack (the minimum); the first prior, whose witness is the
    verdict's `pricing`, is always asked.  The verdict and the slacks depend
    on the priors only through their supports, so each is decided once per
    market and prior supports and kept on the market, where
    `_check_hypothesis` reads it too.  A NO_ARBITRAGE verdict's witness is
    re-checked on every call: strictly a pricing measure of the spec's
    market (restricted to the union support when the spec was made),
    floored on the first prior's support, and dominated by some prior."""
    supports = _supports(spec)
    verdict = _kept(spec.market, ("robust_verdict", supports), lambda: _robust_verdict(spec))
    if verdict.verdict == NO_ARBITRAGE:
        Q, floored = verdict.pricing, PricingSetSpec(spec.market, support_floor=supports[0])
        report = membership(Q, floored, strict=True)
        if not report or not any(Q.support() <= s for s in supports):
            raise VerificationFailure("robust witness fails its re-check: " + (
                "; ".join(report.violations) or "support inside no prior's support"))
    return verdict


def _robust_verdict(spec: RobustSpec) -> ArbitrageVerdict:
    m = spec.market
    slacks = []
    for floor in _maximal(_supports(spec)):
        best = _dominating_slack(spec, floor)
        if best is None or not best.strictly_positive:
            break
        slacks.append(best)
    else:
        t = min(s.optimum for s in slacks)
        return ArbitrageVerdict(
            verdict=NO_ARBITRAGE,
            pricing=slacks[0].witness,
            g_slacks=tuple(t for _ in m.g),
            h_slacks=tuple(t for _ in m.h),
            notes=f"robust strict no-arbitrage holds with uniform slack {rat_str(t)}; "
                  f"{len(spec.priors)} dominating witnesses",
        )
    plain = check_na(m)
    if plain.verdict == ARBITRAGE:
        return plain
    if m.g or m.h:
        shifted = check_na(lowered_quotes(m))
        if shifted.verdict == ARBITRAGE:
            return ArbitrageVerdict(
                verdict=STRICT_NO_ARBITRAGE_FAILS,
                portfolio=shifted.portfolio,
                shifted_g=shifted.shifted_g, shifted_h=shifted.shifted_h,
                notes="no dominating measures under any uniform strict shift",
            )
    return ArbitrageVerdict(
        verdict=STRICT_NO_ARBITRAGE_FAILS,
        notes="no dominating measures under any uniform strict shift",
    )


def _check_hypothesis(spec: RobustSpec) -> None:
    """Robust strict no-arbitrage of the stock-plus-European part, decided
    once per market and prior supports (`check_sna_robust`)."""
    verdict = check_sna_robust(spec.reduced(0))
    if verdict.verdict != NO_ARBITRAGE:
        raise HypothesisFailure(verdict)


def sub_hedge_robust(spec: RobustSpec, claim) -> HedgeResult:
    """Robust sub-hedging: pointwise on the union support, priced by the
    cheapest per-prior component.  Requires robust strict no-arbitrage of the
    stock-plus-European part.

    One hedge per market among the spec's market (already restricted to the
    union support) and its restrictions to the `_maximal` prior supports
    (`MarketSpec.on_support`): the spec's market's hedge gives the
    portfolio, and each such prior's, hedging on that prior's support only,
    prices its component (unbounded when the component is empty) and
    carries its measure in the leaf duals.  A prior whose support lies
    inside an earlier prior's is not hedged: its hedge LP has fewer
    pointwise leaf rows, so its optimum is no lower (or it is unbounded),
    and the earlier prior wins ties.  The result's market is the spec's
    market, on whose support `duality_gap_report` re-checks the portfolio;
    its dual is the attaining component measure (the first prior wins ties),
    checked against that component (the market restricted to the attaining
    prior's support)."""
    _check_hypothesis(spec)
    m = spec.market
    american = isinstance(claim, AdaptedProcess)
    kind = "sub_am" if american else "sub_eu"
    solved: dict[frozenset[str], tuple] = {}

    def hedge(leaves: frozenset[str]):
        if leaves not in solved:
            solved[leaves] = hedge_primal(m.on_support(leaves), claim, kind)
        return solved[leaves]

    primal, space, _ = hedge(m.support)
    best = None
    for leaves in _maximal(_supports(spec)):
        sol, _, Q = hedge(leaves)
        if sol.status != "optimal":
            continue  # the hedge LP is feasible, so unbounded: an empty component
        if best is None or sol.objective < best[0]:
            best = (sol.objective, Q, leaves)
    if best is None:
        if primal.status == "optimal":
            raise RobustDualityGapError(primal.objective, INFINITE_PRICE)
        return HedgeResult(
            kind=kind, market=m, claim=claim, price=INFINITE_PRICE,
            details={"pricing_set_empty": True},
        )
    if primal.status != "optimal":
        raise RobustError(f"quasi-sure hedge LP is {primal.status}")
    dual_value, Q, leaves = best
    if primal.objective != dual_value:
        raise RobustDualityGapError(primal.objective, dual_value)
    result = HedgeResult(
        kind=kind, market=m, claim=claim, price=dual_value,
        portfolio=space.extract_portfolio(primal.values),
        eta=space.extract_eta(primal.values) if american else None, dual=Q,
        details={"dual_spec": PricingSetSpec(m.on_support(leaves))},
    )
    duality_gap_report(result)
    return result


@dataclass
class DominationResult:
    g_tilde: tuple[Fraction, ...]
    h_tilde: tuple[Fraction, ...]
    Q: Measure
    lam: Fraction | None = None


def dominating_measure(spec: RobustSpec, P: Measure) -> DominationResult:
    """A pricing measure dominating the prior P with strictly improved caps.

    Constructive induction on the number of American options: the base case is
    the per-component slack LP; the step sub-hedges the last option in the
    reduced market, takes the attaining measure, and mixes it with the
    recursively obtained dominating measure, the mixture weight chosen so the
    last option's exercise value stays strictly under its quote.  The
    sub-hedge does not depend on P and is solved once per market and prior
    supports.  The reduced markets it builds ask the slack LPs that the full
    market's robust check solved as their first cut rounds, so they read
    those solutions off the stock process (`measures.max_slack`) instead of
    solving them again.  Every claimed property of the output is re-verified
    exactly."""
    m = spec.market
    n = len(m.h)
    if n == 0:
        best = _dominating_slack(spec, P.support())
        if best is None or not best.strictly_positive:
            raise RobustError(
                "no dominating pricing measure: robust strict no-arbitrage fails"
            )
        t = best.optimum
        result = DominationResult(
            g_tilde=tuple(p - t for p in m.g_prices), h_tilde=(), Q=best.witness,
        )
        _verify_domination(spec, P, result)
        return result

    reduced = spec.reduced(n - 1)
    h_last, quote = m.h[n - 1], m.h_prices[n - 1]
    sub = _kept(m, ("sub_hedge", _supports(spec)), lambda: sub_hedge_robust(reduced, h_last))
    if isinstance(sub.price, PriceInfinity):
        raise RobustError("reduced pricing set is empty; cannot dominate")
    v = sub.price
    if v >= quote:
        raise RobustError(
            f"sub-hedge value {rat_str(v)} of the last American option is not "
            f"below its quote {rat_str(quote)}: robust strict no-arbitrage fails"
        )
    Q_hat = sub.dual
    mid = (v + quote) / 2
    bound = max(abs(h_last.scalar_at(node)) for node in m.tree.nodes) + 1
    bound = max(bound, mid + 1)
    prev = dominating_measure(reduced, P)
    lam = min(Fraction(1, 2), (quote - mid) / (2 * (bound - mid)))
    Q = prev.Q.mixture(Q_hat, lam)
    g_tilde = tuple(lam * gs + (1 - lam) * gp
                    for gs, gp in zip(prev.g_tilde, m.g_prices))
    h_tilde = tuple(lam * hs + (1 - lam) * hp
                    for hs, hp in zip(prev.h_tilde, m.h_prices[: n - 1]))
    h_tilde += (lam * bound + (1 - lam) * mid,)
    result = DominationResult(g_tilde=g_tilde, h_tilde=h_tilde, Q=Q, lam=lam)
    _verify_domination(spec, P, result)
    return result


def _verify_domination(spec: RobustSpec, P: Measure, result: DominationResult) -> None:
    m = spec.market
    Q = result.Q
    if not P.support() <= Q.support():
        raise VerificationFailure("dominating measure misses part of the prior's support")
    if not any(Q.support() <= Pj.support() for Pj in spec.priors):
        raise VerificationFailure(
            "dominating measure is not dominated by any prior (recombination gap)"
        )
    for g_t, g_p in zip(result.g_tilde, m.g_prices):
        if not g_t < g_p:
            raise VerificationFailure("European caps are not strictly improved")
    for h_t, h_p in zip(result.h_tilde, m.h_prices):
        if not h_t < h_p:
            raise VerificationFailure("American caps are not strictly improved")
    improved = m.with_options(g_prices=result.g_tilde, h_prices=result.h_tilde)
    report = membership(Q, PricingSetSpec(improved), strict=False)
    if not report:
        raise VerificationFailure(
            "dominating measure violates: " + "; ".join(report.violations)
        )


# ---------------------------------------------------------------------------
# Finite-scale minimax identity
# ---------------------------------------------------------------------------

@dataclass
class MinimaxResult:
    lhs: Fraction  # worst vertex value of the exercise flows
    mid: Fraction  # summed exercise envelopes under the attaining measure
    rhs: Fraction  # the worst case over the hull: its least summed envelope
    attaining: Measure

    def values(self):
        return self.lhs, self.mid, self.rhs


def minimax_check(
    R_vertices: Sequence[Measure], h_list: Sequence[AdaptedProcess]
) -> MinimaxResult:
    """Prove sup over flows inf over the hull = inf over the hull sup over
    flows for liquidating the options, over the convex hull of the given
    vertices, with at most one LP.

    rhs is the least summed exercise envelope over the hull and the
    attaining measure a mixture of the vertices that has it; lhs is the
    worst vertex value, sum_k E_R[eta_k . h_k], of one exercise flow eta_k
    per option.  When one vertex is the strict optimum, its envelopes and
    their optimal stops give rhs, the mixture and lhs with no LP and no
    enumerated stop (`_strict_vertex`).  Otherwise the stop-side LP over
    every stopping time gives them (`_stop_side_lp`).  The attaining
    measure is built from the mixture weights the same way on both paths,
    and mid, the summed exercise envelopes under it, is recomputed.

    Weak duality gives lhs <= sup_flow inf_Q <= inf_Q sup_flow <= mid, so
    lhs == mid == rhs proves the identity; anything else raises
    `VerificationFailure`."""
    if not R_vertices:
        raise RobustError("empty vertex list")
    tree = R_vertices[0].tree
    for R in R_vertices:
        if R.tree is not tree:
            raise RobustError("vertices must share one tree")
    for h in h_list:
        if h.tree is not tree:
            raise RobustError("options must live on the vertex tree")
    if not h_list:
        raise RobustError("empty option list")

    rhs, lams, lhs = _strict_vertex(R_vertices, h_list) or _stop_side_lp(R_vertices, h_list)
    den = lcm(*[lam.denominator * R.den for lam, R in zip(lams, R_vertices)])
    mixture_w: dict[str, int] = {}
    for lam, R in zip(lams, R_vertices):
        scale = lam.numerator * (den // (lam.denominator * R.den))
        for leaf, wl in R.num.items():
            mixture_w[leaf] = mixture_w.get(leaf, 0) + scale * wl
    attaining = Measure._built(tree, {leaf: Fraction(w, den) for leaf, w in mixture_w.items()})
    mid = sum((snell_value(attaining, h) for h in h_list), ZERO)
    if mid != rhs:
        raise VerificationFailure(
            f"attaining measure gives {rat_str(mid)}, expected {rat_str(rhs)}"
        )
    if not (lhs == mid == rhs):
        raise VerificationFailure(
            f"minimax identity broken: {rat_str(lhs)}, {rat_str(mid)}, {rat_str(rhs)}"
        )
    return MinimaxResult(lhs=lhs, mid=mid, rhs=rhs, attaining=attaining)


def _strict_vertex(R_vertices: Sequence[Measure], h_list: Sequence[AdaptedProcess]
                   ) -> tuple[Fraction, list[Fraction], Fraction] | None:
    """rhs, the mixture weights and lhs from the one vertex whose optimal
    stops prove it the strict optimum, or None for the stop-side LP to decide.

    Vertex b has the least summed envelope v_b = sum_k snell_value(R_b, h_k)
    (None on a tie), and tau_k is its optimal stop of option k
    (`snell_optimal_stop`, re-checked to attain the envelope).  The stops'
    {0,1} flows are worth c_j = sum_k E_{R_j}[h_k at tau_k] at vertex j, and
    c_b = v_b, re-checked here too: a stop that misses raises, it does not
    fall back to the LP.  At a mixture lambda the summed envelopes are at
    least sum_j lambda_j c_j, so when every other c_j exceeds v_b, the
    stop-side LP's optimum is v_b, attained at lambda = e_b alone: rhs = v_b,
    lhs = min_j c_j."""
    sums = [sum((snell_value(R, h) for h in h_list), ZERO) for R in R_vertices]
    v = min(sums)
    if sums.count(v) > 1:
        return None
    b = sums.index(v)
    taus = [snell_optimal_stop(R_vertices[b], h) for h in h_list]
    values = [sum((R.expect_at_stop(h, tau) for h, tau in zip(h_list, taus)), ZERO)
              for R in R_vertices]
    if values[b] != v:
        raise VerificationFailure(
            f"optimal stops of vertex {b} are worth {rat_str(values[b])}, "
            f"its summed envelopes {rat_str(v)}"
        )
    if any(c <= v for j, c in enumerate(values) if j != b):
        return None
    return v, [Fraction(j == b) for j in range(len(R_vertices))], min(values)


def _stop_side_lp(R_vertices: Sequence[Measure], h_list: Sequence[AdaptedProcess]
                  ) -> tuple[Fraction, list[Fraction], Fraction]:
    """rhs, the mixture weights and lhs from one LP over every stopping time.

    The LP takes the worst hull mixture, one epigraph variable per option
    (the worst stop combination of a separable sum is the worst stop of each
    option); its optimum is rhs and its optimal mixture the weights.  Minus
    the duals of option k's stop rows are weights on the stopping times (the
    free epigraph column makes them sum to one), so they give option k an
    exercise flow, eta(n) = the weight of the times that stop at n, and lhs
    is the flows' worst vertex value."""
    tree = R_vertices[0].tree
    N = len(h_list)
    # every stopping time, one epigraph variable per option; a vertex's
    # E[h_k at tau] sums h_k times the vertex's mass under each stop node, and
    # every row is over the lcm of the vertices' denominators times h_k's
    scaled = [h.scaled() for h in h_list]
    taus = enumerate_stopping_times(tree)
    lam_vars = [f"lam[{i}]" for i in range(len(R_vertices))]
    w_vars = [f"w[{k}]" for k in range(N)]
    vertex_den = lcm(*[R.den for R in R_vertices])
    vertex_masses = [(lam, R.masses(), vertex_den // R.den)
                     for lam, R in zip(lam_vars, R_vertices)]
    rows = [int_con({v: 1 for v in lam_vars}, EQ, 1, 1, "hull")]
    for k, (d, value) in enumerate(scaled):
        for t_idx, tau in enumerate(taus):
            num = {}
            for lam, mass, scale in vertex_masses:
                e = sum([mass[n] * value[n] for n in tau.stop_nodes])
                if e:
                    num[lam] = e * scale
            num[w_vars[k]] = -vertex_den * d
            rows.append(int_con(num, LE, 0, vertex_den * d, f"stop[{k}][{t_idx}]"))
    sol = solve(LpProblem("min", {w: 1 for w in w_vars}, rows, lam_vars + w_vars,
                          free=frozenset(w_vars)))
    if sol.status != "optimal":
        raise RobustError(f"stop-side LP is {sol.status}")
    lams = [sol.values.get(v, ZERO) for v in lam_vars]

    # option k's stop rows start after the hull row
    flows = []
    for k in range(N):
        eta = dict.fromkeys(tree.nodes, ZERO)
        for tau, y in zip(taus, sol.duals[1 + k * len(taus):]):
            if y:
                for n in tau.stop_nodes:
                    eta[n] -= y
        try:
            flows.append(LiquidatingStrategy(AdaptedProcess(tree, eta)).eta.scaled())
        except TreeError as exc:
            raise VerificationFailure(f"stop-side duals of option {k}: {exc}") from exc
    dens = [de * dh for (de, _), (dh, _) in zip(flows, scaled)]
    flow_den = lcm(*dens)

    def vertex_value(R: Measure) -> Fraction:
        """sum_k E_R[eta_k . h_k], over R's, the flows' and h's denominators."""
        mass = R.masses()
        total = sum([(flow_den // d) * sum([mass[n] * e[n] * value[n] for n in tree.nodes])
                     for (_, e), (_, value), d in zip(flows, scaled, dens)])
        return Fraction(total, R.den * flow_den)

    return sol.objective, lams, min(vertex_value(R) for R in R_vertices)
