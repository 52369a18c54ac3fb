"""Sub- and super-hedging prices with primal strategies and dual certificates.

The bilinear American term c * mu(h) is re-parametrized as a single
nonnegative exercise flow nu := c * mu whose path sums agree across all paths
(their common value is the holding c).  That re-parametrization is exact and
turns every divisible hedging problem into one LP; it is precisely what
infinite divisibility buys.  The indivisible super-hedge keeps a whole-unit
exercise (one stopping time for the entire holding).  Exercised whole at a
fixed stop tau, the option is the buy-only European claim h(tau) at its quote
(`MarketSpec.exercised_at`), so each stop is priced as a divisible super-hedge
of that stopped market and the cheapest stop wins; the minimum over stops is
where the divisible/indivisible price gap shows up.

Every operation solves one strategy LP.  The indivisible super-hedge solves
one per stop, except where a stock-only pricing measure read off an earlier
stop's leaf duals already proves the stop is worth the stock-only value.
An LP's optimum is the price, its solution the hedging strategy, and the
exact duals on its `leaf[...]` rows a pricing measure in the closed pricing
set that attains the price: LP duality carries the FTAP duality, and for the
American part the Snell envelope is the LP dual of the exercise flow (Manne
1960).  `duality_gap_report` re-verifies a result from scratch, trusting
nothing from the solver: the strategy by evaluating it on every leaf in one
pass (`portfolio_values`), the measure through exact membership, and the
measure's value against the price, which closes the gap by weak duality.

Every hedge requires strict no-arbitrage of its market.  That is a property
of the market alone, so the strict-EMM slack LP that decides it is solved once
per market object (`measures.strict_emm_slack`) and kept on it: the four
hedges of one market share one solve, and on an arbitrage market each of them
raises `ArbitrageRefusal` with the same stored slack.  Only the hedge LP and
its re-verification run per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from .lp import GE, ZERO, LpProblem, LpSolution, VerificationFailure, int_con, solve
from .market import HedgePortfolio, MarketSpec, StrategySpace, portfolio_values
from .measures import (
    Measure,
    PricingSetSpec,
    SlackResult,
    _capped_rows,
    _martingale_rows,
    _measure_of,
    _stop_rows,
    _weight_var,
    membership,
    strict_emm_slack,
)
from .rational import rat_str
from .stopping import (
    LiquidatingStrategy,
    enumerate_stopping_times,
    snell_value,
)
from .tree import AdaptedProcess, EventTree, TerminalClaim


class HedgingError(RuntimeError):
    pass


class ArbitrageRefusal(HedgingError):
    """Hedging was refused because strict no-arbitrage fails; carries the
    slack certificate."""

    def __init__(self, slack: SlackResult):
        self.slack = slack
        super().__init__(
            "strict no-arbitrage fails "
            f"(slack status {slack.status}, optimum {slack.optimum})"
        )


class PriceInfinity:
    """Tagged +infinity sentinel for prices over an empty pricing set;
    `INFINITE_PRICE` is its one instance."""

    def __repr__(self):
        return "+inf"


INFINITE_PRICE = PriceInfinity()


# ---------------------------------------------------------------------------
# Primal hedging LPs
# ---------------------------------------------------------------------------

def _leaf_dual(problem: LpProblem, sol: LpSolution, tree: EventTree) -> Measure:
    """The pricing measure an optimal hedge LP carries: the duals of its
    `leaf[...]` rows.  The free capital x enters every leaf row with
    coefficient -1 in a max LP and +1 in a min LP, so its zero reduced cost
    makes these duals total -1 or +1; the sense's sign makes them weights."""
    sign = -1 if problem.sense == "max" else 1
    return Measure._built(tree, {row.name[5:-1]: sign * y
                                 for row, y in zip(problem.constraints, sol.duals)
                                 if y and row.name.startswith("leaf[")})


def hedge_primal(market: MarketSpec, claim,
                 kind: str) -> tuple[LpSolution, StrategySpace, Measure | None]:
    """The strategy-side LP, pointwise on the market's support leaves, its
    column layout, and (when optimal) its leaf-dual pricing measure.

    kind "sub_eu":    max x s.t. Phi + psi >= x pointwise,
    kind "sub_am":    max x s.t. Phi + eta(phi) >= x pointwise, eta a flow,
    kind "super_div": min x s.t. x + Phi >= psi pointwise.
    """
    leaves = market.support_leaves()
    if kind not in ("sub_eu", "sub_am", "super_div"):
        raise ValueError(f"unknown hedge kind {kind!r}")
    space = StrategySpace(market, include_eta=(kind == "sub_am"))
    rows = space.structure_rows()
    claim_den, value = claim.scaled()
    for leaf in leaves:
        # phi + x-term (+ eta . claim) >= bound, over lcm(phi's den, claim's)
        phi_den, phi = space.phi_coeffs(leaf)
        den = lcm(phi_den, claim_den)
        k, kc = den // phi_den, den // claim_den
        num = {v: c * k for v, c in phi.items()}
        if kind == "sub_eu":
            num["x"], bound = -den, -kc * value[leaf]
        elif kind == "super_div":
            num["x"], bound = den, kc * value[leaf]
        else:
            for n in market.tree.path(leaf):
                if value[n]:
                    num[f"eta[{n}]"] = kc * value[n]
            num["x"], bound = -den, 0
        rows.append(int_con(num, GE, bound, den, f"leaf[{leaf}]"))
    variables = ["x"] + space.variables
    sense = "min" if kind == "super_div" else "max"
    problem = LpProblem(sense, {"x": 1}, rows, variables,
                        free=frozenset({"x"}) | space.free)
    sol = solve(problem)
    Q = _leaf_dual(problem, sol, market.tree) if sol.status == "optimal" else None
    return sol, space, Q


# ---------------------------------------------------------------------------
# Dual LPs over the closure of the pricing set
# ---------------------------------------------------------------------------

def dual_optimum(spec: PricingSetSpec, claim, kind: str) -> tuple[LpSolution, Measure | None]:
    """Optimize over the closure polytope: min E psi ("sub_eu"), max E psi
    ("super_div"), or min of the exercise value sup_tau E phi_tau ("sub_am",
    epigraph form); return the solution and, when optimal, its measure.

    One LP over the closure polytope's rows, which cap every American option
    at every stopping time, without its rows w[l] >= 0: the solver keeps
    every non-free column >= 0 already.  "sub_am" adds a free z and one
    epigraph row E[phi_tau] - z <= 0 per stopping time, Manne's (1960) dual
    of optimal stopping.  Trees with more than DEFAULT_ENUM_CAP stopping
    times raise EnumerationCapError.

    This is the closure-side reference formulation, on no hedge path: every
    hedge reads its measure off the leaf duals of its own strategy LP.  The
    tests compare hedge prices (primal == dual) against it, and the
    benchmark's traced run counts its calls.  To restrict the weights to a
    leaf subset, pass a market whose `support` is that subset."""
    m = spec.market
    leaves = m.support_leaves()
    taus = enumerate_stopping_times(m.tree)
    base_vars, base = _martingale_rows(m, leaves)
    variables, free = list(base_vars), frozenset()
    rows = [*base, *_capped_rows(spec, leaves, variables, taus)]
    if kind in ("sub_eu", "super_div"):
        objective = {_weight_var(l): claim.at(l) for l in leaves if claim.at(l)}
        sense = "min" if kind == "sub_eu" else "max"
    elif kind == "sub_am":
        epi = _stop_rows(claim, ZERO, dict(zip(leaves, variables)), "z", -1)
        rows += [epi(tau, f"epi[{t_idx}]") for t_idx, tau in enumerate(taus)]
        variables.append("z")
        free, objective, sense = frozenset({"z"}), {"z": 1}, "min"
    else:
        raise ValueError(f"unknown dual kind {kind!r}")
    sol = solve(LpProblem(sense, objective, rows, variables, free=free))
    return sol, _measure_of(leaves, sol.values, m.tree) if sol.status == "optimal" else None


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class HedgeResult:
    kind: str
    market: MarketSpec
    claim: object
    price: Fraction | PriceInfinity
    portfolio: HedgePortfolio | None = None
    eta: LiquidatingStrategy | None = None
    dual: Measure | None = None
    gap: Fraction = ZERO
    details: dict = field(default_factory=dict)

    def __repr__(self):
        p = repr(self.price) if isinstance(self.price, PriceInfinity) else rat_str(self.price)
        return f"HedgeResult({self.kind}, price={p})"


def _require_sna(market: MarketSpec) -> SlackResult:
    slack = strict_emm_slack(market)
    if not slack.strictly_positive:
        raise ArbitrageRefusal(slack)
    return slack


def _hedge(market: MarketSpec, claim, kind: str) -> HedgeResult:
    _require_sna(market)
    primal, space, Q = hedge_primal(market, claim, kind)
    if primal.status != "optimal":
        raise HedgingError(f"hedging LP is {primal.status}")
    result = HedgeResult(
        kind=kind, market=market, claim=claim, price=primal.objective,
        portfolio=space.extract_portfolio(primal.values),
        eta=space.extract_eta(primal.values) if space.include_eta else None, dual=Q,
    )
    duality_gap_report(result)
    return result


def sub_hedge_european(market: MarketSpec, psi: TerminalClaim) -> HedgeResult:
    """Largest x guaranteed by a strategy plus the claim; equals the minimum
    of E_Q psi over the closed pricing set, exactly."""
    return _hedge(market, psi, "sub_eu")


def sub_hedge_american(market: MarketSpec, phi: AdaptedProcess) -> HedgeResult:
    """Sub-hedging price of an American claim liquidated by an exercise flow;
    equals min over the closed pricing set of the claim's exercise value."""
    return _hedge(market, phi, "sub_am")


def super_hedge_divisible(market: MarketSpec, psi: TerminalClaim) -> HedgeResult:
    """Smallest initial capital whose semi-static portfolio dominates the
    claim pointwise; equals max of E_Q psi over the closed pricing set."""
    return _hedge(market, psi, "super_div")


def super_hedge_indivisible(market: MarketSpec, psi: TerminalClaim) -> HedgeResult:
    """Super-hedge with the stock and the one American option only (the `f`
    and `g` books are not traded), held whole and exercised at one stopping
    time.  Exercised whole at a stop tau, the option is the buy-only European
    claim h(tau) at its quote (`MarketSpec.exercised_at`), so each stop's
    value V(tau) is a divisible super-hedge of the stopped stock market; the
    cheapest stop wins, read back by `MarketSpec.whole_unit`, and its leaf
    duals, pricing h(tau) at most at the quote, certify its value.

    Holding no option is feasible at every stop, so V(tau) <= V0, the
    stock-only value.  The first solved stop whose optimum holds no option is
    worth exactly V0: its stock position and leaf duals Q0 are a stock-only
    hedge and measure at V0, re-checked once by `duality_gap_report`.  A later
    stop with E_Q0 h(tau) <= quote has Q0 dual-feasible, so V(tau) = V0 by
    weak duality and its LP is skipped.  `details["per_stop_values"]` still
    lists every stop, and `details["stops_solved"]` counts the LPs solved.
    A market without an American option has no stop to choose: its one LP is
    the stock-only super-hedge, and no stop, quantity or table is recorded."""
    m = market
    if len(m.h) > 1:
        raise HedgingError(
            "indivisible super-hedging is limited to at most one American option"
        )
    _require_sna(market)
    stock = m.with_options(f=[], f_prices=[], g=[], g_prices=[])
    # one stop per option: each stop of the one option, or none at all
    choices = [(tau,) for tau in enumerate_stopping_times(m.tree)] if m.h else [()]
    values: dict[tuple, Fraction] = {}  # choice -> its super-hedge value
    best = None
    Q0 = V0 = None  # set once a solved stop's optimum holds no option
    solved = 0
    for taus in choices:
        if Q0 is not None and Q0.expect_at_stop(m.h[0], taus[0]) <= m.h_prices[0]:
            # Q0 is dual-feasible here, so V0 <= V(tau) <= V0.  The Q0 stop
            # came first at the same value, so the strict `<` below never
            # lets this stop win.
            values[taus] = V0
            continue
        primal, space, Q = hedge_primal(stock.exercised_at(taus), psi, "super_div")
        solved += 1
        if primal.status != "optimal":
            raise HedgingError(f"per-stop hedging LP is {primal.status}")
        values[taus] = primal.objective
        if best is None or primal.objective < best[1].objective:
            best = (taus, primal, space, Q)
        if Q0 is None and m.h and primal.values.get("b[0]", ZERO) == 0:
            duality_gap_report(HedgeResult(
                kind="super_div", market=stock.without_american(), claim=psi,
                price=primal.objective,
                portfolio=HedgePortfolio(H=space.extract_portfolio(primal.values).H), dual=Q,
            ))
            Q0, V0 = Q, primal.objective

    taus, primal, space, Q = best
    # `stock` has no European book, `market` may: it holds none of them
    held = replace(stock.whole_unit(space.extract_portfolio(primal.values), taus),
                   a=(ZERO,) * len(m.f), b=(ZERO,) * len(m.g))
    details = {"stops_solved": solved, "dual_spec": PricingSetSpec(space.market)}
    if m.h:
        details.update(stop=taus[0], quantity=held.c[0], per_stop_values={
            tuple(sorted(tau.stop_nodes)): v for (tau,), v in values.items()})
    result = HedgeResult(
        kind="super_indiv", market=market, claim=psi, price=primal.objective,
        portfolio=held, dual=Q, details=details,
    )
    duality_gap_report(result)
    return result


# ---------------------------------------------------------------------------
# Independent re-verification
# ---------------------------------------------------------------------------

def duality_gap_report(result: HedgeResult) -> dict:
    """Re-verify a hedge result from first principles and emit a
    machine-readable certificate.

    Primal feasibility is recomputed by evaluating the strategy on every leaf
    of the result's market's support in one `portfolio_values` pass (never
    from the LP); for "sub_am" the claim's exercise flow rides that pass as
    one more American leg.  The dual measure is pushed through exact
    membership, and the two sides must agree to the rational digit.  Raises
    VerificationFailure naming the offending leaf or constraint."""
    m = result.market
    if isinstance(result.price, PriceInfinity):
        return {"kind": result.kind, "price": "+inf", "verified": True}
    if result.gap != 0:
        raise VerificationFailure(f"nonzero duality gap {rat_str(result.gap)}")
    leaves = m.support_leaves()
    held = m
    port = result.portfolio
    if result.kind == "sub_am":
        # the claim's exercise flow is one more American leg, held once at price 0
        held = m.with_options(h=(result.claim,) + m.h, h_prices=(ZERO,) + m.h_prices)
        port = replace(port, c=(Fraction(1),) + port.c, mu=(result.eta,) + port.mu)
    for leaf, value in zip(leaves, portfolio_values(held, port, leaves)):
        if result.kind == "sub_eu":
            ok = value + result.claim.at(leaf) >= result.price
        elif result.kind == "sub_am":
            ok = value >= result.price
        elif result.kind in ("super_div", "super_indiv"):
            ok = result.price + value >= result.claim.at(leaf)
        else:
            raise VerificationFailure(f"unknown result kind {result.kind!r}")
        if not ok:
            raise VerificationFailure(
                f"primal strategy fails pointwise at leaf {leaf}"
            )
    Q = result.dual
    if Q is not None:
        spec = result.details.get("dual_spec") or PricingSetSpec(m)
        report = membership(Q, spec, strict=False)
        if not report:
            raise VerificationFailure(
                "dual certificate violates: " + "; ".join(report.violations)
            )
        if result.kind == "sub_am":
            achieved = snell_value(Q, result.claim)
        else:
            achieved = Q.expect_claim(result.claim)
        if achieved != result.price:
            raise VerificationFailure(
                f"dual certificate achieves {rat_str(achieved)}, "
                f"price is {rat_str(result.price)}"
            )
    return {
        "kind": result.kind,
        "price": rat_str(result.price),
        "gap": rat_str(result.gap),
        "leaves_checked": len(leaves),
        "dual_verified": Q is not None,
        "verified": True,
    }
