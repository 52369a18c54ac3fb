"""Arbitrage verdicts with re-verified certificates.

`check_na` decides plain no-arbitrage at a market's quotes by a cone LP:
maximize the total portfolio value over its reference support subject to
pointwise nonnegativity and the normalization sum <= 1.  The optimum is 0
exactly when no arbitrage exists, else 1 with the arbitrage portfolio as
certificate.

`check_sna` decides strict no-arbitrage through the slack-maximization LP:
strict no-arbitrage holds if and only if some pricing measure survives a
uniform strict shift of every buy-only quote, i.e. the slack optimum is
positive.  Its witness measure certifies success; on failure, LP duality
makes the same LP's duals (or Farkas multipliers, when it is infeasible) an
arbitrage portfolio at the quotes or at quotes shifted by 1/2.  A witness of
optimum 0 with full support that prices the market at its quotes proves no
arbitrage there; otherwise at most one cone LP, at the quotes, tells the two
apart.  Each certificate is re-checked by direct evaluation before the
verdict is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Sequence

from .lp import GE, LE, LpProblem, VerificationFailure, int_con, solve
from .market import HedgePortfolio, MarketSpec, StrategySpace, portfolio_values
from .measures import Measure, PricingSetSpec, SlackResult, membership, strict_emm_slack
from .rational import rat_str
from .stopping import (
    DEFAULT_ENUM_CAP,
    EnumerationCapError,
    count_stopping_times,
    enumerate_stopping_times,
    snell_value,
)

NO_ARBITRAGE = "NO_ARBITRAGE"
ARBITRAGE = "ARBITRAGE"
STRICT_NO_ARBITRAGE_FAILS = "STRICT_NO_ARBITRAGE_FAILS"


@dataclass(frozen=True)
class ArbitrageVerdict:
    verdict: str
    pricing: Measure | None = None
    slack: SlackResult | None = None
    portfolio: HedgePortfolio | None = None
    g_slacks: tuple[Fraction, ...] = ()
    h_slacks: tuple[Fraction, ...] = ()
    shifted_g: tuple[Fraction, ...] | None = None
    shifted_h: tuple[Fraction, ...] | None = None
    notes: str = ""

    def __repr__(self):
        return f"ArbitrageVerdict({self.verdict})"


def _verify_arbitrage_portfolio(values: Sequence[Fraction], leaves: Sequence[str]) -> None:
    """Certificate soundness: a portfolio's `values` on `leaves` (from
    `portfolio_values`) are >= 0 everywhere and > 0 somewhere."""
    for leaf, v in zip(leaves, values):
        if v < 0:
            raise VerificationFailure(
                f"claimed arbitrage is worth {rat_str(v)} < 0 at leaf {leaf}"
            )
    if not any(values):
        raise VerificationFailure("claimed arbitrage never wins")


def lowered_quotes(market: MarketSpec) -> MarketSpec:
    """The market with every buy-only quote lowered by 1/2, the strict shift
    at which a STRICT_NO_ARBITRAGE_FAILS certificate wins."""
    half = Fraction(1, 2)
    return market.with_options(g_prices=[p - half for p in market.g_prices],
                               h_prices=[p - half for p in market.h_prices])


def check_na(market: MarketSpec, divisible: bool = True) -> ArbitrageVerdict:
    """No-arbitrage at the market's quotes over its support.  Other quotes or
    fewer leaves are other markets: `market.with_options(...)` or
    `market.on_support(leaves)`.

    With `divisible=False` the American options must each be exercised whole
    at a single stopping time.  Whole-unit strategies are divisible ones, so
    the divisible cone LP runs first and decides the question alone, however
    many stops the tree has, when it finds no arbitrage or the market has no
    American option.  Otherwise the stop combinations are scanned, and more
    than `DEFAULT_ENUM_CAP` of them are refused with `EnumerationCapError`
    after that one LP.  In the scan each option, exercised whole at fixed
    stops, is the buy-only European claim it pays there, bought at its quote
    (`MarketSpec.exercised_at`), and the same cone LP is solved on the stopped
    market per stop combination, its arbitrage read back by
    `MarketSpec.whole_unit`; that restriction is exactly what breaks the
    measure-existence equivalence (P2)."""
    support = market.support_leaves()

    def cone_lp(m: MarketSpec) -> HedgePortfolio | None:
        space = StrategySpace(m)
        rows = space.structure_rows()
        total: dict[str, int] = {}
        for leaf in support:
            den, phi = space.phi_coeffs(leaf)  # one den for every leaf of m
            rows.append(int_con(phi, GE, 0, den, f"leaf[{leaf}]"))
            for v, c in phi.items():
                total[v] = total.get(v, 0) + c
        norm = int_con(total, LE, den, den, "normalization")
        rows.append(norm)
        # maximize the normalization row's left side, the total value
        problem = LpProblem("max", norm, rows, space.variables, frozenset(space.free))
        sol = solve(problem)
        if sol.status != "optimal":  # phi = 0 is feasible and the sum is <= 1
            raise VerificationFailure(f"cone LP is {sol.status}")
        return space.extract_portfolio(sol.values) if sol.objective > 0 else None

    found: ArbitrageVerdict | None = None
    portfolio = cone_lp(market)
    if portfolio is not None and (divisible or not market.h):
        found = ArbitrageVerdict(verdict=ARBITRAGE, portfolio=portfolio,
                                 shifted_g=market.g_prices, shifted_h=market.h_prices)
    elif portfolio is not None:
        combos = count_stopping_times(market.tree) ** len(market.h)
        if combos > DEFAULT_ENUM_CAP:
            raise EnumerationCapError(
                f"{combos} whole-unit stop combinations exceed cap {DEFAULT_ENUM_CAP}")
        for combo in product(enumerate_stopping_times(market.tree), repeat=len(market.h)):
            stopped = cone_lp(market.exercised_at(combo))
            if stopped is not None:
                found = ArbitrageVerdict(
                    verdict=ARBITRAGE, portfolio=market.whole_unit(stopped, combo),
                    shifted_g=market.g_prices, shifted_h=market.h_prices,
                    notes="indivisible exercise",
                )
                break
    if found is None:
        return ArbitrageVerdict(verdict=NO_ARBITRAGE,
                                shifted_g=market.g_prices, shifted_h=market.h_prices)
    _verify_arbitrage_portfolio(portfolio_values(market, found.portfolio, support), support)
    return found


def check_sna(market: MarketSpec) -> ArbitrageVerdict:
    """Strict no-arbitrage via the slack LP (positive optimum iff a strictly
    consistent pricing measure exists).

    On failure the certificate is the portfolio read off that same LP's duals
    (optimum <= 0) or Farkas multipliers (infeasible): worth >= 0 on the
    support at the quotes.  If it wins somewhere it is the arbitrage.  If it
    vanishes on the support it is worth exactly eps at the buy-only quotes
    lowered by eps, and the verdict is ARBITRAGE or STRICT_NO_ARBITRAGE_FAILS,
    whose certificate is that portfolio at shift 1/2.  A witness of optimum
    0 that charges every support leaf and passes closure membership at the
    quotes proves no arbitrage there, so it gives the latter at once;
    otherwise one cone LP at the quotes decides.  Every certificate is
    re-verified by portfolio evaluation.

    The slack LP is solved once per market object (`strict_emm_slack`); the
    checks on its result run on every call."""
    slack = strict_emm_slack(market)
    if slack.strictly_positive:
        Q = slack.witness
        report = membership(Q, PricingSetSpec.strict_emm(market), strict=True)
        if not report:
            raise VerificationFailure(
                "slack witness fails strict membership: " + "; ".join(report.violations)
            )
        g_slacks = tuple(p - Q.expect_claim(cl) for cl, p in zip(market.g, market.g_prices))
        h_slacks = tuple(p - snell_value(Q, hk) for hk, p in zip(market.h, market.h_prices))
        return ArbitrageVerdict(
            verdict=NO_ARBITRAGE, pricing=Q, slack=slack,
            g_slacks=g_slacks, h_slacks=h_slacks,
            notes="strict no-arbitrage holds",
        )
    portfolio = slack.certificate
    support = market.support_leaves()
    values = portfolio_values(market, portfolio, support)
    if any(values):
        _verify_arbitrage_portfolio(values, support)
        return ArbitrageVerdict(
            verdict=ARBITRAGE, slack=slack, portfolio=portfolio,
            shifted_g=market.g_prices, shifted_h=market.h_prices,
        )
    Q = slack.witness
    # a pricing measure at the quotes that charges every support leaf proves
    # no arbitrage there (the easy direction of the FTAP); only a zero
    # optimum can have one
    if Q is None or slack.optimum != 0 or Q.support() != market.support \
            or not membership(Q, PricingSetSpec(market), strict=False):
        plain = check_na(market)
        if plain.verdict == ARBITRAGE:
            return replace(plain, slack=slack)
    shifted = lowered_quotes(market)
    _verify_arbitrage_portfolio(portfolio_values(shifted, portfolio, support), support)
    return ArbitrageVerdict(
        verdict=STRICT_NO_ARBITRAGE_FAILS, slack=slack, portfolio=portfolio,
        shifted_g=shifted.g_prices, shifted_h=shifted.h_prices,
        notes="no arbitrage at the quotes, but no strictly consistent "
              "pricing measure exists",
    )
