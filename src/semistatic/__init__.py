"""semistatic: exact pricing, hedging, and arbitrage verdicts on finite event
trees with semi-static trading in stocks, European options, and infinitely
divisible buy-only American options, plus multi-prior (quasi-sure) variants
and a utility-duality audit."""

__version__ = "0.1.0"

from .tree import AdaptedProcess, EventTree, TerminalClaim, TreeError
from .market import (
    HedgePortfolio,
    MarketSpec,
    MarketError,
    build_market,
    market_to_json,
    portfolio_value,
    portfolio_values,
)
from .fixtures import FIXTURE_NAMES, fixture_json, load_fixture
from .lp import Constraint, LpProblem, LpSolution, VerificationFailure, con, solve
from .polytope import Polytope, UnboundedPolytopeError, vertices
from .stopping import (
    EnumerationCapError,
    LiquidatingStrategy,
    StoppingTime,
    count_stopping_times,
    enumerate_stopping_times,
    snell_optimal_stop,
    snell_value,
)
from .measures import (
    Measure,
    MembershipReport,
    PricingSetSpec,
    SlackResult,
    closure_polytope,
    max_slack,
    membership,
)
from .hedging import (
    ArbitrageRefusal,
    HedgeResult,
    INFINITE_PRICE,
    PriceInfinity,
    duality_gap_report,
    sub_hedge_american,
    sub_hedge_european,
    super_hedge_divisible,
    super_hedge_indivisible,
)
from .ftap import (
    ARBITRAGE,
    NO_ARBITRAGE,
    STRICT_NO_ARBITRAGE_FAILS,
    ArbitrageVerdict,
    check_na,
    check_sna,
)
from .robust import (
    DominationResult,
    HypothesisFailure,
    MinimaxResult,
    PriorSet,
    RobustDualityGapError,
    RobustSpec,
    check_sna_robust,
    dominating_measure,
    minimax_check,
    sub_hedge_robust,
    union_support,
)
from .utility import (
    AuditFailure,
    DualityReport,
    UtilitySpec,
    dual_v,
    duality_audit,
    log_utility,
    power_utility,
    primal_u,
)
from .cli import emit_region, main
