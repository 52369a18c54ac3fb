"""Command-line front end.

Commands compose through market files (JSON text), never binary state:
`semistatic fixture P2 | semistatic price super-indiv --market -` prints a
report whose prices are exact "p/q" strings.  Decimals appear only behind
--approx.  Exit codes: 0 success / no arbitrage, 1 usage or input error
(including a hedge the engine cannot set up and a prior list that is not
recombination-closed), 2 arbitrage found or hedging refused (also when robust
strict no-arbitrage fails), 3 any `VerificationFailure` (a failed re-check,
a fixture self-test or a utility audit residual over its tolerance); a typed
failure prints one line to stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import lcm

from . import __version__
from .fixtures import FIXTURE_NAMES, fixture_json, load_fixture, verify_p2
from .ftap import NO_ARBITRAGE, check_na, check_sna
from .hedging import (
    ArbitrageRefusal,
    HedgeResult,
    HedgingError,
    PriceInfinity,
    duality_gap_report,
    sub_hedge_american,
    sub_hedge_european,
    super_hedge_divisible,
    super_hedge_indivisible,
)
from .lp import VerificationFailure
from .market import MarketError, MarketSpec, build_market, read_claim
from .measures import (
    Measure,
    MeasureError,
    PricingSetSpec,
    closure_polytope,
    polytope_vertices_as_measures,
)
from .rational import RationalError, rat_str
from .robust import (
    PriorSet,
    RobustDualityGapError,
    RobustError,
    RobustSpec,
    check_sna_robust,
    dominating_measure,
    minimax_check,
    sub_hedge_robust,
)
from .stopping import EnumerationCapError, snell_value, strategy_to_json
from .tree import AdaptedProcess, TreeError
from .utility import (
    UtilityError,
    UtilitySpec,
    duality_audit,
    log_utility,
    power_utility,
)

REPORT_SCHEMA = "semistatic-report/1"


class UsageError(ValueError):
    pass


def _fmt(value, approx: bool):
    if isinstance(value, PriceInfinity):
        return "+inf"
    if isinstance(value, Fraction):
        return {"exact": rat_str(value), "approx": float(value)} if approx else rat_str(value)
    return value


def _load_market(path: str) -> MarketSpec:
    if path == "-":
        return build_market(sys.stdin.read())
    if path.upper() in FIXTURE_NAMES:
        return load_fixture(path)
    with open(path, "r", encoding="utf-8") as fh:
        return build_market(fh.read())


def _resolve_claim(market: MarketSpec, name_or_path: str | None):
    claims = dict(market.claims)
    bundled = f"market bundles {sorted(claims) or 'no claims'}"
    if name_or_path is None:
        if len(claims) == 1:
            return next(iter(claims.values()))
        raise UsageError(f"--claim required; {bundled}")
    if name_or_path in claims:
        return claims[name_or_path]
    if not os.path.exists(name_or_path):
        raise UsageError(f"no claim {name_or_path!r}: not a file, and the {bundled}")
    with open(name_or_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError("claim file must be a JSON object")
    return read_claim(market.tree, doc, "claim file")


def _measure_json(Q: Measure | None, approx: bool):
    if Q is None:
        return None
    return {leaf: _fmt(w, approx) for leaf, w in sorted(Q.weights.items())}


def _hedge_report(result: HedgeResult, approx: bool) -> dict:
    certificate = duality_gap_report(result)
    out = {
        "kind": result.kind,
        "price": _fmt(result.price, approx),
        "gap": _fmt(result.gap, approx),
        "dual_measure": _measure_json(result.dual, approx),
        "certificate": certificate,
    }
    if result.eta is not None:
        out["exercise_flow"] = strategy_to_json(result.eta)
    if result.details.get("stop") is not None:
        out["stop_nodes"] = sorted(result.details["stop"].stop_nodes)
        out["quantity"] = _fmt(result.details["quantity"], approx)
    if "per_stop_values" in result.details:
        out["per_stop_values"] = [
            {"stop_nodes": list(nodes), "value": _fmt(v, approx)}
            for nodes, v in sorted(result.details["per_stop_values"].items())
        ]
    if result.details.get("pricing_set_empty"):
        out["pricing_set_empty"] = True
    return out


# ---------------------------------------------------------------------------
# Parameter-region extraction
# ---------------------------------------------------------------------------

def emit_region(market: MarketSpec, params: list[str]) -> list[dict[str, Fraction]]:
    """Vertices of the closure of the pricing region, mapped to one-step
    conditional-probability parameters (at most two), ordered along the hull.

    Each parameter names a node; its value is the conditional probability of
    stepping from the node's parent into it.  The parent's subtree mass must
    be constant over the region (else the parameter is not affine and the
    projection is refused)."""
    if len(params) > 2:
        raise UsageError("at most two region parameters are supported")
    if len(set(params)) < len(params):
        raise UsageError(f"region parameter {params[0]!r} is repeated")
    tree = market.tree
    for n in params:
        if n not in tree.nodes or n == tree.root:
            raise UsageError(f"parameter node {n!r} not a non-root node")
    poly = closure_polytope(PricingSetSpec(market))
    measures = polytope_vertices_as_measures(poly, tree)
    if not measures:
        return []

    first = measures[0]
    for n in params:
        # the parent's mass, an integer over each vertex's `den`, cross-multiplied
        p = tree.parent(n)
        mass = first.masses()[p]
        if any(Q.masses()[p] * first.den != mass * Q.den for Q in measures):
            raise UsageError(
                f"parameter at {n!r} is not affine over the region "
                "(parent mass varies)"
            )
        if mass == 0:
            raise UsageError(f"parameter at {n!r} conditions on a null node")
    # a parameter is the ratio of two integer masses.  Its parent's mass is
    # one rational c over the region, so over the common denominator `den`
    # the mass at n, times den // Q.den, is the parameter times c * den > 0:
    # scaling each axis by a positive constant keeps the points' order,
    # their distinctness and the hull's turns, all taken on these integers
    den = lcm(*[Q.den for Q in measures])
    points = {}
    for Q in measures:
        masses = Q.masses()
        points.setdefault(tuple([masses[n] * (den // Q.den) for n in params]), masses)
    keys = sorted(points)
    if len(params) <= 1 or len(keys) <= 2:
        hull = keys[:1] + keys[1:][-1:]
    else:
        hull = _convex_hull_2d(keys)
    return [{n: Fraction(points[key][n], points[key][tree.parent(n)]) for n in params}
            for key in hull]


def _convex_hull_2d(points):
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_fixture(args, report) -> int:
    if args.region:
        market = load_fixture(args.name)
        polygon = emit_region(market, args.region.split(","))
        report["region"] = [
            {k: _fmt(v, args.approx) for k, v in pt.items()} for pt in polygon
        ]
        return 0
    sys.stdout.write(fixture_json(args.name) + "\n")
    report["emitted"] = args.name.upper()
    report["suppress"] = True
    return 0


def _cmd_check(args, report) -> int:
    if args.strict and args.indivisible:
        raise UsageError("--strict decides divisible exercise only; drop --indivisible")
    market = _load_market(args.market)
    if args.strict:
        verdict = check_sna(market)
    else:
        verdict = check_na(market, divisible=not args.indivisible)
    report["verdict"] = verdict.verdict
    report["notes"] = verdict.notes
    if verdict.pricing is not None:
        report["pricing_measure"] = _measure_json(verdict.pricing, args.approx)
        report["g_slacks"] = [_fmt(s, args.approx) for s in verdict.g_slacks]
        report["h_slacks"] = [_fmt(s, args.approx) for s in verdict.h_slacks]
    if verdict.portfolio is not None:
        report["arbitrage_found"] = True
    return 0 if verdict.verdict == NO_ARBITRAGE else 2


_PRICE_OPS = {
    "sub-eu": sub_hedge_european,
    "sub-am": sub_hedge_american,
    "super-div": super_hedge_divisible,
    "super-indiv": super_hedge_indivisible,
}


def _price_one(op: str, market_path: str, claim_name: str | None, approx: bool) -> dict:
    market = _load_market(market_path)
    claim = _resolve_claim(market, claim_name)
    american = op == "sub-am"
    if isinstance(claim, AdaptedProcess) != american:
        want, got = ("an American", "a European") if american else ("a European", "an American")
        raise UsageError(f"price {op} takes {want} claim, not {got} one")
    start = time.monotonic()
    result = _PRICE_OPS[op](market, claim)
    out = _hedge_report(result, approx)
    out["market"] = market_path
    out["timing_ms"] = round(1000 * (time.monotonic() - start), 3)
    return out


def _cmd_price(args, report) -> int:
    report["results"] = [_price_one(args.op, mp, args.claim, args.approx)
                         for mp in args.market or ["-"]]
    return 0


def _robust_spec(args) -> RobustSpec:
    market = _load_market(args.market)
    if not market.priors:
        raise UsageError("market file has no priors array")
    priors = PriorSet(tuple(Measure(market.tree, row) for row in market.priors))
    return RobustSpec(market, priors)


def _cmd_robust(args, report) -> int:
    spec = _robust_spec(args)
    approx = args.approx
    if args.action == "check":
        verdict = check_sna_robust(spec)
        report["verdict"] = verdict.verdict
        report["notes"] = verdict.notes
        return 0 if verdict.verdict == NO_ARBITRAGE else 2
    if args.action == "price":
        claim = _resolve_claim(spec.market, args.claim)
        result = sub_hedge_robust(spec, claim)
        if isinstance(result.price, PriceInfinity):
            report["price"] = "+inf"
            report["pricing_set_empty"] = True
        else:
            report.update(_hedge_report(result, approx))
        return 0
    if args.action == "dominate":
        idx = args.prior_index
        if not 0 <= idx < len(spec.priors):
            raise UsageError(f"prior index {idx} out of range")
        result = dominating_measure(spec, spec.priors.priors[idx])
        report["g_tilde"] = [_fmt(v, approx) for v in result.g_tilde]
        report["h_tilde"] = [_fmt(v, approx) for v in result.h_tilde]
        report["measure"] = _measure_json(result.Q, approx)
        return 0
    if args.action == "minimax":
        if not spec.market.h:
            raise UsageError("minimax requires at least one American option")
        result = minimax_check(list(spec.priors), list(spec.market.h))
        report["values"] = [_fmt(v, approx) for v in result.values()]
        report["attaining"] = _measure_json(result.attaining, approx)
        return 0
    raise UsageError(f"unknown robust action {args.action!r}")


def _number(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{option}: not a number: {text!r}") from None


def _cmd_utility(args, report) -> int:
    market = _load_market(args.market)
    if args.utility == "log":
        fn = log_utility()
    elif args.utility.startswith("power:"):
        fn = power_utility(_number(args.utility.split(":", 1)[1], "--utility"))
    else:
        raise UsageError(f"unknown utility {args.utility!r}")
    leaves = market.support_leaves()
    reference = Measure(market.tree, {l: Fraction(1, len(leaves)) for l in leaves})
    x_grid = [_number(v, "--x-grid") for v in args.x_grid.split(",")]
    y_grid = [_number(v, "--y-grid") for v in args.y_grid.split(",")] if args.y_grid else None
    audit = duality_audit(UtilitySpec(market, fn, reference), x_grid, y_grid)
    report["utility"] = audit.utility
    report["asymptotic_elasticity"] = audit.asymptotic_elasticity
    report["residuals"] = audit.residuals
    report["u_values"] = audit.u_values
    report["v_values"] = audit.v_values
    report["passed"] = audit.passed
    return 0


def _cmd_selftest(args, report) -> int:
    checks = {}
    b1 = load_fixture("B1")
    q = check_sna(b1).pricing
    checks["b1_pricing_measure"] = q.weights == {"u": Fraction(1, 2), "d": Fraction(1, 2)}
    t2 = load_fixture("T2")
    emm = check_sna(t2).pricing
    checks["t2_emm"] = emm.at("dd") == Fraction(4, 9)
    checks["t2_put_value"] = snell_value(emm, t2.claims["put5_am"]) == Fraction(20, 9)
    p2 = load_fixture("P2")  # runs the symbolic self-test
    verify_p2(p2)
    checks["p2_symbolic"] = True
    result = super_hedge_indivisible(p2, p2.claims["psi"])
    checks["p2_indivisible_price"] = result.price == Fraction(1, 8)
    checks["p2_indivisible_stops_solved"] = result.details["stops_solved"] == 3
    result = super_hedge_divisible(p2, p2.claims["psi"])
    checks["p2_divisible_price"] = result.price == 0
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return 0 if report["passed"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semistatic",
        description="Exact pricing and arbitrage engine for finite-tree markets "
                    "with semi-static strategies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="emit a built-in market file")
    p.add_argument("name", choices=[n for n in FIXTURE_NAMES] + [n.lower() for n in FIXTURE_NAMES])
    p.add_argument("--region", default="", metavar="NODE,NODE",
                   help="emit the pricing-region polygon over these parameters")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("check-arbitrage", help="no-arbitrage verdict")
    p.add_argument("--market", required=True)
    p.add_argument("--strict", action="store_true", help="decide strict no-arbitrage")
    p.add_argument("--indivisible", action="store_true",
                   help="restrict American exercise to whole units")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("price", help="hedging prices with certificates")
    p.add_argument("op", choices=sorted(_PRICE_OPS))
    p.add_argument("--market", action="append",
                   help="market file, '-' for stdin, or a fixture name; repeatable")
    p.add_argument("--claim", default=None,
                   help="bundled claim name or a claim JSON file")
    p.add_argument("--approx", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: a batch is priced in order on one thread")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("robust", help="multi-prior operations")
    p.add_argument("action", choices=["check", "price", "dominate", "minimax"])
    p.add_argument("--market", required=True)
    p.add_argument("--claim", default=None)
    p.add_argument("--prior-index", type=int, default=0)
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_robust)

    p = sub.add_parser("utility", help="utility-duality audit")
    p.add_argument("action", choices=["audit"])
    p.add_argument("--market", required=True)
    p.add_argument("--utility", default="log", help="log or power:<gamma>")
    p.add_argument("--x-grid", default="0.5,1,2,4")
    p.add_argument("--y-grid", default="")
    p.set_defaults(func=_cmd_utility)

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    report = {"schema": REPORT_SCHEMA, "command": args.command}
    try:
        code = args.func(args, report)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, TreeError, MarketError,
            MeasureError, EnumerationCapError, UtilityError, RationalError,
            RobustDualityGapError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ArbitrageRefusal, RobustError) as exc:
        # the other RobustErrors a command can reach (HypothesisFailure and
        # dominating_measure's refusals) say robust strict no-arbitrage fails
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except HedgingError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    if not report.pop("suppress", False):
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
