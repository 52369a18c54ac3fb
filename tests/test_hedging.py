"""Hedging prices: fixture values, dualities, ordering, and verification."""

import random
from fractions import Fraction

import pytest

from semistatic import (
    ArbitrageRefusal,
    Measure,
    TerminalClaim,
    VerificationFailure,
    duality_gap_report,
    sub_hedge_american,
    sub_hedge_european,
    super_hedge_divisible,
    super_hedge_indivisible,
)
from semistatic.hedging import HedgingError
from semistatic.market import HedgePortfolio, portfolio_value
from semistatic.measures import PricingSetSpec, closure_polytope, polytope_vertices_as_measures
from semistatic.stopping import StoppingTime
from semistatic.tree import AdaptedProcess

from conftest import random_claim, random_market, random_process
from oracles import (
    american_exchange_values, constant_claim, find_pricing_measure, liquidate_payoff,
    martingale_system, p2_params_of,
)

F = Fraction


def test_b1_complete_market_digital(b1):
    psi = b1.claims["up_digital"]
    sub = sub_hedge_european(b1, psi)
    sup = super_hedge_divisible(b1, psi)
    assert sub.price == F(1, 2)
    assert sup.price == F(1, 2)
    assert sub.gap == 0 and sup.gap == 0


def test_cash_claim_prices_at_itself(t2):
    kappa = F(7, 3)
    psi = constant_claim(t2.tree, kappa)
    assert sub_hedge_european(t2, psi).price == kappa
    assert super_hedge_divisible(t2, psi).price == kappa


def test_p2_divisible_super_hedge_is_zero(p2):
    psi = p2.claims["psi"]
    result = super_hedge_divisible(p2, psi)
    assert result.price == 0
    # the dual maximizer sits at the printed corner of the region
    assert p2_params_of(result.dual) == (F(1, 3), F(1, 5))
    # and the primal portfolio replicates with zero stock position at cost 0
    port = result.portfolio
    for leaf in p2.tree.leaves:
        assert portfolio_value(p2, port, leaf) + 0 >= psi.at(leaf)


def test_p2_indivisible_super_hedge_gap(p2):
    psi = p2.claims["psi"]
    result = super_hedge_indivisible(p2, psi)
    assert result.price == F(1, 8)
    tau12 = StoppingTime(p2.tree, ["u", "d1", "d2", "d3"])
    assert result.details["stop"] == tau12
    # the specific stop of the two-period scan: stop late up, early down
    tau21 = StoppingTime(p2.tree, ["u1", "u2", "u3", "d"])
    table = result.details["per_stop_values"]
    assert table[tuple(sorted(tau21.stop_nodes))] == F(13, 8)
    # divisibility is worth exactly 1/8 here
    assert super_hedge_divisible(p2, psi).price == 0 < result.price


def test_p2_sub_hedge_value(p2):
    psi = p2.claims["psi"]
    result = sub_hedge_european(p2, psi)
    # min of E psi over the region closure; the affine form 3/4 p + 5 q - 5/4
    # is minimized at the origin corner
    assert result.price == F(-5, 4)


def test_t2_american_put(t2):
    put = t2.claims["put5_am"]
    result = sub_hedge_american(t2, put)
    assert result.price == F(20, 9)
    assert result.eta is not None
    # the exercise flow and portfolio together guarantee the price
    for leaf in t2.tree.leaves:
        got = portfolio_value(t2, result.portfolio, leaf)
        got += liquidate_payoff(result.eta, put, leaf)
        assert got >= result.price


def test_american_dominates_european_exercise_at_maturity(t2):
    rng = random.Random(2)
    psi = random_claim(rng, t2.tree)
    floor = min(psi.at(l) for l in t2.tree.leaves)
    phi_vals = {n: (psi.at(n) if t2.tree.is_leaf(n) else floor) for n in t2.tree.nodes}
    phi = AdaptedProcess(t2.tree, phi_vals)
    am = sub_hedge_american(t2, phi)
    eu = sub_hedge_european(t2, psi)
    assert am.price >= eu.price


def test_p2_sub_hedge_of_the_option_itself(p2):
    """Selling pressure cannot lift the guaranteed value above the worst-case
    exercise envelope: over the region closure the envelope never drops below
    -1/2 (max(3p,1) >= 1 and max(10q-3,-2) >= -2), and -1/2 is attained, so
    the sub-hedging price of h itself at quote 0 is exactly -1/2."""
    result = sub_hedge_american(p2, p2.h[0])
    assert result.price == F(-1, 2)
    from semistatic.stopping import snell_value
    assert snell_value(result.dual, p2.h[0]) == F(-1, 2)


def test_refuses_without_strict_no_arbitrage(b1):
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    bad = b1.with_options(f=[f], f_prices=[3])  # mispriced two-sided leg
    with pytest.raises(ArbitrageRefusal):
        sub_hedge_european(bad, b1.claims["up_digital"])


def test_indivisible_requires_single_option(p2):
    doubled = p2.with_options(h=[p2.h[0], p2.h[0]], h_prices=[0, 0])
    with pytest.raises(HedgingError, match="one American"):
        super_hedge_indivisible(doubled, p2.claims["psi"])


def test_indivisible_without_options_is_classical(t2):
    """Without an American option there is no stop to choose: one stock-only
    LP is solved, and no stop, quantity or per-stop table is recorded."""
    psi = t2.claims["put5_eu"]
    result = super_hedge_indivisible(t2, psi)
    classical = super_hedge_divisible(t2, psi)
    # unique pricing measure (1/9, 2/9, 2/9, 4/9) values the put at 20/9
    assert result.price == classical.price == F(20, 9)
    assert result.dual == classical.dual
    assert result.details.keys() == {"stops_solved", "dual_spec"}
    assert result.details["stops_solved"] == 1
    assert result.portfolio.c == () and result.portfolio.mu == ()
    assert duality_gap_report(result)["verified"]


def test_indivisible_portfolio_holds_every_book_of_its_market(t2):
    """The whole-unit super-hedge is solved on the stock market but read on
    the result's market, which here carries a two-sided and a buy-only
    European book: its portfolio holds zero of each, so the evaluator that
    refuses unmatched legs values it, and the certificate re-verifies."""
    s2 = TerminalClaim(t2.tree, {"uu": 16, "ud": 4, "du": 4, "dd": 1})  # E[S_2] = 4
    market = t2.with_options(f=[s2], f_prices=[4], g=[t2.claims["put5_eu"]], g_prices=[3],
                             h=[t2.claims["put5_am"]], h_prices=[3])
    psi = TerminalClaim(t2.tree, {"uu": 11, "ud": 0, "du": 0, "dd": 0})
    result = super_hedge_indivisible(market, psi)
    assert result.market is market
    assert (result.portfolio.a, result.portfolio.b) == ((0,), (0,))
    assert duality_gap_report(result)["verified"]
    for leaf in market.tree.leaves:
        assert result.price + portfolio_value(market, result.portfolio, leaf) >= psi.at(leaf)


def test_duality_report_rejects_corrupted_primal(p2):
    result = super_hedge_divisible(p2, p2.claims["psi"])
    good = duality_gap_report(result)
    assert good["verified"]
    port = result.portfolio
    bad_H = {n: tuple(v + 1 for v in port.H.at(n)) for n in p2.tree.nodes}
    result.portfolio = HedgePortfolio(
        H=AdaptedProcess(p2.tree, bad_H), a=port.a, b=port.b, c=port.c, mu=port.mu,
    )
    with pytest.raises(VerificationFailure, match="leaf"):
        duality_gap_report(result)


def test_duality_report_rejects_corrupted_dual(p2):
    result = super_hedge_divisible(p2, p2.claims["psi"])
    w = dict(result.dual.weights)
    leaves = p2.tree.leaves
    w[leaves[0]] = w.get(leaves[0], F(0)) + F(1, 8)
    w[leaves[1]] = w.get(leaves[1], F(0)) - F(1, 8)
    result.dual = Measure(p2.tree, {k: v for k, v in w.items() if v})
    with pytest.raises(VerificationFailure, match="violates|achieves"):
        duality_gap_report(result)


def _sna_markets(rng, count, **kwargs):
    from semistatic.measures import max_slack

    out = []
    while len(out) < count:
        market = random_market(rng, **kwargs)
        if max_slack(PricingSetSpec.strict_emm(market)).strictly_positive:
            out.append(market)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_ordering_chain_random(seed):
    rng = random.Random(4200 + seed)
    for market in _sna_markets(rng, 3, max_depth=2):
        if len(market.h) > 1:
            market = market.without_american(1)
        psi = random_claim(rng, market.tree)
        sub = sub_hedge_european(market, psi)
        sup_div = super_hedge_divisible(market, psi)
        sup_indiv = super_hedge_indivisible(market, psi)
        assert sub.price <= sup_div.price <= sup_indiv.price
        poly = closure_polytope(PricingSetSpec(market))
        for Q in polytope_vertices_as_measures(poly, market.tree):
            assert sub.price <= Q.expect_claim(psi) <= sup_div.price


def test_cash_translation_and_homogeneity(p2):
    psi = p2.claims["psi"]
    kappa = F(5, 7)
    shifted = TerminalClaim(p2.tree, {l: psi.at(l) + kappa for l in p2.tree.leaves})
    for op in (sub_hedge_european, super_hedge_divisible, super_hedge_indivisible):
        assert op(p2, shifted).price == op(p2, psi).price + kappa
    lam = F(3, 2)
    scaled = TerminalClaim(p2.tree, {l: lam * psi.at(l) for l in p2.tree.leaves})
    for op in (sub_hedge_european, super_hedge_divisible, super_hedge_indivisible):
        assert op(p2, scaled).price == lam * op(p2, psi).price


def test_monotonicity_in_the_claim(p2):
    rng = random.Random(88)
    psi = p2.claims["psi"]
    bigger = TerminalClaim(
        p2.tree, {l: psi.at(l) + F(rng.randint(0, 3), 2) for l in p2.tree.leaves}
    )
    for op in (sub_hedge_european, super_hedge_divisible, super_hedge_indivisible):
        assert op(p2, psi).price <= op(p2, bigger).price


def test_american_exchange_identities(t2, p2):
    rng = random.Random(99)
    cases = [(t2, t2.claims["put5_am"]), (p2, p2.h[0])]
    for market in _sna_markets(rng, 3, max_depth=2):
        cases.append((market, random_process(rng, market.tree)))
    for market, phi in cases:
        vals = american_exchange_values(market, phi)
        assert vals["sup_flow_inf"] == vals["inf_sup_flow"] == vals["inf_sup_stop"]
        assert vals["sup_stop_inf"] <= vals["sup_flow_inf"]


def test_exchange_is_strict_on_a_constructed_market(t2):
    """A market where no single stopping time is worst-case optimal: constant
    stock (every measure is a martingale measure) and a two-sided digital
    pinning Q(uu) = 1/4, leaving x = Q(ud) free in [0, 3/4].  The claim's stop
    values are 1/4 + x (stop at time 1) versus 1/2 - 2x (stop at the up leaves)
    so the pure maximin is 1/4 while mixing yields 1/3."""
    tree = t2.tree
    one = AdaptedProcess(tree, {n: 1 for n in tree.nodes})
    digital = TerminalClaim(tree, {"uu": 1, "ud": 0, "du": 0, "dd": 0})
    from semistatic.market import MarketSpec

    market = MarketSpec(tree=tree, S=one, f=(digital,), f_prices=(F(1, 4),))
    phi = AdaptedProcess(tree, {
        "r": -10, "u": 1, "d": 0, "uu": 2, "ud": -2, "du": 0, "dd": 0,
    })
    vals = american_exchange_values(market, phi)
    assert vals["sup_flow_inf"] == vals["inf_sup_flow"] == vals["inf_sup_stop"] == F(1, 3)
    assert vals["sup_stop_inf"] == F(1, 4)
    assert vals["sup_stop_inf"] < vals["inf_sup_stop"]


def test_exchange_values_refuse_an_empty_pricing_set(t2):
    market = t2.with_options(h=[t2.claims["put5_am"]], h_prices=[F(1)])  # envelope is 20/9
    with pytest.raises(HedgingError, match="empty pricing set"):
        american_exchange_values(market, t2.claims["put5_am"])


def test_two_asset_market():
    """d = 2 stock components: the pricing measure solves both drift
    equations at once, and the hedge LPs carry one position per component."""
    import json

    from semistatic import build_market, check_sna, market_to_json
    from semistatic.market import MarketSpec
    from semistatic.tree import AdaptedProcess, EventTree

    tree = EventTree([("r", None, 0), ("a", "r", 1), ("b", "r", 1), ("c", "r", 1)])
    S = AdaptedProcess(tree, {
        "r": ["2", "1"], "a": ["3", "1"], "b": ["1", "2"], "c": ["2", "0"],
    })
    market = MarketSpec(tree=tree, S=S)
    assert market.dim == 2
    verdict = check_sna(market)
    assert verdict.pricing.weights == {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)}
    digital = TerminalClaim(tree, {"a": 1, "b": 0, "c": 0})
    result = sub_hedge_european(market, digital)
    assert result.price == F(1, 3)
    assert super_hedge_divisible(market, digital).price == F(1, 3)
    # vector stock values survive the market-file round trip
    text = market_to_json(market)
    again = build_market(text)
    assert again.S.at("a") == (F(3), F(1))
    assert market_to_json(again) == text


def _per_stop_dual_value(market, psi, tau):
    """max E psi over martingale measures pricing the American option at the
    stop `tau` at most at its quote: the LP dual of the per-stop hedge LP.
    On a market without one, `tau` is unread: the stock-only value."""
    from oracles import stop_row
    from semistatic.lp import LE, LpProblem, con, solve
    from semistatic.measures import _weight_var

    stock = market.with_options(f=[], f_prices=[], g=[], g_prices=[], h=[], h_prices=[])
    leaves = market.support_leaves()
    base = martingale_system(stock)
    rows = list(base.constraints)
    if market.h:
        rows.append(con(stop_row(market.h[0], tau, leaves), LE, market.h_prices[0], "h"))
    objective = {_weight_var(l): psi.at(l) for l in leaves if psi.at(l)}
    sol = solve(LpProblem("max", objective, rows, base.variables))
    assert sol.status == "optimal"
    return sol.objective


def test_primal_dual_gap_zero_random():
    """Each hedge price (the primal optimum) equals an independently solved
    dual LP over the closed pricing set."""
    from semistatic.hedging import dual_optimum

    rng = random.Random(321)
    for market in _sna_markets(rng, 6, max_depth=2):
        psi = random_claim(rng, market.tree)
        phi = random_process(rng, market.tree)
        spec = PricingSetSpec(market)
        for result in (
            sub_hedge_european(market, psi),
            super_hedge_divisible(market, psi),
            sub_hedge_american(market, phi),
        ):
            assert result.gap == 0
            assert duality_gap_report(result)["verified"]
            assert result.price == dual_optimum(spec, result.claim, result.kind)[0].objective
        single = market.without_american(1)
        indiv = super_hedge_indivisible(single, psi)
        if not single.h:
            assert "stop" not in indiv.details and "per_stop_values" not in indiv.details
            assert indiv.details["stops_solved"] == 1
            assert indiv.price == _per_stop_dual_value(single, psi, None)
            continue
        assert indiv.price == _per_stop_dual_value(single, psi, indiv.details["stop"])
        assert indiv.details["stops_solved"] <= len(indiv.details["per_stop_values"])
        for nodes, value in indiv.details["per_stop_values"].items():
            tau = StoppingTime(single.tree, nodes)
            assert value == _per_stop_dual_value(single, psi, tau)


def test_p2_indivisible_scan_solves_three_of_five_stops(p2, monkeypatch):
    """The first stop (exercise at the root) holds no option at its optimum,
    so its leaf duals price every stop they keep within the quote at the
    stock-only value: 3 of P2's 5 stops need an LP."""
    from semistatic import hedging

    calls = []
    real = hedging.hedge_primal

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(hedging, "hedge_primal", counted)
    result = super_hedge_indivisible(p2, p2.claims["psi"])
    assert len(result.details["per_stop_values"]) == 5
    assert len(calls) == result.details["stops_solved"] == 3
    assert result.price == F(1, 8)


def test_indivisible_scan_rejects_a_stock_only_measure_failing_membership(p2, monkeypatch):
    """The stock-only measure that settles stops without an LP is re-checked
    by exact membership (`duality_gap_report` on the stock-only hedge); a
    failing check is a verification failure."""
    from semistatic import hedging
    from semistatic.measures import MembershipReport

    real = hedging.membership

    def failing_on_stock_only(Q, spec, strict):
        if not spec.market.g and not spec.market.h:
            return MembershipReport(["forced violation"])
        return real(Q, spec, strict)

    monkeypatch.setattr(hedging, "membership", failing_on_stock_only)
    with pytest.raises(VerificationFailure, match="dual certificate violates"):
        super_hedge_indivisible(p2, p2.claims["psi"])


def test_indivisible_scan_rejects_a_stock_only_measure_of_the_wrong_value(p2, monkeypatch):
    """A stock-only martingale measure passes membership but must also value
    the claim at the stock-only value before it settles any stop."""
    from semistatic import hedging

    psi = p2.claims["psi"]
    interior = find_pricing_measure(p2)
    assert interior.expect_claim(psi) != F(13, 8)  # the stock-only value
    real = hedging.hedge_primal

    def with_interior_duals(*args, **kwargs):
        sol, space, _ = real(*args, **kwargs)
        return sol, space, interior

    monkeypatch.setattr(hedging, "hedge_primal", with_interior_duals)
    with pytest.raises(VerificationFailure, match="dual certificate achieves"):
        super_hedge_indivisible(p2, psi)


def test_indivisible_scan_rejects_a_stock_only_hedge_failing_pointwise(p2, monkeypatch):
    """The stock position of the stop that sets the stock-only bound must
    super-hedge the claim from that bound at every leaf: a perturbed root
    position fails the portfolio evaluation before any further stop is
    solved."""
    from dataclasses import replace

    from semistatic import hedging

    calls = []
    real = hedging.hedge_primal

    def perturbed_at_the_root_stop(market, claim, kind):
        sol, space, Q = real(market, claim, kind)
        calls.append(market)
        if len(calls) == 1:
            root = f"H[{market.tree.root}][0]"
            sol = replace(sol, values={**sol.values, root: sol.values[root] + 100})
        return sol, space, Q

    monkeypatch.setattr(hedging, "hedge_primal", perturbed_at_the_root_stop)
    with pytest.raises(VerificationFailure, match="primal strategy fails pointwise"):
        super_hedge_indivisible(p2, p2.claims["psi"])
    assert len(calls) == 1


_HEDGES = (
    ("sub_eu", sub_hedge_european),
    ("sub_am", sub_hedge_american),
    ("super_div", super_hedge_divisible),
    ("super_indiv", super_hedge_indivisible),
)


def _count_slack_solves(monkeypatch):
    """Record every strict-EMM slack LP (`measures.max_slack`) solved."""
    from semistatic import measures

    calls = []
    real = measures.max_slack

    def counted(spec):
        calls.append(spec.market)
        return real(spec)

    monkeypatch.setattr(measures, "max_slack", counted)
    return calls


def _hedge_answer(result, tree):
    """Price, portfolio, dual measure and exercise flow as plain values."""
    port = result.portfolio
    return (
        result.price,
        tuple(port.H.at(n) for n in tree.nodes) if port.H is not None else None,
        port.a, port.b, port.c,
        tuple(tuple(mu.at(n) for n in tree.nodes) for mu in port.mu),
        result.dual.weights,
        tuple(result.eta.at(n) for n in tree.nodes) if result.eta is not None else None,
    )


def test_sna_decided_once_per_market(monkeypatch):
    """check_sna and the four hedges on one market solve the strict-EMM slack
    LP once, and answer bit for bit as on a freshly built copy of the market."""
    from semistatic import build_market, check_sna, market_to_json

    rng = random.Random(5150)
    market = _sna_markets(rng, 1, max_depth=2)[0].without_american(1)
    psi = random_claim(rng, market.tree)
    phi = random_process(rng, market.tree)
    calls = _count_slack_solves(monkeypatch)
    assert check_sna(market).verdict == "NO_ARBITRAGE"
    results = {kind: op(market, phi if kind == "sub_am" else psi) for kind, op in _HEDGES}
    assert calls == [market]

    fresh = build_market(market_to_json(market))
    tree = fresh.tree
    claims = {"psi": TerminalClaim(tree, {l: psi.at(l) for l in tree.leaves}),
              "phi": AdaptedProcess(tree, {n: phi.scalar_at(n) for n in tree.nodes})}
    for kind, op in _HEDGES:
        again = op(fresh, claims["phi" if kind == "sub_am" else "psi"])
        assert _hedge_answer(again, tree) == _hedge_answer(results[kind], market.tree)
    assert calls == [market, fresh]


def test_arbitrage_refusal_stored_with_the_market(monkeypatch, b1):
    """Every hedge on an arbitrage market refuses with the one stored slack."""
    from semistatic import check_sna

    sure_one = TerminalClaim(b1.tree, {"u": 1, "d": 1})
    market = b1.with_options(g=[sure_one], g_prices=[F(1, 2)],
                             h=[AdaptedProcess(b1.tree, {"r": 0, "u": 1, "d": 0})],
                             h_prices=[F(1)])
    calls = _count_slack_solves(monkeypatch)
    slacks = []
    for kind, op in _HEDGES:
        claim = market.h[0] if kind == "sub_am" else b1.claims["up_digital"]
        with pytest.raises(ArbitrageRefusal) as refusal:
            op(market, claim)
        slacks.append(refusal.value.slack)
    assert not slacks[0].strictly_positive
    assert all(slack is slacks[0] for slack in slacks)
    assert check_sna(market).slack is slacks[0]
    assert calls == [market]


def test_concurrent_hedges_on_one_market_agree():
    """Threads hedging one market at once may each solve the slack LP before
    one stores it; the stored results are equal, so every answer is too."""
    import sys
    import threading

    from semistatic import build_market, market_to_json

    rng = random.Random(5151)
    base = _sna_markets(rng, 1, max_depth=2)[0].without_american(1)
    psi = random_claim(rng, base.tree)
    serial = super_hedge_divisible(base, psi).price
    market = build_market(market_to_json(base))
    claim = TerminalClaim(market.tree, {l: psi.at(l) for l in market.tree.leaves})
    prices = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: prices.append(
            super_hedge_divisible(market, claim).price)) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert prices == [serial] * 6
