"""Arbitrage verdicts and the strict-no-arbitrage equivalence."""

import random
from fractions import Fraction

import pytest

import semistatic.ftap as ftap
from semistatic import (
    ARBITRAGE,
    NO_ARBITRAGE,
    STRICT_NO_ARBITRAGE_FAILS,
    PricingSetSpec,
    TerminalClaim,
    check_na,
    check_sna,
    max_slack,
    membership,
)
from semistatic.hedging import VerificationFailure
from semistatic.market import build_market, portfolio_value

from conftest import random_market
from oracles import constant_claim, find_pricing_measure

F = Fraction


def test_cone_lp_that_is_not_optimal_raises(b1, monkeypatch):
    from semistatic.lp import LpSolution

    monkeypatch.setattr(ftap, "solve", lambda problem: LpSolution(status="unbounded"))
    with pytest.raises(VerificationFailure, match="cone LP is unbounded"):
        check_na(b1)


def test_b1_plain_no_arbitrage(b1):
    assert check_na(b1).verdict == NO_ARBITRAGE
    assert check_sna(b1).verdict == NO_ARBITRAGE


def test_b1_mispriced_two_sided_leg(b1):
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})  # pays S_1
    market = b1.with_options(f=[f], f_prices=[3])
    verdict = check_na(market)
    assert verdict.verdict == ARBITRAGE
    # selling the overpriced claim is the certificate
    assert verdict.portfolio.a[0] < 0
    values = [portfolio_value(market, verdict.portfolio, l) for l in b1.tree.leaves]
    assert all(v >= 0 for v in values) and any(v > 0 for v in values)


def test_p2_no_arbitrage_at_zero_quote(p2):
    assert check_na(p2).verdict == NO_ARBITRAGE
    verdict = check_sna(p2)
    assert verdict.verdict == NO_ARBITRAGE
    assert membership(verdict.pricing, PricingSetSpec.strict_emm(p2), strict=True)


def test_p2_sold_claim_divisible_vs_indivisible(p2):
    """Selling the replicable claim above its divisible super-hedge price 0:
    with whole-unit exercise no arbitrage exists yet no pricing measure does
    either (strict no-arbitrage fails); with divisible exercise the sale is an
    outright arbitrage."""
    psi = p2.claims["psi"]
    minus_psi = TerminalClaim(p2.tree, {l: -psi.at(l) for l in p2.tree.leaves})
    market = p2.with_options(g=[minus_psi], g_prices=[F(-1, 16)])

    indiv = check_na(market, divisible=False)
    assert indiv.verdict == NO_ARBITRAGE
    slack = max_slack(PricingSetSpec.strict_emm(market))
    assert slack.status == "optimal" and slack.optimum <= 0
    div = check_na(market, divisible=True)
    assert div.verdict == ARBITRAGE
    assert check_sna(market).verdict == ARBITRAGE

    # selling below the worst-case pricing value keeps everything consistent
    cheap = p2.with_options(g=[minus_psi], g_prices=[F(1, 100)])
    assert check_sna(cheap).verdict == NO_ARBITRAGE


def test_indivisible_arbitrage_exercises_whole_at_the_stop_found(t2):
    """An American option paying 1 from time 1 on, quoted at 1/2: exercised
    whole at time 0 it loses 1/2, at time 1 it wins 1/2 on every path.  The
    scan passes the first stop and returns the second, with the buy-only
    European book kept apart from the American position."""
    from semistatic.stopping import stop_everywhere_at
    from semistatic.tree import AdaptedProcess

    tree = t2.tree
    late_one = AdaptedProcess(tree, {n: 0 if n == tree.root else 1 for n in tree.nodes})
    market = t2.with_options(g=[constant_claim(tree, 1)], g_prices=[1],
                             h=[late_one], h_prices=[F(1, 2)])
    verdict = check_na(market, divisible=False)
    assert verdict.verdict == ARBITRAGE
    assert verdict.notes == "indivisible exercise"
    port = verdict.portfolio
    assert len(port.b) == 1 and len(port.c) == 1 and port.c[0] > 0
    at_one = stop_everywhere_at(tree, 1)
    assert all(port.mu[0].at(n) == (1 if at_one.stops_at(n) else 0) for n in tree.nodes)
    values = [portfolio_value(market, port, leaf) for leaf in market.support_leaves()]
    assert min(values) >= 0 and max(values) > 0


def _count_lps(monkeypatch) -> list:
    """Record every LP `check_na` solves."""
    calls = []
    real = ftap.solve

    def counted(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(ftap, "solve", counted)
    return calls


def test_whole_unit_na_is_decided_by_the_divisible_cone_lp(p2, monkeypatch):
    """Whole-unit strategies are divisible ones, so when the divisible cone LP
    finds no arbitrage, the whole-unit check solves that LP alone instead of
    one per stop."""
    assert p2.h
    calls = _count_lps(monkeypatch)
    verdict = check_na(p2, divisible=False)
    assert verdict.verdict == NO_ARBITRAGE and verdict.portfolio is None
    assert len(calls) == 1


def test_whole_unit_check_without_options_reuses_the_divisible_lp(b1, monkeypatch):
    """Without American options whole-unit and divisible strategies agree, so
    an arbitrage found by the divisible cone LP is reported without a second,
    identical LP."""
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    market = b1.with_options(f=[f], f_prices=[3])
    calls = _count_lps(monkeypatch)
    verdict = check_na(market, divisible=False)
    assert verdict.verdict == ARBITRAGE and verdict.notes == ""
    assert len(calls) == 1
    assert verdict.portfolio == check_na(market).portfolio


def test_whole_unit_scan_refuses_past_the_enumeration_cap(monkeypatch):
    """Two options on a 1025-stop tree make 1025**2 > 10**6 stop combinations:
    a divisible arbitrage exists (an option paying 1 is free), so a scan would
    be needed, and the whole-unit check refuses after its one divisible cone
    LP, before it enumerates any stop."""
    from semistatic import EnumerationCapError, EventTree, MarketSpec
    from semistatic.stopping import count_stopping_times
    from semistatic.tree import AdaptedProcess

    rows = [("r", None, 0)]
    for i in range(10):
        rows.append((f"c{i}", "r", 1))
        rows += [(f"c{i}u", f"c{i}", 2), (f"c{i}d", f"c{i}", 2)]
    tree = EventTree(rows)
    assert count_stopping_times(tree) == 1025
    one = AdaptedProcess(tree, {n: 1 for n in tree.nodes})
    market = MarketSpec(tree=tree, S=AdaptedProcess(tree, {n: 1 for n in tree.nodes}),
                        h=(one, one), h_prices=(F(0), F(0)))
    calls = _count_lps(monkeypatch)
    assert check_na(market).verdict == ARBITRAGE
    del calls[:]

    def refuse(*args):
        raise AssertionError("stops enumerated")

    monkeypatch.setattr(ftap, "enumerate_stopping_times", refuse)
    with pytest.raises(EnumerationCapError, match="1050625 whole-unit stop combinations"):
        check_na(market, divisible=False)
    assert len(calls) == 1


def test_whole_unit_na_past_the_enumeration_cap_takes_one_lp(monkeypatch):
    """Two options paying 0 at price 0 on a 1025-stop tree whose stock is a
    martingale: 1025**2 > 10**6 stop combinations, but the divisible cone LP
    finds no arbitrage, so the whole-unit check answers NO_ARBITRAGE from that
    one LP without counting or enumerating any stop."""
    from semistatic import EventTree, MarketSpec
    from semistatic.tree import AdaptedProcess

    rows, s = [("r", None, 0)], {"r": 2}
    for i in range(10):
        rows += [(f"c{i}", "r", 1), (f"c{i}u", f"c{i}", 2), (f"c{i}d", f"c{i}", 2)]
        s.update({f"c{i}": 2, f"c{i}u": 3, f"c{i}d": 1})
    tree = EventTree(rows)
    zero = AdaptedProcess(tree, {n: 0 for n in tree.nodes})
    market = MarketSpec(tree=tree, S=AdaptedProcess(tree, s),
                        h=(zero, zero), h_prices=(F(0), F(0)))

    def refuse(*args):
        raise AssertionError("stops enumerated or counted")

    monkeypatch.setattr(ftap, "enumerate_stopping_times", refuse)
    monkeypatch.setattr(ftap, "count_stopping_times", refuse)
    calls = _count_lps(monkeypatch)
    verdict = check_na(market, divisible=False)
    assert verdict.verdict == NO_ARBITRAGE and verdict.portfolio is None
    assert len(calls) == 1


def test_whole_unit_check_without_options_enumerates_no_stops(monkeypatch):
    """A tree with 1 + 2**21 stopping times, far past the cap, but no American
    option: the one (empty) stop combination needs no enumeration, so the
    divisible cone LP alone finds the arbitrage of a buy-only claim paying 1
    at 1/2."""
    from semistatic import EventTree, MarketSpec
    from semistatic.tree import AdaptedProcess

    rows = [("r", None, 0)]
    s = {"r": 2}
    for i in range(21):
        rows += [(f"c{i}", "r", 1), (f"c{i}u", f"c{i}", 2), (f"c{i}d", f"c{i}", 2)]
        s.update({f"c{i}": 2, f"c{i}u": 3, f"c{i}d": 1})
    tree = EventTree(rows)
    market = MarketSpec(tree=tree, S=AdaptedProcess(tree, s),
                        g=(TerminalClaim(tree, {l: 1 for l in tree.leaves}),),
                        g_prices=(F(1, 2),))

    def refuse(*args):
        raise AssertionError("stops enumerated or counted")

    monkeypatch.setattr(ftap, "enumerate_stopping_times", refuse)
    monkeypatch.setattr(ftap, "count_stopping_times", refuse)
    calls = _count_lps(monkeypatch)
    verdict = check_na(market, divisible=False)
    assert verdict.verdict == ARBITRAGE and verdict.portfolio.mu == ()
    assert len(calls) == 1


def test_empty_books_reduce_to_emm_existence():
    rng = random.Random(5150)
    for _ in range(30):
        market = random_market(rng).with_options(
            f=[], f_prices=[], g=[], g_prices=[], h=[], h_prices=[]
        )
        verdict = check_sna(market)
        # independent one-step criterion: every one-step conditional family
        # admits strictly positive weights iff the parent value lies in the
        # open interior of the children's range (or all coincide)
        ok = True
        tree, S = market.tree, market.S
        for node in tree.nonleaf_nodes():
            vals = [S.scalar_at(c) for c in tree.children(node)]
            here = S.scalar_at(node)
            if all(v == here for v in vals):
                continue
            if not (min(vals) < here < max(vals)):
                ok = False
        assert (verdict.verdict == NO_ARBITRAGE) == ok


def test_na_lp_optimum_is_cone_dichotomy(b1):
    # scaling means the cone LP lands exactly on 0 (no arbitrage) or 1
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    clean = check_na(b1)
    assert clean.verdict == NO_ARBITRAGE
    dirty = check_na(b1.with_options(f=[f], f_prices=[3]))
    assert dirty.verdict == ARBITRAGE


def test_find_pricing_measure_values(b1, t2, p2):
    assert find_pricing_measure(b1).weights == {"u": F(1, 2), "d": F(1, 2)}
    put = t2.claims["put5_am"]
    generous = t2.with_options(h=[put], h_prices=[F(3)])
    Q = find_pricing_measure(generous)
    assert Q.weights == {"uu": F(1, 9), "ud": F(2, 9), "du": F(2, 9), "dd": F(4, 9)}
    Qp = find_pricing_measure(p2)
    report = membership(Qp, PricingSetSpec.strict_emm(p2), strict=True)
    assert report, report.violations


def test_find_pricing_measure_refuses_on_failure(b1):
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    market = b1.with_options(f=[f], f_prices=[3])
    with pytest.raises(VerificationFailure):
        find_pricing_measure(market)


def test_null_leaves_are_ignored(t2):
    # designating dd as null makes the down-node step one-sided: martingale
    # weights need dd, so strict no-arbitrage fails on the smaller support
    restricted = t2.with_options()
    object.__setattr__(restricted, "support", frozenset({"uu", "ud", "du"}))
    verdict = check_sna(restricted)
    assert verdict.verdict in (ARBITRAGE, STRICT_NO_ARBITRAGE_FAILS)


@pytest.mark.parametrize("seed", range(8))
def test_strict_na_equivalence_small_sample(seed):
    """check_sna, slack positivity, and strict-membership witnesses agree."""
    rng = random.Random(8800 + seed)
    for _ in range(6):
        market = random_market(rng)
        verdict = check_sna(market)
        slack = max_slack(PricingSetSpec.strict_emm(market))
        agrees = slack.strictly_positive
        witness_ok = (
            slack.status == "optimal"
            and slack.witness is not None
            and bool(membership(slack.witness, PricingSetSpec.strict_emm(market), strict=True))
        )
        assert (verdict.verdict == NO_ARBITRAGE and verdict.pricing is not None) == agrees
        assert agrees == witness_ok


@pytest.mark.parametrize("seed", range(4))
def test_sna_witness_survives_price_shift(seed):
    """The definitional content of strict no-arbitrage: no arbitrage at the
    witness's shifted quotes."""
    rng = random.Random(9900 + seed)
    found = 0
    while found < 2:
        market = random_market(rng)
        if not (market.g or market.h):
            continue
        verdict = check_sna(market)
        if verdict.verdict != NO_ARBITRAGE or verdict.pricing is None:
            continue
        found += 1
        g_shift = [p - s / 2 for p, s in zip(market.g_prices, verdict.g_slacks)]
        h_shift = [p - s / 2 for p, s in zip(market.h_prices, verdict.h_slacks)]
        shifted = check_na(market.with_options(g_prices=g_shift, h_prices=h_shift))
        assert shifted.verdict == NO_ARBITRAGE


def _record_cone_lps(monkeypatch) -> list:
    """Record the arguments of every `check_na` call `check_sna` makes."""
    calls = []

    def recording(market, *args, **kwargs):
        calls.append((args, kwargs))
        return check_na(market, *args, **kwargs)

    monkeypatch.setattr(ftap, "check_na", recording)
    return calls


def _certificate_values(market, verdict) -> list:
    """The returned portfolio's values on the support, at the quotes the
    verdict claims it for."""
    shifted = market.with_options(g_prices=verdict.shifted_g, h_prices=verdict.shifted_h)
    return [portfolio_value(shifted, verdict.portfolio, l) for l in market.support_leaves()]


@pytest.mark.parametrize("seed", range(6))
def test_sna_certificate_against_cone_lp_oracle(seed, monkeypatch):
    """The failure certificate read off the slack LP, checked against the cone
    LP as an independent oracle on random markets with American options: the
    verdict is ARBITRAGE iff the cone LP finds an arbitrage at the quotes; a
    STRICT_NO_ARBITRAGE_FAILS verdict's shifted quotes admit one; every
    portfolio re-verifies; and check_sna runs at most one cone LP, at the
    quotes, exactly when its certificate is worth nothing on the support and
    its witness is not a full-support pricing measure at the quotes."""
    rng = random.Random(7100 + seed)
    calls = _record_cone_lps(monkeypatch)
    for _ in range(12):
        market = random_market(rng)
        del calls[:]
        verdict = check_sna(market)
        assert len(calls) <= 1 and all(c == ((), {}) for c in calls)
        if verdict.verdict == NO_ARBITRAGE:
            assert not calls
            continue
        assert (verdict.verdict == ARBITRAGE) == (check_na(market).verdict == ARBITRAGE)
        values = _certificate_values(market, verdict)
        assert all(v >= 0 for v in values) and any(v > 0 for v in values)
        certificate = verdict.slack.certificate
        vanishes = not any(portfolio_value(market, certificate, l)
                           for l in market.support_leaves())
        Q = verdict.slack.witness
        proves = verdict.slack.optimum == 0 and Q is not None and \
            Q.support() == frozenset(market.support_leaves()) and \
            bool(membership(Q, PricingSetSpec(market), strict=False))
        assert bool(calls) == (vanishes and not proves)
        if proves:
            assert verdict.verdict == STRICT_NO_ARBITRAGE_FAILS
        if verdict.verdict == STRICT_NO_ARBITRAGE_FAILS:
            assert verdict.portfolio is certificate
            assert verdict.shifted_g == tuple(p - F(1, 2) for p in market.g_prices)
            assert verdict.shifted_h == tuple(p - F(1, 2) for p in market.h_prices)
            oracle = check_na(market.with_options(g_prices=verdict.shifted_g,
                                                  h_prices=verdict.shifted_h))
            assert oracle.verdict == ARBITRAGE


def test_full_support_witness_proves_no_arbitrage_without_the_cone_lp(b1, monkeypatch):
    """B1's one martingale measure (1/2, 1/2) prices the up digital at
    exactly its buy-only quote 1/2: the slack optimum is 0 and its witness,
    a pricing measure at the quotes charging both leaves, proves no
    arbitrage at the quotes, so `check_sna` fails strictness without a cone
    LP, with the slack certificate at quotes lowered by 1/2."""
    digital = TerminalClaim(b1.tree, {"u": 1, "d": 0})
    market = b1.with_options(g=[digital], g_prices=[F(1, 2)])
    calls = _record_cone_lps(monkeypatch)
    verdict = check_sna(market)
    assert calls == []
    assert verdict.verdict == STRICT_NO_ARBITRAGE_FAILS
    assert verdict.slack.optimum == 0
    assert verdict.slack.witness.weights == {"u": F(1, 2), "d": F(1, 2)}
    assert verdict.portfolio is verdict.slack.certificate
    assert verdict.shifted_g == (F(0),)
    assert all(v > 0 for v in _certificate_values(market, verdict))
    assert check_na(market).verdict == NO_ARBITRAGE


def test_partial_support_witness_still_takes_one_cone_lp(monkeypatch):
    """On the trinomial S_1 in {3, 2, 1} from S_0 = 2, the buy-only claims x
    = (1, 0, -1) and -x, both quoted at 0, are worth 0 under every
    martingale measure (q_u = q_d), so both caps bind: the slack optimum is
    0, and the LP's witness is the vertex (1/2, 0, 1/2), which misses the
    middle leaf and so proves nothing.  `check_sna` runs the one cone LP at
    the quotes, finds no arbitrage there, and fails strictness."""
    doc = {"horizon": 1, "nodes": [
        {"id": "r", "parent": None, "time": 0, "S": ["2"]},
        {"id": "u", "parent": "r", "time": 1, "S": ["3"]},
        {"id": "m", "parent": "r", "time": 1, "S": ["2"]},
        {"id": "d", "parent": "r", "time": 1, "S": ["1"]}]}
    tri = build_market(doc)
    x = {"u": 1, "m": 0, "d": -1}
    market = tri.with_options(g=[TerminalClaim(tri.tree, x),
                                 TerminalClaim(tri.tree, {l: -v for l, v in x.items()})],
                              g_prices=[F(0), F(0)])
    calls = _record_cone_lps(monkeypatch)
    verdict = check_sna(market)
    assert calls == [((), {})]
    assert verdict.verdict == STRICT_NO_ARBITRAGE_FAILS
    assert verdict.slack.optimum == 0
    assert verdict.slack.witness.support() < frozenset(market.support_leaves())
    assert all(v >= 0 for v in _certificate_values(market, verdict))
    assert any(_certificate_values(market, verdict))


def test_infeasible_slack_lp_certificate_is_farkas(b1, monkeypatch):
    """No martingale measure prices f = S_1 at 3 (S_0 = 2): the slack LP is
    infeasible, and its Farkas multipliers alone are an arbitrage that wins
    on every support leaf; no cone LP runs."""
    f = TerminalClaim(b1.tree, {"u": 3, "d": 1})
    market = b1.with_options(f=[f], f_prices=[3])
    calls = _record_cone_lps(monkeypatch)
    verdict = check_sna(market)
    assert verdict.slack.status == "infeasible"
    assert verdict.verdict == ARBITRAGE and not calls
    assert verdict.portfolio is verdict.slack.certificate
    assert all(v > 0 for v in _certificate_values(market, verdict))
