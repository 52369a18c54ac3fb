"""Measures, claims and processes computed on as integers over one
denominator, cross-checked against the Fraction sums of `oracles`.

Measures are drawn with zero weights (explicit zero entries included), with
weight off the market's support, and with large coprime denominators; claims
and processes mix small rationals with values over large primes, so that the
lcm of a form's denominators is a product of them."""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semistatic import AdaptedProcess, Measure, PricingSetSpec, TerminalClaim, membership
from semistatic.rational import rat_str
from semistatic.stopping import (
    _unnormalized_snell,
    enumerate_stopping_times,
    snell_optimal_stop,
    snell_value,
)

import oracles
from conftest import rand_rational, random_market

F = Fraction
PRIMES = (2**61 - 1, 10**9 + 7, 998244353, 2**31 - 1, 65537)


def _value(rng: random.Random) -> Fraction:
    """A small rational, or one over a large prime, or zero."""
    roll = rng.random()
    if roll < 0.2:
        return F(0)
    if roll < 0.6:
        p = rng.choice(PRIMES)
        return F(rng.randint(-4 * p, 8 * p), p)
    return rand_rational(rng)


def _claim(rng, tree) -> TerminalClaim:
    return TerminalClaim(tree, {l: _value(rng) for l in tree.leaves})


def _process(rng, tree) -> AdaptedProcess:
    return AdaptedProcess(tree, {n: _value(rng) for n in tree.nodes})


def _measure(rng, tree) -> Measure:
    """Weights on a random subset of the leaves, some over large primes, with
    explicit zero entries on some of the others."""
    leaves = list(tree.leaves)
    keep = rng.sample(leaves, rng.randint(1, len(leaves)))
    raw = {l: F(rng.randint(1, 8), rng.choice((1, 3) + PRIMES)) for l in keep}
    total = sum(raw.values())
    weights = {l: w / total for l, w in raw.items()}
    weights.update({l: 0 for l in leaves if l not in raw and rng.random() < 0.5})
    return Measure(tree, weights)


def _draw(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    market = random_market(rng, max_depth=3)
    return rng, market, market.tree


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_expectations_equal_fraction_sums(data):
    rng, _, tree = _draw(data)
    Q = _measure(rng, tree)
    for claim in (_claim(rng, tree), _claim(rng, tree)):
        assert Q.expect_claim(claim) == oracles.expect_claim(Q, claim)
    h = _process(rng, tree)
    for tau in rng.sample(enumerate_stopping_times(tree), 4) if len(tree.leaves) > 3 \
            else enumerate_stopping_times(tree):
        assert Q.expect_at_stop(h, tau) == oracles.expect_at_stop(Q, h, tau)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_masses_and_envelope_equal_fraction_sums(data):
    rng, _, tree = _draw(data)
    Q = _measure(rng, tree)
    h = _process(rng, tree)
    assert {n: F(m, Q.den) for n, m in Q.masses().items()} == \
        oracles.subtree_masses(Q)
    reference = oracles.unnormalized_snell(Q, h)
    V, den = _unnormalized_snell(Q, h)
    assert den == Q.den * h.scaled()[0]
    assert {n: F(v, den) for n, v in V.items()} == reference
    assert snell_value(Q, h) == reference[tree.root]
    assert Q.expect_at_stop(h, snell_optimal_stop(Q, h)) == reference[tree.root]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_membership_drift_and_envelope_checks_equal_fraction_sums(data):
    """membership names exactly the nonzero Fraction drifts, in node-then-
    component order, flags weight off the market's support, and flags an
    American cap exactly when the Fraction envelope exceeds it."""
    rng, market, tree = _draw(data)
    if data.draw(st.booleans(), label="dim 2"):
        S = AdaptedProcess(tree, {n: [market.S.scalar_at(n), _value(rng)] for n in tree.nodes})
        market = replace(market, S=S)
    if data.draw(st.booleans(), label="smaller support"):
        market = replace(market, support=frozenset(
            rng.sample(tree.leaves, rng.randint(1, len(tree.leaves)))))
    Q = _measure(rng, tree)
    for strict in (False, True):
        report = membership(Q, PricingSetSpec(market), strict=strict)
        drift = [v for v in report.violations if v.startswith("martingale drift")]
        assert drift == [f"martingale drift {rat_str(d)} at node {node} component {l}"
                         for (node, l), d in oracles.martingale_drift(Q, market).items() if d]
        off = any(v.startswith("support outside") for v in report.violations)
        assert off == bool(Q.support() - market.support)
        for k, (h, cap) in enumerate(zip(market.h, market.h_prices)):
            got = oracles.unnormalized_snell(Q, h)[tree.root]
            flagged = any(v.startswith(f"h[{k}] exercise envelope {rat_str(got)} ")
                          for v in report.violations)
            assert flagged == (got > cap or (strict and got == cap))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_measures_equal_in_any_written_form_share_one_hash(data):
    """The same weights written as unreduced "p/q" text, with explicit "0"
    entries on the other leaves and in shuffled order, make one measure:
    equal, one hash, one `weights` view and one integer form."""
    rng, _, tree = _draw(data)
    Q = _measure(rng, tree)
    k = rng.randint(2, 9)
    text = {l: f"{w.numerator * k}/{w.denominator * k}" for l, w in Q.weights.items()}
    text.update({l: "0" for l in tree.leaves if l not in text})
    items = list(text.items())
    rng.shuffle(items)
    other = Measure(tree, dict(items))
    assert other == Q and hash(other) == hash(Q)
    assert other.weights == Q.weights and (other.den, other.num) == (Q.den, Q.num)


def test_measure_written_three_ways(b1):
    halves = [Measure(b1.tree, {"u": "1/2", "d": "1/2"}),
              Measure(b1.tree, {"u": F(2, 4), "d": F(1, 2)}),
              Measure(b1.tree, {"d": "2/4", "u": F(1, 2)})]
    assert len(set(halves)) == 1 and all(Q == halves[0] for Q in halves)
    assert all(Q.weights == {"u": F(1, 2), "d": F(1, 2)} for Q in halves)
    one = Measure(b1.tree, {"u": 1, "d": 0})
    assert one == Measure(b1.tree, {"u": "3/3"}) and hash(one) == hash(Measure(b1.tree, {"u": 1}))
    assert one.weights == {"u": 1} and (one.den, one.num) == (1, {"u": 1})
    assert one != halves[0]
