"""Built-in markets used throughout the test suite and the CLI.

B1: one-period binomial, S0=2, S1 in {3,1}.  The smallest complete market.
T2: two-period binomial lattice, S0=4, up x2 / down x1/2.  Unique EMM.
P2: the two-period market with one buy-only American option priced at 0 and a
    European target claim; its EMM family is a two-parameter set (p,q) in
    (0,1/2)^2.  Node data are reverse-engineered from the printed quantities
    they must reproduce, and `load_fixture("P2")` re-derives every one of those
    quantities from the stored tree, failing loudly on any mismatch.
"""

from __future__ import annotations

from fractions import Fraction

from .lp import VerificationFailure
from .market import MarketSpec, build_market, market_to_json
from .measures import Measure
from .rational import rat
from .stopping import StoppingTime, at_stop, snell_value
from .tree import TerminalClaim

FIXTURE_NAMES = ("B1", "T2", "P2")


class FixtureError(VerificationFailure):
    """The stored fixture fails its own consistency re-derivation."""


def _b1_doc() -> dict:
    return {
        "horizon": 1,
        "nodes": [
            {"id": "r", "parent": None, "time": 0, "S": ["2"]},
            {"id": "u", "parent": "r", "time": 1, "S": ["3"]},
            {"id": "d", "parent": "r", "time": 1, "S": ["1"]},
        ],
        "european_two_sided": [],
        "european_buy_only": [],
        "american_buy_only": [],
        "claims": {
            "up_digital": {"type": "european", "values": {"u": "1", "d": "0"}},
        },
    }


def _t2_doc() -> dict:
    return {
        "horizon": 2,
        "nodes": [
            {"id": "r", "parent": None, "time": 0, "S": ["4"]},
            {"id": "u", "parent": "r", "time": 1, "S": ["8"]},
            {"id": "uu", "parent": "u", "time": 2, "S": ["16"]},
            {"id": "ud", "parent": "u", "time": 2, "S": ["4"]},
            {"id": "d", "parent": "r", "time": 1, "S": ["2"]},
            {"id": "du", "parent": "d", "time": 2, "S": ["4"]},
            {"id": "dd", "parent": "d", "time": 2, "S": ["1"]},
        ],
        "european_two_sided": [],
        "european_buy_only": [],
        "american_buy_only": [],
        "claims": {
            "put5_eu": {
                "type": "european",
                "values": {"uu": "0", "ud": "1", "du": "1", "dd": "4"},
            },
            "put5_am": {
                "type": "american",
                "values": {
                    "r": "1", "u": "0", "d": "3",
                    "uu": "0", "ud": "1", "du": "1", "dd": "4",
                },
            },
        },
    }


def _p2_doc() -> dict:
    # Stock: S0=4, S1 in {6,2}; each time-1 node has three children whose
    # one-step weight family is (p, 1-2p, p), valid exactly on p in (0,1/2).
    h = {
        "r": "-1", "u": "1", "d": "-2",
        "u1": "3", "u2": "0", "u3": "0",
        "d1": "4", "d2": "-3", "d3": "0",
    }
    # psi = (h at tau12 + h at 2)/2 pathwise, tau12 = stop at 1 on u, at 2 on d
    psi = {"u1": "2", "u2": "1/2", "u3": "1/2", "d1": "4", "d2": "-3", "d3": "0"}
    return {
        "horizon": 2,
        "nodes": [
            {"id": "r", "parent": None, "time": 0, "S": ["4"]},
            {"id": "u", "parent": "r", "time": 1, "S": ["6"]},
            {"id": "u1", "parent": "u", "time": 2, "S": ["8"]},
            {"id": "u2", "parent": "u", "time": 2, "S": ["6"]},
            {"id": "u3", "parent": "u", "time": 2, "S": ["4"]},
            {"id": "d", "parent": "r", "time": 1, "S": ["2"]},
            {"id": "d1", "parent": "d", "time": 2, "S": ["3"]},
            {"id": "d2", "parent": "d", "time": 2, "S": ["2"]},
            {"id": "d3", "parent": "d", "time": 2, "S": ["1"]},
        ],
        "european_two_sided": [],
        "european_buy_only": [],
        "american_buy_only": [{"payoff": h, "price": "0"}],
        "claims": {"psi": {"type": "european", "values": psi}},
    }


_DOCS = {"B1": _b1_doc, "T2": _t2_doc, "P2": _p2_doc}


def _fixture_doc(name: str) -> dict:
    """The market-file document of fixture `name`, in either case."""
    key = name.upper()
    if key not in _DOCS:
        raise KeyError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    return _DOCS[key]()


def fixture_json(name: str) -> str:
    """Canonical market-file text for a fixture."""
    return market_to_json(build_market(_fixture_doc(name)))


def load_fixture(name: str) -> MarketSpec:
    market = build_market(_fixture_doc(name))
    if name.upper() == "P2":
        verify_p2(market)
    return market


def p2_weights(p, q) -> dict[str, Fraction]:
    """Leaf weights of the P2 pricing measure with parameters (p, q): p is
    the conditional weight of leaf u1 given node u, q that of d1 given d."""
    p, q = rat(p), rat(q)
    half = Fraction(1, 2)
    return {
        "u1": half * p, "u2": half * (1 - 2 * p), "u3": half * p,
        "d1": half * q, "d2": half * (1 - 2 * q), "d3": half * q,
    }


def p2_measure(market: MarketSpec, p, q) -> Measure:
    return Measure(market.tree, p2_weights(p, q))


def _one_step_family(s_parent, s_children):
    """General solution of {sum w = 1, sum w*S = S_parent} for three children,
    parametrized by the first child's weight t: returns (const, slope) vectors
    and the open interval of t where all weights are positive."""
    s1, s2, s3 = s_children
    if s2 == s3:
        raise FixtureError("degenerate one-step system")
    # w2, w3 solve a 2x2 system affine in t
    def w23(t):
        w2 = ((s_parent - s1 * t) - s3 * (1 - t)) / (s2 - s3)
        w3 = (1 - t) - w2
        return w2, w3

    def triple(t):
        w2, w3 = w23(t)
        return (t, w2, w3)

    at0, at1 = triple(Fraction(0)), triple(Fraction(1))
    const = at0
    slope = tuple(b - a for a, b in zip(at0, at1))
    lo, hi = None, None
    for c, s in zip(const, slope):
        if s > 0:
            bound = -c / s
            lo = bound if lo is None else max(lo, bound)
        elif s < 0:
            bound = -c / s
            hi = bound if hi is None else min(hi, bound)
        elif c <= 0:
            raise FixtureError("one-step family has no positive range")
    return const, slope, (lo, hi)


def verify_p2(market: MarketSpec) -> None:
    """Re-derive every printed quantity of the P2 market from the stored tree.

    Raises FixtureError on any mismatch, so an edited fixture cannot silently
    drift from the values it is supposed to reproduce.
    """
    tree = market.tree
    S = market.S
    h = market.h[0]
    psi = market.claims["psi"]
    half = Fraction(1, 2)

    def fail(msg):
        raise FixtureError(f"P2 self-test: {msg}")

    if not isinstance(psi, TerminalClaim):
        fail("claim psi is not a European claim")

    if market.h_prices != (Fraction(0),):
        fail(f"American price {market.h_prices} != (0,)")
    # First-period weights are forced to (1/2, 1/2) by martingality.
    u, d = tree.children("r")
    su, sd = S.scalar_at(u), S.scalar_at(d)
    if su == sd:
        fail("degenerate first period")
    wu = (S.scalar_at("r") - sd) / (su - sd)
    if (wu, 1 - wu) != (half, half):
        fail(f"first-period weights {(wu, 1 - wu)} != (1/2, 1/2)")

    # Second-period families: parameter range must be exactly (0, 1/2), and the
    # conditional exercise values must be 3p and 10q-3.
    expected = {u: (Fraction(0), Fraction(3)), d: (Fraction(-3), Fraction(10))}
    for node in (u, d):
        kids = tree.children(node)
        if len(kids) != 3:
            fail(f"node {node} has {len(kids)} children, expected 3")
        const, slope, rng = _one_step_family(
            S.scalar_at(node), [S.scalar_at(c) for c in kids]
        )
        if rng != (Fraction(0), half):
            fail(f"node {node}: parameter range {rng} != (0, 1/2)")
        hc, hs = expected[node]
        got_c = sum(w * h.scalar_at(c) for w, c in zip(const, kids))
        got_s = sum(w * h.scalar_at(c) for w, c in zip(slope, kids))
        if (got_c, got_s) != (hc, hs):
            fail(f"node {node}: conditional exercise value {got_c}+{got_s}t, "
                 f"expected {hc}+{hs}t")
    if h.scalar_at("r") != -1 or h.scalar_at(u) != 1 or h.scalar_at(d) != -2:
        fail("early exercise values differ from (-1; 1, -2)")

    # psi is the half-and-half mixture of exercising at tau12 and at maturity.
    h_tau12 = at_stop(StoppingTime(tree, [u] + list(tree.children(d))), h.as_scalar_map())
    for leaf in tree.leaves:
        want = half * (h_tau12[leaf] + h.scalar_at(leaf))
        if psi.at(leaf) != want:
            fail(f"psi({leaf}) = {psi.at(leaf)} != {want}")

    # E_{(p,q)} psi must be the affine form 3/4 p + 5 q - 5/4.
    def e_psi(p, q):
        w = p2_weights(p, q)
        return sum(w[l] * psi.at(l) for l in tree.leaves)

    c0 = e_psi(0, 0)
    cp = e_psi(1, 0) - c0
    cq = e_psi(0, 1) - c0
    if (cp, cq, c0) != (Fraction(3, 4), Fraction(5), Fraction(-5, 4)):
        fail(f"E psi = {cp} p + {cq} q + {c0}, expected 3/4 p + 5 q - 5/4")
    if cp * Fraction(1, 3) + cq * Fraction(1, 5) + c0 != 0:
        fail("affine objective does not vanish at (1/3, 1/5)")

    # The exercise-value envelope as a function of (p, q) must match the
    # printed max-expression at sample points.
    def printed(p, q):
        inner = half * max(3 * p, Fraction(1)) + half * max(10 * q - 3, Fraction(-2))
        return max(inner, Fraction(-1))

    samples = [
        (Fraction(1, 3), Fraction(1, 5)),
        (Fraction(1, 4), Fraction(1, 10)),
        (Fraction(9, 20), Fraction(9, 20)),
        (Fraction(1, 10), Fraction(9, 20)),
        (Fraction(2, 5), Fraction(1, 20)),
    ]
    for p, q in samples:
        got = snell_value(p2_measure(market, p, q), h)
        if got != printed(p, q):
            fail(f"exercise envelope at ({p},{q}) = {got}, printed form {printed(p, q)}")
