"""Market specifications, semi-static strategies, and the market file format.

`portfolio_values` is the one portfolio evaluator: it values a semi-static
strategy at many leaves in one pass down the tree, and `portfolio_value` is
its one-leaf call.  `StrategySpace` lays a strategy out as LP columns, the
same for every verdict and hedge, and reads a solution back as a portfolio.

A market is a stock process on an event tree plus three static option books
with side semantics fixed by position: `f` two-sided European, `g` buy-only
European, `h` buy-only infinitely divisible American.  The market file is a
single JSON document with rationals encoded as "p/q" strings; parse ->
serialize -> parse is the identity, bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .lp import EQ, ZERO, Constraint, int_con
from .rational import rat, rat_str
from .stopping import LiquidatingStrategy, StoppingTime, at_stop, stop_everywhere_at
from .tree import AdaptedProcess, EventTree, TerminalClaim, TreeError


class MarketError(ValueError):
    pass


def _kept(obj, key, build: Callable[[], object]):
    """`build()`, made once per object and `key` and kept on the object: what
    depends on a market alone (its decisions, its reductions
    `without_american` and restrictions `on_support`, and one whole map of
    terminal-value coefficients) or on its stock process and the key alone
    (the martingale rows per leaf set; a slack LP's round 0 per leaf set,
    European book and floor).  Structure rows are built per LP.  A derived
    market (`with_options`, `exercised_at`, `dataclasses.replace`) is a new
    object and decides again; `build_market` makes a new stock process too.
    What is kept is shared and never changed after it is stored: callers
    copy before they extend it.  Threads that ask at once may each build it;
    the first one stored is kept."""
    kept = obj.__dict__.setdefault("_kept", {})
    if key not in kept:
        kept.setdefault(key, build())
    return kept[key]


@dataclass(frozen=True, eq=False)
class MarketSpec:
    """The tradable universe: (tree, S, f/f_prices, g/g_prices, h/h_prices).

    `support` is the reference-measure support: the leaves on which "almost
    surely" is evaluated.  It defaults to all leaves; a market file may
    designate a smaller set (the complement is the null set).
    `claims` carries optional named claims bundled with the market file
    (fixtures use this to ship their target payoff), and `priors` the file's
    optional leaf-weight maps for the robust commands.  Only `build_market`
    makes a market; every other market is derived from one by
    `dataclasses.replace` and carries its claims and priors.  Markets compare
    and hash by identity, as `_kept` tells them apart.
    """

    tree: EventTree
    S: AdaptedProcess
    f: tuple[TerminalClaim, ...] = ()
    f_prices: tuple[Fraction, ...] = ()
    g: tuple[TerminalClaim, ...] = ()
    g_prices: tuple[Fraction, ...] = ()
    h: tuple[AdaptedProcess, ...] = ()
    h_prices: tuple[Fraction, ...] = ()
    support: frozenset[str] = field(default=frozenset())
    claims: Mapping[str, object] = field(default_factory=dict)
    priors: tuple[Mapping[str, Fraction], ...] = ()

    def __post_init__(self):
        if len(self.f) != len(self.f_prices):
            raise MarketError("two-sided European payoff/price count mismatch")
        if len(self.g) != len(self.g_prices):
            raise MarketError("buy-only European payoff/price count mismatch")
        if len(self.h) != len(self.h_prices):
            raise MarketError("American payoff/price count mismatch")
        for hk in self.h:
            if hk.dim != 1:
                raise MarketError("American payoff processes must be scalar")
        if not self.support:
            object.__setattr__(self, "support", frozenset(self.tree.leaves))
        unknown = self.support - set(self.tree.nodes)
        bad = unknown or self.support - set(self.tree.leaves)
        if bad:
            kind = "unknown" if unknown else "non-leaf"
            raise MarketError(f"support contains {kind} nodes {sorted(bad)!r}")

    @property
    def dim(self) -> int:
        return self.S.dim

    def support_leaves(self) -> tuple[str, ...]:
        return tuple(l for l in self.tree.leaves if l in self.support)

    def without_american(self, keep: int = 0) -> "MarketSpec":
        """The same market with only the first `keep` American options: the
        market itself when it has no more, else one object per market and
        `keep`, reached by dropping the last option one at a time, so that
        every reduction of a market to `keep` options is the same object and
        shares what that object has decided."""
        if keep >= len(self.h):
            return self
        return _kept(self, "without_last_american", lambda: replace(
            self, h=self.h[:-1], h_prices=self.h_prices[:-1])).without_american(keep)

    def on_support(self, leaves) -> "MarketSpec":
        """The same market with reference support `leaves`: the market itself
        when that is its support, else one object per market and leaf set,
        so that every question asked of the restricted market shares what it
        has decided, its LP rows included."""
        leaves = frozenset(leaves)
        if not leaves:
            raise MarketError("empty support")
        if leaves == self.support:
            return self
        return _kept(self, ("on_support", leaves), lambda: replace(self, support=leaves))

    def with_options(self, f=None, f_prices=None, g=None, g_prices=None,
                     h=None, h_prices=None) -> "MarketSpec":
        """A new market with each book or quote list that is given replaced,
        quotes made exact with `rat`."""
        books = {k: tuple(v) for k, v in dict(f=f, g=g, h=h).items() if v is not None}
        quotes = {k: tuple(map(rat, v)) for k, v in
                  dict(f_prices=f_prices, g_prices=g_prices, h_prices=h_prices).items()
                  if v is not None}
        return replace(self, **books, **quotes)

    def exercised_at(self, taus: Sequence[StoppingTime]) -> "MarketSpec":
        """The market in which each American option k is exercised whole at
        `taus[k]`: it becomes the buy-only European claim h_k(tau_k), bought at
        its American quote and appended to `g` (inverted by `whole_unit`)."""
        if len(taus) != len(self.h):
            raise MarketError("one stopping time per American option is required")
        stopped = tuple(TerminalClaim(self.tree, at_stop(tau, hk.as_scalar_map()))
                        for hk, tau in zip(self.h, taus))
        return replace(self, g=self.g + stopped, g_prices=self.g_prices + self.h_prices,
                       h=(), h_prices=())

    def whole_unit(self, p: "HedgePortfolio", taus: Sequence[StoppingTime]) -> "HedgePortfolio":
        """`p`, a portfolio of `self.exercised_at(taus)`, as one of this market
        worth the same at every leaf: its buy-only positions past `len(self.g)`
        are American holdings, each exercised whole at its stop."""
        n = len(self.g)
        return HedgePortfolio(H=p.H, a=p.a, b=p.b[:n], c=p.b[n:],
                              mu=tuple(LiquidatingStrategy.from_stopping_time(t) for t in taus))


@dataclass(frozen=True)
class HedgePortfolio:
    """A semi-static strategy (H, a, b, c, mu).

    H is the dynamic stock position (d-dim, read on non-leaf nodes), `a` the
    two-sided European positions (signed), `b >= 0` the buy-only European
    positions, and each American option k is held in quantity `c[k] >= 0` and
    exercised by the liquidating strategy `mu[k]`.
    """

    H: AdaptedProcess | None = None
    a: tuple[Fraction, ...] = ()
    b: tuple[Fraction, ...] = ()
    c: tuple[Fraction, ...] = ()
    mu: tuple[LiquidatingStrategy, ...] = ()

    def __post_init__(self):
        if any(x < 0 for x in self.b):
            raise MarketError("buy-only European positions must be nonnegative")
        if any(x < 0 for x in self.c):
            raise MarketError("American positions must be nonnegative")
        if len(self.c) != len(self.mu):
            raise MarketError("American position/exercise count mismatch")


def portfolio_values(market: MarketSpec, p: HedgePortfolio,
                     leaves: Sequence[str]) -> list[Fraction]:
    """Terminal values H.S + a(f - fbar) + b(g - gbar) + c(mu(h) - hbar) at
    each of `leaves`, in order, in one pass down the tree.

    Each node on the leaves' paths is visited once: its trading gain
    sum over steps s < t of H_s . (S_{s+1} - S_s) (H read on non-leaf nodes
    only), and each held American leg's exercise payoff sum of mu * h along
    the path, is its parent's value plus one step.  The static European legs
    are added per leaf.  All of it runs on the processes' and claims'
    integer forms; each value is made as one Fraction."""
    tree = market.tree
    for leaf in leaves:
        if leaf not in tree or not tree.is_leaf(leaf):
            raise MarketError(f"{leaf!r} is not a leaf")
    H, S = p.H, market.S
    if H is not None and H.dim != S.dim:
        raise MarketError(f"H dimension {H.dim} != stock dimension {S.dim}")
    for legs, book, name in ((p.a, market.f, "f"), (p.b, market.g, "g"), (p.c, market.h, "h")):
        if len(legs) != len(book):
            raise MarketError(f"{len(legs)} positions for the {len(book)} options of book {name}")
    # Every term is an integer over a denominator fixed for the portfolio:
    # the gain is one over gain_den, and a leg whose payoff is the integer x
    # over d adds coef * (x / d - price), that is (a * x - b) over den.
    steps = [(*H.scaled(l), *S.scaled(l)) for l in range(S.dim)] if H is not None else []
    gain_den = lcm(*[hd * sd for hd, _, sd, _ in steps])
    steps = [(gain_den // (hd * sd), pos, s) for hd, pos, sd, s in steps]
    american = [(coef, price, eta.eta.scaled(), h.scaled())
                for coef, eta, h, price in zip(p.c, p.mu, market.h, market.h_prices) if coef]
    european = [(coef, price, claim.scaled())
                for coef, claim, price in [*zip(p.a, market.f, market.f_prices),
                                           *zip(p.b, market.g, market.g_prices)] if coef]
    legs = [(coef, price, ed * hd) for coef, price, (ed, _), (hd, _) in american]
    legs += [(coef, price, d) for coef, price, (d, _) in european]
    den = lcm(gain_den, *[coef.denominator * d * price.denominator for coef, price, d in legs])
    affine = []
    for coef, price, d in legs:
        scale = coef.numerator * (den // (coef.denominator * d * price.denominator))
        affine.append((scale * price.denominator, scale * price.numerator * d))
    flows = [(eta, h) for _, _, (_, eta), (_, h) in american]
    claims = [value for _, _, (_, value) in european]
    gain_scale = den // gain_den
    root = tree.root
    # node -> (gain, exercise payoff of each held leg) along the root path
    acc = {root: (0, [eta[root] * h[root] for eta, h in flows])}
    out = []
    for leaf in leaves:
        path = tree.path(leaf)
        i = len(path) - 1
        while path[i] not in acc:
            i -= 1
        for here, there in zip(path[i:], path[i + 1:]):
            gain, paid = acc[here]
            for scale, pos, s in steps:
                if pos[here]:
                    gain += scale * pos[here] * (s[there] - s[here])
            acc[there] = (gain, [x + eta[there] * h[there] for x, (eta, h) in zip(paid, flows)])
        gain, paid = acc[leaf]
        payoffs = paid + [value[leaf] for value in claims]
        total = gain_scale * gain + sum([a * x - b for x, (a, b) in zip(payoffs, affine)])
        out.append(Fraction(total, den))
    return out


def portfolio_value(market: MarketSpec, p: HedgePortfolio, leaf: str) -> Fraction:
    """Terminal value on the path to `leaf` (`portfolio_values` of one leaf)."""
    return portfolio_values(market, p, (leaf,))[0]


# ---------------------------------------------------------------------------
# Strategy variable space (the nu re-parametrization)
# ---------------------------------------------------------------------------

def _phi_den(m: MarketSpec) -> int:
    """The one denominator of every leaf's terminal-value coefficients: the
    lcm of the stock's, the claims' and processes', and the quotes'."""
    options = zip((*m.f, *m.g, *m.h), (*m.f_prices, *m.g_prices, *m.h_prices))
    return lcm(*[m.S.scaled(l)[0] for l in range(m.dim)],
               *[lcm(x.scaled()[0], price.denominator) for x, price in options])


def _phi_rows(m: MarketSpec) -> tuple[int, dict[str, dict[str, int]]]:
    """(`_phi_den(m)`, leaf -> that leaf's nonzero terminal-value
    coefficients), every leaf's built at once from the integer forms."""
    den = _phi_den(m)
    stock = [m.S.scaled(l) for l in range(m.dim)]
    rows = {}
    for leaf in m.tree.leaves:
        path = m.tree.path(leaf)
        num: dict[str, int] = {}
        for here, there in zip(path, path[1:]):
            for l, (d, s) in enumerate(stock):
                if s[there] != s[here]:
                    num[f"H[{here}][{l}]"] = (den // d) * (s[there] - s[here])
        for name, book, prices in (("a", m.f, m.f_prices), ("b", m.g, m.g_prices)):
            for i, (claim, price) in enumerate(zip(book, prices)):
                d, value = claim.scaled()
                val = (den // d) * value[leaf] - price.numerator * (den // price.denominator)
                if val:
                    num[f"{name}[{i}]"] = val
        for k, (h, price) in enumerate(zip(m.h, m.h_prices)):
            d, value = h.scaled()
            for n in path:
                if value[n]:
                    num[f"nu[{k}][{n}]"] = (den // d) * value[n]
            if price:
                num[f"c[{k}]"] = -price.numerator * (den // price.denominator)
        rows[leaf] = num
    return den, rows


class StrategySpace:
    """Column layout for semi-static strategies on a market.

    Columns: H[node][l] (free), a[i] (free), b[j] >= 0, nu[k][node] >= 0 and
    c[k] >= 0 tied by per-leaf path-sum rows nu-along-path == c[k].
    Optionally an exercise flow eta[node] >= 0 with unit path sums (for
    sub-hedging American claims).  Its rows are integer rows from the
    market's integer forms: the structure rows are built per LP, and every
    leaf's terminal-value coefficients once per market object, as one kept
    map (`_kept`) that LPs extend copies of.
    """

    def __init__(self, market: MarketSpec, include_eta: bool = False):
        self.market = market
        tree = market.tree
        self.variables: list[str] = []
        self.free: set[str] = set()
        for n in tree.nonleaf_nodes():
            for l in range(market.dim):
                v = f"H[{n}][{l}]"
                self.variables.append(v)
                self.free.add(v)
        for i in range(len(market.f)):
            v = f"a[{i}]"
            self.variables.append(v)
            self.free.add(v)
        for j in range(len(market.g)):
            self.variables.append(f"b[{j}]")
        for k in range(len(market.h)):
            self.variables.append(f"c[{k}]")
            for n in tree.nodes:
                self.variables.append(f"nu[{k}][{n}]")
        self.include_eta = include_eta
        if include_eta:
            for n in tree.nodes:
                self.variables.append(f"eta[{n}]")

    def structure_rows(self) -> list[Constraint]:
        """Each American option's flow nu sums along every path to its
        holding c, and the claim's exercise flow eta (if included) to one."""
        tree = self.market.tree
        rows = []
        for k in range(len(self.market.h)):
            for leaf in tree.leaves:
                num = {f"nu[{k}][{n}]": 1 for n in tree.path(leaf)}
                num[f"c[{k}]"] = -1
                rows.append(int_con(num, EQ, 0, 1, f"liq[{k}][{leaf}]"))
        if self.include_eta:
            for leaf in tree.leaves:
                rows.append(int_con({f"eta[{n}]": 1 for n in tree.path(leaf)}, EQ, 1, 1,
                                    f"flow[{leaf}]"))
        return rows

    def phi_coeffs(self, leaf: str) -> tuple[int, dict[str, int]]:
        """Column coefficients of the terminal portfolio value at `leaf`, as
        integers over one denominator per market: (den, nonzero
        coefficients).  Read from the market's kept map (`_phi_rows`), so
        the coefficients are shared: do not change them."""
        den, rows = _kept(self.market, "phi", lambda: _phi_rows(self.market))
        return den, rows[leaf]

    def extract_portfolio(self, values: Mapping[str, Fraction]) -> HedgePortfolio:
        m = self.market
        tree = m.tree
        H = AdaptedProcess(tree, {
            n: tuple(ZERO if tree.is_leaf(n) else values.get(f"H[{n}][{l}]", ZERO)
                     for l in range(m.dim))
            for n in tree.nodes})
        a = tuple(values.get(f"a[{i}]", ZERO) for i in range(len(m.f)))
        b = tuple(values.get(f"b[{j}]", ZERO) for j in range(len(m.g)))
        c, mus = [], []
        for k in range(len(m.h)):
            ck = values.get(f"c[{k}]", ZERO)
            c.append(ck)
            if ck > 0:
                eta_vals = {n: values.get(f"nu[{k}][{n}]", ZERO) / ck for n in tree.nodes}
                mus.append(LiquidatingStrategy.from_map(tree, eta_vals))
            else:
                mus.append(LiquidatingStrategy.from_stopping_time(stop_everywhere_at(tree, 0)))
        return HedgePortfolio(H=H, a=a, b=b, c=tuple(c), mu=tuple(mus))

    def extract_eta(self, values: Mapping[str, Fraction]) -> LiquidatingStrategy:
        tree = self.market.tree
        return LiquidatingStrategy.from_map(
            tree, {n: values.get(f"eta[{n}]", ZERO) for n in tree.nodes}
        )


# ---------------------------------------------------------------------------
# Market file (JSON) round trip
# ---------------------------------------------------------------------------

_JSON_TYPES = {list: "array", Mapping: "object", str: "string"}


def _json(value, kind: type, where: str):
    """`value` if it is a JSON array, object or string (`kind` list, Mapping
    or str), else a MarketError naming `where`."""
    if not isinstance(value, kind):
        raise MarketError(f"{where} must be a JSON {_JSON_TYPES[kind]}, not {value!r}")
    return value


def _time(value, where: str) -> int:
    """`value` if it is a JSON integer, else a MarketError naming `where`:
    a boolean is an `int` to Python but not a time."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MarketError(f"{where} must be a JSON integer, not {value!r}")
    return value


def _values_from_json(data, where: str) -> dict[str, Fraction]:
    """A JSON object of rationals, else a MarketError naming `where`."""
    return {k: rat(v) for k, v in _json(data, Mapping, where).items()}


def _field(entry: Mapping, key: str, where: str):
    try:
        return entry[key]
    except KeyError:
        raise MarketError(f"{where}: missing field {key!r}") from None


def build_market(description: str | Mapping) -> MarketSpec:
    """Parse and validate a market file (JSON text or an already-parsed dict)."""
    if isinstance(description, str):
        try:
            doc = json.loads(description)
        except json.JSONDecodeError as exc:
            raise MarketError(f"market file is not valid JSON: {exc}") from exc
    else:
        doc = description
    doc = _json(doc, Mapping, "market file")
    horizon = _time(_field(doc, "horizon", "market file"), "horizon")
    nodes = _json(_field(doc, "nodes", "market file"), list, "nodes")
    node_rows = [_json(row, Mapping, "node") for row in nodes]
    tree_rows = []
    for row in node_rows:
        node = _json(_field(row, "id", "node"), str, "node id")
        parent = None if row.get("parent") is None else _json(row["parent"], str, "node parent")
        tree_rows.append((node, parent, _time(_field(row, "time", "node"), f"node {node!r}: time")))
    tree = EventTree(tree_rows)
    if tree.horizon != horizon:
        raise MarketError(f"declared horizon {horizon} != tree horizon {tree.horizon}")
    s_values = {}
    for row in node_rows:
        if "S" not in row:
            raise TreeError(f"node {row['id']!r}: missing S value")
        s_values[row["id"]] = [rat(v) for v in _json(row["S"], list, f"node {row['id']!r}: S")]
    S = AdaptedProcess(tree, s_values)

    def read_book(key, payoff_type):
        payoffs, prices = [], []
        for entry in _json(doc.get(key, []), list, key):
            entry = _json(entry, Mapping, f"{key} entry")
            payoff = _values_from_json(_field(entry, "payoff", key), f"{key} payoff")
            payoffs.append(payoff_type(tree, payoff))
            prices.append(rat(_field(entry, "price", key)))
        return tuple(payoffs), tuple(prices)

    f, f_prices = read_book("european_two_sided", TerminalClaim)
    g, g_prices = read_book("european_buy_only", TerminalClaim)
    h, h_prices = read_book("american_buy_only", AdaptedProcess)

    support = _json(doc.get("support", []), list, "support")
    support = frozenset([_json(l, str, "support leaf") for l in support] or tree.leaves)
    claims = {name: read_claim(tree, spec, f"claim {name!r}")
              for name, spec in _json(doc.get("claims", {}), Mapping, "claims").items()}
    priors = tuple(_values_from_json(row, f"priors[{i}]") for i, row in
                   enumerate(_json(doc.get("priors", []), list, "priors")))
    return MarketSpec(
        tree=tree, S=S, f=f, f_prices=f_prices, g=g, g_prices=g_prices,
        h=h, h_prices=h_prices, support=support, claims=claims, priors=priors,
    )


def read_claim(tree: EventTree, spec, where: str) -> TerminalClaim | AdaptedProcess:
    """A claim from its JSON object {"type": "european" | "american",
    "values": {node: rational}} on `tree`, else a MarketError naming `where`."""
    spec = _json(spec, Mapping, where)
    kind = _field(spec, "type", where)
    values = _json(_field(spec, "values", where), Mapping, f"{where} values")
    if kind not in ("european", "american"):
        raise MarketError(f"{where}: unknown type {kind!r}")
    payoff_type = TerminalClaim if kind == "european" else AdaptedProcess
    return payoff_type(tree, _values_from_json(values, f"{where} values"))


def market_to_json(market: MarketSpec) -> str:
    """Canonical serialization; `build_market(market_to_json(m))` reproduces m."""
    tree = market.tree
    nodes = []
    for n in tree.nodes:
        row = {
            "id": n,
            "parent": None if n == tree.root else tree.parent(n),
            "time": tree.time(n),
            "S": [rat_str(v) for v in market.S.at(n)],
        }
        nodes.append(row)

    def claim_json(claim: TerminalClaim):
        return {leaf: rat_str(claim.at(leaf)) for leaf in tree.leaves}

    def process_json(proc: AdaptedProcess):
        return {n: rat_str(proc.scalar_at(n)) for n in tree.nodes}

    doc = {
        "horizon": tree.horizon,
        "nodes": nodes,
        "european_two_sided": [
            {"payoff": claim_json(cl), "price": rat_str(p)}
            for cl, p in zip(market.f, market.f_prices)
        ],
        "european_buy_only": [
            {"payoff": claim_json(cl), "price": rat_str(p)}
            for cl, p in zip(market.g, market.g_prices)
        ],
        "american_buy_only": [
            {"payoff": process_json(hk), "price": rat_str(p)}
            for hk, p in zip(market.h, market.h_prices)
        ],
    }
    if market.support != frozenset(tree.leaves):
        doc["support"] = sorted(market.support)
    if market.claims:
        claims = {}
        for name, obj in market.claims.items():
            if isinstance(obj, TerminalClaim):
                claims[name] = {"type": "european", "values": claim_json(obj)}
            else:
                claims[name] = {"type": "american", "values": process_json(obj)}
        doc["claims"] = claims
    if market.priors:
        doc["priors"] = [
            {leaf: rat_str(rat(w)) for leaf, w in row.items()} for row in market.priors
        ]
    return json.dumps(doc, indent=2, sort_keys=False)
