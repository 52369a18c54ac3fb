"""Command-line surface: dispatch, exit codes, piping, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semistatic.cli import main
from semistatic.fixtures import fixture_json
from semistatic.utility import power_utility

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_emits_market_file(capsys):
    code, out, _ = run_cli(capsys, "fixture", "P2")
    assert code == 0
    doc = json.loads(out)
    assert doc["horizon"] == 2
    assert len(doc["nodes"]) == 9


def test_price_super_indiv_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(fixture_json("P2")))
    code, out, _ = run_cli(capsys, "price", "super-indiv", "--market", "-")
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["price"] == "1/8"


def test_price_super_div_fixture_name(capsys):
    code, out, _ = run_cli(capsys, "price", "super-div", "--market", "P2")
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["price"] == "0"
    assert report["results"][0]["certificate"]["verified"] is True


def test_price_rationals_are_strings_unless_approx(capsys):
    _, out, _ = run_cli(capsys, "price", "sub-eu", "--market", "P2")
    report = json.loads(out)
    assert report["results"][0]["price"] == "-5/4"
    _, out, _ = run_cli(capsys, "price", "sub-eu", "--market", "P2", "--approx")
    report = json.loads(out)
    assert report["results"][0]["price"] == {"exact": "-5/4", "approx": -1.25}


def test_price_american_reports_exercise_flow(capsys):
    code, out, _ = run_cli(capsys, "price", "sub-am", "--market", "T2",
                           "--claim", "put5_am")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["price"] == "20/9"
    flow = row["exercise_flow"]
    assert flow and all("/" in v or v.isdigit() for v in flow.values())
    total = sum(F(v) if "/" not in v else F(*map(int, v.split("/")))
                for v in flow.values())
    assert total >= 1  # unit mass on every path implies at least 1 in total


def test_check_arbitrage_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check-arbitrage", "--market", "B1")
    assert code == 0
    doc = json.loads(fixture_json("B1"))
    doc["european_two_sided"] = [
        {"payoff": {"u": "3", "d": "1"}, "price": "3"}
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check-arbitrage", "--market", str(path))
    assert code == 2
    assert json.loads(out)["verdict"] == "ARBITRAGE"


def test_check_arbitrage_strict(capsys):
    code, out, _ = run_cli(capsys, "check-arbitrage", "--market", "P2", "--strict")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NO_ARBITRAGE"
    assert "pricing_measure" in report


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "price", "sub-eu", "--market", "B1", "--claim", "nope")
    assert code == 1
    code, out, _ = run_cli(capsys, "price", "sub-eu", "--market", "B1", "--claim", "up_digital")
    assert code == 0
    assert json.loads(out)["results"][0]["price"] == "1/2"


def _wide_tree_doc():
    """A market whose tree has 1 + 2**21 stopping times and one American
    option paying 1 everywhere at price 0: the divisible cone LP finds that
    arbitrage, so whole-unit exercise must scan the stops, past the cap."""
    nodes = [{"id": "r", "parent": None, "time": 0, "S": ["2"]}]
    for i in range(21):
        nodes.append({"id": f"c{i}", "parent": "r", "time": 1, "S": ["2"]})
        nodes += [{"id": f"c{i}{x}", "parent": f"c{i}", "time": 2, "S": [s]}
                  for x, s in (("u", "3"), ("d", "1"))]
    one = {n["id"]: "1" for n in nodes}
    return {"horizon": 2, "nodes": nodes, "european_two_sided": [], "european_buy_only": [],
            "american_buy_only": [{"payoff": one, "price": "0"}]}


def _arbitrage_doc():
    doc = json.loads(fixture_json("B1"))
    doc["european_buy_only"] = [{"payoff": {"u": "1", "d": "1"}, "price": "1/2"}]
    doc["priors"] = [{"u": "1/2", "d": "1/2"}]
    return doc


def _edited_b1(edit):
    doc = json.loads(fixture_json("B1"))
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, argv, expected", [
    # malformed tree (TreeError)
    (_edited_b1(lambda d: d["nodes"][-1].update(parent="missing")),
     ["check-arbitrage"], 1),
    # float literal (RationalError from the rational parser)
    (_edited_b1(lambda d: d["nodes"][0].update(S=[1.5])),
     ["price", "sub-eu", "--claim", "up_digital"], 1),
    # unparseable rational string (RationalError from the rational parser)
    (_edited_b1(lambda d: d["nodes"][0].update(S=["abc"])),
     ["price", "sub-eu", "--claim", "up_digital"], 1),
    # missing field (MarketError)
    (_edited_b1(lambda d: d.pop("horizon")), ["check-arbitrage"], 1),
    # node without a time (MarketError)
    (_edited_b1(lambda d: d["nodes"][1].pop("time")), ["check-arbitrage"], 1),
    # payoff values that are not a JSON object (MarketError)
    (_edited_b1(lambda d: d.update(european_buy_only=[{"payoff": "abc", "price": "1"}])),
     ["check-arbitrage"], 1),
    (_edited_b1(lambda d: d.update(claims="abc")), ["check-arbitrage"], 1),
    (_edited_b1(lambda d: d.update(priors=["abc"])), ["robust", "check"], 1),
    # prior weights not summing to one (MeasureError)
    (_edited_b1(lambda d: d.update(priors=[{"u": "1/2", "d": "1/3"}])),
     ["robust", "check"], 1),
    # too many stopping times for whole-unit exercise (EnumerationCapError)
    (_wide_tree_doc(), ["check-arbitrage", "--indivisible"], 1),
    # hedging refused on an arbitrage market (ArbitrageRefusal)
    (_arbitrage_doc(), ["price", "sub-eu", "--claim", "up_digital"], 2),
    # robust hypothesis fails (HypothesisFailure)
    (_arbitrage_doc(), ["robust", "price", "--claim", "up_digital"], 2),
    # fields of the wrong JSON type (MarketError)
    (_edited_b1(lambda d: d.update(support=5)), ["check-arbitrage"], 1),
    (_edited_b1(lambda d: d.update(nodes="abc")), ["check-arbitrage"], 1),
    (_edited_b1(lambda d: d["nodes"].append("abc")), ["check-arbitrage"], 1),
    (_edited_b1(lambda d: d["nodes"][0].update(S="12")), ["check-arbitrage"], 1),
    (_edited_b1(lambda d: d.update(european_buy_only=["abc"])), ["check-arbitrage"], 1),
    # node ids and parents that are not strings (MarketError)
    (_edited_b1(lambda d: d["nodes"][0].update(id=["r"])), ["check-arbitrage"], 1),
    (_edited_b1(lambda d: d["nodes"][-1].update(parent=["r"])), ["check-arbitrage"], 1),
    # a null where a rational belongs (RationalError)
    (_edited_b1(lambda d: d["nodes"][0].update(S=[None])),
     ["price", "sub-eu", "--claim", "up_digital"], 1),
    # booleans as node times and horizon, which Python reads as 1 (MarketError)
    (_edited_b1(lambda d: [d.update(horizon=True)] + [n.update(time=True) for n in d["nodes"][1:]]),
     ["check-arbitrage"], 1),
    # strict no-arbitrage is decided for divisible exercise only (UsageError)
    (json.loads(fixture_json("P2")), ["check-arbitrage", "--strict", "--indivisible"], 1),
    # a stock with no components (TreeError)
    (_edited_b1(lambda d: [n.update(S=[]) for n in d["nodes"]]), ["check-arbitrage"], 1),
], ids=["bad_tree", "float", "bad_rational", "missing_field", "missing_time",
        "payoff_not_object", "claims_not_object", "prior_not_object", "bad_prior", "enum_cap",
        "price_arbitrage", "robust_arbitrage", "support_not_array", "nodes_not_array",
        "node_not_object", "stock_not_array", "book_entry_not_object", "list_id",
        "list_parent", "null_value", "bool_times", "strict_indivisible", "empty_stock"])
def test_typed_failures_exit_without_traceback(capsys, tmp_path, doc, argv, expected):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, "--market", str(path))
    assert code == expected
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["nodes"][0].update(S=[1.5]), "not a rational: 1.5 (floats are not accepted)"),
    (lambda d: d["nodes"][0].update(S=[None]), "not a rational: None"),
    (lambda d: d["nodes"][0].update(S=[["1"]]), "not a rational: ['1']"),
    (lambda d: d["nodes"][0].update(id=["r"]), "node id must be a JSON string, not ['r']"),
    (lambda d: d["nodes"][-1].update(parent=5), "node parent must be a JSON string, not 5"),
    (lambda d: d.update(support=[["u"]]), "support leaf must be a JSON string, not ['u']"),
    (lambda d: d["nodes"][1].update(time=True), "node 'u': time must be a JSON integer, not True"),
    (lambda d: d.update(horizon=True), "horizon must be a JSON integer, not True"),
    (lambda d: d["nodes"][0].update(time=1.5), "node 'r': time must be a JSON integer, not 1.5"),
    (lambda d: d.update(claims=False), "claims must be a JSON object, not False"),
], ids=["float", "null", "list", "list_id", "int_parent", "list_support_leaf", "bool_time",
        "bool_horizon", "float_time", "false_claims"])
def test_input_errors_name_what_is_wrong(capsys, tmp_path, edit, message):
    """Only a float is called a float, and a node name that is not a string
    is named as such, never as Python's 'unhashable type'."""
    path = tmp_path / "market.json"
    path.write_text(json.dumps(_edited_b1(edit)))
    code, out, err = run_cli(capsys, "check-arbitrage", "--market", str(path))
    assert (code, out, err) == (1, "", f"input error: {message}\n")


def test_an_engine_type_error_is_not_an_input_error(capsys, monkeypatch):
    """A TypeError raised inside the engine is a bug and propagates; only the
    rational parser's typed subclass is read as bad input."""
    def broken(market, divisible=True):
        raise TypeError("engine bug")

    monkeypatch.setattr("semistatic.cli.check_na", broken)
    with pytest.raises(TypeError, match="engine bug"):
        main(["check-arbitrage", "--market", "B1"])


def _p2_with_american_twice():
    doc = json.loads(fixture_json("P2"))
    doc["american_buy_only"] *= 2
    return doc


def _robust_arbitrage_in_american_doc():
    """B1 with an American option whose exercise value 3/2 is above its quote
    1: the stock part is robustly arbitrage-free, the option is not."""
    doc = json.loads(fixture_json("B1"))
    doc["american_buy_only"] = [{"payoff": {"r": "1", "u": "0", "d": "3"}, "price": "1"}]
    doc["priors"] = [{"u": "1/2", "d": "1/2"}]
    return doc


def _recombination_gap_doc():
    """Two priors on disjoint supports of a one-step, four-branch tree: a
    martingale measure straddling both prices the claim below every component."""
    from semistatic.market import MarketSpec, market_to_json
    from semistatic.tree import AdaptedProcess, EventTree, TerminalClaim

    tree = EventTree([("r", None, 0), ("a", "r", 1), ("b", "r", 1), ("c", "r", 1),
                      ("d", "r", 1)])
    S = AdaptedProcess(tree, {"r": F(5, 2), "a": 1, "b": 2, "c": 3, "d": 4})
    psi = TerminalClaim(tree, {"a": 0, "b": 1, "c": 0, "d": 1})
    market = MarketSpec(tree=tree, S=S, claims={"psi": psi})
    priors = ({"a": F(1, 2), "d": F(1, 2)}, {"b": F(1, 2), "c": F(1, 2)})
    return json.loads(market_to_json(dataclasses.replace(market, priors=priors)))


@pytest.mark.parametrize("doc, argv, expected, prefix", [
    # HedgingError: whole-unit exercise of more than one American option
    (_p2_with_american_twice(), ["price", "super-indiv"], 1, "input error: "),
    # RobustError: the last American option is not robustly arbitrage-free
    (_robust_arbitrage_in_american_doc(), ["robust", "dominate"], 2, "refused: "),
    # RobustDualityGapError: the prior list is not recombination-closed
    (_recombination_gap_doc(), ["robust", "price", "--claim", "psi"], 1, "input error: "),
], ids=["super_indiv_two_american", "dominate_not_below_quote", "recombination_gap"])
def test_engine_errors_exit_without_traceback(capsys, tmp_path, doc, argv, expected, prefix):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, "--market", str(path))
    assert code == expected
    assert out == ""
    assert err.startswith(prefix) and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("claim, argv", [
    ({"type": "european", "values": {"u": "x", "d": "0"}}, []),
    ({"type": "european", "values": {"u": "1/0", "d": "0"}}, []),
    ({"values": {"u": "1", "d": "0"}}, []),
    ({"type": "european", "values": "abc"}, []),
    (None, ["utility", "audit", "--x-grid", "a,b"]),
    (None, ["utility", "audit", "--utility", "power:abc"]),
    (None, ["utility", "audit", "--utility", "power:1"]),
    (None, ["utility", "audit", "--utility", "power:2"]),
    (None, ["utility", "audit", "--x-grid", "-1"]),
    (None, ["utility", "audit", "--x-grid", "nan"]),
    (None, ["utility", "audit", "--x-grid", "inf"]),
    (None, ["utility", "audit", "--x-grid=-inf"]),
    (None, ["utility", "audit", "--y-grid", "nan"]),
    (None, ["utility", "audit", "--y-grid", "inf"]),
    (None, ["utility", "audit", "--y-grid=-inf"]),
], ids=["claim_not_rational", "claim_zero_denominator", "claim_without_type",
        "claim_values_not_object", "utility_grid", "utility_exponent",
        "utility_exponent_one", "utility_exponent_two", "utility_wealth_negative",
        "utility_x_nan", "utility_x_inf", "utility_x_minus_inf",
        "utility_y_nan", "utility_y_inf", "utility_y_minus_inf"])
def test_bad_claim_file_or_option_exits_1(capsys, tmp_path, claim, argv):
    if claim is not None:
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(claim))
        argv = ["price", "sub-eu", "--claim", str(path)]
    code, out, err = run_cli(capsys, *argv, "--market", "B1")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("claim", [[1, 2], "x"], ids=["list", "string"])
def test_claim_file_that_is_not_an_object_is_a_usage_error(capsys, tmp_path, claim):
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(claim))
    code, out, err = run_cli(capsys, "price", "sub-eu", "--market", "B1", "--claim", str(path))
    assert code == 1
    assert out == ""
    assert err == "usage error: claim file must be a JSON object\n"


@pytest.mark.parametrize("option", ["--market", "--claim"])
@pytest.mark.parametrize("content", [None, b'\xff\xfe{"type": "european"}'],
                         ids=["directory", "not_utf8"])
def test_unreadable_market_or_claim_file_exits_1(capsys, tmp_path, option, content):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if option == "--market":
        argv = ["check-arbitrage", "--market", str(path)]
    else:
        argv = ["price", "sub-eu", "--market", "B1", "--claim", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and len(err.strip().splitlines()) == 1


def test_non_utf8_stdin_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff{}"), encoding="utf-8"))
    code, out, err = run_cli(capsys, "check-arbitrage", "--market", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [["price", "sub-eu"], ["robust", "price"]],
                         ids=["price", "robust_price"])
def test_claim_neither_bundled_nor_a_file_lists_the_bundled_claims(capsys, tmp_path,
                                                                   monkeypatch, command):
    """A `--claim` that names no bundled claim and no file is a one-line
    usage error that names it and lists the claims the market bundles."""
    doc = json.loads(fixture_json("T2"))
    doc["priors"] = [dict.fromkeys(["uu", "ud", "du", "dd"], "1/4")]
    (tmp_path / "t2.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--market", "t2.json", "--claim", "put5")
    assert code == 1
    assert out == ""
    assert err == ("usage error: no claim 'put5': not a file, and the market bundles "
                   "['put5_am', 'put5_eu']\n")


def test_price_super_indiv_without_american_reports_no_stop(capsys):
    """On T2, which has no American option, the whole-unit super-hedge is the
    stock-only one: the report carries its price, measure and certificate,
    and no stop, quantity or per-stop table."""
    code, out, _ = run_cli(capsys, "price", "super-indiv", "--market", "T2",
                           "--claim", "put5_eu")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result.keys() == {"kind", "price", "gap", "dual_measure", "certificate",
                             "market", "timing_ms"}
    assert result["price"] == "20/9"
    assert result["dual_measure"] == {"uu": "1/9", "ud": "2/9", "du": "2/9", "dd": "4/9"}
    assert result["certificate"]["verified"] is True


@pytest.mark.parametrize("op, claim", [
    ("sub-eu", "put5_am"),
    ("super-div", "put5_am"),
    ("super-indiv", "put5_am"),
    ("sub-am", "put5_eu"),
])
def test_claim_kind_must_match_price_op(capsys, op, claim):
    code, out, err = run_cli(capsys, "price", op, "--market", "T2", "--claim", claim)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith(f"usage error: price {op} takes")


def test_lp_verification_error_exits_3(capsys, monkeypatch):
    from semistatic.lp import VerificationFailure

    def broken(market):
        raise VerificationFailure("certificate does not verify")

    monkeypatch.setattr("semistatic.cli.check_sna", broken)
    code, out, err = run_cli(capsys, "check-arbitrage", "--market", "B1", "--strict")
    assert code == 3
    assert err.strip() == "verification failure: certificate does not verify"


def test_unknown_verb_rejected(capsys):
    assert main(["frobnicate"]) == 1


def test_region_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fixture", "P2", "--region", "u1,d1")
    assert code == 0
    report = json.loads(out)
    pts = [(v["u1"], v["d1"]) for v in report["region"]]
    assert ["1/3", "1/5"] in [list(p) for p in pts]
    assert len(pts) == 5


def test_determinism(capsys):
    _, out1, _ = run_cli(capsys, "price", "super-indiv", "--market", "P2")
    _, out2, _ = run_cli(capsys, "price", "super-indiv", "--market", "P2")

    def strip(text):
        doc = json.loads(text)
        for row in doc.get("results", []):
            row.pop("timing_ms", None)
        return doc

    assert strip(out1) == strip(out2)


def test_robust_price(capsys, tmp_path):
    doc = json.loads(fixture_json("T2"))
    doc["priors"] = [
        {"uu": "1/4", "ud": "1/4", "du": "1/4", "dd": "1/4"},
        {"uu": "1/3", "ud": "1/3", "du": "1/3"},
    ]
    path = tmp_path / "robust.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "robust", "price", "--market", str(path),
                           "--claim", "put5_am")
    assert code == 0
    assert json.loads(out)["price"] == "20/9"
    code, out, _ = run_cli(capsys, "robust", "check", "--market", str(path))
    assert code == 0


def test_robust_minimax_and_dominate(capsys, tmp_path):
    doc = json.loads(fixture_json("T2"))
    doc["american_buy_only"] = [
        {"payoff": json.loads(fixture_json("T2"))["claims"]["put5_am"]["values"],
         "price": "3"}
    ]
    doc["priors"] = [
        {"uu": "1/4", "ud": "1/4", "du": "1/4", "dd": "1/4"},
        {"uu": "1/9", "ud": "2/9", "du": "2/9", "dd": "4/9"},
    ]
    path = tmp_path / "rob2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "robust", "minimax", "--market", str(path))
    assert code == 0
    vals = json.loads(out)["values"]
    assert vals[0] == vals[1] == vals[2]
    code, out, _ = run_cli(capsys, "robust", "dominate", "--market", str(path),
                           "--prior-index", "1")
    assert code == 0
    report = json.loads(out)
    from semistatic.rational import rat
    assert rat(report["h_tilde"][0]) < 3


def test_market_support_moves_no_robust_answer(capsys, tmp_path):
    """Robust questions have no reference measure: on B1 with one uniform
    prior, the market file's `"support": ["u"]` changes none of the `robust
    check`, `price` and `dominate` reports, and `dominate` finds the uniform
    measure."""
    plain = json.loads(fixture_json("B1"))
    plain["priors"] = [{"u": "1/2", "d": "1/2"}]
    reports = []
    for doc in (plain, {**plain, "support": ["u"]}):
        path = tmp_path / "b1.json"
        path.write_text(json.dumps(doc))
        runs = [run_cli(capsys, "robust", *argv, "--market", str(path))
                for argv in (["check"], ["price", "--claim", "up_digital"], ["dominate"])]
        assert [(code, err) for code, _, err in runs] == [(0, "")] * 3
        reports.append([json.loads(out) for _, out, _ in runs])
    assert reports[1] == reports[0]
    assert reports[1][2]["measure"] == {"d": "1/2", "u": "1/2"}


def test_utility_audit_cli(capsys):
    code, out, _ = run_cli(
        capsys, "utility", "audit", "--market", "B1", "--utility", "log",
        "--x-grid", "0.5,1,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_failed_utility_audit_is_a_verification_failure(capsys, monkeypatch):
    """A residual over tolerance exits 3, the verification-failure code, not
    1: with an inverse marginal utility off by a factor 2, the optimizer
    coupling does not close."""
    import semistatic.cli as cli

    def wrong_inverse(gamma):
        util = power_utility(gamma)
        return dataclasses.replace(util, I=lambda y: 2 * util.I(y))

    monkeypatch.setattr(cli, "power_utility", wrong_inverse)
    code, out, err = run_cli(
        capsys, "utility", "audit", "--market", "B1", "--utility", "power:0.5",
        "--x-grid", "1",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("verification failure: optimizer_coupling residual")
    assert len(err.splitlines()) == 1


SRC =Path(__file__).resolve().parents[1] / "src"

# `utility audit --market B1 --utility power:0.5` as reported by the barrier
# Newton solver; u(x) = 2 sqrt(x), and v(y) = 1 / y at y = u'(x) by central
# differences
B1_POWER_HALF_AUDIT = {
    "asymptotic_elasticity": 0.5,
    "command": "utility",
    "passed": True,
    "schema": "semistatic-report/1",
    "utility": "power:0.5",
}
B1_POWER_HALF_VALUES = {
    "u_values": [1.4142135623730951, 2.0, 2.8284271247461903, 4.0],
    "v_values": [0.7071067811783067, 0.9999999999712443, 1.4142135623566134,
                 1.9999999999424887],
}
B1_POWER_HALF_RESIDUALS = {
    "conjugacy_u_from_v": 4.75175454539567e-14,
    "optimizer_coupling": 2.2995028103878212e-10,
    "product_identity": 4.75175454539567e-14,
    "u_concave": 0.0,
    "u_monotone": 0.0,
    "u_prime_formula": 2.876743288027228e-11,
    "v_prime_formula": 4.076810000697151e-10,
}


def _fresh_cli(*argv):
    """Run the CLI in a new interpreter: (exit code, stdout, the heavy modules
    it loaded)."""
    runner = ("import sys; from semistatic.cli import main; code = main(sys.argv[1:]); "
              "print(*[m for m in ('numpy', 'concurrent.futures') if m in sys.modules], "
              "file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", runner, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr.split()


def test_module_entry_runs_silently():
    """`python -m semistatic` runs the command line and writes nothing to
    stderr on success."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "semistatic", "fixture", "B1"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["horizon"] == 1


def test_only_the_utility_audit_loads_numpy():
    code, _, loaded = _fresh_cli("check-arbitrage", "--market", "B1")
    assert code == 0
    assert loaded == []
    code, out, loaded = _fresh_cli("utility", "audit", "--market", "B1",
                                   "--utility", "power:0.5")
    assert code == 0
    assert "numpy" in loaded
    report = json.loads(out)
    # floats within a tolerance, so that another numpy build's last bits still pass
    assert report.pop("residuals") == pytest.approx(B1_POWER_HALF_RESIDUALS, rel=0, abs=1e-9)
    for key, values in B1_POWER_HALF_VALUES.items():
        assert report.pop(key) == pytest.approx(values, rel=1e-12)
    assert report == B1_POWER_HALF_AUDIT


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["checks"]["p2_indivisible_stops_solved"] is True


def test_selftest_reports_a_fixture_that_fails_its_self_test(capsys, monkeypatch):
    import semistatic.cli as cli
    from semistatic.fixtures import FixtureError

    def broken(name):
        raise FixtureError(f"{name} self-test: tampered")

    monkeypatch.setattr(cli, "load_fixture", broken)
    code, out, err = run_cli(capsys, "selftest")
    assert (code, out) == (3, "")
    assert err == "verification failure: B1 self-test: tampered\n"


def test_jobs_batch_preserves_input_order(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(fixture_json("B1"))
    b.write_text(fixture_json("P2"))
    code, out, _ = run_cli(
        capsys, "price", "super-div",
        "--market", str(a), "--market", str(b),
        "--claim", "psi", "--jobs", "2",
    )
    # the claim name psi exists only on the second market: usage error
    assert code == 1

    code, out, _ = run_cli(
        capsys, "price", "super-div",
        "--market", str(b), "--market", str(b), "--jobs", "2",
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["market"] for r in rows] == [str(b), str(b)]
    assert all(r["price"] == "0" for r in rows)


def test_polytope_hrep_export(p2):
    from oracles import hrep_text
    from semistatic import PricingSetSpec, closure_polytope

    text = hrep_text(closure_polytope(PricingSetSpec(p2)))
    assert "w[u1]" in text.splitlines()[0]
    assert any("mass" in line for line in text.splitlines())


def _mutation_sites(node, path=()):
    """("delete", path) for every object key and ("replace", path) for every
    value in a parsed JSON document, the document itself included."""
    if not path:
        yield "replace", path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        here = path + (key,)
        if isinstance(node, dict):
            yield "delete", here
        yield "replace", here
        yield from _mutation_sites(child, here)


def _robust_fuzz_doc():
    """T2 with its American put quoted at 3 and two nested priors."""
    doc = json.loads(fixture_json("T2"))
    doc["american_buy_only"] = [{"payoff": doc["claims"]["put5_am"]["values"], "price": "3"}]
    doc["priors"] = [{"uu": "1/4", "ud": "1/4", "du": "1/4", "dd": "1/4"},
                     {"uu": "1/3", "ud": "1/3", "du": "1/3"}]
    return doc


_FIXTURE_CLAIMS = {"B1": "up_digital", "T2": "put5_eu", "P2": "psi"}

# (document, the file it is, the commands run on it)
_FUZZ_CASES = {
    **{name: (json.loads(fixture_json(name)), "market",
              [["check-arbitrage"], ["price", "super-div", "--claim", claim]])
       for name, claim in _FIXTURE_CLAIMS.items()},
    "robust": (_robust_fuzz_doc(), "market",
               [["robust", "check"], ["robust", "dominate", "--prior-index", "1"]]),
    **{f"claim {claim}": (json.loads(fixture_json("T2"))["claims"][claim], "claim",
                          [["price", op, "--market", "T2"]])
       for claim, op in (("put5_eu", "sub-eu"), ("put5_am", "sub-am"))},
}

# strings that are no rational, and values of every other JSON type
_JUNK = ["abc", "1/0", "", True, False, None, [], {}, 1.5, -1, 10**400]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mutated_fixture_files_exit_with_a_documented_code(data):
    """Deleting one key, or replacing one value (or the whole document) with
    junk of any JSON type, anywhere in a fixture market file, a market file
    with priors or a claim file yields a documented exit code and at most
    one line on stderr, never a traceback; a boolean or a float is never
    accepted."""
    doc, kind, commands = _FUZZ_CASES[data.draw(st.sampled_from(sorted(_FUZZ_CASES)))]
    doc = json.loads(json.dumps(doc))
    action, path = data.draw(st.sampled_from(list(_mutation_sites(doc))))
    junk = data.draw(st.sampled_from(_JUNK)) if action == "replace" else None
    if not path:
        doc = junk
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = junk
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, f"{kind}.json")
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + [f"--{kind}", name])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert len(err.getvalue().strip().splitlines()) <= 1
            if isinstance(junk, (bool, float)):
                assert code != 0, (path, junk)
