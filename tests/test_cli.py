"""Command-line surface: exit codes, output formats, and file emission."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import bninterp
from bninterp import Tuple, certify, cli, constants_as_json
from bninterp.cli import main
from bninterp.prover import Irreducible
from bninterp.rules import RuleId


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def test_check_holds(runner):
    res = run(runner, "check", 4, 1, 3)
    assert res.exit_code == 0
    assert "holds" in res.output


def test_check_exception(runner):
    res = run(runner, "check", 6, 4, 3)
    assert res.exit_code == 2
    assert "exception" in res.output and "(6,4,3)" in res.output


def test_check_no_curve_is_input_error(runner):
    res = run(runner, "check", 3, 4, 3)
    assert res.exit_code == 1
    for cmd in ("check", "max-points"):
        res = run(runner, cmd, "--", 5, -1, 3)
        assert res.exit_code == 1 and "error: no curve has negative genus, got g = -1" in res.output, res.output


def test_check_char_must_be_prime_or_zero(runner):
    res = run(runner, "check", 4, 1, 3, "--char", 4)
    assert res.exit_code == 1
    res = run(runner, "check", 4, 0, 3, "--char", 2)
    assert res.exit_code == 2 and "Char2Rational" in res.output


def test_check_json_format(runner):
    res = run(runner, "check", 6, 2, 4, "--format", "json")
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["holds"] is False and doc["reason"] == "SporadicException"


def test_good_command(runner):
    assert run(runner, "good", 5, 2, 3, 0, 1).exit_code == 0
    res = run(runner, "good", 4, 1, 3, 1, 0)
    assert res.exit_code == 2 and "InXExList" in res.output


def test_delta_command_prints_exact_fractions(runner):
    assert run(runner, "delta", 11, 5, 6, 0, 0).output.strip() == "4"
    assert run(runner, "delta", 8, 1, 7, 1, 1).output.strip() == "7/3"
    assert run(runner, "delta", 5, 2, 1, 0, 0).exit_code == 1


def test_max_points_command(runner):
    res = run(runner, "max-points", 10, 6, 5)
    assert res.exit_code == 2 and "11" in res.output
    res = run(runner, "max-points", 4, 1, 3)
    assert res.exit_code == 0 and "predicted 8" in res.output
    assert run(runner, "max-points", 3, 4, 3).exit_code == 1


def test_sporadic_small_run_matches_table(runner, tmp_path):
    csv_path = tmp_path / "rows.csv"
    res = run(runner, "sporadic", "--rmax", 3, "--csv", csv_path, "--format", "json")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["missing"] == [] and doc["unexpected"] == []
    assert len(doc["irreducible"]) == 10
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[:6] == ["d", "g", "r", "ell", "m", "status"]


def test_sporadic_disable_rule_mismatch_exits_3(runner):
    res = run(
        runner,
        "sporadic",
        "--rmax",
        3,
        "--disable-rule",
        "master",
        "--disable-rule",
        "master-111",
        "--disable-rule",
        "master-erasable",
        "--disable-rule",
        "gather-lines",
    )
    assert res.exit_code == 3
    assert "UNEXPECTED" in res.output


def test_sporadic_unknown_rule_name(runner):
    # click checks the choice: the message names the value and every rule
    res = run(runner, "sporadic", "--disable-rule", "bogus")
    assert res.exit_code == 1 and "bogus" in res.output, res.output
    assert all(rule.value in res.output for rule in RuleId), res.output
    assert all(rule.value in run(runner, "sporadic", "--help").output for rule in RuleId)


def test_workers_below_one_is_an_input_error(runner):
    for cmd in ("sporadic", "thm14"):
        res = run(runner, cmd, "--rmax", 14 if cmd == "thm14" else 3, "--workers", 0)
        assert res.exit_code == 1, res.output
        assert "workers" in res.output


def test_sporadic_expected_file(runner, tmp_path):
    out = tmp_path / "constants.json"
    res = run(runner, "dump-constants", "--out", out)
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert len(doc["sporadic30"]) == 30
    res = run(runner, "sporadic", "--rmax", 3, "--expected", out)
    assert res.exit_code == 0


@pytest.mark.parametrize("row", [[4.0, 0, 3, 0, 1], [4, 0, "3", 0, 1]], ids=["float", "str"])
def test_sporadic_expected_file_takes_integer_rows_only(runner, tmp_path, row):
    out = tmp_path / "constants.json"
    assert run(runner, "dump-constants", "--out", out).exit_code == 0
    doc = json.loads(out.read_text())
    doc["sporadic30"][0] = row
    out.write_text(json.dumps(doc))
    res = run(runner, "sporadic", "--rmax", 3, "--expected", out)
    assert res.exit_code == 1 and "expected file:" in res.output


def test_sporadic_reads_expected_before_the_sweep(runner, tmp_path, monkeypatch):
    def no_sweep(**_kwargs):
        raise AssertionError("the sweep ran before the expected file was read")

    monkeypatch.setattr(bninterp.cli, "run_sporadic_search", no_sweep)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for path in (tmp_path / "missing.json", bad):
        res = run(runner, "sporadic", "--rmax", 3, "--expected", path)
        assert res.exit_code == 1 and "error: expected file:" in res.output, res.output


def test_thm14_command(runner):
    res = run(runner, "thm14", "--rmax", 14, "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["uncovered"] == [] and doc["examined"] > 5000
    assert run(runner, "thm14", "--rmax", 14, "--rmin", 13).exit_code == 1


def test_certify_and_verify_round_trip(runner, tmp_path):
    cert_path = tmp_path / "cert.json"
    res = run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert_path)
    assert res.exit_code == 0, res.output
    res = run(runner, "verify", cert_path)
    assert res.exit_code == 0 and res.output.startswith("ok:")

    doc = json.loads(cert_path.read_text())
    for row in doc["nodes"]:
        if row["justification"]["kind"] == "rule":
            row["justification"]["children"][0][0] += 1
            break
    cert_path.write_text(json.dumps(doc))
    res = run(runner, "verify", cert_path)
    assert res.exit_code == 3 and "FAIL" in res.output

    # a parameter the node's rule does not have
    foreign = [("gather-lines", {"eps": 99}), ("gather-lines", {"k": 7}), ("m0-delta-2", {"g_prime": 0}),
               ("gather-lines", {"any_ni_is_2": True}), ("master", {"eps": 3})]
    for rule, params in foreign:
        assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert_path).exit_code == 0
        doc = json.loads(cert_path.read_text())
        jd = next(row["justification"] for row in doc["nodes"] if row["justification"].get("rule") == rule)
        jd["params"].update(params)
        cert_path.write_text(json.dumps(doc))
        res = run(runner, "verify", cert_path)
        assert res.exit_code == 3 and "PreconditionViolated" in res.output, (rule, params, res.output)


def test_verify_names_an_unknown_parameter(runner, tmp_path):
    cert = tmp_path / "c.json"
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    doc = json.loads(cert.read_text())
    jd = next(row["justification"] for row in doc["nodes"] if row["justification"]["kind"] == "rule")
    jd["params"]["zeta"] = 1
    cert.write_text(json.dumps(doc))
    res = run(runner, "verify", cert)
    assert res.exit_code == 1 and "certificate file: unknown parameter 'zeta'" in res.output, res.output


def test_readers_refuse_a_non_array_axioms_list_and_a_non_string_proviso(runner, tmp_path):
    ax = tmp_path / "ax.json"
    ax.write_text(json.dumps({"axioms": 5}))
    res = run(runner, "certify", 13, 2, 6, 1, 0, "--axioms", ax)
    assert res.exit_code == 1 and "axioms file: axioms must be a list, got int" in res.output, res.output
    ax.write_text(json.dumps({"citation": "no axioms key: no extra axioms"}))
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--axioms", ax).exit_code == 0
    cert = tmp_path / "c.json"
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    doc = json.loads(cert.read_text())
    next(row for row in doc["nodes"] if row["justification"]["kind"] == "rule")["justification"]["proviso"] = 5
    cert.write_text(json.dumps(doc))
    res = run(runner, "verify", cert)
    assert res.exit_code == 1 and "certificate file: proviso must be a string, got int" in res.output, res.output
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    doc = json.loads(cert.read_text())
    next(row for row in doc["nodes"] if row["justification"]["kind"] == "axiom")["justification"]["tag"] = 5
    cert.write_text(json.dumps(doc))
    res = run(runner, "verify", cert)
    assert res.exit_code == 1 and "certificate file: tag must be a string, got int" in res.output, res.output


def test_sporadic_csv_bytes_are_pinned(runner, tmp_path):
    # the digest perfbench/reference.json stores as csv_sha256
    out = tmp_path / "s.csv"
    assert run(runner, "sporadic", "--rmax", 13, "--csv", out).exit_code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9a596e81c36d802aee82b1cda9f4a77d1a023802306c1a1deeed10bf13cff357"


# the digests and the report that .github/workflows/tests.yml checks with
# the installed console script
_CI_PINS = [
    (["certify", 19, 5, 9, 0, 1, "--json"], 0, "55611897385844677f1584ba9d2341a9564f47605fdfed2b0e3780e9570b27fe"),
    (["certify", 14, 4, 6, 0, 0, "--json"], 0, "dd9717baab2022b7c0b29c40fc77f62ae292d5e9a30d12132aa6f9a958b76539"),
    (["certify", 6, 3, 3, 0, 0, "--json"], 0, "2d3dfd3921793c6fca612d89cab1e3978c5b6e997e6372c55c5e499b2f63a426"),
    (["certify", 9, 1, 7, 0, 0, "--json"], 0, "ae38111b41f5a652a100e38ba1f7db05c4180c2591f4c9015723a2eef6728adf"),
    (["certify", 12, 5, 5, 0, 0, "--json"], 0, "1a433b505e56c34ba0a4995d797b82c270f7f091c2d66946e1cf09e6328f0384"),
    (["certify", 14, 7, 5, 0, 0, "--json"], 0, "c9c829c2e7ad04c9103cad93484315fecefecfc626782e335d9bc8c49d5f0904"),
    (["sporadic", "--rmax", 9, "--disable-rule", "gather-lines", "--csv"], 3,
     "ce6e86d77c8db64f1db411c3cdbc325648ffaa26d020dba6b05d19668bfc9354"),
    (["thm14", "--rmax", 16, "--format", "json"], 0,
     '{"rmin": 14, "rmax": 16, "examined": 78048, "outside_checked": 50157, "uncovered": [], "outside_uncovered": []}'),
]


@pytest.mark.parametrize("args, code, pin", _CI_PINS, ids=["d5", "m35", "peel", "d1", "two", "m111", "s9", "thm14"])
def test_the_outputs_ci_checks_are_pinned(runner, tmp_path, args, code, pin):
    # an argument list ending in an option takes the output file, whose
    # sha256 is pinned; otherwise the printed report is
    out = tmp_path / "out"
    if str(args[-1]).startswith("--"):
        res = run(runner, *args, out)
        assert res.exit_code == code, res.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
    else:
        res = run(runner, *args)
        assert res.exit_code == code and res.output == pin + "\n", res.output
    if args[0] == "certify":
        assert run(runner, "verify", out).exit_code == 0


def test_sporadic_expected_rows_must_be_a_list(runner, tmp_path):
    out = tmp_path / "constants.json"
    out.write_text(json.dumps({"sporadic30": 5}))
    res = run(runner, "sporadic", "--rmax", 3, "--expected", out)
    assert res.exit_code == 1 and "expected file: sporadic30 must be a list, got int" in res.output, res.output


def test_certify_rejects_bad_input(runner):
    res = run(runner, "certify", 2, 0, 3, 0, 0)
    assert res.exit_code == 1
    assert "not good" in res.output


@pytest.mark.parametrize("t", [(0, 7, 2, 3, -4), (5, 0, -1, 0, 0)])
def test_certify_refuses_a_small_rank_tuple_that_is_not_good(runner, t):
    res = run(runner, "certify", "--", *t)
    assert res.exit_code == 1 and "is not good" in res.output and "not an axiom" in res.output, res.output


@pytest.mark.parametrize("t", [(0, 7, 2, 3, -4), (5, 0, -1, 0, 0)])
def test_verify_refuses_a_small_rank_axiom_outside_its_domain(runner, tmp_path, t):
    # the one-node certificate `certify` wrote when every r <= 2 tuple was SmallR
    cert = tmp_path / "c.json"
    node = {"tuple": list(t), "justification": {"kind": "axiom", "tag": "SmallR"}}
    cert.write_text(json.dumps({"version": 1, "root": list(t), "nodes": [node]}))
    res = run(runner, "verify", cert)
    assert res.exit_code == 3 and "UnknownAxiom" in res.output, res.output
    # a good tuple of rank 2 still is one
    node["tuple"] = [7, 0, 2, 0, 0]
    cert.write_text(json.dumps({"version": 1, "root": [7, 0, 2, 0, 0], "nodes": [node]}))
    assert run(runner, "verify", cert).exit_code == 0


@pytest.mark.parametrize("t", [(2, 2, 1, 0, 0), (6, 4, 3, 0, 0), (10, 6, 5, 0, 0)])
def test_canonical_even_stops_where_interpolation_fails(runner, tmp_path, t):
    # rank 1 and the counterexample triples (6, 4, 3) and (10, 6, 5) had
    # one-node CanonicalEven certificates
    res = run(runner, "certify", "--", *t)
    assert res.exit_code == 1 and "not an axiom" in res.output, res.output
    cert = tmp_path / "c.json"
    node = {"tuple": list(t), "justification": {"kind": "axiom", "tag": "CanonicalEven"}}
    cert.write_text(json.dumps({"version": 1, "root": list(t), "nodes": [node]}))
    res = run(runner, "verify", cert)
    assert res.exit_code == 3 and "UnknownAxiom" in res.output, res.output
    # the canonical curve of rank 7 still is one
    assert run(runner, "certify", 14, 8, 7, 0, 0, "--json", cert).exit_code == 0
    assert run(runner, "verify", cert).exit_code == 0


@pytest.mark.parametrize("t", [(-4, -1, -3, 0, 0), (-9, -2, -7, 0, 0)])
def test_delta1_base_stops_at_g_below_1(runner, tmp_path, t):
    # (5g+1, g, 4g+1, 0, 0) with g < 0 had a one-node Delta1Base certificate
    res = run(runner, "certify", "--", *t)
    assert res.exit_code == 1 and "not an axiom" in res.output, res.output
    cert = tmp_path / "c.json"
    node = {"tuple": list(t), "justification": {"kind": "axiom", "tag": "Delta1Base"}}
    cert.write_text(json.dumps({"version": 1, "root": list(t), "nodes": [node]}))
    res = run(runner, "verify", cert)
    assert res.exit_code == 3 and "UnknownAxiom" in res.output, res.output


def test_certify_an_axiom_root_with_a_negative_depth_cap(runner, tmp_path):
    # r + d + m + 8 = -12: this root raised InvariantViolated as a traceback
    # when certify had a depth cap of that size
    ax = tmp_path / "ax.json"
    ax.write_text(json.dumps({"axioms": [{"tuple": [-20, 0, 0, 0, 0]}]}))
    cert = tmp_path / "c.json"
    res = run(runner, "certify", "--axioms", ax, "--json", cert, "--", -20, 0, 0, 0, 0)
    assert res.exit_code == 0 and "1 nodes" in res.output, res.output
    assert run(runner, "verify", "--axioms", ax, cert).exit_code == 0


def test_certify_with_extra_axioms(runner, tmp_path):
    ax = tmp_path / "ax.json"
    ax.write_text(json.dumps({"axioms": [{"tuple": [9, 9, 9, 0, 0], "citation": "assumed"}]}))
    cert = tmp_path / "c.json"
    res = run(runner, "certify", 9, 9, 9, 0, 0, "--axioms", ax, "--json", cert)
    assert res.exit_code == 0
    # verifying without the axiom file must fail
    res = run(runner, "verify", cert)
    assert res.exit_code == 3
    res = run(runner, "verify", cert, "--axioms", ax)
    assert res.exit_code == 0


def test_certify_long_chain_exits_0(runner, tmp_path):
    # a good tuple whose reduction chain is deeper than Python's default
    # recursion limit
    cert = tmp_path / "c.json"
    res = run(runner, "certify", 3001, 0, 3, 0, 0, "--json", cert)
    assert res.exit_code == 0, res.output
    assert run(runner, "verify", cert).exit_code == 0


def test_verify_float_certificate_is_an_input_error(runner, tmp_path):
    cert = tmp_path / "c.json"
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    doc = json.loads(cert.read_text())
    doc["root"] = [float(x) for x in doc["root"]]
    cert.write_text(json.dumps(doc))
    assert run(runner, "verify", cert).exit_code == 1


def test_verify_unreadable_certificate(runner, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{не json")
    assert run(runner, "verify", p).exit_code == 1
    assert run(runner, "verify", tmp_path / "absent.json").exit_code == 1


def _fresh_cli(*args):
    """Run the CLI in a fresh interpreter, so its default recursion limit
    applies and a traceback would reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(bninterp.__file__).resolve().parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "bninterp.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "args, key, what",
    [
        (["verify"], None, "certificate"),
        (["certify", 13, 2, 6, 1, 0, "--axioms"], "axioms", "axioms"),
        (["sporadic", "--rmax", 3, "--expected"], "sporadic30", "expected"),
    ],
    ids=["certificate", "axioms", "expected"],
)
def test_a_deeply_nested_json_file_is_an_input_error(tmp_path, args, key, what):
    # the JSON decoder recurses once per level, so 200,000 levels raise
    # RecursionError while the file is read
    nested = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(nested if key is None else f'{{"{key}": {nested}}}')
    proc = _fresh_cli(*args, path)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr[-500:]
    assert proc.stderr.startswith(f"error: {what} file: "), proc.stderr[-500:]


class _Parsed(Exception):
    """Raised in place of the work a command does once its file is read."""


_GONE = object()  # an edit that deletes the subtree
_KEYS = ["version", "root", "nodes", "tuple", "justification", "kind", "rule", "params", "children",
         "proviso", "tag", "axioms", "sporadic30", "ell_prime", "m_prime", "d_prime", "sum_n", "any_ni_is_2"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3) | st.sampled_from(_KEYS + ["axiom", "master", "gather-lines", "SmallR"])
    | st.lists(st.integers(0, 15), min_size=5, max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _subtree_paths(doc, path=()):
    yield path
    for key, v in doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ():
        yield from _subtree_paths(v, path + (key,))


def _replaced(doc, path, value):
    """`doc` with the subtree at `path` replaced by `value` or deleted."""
    if not path:
        return doc if value is _GONE else value
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    if value is _GONE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "args, work, what",
    [
        (["verify"], "verify_certificate", "certificate"),
        (["certify", 13, 2, 6, 1, 0, "--axioms"], "_certify", "axioms"),
        (["sporadic", "--rmax", 3, "--expected"], "run_sporadic_search", "expected"),
    ],
    ids=["certificate", "axioms", "expected"],
)
def test_a_reader_refuses_any_edited_document_with_a_value_error(runner, tmp_path, monkeypatch, args, work, what):
    # any JSON value in place of any subtree of a valid document, or the
    # subtree deleted, is read or refused with a ValueError, which the CLI
    # reports as an input error; any other exception would escape _file_errors
    doc = {
        "certificate": certify(Tuple(13, 2, 6, 1, 0)).to_json(),
        "axioms": {"axioms": [{"tuple": [9, 9, 9, 0, 0], "citation": "assumed"}, {"tuple": [-20, 0, 0, 0, 0]}]},
        "expected": json.loads(constants_as_json()),
    }[what]

    def parsed(*args, **kwargs):
        raise _Parsed

    monkeypatch.setattr(cli, work, parsed)
    path = tmp_path / "doc.json"

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(_subtree_paths(doc))), _JSON_VALUES | st.just(_GONE))
    def check(where, value):
        path.write_text(json.dumps(_replaced(doc, where, value)))
        res = run(runner, *args, path)
        if not isinstance(res.exception, _Parsed):
            assert isinstance(res.exception, SystemExit) and res.exit_code == 1, repr(res.exception)
            assert res.output.startswith(f"error: {what} file: "), res.output

    check()


def test_readers_refuse_a_top_level_array_and_name_a_missing_key(runner, tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    res = run(runner, "certify", 13, 2, 6, 1, 0, "--axioms", listed)
    assert res.exit_code == 1 and "axioms file: expected a JSON object" in res.output
    res = run(runner, "verify", listed)
    assert res.exit_code == 1 and "certificate file: expected a JSON object" in res.output
    cert = tmp_path / "c.json"
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    doc = json.loads(cert.read_text())
    del doc["nodes"]
    cert.write_text(json.dumps(doc))
    res = run(runner, "verify", cert)
    assert res.exit_code == 1 and "certificate file: missing key 'nodes'" in res.output
    cert.write_text(json.dumps({**doc, "nodes": 5}))
    res = run(runner, "verify", cert)
    assert res.exit_code == 1 and "certificate file: nodes must be a list, got int" in res.output
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    doc = json.loads(cert.read_text())
    next(row for row in doc["nodes"] if row["justification"]["kind"] == "rule")["justification"]["children"] = 5
    cert.write_text(json.dumps(doc))
    res = run(runner, "verify", cert)
    assert res.exit_code == 1 and "certificate file: children must be a list, got int" in res.output
    ax = tmp_path / "ax.json"
    ax.write_text(json.dumps({"axioms": [{"citation": "assumed"}]}))
    res = run(runner, "certify", 13, 2, 6, 1, 0, "--axioms", ax)
    assert res.exit_code == 1 and "axioms file: missing key 'tuple'" in res.output
    res = run(runner, "sporadic", "--rmax", 3, "--expected", listed)
    assert res.exit_code == 1 and "expected file: expected a JSON object, got list" in res.output
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    res = run(runner, "sporadic", "--rmax", 3, "--expected", empty)
    assert res.exit_code == 1 and "expected file: missing key 'sporadic30'" in res.output
    # a tuple with two rows: an exact copy, and a second row that differs
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    doc = json.loads(cert.read_text())
    row = doc["nodes"][-1]
    other = {"tuple": row["tuple"], "justification": {"kind": "axiom", "tag": "Extra"}}
    for extra in (row, other):
        cert.write_text(json.dumps({**doc, "nodes": doc["nodes"] + [extra]}))
        res = run(runner, "verify", cert)
        assert res.exit_code == 1 and f"certificate file: node {row['tuple']} listed twice" in res.output


def test_erasable_command(runner):
    res = run(runner, "erasable", "--r", 3, "--s", "1,0", "--s", "2,1=2")
    assert res.exit_code == 0 and "erasable" in res.output
    res = run(runner, "erasable", "--r", 4, "--s", "1,1")
    assert res.exit_code == 2 and "not erasable" in res.output
    res = run(runner, "erasable", "--r", 4, "--s", "oops")
    assert res.exit_code == 1
    res = run(runner, "erasable", "--r", 3, "--w", "1,0", "--format", "json")
    doc = json.loads(res.output)
    assert doc["erasable"] is False and res.exit_code == 2


@pytest.mark.parametrize(
    "mods, message",
    [
        (["--s", "1,0=-2"], "negative count in '1,0=-2'"),
        (["--s", "1,0=3", "--s", "1,0=-3"], "negative count in '1,0=-3'"),
        (["--s", "1,0", "--w", "1,0=-1"], "negative count in '1,0=-1'"),
        (["--s", "5,0=0"], "out of range"),
    ],
    ids=["negative", "cancelling", "negative-weak", "zero-out-of-range"],
)
def test_erasable_count_errors_are_input_errors(runner, mods, message):
    # a count that is not positive must not vanish from the collection
    res = run(runner, "erasable", "--r", 3, *mods)
    assert res.exit_code == 1 and message in res.output


@pytest.mark.parametrize(
    "args",
    [["--r", 2], ["--r", 0], ["--r", 2, "--s", "1,0"]],
    ids=["r2-empty", "r0-empty", "r2"],
)
def test_erasable_below_r3_is_an_input_error(runner, args):
    # the calculus needs r >= 3 whatever the collection, the empty one too
    res = run(runner, "erasable", *args)
    assert res.exit_code == 1 and "calculus needs r >= 3" in res.output


@pytest.mark.parametrize(
    "args, counts",
    [
        (["--r", 3, "--s", "1,0=3000"], {"s1,0": 3000}),
        (["--r", 5, "--s", "1,0=700", "--s", "2,0=700"], {"s1,0": 700, "s2,0": 700}),
    ],
    ids=["one-type", "two-types"],
)
def test_erasable_answers_past_the_recursion_limit(args, counts):
    proc = _fresh_cli("erasable", *args, "--format", "json")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-500:]
    doc = json.loads(proc.stdout)
    assert doc["erasable"] is True and Counter(doc["witness"]) == counts


@pytest.mark.parametrize(
    "args, what",
    [
        (["sporadic", "--rmax", 3, "--csv"], "csv file:"),
        (["certify", 13, 2, 6, 1, 0, "--json"], "certificate file:"),
        (["dump-constants", "--out"], "constants file:"),
    ],
    ids=["csv", "certificate", "constants"],
)
def test_unwritable_output_file_is_an_input_error(runner, tmp_path, monkeypatch, args, what):
    # the path is checked before the sweep or the search starts
    def not_reached(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    monkeypatch.setattr(cli, "run_sporadic_search", not_reached)
    monkeypatch.setattr(cli, "_certify", not_reached)
    res = run(runner, *args, tmp_path / "absent" / "out")
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output and f"error: {what}" in res.output


def test_a_run_that_fails_after_the_path_check_leaves_the_output_alone(runner, tmp_path, monkeypatch):
    def irreducible(t, axioms):
        raise Irreducible(t)

    monkeypatch.setattr(cli, "_certify", irreducible)
    out = tmp_path / "c.json"
    res = run(runner, "certify", 13, 2, 6, 1, 0, "--json", out)
    assert res.exit_code == 4 and not out.exists(), res.output
    out.write_bytes(b"old bytes")
    res = run(runner, "certify", 13, 2, 6, 1, 0, "--json", out)
    assert res.exit_code == 4 and out.read_bytes() == b"old bytes", res.output
    # an empty range is refused by the sweep, after the path check
    csv_path = tmp_path / "s.csv"
    res = run(runner, "sporadic", "--rmax", 2, "--csv", csv_path)
    assert res.exit_code == 1 and "rmax 2 leaves no rank" in res.output and not csv_path.exists()


@pytest.mark.parametrize(
    "args, keys",
    [
        (["check", 6, 4, 3], {"d", "g", "r", "char", "holds", "reason"}),
        (["good", 4, 1, 3, 1, 0], {"tuple", "good", "failures"}),
        (["delta", 8, 1, 7, 1, 1], {"tuple", "delta"}),
        (["max-points", 10, 6, 5], {"d", "g", "r", "predicted", "exception", "upper_bound"}),
        (["sporadic", "--rmax", 3], {"rmax", "examined", "reducible", "irreducible", "missing", "unexpected"}),
        (["thm14", "--rmax", 14], {"rmin", "rmax", "examined", "outside_checked", "uncovered", "outside_uncovered"}),
        (["erasable", "--r", 3, "--s", "1,0", "--s", "2,1=2"], {"r", "erasable", "witness"}),
    ],
    ids=["check", "good", "delta", "max-points", "sporadic", "thm14", "erasable"],
)
def test_json_report_is_one_line_with_the_documented_keys(runner, args, keys):
    plain = run(runner, *args)
    res = run(runner, *args, "--format", "json")
    assert res.exit_code == plain.exit_code
    assert res.output.count("\n") == 1
    assert set(json.loads(res.output)) == keys


def test_version_flag(runner):
    res = run(runner, "--version")
    assert res.exit_code == 0 and "0.1.0" in res.output


@pytest.mark.parametrize(
    "entry",
    [[9.0, 9, 9, 0, 0], [9, "9", 9, 0, 0], [9, 9, 9, False, 0], [9, 9, 9, 0]],
    ids=["float", "str", "bool", "four-entries"],
)
def test_axioms_file_takes_integer_tuples_only(runner, tmp_path, entry):
    ax = tmp_path / "ax.json"
    ax.write_text(json.dumps({"axioms": [{"tuple": entry, "citation": "assumed"}]}))
    res = run(runner, "certify", 9, 9, 9, 0, 0, "--axioms", ax)
    assert res.exit_code == 1 and "axioms file:" in res.output
    cert = tmp_path / "c.json"
    assert run(runner, "certify", 13, 2, 6, 1, 0, "--json", cert).exit_code == 0
    res = run(runner, "verify", cert, "--axioms", ax)
    assert res.exit_code == 1 and "axioms file:" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["good", 5, 2, 3, 0],
        ["check", "x", 1, 3],
        ["good", 5, 2, 3, 0, 1, "--format", "xml"],
        ["sporadic", "--bogus"],
        ["thm14"],
        ["no-such-command"],
        ["--bogus"],
        ["certify", 13, 2, 6, 1, 0, "--rmax-bound", 5],
    ],
)
def test_usage_errors_are_input_errors(runner, args):
    assert run(runner, *args).exit_code == 1


def test_help_and_negative_answers_keep_their_exit_codes(runner):
    assert run(runner, "--help").exit_code == 0
    assert run(runner, "good", "--help").exit_code == 0
    res = run(runner, "good", 5, 2, 3, 0, 0)  # a member of the bad-residue list
    assert res.exit_code == 2 and "not good" in res.output


def test_empty_sweep_ranges_are_input_errors(runner):
    res = run(runner, "thm14", "--rmax", 10)
    assert res.exit_code == 1 and "examined" not in res.output
    res = run(runner, "sporadic", "--rmax", 2)
    assert res.exit_code == 1 and "examined" not in res.output
