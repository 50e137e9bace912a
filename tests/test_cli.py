"""Command-line surface: exit codes, output formats, and file emission."""

import json

import pytest
from click.testing import CliRunner

from bninterp.cli import main


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
    res = run(runner, "sporadic", "--disable-rule", "bogus")
    assert res.exit_code == 1


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


def test_certify_rejects_bad_input(runner):
    res = run(runner, "certify", 2, 0, 3, 0, 0)
    assert res.exit_code == 1
    assert "not good" in res.output


def test_certify_bounds_exceeded_exits_4(runner):
    res = run(runner, "certify", 13, 2, 6, 1, 0, "--rmax-bound", 5)
    assert res.exit_code == 4


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


def test_verify_unreadable_certificate(runner, tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{не json")
    assert run(runner, "verify", p).exit_code == 1
    assert run(runner, "verify", tmp_path / "absent.json").exit_code == 1


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


def test_config_file_supplies_defaults_and_flags_win(runner, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("format=json\n# comment\n")
    res = runner.invoke(main, ["--config", str(cfg), "check", "4", "1", "3"])
    assert res.exit_code == 0
    assert json.loads(res.output)["holds"] is True
    res = runner.invoke(
        main, ["--config", str(cfg), "check", "4", "1", "3", "--format", "plain"]
    )
    assert res.output.strip() == "holds"


def test_version_flag(runner):
    res = run(runner, "--version")
    assert res.exit_code == 0 and "0.1.0" in res.output
