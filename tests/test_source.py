"""Checks on the package source itself."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import bninterp
from bninterp import core, erase, prover, rules

SOURCES = sorted(Path(bninterp.__file__).parent.glob("*.py"))


def test_no_logic_sits_in_an_assert():
    # `python -O` strips asserts, so a check written as one silently
    # disappears; checks raise explicit exceptions instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_has_one_output_path():
    # every --format json report goes through one emitter
    assert (Path(bninterp.__file__).parent / "cli.py").read_text(encoding="utf-8").count('fmt == "json"') == 1


def test_only_the_cli_opens_files():
    # the library reads and writes documents (from_json, to_json and
    # Certificate.text); bninterp.cli opens every file it names
    file_calls = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
    openers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in file_calls
    }
    assert openers == {"cli.py"}
    for cls, name in ((prover.AxiomSet, "load"), (prover.Certificate, "read"), (prover.Certificate, "dump")):
        assert not hasattr(cls, name), name


def test_each_input_is_refused_once_in_the_library():
    # certify owns its root test and the sweeps check their worker counts
    # and ranks; the CLI restates neither, and settle tests no goodness
    cli_src = (Path(bninterp.__file__).parent / "cli.py").read_text(encoding="utf-8")
    for name in ("tag_of", "check_workers", "_parse_workers"):
        assert name not in cli_src, name
    tree = ast.parse(Path(prover.__file__).read_text(encoding="utf-8"))
    (settle,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "settle"]
    assert not [n for n in ast.walk(settle) if isinstance(n, ast.Name) and n.id == "is_good"]


def test_goodness_is_written_once():
    # is_good tests each clause in one `if` and keeps no second failure
    # list; _thm14_one_r counts the shell outside the box by the lemma of
    # prover._rows and never asks goodness itself
    tree = ast.parse(Path(core.__file__).read_text(encoding="utf-8"))
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_failures" not in functions
    ifs = [n for n in ast.walk(functions["is_good"]) if isinstance(n, ast.If)]
    codes = ("NEGATIVE_FIELD", "DEGREE_BELOW_G_PLUS_R", "ELL_TOO_LARGE", "M_EXCEEDS_RHO", "RATIONAL_RESIDUE", "IN_XEX_LIST")
    for code in codes:
        named = [n for n in ast.walk(functions["is_good"]) if isinstance(n, ast.Name) and n.id == code]
        holders = [n for n in ifs if any(isinstance(x, ast.Name) and x.id == code for x in ast.walk(n))]
        assert len(named) == 1 and len(holders) == 1, code
    tree = ast.parse(Path(prover.__file__).read_text(encoding="utf-8"))
    (one_r,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_thm14_one_r"]
    assert not [n for n in ast.walk(one_r) if isinstance(n, ast.Name) and n.id == "is_good"]


def test_each_convention_has_one_owner():
    # rules reads the params it writes, the erasability oracle starts at the
    # identity state as the search does, and click checks --disable-rule
    prover_src = Path(prover.__file__).read_text(encoding="utf-8")
    for name in ("_PARAM_TYPES", "_check_params"):
        assert name not in prover_src, name
    tree = ast.parse(Path(erase.__file__).read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_place"]
    assert "_parse_rule" not in (Path(bninterp.__file__).parent / "cli.py").read_text(encoding="utf-8")


def test_the_searches_share_one_shape_and_one_box_walk():
    # one six-test _shape feeds the tables of certify and both sweeps, built
    # by one _rule_table(left_out); only _box builds a Tuple in a loop over
    # the rows of _rows
    assert list(inspect.signature(prover._rule_table).parameters) == ["left_out"]
    tree = ast.parse(Path(prover.__file__).read_text(encoding="utf-8"))
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert "_certify_shape" not in {f.name for f in functions}
    builders = set()
    for fn in functions:
        for loop in ast.walk(fn):
            gens = getattr(loop, "generators", [loop] if isinstance(loop, ast.For) else [])
            over_rows = [g for g in gens if isinstance(g.iter, ast.Call) and getattr(g.iter.func, "id", None) == "_rows"]
            if over_rows and any(isinstance(n, ast.Name) and n.id == "Tuple" for n in ast.walk(loop)):
                builders.add(fn.name)
    assert builders == {"_box"}


def test_the_rule_layer_states_its_domain_and_its_order_once():
    # r < 3 is refused at the entry points, not restated per rule, and the
    # rule table is written in search order
    assert Path(rules.__file__).read_text(encoding="utf-8").count('"r < 3"') == 1
    assert rules.RULE_ORDER == tuple(rules._RULES)


def test_each_one_instance_rule_is_one_function():
    # its hypotheses, then its subgoals; only the enumerated rules keep a
    # check apart from their subgoal formula
    assert "goals" not in rules._Rule._fields
    tree = ast.parse(Path(rules.__file__).read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    one_instance = [rule for rule, spec in rules._RULES.items() if spec.candidates is None]
    assert len(one_instance) == 9
    for rule in one_instance:
        name = rule.value.replace("-", "_")
        assert {f"_goals_{name}", f"_check_{name}"}.isdisjoint(defined), rule
        assert name in {n.lstrip("_") for n in defined}, rule


def test_all_names_each_public_export():
    names = bninterp.__all__
    assert len(set(names)) == len(names)
    assert not [n for n in names if n.startswith("_") and not n.startswith("__")]
    assert not [n for n in names if isinstance(getattr(bninterp, n), ModuleType)]
    ns = {}
    exec("from bninterp import *", ns)
    del ns["__builtins__"]
    assert set(ns) == set(names)


def test_each_master_rule_has_one_walk():
    # certify and the sweeps read the same enumerator; the unpruned walk is
    # the reference in tests/test_rules.py
    src = Path(rules.__file__).read_text(encoding="utf-8")
    for name in ("least_good", "first_candidates"):
        assert name not in src, name


def test_importing_the_cli_does_not_load_multiprocessing():
    # only the forking branch of the parallel map uses it, and imports it there
    src = str(Path(bninterp.__file__).parent.parent)
    code = "import sys; import bninterp.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
