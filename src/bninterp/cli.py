"""Command-line front end.

Exit codes follow one convention across subcommands:
  0  the requested property holds / output produced and matches
  1  input error (usage error, malformed arguments, empty sweep range,
     no curve exists, unreadable or unwritable file)
  2  the property fails for a mathematical reason (exception, not good,
     not erasable)
  3  a verification or comparison found violations
  4  certification failed (no reduction chain found)
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager

import click

from . import __version__
from .core import (
    SPORADIC30,
    DomainError,
    Tuple,
    bn_interpolation,
    constants_as_json,
    delta,
    is_good,
    max_points,
)
from .erase import STRONG, WEAK, CalculusError, ModType, is_erasable
from .prover import (
    AxiomSet,
    Certificate,
    Irreducible,
    RuleApp,
    _list_field,
    _tuple_from_json,
    certify as _certify,
    run_sporadic_search,
    sweep_order,
    verify_certificate,
    verify_thm14,
)
from .rules import RuleId

_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["plain", "json"]),
    default="plain",
    show_default=True,
    help="Output format.",
)

def _int_arguments(*names):
    def wrap(f):
        for name in reversed(names):  # click takes the outermost decorator first
            f = click.argument(name, type=int)(f)
        return f

    return wrap


_TRIPLE = _int_arguments("d", "g", "r")
_TUPLE = _int_arguments("d", "g", "r", "ell", "m")


def _fail_input(msg: str) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(1)


def _emit(fmt: str, doc: dict, text: str, code: int) -> None:
    """Print the report as one JSON document on one line, or as plain text,
    then exit with `code`."""
    click.echo(json.dumps(doc) if fmt == "json" else text)
    sys.exit(code)


@contextmanager
def _file_errors(what: str):
    """Report a file that cannot be read, parsed or written as an input
    error naming its role (`axioms file: ...`) instead of a traceback."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as e:
        _fail_input(f"{what} file: {e}")


def _read_json(what: str, path, parse):
    """parse(the JSON document in the file at `path`), under `_file_errors(what)`."""
    with _file_errors(what), open(path, "r", encoding="utf-8") as fh:
        return parse(json.load(fh))


def _check_writable(what: str, path) -> None:
    """Fail as `_file_errors` would on an output file that cannot be written, before
    the work; a new file is removed again and an existing one is not truncated."""
    if path is not None:
        new = not os.path.lexists(path)
        with _file_errors(what):
            open(path, "a").close()
            if new:
                os.remove(path)


class _Main(click.Group):
    """The command group.  Usage errors (unknown option or command, missing
    or malformed argument; click's code 2 means a negative answer here) and
    a command's DomainError or CalculusError are input errors: exit 1."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = 1
            raise
        except (DomainError, CalculusError) as e:
            _fail_input(str(e))


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="bninterp")
def main():
    """Exact verification tools for interpolation of Brill-Noether curves."""


# ---------------------------------------------------------------------------


@main.command()
@_TRIPLE
@click.option("--char", type=int, default=0, show_default=True, help="Field characteristic (0 or a prime).")
@_FORMAT
def check(d, g, r, char, fmt):
    """Decide whether interpolation holds for general curves of degree D,
    genus G in projective R-space.  Exit 0 when it holds, 2 on an
    exception, 1 when no such curve exists."""
    verdict = bn_interpolation(d, g, r, char=char)
    _emit(
        fmt,
        {"d": d, "g": g, "r": r, "char": char, "holds": verdict.holds, "reason": verdict.reason},
        "holds" if verdict.holds else f"exception: ({d},{g},{r}) {verdict.reason}",
        0 if verdict.holds else 2,
    )


@main.command()
@_TUPLE
@_FORMAT
def good(d, g, r, ell, m, fmt):
    """Report whether a tuple passes the goodness test (exit 0) and name
    every failed clause otherwise (exit 2)."""
    v = is_good(Tuple(d, g, r, ell, m))
    _emit(
        fmt,
        {"tuple": [d, g, r, ell, m], "good": v.is_good, "failures": list(v.failures)},
        "good" if v.is_good else "not good: " + ", ".join(v.failures),
        0 if v.is_good else 2,
    )


@main.command(name="delta")
@_TUPLE
@_FORMAT
def delta_cmd(d, g, r, ell, m, fmt):
    """Print the exact defect ratio of a tuple as a reduced fraction."""
    value = delta(Tuple(d, g, r, ell, m))
    _emit(fmt, {"tuple": [d, g, r, ell, m], "delta": [value.numerator, value.denominator]}, str(value), 0)


@main.command(name="max-points")
@_TRIPLE
@_FORMAT
def max_points_cmd(d, g, r, fmt):
    """Largest number of general points through which a curve of the given
    kind passes.  Exit 2 when the count is exceptional (lower than the
    dimension count predicts)."""
    ans = max_points(d, g, r)
    text = f"predicted {ans.predicted_n}"
    if ans.is_exception:
        text += f"; exception, upper bound {ans.exception_upper_bound}"
    doc = {"d": d, "g": g, "r": r, "predicted": ans.predicted_n}
    doc.update(exception=ans.is_exception, upper_bound=ans.exception_upper_bound)
    _emit(fmt, doc, text, 2 if ans.is_exception else 0)


# ---------------------------------------------------------------------------


@main.command()
@click.option("--rmax", type=int, default=13, show_default=True)
@click.option(
    "--disable-rule",
    "disabled",
    multiple=True,
    type=click.Choice([rule.value for rule in RuleId]),
    help="Rule name to leave out (repeatable).",
)
@click.option("--csv", "csv_path", type=click.Path(), default=None, help="Write per-tuple rows to a CSV file.")
@click.option("--expected", type=click.Path(), default=None, help="JSON constants file (integer rows) to compare the irreducible set against (default: built-in table).")
@_FORMAT
def sporadic(rmax, disabled, csv_path, expected, fmt):
    """Sweep every candidate small-r tuple through the reduction rules and
    report which remain irreducible.  Exit 3 when the irreducible set
    differs from the expected table (filtered to r <= RMAX)."""
    rows = lambda doc: [_tuple_from_json(row) for row in _list_field(doc, "sporadic30")]  # noqa: E731
    want = SPORADIC30 if expected is None else _read_json("expected", expected, rows)
    want = {t for t in want if t.r <= rmax}
    _check_writable("csv", csv_path)
    report = run_sporadic_search(r_max=rmax, disabled=map(RuleId, disabled))
    got = set(report.irreducible)

    if csv_path is not None:
        rows = [
            [*t, status, rule.value if rule else "", json.dumps(params.to_json()) if params else ""]
            for t, status, rule, params in report.rows()
        ]
        with _file_errors("csv"), open(csv_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["d", "g", "r", "ell", "m", "status", "rule", "params"])
            w.writerows(rows)

    missing = sorted(want - got, key=sweep_order)
    extra = sorted(got - want, key=sweep_order)
    doc = {
        "rmax": rmax,
        "examined": report.examined,
        "reducible": report.reducible,
        "irreducible": [list(t) for t in report.irreducible],
        "missing": [list(t) for t in missing],
        "unexpected": [list(t) for t in extra],
    }
    lines = [
        f"examined {report.examined} tuples up to r = {rmax}",
        f"reducible {report.reducible}, irreducible {len(report.irreducible)}:",
        *(f"  (d={t.d}, g={t.g}, r={t.r}, ell={t.ell}, m={t.m})" for t in report.irreducible),
        *(f"MISSING (expected but reduced): {tuple(t)}" for t in missing),
        *(f"UNEXPECTED (found irreducible): {tuple(t)}" for t in extra),
    ]
    _emit(fmt, doc, "\n".join(lines), 0 if not missing and not extra else 3)


@main.command()
@click.option("--rmax", type=int, required=True)
@click.option("--rmin", type=int, default=14, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True, help="Worker processes, at most the CPU count.")
@_FORMAT
def thm14(rmax, rmin, workers, fmt):
    """Confirm that for every r in [RMIN, RMAX] the sweep rules dispatch
    all good box tuples; good shell tuples outside the box are counted, not
    reduced.  Exit 3 when a box tuple is left uncovered."""
    if rmin < 14:
        _fail_input("rmin below 14 is covered by the sporadic sweep instead")
    report = verify_thm14(r_max=rmax, r_min=rmin, workers=workers)
    bad = report.uncovered + report.outside_uncovered
    doc = {
        "rmin": report.r_min,
        "rmax": report.r_max,
        "examined": report.examined,
        "outside_checked": report.outside_checked,
        "uncovered": [list(t) for t in report.uncovered],
        "outside_uncovered": [list(t) for t in report.outside_uncovered],
    }
    lines = [
        f"examined {report.examined} box tuples and {report.outside_checked} shell tuples, "
        f"r in [{report.r_min}, {report.r_max}]",
        *([f"UNCOVERED: {tuple(t)}" for t in bad] or ["all covered"]),
    ]
    _emit(fmt, doc, "\n".join(lines), 3 if bad else 0)


# ---------------------------------------------------------------------------


def _load_axioms(path) -> AxiomSet:
    return AxiomSet() if path is None else _read_json("axioms", path, AxiomSet.from_json)


@main.command(name="certify")
@_TUPLE
@click.option("--json", "json_path", type=click.Path(), default=None, help="Write the certificate to this file.")
@click.option("--axioms", "axioms_path", type=click.Path(), default=None, help="JSON file of extra terminal tuples.")
def certify_cmd(d, g, r, ell, m, json_path, axioms_path):
    """Build a reduction certificate for the tuple (exit 0), or exit 4
    when no reduction chain exists.  A tuple that is neither good nor an
    axiom is an input error (exit 1)."""
    ax = _load_axioms(axioms_path)
    _check_writable("certificate", json_path)
    try:
        cert = _certify(Tuple(d, g, r, ell, m), axioms=ax)
    except Irreducible as e:
        click.echo(f"irreducible: {tuple(e.tuple)}")
        sys.exit(4)
    res = verify_certificate(cert, axioms=ax)
    if not res:
        click.echo(f"internal error: fresh certificate fails verification: {res.code} {res.detail}", err=True)
        sys.exit(3)
    if json_path is not None:
        with _file_errors("certificate"), open(json_path, "w", encoding="utf-8") as fh:
            fh.write(cert.text())
        click.echo(f"certificate with {len(cert.nodes)} nodes written to {json_path}")
    else:
        click.echo(cert.text(), nl=False)


@main.command(name="verify")
@click.argument("certificate", type=click.Path())
@click.option("--axioms", "axioms_path", type=click.Path(), default=None)
def verify_cmd(certificate, axioms_path):
    """Re-check a certificate file independently of the search that built
    it.  Exit 0 when sound, 3 when any node fails."""
    ax = _load_axioms(axioms_path)
    cert = _read_json("certificate", certificate, Certificate.from_json)
    res = verify_certificate(cert, axioms=ax)
    if res:
        rules_used = sorted({j.rule.value for j in cert.nodes.values() if isinstance(j, RuleApp)})
        click.echo(f"ok: {len(cert.nodes)} nodes, root {tuple(cert.root)}, rules {', '.join(rules_used) or '(none)'}")
        sys.exit(0)
    click.echo(f"FAIL {res.code}: {res.detail}")
    sys.exit(3)


# ---------------------------------------------------------------------------


def _parse_mods(strong, weak):
    # one Counter updated in place: `Counter.__add__` would drop every
    # entry whose count is not positive
    out = Counter()
    for strength, values in ((STRONG, strong), (WEAK, weak)):
        for item in values:
            left, eq, right = item.partition("=")
            try:
                i_str, j_str = left.split(",")
                i, j, count = int(i_str), int(j_str), int(right) if eq else 1
            except ValueError:
                raise ValueError(f"expected i,j[=count], got {item!r}") from None
            if count < 0:
                raise ValueError(f"negative count in {item!r}")
            out[ModType(i, j, strength)] += count
    return out


@main.command()
@click.option("--r", "r", type=int, required=True, help="Ambient dimension parameter.")
@click.option("--s", "strong", multiple=True, help="Strong type i,j=count (repeatable).")
@click.option("--w", "weak", multiple=True, help="Weak type i,j=count (repeatable).")
@_FORMAT
def erasable(r, strong, weak, fmt):
    """Decide whether a collection of modification types can be combined,
    in some order, into a state with no second twist and full strength.
    Exit 0 with a witness order, or 2 if no order works."""
    try:
        coll = _parse_mods(strong, weak)
    except ValueError as e:
        _fail_input(str(e))
    ok, witness = is_erasable(coll, r)
    text = ("erasable: " + (" -> ".join(witness) if witness else "(empty)")) if ok else "not erasable"
    _emit(fmt, {"r": r, "erasable": ok, "witness": witness}, text, 0 if ok else 2)


@main.command(name="dump-constants")
@click.option("--out", type=click.Path(), default="constants.json", show_default=True)
def dump_constants(out):
    """Write the built-in tables (bad-residue list, interpolation
    counterexamples, point-count exceptions, sporadic table) to JSON."""
    with _file_errors("constants"), open(out, "w", encoding="utf-8") as fh:
        fh.write(constants_as_json())
        fh.write("\n")
    click.echo(f"constants written to {out}")


if __name__ == "__main__":
    main()
