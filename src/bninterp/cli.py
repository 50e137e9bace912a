"""Command-line front end.

Exit codes follow one convention across subcommands:
  0  the requested property holds / output produced and matches
  1  input error (malformed arguments, no curve exists, unreadable file)
  2  the property fails for a mathematical reason (exception, not good,
     not erasable)
  3  a verification or comparison found violations
  4  certification failed (no reduction chain found)
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter

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
    rho,
)
from .erase import STRONG, WEAK, CalculusError, ModType, is_erasable
from .prover import (
    AxiomSet,
    BoundsExceeded,
    Certificate,
    Irreducible,
    RuleApp,
    certify as _certify,
    check_workers,
    run_sporadic_search,
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

def _fail_input(msg: str) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(1)


def _parse_workers(_ctx, _param, value):
    try:
        return check_workers(value)
    except ValueError as e:
        _fail_input(str(e))


_WORKERS = click.option(
    "--workers",
    type=int,
    default=1,
    show_default=True,
    envvar="BNINTERP_WORKERS",
    callback=_parse_workers,
    help="Worker processes, at most the CPU count (also via BNINTERP_WORKERS).",
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _load_config(ctx, param, value):
    if not value:
        return value
    defaults: dict = {}
    try:
        with open(value, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"expected KEY=VALUE, got {line!r}")
                key, _, val = line.partition("=")
                defaults[key.strip().replace("-", "_")] = val.strip()
    except (OSError, ValueError) as e:
        _fail_input(f"config file: {e}")
    # command-line flags win over config values, which win over built-in
    # defaults.  default_map is keyed by parameter name, so translate the
    # user-facing option spellings (e.g. "format") to the bound names.
    default_map = {}
    for cmd_name, cmd in ctx.command.commands.items():
        sub = {}
        for p in cmd.params:
            candidates = {p.name}
            candidates.update(
                o.lstrip("-").replace("-", "_") for o in p.opts if o.startswith("--")
            )
            for key in candidates:
                if key in defaults:
                    sub[p.name] = defaults[key]
        if sub:
            default_map[cmd_name] = sub
    ctx.default_map = default_map
    return value


@click.group()
@click.version_option(__version__, prog_name="bninterp")
@click.option(
    "--config",
    type=click.Path(exists=False),
    callback=_load_config,
    expose_value=False,
    is_eager=True,
    help="KEY=VALUE file supplying defaults for subcommand options.",
)
def main():
    """Exact verification tools for interpolation of Brill-Noether curves."""


# ---------------------------------------------------------------------------


@main.command()
@click.argument("d", type=int)
@click.argument("g", type=int)
@click.argument("r", type=int)
@click.option("--char", type=int, default=0, show_default=True, help="Field characteristic (0 or a prime).")
@_FORMAT
def check(d, g, r, char, fmt):
    """Decide whether interpolation holds for general curves of degree D,
    genus G in projective R-space.  Exit 0 when it holds, 2 on an
    exception, 1 when no such curve exists."""
    if char != 0 and not _is_prime(char):
        _fail_input(f"characteristic {char} is neither 0 nor prime")
    try:
        verdict = bn_interpolation(d, g, r, char=char)
    except DomainError as e:
        _fail_input(str(e))
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "d": d,
                    "g": g,
                    "r": r,
                    "char": char,
                    "holds": verdict.holds,
                    "reason": verdict.reason,
                }
            )
        )
    else:
        if verdict.holds:
            click.echo("holds")
        else:
            click.echo(f"exception: ({d},{g},{r}) {verdict.reason}")
    sys.exit(0 if verdict.holds else 2)


@main.command()
@click.argument("d", type=int)
@click.argument("g", type=int)
@click.argument("r", type=int)
@click.argument("ell", type=int)
@click.argument("m", type=int)
@_FORMAT
def good(d, g, r, ell, m, fmt):
    """Report whether a tuple passes the goodness test (exit 0) and name
    every failed clause otherwise (exit 2)."""
    v = is_good(Tuple(d, g, r, ell, m))
    if fmt == "json":
        click.echo(json.dumps({"tuple": [d, g, r, ell, m], "good": v.is_good, "failures": list(v.failures)}))
    else:
        click.echo("good" if v.is_good else "not good: " + ", ".join(v.failures))
    sys.exit(0 if v.is_good else 2)


@main.command(name="delta")
@click.argument("d", type=int)
@click.argument("g", type=int)
@click.argument("r", type=int)
@click.argument("ell", type=int)
@click.argument("m", type=int)
@_FORMAT
def delta_cmd(d, g, r, ell, m, fmt):
    """Print the exact defect ratio of a tuple as a reduced fraction."""
    try:
        value = delta(Tuple(d, g, r, ell, m))
    except DomainError as e:
        _fail_input(str(e))
    if fmt == "json":
        click.echo(json.dumps({"tuple": [d, g, r, ell, m], "delta": [value.numerator, value.denominator]}))
    else:
        click.echo(str(value))


@main.command(name="max-points")
@click.argument("d", type=int)
@click.argument("g", type=int)
@click.argument("r", type=int)
@_FORMAT
def max_points_cmd(d, g, r, fmt):
    """Largest number of general points through which a curve of the given
    kind passes.  Exit 2 when the count is exceptional (lower than the
    dimension count predicts)."""
    try:
        ans = max_points(d, g, r)
    except DomainError as e:
        _fail_input(str(e))
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "d": d,
                    "g": g,
                    "r": r,
                    "predicted": ans.predicted_n,
                    "exception": ans.is_exception,
                    "upper_bound": ans.exception_upper_bound,
                }
            )
        )
    else:
        if ans.is_exception:
            click.echo(f"predicted {ans.predicted_n}; exception, upper bound {ans.exception_upper_bound}")
        else:
            click.echo(f"predicted {ans.predicted_n}")
    sys.exit(2 if ans.is_exception else 0)


# ---------------------------------------------------------------------------


def _parse_rule(_ctx, _param, values):
    out = []
    for v in values:
        try:
            out.append(RuleId(v))
        except ValueError:
            _fail_input(f"unknown rule {v!r}; valid: {', '.join(r.value for r in RuleId)}")
    return tuple(out)


@main.command()
@click.option("--rmax", type=int, default=13, show_default=True)
@click.option(
    "--disable-rule",
    "disabled",
    multiple=True,
    callback=_parse_rule,
    help="Rule name to leave out (repeatable).",
)
@_WORKERS
@click.option("--csv", "csv_path", type=click.Path(), default=None, help="Write per-tuple rows to a CSV file.")
@click.option("--expected", type=click.Path(), default=None, help="JSON constants file to compare the irreducible set against (default: built-in table).")
@click.option("--recursive-accept", is_flag=True, help="Accept subgoals by bounded recursive certification instead of goodness.")
@_FORMAT
def sporadic(rmax, disabled, workers, csv_path, expected, recursive_accept, fmt):
    """Sweep every candidate small-r tuple through the reduction rules and
    report which remain irreducible.  Exit 3 when the irreducible set
    differs from the expected table (filtered to r <= RMAX)."""
    report = run_sporadic_search(
        r_max=rmax, disabled=disabled, workers=workers, recursive_accept=recursive_accept
    )
    if expected is not None:
        try:
            with open(expected, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            want = {Tuple(*row) for row in doc["sporadic30"]}
        except (OSError, ValueError, KeyError, TypeError) as e:
            _fail_input(f"expected file: {e}")
    else:
        want = set(SPORADIC30)
    want = {t for t in want if t.r <= rmax}
    got = set(report.irreducible)

    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["d", "g", "r", "ell", "m", "status", "rule", "params"])
            for t, status, rule, params in report.rows():
                w.writerow(
                    [
                        t.d,
                        t.g,
                        t.r,
                        t.ell,
                        t.m,
                        status,
                        rule.value if rule else "",
                        json.dumps(params.to_json()) if params else "",
                    ]
                )

    missing = sorted(want - got, key=lambda t: (t.r, t.g, t.d, t.ell, t.m))
    extra = sorted(got - want, key=lambda t: (t.r, t.g, t.d, t.ell, t.m))
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "rmax": rmax,
                    "examined": report.examined,
                    "reducible": report.reducible,
                    "irreducible": [list(t) for t in report.irreducible],
                    "missing": [list(t) for t in missing],
                    "unexpected": [list(t) for t in extra],
                },
                indent=1,
            )
        )
    else:
        click.echo(f"examined {report.examined} tuples up to r = {rmax}")
        click.echo(f"reducible {report.reducible}, irreducible {len(report.irreducible)}:")
        for t in report.irreducible:
            click.echo(f"  (d={t.d}, g={t.g}, r={t.r}, ell={t.ell}, m={t.m})")
        for t in missing:
            click.echo(f"MISSING (expected but reduced): {tuple(t)}")
        for t in extra:
            click.echo(f"UNEXPECTED (found irreducible): {tuple(t)}")
    sys.exit(0 if not missing and not extra else 3)


@main.command()
@click.option("--rmax", type=int, required=True)
@click.option("--rmin", type=int, default=14, show_default=True)
@_WORKERS
@_FORMAT
def thm14(rmax, rmin, workers, fmt):
    """Confirm that for every r in [RMIN, RMAX] the sweep rules dispatch
    all good box tuples and the peeling moves reach everything outside.
    Exit 3 when anything is left uncovered."""
    if rmin < 14:
        _fail_input("rmin below 14 is covered by the sporadic sweep instead")
    report = verify_thm14(r_max=rmax, r_min=rmin, workers=workers)
    bad = report.uncovered + report.outside_uncovered
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "rmin": report.r_min,
                    "rmax": report.r_max,
                    "examined": report.examined,
                    "outside_checked": report.outside_checked,
                    "uncovered": [list(t) for t in report.uncovered],
                    "outside_uncovered": [list(t) for t in report.outside_uncovered],
                },
                indent=1,
            )
        )
    else:
        click.echo(
            f"examined {report.examined} box tuples and {report.outside_checked} shell tuples, "
            f"r in [{report.r_min}, {report.r_max}]"
        )
        if bad:
            for t in bad:
                click.echo(f"UNCOVERED: {tuple(t)}")
        else:
            click.echo("all covered")
    sys.exit(3 if bad else 0)


# ---------------------------------------------------------------------------


@main.command(name="certify")
@click.argument("d", type=int)
@click.argument("g", type=int)
@click.argument("r", type=int)
@click.argument("ell", type=int)
@click.argument("m", type=int)
@click.option("--json", "json_path", type=click.Path(), default=None, help="Write the certificate to this file.")
@click.option("--axioms", "axioms_path", type=click.Path(), default=None, help="JSON file of extra terminal tuples with citations.")
@click.option("--rmax-bound", type=int, default=None, help="Abort if the search needs r above this.")
@click.option("--dmax-bound", type=int, default=None, help="Abort if the search needs d above this.")
@click.option("--recursive-accept", is_flag=True, help="Let recursion, not goodness, accept subgoals.")
def certify_cmd(d, g, r, ell, m, json_path, axioms_path, rmax_bound, dmax_bound, recursive_accept):
    """Build a reduction certificate for the tuple (exit 0), or exit 4
    when no reduction chain exists.  A tuple that is neither good nor an
    axiom is an input error (exit 1)."""
    t = Tuple(d, g, r, ell, m)
    ax = AxiomSet()
    if axioms_path is not None:
        try:
            ax = AxiomSet.load(axioms_path)
        except (OSError, ValueError, KeyError, TypeError) as e:
            _fail_input(f"axioms file: {e}")
    if ax.tag_of(t) is None and not is_good(t).is_good:
        failures = ", ".join(is_good(t).failures)
        _fail_input(f"tuple is not good ({failures}) and is not an axiom")
    bounds = None
    if rmax_bound is not None or dmax_bound is not None:
        bounds = (rmax_bound if rmax_bound is not None else t.r, dmax_bound if dmax_bound is not None else t.d)
    try:
        cert = _certify(t, axioms=ax, bounds=bounds, recursive_accept=recursive_accept)
    except Irreducible as e:
        click.echo(f"irreducible: {tuple(e.tuple)}")
        sys.exit(4)
    except BoundsExceeded as e:
        click.echo(f"bounds exceeded at {tuple(e.tuple)}")
        sys.exit(4)
    res = verify_certificate(cert, axioms=ax)
    if not res:
        click.echo(f"internal error: fresh certificate fails verification: {res.code} {res.detail}", err=True)
        sys.exit(3)
    if json_path is not None:
        cert.dump(json_path)
        click.echo(f"certificate with {len(cert.nodes)} nodes written to {json_path}")
    else:
        click.echo(json.dumps(cert.to_json(), indent=1))
    sys.exit(0)


@main.command(name="verify")
@click.argument("certificate", type=click.Path())
@click.option("--axioms", "axioms_path", type=click.Path(), default=None)
def verify_cmd(certificate, axioms_path):
    """Re-check a certificate file independently of the search that built
    it.  Exit 0 when sound, 3 when any node fails."""
    ax = AxiomSet()
    if axioms_path is not None:
        try:
            ax = AxiomSet.load(axioms_path)
        except (OSError, ValueError, KeyError, TypeError) as e:
            _fail_input(f"axioms file: {e}")
    try:
        cert = Certificate.read(certificate)
    except (OSError, ValueError, KeyError, TypeError) as e:
        _fail_input(f"certificate file: {e}")
    res = verify_certificate(cert, axioms=ax)
    if res:
        rules_used = sorted({j.rule.value for j in cert.nodes.values() if isinstance(j, RuleApp)})
        click.echo(f"ok: {len(cert.nodes)} nodes, root {tuple(cert.root)}, rules {', '.join(rules_used) or '(none)'}")
        sys.exit(0)
    click.echo(f"FAIL {res.code}: {res.detail}")
    sys.exit(3)


# ---------------------------------------------------------------------------


def _parse_mods(values, strength):
    out = Counter()
    for item in values:
        left, eq, right = item.partition("=")
        count = int(right) if eq else 1
        i_str, sep, j_str = left.partition(",")
        if not sep:
            raise ValueError(f"expected i,j[=count], got {item!r}")
        out[ModType(int(i_str), int(j_str), strength)] += count
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
        coll = _parse_mods(strong, STRONG) + _parse_mods(weak, WEAK)
    except ValueError as e:
        _fail_input(str(e))
    try:
        ok, witness = is_erasable(coll, r)
    except CalculusError as e:
        _fail_input(str(e))
    if fmt == "json":
        click.echo(json.dumps({"r": r, "erasable": ok, "witness": witness}))
    else:
        if ok:
            click.echo("erasable: " + (" -> ".join(witness) if witness else "(empty)"))
        else:
            click.echo("not erasable")
    sys.exit(0 if ok else 2)


@main.command(name="dump-constants")
@click.option("--out", type=click.Path(), default="constants.json", show_default=True)
def dump_constants(out):
    """Write the built-in tables (bad-residue list, interpolation
    counterexamples, point-count exceptions, sporadic table) to JSON."""
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(constants_as_json())
        fh.write("\n")
    click.echo(f"constants written to {out}")


if __name__ == "__main__":
    main()
