"""Search layer: axioms, the finite sporadic sweep, the large-r coverage
check, and re-checkable reduction certificates.

A *certificate* is a finite DAG: every node is a tuple together with a
justification, either an axiom tag or a rule instance whose subgoals are
again nodes.  `certify` builds one by depth-first search with memoization
and backtracking; `verify_certificate` re-checks a certificate using only
the rule layer (re-running each stored instance and comparing subgoals),
so a verifier bug cannot hide behind a search bug.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional, Union

from .core import SPORADIC30, XEX, InvariantViolated, Tuple, is_good, measure, rho
from .rules import (
    RULE_ORDER,
    PreconditionViolated,
    RuleId,
    RuleParams,
    apply,
    enumerate_instances,
    first_instance,
)

# rules available to the large-r coverage sweep (the finite-field and
# degeneration arguments are excluded there by design)
SECTION8_RULES = tuple(
    r for r in RULE_ORDER if r not in (RuleId.MASTER_ERASABLE, RuleId.DELTA_1_STEP)
)

PROVISO_DELTA1 = "assumes g > 0 or field characteristic != 2"


class Irreducible(Exception):
    """Raised by certify: a good tuple admits no axiom and no rule instance
    whose subgoals can all be certified."""

    def __init__(self, t: Tuple):
        super().__init__(f"no reduction found for {t}")
        self.tuple = t


class BoundsExceeded(Exception):
    def __init__(self, t: Tuple):
        super().__init__(f"search bounds exceeded at {t}")
        self.tuple = t


def _enabled_rules(disabled: Iterable[RuleId]) -> tuple:
    off = set(disabled)
    return tuple(r for r in RULE_ORDER if r not in off)


# ---------------------------------------------------------------------------
# parallel map


def check_workers(workers: int) -> int:
    """The worker-process count to use for a requested `workers`: values
    above the CPU count are clamped to it; values below 1 (or non-integers)
    raise ValueError."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    return min(workers, os.cpu_count() or 1)


def _pmap(fn: Callable, items: list, workers: int, chunksize: int = 1) -> list:
    """[fn(x) for x in items], spread over at most `workers` forked
    processes (validated by check_workers); in-process when one suffices."""
    n = min(check_workers(workers), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    with multiprocessing.get_context("fork").Pool(n) as pool:
        return pool.map(fn, items, chunksize=chunksize)


# ---------------------------------------------------------------------------
# axioms


def _is_delta1_base(t: Tuple) -> bool:
    return t.ell == 0 and t.m == 0 and t.r == 4 * t.g + 1 and t.d == 5 * t.g + 1


def _is_canonical_odd_r(t: Tuple) -> bool:
    return (
        t.ell == 0
        and t.m == 0
        and t.r % 2 == 1
        and t.d == 2 * t.r
        and t.g == t.r + 1
    )


@dataclass
class AxiomSet:
    """Terminal tuples the searcher accepts without further reduction.

    `extra` maps tuples to free-text citations supplied by the user;
    `include_sporadic30` exists so the finite table can be switched off
    when probing which of its members are independently reachable."""

    extra: dict = field(default_factory=dict)
    include_sporadic30: bool = True

    def tag_of(self, t: Tuple) -> Optional[str]:
        if t.r <= 2:
            return "SmallR"
        if _is_delta1_base(t):
            return "Delta1Base"
        if self.include_sporadic30 and t in SPORADIC30:
            return "Sporadic30"
        if _is_canonical_odd_r(t):
            return "CanonicalEven"
        if t in self.extra:
            return "Extra"
        return None

    def citation_of(self, t: Tuple) -> Optional[str]:
        return self.extra.get(t)

    @classmethod
    def from_json(cls, doc: dict) -> "AxiomSet":
        extra = {}
        for row in doc.get("axioms", ()):
            extra[Tuple(*row["tuple"])] = str(row.get("citation", ""))
        return cls(extra=extra)

    @classmethod
    def load(cls, path: str) -> "AxiomSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Axiom:
    tag: str


@dataclass(frozen=True)
class RuleApp:
    rule: RuleId
    params: RuleParams
    children: tuple
    proviso: Optional[str] = None


Justification = Union[Axiom, RuleApp]


@dataclass
class Certificate:
    root: Tuple
    nodes: dict  # Tuple -> Justification

    def to_json(self) -> dict:
        rows = []
        for t in sorted(self.nodes, key=measure, reverse=True):
            j = self.nodes[t]
            if isinstance(j, Axiom):
                jd = {"kind": "axiom", "tag": j.tag}
            else:
                jd = {
                    "kind": "rule",
                    "rule": j.rule.value,
                    "params": j.params.to_json(),
                    "children": [list(c) for c in j.children],
                }
                if j.proviso is not None:
                    jd["proviso"] = j.proviso
            rows.append({"tuple": list(t), "justification": jd})
        return {"version": 1, "root": list(self.root), "nodes": rows}

    @classmethod
    def from_json(cls, doc: dict) -> "Certificate":
        if doc.get("version") != 1:
            raise ValueError(f"unsupported certificate version {doc.get('version')!r}")
        nodes = {}
        for row in doc["nodes"]:
            t = Tuple(*row["tuple"])
            jd = row["justification"]
            if jd["kind"] == "axiom":
                nodes[t] = Axiom(tag=jd["tag"])
            elif jd["kind"] == "rule":
                nodes[t] = RuleApp(
                    rule=RuleId(jd["rule"]),
                    params=RuleParams.from_json(jd["params"]),
                    children=tuple(Tuple(*c) for c in jd["children"]),
                    proviso=jd.get("proviso"),
                )
            else:
                raise ValueError(f"unknown justification kind {jd['kind']!r}")
        return cls(root=Tuple(*doc["root"]), nodes=nodes)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def read(cls, path: str) -> "Certificate":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def certify(
    t: Tuple,
    axioms: Optional[AxiomSet] = None,
    bounds: Optional[tuple] = None,
    disabled: Iterable[RuleId] = (),
    memo: Optional[dict] = None,
    recursive_accept: bool = False,
) -> Certificate:
    """Build a reduction certificate for `t`, or raise Irreducible naming
    the first good tuple that could not be reduced.

    `memo` may be shared across calls that use the same axioms / bounds /
    rule set; it maps tuples to a Justification or to None for tuples
    already known to fail.  `bounds` is an optional (max_r, max_d) cutoff;
    exceeding it raises BoundsExceeded rather than backtracking.  By
    default a rule instance is only considered when each subgoal is good
    or an axiom; `recursive_accept` drops that pre-filter and lets the
    recursion itself decide (slower, occasionally more complete)."""
    ax = axioms if axioms is not None else AxiomSet()
    mm = {} if memo is None else memo
    rules = _enabled_rules(disabled)
    depth_cap = t.r + t.d + t.m + 8

    if recursive_accept:
        accept = lambda s: True  # noqa: E731
    else:
        accept = lambda s: ax.tag_of(s) is not None or is_good(s).is_good  # noqa: E731

    def go(node: Tuple, depth: int) -> None:
        if depth > depth_cap:
            raise InvariantViolated(f"reduction depth blew past {depth_cap} at {node}")
        if node in mm:
            if mm[node] is None:
                raise Irreducible(node)
            return
        if bounds is not None and (node.r > bounds[0] or node.d > bounds[1]):
            raise BoundsExceeded(node)
        tag = ax.tag_of(node)
        if tag is not None:
            mm[node] = Axiom(tag)
            return
        if not is_good(node).is_good:
            mm[node] = None
            raise Irreducible(node)
        for rule in rules:
            for params, goals in enumerate_instances(rule, node, accept):
                try:
                    for child in goals:
                        go(child, depth + 1)
                except Irreducible:
                    continue  # backtrack to the next instance
                proviso = PROVISO_DELTA1 if rule is RuleId.DELTA_1_STEP else None
                mm[node] = RuleApp(rule, params, tuple(goals), proviso)
                return
        mm[node] = None
        raise Irreducible(node)

    go(t, 0)

    nodes = {}
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in nodes:
            continue
        j = mm[cur]
        nodes[cur] = j
        if isinstance(j, RuleApp):
            stack.extend(j.children)
    return Certificate(root=t, nodes=nodes)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    code: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    cert: Certificate, axioms: Optional[AxiomSet] = None
) -> VerifyResult:
    """Re-check a certificate independently of the search: every axiom tag
    must be reproduced by the axiom set, every rule instance must re-run to
    exactly the stored subgoals, every subgoal must be present, and the
    (r, d, m) measure must drop strictly along every edge (which rules out
    cycles)."""
    ax = axioms if axioms is not None else AxiomSet()

    def fail(code: str, detail: str) -> VerifyResult:
        return VerifyResult(False, code, detail)

    if cert.root not in cert.nodes:
        return fail("RootMissing", f"root {cert.root} has no node")
    for node, j in cert.nodes.items():
        if isinstance(j, Axiom):
            if ax.tag_of(node) != j.tag:
                return fail("UnknownAxiom", f"{node}: tag {j.tag!r} not reproduced")
        elif isinstance(j, RuleApp):
            try:
                goals = apply(j.rule, node, j.params)
            except PreconditionViolated as e:
                return fail("PreconditionViolated", f"{node} via {j.rule.value}: {e.reason}")
            if tuple(goals) != tuple(j.children):
                return fail(
                    "ChildMismatch",
                    f"{node} via {j.rule.value}: re-run gives {goals}, stored {list(j.children)}",
                )
            for child in j.children:
                if child not in cert.nodes:
                    return fail("MissingNode", f"{node} child {child} absent")
                if not measure(child) < measure(node):
                    return fail(
                        "MeasureViolation",
                        f"{node} -> {child} does not decrease (r, d, m)",
                    )
        else:
            return fail("BadJustification", f"{node}: {j!r}")
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# the sporadic sweep (small r)


def _box_tuples(r: int):
    eps0_g = lambda g: 1 if g == 0 else 0  # noqa: E731
    for g in range(0, r):
        for d in range(g + r, g + 2 * r):
            rr = rho(d, g, r)
            if rr < 0:
                continue
            m_top = min(r - 2 + eps0_g(g), rr)
            for ell in range(0, r // 2 + 1):
                for m in range(0, m_top + 1):
                    yield Tuple(d, g, r, ell, m)


def _on_delta1_locus(t: Tuple) -> bool:
    return t.ell == 0 and t.m == 0 and 2 * t.d + 2 * t.g == 3 * t.r - 1


def enumerate_sporadic(r_max: int = 13) -> list:
    """Good tuples the reduction rules must either dispatch or declare
    irreducible: the small-r box, plus the images of the bad-residue list
    under one inverse pancake step; tuples on the delta = 1, ell = m = 0
    locus are excluded (they are handled by their own descent)."""
    out = set()
    for r in range(3, r_max + 1):
        for t in _box_tuples(r):
            if not is_good(t).is_good:
                continue
            if _on_delta1_locus(t):
                continue
            out.add(t)
    for x in XEX:
        if x.r > r_max:
            continue
        t = Tuple(x.d, x.g, x.r, x.ell, x.m + x.r - 1)
        if is_good(t).is_good and not _on_delta1_locus(t):
            out.add(t)
    return sorted(out, key=lambda t: (t.r, t.g, t.d, t.ell, t.m))


def _goodness_accept(s: Tuple) -> bool:
    return is_good(s).is_good


def find_reduction(
    t: Tuple,
    rules: Iterable[RuleId] = RULE_ORDER,
    accept: Callable[[Tuple], bool] = _goodness_accept,
) -> Optional[tuple]:
    """First (rule, params, goals) whose subgoals all pass `accept`, in
    rule order; None if every rule fails."""
    for rule in rules:
        hit = first_instance(rule, t, accept)
        if hit is not None:
            return (rule, hit[0], hit[1])
    return None


@dataclass
class SporadicReport:
    r_max: int
    examined: int
    reducible: int
    irreducible: list  # sorted by (r, g, d, ell, m)
    witnesses: dict  # Tuple -> (RuleId, RuleParams, goals)

    def rows(self):
        for t in sorted(self.witnesses, key=lambda t: (t.r, t.g, t.d, t.ell, t.m)):
            w = self.witnesses[t]
            if w is None:
                yield (t, "irreducible", None, None)
            else:
                yield (t, "reducible", w[0], w[1])


def run_sporadic_search(
    r_max: int = 13,
    disabled: Iterable[RuleId] = (),
    workers: int = 1,
    recursive_accept: bool = False,
) -> SporadicReport:
    """Try to reduce every sporadic-sweep tuple once (subgoals accepted by
    goodness alone, or by bounded recursive certification) and report the
    irreducible remainder.  Serial and parallel runs give equal reports;
    recursive acceptance shares one memo and so always runs serially."""
    workers = check_workers(workers)
    tuples = enumerate_sporadic(r_max)
    disabled = tuple(disabled)
    rules = _enabled_rules(disabled)
    if recursive_accept:
        memo = {}
        ax = AxiomSet()

        def certifies(s: Tuple) -> bool:
            try:
                certify(s, axioms=ax, disabled=disabled, memo=memo)
                return True
            except Irreducible:
                return False

        found = [find_reduction(t, rules, accept=certifies) for t in tuples]
    else:
        found = _pmap(partial(find_reduction, rules=rules), tuples, workers, chunksize=64)
    witnesses = dict(zip(tuples, found))
    irreducible = sorted(
        (t for t, w in witnesses.items() if w is None),
        key=lambda t: (t.r, t.g, t.d, t.ell, t.m),
    )
    return SporadicReport(
        r_max=r_max,
        examined=len(tuples),
        reducible=len(tuples) - len(irreducible),
        irreducible=irreducible,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# large-r coverage


@dataclass
class Thm14Report:
    r_min: int
    r_max: int
    examined: int
    uncovered: list  # box tuples no sweep rule dispatches
    outside_checked: int
    outside_uncovered: list  # shell tuples missing even a peeling precondition


def _covers_outside_box(t: Tuple) -> bool:
    d, g, r, ell, m = t
    return d >= g + 2 * r - 1 or g >= r or m >= r - 1


def _thm14_one_r(r: int):
    examined = 0
    uncovered = []
    for t in _box_tuples(r):
        if not is_good(t).is_good:
            continue
        if _on_delta1_locus(t):
            continue
        examined += 1
        if find_reduction(t, SECTION8_RULES) is None:
            uncovered.append(tuple(t))
    outside_checked = 0
    outside_uncovered = []
    for g in range(0, r + 2):
        for d in range(g + r, g + 2 * r + 3):
            rr = rho(d, g, r)
            if rr < 0:
                continue
            for ell in range(0, r // 2 + 1):
                for m in range(0, min(rr, r + 1) + 1):
                    t = Tuple(d, g, r, ell, m)
                    eps0 = 1 if g == 0 else 0
                    in_box = d <= g + 2 * r - 1 and g <= r - 1 and m <= r - 2 + eps0
                    if in_box or not is_good(t).is_good:
                        continue
                    outside_checked += 1
                    if not _covers_outside_box(t):
                        outside_uncovered.append(tuple(t))
    return (r, examined, uncovered, outside_checked, outside_uncovered)


def verify_thm14(r_max: int, r_min: int = 14, workers: int = 1) -> Thm14Report:
    """Check that every good box tuple with r_min <= r <= r_max (off the
    delta = 1 locus) is dispatched by some sweep rule, and that every good
    tuple in a shell outside the box satisfies a peeling precondition."""
    results = _pmap(_thm14_one_r, list(range(r_min, r_max + 1)), workers)
    examined = sum(r[1] for r in results)
    uncovered = [Tuple(*t) for row in results for t in row[2]]
    outside_checked = sum(r[3] for r in results)
    outside_uncovered = [Tuple(*t) for row in results for t in row[4]]
    return Thm14Report(
        r_min=r_min,
        r_max=r_max,
        examined=examined,
        uncovered=uncovered,
        outside_checked=outside_checked,
        outside_uncovered=outside_uncovered,
    )
