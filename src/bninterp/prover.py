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

import gc
import json
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Callable, Collection, Iterable, NamedTuple, Optional

from .core import (
    COUNTEREXAMPLE_TRIPLES, SPORADIC30, XEX, DomainError, InvariantViolated, Tuple,
    _check_ints, _new, is_good, measure, rho,
)
from .rules import (
    RULE_ORDER,
    PreconditionViolated,
    RuleId,
    RuleParams,
    apply,
    enumerate_instances,
    first_instance,
)

# The rule table.  A tuple's shape class is the six tests of `_shape`; each
# test is part of the guard of the rules that point to it below, so a rule
# whose test the class fails has no instance on the class's tuples, and the
# class's rule list leaves it out.  A rule missing here is in every class.
# The tables are built once (the sporadic sweep's once per run) and looked
# up once per tuple or node, and a class's rules are tried in RULE_ORDER
# (filtering the rules per tuple costs more than the attempts it saves), so
# a search finds what a search over every rule finds.  No sweep tuple
# passes test 4 or 5: box tuples have g <= r - 1, the images of XEX have
# g <= 2 < 3 <= r, and _in_sweep excludes the locus.  So the sweeps never
# reach a class that offers peel-onion or delta-1-step.
_SHAPE_TEST = {
    RuleId.GATHER_LINES: 0,  # d >= g + 2r - 1
    RuleId.PEEL_ONION: 4,  # g >= r
    RuleId.PANCAKE_ONIONS: 1,  # m >= r - 1
    RuleId.M0_DELTA_2: 2,  # m = 0
    RuleId.M0_DELTA_4: 2,
    RuleId.M0_DELTA_35: 2,
    RuleId.TWO_PROJ: 3,  # ell = 0 and m = 1
    RuleId.DELTA_5: 3,
    RuleId.DELTA_1_STEP: 5,  # delta = 1 and ell = m = 0
}


def _shape(t: Tuple) -> tuple:
    d, g, r, ell, m = t
    return (d >= g + 2 * r - 1, m >= r - 1, m == 0, ell == 0 and m == 1,
            g >= r, ell == 0 and m == 0 and 2 * d + 2 * g == 3 * r - 1)


def _rule_table(left_out: Collection[RuleId]) -> dict:
    """Shape class -> the rules not in `left_out` whose shape test the class
    passes, in RULE_ORDER.  Raises DomainError on an entry of `left_out`
    that is not a RuleId."""
    for rule in left_out:
        if not isinstance(rule, RuleId):
            raise DomainError(f"a disabled rule must be a RuleId, got {rule!r}")
    rules = [r for r in RULE_ORDER if r not in left_out]
    return {
        key: tuple(r for r in rules if r not in _SHAPE_TEST or key[_SHAPE_TEST[r]])
        for key in product((False, True), repeat=6)
    }


# the large-r coverage sweep leaves out the finite-field argument by design
_THM14_TABLE = _rule_table({RuleId.MASTER_ERASABLE})
_CERTIFY_TABLE = _rule_table(())

PROVISO_DELTA1 = "assumes g > 0 or field characteristic != 2"
# the hypothesis on the ground field that a rule's validity carries, if any
PROVISOS = {RuleId.DELTA_1_STEP: PROVISO_DELTA1}


class Irreducible(Exception):
    """Raised by certify: a good tuple that is not an axiom admits no rule
    instance whose subgoals can all be certified."""

    def __init__(self, t: Tuple):
        super().__init__(f"no reduction found for {t}")
        self.tuple = t


# ---------------------------------------------------------------------------
# parallel map


def check_workers(workers: int) -> int:
    """The worker-process count to use for a requested `workers`: values
    above the CPU count are clamped to it; values below 1 (or non-integers)
    raise DomainError."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise DomainError(f"workers must be a positive integer, got {workers!r}")
    return min(workers, os.cpu_count() or 1)


def _pmap(fn: Callable, items: list, workers: int) -> list:
    """[fn(x) for x in items], spread over at most `workers` forked
    processes (a count check_workers returned); in-process when one suffices."""
    n = min(workers, len(items))
    if n <= 1:
        return [fn(x) for x in items]
    import multiprocessing  # here, so that importing the package does not load it

    with multiprocessing.get_context("fork").Pool(n) as pool:
        return pool.map(fn, items)


# ---------------------------------------------------------------------------
# axioms


@dataclass
class AxiomSet:
    """Terminal tuples the searcher accepts without further reduction.

    `extra` holds the tuples supplied by the user."""

    extra: frozenset = frozenset()

    def tag_of(self, t: Tuple) -> Optional[str]:
        d, g, r, ell, m = t
        if r <= 2 and is_good(t).is_good:  # below the rules' r >= 3, for good tuples only
            return "SmallR"
        if ell == 0 and m == 0 and r == 4 * g + 1 and d == 5 * g + 1 and g >= 1:  # good: d = g + r, rho = g
            return "Delta1Base"
        if t in SPORADIC30:
            return "Sporadic30"
        if ell == 0 and m == 0 and r % 2 == 1 and d == 2 * r and g == r + 1:
            # the canonical curve of odd rank r >= 3, where it interpolates:
            # (6, 4, 3) and (10, 6, 5) are counterexample triples
            if r >= 3 and (d, g, r) not in COUNTEREXAMPLE_TRIPLES:
                return "CanonicalEven"
        if t in self.extra:
            return "Extra"
        return None

    @classmethod
    def from_json(cls, doc: dict) -> "AxiomSet":
        """Read `{"axioms": [{"tuple": [...], ...}]}`; keys besides `tuple`,
        such as a `citation`, are for the reader of the file and ignored."""
        rows = _list_field(doc, "axioms") if "axioms" in _json_object(doc) else ()
        return cls(extra=frozenset(_tuple_from_json(_field(row, "tuple")) for row in rows))


# ---------------------------------------------------------------------------
# certificates


# the justifications: immutable and hashable; `_replace` gives a changed copy
class Axiom(NamedTuple):
    tag: str


class RuleApp(NamedTuple):
    rule: RuleId
    params: RuleParams
    children: tuple
    proviso: Optional[str] = None


_RULE_BY_NAME = {rule.value: rule for rule in RuleId}


def _json_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def _field(doc, key: str):
    """doc[key] for a JSON object `doc`; a ValueError that names the key
    when it is missing."""
    if key not in _json_object(doc):
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def _list_field(doc, key: str) -> list:
    """_field for a key whose value must be a JSON array."""
    v = _field(doc, key)
    if type(v) is not list:
        raise ValueError(f"{key} must be a list, got {type(v).__name__}")
    return v


def _tuple_from_json(v) -> Tuple:
    # exact types, so bool is refused along with float and str
    if type(v) is list and len(v) == 5 and type(v[0]) is type(v[1]) is type(v[2]) is type(v[3]) is type(v[4]) is int:
        return _new(Tuple, v)
    raise ValueError(f"a tuple must be a list of 5 integers, got {v!r}")


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
        """Read a version-1 document in one pass.  Keys are tested inline; a
        missing or refused value goes to the `_field` helpers only to be
        named, so the ValueError raised is the first refusal in reading order."""
        version = _json_object(doc).get("version")
        if type(version) is not int or version != 1:  # true and 1.0 equal 1
            raise ValueError(f"unsupported certificate version {version!r}")
        nodes = {}
        for row in _list_field(doc, "nodes"):
            t = _tuple_from_json(row["tuple"] if isinstance(row, dict) and "tuple" in row else _field(row, "tuple"))
            if t in nodes:
                raise ValueError(f"node {list(t)} listed twice")
            jd = row.get("justification")
            kind = jd.get("kind") if isinstance(jd, dict) else None
            if kind == "rule":
                proviso = jd.get("proviso")
                if proviso is not None and type(proviso) is not str:
                    raise ValueError(f"proviso must be a string, got {type(proviso).__name__}")
                name = jd.get("rule")
                rule = _RULE_BY_NAME[name] if type(name) is str and name in _RULE_BY_NAME else RuleId(_field(jd, "rule"))
                params = RuleParams.from_json(jd["params"] if "params" in jd else _field(jd, "params"))
                if type(cs := jd.get("children")) is not list:
                    _list_field(jd, "children")
                nodes[t] = _new(RuleApp, (rule, params, tuple(map(_tuple_from_json, cs)), proviso))
            elif kind == "axiom":
                if type(tag := jd.get("tag")) is not str:
                    raise ValueError(f"tag must be a string, got {type(_field(jd, 'tag')).__name__}")
                nodes[t] = _new(Axiom, (tag,))
            else:
                raise ValueError(f"unknown justification kind {_field(_field(row, 'justification'), 'kind')!r}")
        return cls(root=_tuple_from_json(_field(doc, "root")), nodes=nodes)

    def text(self) -> str:
        """The certificate file: `to_json` indented by one, ending in a newline."""
        return json.dumps(self.to_json(), indent=1) + "\n"


def certify(
    t: Tuple,
    axioms: Optional[AxiomSet] = None,
    memo: Optional[dict] = None,
) -> Certificate:
    """Build a reduction certificate for `t`, or raise Irreducible naming
    `t` when no reduction chain exists.  A root that is not a `Tuple`, has a
    field that is not an int, or is neither good nor an axiom raises
    DomainError before the memo is touched.

    `memo` may be shared across calls that use the same axioms; it maps
    tuples to an Axiom or RuleApp, or to None for tuples known to fail.
    Each subgoal of an instance tried is good or an axiom, as the root is.
    A subgoal to be expanded whose (r, d, m) is not below its parent's
    raises InvariantViolated: the search stops by the measure `verify_certificate` checks."""
    if not isinstance(t, Tuple):
        raise DomainError(f"the root must be a Tuple, got {type(t).__name__}")
    _check_ints(Tuple._fields, t)
    ax = axioms if axioms is not None else AxiomSet()
    accept = lambda s: is_good(s).is_good or ax.tag_of(s) is not None  # noqa: E731
    if not accept(t):
        raise DomainError(f"tuple is not good ({', '.join(is_good(t).failures)}) and is not an axiom")
    mm = {} if memo is None else memo

    def settle(node: Tuple) -> Optional[bool]:
        """Whether `node` is certified (True) or known to fail (False), from
        the memo or its axiom tag; None when its rules must be tried."""
        if node in mm:
            return mm[node] is not None
        tag = ax.tag_of(node)
        if tag is not None:
            mm[node] = _new(Axiom, (tag,))
            return True
        return None

    def expand(node: Tuple):
        """Try the rule instances of `node` in order, subgoals left to right,
        for the rules of its shape class.  Yields each subgoal that `settle`
        leaves open, after checking that it lowers (r, d, m), and is sent
        back whether it was certified; returns whether `node` was."""
        at = measure(node)
        for rule in _CERTIFY_TABLE[_shape(node)]:
            for params, goals in enumerate_instances(rule, node, accept):
                for child in goals:
                    ok = settle(child)
                    if ok is None:
                        if not measure(child) < at:
                            raise InvariantViolated(f"{node} -> {child} does not decrease (r, d, m)")
                        ok = yield child
                    if not ok:
                        break  # backtrack to the next instance
                else:
                    mm[node] = _new(RuleApp, (rule, params, tuple(goals), PROVISOS.get(rule)))
                    return True
        mm[node] = None
        return False

    # Depth-first over an explicit stack of suspended expansions, so the
    # measure bounds a reduction chain, not Python's recursion limit: every
    # expanded node is good (r >= 1, d >= 1, m >= 0), and (r, d, m) falls
    # strictly down the stack, so no node on it is met again.
    stack = [] if settle(t) is not None else [expand(t)]
    ok = None
    while stack:
        try:
            child = stack[-1].send(ok)
        except StopIteration as finished:
            stack.pop()
            ok = finished.value
        else:
            stack.append(expand(child))
            ok = None
    if mm[t] is None:
        raise Irreducible(t)

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
    exactly the stored subgoals and carry exactly its rule's proviso, every
    subgoal must be present, and the (r, d, m) measure must drop strictly
    along every edge (which rules out cycles)."""
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
            if j.proviso != PROVISOS.get(j.rule):
                return fail(
                    "ProvisoMismatch",
                    f"{node} via {j.rule.value}: proviso {j.proviso!r}, expected {PROVISOS.get(j.rule)!r}",
                )
            at = measure(node)
            for child in j.children:
                if child not in cert.nodes:
                    return fail("MissingNode", f"{node} child {child} absent")
                if not measure(child) < at:
                    return fail(
                        "MeasureViolation",
                        f"{node} -> {child} does not decrease (r, d, m)",
                    )
        else:
            return fail("BadJustification", f"{node}: {j!r}")
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# the sporadic sweep (small r)


def sweep_order(t: Tuple) -> tuple:
    """Sort key of every sweep listing: by r, then g, d, ell and m."""
    return (t.r, t.g, t.d, t.ell, t.m)


def _rows(r: int):
    """(g, d, m_top, m_box) over the (g, d) rows of the rank-r shell, in
    order: the shell's m runs to m_top = min(rho, r + 1), and the box
    g <= r-1, d <= g+2r-1, m <= r-2+eps0(g) to m_box, which is -1 outside
    the box.  Every row has rho >= g >= 0: rho = g at d = g + r and grows with d.

    Lemma: a row's tuple with 0 <= ell <= r//2 and 2 <= m <= m_top is good
    and off the delta = 1, ell = m = 0 locus, so `_in_sweep` holds.  The row
    gives d >= g + r, 2 ell <= r and m <= rho; the residue clause binds only
    at g = m = 0; and every XEX member has m <= 1, on d = g + r of a box row.
    So `_box`, the lemma's one user, tests box tuples for goodness only at
    m <= 1, and outside the box only the residue clause fails: at g = m = 0
    and r >= 2, for the ((1 - d) % (r - 1) + 1) // 2 values of ell below
    ((1 - d) % (r - 1)) / 2, which `_thm14_one_r` subtracts from its count."""
    for g in range(0, r + 2):
        for d in range(g + r, g + 2 * r + 3):
            m_box = (r - 2 + (1 if g == 0 else 0)) if g <= r - 1 and d <= g + 2 * r - 1 else -1
            yield g, d, min(rho(d, g, r), r + 1), m_box


def _box(r: int):
    """The rank-r box tuples the sweeps dispatch, in sweep order: each row's box
    part that `_in_sweep` admits, asked only at m <= 1 by the lemma of `_rows`."""
    ells = r // 2 + 1
    for g, d, m_top, m_box in _rows(r):
        for ell in range(0, ells):
            for m in range(0, (m_top if m_top < m_box else m_box) + 1):
                t = _new(Tuple, (d, g, r, ell, m))
                if m > 1 or _in_sweep(t):  # the lemma of _rows
                    yield t


def _in_sweep(t: Tuple) -> bool:
    """Good and off the delta = 1, ell = m = 0 locus, which has its own descent."""
    on_delta1 = t.ell == 0 and t.m == 0 and 2 * t.d + 2 * t.g == 3 * t.r - 1
    return is_good(t).is_good and not on_delta1


def enumerate_sporadic(r_max: int = 13) -> list:
    """Good tuples the reduction rules must either dispatch or declare
    irreducible: the small-r box, plus the images of the bad-residue list
    under one inverse pancake step; tuples on the delta = 1, ell = m = 0
    locus are excluded (they are handled by their own descent).  Listed in
    sweep order.  Raises DomainError on an r_max that is not an integer."""
    _check_ints(("rmax",), (r_max,))
    out = [t for r in range(3, r_max + 1) for t in _box(r)]
    # an image has m >= r - 1 and g >= 1, so it is not in the box
    for t in (Tuple(x.d, x.g, x.r, x.ell, x.m + x.r - 1) for x in XEX if x.r <= r_max):
        if _in_sweep(t):
            out.insert(bisect_left(out, sweep_order(t), key=sweep_order), t)
    return out


def _goodness_accept(s: Tuple) -> bool:
    return is_good(s).is_good


def find_reduction(t: Tuple, rules: Iterable[RuleId] = RULE_ORDER) -> Optional[tuple]:
    """First (rule, params, goals) whose subgoals are all good, in rule
    order; None if every rule fails."""
    for rule in rules:
        hit = first_instance(rule, t, _goodness_accept)
        if hit is not None:
            return (rule, hit[0], hit[1])
    return None


def _dispatch(table: dict, t: Tuple) -> Optional[tuple]:
    """find_reduction over the rules of `t`'s shape class in a sweep's table."""
    return find_reduction(t, table[_shape(t)])


@dataclass
class SporadicReport:
    r_max: int
    examined: int
    reducible: int
    irreducible: list  # in sweep order
    witnesses: dict  # Tuple -> (RuleId, RuleParams, goals), in sweep order

    def rows(self):
        for t, w in self.witnesses.items():
            if w is None:
                yield (t, "irreducible", None, None)
            else:
                yield (t, "reducible", w[0], w[1])


def run_sporadic_search(
    r_max: int = 13,
    disabled: Iterable[RuleId] = (),
) -> SporadicReport:
    """Try to reduce every sporadic-sweep tuple once, accepting subgoals by
    goodness, and report the irreducible remainder.  Raises DomainError on an
    r_max that is not an integer, then on r_max < 3, then on a `disabled`
    entry that is not a RuleId."""
    _check_ints(("rmax",), (r_max,))
    if r_max < 3:
        raise DomainError(f"rmax {r_max} leaves no rank to sweep (the sweep starts at r = 3)")
    table = _rule_table(tuple(disabled))
    # The witness table holds about five collector-tracked objects per tuple
    # and no reference cycle, so each collection during the build would only
    # walk it again.  The collector is paused while it is built and the
    # caller's setting is restored however the build ends.
    enabled = gc.isenabled()
    gc.disable()
    try:
        tuples = enumerate_sporadic(r_max)
        witnesses = {t: _dispatch(table, t) for t in tuples}
    finally:
        if enabled:
            gc.enable()
    irreducible = [t for t, w in witnesses.items() if w is None]
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
    # always []: outside the box (g <= r-1, d <= g+2r-1, m <= r-2+[g=0]) g >= r, d >= g+2r or m >= r-1
    outside_uncovered: list


def _thm14_one_r(r: int) -> tuple:
    """(box tuples examined, uncovered; good shell tuples outside the box) at
    rank r: `_box` gives the box, and the rest is counted per row by the lemma of `_rows`."""
    examined = checked = 0
    uncovered = []
    for t in _box(r):
        examined += 1
        if _dispatch(_THM14_TABLE, t) is None:
            uncovered.append(t)
    ells = r // 2 + 1
    for g, d, m_top, m_box in _rows(r):
        checked += ells * (m_top - m_box if m_top > m_box else 0)
        if m_box < 0 and g == 0 and r >= 2:  # less the ell whose residue clause fails at m = 0
            checked -= ((1 - d) % (r - 1) + 1) // 2
    return examined, uncovered, checked


def verify_thm14(r_max: int, r_min: int = 14, workers: int = 1) -> Thm14Report:
    """Check that every good box tuple with r_min <= r <= r_max (off the
    delta = 1 locus) is dispatched by some sweep rule, and count the good
    shell tuples outside it, which meet a peeling precondition by definition;
    they are counted per row by the lemma of `_rows`, not built.  Raises
    DomainError on a bad worker count, then on a rank that is not an integer,
    then on r_max < r_min."""
    workers = check_workers(workers)
    _check_ints(("rmax", "rmin"), (r_max, r_min))
    if r_max < r_min:
        raise DomainError(f"empty rank range: rmax {r_max} is below rmin {r_min}")
    rows = _pmap(_thm14_one_r, list(range(r_min, r_max + 1)), workers)
    return Thm14Report(
        r_min, r_max, sum(row[0] for row in rows), [t for row in rows for t in row[1]],
        sum(row[2] for row in rows), [],
    )
