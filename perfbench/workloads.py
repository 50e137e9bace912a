"""The four benchmark workloads: seeded inputs, one timed pass, and the
reference checks that judge the pass's answers.

A pass runs in a fresh interpreter (see worker.py), so module-global state
such as the erasability memo starts empty every time.  Each workload is a
closed loop with one caller: the next public call starts when the previous
one returns.

Inputs depend only on the seed.  The stored answers in reference.json were
recorded by record_reference.py; the checks compare against them and never
re-run the timed code to decide what the right answer is.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from bninterp.core import Tuple, is_good, rho
from bninterp.erase import brute_force_erasable, is_erasable, make_collection
from bninterp.prover import (
    AxiomSet,
    Certificate,
    Irreducible,
    certify,
    run_sporadic_search,
    verify_certificate,
    verify_thm14,
)
from bninterp.rules import PreconditionViolated, apply

SPORADIC_RMAX = 13
SPORADIC_RECHECKED = 256  # seeded witnesses re-run through rules.apply per pass

THM14_RMIN = 14
THM14_RMAX = 15

# The criterion-9 domain (r <= 9, d <= 30) is split into CERTIFY_PHASES
# samples of about 4,500 roots.  A root (d, g, r, ell, m) lies in phase
# (offset(r, d, g, ell) + m) mod CERTIFY_PHASES, so every phase takes every
# CERTIFY_PHASES-th m of every (r, d, g, ell) cell: all phases cover the
# domain in the same proportions, which keeps the per-root cost alike
# across seeds, and each phase has one stored certificate digest.
CERTIFY_RMAX = 9
CERTIFY_DMAX = 30
CERTIFY_PHASES = 128

# The erase domain: every multiset of at most ERASE_MAX_SIZE catalogue
# types (s1,0 s1,1 s2,0 s2,1 w1,0) at each r in ERASE_RS.  A pass draws
# ERASE_DRAW of them in seeded order; the oracle check re-decides
# ERASE_ORACLE seeded members of size <= 9 by brute force, untimed.
ERASE_MAX_SIZE = 11
ERASE_RS = range(3, 10)
ERASE_DRAW = 16_000
ERASE_ORACLE = 256
ERASE_ORACLE_MAX_SIZE = 9


def untraced_call(_name: str, fn: Callable, *args, **kwargs):
    """The untraced stand-in for spans.Recorder.call."""
    return fn(*args, **kwargs)


@dataclass
class PassResult:
    items: int
    seconds: float
    failed: int = 0  # items with a wrong or missing answer
    failures: list = field(default_factory=list)
    latencies_s: Optional[list] = None
    layer: dict = field(default_factory=dict)  # per-layer figures the workload measures itself


# ---------------------------------------------------------------------------
# sporadic: run_sporadic_search(13), full rule order


def sporadic_csv_digest(report) -> str:
    """sha256 of the rows `bninterp sporadic --csv` writes for `report`."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["d", "g", "r", "ell", "m", "status", "rule", "params"])
    for t, status, rule, params in report.rows():
        w.writerow(
            [
                t.d, t.g, t.r, t.ell, t.m, status,
                rule.value if rule else "",
                json.dumps(params.to_json()) if params else "",
            ]
        )
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _sporadic_setup(seed: int):
    return {"seed": seed}


def _sporadic_run(inputs, call, traced: bool) -> PassResult:
    t0 = time.perf_counter()
    report = call("entry.run_sporadic_search", run_sporadic_search, SPORADIC_RMAX)
    seconds = time.perf_counter() - t0
    inputs["report"] = report
    return PassResult(items=report.examined, seconds=seconds)


def _sporadic_check(inputs, res: PassResult, ref: dict) -> None:
    report = inputs.pop("report")
    want = {Tuple(*row) for row in ref["irreducible"]}
    got = set(report.irreducible)
    wrong = got ^ want
    if wrong:
        res.failures.append(f"irreducible set differs from the table at {sorted(wrong)[:5]}")
    res.failed += len(wrong)
    if report.examined != ref["examined"]:
        res.failures.append(f"examined {report.examined}, reference {ref['examined']}")
    if sporadic_csv_digest(report) != ref["csv_sha256"]:
        res.failures.append("--csv rows digest differs from the reference")
    reducible = sorted(t for t, w in report.witnesses.items() if w is not None)
    rng = random.Random(inputs["seed"])
    for t in rng.sample(reducible, min(SPORADIC_RECHECKED, len(reducible))):
        rule, params, goals = report.witnesses[t]
        try:
            again = apply(rule, t, params)
        except PreconditionViolated as e:
            again, why = None, e.reason
        else:
            why = "subgoals differ or are not good"
        if again != goals or not all(is_good(s).is_good for s in again):
            res.failed += 1
            res.failures.append(f"witness {tuple(t)} via {rule.value}: {why}")


# ---------------------------------------------------------------------------
# thm14: verify_thm14 over ranks 14..15


def _thm14_setup(seed: int):
    return {}


def _thm14_run(inputs, call, traced: bool) -> PassResult:
    t0 = time.perf_counter()
    report = call("entry.verify_thm14", verify_thm14, THM14_RMAX, THM14_RMIN)
    seconds = time.perf_counter() - t0
    inputs["report"] = report
    return PassResult(items=report.examined + report.outside_checked, seconds=seconds)


def _thm14_check(inputs, res: PassResult, ref: dict) -> None:
    report = inputs.pop("report")
    bad = list(report.uncovered) + list(report.outside_uncovered)
    res.failed += len(bad)
    if bad:
        res.failures.append(f"{len(bad)} tuples uncovered, first {tuple(bad[0])}")
    for key in ("examined", "outside_checked"):
        if getattr(report, key) != ref[key]:
            res.failures.append(f"{key} {getattr(report, key)}, reference {ref[key]}")


# ---------------------------------------------------------------------------
# certify: one phase of the criterion-9 domain, one shared memo


def certify_cells():
    """(r, d, g, ell) cells of the criterion-9 domain with rho >= 0, in the
    order of the acceptance test's loops."""
    for r in range(1, CERTIFY_RMAX + 1):
        for d in range(1, CERTIFY_DMAX + 1):
            for g in range(0, d - r + 1):
                if rho(d, g, r) < 0:
                    continue
                for ell in range(0, r // 2 + 1):
                    yield r, d, g, ell


def certify_phase_roots(phase: int) -> list:
    """The good tuples of one phase, ascending in (r, d, g, ell, m)."""
    roots = []
    for r, d, g, ell in certify_cells():
        offset = zlib.crc32(f"{r},{d},{g},{ell}".encode())
        for m in range((phase - offset) % CERTIFY_PHASES, rho(d, g, r) + 1, CERTIFY_PHASES):
            t = Tuple(d, g, r, ell, m)
            if is_good(t).is_good:
                roots.append(t)
    return roots


def certificate_text(cert: Certificate) -> str:
    return json.dumps(cert.to_json())


def read_back(text: str) -> Certificate:
    return Certificate.from_json(json.loads(text))


def _certify_setup(seed: int):
    phase = seed % CERTIFY_PHASES
    return {"phase": phase, "roots": certify_phase_roots(phase)}


def _certify_run(inputs, call, traced: bool) -> PassResult:
    ax = AxiomSet()
    memo: dict = {}
    digest = hashlib.sha256()
    lat = []
    irreducible = rejected = 0
    json_bytes = verify_nodes = 0
    distinct: set = set()
    t0 = time.perf_counter()
    for t in inputs["roots"]:
        a = time.perf_counter()
        try:
            cert = call("prover.certify", certify, t, axioms=ax, memo=memo)
        except Irreducible:
            lat.append(time.perf_counter() - a)
            irreducible += 1
            continue
        ok = call("prover.verify", verify_certificate, cert, axioms=ax).ok
        text = call("prover.json", certificate_text, cert)
        back = call("prover.json", read_back, text)
        ok = call("prover.verify", verify_certificate, back, axioms=ax).ok and ok
        lat.append(time.perf_counter() - a)
        rejected += not ok
        digest.update(text.encode())
        digest.update(b"\n")
        json_bytes += len(text)
        verify_nodes += len(cert.nodes) + len(back.nodes)
        if traced:
            distinct.update(cert.nodes)
    seconds = time.perf_counter() - t0
    roots = len(inputs["roots"])
    inputs.update(digest=digest.hexdigest(), irreducible=irreducible, rejected=rejected)
    layer = {
        "prover.certify.memo_new": len(memo) / roots,
        "prover.verify.nodes": verify_nodes,
        "prover.json.bytes": json_bytes,
    }
    if traced:
        layer["prover.reverify_ratio"] = verify_nodes / len(distinct) if distinct else 0.0
    return PassResult(items=roots, seconds=seconds, latencies_s=lat, layer=layer)


def _certify_check(inputs, res: PassResult, ref: dict) -> None:
    res.failed += inputs["irreducible"] + inputs["rejected"]
    if inputs["irreducible"]:
        res.failures.append(f"{inputs['irreducible']} roots raised Irreducible")
    if inputs["rejected"]:
        res.failures.append(f"{inputs['rejected']} certificates rejected by the verifier")
    phase = inputs["phase"]
    if len(inputs["roots"]) != ref["roots"][phase]:
        res.failures.append(f"phase {phase}: {len(inputs['roots'])} roots, reference {ref['roots'][phase]}")
    if inputs["digest"] != ref["sha256"][phase]:
        res.failures.append(f"phase {phase}: certificate digest differs from the reference")


# ---------------------------------------------------------------------------
# erase: is_erasable over a seeded draw of catalogue multisets


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def erase_domain() -> list:
    """Every ((s10, s11, s20, s21, w10), r) with at most ERASE_MAX_SIZE
    members, by size, then counts, then r.  reference.json stores one
    verdict bit per entry, in this order."""
    return [
        (counts, r)
        for size in range(ERASE_MAX_SIZE + 1)
        for counts in _compositions(size, 5)
        for r in ERASE_RS
    ]


def collection(counts):
    s10, s11, s20, s21, w10 = counts
    return make_collection(s10=s10, s11=s11, s20=s20, s21=s21, w10=w10)


def _erase_setup(seed: int):
    domain = erase_domain()
    picks = random.Random(seed).sample(range(len(domain)), ERASE_DRAW)
    return {
        "seed": seed,
        "picks": picks,
        "entries": [domain[i] for i in picks],
        "items": [(collection(domain[i][0]), domain[i][1]) for i in picks],
    }


def _erase_run(inputs, call, traced: bool) -> PassResult:
    items = inputs["items"]
    verdicts = []
    lat = []
    t0 = time.perf_counter()
    for coll, r in items:
        a = time.perf_counter()
        ok, _order = call("erase.is_erasable", is_erasable, coll, r)
        lat.append(time.perf_counter() - a)
        verdicts.append(ok)
    seconds = time.perf_counter() - t0
    inputs["verdicts"] = verdicts
    res = PassResult(items=len(items), seconds=seconds, latencies_s=lat)
    if traced:
        # the same inputs again: every answer now comes from the warm memo
        w0 = time.perf_counter()
        for coll, r in items:
            is_erasable(coll, r)
        res.layer["erase.warm_s"] = time.perf_counter() - w0
    return res


def _erase_check(inputs, res: PassResult, ref: dict) -> None:
    bits = bytes.fromhex(ref["verdicts"])
    wrong = []
    for idx, got in zip(inputs["picks"], inputs["verdicts"]):
        want = bool(bits[idx // 8] >> (idx % 8) & 1)
        if got != want:
            wrong.append(idx)
    if wrong:
        res.failures.append(f"{len(wrong)} verdicts differ from the reference")
    small = [
        i for i, (counts, _r) in enumerate(inputs["entries"])
        if sum(counts) <= ERASE_ORACLE_MAX_SIZE
    ]
    oracle_wrong = 0
    for i in random.Random(inputs["seed"] + 1).sample(small, min(ERASE_ORACLE, len(small))):
        coll, r = inputs["items"][i]
        if brute_force_erasable(coll, r) != inputs["verdicts"][i]:
            oracle_wrong += 1
    if oracle_wrong:
        res.failures.append(f"{oracle_wrong} verdicts disagree with brute_force_erasable")
    res.failed += len(wrong) + oracle_wrong


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sporadic", _sporadic_setup, _sporadic_run, _sporadic_check),
        Workload("thm14", _thm14_setup, _thm14_run, _thm14_check),
        Workload("certify", _certify_setup, _certify_run, _certify_check),
        Workload("erase", _erase_setup, _erase_run, _erase_check),
    )
}
