"""Span recording for the traced run, installed from outside the package.

bninterp's modules reach the layer below through `from`-imports, so each
importing module holds its own reference to the function it calls.  The
wrappers replace those references in the importing module's namespace;
nothing under src/ is edited.  A span is one call: its name, its duration,
and the span that was open when it started.  Spans are aggregated in
memory per (parent, name) edge and written out when the pass ends.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import bninterp.erase as erase_mod
import bninterp.prover as prover_mod
import bninterp.rules as rules_mod

# Rule names as the per-layer metrics spell them (rules.<name>.*).
RULES = (
    "gather-lines", "peel-onion", "pancake-onions", "m0-delta-2", "m0-delta-4",
    "m0-delta-35", "two-proj", "delta-5", "delta-1-step", "master", "master-111",
    "master-erasable",
)

_DONE = object()


class Recorder:
    def __init__(self):
        self.stack: list = []  # [name, time covered by children] per open span
        self.edges: dict = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self.stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            edge = self.edges.get((parent, name))
            if edge is None:
                edge = self.edges[(parent, name)] = [0, 0.0, 0.0]
            edge[0] += 1
            edge[1] += dur
            edge[2] += dur - frame[1]

    def calls(self, name: str) -> int:
        return sum(e[0] for (_p, n), e in self.edges.items() if n == name)

    def total_s(self, name: str) -> float:
        # a span nested directly in one of its own name is already inside
        # its parent's duration
        return sum(e[1] for (p, n), e in self.edges.items() if n == name and p != name)

    def self_s(self, name: str) -> float:
        return sum(e[2] for (_p, n), e in self.edges.items() if n == name)

    def table(self) -> list:
        return [
            {"parent": p, "name": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (p, n), e in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]


def _rule_name(rule) -> str:
    return getattr(rule, "value", str(rule))


class Tracer:
    """Installs the wrappers on construction; `uninstall` restores the
    original references."""

    def __init__(self, rec: Recorder):
        self._saved: list = []
        counts = rec.counts

        def spanned(name, fn):
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, *args, **kwargs)

            return wrapper

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        orig_first = prover_mod.first_instance
        orig_enum = prover_mod.enumerate_instances

        def first_instance(rule, t, accept):
            name = _rule_name(rule)
            counts[f"rules.{name}.attempts"] += 1
            hit = rec.call(f"rules.{name}", orig_first, rule, t, counting("rules.candidates", accept))
            if hit is not None:
                counts[f"rules.{name}.hits"] += 1
            return hit

        def enumerate_instances(rule, t, accept=lambda s: True):
            name = _rule_name(rule)
            counts[f"rules.{name}.attempts"] += 1
            gen = orig_enum(rule, t, counting("rules.candidates", accept))
            span = f"rules.{name}"
            while True:
                item = rec.call(span, next, gen, _DONE)
                if item is _DONE:
                    return
                counts[f"rules.{name}.hits"] += 1
                yield item

        self._replace(prover_mod, "first_instance", first_instance)
        self._replace(prover_mod, "enumerate_instances", enumerate_instances)
        self._replace(prover_mod, "is_good", spanned("core.is_good", prover_mod.is_good))
        self._replace(prover_mod, "apply", spanned("rules.apply", prover_mod.apply))
        self._replace(
            prover_mod, "find_reduction", spanned("prover.find_reduction", prover_mod.find_reduction)
        )
        self._replace(rules_mod, "is_good", spanned("core.is_good", rules_mod.is_good))
        self._replace(
            rules_mod, "delta_numerator", spanned("core.delta_numerator", rules_mod.delta_numerator)
        )
        self._replace(rules_mod, "erasable_fast", spanned("erase.is_erasable", rules_mod.erasable_fast))
        self._replace(erase_mod, "combine", counting("erase.combine.calls", erase_mod.combine))
        # intfeas has no caller in the package yet; count calls from any
        # module that imports one of its functions, so a new caller shows.
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("bninterp.") or modname == "bninterp.intfeas":
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and getattr(value, "__module__", None) == "bninterp.intfeas":
                    if isinstance(value, type):
                        continue
                    self._replace(mod, attr, counting("intfeas.calls", value))

    def _replace(self, mod, attr, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer figures the spans and counters give."""
    c = rec.counts
    out = {
        "core.is_good.calls": rec.calls("core.is_good"),
        "core.is_good.s": rec.total_s("core.is_good"),
        "core.delta_numerator.calls": rec.calls("core.delta_numerator"),
        "core.delta_numerator.s": rec.total_s("core.delta_numerator"),
        "rules.candidates": c["rules.candidates"],
        "rules.apply.calls": rec.calls("rules.apply"),
        "rules.apply.s": rec.total_s("rules.apply"),
        "erase.is_erasable.calls": rec.calls("erase.is_erasable"),
        "erase.is_erasable.s": rec.total_s("erase.is_erasable"),
        "erase.combine.calls": c["erase.combine.calls"],
        "prover.find_reduction.calls": rec.calls("prover.find_reduction"),
        "prover.find_reduction.s": rec.total_s("prover.find_reduction"),
        "prover.certify.s": rec.total_s("prover.certify"),
        "prover.verify.s": rec.total_s("prover.verify"),
        "prover.json.s": rec.total_s("prover.json"),
        "intfeas.calls": c["intfeas.calls"],
    }
    attempts = hits = 0
    for name in RULES:
        out[f"rules.{name}.attempts"] = c[f"rules.{name}.attempts"]
        out[f"rules.{name}.hits"] = c[f"rules.{name}.hits"]
        out[f"rules.{name}.s"] = rec.self_s(f"rules.{name}")
    for key, n in c.items():
        if key.endswith(".attempts"):
            attempts += n
        elif key.endswith(".hits"):
            hits += n
    out["rules.hit_ratio"] = hits / attempts if attempts else 0.0
    return out
