"""bninterp benchmark: run a workload, print its metrics, or compare two
result sets.

    python3 perfbench/run.py --workload sporadic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads in turn
    python3 perfbench/run.py --compare DIR_A DIR_B
    python3 perfbench/run.py --compare DIR       # one set, with tracing overhead

A run repeats fresh-interpreter passes of the workload (worker.py) until
--seconds have gone by and at least MIN_PASSES passes are done, then
reports each metric as the median over its passes.  With --trace 0 it
prints the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 only
when every answer matched the stored reference.  Each run also writes its
full result, per-pass figures and environment to --out.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sporadic", "thm14", "certify", "erase")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# per-layer figures that must repeat exactly between passes and runs
EXACT_UNITS = ("count", "bytes")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    sha = ""
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha or "unknown",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BNINTERP_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, trace: int, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def percentile(sorted_values: list, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def summarize(workload: str, passes: list, trace: int, bench: dict) -> dict:
    """Metrics of one run: the median over passes, or for exact per-layer
    counts the value every pass agrees on."""
    if trace:
        wanted = bench["per_layer"]
        layers = [p["layer"] for p in passes]
    else:
        wanted = bench["end_to_end"]
        layers = [
            {
                "items_per_s": p["items"] / p["seconds"] * p["pass_slowdown"],
                "setup_s": p["setup_s"] / p["setup_slowdown"],
                "peak_rss_mb": p["peak_rss_mb"],
            }
            for p in passes
        ]
    metrics = {}
    for m in wanted:
        values = [layer.get(m["name"], 0) for layer in layers]
        if m["unit"] in EXACT_UNITS:
            if len(set(values)) > 1:
                print(f"warning: {workload} {m['name']} differs between passes: {values}", file=sys.stderr)
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def item_latency(passes: list) -> dict:
    """Per-item time pooled over every pass, for the workloads whose public
    API takes one item per call."""
    lat = sorted(x / p["pass_slowdown"] for p in passes for x in (p.get("latencies_ms") or ()))
    if not lat:
        return {}
    return {
        "item_p50_ms": percentile(lat, 0.50),
        "item_p99_ms": percentile(lat, 0.99),
        "item_samples": len(lat),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, out_dir: Path, bench: dict) -> dict:
    env = worker_env()
    env_before = environment()
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed, trace, env))
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "metrics": summarize(workload, passes, trace, bench),
        "item_latency": item_latency(passes),
        "unnormalized": {
            "items_per_s": statistics.median(p["items"] / p["seconds"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "pass_slowdown": statistics.median(p["pass_slowdown"] for p in passes),
        },
        "env": env_before,
        "loadavg_after": list(os.getloadavg()),
        "passes": [{k: v for k, v in p.items() if k != "latencies_ms"} for p in passes],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-trace{trace}-seed{seed}-{time.time_ns()}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n")

    print(
        f"# {workload} seed {seed} trace {trace}: {len(passes)} passes in "
        f"{time.monotonic() - start:.1f}s; git {env_before['git_sha'][:12]}, python "
        f"{env_before['python']}, nproc {env_before['nproc']}, load {env_before['loadavg'][0]:.2f}"
    )
    raw = result["unnormalized"]
    print(
        f"# unnormalized medians: items_per_s {raw['items_per_s']:.6g}, setup_s "
        f"{raw['setup_s']:.6g}; host slowdown {raw['pass_slowdown']:.3f}"
    )
    for p in passes:
        for msg in p["failures"]:
            print(f"# FAIL {workload}: {msg}")
    for name, m in result["metrics"].items():
        print(f"{workload:9s} {name:34s} {m['value']:14.6g} {m['unit']}")
    if not trace:
        lat = result["item_latency"]
        for name in ("item_p50_ms", "item_p99_ms"):
            if name in lat:
                print(f"{workload:9s} {name:34s} {lat[name]:14.6g} ms ({lat['item_samples']} items)")
        print(f"{workload:9s} {'fail_share':34s} {result['fail_share']:14.6g} ({failed}/{attempted})")
    return result


# ---------------------------------------------------------------------------
# comparing result sets


def load_results(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """The choosing-metrics rule for one metric on one workload.  `a` (the
    parent) and `b` (the change) map each seed to its runs' values; runs
    of the same seed pair up in the order they were made."""
    sign = 1 if better == "higher" else -1
    pairs = [p for seed in sorted(set(a) & set(b)) for p in zip(a[seed], b[seed])]
    a = [x for v in a.values() for x in v]
    b = [x for v in b.values() for x in v]
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    worse_by = sign * (med_a - med_b) / med_a
    if pairs and sign * (med_b - med_a) > 0 and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > qa[2] - qa[0]:
        return f"better ({wins}/{len(pairs)} pair wins)"
    if all_better:
        return "better (every run)"
    if spread > bound:
        return f"unresolved (spread {spread:.3f} > bound {bound})"
    if worse_by > bound:
        return f"REGRESSION ({worse_by:+.3f} > bound {bound})"
    return f"within bound (median {(med_b - med_a) / med_a:+.3f})"


def compare(paths: list, bench: dict) -> int:
    sides = [load_results(Path(p)) for p in paths]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    exact = [m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS]
    status = 0
    for workload in WORKLOADS:
        runs = [[r for r in side if r["workload"] == workload and not r["trace"]] for side in sides]
        traced = [[r for r in side if r["workload"] == workload and r["trace"]] for side in sides]
        if not any(runs) and not any(traced):
            continue
        print(f"== {workload}: runs {' vs '.join(str(len(r)) for r in runs)}")
        rows = [(name, m["unit"], lambda r, n=name: r["metrics"][n]["value"]) for name, m in e2e.items()]
        rows += [
            (name, unit, lambda r, n=name: r["item_latency"].get(n))
            for name, unit in (("item_p50_ms", "ms"), ("item_p99_ms", "ms"))
        ]
        rows.append(("fail_share", "", lambda r: r["fail_share"]))
        for name, unit, get in rows:
            by_seed = []
            for side in runs:
                values: dict = {}
                for r in side:
                    if get(r) is not None:
                        values.setdefault(r["seed"], []).append(get(r))
                by_seed.append(values)
            if not any(by_seed):
                continue
            cols = []
            for values in by_seed:
                flat = [x for v in values.values() for x in v]
                if flat:
                    q1, med, q3 = quartiles(flat)
                    cols.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}]")
                else:
                    cols.append("no runs")
            line = f"  {name:12s} {unit:4s} " + " | ".join(cols)
            if name in e2e and len(by_seed) == 2 and all(by_seed):
                line += "  -> " + verdict(by_seed[0], by_seed[1], e2e[name]["better"], e2e[name]["bound"])
            print(line)
        if len(sides) == 1 and runs[0] and traced[0]:
            untraced = statistics.median(r["metrics"]["items_per_s"]["value"] for r in runs[0])
            with_spans = statistics.median(r["metrics"]["traced.items_per_s"]["value"] for r in traced[0])
            print(f"  tracing overhead: traced/untraced items_per_s = {with_spans / untraced:.3f}")
        if len(sides) == 2 and all(traced):
            by_seed = [{r["seed"]: r for r in side} for side in traced]
            seeds = sorted(set(by_seed[0]) & set(by_seed[1]))
            differ = sorted({
                name for s in seeds for name in exact
                if by_seed[0][s]["metrics"][name]["value"] != by_seed[1][s]["metrics"][name]["value"]
            })
            print(f"  traced counts over seeds {seeds}: " + (f"DIFFER in {differ}" if differ else "identical"))
            status = status or bool(differ)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out", help="directory for result files")
    ap.add_argument("--compare", nargs="+", metavar="DIR", help="print medians and verdicts of result sets")
    args = ap.parse_args()

    bench = load_benchmark()
    if args.compare:
        if len(args.compare) > 2:
            ap.error("--compare takes one or two result sets")
        return compare(args.compare, bench)

    if not (ROOT / "src" / "bninterp" / "__init__.py").is_file():
        print(f"error: no bninterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "bninterp", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the running pass before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for w in chosen:
            results.append(run_workload(w, args.seed, seconds, args.trace, args.out, bench))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
