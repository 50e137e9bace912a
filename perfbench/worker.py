"""One benchmark pass in a fresh interpreter: set up, run one workload pass,
check its answers, and print the outcome as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --t0 T

T is the parent's time.monotonic() just before it started this process,
so set-up time covers interpreter start, `import bninterp.cli` and input
generation.  run.py starts the workers; this file is not meant to be run
by hand.

The host this benchmark was built on shares its cores with other tenants,
and its speed drifts by up to 1.7x over minutes.  A probe thread therefore
times a fixed pure-Python loop every PROBE_INTERVAL_S, interleaved with the
pass through the interpreter lock, so its samples see the same core in the
same state as the pass.  The mean probe time over a phase divided by
PROBE_REF_S is that phase's *slowdown*; run.py divides measured times by it.
Set-up lasts only about 0.1 s, so the probe samples it more densely.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PROBE_INTERVAL_S = 0.02
PROBE_SETUP_INTERVAL_S = 0.005
PROBE_REF_S = 0.0005  # the probe loop's time on an uncontended core of the reference host


def _probe_loop() -> int:
    s = 0
    d: dict = {}
    for i in range(1500):
        t = (i, i + 1, i % 7)
        s += t[2] * i % 11
        d[t[0] % 500] = d.get(i % 499, 0) + s
    return s


class SpeedProbe(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list = []  # (start, duration)
        self.interval = PROBE_SETUP_INTERVAL_S
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            a = time.perf_counter()
            _probe_loop()
            self.samples.append((a, time.perf_counter() - a))
            if self.done.wait(self.interval):
                return

    def stop(self) -> None:
        self.done.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        inside = [d for a, d in self.samples if start <= a <= end]
        return statistics.fmean(inside or [d for _a, d in self.samples]) / PROBE_REF_S


def main() -> None:
    probe = SpeedProbe()
    probe.start()
    t_main = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    t_import = time.perf_counter()
    import bninterp.cli  # noqa: F401  -- what every CLI invocation pays
    cli_import_s = time.perf_counter() - t_import

    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    t_ready = time.perf_counter()
    probe.interval = PROBE_INTERVAL_S

    rec = tracer = None
    call = wl.untraced_call
    if args.trace:
        import spans

        rec = spans.Recorder()
        tracer = spans.Tracer(rec)
        call = rec.call
    res = workload.run(inputs, call, bool(args.trace))
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()
    pass_slowdown = probe.slowdown(t_ready, t_end)
    out = {
        "items": res.items,
        "seconds": res.seconds,
        "setup_s": setup_s,
        "setup_slowdown": probe.slowdown(t_main, t_ready),
        "pass_slowdown": pass_slowdown,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": [x * 1e3 for x in res.latencies_s] if res.latencies_s else None,
    }
    if tracer is not None:
        tracer.uninstall()
        import bninterp.erase

        layer = spans.layer_metrics(rec)
        layer.update(res.layer)
        layer["cli.import_s"] = cli_import_s
        layer["erase.memo_entries"] = len(getattr(bninterp.erase, "_MEMO", ()))
        layer["traced.items_per_s"] = res.items / res.seconds * pass_slowdown
        out["layer"] = layer
        out["spans"] = rec.table()
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    workload.check(inputs, res, reference)
    # a digest or count mismatch names no single item, but still fails the pass
    out["failed"] = max(res.failed, 1) if res.failures else res.failed
    out["failures"] = res.failures[:20]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
