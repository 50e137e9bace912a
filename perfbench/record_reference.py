"""Record the answers the benchmark checks against, in reference.json.

Run once from the repository root, on a commit whose answers are trusted:

    python3 perfbench/record_reference.py

It certifies the whole criterion-9 domain (576,761 roots, several minutes
on one core), so it is not part of a benchmark run.  Every certificate it
records has passed verify_certificate before and after a JSON round trip.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bninterp.erase import is_erasable  # noqa: E402
from bninterp.prover import (  # noqa: E402
    AxiomSet,
    certify,
    run_sporadic_search,
    verify_certificate,
    verify_thm14,
)

import workloads as wl  # noqa: E402


def record_sporadic() -> dict:
    report = run_sporadic_search(wl.SPORADIC_RMAX)
    return {
        "r_max": wl.SPORADIC_RMAX,
        "examined": report.examined,
        "irreducible": [list(t) for t in report.irreducible],
        "csv_sha256": wl.sporadic_csv_digest(report),
    }


def record_thm14() -> dict:
    report = verify_thm14(wl.THM14_RMAX, wl.THM14_RMIN)
    if report.uncovered or report.outside_uncovered:
        raise SystemExit("thm14 leaves tuples uncovered; not recording")
    return {
        "r_min": wl.THM14_RMIN,
        "r_max": wl.THM14_RMAX,
        "examined": report.examined,
        "outside_checked": report.outside_checked,
    }


def record_certify() -> dict:
    ax = AxiomSet()
    roots, digests = [], []
    for phase in range(wl.CERTIFY_PHASES):
        memo: dict = {}
        digest = hashlib.sha256()
        phase_roots = wl.certify_phase_roots(phase)
        for t in phase_roots:
            cert = certify(t, axioms=ax, memo=memo)
            text = wl.certificate_text(cert)
            back = wl.read_back(text)
            if not (verify_certificate(cert, axioms=ax) and verify_certificate(back, axioms=ax)):
                raise SystemExit(f"certificate for {t} fails verification; not recording")
            digest.update(text.encode())
            digest.update(b"\n")
        roots.append(len(phase_roots))
        digests.append(digest.hexdigest())
        print(f"certify phase {phase}: {len(phase_roots)} roots", file=sys.stderr, flush=True)
    return {
        "r_max": wl.CERTIFY_RMAX,
        "d_max": wl.CERTIFY_DMAX,
        "phases": wl.CERTIFY_PHASES,
        "roots": roots,
        "sha256": digests,
    }


def record_erase() -> dict:
    domain = wl.erase_domain()
    bits = bytearray((len(domain) + 7) // 8)
    for idx, (counts, r) in enumerate(domain):
        if is_erasable(wl.collection(counts), r)[0]:
            bits[idx // 8] |= 1 << (idx % 8)
    return {
        "max_size": wl.ERASE_MAX_SIZE,
        "r": [wl.ERASE_RS.start, wl.ERASE_RS.stop - 1],
        "entries": len(domain),
        "verdicts": bits.hex(),
    }


def main() -> None:
    t0 = time.time()
    doc = {
        "sporadic": record_sporadic(),
        "thm14": record_thm14(),
        "erase": record_erase(),
        "certify": record_certify(),
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote reference.json in {time.time() - t0:.0f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
