"""Self-test of the benchmark: every workload, twice, at a tiny size.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced (scale 10, one seed),
and fails unless both runs are correct, answer every query correctly
(``ok_share == 1.0``) and report identical work counts: batches, columns,
cache hits, union iterations, computed bytes and the digest of the batch
widths.  The traced run is slower and also checks that its traced phase
repeats the untraced one's counts, so batch composition that depends on
timing fails here; its spans must attribute at least 90% of the timed
wall to named layers, and every call it means to wrap must still exist
in the program (a call that is gone would show only as its caller's
self time).  The share of the timed wall left as the self time of the
workload's own outer spans is printed beside the coverage.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("g500-batch", "g500-exec", "serve-zipf", "serve-hot")
SEED = 7
MIN_COVERAGE = 0.9


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "6", "--trace", str(trace),
           "--scale", "10"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        (rep0, res0), (rep1, res1) = run(workload, 0), run(workload, 1)
        ok_share = res0["metrics"]["ok_share"]["value"]
        coverage = res1["metrics"]["obs.trace_coverage"]["value"]
        outer = res1["metrics"]["obs.outer_self_share"]["value"]
        checks = {
            "correct": res0["correct"] and res1["correct"],
            "ok_share == 1.0": ok_share == 1.0,
            "identical counts": rep0["counts"] == rep1["counts"],
            f"trace coverage >= {MIN_COVERAGE}": coverage >= MIN_COVERAGE,
            "no unwrapped targets": not rep1["unwrapped"],
        }
        bad = [name for name, ok in checks.items() if not ok]
        print(f"{workload}: {'FAIL ' + ', '.join(bad) if bad else 'ok'} "
              f"coverage={coverage:.3f} outer_self_share={outer:.3f} "
              f"counts={rep0['counts']}")
        if bad:
            failures.append(workload)
            print(f"  traced run counts={rep1['counts']} "
                  f"unwrapped={rep1['unwrapped']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
