#!/usr/bin/env python
"""B-sweep ablation of the batched multi-source BFS engine.

Runs the Graph500-style workload (Kronecker graph, sampled valid roots,
default engine: SlimSell C=16, sel-max, SlimWork) once per batch width
B ∈ {1, 4, 16, 64}, over the *same* prebuilt representation, and reports
total kernel wall clock, speedup over the sequential B=1 sweep, and
harmonic-mean TEPS.  Every batched run is checked bit-identical (distances
and parents) to the sequential baseline before its timing is trusted.
The B sweep runs on the numpy layer-sweep kernel (pinned), so its
batching ratios stay comparable across kernel changes.

A second section times the native C layer-sweep kernel against the numpy
one in the same process: the raw all-chunk sweep per width and one
end-to-end engine run over every root, each as ``native_over_numpy`` =
numpy seconds / native seconds (the native kernel's speedup), with the
engine results checked bit-identical across the two kernels.

Standalone script (not a pytest bench): results go to an ASCII table on
stdout and a JSON file (default ``BENCH_msbfs.json`` in the current
directory) that CI uploads as the perf-trajectory artifact.

Usage::

    python benchmarks/bench_msbfs_batch.py              # scale 14, 64 roots
    python benchmarks/bench_msbfs_batch.py --quick      # CI smoke scale
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import write_bench_json

from repro.bfs import native
from repro.bfs.msbfs import MultiSourceBFS, spmm_layer_sweep
from repro.bfs.spmv import BFSSpMV
from repro.formats.slimsell import SlimSell
from repro.graph500 import sample_roots
from repro.graphs.kronecker import kronecker
from repro.semirings.base import get_semiring

#: CI smoke configuration, shared with ``benchmarks/check_regression.py`` so
#: the regression gate re-runs exactly the workload whose numbers are stored
#: as the committed quick baseline.
QUICK = {"scale": 10, "edgefactor": 16, "nroots": 16, "batches": [1, 4, 16]}


def _identical(a, b) -> bool:
    return all(np.array_equal(x.dist, y.dist)
               and np.array_equal(x.parent, y.parent)
               and [(s.newly, s.chunks_processed) for s in x.iterations]
               == [(s.newly, s.chunks_processed) for s in y.iterations]
               for x, y in zip(a, b))


def _best_per_kernel(fn, repeats: int, block: int = 1) -> dict[str, float]:
    """Best wall seconds of ``fn()`` per kernel: ``repeats`` rounds, each
    running ``block`` back-to-back calls under one kernel, then the other."""
    best = {"numpy": float("inf"), "native": float("inf")}
    for _ in range(repeats):
        for kernel in best:
            with native.use_kernel(kernel):
                for _ in range(block):
                    t0 = time.perf_counter()
                    fn()
                    best[kernel] = min(best[kernel],
                                       time.perf_counter() - t0)
    return best


def run_native(rep, roots: np.ndarray, widths: list[int],
               repeats: int = 10) -> dict | None:
    """Same-process native-vs-numpy layer-sweep timings.

    Per width W: one all-chunk sel-max sweep of an ``(N, W)`` block (the
    kernel alone; blocks of 3 back-to-back sweeps, so the operands are
    warm).  Then one ``MultiSourceBFS.run`` over every root (the engine end
    to end: masks, postprocess and bookkeeping included).  Best of
    ``repeats`` alternating rounds per kernel.  Returns None when no
    native kernel can be built.
    """
    try:
        with native.use_kernel("native"):
            pass
    except native.NativeKernelError as exc:
        print(f"native kernel unavailable ({exc}); no native_over_numpy "
              "points", file=sys.stderr)
        return None
    sr = get_semiring("sel-max")
    act = np.arange(rep.nc)
    rng = np.random.default_rng(0)
    rows = []
    for W in sorted(set(widths)):
        f = rng.random((rep.N, W))
        x = np.empty_like(f)

        def sweep():
            np.copyto(x, f)
            spmm_layer_sweep(rep, sr, f, x, act)

        t = _best_per_kernel(sweep, repeats, block=3)
        rows.append({"W": W, "numpy_s": t["numpy"], "native_s": t["native"],
                     "native_over_numpy": t["numpy"] / t["native"]})

    engine = MultiSourceBFS(rep, "sel-max", slimwork=True)
    results = {}

    def run():
        results[native.kernel_impl()] = engine.run(roots)

    t = _best_per_kernel(run, repeats)
    return {
        "sweep": rows,
        "engine": {"B": int(roots.size), "numpy_s": t["numpy"],
                   "native_s": t["native"],
                   "native_over_numpy": t["numpy"] / t["native"],
                   "identical": _identical(results["numpy"],
                                           results["native"])},
    }


def run_sweep(scale: int, edgefactor: float, nroots: int,
              batches: list[int], seed: int = 1) -> dict:
    with native.use_kernel("numpy"):
        payload, rep, roots = _run_batches(scale, edgefactor, nroots,
                                           batches, seed)
    nat = run_native(rep, roots, batches)
    if nat is not None:
        payload["native"] = nat
    return payload


def _run_batches(scale: int, edgefactor: float, nroots: int,
                 batches: list[int], seed: int):
    graph = kronecker(scale, edgefactor, seed=seed)
    t0 = time.perf_counter()
    rep = SlimSell(graph, 16, graph.n)
    build_s = time.perf_counter() - t0

    roots = sample_roots(graph, nroots, seed)

    # Warm the memoized operands (col64, per-semiring val) so every batch
    # width measures steady-state kernel time, not one-time materialization.
    BFSSpMV(rep, "sel-max", slimwork=True).run(int(roots[0]))

    baseline = None
    rows = []
    for B in sorted(set(batches)):
        engine = BFSSpMV(rep, "sel-max", slimwork=True,
                         batch=B if B > 1 else None)
        t1 = time.perf_counter()
        results = engine.run_many(roots)
        kernel_s = time.perf_counter() - t1
        if baseline is None:
            if B != 1:
                raise SystemExit("batches must include 1 (the baseline)")
            edges = [int(graph.degrees[np.isfinite(r.dist)].sum()) // 2
                     for r in results]
            baseline = (kernel_s, results, edges)
        base_s, base_results, edges = baseline
        identical = all(
            np.array_equal(a.dist, b.dist) and np.array_equal(a.parent, b.parent)
            for a, b in zip(base_results, results))
        teps = np.array(edges) / (kernel_s / len(roots))
        rows.append({
            "B": B,
            "kernel_s": kernel_s,
            "speedup_vs_B1": base_s / kernel_s,
            "hmean_teps": float(teps.size / np.sum(1.0 / teps)),
            "identical_to_B1": bool(identical),
        })
    payload = {
        "workload": {
            "scale": scale, "edgefactor": edgefactor,
            "n": graph.n, "m": graph.m, "nroots": int(roots.size),
            "seed": seed, "C": 16, "semiring": "sel-max", "slimwork": True,
            "representation": "slimsell", "build_s": build_s,
            "kernel": "numpy",
        },
        "batches": rows,
    }
    return payload, rep, roots


def print_report(payload: dict) -> None:
    w = payload["workload"]
    print(f"\n=== Batched MS-BFS ablation (scale={w['scale']}, "
          f"edgefactor={w['edgefactor']}, n={w['n']}, m={w['m']}, "
          f"{w['nroots']} roots) ===")
    hdr = f"{'B':>4s}  {'kernel s':>10s}  {'speedup':>8s}  {'hmean TEPS':>11s}  identical"
    print(hdr)
    print("-" * len(hdr))
    for r in payload["batches"]:
        print(f"{r['B']:4d}  {r['kernel_s']:10.3f}  {r['speedup_vs_B1']:7.2f}x "
              f" {r['hmean_teps']:11.3e}  {r['identical_to_B1']}")
    nat = payload.get("native")
    if nat is None:
        return
    print("\n=== Native vs numpy layer-sweep kernel (same process) ===")
    print(f"{'sweep':>10s}  {'numpy ms':>9s}  {'native ms':>9s}  native/numpy")
    for r in nat["sweep"]:
        print(f"{'W=' + str(r['W']):>10s}  {r['numpy_s'] * 1e3:9.2f}  "
              f"{r['native_s'] * 1e3:9.2f}  {r['native_over_numpy']:7.2f}x")
    e = nat["engine"]
    print(f"{'engine B=' + str(e['B']):>10s}  {e['numpy_s'] * 1e3:9.2f}  "
          f"{e['native_s'] * 1e3:9.2f}  {e['native_over_numpy']:7.2f}x  "
          f"identical={e['identical']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=14)
    ap.add_argument("--edgefactor", type=float, default=16)
    ap.add_argument("--nroots", type=int, default=64)
    ap.add_argument("--batches", default="1,4,16,64",
                    help="comma-separated batch widths (must include 1)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke configuration (scale 10, 16 roots, "
                         "B in {1,4,16})")
    ap.add_argument("--output", default="BENCH_msbfs.json",
                    help="JSON results path")
    args = ap.parse_args(argv)

    if args.quick:
        scale, nroots = QUICK["scale"], QUICK["nroots"]
        edgefactor, batches = QUICK["edgefactor"], QUICK["batches"]
    else:
        scale, nroots, edgefactor = args.scale, args.nroots, args.edgefactor
        batches = [int(b) for b in args.batches.split(",")]

    payload = run_sweep(scale, edgefactor, nroots, batches,
                        seed=args.seed)
    print_report(payload)
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")
    if not all(r["identical_to_B1"] for r in payload["batches"]):
        print("ERROR: a batched run diverged from the sequential baseline",
              file=sys.stderr)
        return 1
    if "native" in payload and not payload["native"]["engine"]["identical"]:
        print("ERROR: the native kernel diverged from the numpy kernel",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
