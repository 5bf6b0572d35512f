"""Wall-clock benchmark of the SlimSell BFS stack, attributed per layer.

Run from the repository root::

    python3 perfbench/run.py --workload g500-batch --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py``): ``g500-batch``, ``g500-exec``,
``serve-zipf``, ``serve-hot``.  The program under test is imported from
``src/`` at the repository root; without it the run fails.

Output, on standard output:

* mismatch lines, one per wrong answer (there should be none);
* one JSON line ``{"report": ...}``: provenance (cores, platform, Python
  and numpy versions, git commit, kernel implementation, seed, workload
  parameters, ``host.probe_s``), the exact-repeat work counts, and with
  ``--trace 1`` the self time per span name and per layer;
* last, one JSON line with ``correct``, ``attempted``, ``failed`` and
  ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
  1`` the per-layer metrics (see ``BENCHMARK.json``).

A run sets up three times (``setup_s`` is the median of generation,
SlimSell build and warm-up) and follows each set-up with timed passes
over the same work; every answer of every pass is verified outside the
timed segments.  A timed block is an engine call for ``g500-*`` and a
closed-loop round (first submit to end of ``drain``) for ``serve-*``.
``teps`` is the component edges of every answered query over the summed
time of every timed block, ``qps`` the answered queries over the same (a
Graph500 root is one query), and the latency percentiles are taken over
every query of every pass.

``--trace 1`` then makes the last set-up's state again and repeats one
pass with spans around the calls into each layer
(``perfbench/layers.py``), prints the self time per span name and per
layer, and writes the spans as a Chrome trace to ``perfbench/results/``.
Per-layer metrics are per pass: counts and profiles from the untraced
passes, self times from the traced one.  ``perfbench/selftest.py``
checks that work counts repeat exactly.
"""

from __future__ import annotations

import os

# Before numpy loads: numpy must not add threads of its own.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def host_probe() -> float:
    """Seconds of a fixed numpy gather loop that uses no repository code."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.random(1 << 20)
    idx = rng.integers(0, a.size, size=a.size)
    t0 = time.perf_counter()
    for _ in range(16):
        a[idx].sum()
    return time.perf_counter() - t0


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, wl, probe_s: float) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "kernel": "numpy",
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "params": wl.params(),
        "host.probe_s": probe_s,
    }


def end_to_end(setup_s: float, ph, rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "teps": (ph.edges / ph.total_s, "edges/s"),
        "qps": (ph.ok / ph.total_s, "queries/s"),
        "lat_p50_ms": (ph.percentile_ms(50), "ms"),
        "lat_p90_ms": (ph.percentile_ms(90), "ms"),
        "ok_share": (ph.ok / ph.attempted, "fraction"),
        "rss_peak_mb": (rss_mb, "MB"),
    }


def per_layer(wl, setup: dict, ph, traced, lt, probe_s: float,
              serving: bool) -> dict:
    """Per-layer metrics: counts and profiles from the untraced phase
    ``ph``, self times from the traced phase ``traced`` (tracer ``lt``,
    one pass).  Both are per pass."""
    s = lt.self_s
    calls = lt.calls
    c = ph.counts
    sweep_s = s.get("msbfs.sweep", 0.0)
    computed_mb = c.get("computed_bytes", 0) / 1e6
    validate_s = s.get("graph500.validate_bfs_tree", 0.0)
    kernel_s = ph.kernel_s / ph.passes
    # Serving host time is what is left of a round once the kernel and the
    # validations are taken out.  All three terms come from the traced
    # pass, so they describe the same seconds (the host part includes the
    # spans' own cost; see obs.trace_overhead).
    host_s = (traced.total_s - traced.kernel_s - validate_s
              if serving else 0.0)
    covered = sum(s.values())
    outer = sum(s.get(name, 0.0) for name in wl.outer_spans)
    m = {
        "host.probe_s": (probe_s, "s"),
        "graphs.kronecker_s": (setup["graphs.kronecker_s"], "s"),
        "formats.build_s": (setup["formats.build_s"], "s"),
        "formats.storage_mb": (wl.storage_mb(), "MB"),
        "setup.warm_s": (setup["setup.warm_s"], "s"),
        "msbfs.sweep_s": (sweep_s, "s"),
        "msbfs.chunk_layers": (lt.chunk_layers, "count"),
        "msbfs.union_iters": (c.get("union_iters", 0), "count"),
        "msbfs.computed_mb": (computed_mb, "MB"),
        "msbfs.computed_gbps": (
            computed_mb / 1e3 / sweep_s if sweep_s else 0.0, "GB/s"),
        "semirings.settled_s": (s.get("semirings.settled_lanes", 0.0), "s"),
        "semirings.postprocess_s": (
            s.get("semirings.postprocess", 0.0)
            + s.get("semirings.newly_mask", 0.0), "s"),
        "msbfs.compact_s": (
            s.get("msbfs.compact_columns", 0.0)
            + s.get("msbfs.snapshot_column", 0.0), "s"),
        "msbfs.finalize_s": (s.get("msbfs.finalize_batch", 0.0), "s"),
        "msbfs.self_s": (s.get("msbfs.run", 0.0), "s"),
        "mshybrid.run_s": (s.get("mshybrid.run", 0.0), "s"),
        "mshybrid.push_s": (s.get("mshybrid.push", 0.0), "s"),
        "mshybrid.push_cols": (c.get("push_cols", 0), "count"),
        "mshybrid.pull_cols": (c.get("pull_cols", 0), "count"),
    }
    for name in ("exec.compute_s", "exec.critical_path_s", "exec.exchange_s",
                 "exec.idle_s"):
        m[name] = (ph.profile.get(name, 0.0) / ph.passes, "s")
    m["exec.exchanged_mb"] = (
        ph.profile.get("exec.exchanged_mb", 0.0) / ph.passes, "MB")
    m["exec.run_layer_s"] = (s.get("exec.run_layer", 0.0), "s")
    m["exec.self_s"] = (s.get("exec.run", 0.0), "s")
    batches = c.get("batches", 0)
    columns = c.get("columns", 0)
    m.update({
        "serve.kernel_s": (kernel_s, "s"),
        "serve.host_s": (host_s, "s"),
        "serve.host_us_per_query": (
            host_s / ph.queries * 1e6 if serving else 0.0, "us"),
        "serve.self_s": (
            s.get("serve.submit", 0.0) + s.get("serve.drain", 0.0), "s"),
        "serve.batches": (batches if serving else 0, "count"),
        "serve.columns": (columns if serving else 0, "count"),
        "serve.mean_batch_width": (
            columns / batches if serving and batches else 0.0, "columns"),
        "serve.hit_share": (
            c["cache_hits"] / ph.queries if serving else 0.0, "fraction"),
        "serve.cache_hits": (c.get("cache_hits", 0), "count"),
        "serve.evictions": (c.get("evictions", 0), "count"),
        "serve.mshr_hits": (c.get("mshr_hits", 0), "count"),
        "serve.failed": (c.get("failed", 0), "count"),
        "graph500.validate_s": (validate_s, "s"),
        "graph500.validate_calls": (
            calls.get("graph500.validate_bfs_tree", 0), "count"),
        "bench.batches": (batches, "count"),
        "bench.columns": (columns, "count"),
        "bench.queries": (ph.queries, "count"),
        "obs.trace_overhead": (
            traced.total_s / (ph.total_s / ph.passes), "ratio"),
        "obs.trace_coverage": (covered / traced.total_s, "fraction"),
        "obs.outer_self_share": (outer / traced.total_s, "fraction"),
        "obs.spans": (sum(calls.values()), "count"),
    })
    return m


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {src}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from layers import LayerTrace

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=15,
                    help="Kronecker scale (the benchmark uses 15; the "
                         "self-test uses a tiny one)")
    args = ap.parse_args(argv)

    probe_s = host_probe()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                            args.scale)
    try:
        ph = traced = lt = oracle = None
        setups = []
        fill_ok = True
        for _ in range(workloads.SETUPS):
            setups.append(wl.setup())
            if oracle is None:
                oracle = workloads.Oracle(wl.graph)
                ph = wl.new_phase()
            oracle.graph = wl.graph  # the same graph, rebuilt
            fill_ok = wl.verify_fill(oracle) and fill_ok
            for _ in range(wl.passes):
                wl.run(oracle, ph)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = {k: statistics.median(s[k] for s in setups)
                 for k in setups[0]}
        attempted, ok = ph.attempted, ph.ok
        repeat_ok = ph.repeats
        if args.trace:
            wl.prepare()
            fill_ok = wl.verify_fill(oracle) and fill_ok
            traced = wl.new_phase()
            lt = LayerTrace(workloads.SEMIRING)
            with lt:
                wl.run(oracle, traced, lt)
            attempted += traced.attempted
            ok += traced.ok
            if traced.counts != ph.counts:
                # Same seed, same work: anything else is a timing leak.
                repeat_ok = False
                print(f"perfbench: traced phase did different work: "
                      f"{traced.counts} != {ph.counts}", flush=True)
        report = {"provenance": provenance(args, wl, probe_s),
                  "passes": ph.passes, "pass_s": ph.pass_s,
                  "latency_samples": ph.attempted,
                  "counts": ph.counts}
        if args.trace:
            out_dir = HERE / "results"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"trace-{args.workload}-{args.seed}.json"
            report["trace_file"] = str(path.relative_to(ROOT))
            report["trace_spans_exported"] = lt.export(str(path))
            report["self_s"] = dict(sorted(lt.self_s.items()))
            report["unwrapped"] = lt.missing
            report["layer_self_s"] = lt.layer_self_s()
            metrics = per_layer(wl, setup, ph, traced, lt, probe_s,
                                isinstance(wl, workloads.ServeWorkload))
        else:
            metrics = end_to_end(setup["setup_s"], ph, rss_mb)
    finally:
        wl.close()
    failed = attempted - ok
    correct = (failed == 0 and oracle.mismatches == 0 and fill_ok
               and repeat_ok)
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
