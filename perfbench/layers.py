"""Traced runs: spans around the calls into each layer, and self time.

Only the traced run records spans; end-to-end numbers always come from
untraced phases.  The workload opens a span around each call it makes
into the program, and wrappers open one around each call into an inner layer.
Every span goes into a :class:`repro.obs.trace.Tracer` (parented to the
span it runs inside), and its *self time* -- duration minus the time its
child spans cover -- adds to a per-name total.  Children of one call run
one after another on the calling thread, so the covered time is the sum
of their durations.

Functions are wrapped where callers look them up: a name that
``repro.bfs.mshybrid`` imported from ``repro.bfs.msbfs`` is wrapped in
both modules.  Exec worker threads are not wrapped; their sweeps show as
the leader's ``exec.run_layer`` span, and the engine's own layer profile
splits that into compute, exchange and idle time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import repro.bfs.msbfs as msbfs
import repro.bfs.mshybrid as mshybrid
import repro.exec.pool as pool
import repro.graph500 as graph500
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer
from repro.semirings.base import get_semiring

#: Spans kept for the Chrome trace (a serve-hot pass makes one per query).
SPAN_CAP = 50_000


def _sweep_layers(args) -> int:
    """Chunk layers one ``spmm_layer_sweep(rep, sr, f, x, act)`` sweeps."""
    return int(args[0].cl[args[4]].sum())


def _exec_layers(args) -> int:
    """Chunk layers one ``backend.run_layer(f, act_parts)`` sweeps."""
    return sum(int(args[0].cl[part].sum()) for part in args[2])


def targets(semiring: str) -> list[tuple]:
    """(owner, attribute, span name[, chunk-layer count]) of each call
    made inside the program; the workloads span their own calls
    (``serve.submit``, ``serve.drain``, ``msbfs.run``, ``exec.run``)."""
    sr = type(get_semiring(semiring))
    out = [
        (graph500, "validate_bfs_tree", "graph500.validate_bfs_tree"),
        (mshybrid.MultiSourceHybridBFS, "run", "mshybrid.run"),
        (mshybrid, "expand_adjacency", "mshybrid.push"),
        (sr, "settled_lanes", "semirings.settled_lanes"),
        (sr, "newly_mask", "semirings.newly_mask"),
        (sr, "postprocess", "semirings.postprocess"),
    ]
    for module in (msbfs, mshybrid):
        out += [
            (module, "spmm_layer_sweep", "msbfs.sweep", _sweep_layers),
            (module, "snapshot_column", "msbfs.snapshot_column"),
            (module, "compact_columns", "msbfs.compact_columns"),
            (module, "finalize_batch", "msbfs.finalize_batch"),
        ]
    out.append((pool.ThreadBackend, "run_layer", "exec.run_layer",
                _exec_layers))
    return out


class LayerTrace:
    """Records spans and accumulates self time per span name.

    A workload brackets each call it makes into the program with
    :meth:`open`/:meth:`close`; inside the program, the wrappers that
    entering the context installs do the same around the calls listed by
    :func:`targets` that exist.  At most :data:`SPAN_CAP` spans are kept
    for export: past it, new top-level calls are still timed but not
    recorded, so the exported trace is a prefix of whole call trees.
    """

    def __init__(self, semiring: str):
        self.tracer = Tracer()
        #: Targets the program no longer has (refactored away): their
        #: time shows as their callers' self time.
        self.missing: list[str] = []
        #: Chunk layers swept by the SpMM kernel (either engine) or by
        #: the exec workers, counted after each sweep returns.
        self.chunk_layers = 0
        self._targets = targets(semiring)
        self._acc: dict[str, list] = {}   # name -> [self seconds, calls]
        self._stack: list[list] = []      # open frames, innermost last
        self._undo: list[tuple] = []

    def open(self, name: str) -> list:
        """Start a call; returns its frame for :meth:`close`."""
        t0 = time.perf_counter()
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            span = (None if parent[1] is None else
                    self.tracer.begin(name, parent=parent[1], t=t0))
        else:
            span = (self.tracer.begin(name, t=t0)
                    if len(self.tracer.spans) < SPAN_CAP else None)
        # [covered child seconds, span, name, start]
        frame = [0.0, span, name, t0]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        """End the innermost call: its self time is its duration minus
        the durations of the calls it made."""
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - frame[3]
        acc = self._acc.get(frame[2])
        if acc is None:
            acc = self._acc[frame[2]] = [0.0, 0]
        acc[0] += dur - frame[0]
        acc[1] += 1
        if stack:
            stack[-1][0] += dur
        if frame[1] is not None:
            self.tracer.end(frame[1], t=t1)

    def __enter__(self) -> "LayerTrace":
        for owner, attr, name, *count in self._targets:
            self._wrap(owner, attr, name, *count)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, had, orig in reversed(self._undo):
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if count is not None:
                self.chunk_layers += count(args)
            return out

        setattr(owner, attr, traced)

    @property
    def self_s(self) -> dict[str, float]:
        """Self seconds per span name."""
        return {name: a[0] for name, a in self._acc.items()}

    @property
    def calls(self) -> dict[str, int]:
        """Calls per span name."""
        return {name: a[1] for name, a in self._acc.items()}

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (the span-name prefix before the dot)."""
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def export(self, path: str) -> int:
        """Write the kept spans as Chrome trace-event JSON."""
        return write_chrome_trace(self.tracer.spans, path)
