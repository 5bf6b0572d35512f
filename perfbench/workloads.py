"""The benchmark's workloads, their inputs, and the answer oracle.

Every workload runs over one Kronecker graph (scale 15, edgefactor 16 by
default) built from the workload seed, stored as ``SlimSell(graph, 16, n)``
and queried with the ``sel-max`` semiring and SlimWork on.

* ``g500-batch`` -- the Graph500 protocol on the offline path: the 64
  ``graph500.sample_roots`` search keys as the 64 columns of one
  ``MultiSourceBFS.run``, as ``run_graph500(batch=64)`` does.
* ``g500-exec`` -- the same graph, roots and widths through
  ``ExecMultiSourceBFS(workers=2, backend="threads")``.
* ``serve-zipf`` -- a lockstep closed loop through ``Server`` with a
  64-entry result cache: 16 clients submit one query each per round,
  ``drain()`` dispatches the round's misses.  Roots are Zipf(0.8) over
  4096 sampled roots.
* ``serve-hot`` -- the same loop, Zipf(1.1) over 64 hot roots whose
  traversals (and validations) are cached during set-up, so every timed
  query is a cache hit.

A run sets everything up :data:`SETUPS` times and follows each set-up
with timed passes; every pass does the same work (see
:class:`PhaseResult`).  The amount of work is a function of the seed and
``--seconds`` only, never of the clock: each workload converts
``--seconds`` into a fixed number of passes or rounds per pass with a
per-second rate measured on a 2-vCPU x86 host.  Each serving round
reads the clock once and passes that reading as ``now=`` to every
``submit``/``drain`` of the round, so no batching deadline can fire
mid-round and batch composition repeats exactly.

Answers are checked outside the timed segments (:class:`Oracle`).
"""

from __future__ import annotations

import gc
import hashlib
import time
import weakref
from array import array

import numpy as np

from repro.bfs.msbfs import MultiSourceBFS
from repro.exec import ExecMultiSourceBFS
from repro.formats.slimsell import SlimSell
from repro.graph500 import ValidationError, sample_roots, validate_bfs_tree
from repro.graphs.kronecker import kronecker
from repro.serve import Server, sample_zipf_roots

SEMIRING = "sel-max"
EDGEFACTOR = 16
C = 16
#: Set-ups per run: ``setup_s`` is their median, and each is followed by
#: the workload's timed passes.
SETUPS = 3
#: Seed of the serving workloads' traffic trace (ranks and kinds).
TRAFFIC_SEED = 2017
KINDS = ("distances", "reachability", "validate")
KIND_SHARES = (0.70, 0.25, 0.05)


def subseed(seed: int, tag: int) -> int:
    """An independent integer seed for input stream ``tag`` of ``seed``."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def digest(res) -> bytes:
    """Exact fingerprint of a traversal: distances and parents."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(res.dist).tobytes())
    h.update(np.ascontiguousarray(res.parent).tobytes())
    return h.digest()


class Oracle:
    """Checks answers against traversals validated once per root.

    The first traversal seen for a root must pass the five Graph500 tree
    checks; its digest (and component edge count, for TEPS) is kept, and
    every later answer for that root must match the digest exactly.  The
    last verified result object per root is remembered weakly, so a
    cache hit that hands back the very same object costs one identity
    test.  Nothing else is kept per query.
    """

    def __init__(self, graph):
        self.graph = graph
        self._digest: dict[int, bytes] = {}
        self.edges: dict[int, int] = {}
        self._seen = weakref.WeakValueDictionary()
        self.mismatches = 0

    def mismatch(self, msg: str) -> bool:
        self.mismatches += 1
        print(f"perfbench: mismatch: {msg}", flush=True)
        return False

    def traversal(self, root: int, res) -> bool:
        """Whether ``res`` is a correct traversal from ``root``."""
        if self._seen.get(root) is res:
            return True
        if res.root != root or res.parent is None:
            return self.mismatch(f"root {root}: answer for root {res.root}")
        d = digest(res)
        known = self._digest.get(root)
        if known is None:
            try:
                validate_bfs_tree(self.graph, res)
            except ValidationError as exc:
                return self.mismatch(f"root {root}: {exc}")
            self._digest[root] = d
            reached = np.isfinite(res.dist)
            self.edges[root] = int(self.graph.degrees[reached].sum()) // 2
        elif d != known:
            return self.mismatch(
                f"root {root}: traversal differs from its verified one")
        self._seen[root] = res
        return True

    def query(self, qr, kind: str, root: int, target: int | None) -> bool:
        """Whether a served query's answer is correct for its kind."""
        if qr.status != "served":
            return self.mismatch(f"root {root} ({kind}): {qr.status}")
        if not self.traversal(root, qr.bfs):
            return False
        if kind == "distances":
            ok = qr.value is qr.bfs
        elif kind == "reachability":
            ok = qr.value == bool(np.isfinite(qr.bfs.dist[target]))
        else:
            ok = qr.value is True
        return ok or self.mismatch(
            f"root {root} ({kind}, target {target}): answer {qr.value!r}")


class PhaseResult:
    """What the timed passes of a run produced: answers, times, counts.

    Each set-up of a run is followed by timed passes, and every pass makes
    the same timed blocks (engine calls, or closed-loop rounds) over
    identical work.  Times are kept as measured, from every pass: rates
    are the answered work of every pass over :attr:`total_s`, the summed
    time of every timed block, and latency percentiles are taken over
    every query of every pass.  On a shared host whose speed switches
    between states within a run, these totals move smoothly with the
    share of time spent slow, where a median over passes would jump
    between the states.  Every pass's answers are verified.
    """

    def __init__(self, queries: int):
        self.queries = queries    # per pass
        self.ok = 0               # correct answers over all passes
        self.edges = 0            # their component edges
        self.pass_s: list[float] = []   # summed block seconds per pass
        self.kernel_s = 0.0       # serving phases: server kernel seconds
        self.profile: dict[str, float] = {}  # exec phases: layer profile
        self.counts: dict[str, int | str] = {}
        self.repeats = True       # every pass did exactly the same work
        self._latency: list[np.ndarray] = []

    def add_pass(self, block_s, latency_s, counts: dict) -> None:
        self.pass_s.append(float(np.sum(block_s)))
        self._latency.append(np.asarray(latency_s, dtype=float))
        if not self.counts:
            self.counts = counts
        elif counts != self.counts:
            self.repeats = False
            print(f"perfbench: pass did different work: {counts} != "
                  f"{self.counts}", flush=True)

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    @property
    def attempted(self) -> int:
        return self.queries * self.passes

    @property
    def total_s(self) -> float:
        return sum(self.pass_s)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(np.concatenate(self._latency), q)) * 1e3


class Workload:
    """Shared set-up: graph generation, SlimSell build, warm-up."""

    #: Timed passes after each set-up.
    passes = 1

    #: Names of the spans the workload opens around its own calls into
    #: the program in traced passes.
    outer_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, scale: int):
        self.seed = seed
        self.scale = scale
        self.graph = self.rep = None

    def params(self) -> dict:
        return {"scale": self.scale, "edgefactor": EDGEFACTOR, "C": C,
                "sigma": "n", "semiring": SEMIRING, "slimwork": True}

    def setup(self) -> dict[str, float]:
        """Build everything the timed pass needs; returns stage seconds."""
        self.close()
        self.graph = self.rep = None
        gc.collect()
        t0 = time.perf_counter()
        self.graph = kronecker(self.scale, EDGEFACTOR, seed=self.seed)
        t1 = time.perf_counter()
        self.rep = SlimSell(self.graph, C, self.graph.n)
        t2 = time.perf_counter()
        self.warm()
        self.prepare()
        t3 = time.perf_counter()
        return {"graphs.kronecker_s": t1 - t0, "formats.build_s": t2 - t1,
                "setup.warm_s": t3 - t2, "setup_s": t3 - t0}

    def storage_mb(self) -> float:
        return self.rep.storage_cells() * 4 / 1e6

    def warm(self) -> None:
        """Draw the inputs and run the workload's own kind of call,
        untimed."""

    def prepare(self) -> None:
        """The state a timed pass starts from (made again before the
        traced one), so the traced pass repeats the untraced work."""

    def new_phase(self) -> PhaseResult:
        raise NotImplementedError

    def run(self, oracle: Oracle, out: PhaseResult, trace=None) -> None:
        """One timed pass over the state the last set-up (or pass) left,
        into ``out``.  With a :class:`layers.LayerTrace` it also records spans
        around its calls into the program."""
        raise NotImplementedError

    def verify_fill(self, oracle: Oracle) -> bool:
        """Check answers produced during set-up; True when there are none."""
        return True

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""


class Graph500Workload(Workload):
    """The Graph500 search keys through a batched engine.

    ``width`` distinct ``graph500.sample_roots`` roots as the columns of
    one ``run`` call.  A pass makes that call once, and it is the pass's
    one timed block; every root's answer arrives when the call returns,
    so the call time is each root's latency (and the run's p90 is about
    its slowest call).
    """

    width = 64
    outer_spans = ("msbfs.run",)
    #: Iterations of the full-width warm-up call (the first, densest ones).
    warm_iters = 2
    #: Engine calls per second of ``--seconds``.
    calls_per_s = 0.45

    def __init__(self, seed, seconds, scale):
        super().__init__(seed, seconds, scale)
        self.engine = None
        self.passes = max(1, round(seconds * self.calls_per_s / SETUPS))

    def params(self) -> dict:
        return {**super().params(), "width": self.width,
                "passes_per_setup": self.passes}

    def make_engine(self):
        return MultiSourceBFS(self.rep, SEMIRING, slimwork=True)

    def warm(self) -> None:
        self.roots = sample_roots(self.graph, self.width, self.seed)
        self.engine = self.make_engine()
        self.engine.max_iters = self.warm_iters
        self.engine.run(self.roots)
        self.engine.max_iters = None

    def new_phase(self) -> PhaseResult:
        return PhaseResult(self.width)

    def run(self, oracle: Oracle, out: PhaseResult, trace=None) -> None:
        frame = trace and trace.open(self.outer_spans[0])
        t0 = time.perf_counter()
        results = self.engine.run(self.roots)
        call_s = time.perf_counter() - t0
        if trace:
            trace.close(frame)
        for root, res in zip(self.roots.tolist(), results):
            if oracle.traversal(root, res):
                out.ok += 1
                out.edges += oracle.edges[root]
        out.add_pass([call_s], [call_s] * self.width, {
            "batches": 1,
            "columns": self.width,
            "union_iters": max(len(r.iterations) for r in results),
            "computed_bytes": self.engine.batch_counters().total_bytes,
        })

    def close(self) -> None:
        self.engine = None


class ExecWorkload(Graph500Workload):
    """The Graph500 workload on the executed two-worker thread backend."""

    workers = 2
    backend = "threads"
    outer_spans = ("exec.run",)
    calls_per_s = 0.8

    def params(self) -> dict:
        return {**super().params(), "workers": self.workers,
                "backend": self.backend}

    def make_engine(self):
        return ExecMultiSourceBFS(self.rep, SEMIRING, slimwork=True,
                                  workers=self.workers, backend=self.backend)

    def run(self, oracle: Oracle, out: PhaseResult, trace=None) -> None:
        self.engine.reset_profile()
        super().run(oracle, out, trace)
        prof = self.engine.layer_profile
        for name, value in (
                ("exec.compute_s", sum(s.t_compute_total_s for s in prof)),
                ("exec.critical_path_s", sum(s.t_local_s for s in prof)),
                ("exec.exchange_s", sum(s.t_exchange_s for s in prof)),
                ("exec.idle_s", sum(s.t_idle_total_s for s in prof)),
                ("exec.exchanged_mb",
                 sum(s.exchanged_bytes for s in prof) / 1e6)):
            out.profile[name] = out.profile.get(name, 0.0) + value

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        super().close()


class ServeWorkload(Workload):
    """Lockstep closed loop of ``clients`` through one ``Server``.

    The traffic is a fixed trace: the sequence of Zipf popularity ranks
    and of query kinds is the same for every seed, so every seed sees the
    same hits, misses and batch widths.  The seed picks the graph, the
    root pool (so which root each rank names) and reachability targets.
    Each pass runs on a server whose cache ``warm_rounds`` rounds of
    another stream of the same traffic have filled, so the timed rounds
    see the cache's steady mix of hits, misses and evictions.
    """

    clients = 16
    #: LRU capacity: below the 241 distinct roots that a pass and its
    #: warm-up name (304 queries), so a pass both hits and evicts;
    #: capacity 256 would never evict at this length.
    cache_size = 64
    pool_roots = 4096
    zipf_s = 0.8
    rounds_per_s = 4.0
    warm_rounds = 6
    outer_spans = ("serve.submit", "serve.drain")

    def __init__(self, seed, seconds, scale):
        super().__init__(seed, seconds, scale)
        self.server = None
        self.rounds = max(1, round(
            seconds * self.rounds_per_s / (SETUPS * self.passes)))

    def params(self) -> dict:
        return {**super().params(), "clients": self.clients,
                "rounds_per_pass": self.rounds,
                "warm_rounds": self.warm_rounds,
                "cache_size": self.cache_size,
                "pool_roots": self.pool_roots, "zipf_s": self.zipf_s,
                "kinds": dict(zip(KINDS, KIND_SHARES))}

    def stream(self, tag: int, nqueries: int):
        """Seeded (roots, kinds, targets) lists for ``nqueries`` queries."""
        roots = sample_zipf_roots(self.pool, nqueries, self.zipf_s,
                                  seed=subseed(TRAFFIC_SEED, tag))
        kinds = np.random.default_rng(subseed(TRAFFIC_SEED, tag + 1)).choice(
            len(KINDS), size=nqueries, p=KIND_SHARES)
        targets = np.random.default_rng(subseed(self.seed, tag)).integers(
            0, self.graph.n, size=nqueries)
        return (roots.tolist(), [KINDS[k] for k in kinds],
                [int(t) if KINDS[k] == "reachability" else None
                 for k, t in zip(kinds, targets)])

    def new_server(self) -> Server:
        return Server(self.rep, cache_size=self.cache_size)

    def warm(self) -> None:
        self.pool = sample_roots(self.graph, self.pool_roots, self.seed)
        self.queries = self.stream(10, self.rounds * self.clients)
        self.warm_queries = self.stream(20, self.warm_rounds * self.clients)

    def prepare(self) -> None:
        """A new server, its cache filled by the warm-up rounds."""
        self.server = self.new_server()
        self.rounds_untimed(self.server, self.warm_queries)

    def round(self, server: Server, queries, i0: int, lat, trace=None):
        """Submit one query per client, drain; returns (tickets, seconds).

        Latency per query is submit to answer on ``perf_counter``: a hit
        resolves inside its own ``submit``, a miss inside the ``submit``
        that fills its batch or inside ``drain``.  A traced round also
        records a span around each call.
        """
        roots, kinds, targets = queries
        submit = server.submit
        perf = time.perf_counter
        tickets, pending = [], []
        t_round = perf()
        for i in range(i0, i0 + self.clients):
            frame = trace and trace.open("serve.submit")
            t0 = perf()
            tk = submit(roots[i], kind=kinds[i], target=targets[i],
                        now=t_round)
            t1 = perf()
            if trace:
                trace.close(frame)
            tickets.append(tk)
            if tk.done and not pending:
                lat[i] = t1 - t0
                continue
            pending.append((i, t0, tk))
            still = []
            for item in pending:
                if item[2].done:
                    lat[item[0]] = t1 - item[1]
                else:
                    still.append(item)
            pending = still
        frame = trace and trace.open("serve.drain")
        server.drain(now=t_round)
        t_end = perf()
        if trace:
            trace.close(frame)
        for i, t0, _ in pending:
            lat[i] = t_end - t0
        return tickets, t_end - t_round

    def rounds_untimed(self, server: Server, queries) -> list:
        """Run every round of ``queries`` outside any measurement."""
        n = len(queries[0])
        lat = array("d", bytes(8 * n))
        tickets = []
        for i0 in range(0, n, self.clients):
            tickets += self.round(server, queries, i0, lat)[0]
        return tickets

    def new_phase(self) -> PhaseResult:
        return PhaseResult(self.rounds * self.clients)

    def run(self, oracle: Oracle, out: PhaseResult, trace=None) -> None:
        """Every round once, answers verified between rounds."""
        server = self.server
        roots, kinds, targets = self.queries
        lat = array("d", bytes(8 * out.queries))
        blocks = array("d", bytes(8 * self.rounds))
        st = server.stats
        hits0, batches0, mshr0 = st.cache_hits, st.batches, st.mshr_hits
        widths0, kernel0 = len(st.widths), st.kernel_s
        evict0 = self.evictions()
        push = pull = 0
        for r in range(self.rounds):
            i0 = r * self.clients
            tickets, blocks[r] = self.round(server, self.queries, i0, lat,
                                            trace)
            for i, tk in zip(range(i0, i0 + self.clients), tickets):
                qr = tk.result()
                if oracle.query(qr, kinds[i], roots[i], targets[i]):
                    out.ok += 1
                    out.edges += oracle.edges[roots[i]]
                if qr.status == "served" and not (qr.cache_hit or qr.mshr_hit):
                    for it in qr.bfs.iterations:
                        if it.direction == "push":
                            push += 1
                        elif it.direction == "pull":
                            pull += 1
        widths = st.widths[widths0:]
        out.kernel_s += st.kernel_s - kernel0
        out.add_pass(np.frombuffer(blocks), np.frombuffer(lat), {
            "batches": st.batches - batches0,
            "columns": sum(widths),
            "cache_hits": st.cache_hits - hits0,
            "mshr_hits": st.mshr_hits - mshr0,
            "evictions": self.evictions() - evict0,
            "failed": st.failed + st.rejected + st.timeouts,
            "push_cols": push,
            "pull_cols": pull,
            "widths_digest": hashlib.blake2b(
                array("q", widths).tobytes(), digest_size=8).hexdigest(),
        })

    def evictions(self) -> int:
        return int(
            self.server.metrics.snapshot()["serve.result_cache.evictions"])

    def close(self) -> None:
        self.server = None


class HotServeWorkload(ServeWorkload):
    """Every timed query hits the cache: the host path does all the work.

    Set-up traverses and validates every hot root into the server, then
    runs ``warm_rounds`` rounds of cache hits from another stream.  The
    cache then holds every hot root, so the passes after a set-up can
    share its server and still repeat the same work.
    """

    passes = 3

    pool_roots = 64
    cache_size = 256
    zipf_s = 1.1
    rounds_per_s = 8000.0
    warm_rounds = 64

    def prepare(self) -> None:
        server = self.server = self.new_server()
        pool = self.pool.tolist()
        self.fill_tickets = []
        for i0 in range(0, len(pool), self.clients):
            now = time.perf_counter()
            self.fill_tickets += [server.submit(r, kind="validate", now=now)
                                  for r in pool[i0:i0 + self.clients]]
            server.drain(now=now)
        self.rounds_untimed(server, self.warm_queries)

    def verify_fill(self, oracle: Oracle) -> bool:
        """Check the set-up traversals (outside any timed segment)."""
        ok = all([oracle.query(tk.result(), "validate", tk.query.root, None)
                  for tk in self.fill_tickets])
        self.fill_tickets = []
        return ok


WORKLOADS = {
    "g500-batch": Graph500Workload,
    "g500-exec": ExecWorkload,
    "serve-zipf": ServeWorkload,
    "serve-hot": HotServeWorkload,
}
