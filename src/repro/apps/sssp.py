"""Single-source shortest paths on *weighted* graphs — SlimSell's boundary.

SlimSell exists because unweighted adjacency values carry no information
(§III-B).  With real edge weights that premise breaks: the ``val`` array is
load-bearing and cannot be dropped, so weighted traversals run on Sell-C-σ
or CSR with explicit values.  This module makes that boundary concrete:

* :func:`sssp_spmv` — Bellman-Ford-style label correcting as repeated
  tropical-semiring SpMV products (the weighted generalization of the
  paper's BFS formulation), on weighted CSR.
* :func:`sssp_dijkstra` — binary-heap Dijkstra, the work-efficient scalar
  baseline (the weighted analog of Trad-BFS).

Both demand non-negative weights and agree exactly; property tests compare
them against ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.bfs.result import BFSResult, IterationStats
from repro.formats.csr import segment_reduce
from repro.graphs.graph import Graph


def expand_edge_weights(graph: Graph, weights: np.ndarray) -> np.ndarray:
    """Per-undirected-edge weights → per-directed-CSR-entry weights.

    ``weights`` is aligned with :meth:`Graph.edges` (canonical u < v rows);
    the result is aligned with ``graph.indices``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    m = graph.m
    if weights.shape != (m,):
        raise ValueError(f"weights must have shape ({m},), got {weights.shape}")
    if not (weights >= 0).all():
        raise ValueError("negative or NaN edge weights are not supported")
    n = graph.n
    e = graph.edges()
    keys = e[:, 0] * np.int64(n) + e[:, 1]
    order = np.argsort(keys)
    keys_sorted, w_sorted = keys[order], weights[order]
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    dst = graph.indices.astype(np.int64)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    idx = np.searchsorted(keys_sorted, lo * np.int64(n) + hi)
    return w_sorted[idx]


def sssp_spmv(graph: Graph, weights: np.ndarray, root: int,
              max_iters: int | None = None) -> BFSResult:
    """Algebraic SSSP: iterate x ← A′ ⊗_T x over the tropical semiring.

    One iteration relaxes every edge once (a full min-plus SpMV); the fixed
    point is the distance vector.  O(D′·m) work where D′ is the weighted
    hop diameter — the weighted analog of the paper's BFS-SpMV trade-off.
    """
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    w = expand_edge_weights(graph, weights)
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    iters: list[IterationStats] = []
    cap = max_iters if max_iters is not None else n + 1
    t0 = time.perf_counter()
    k = 0
    while k < cap:
        k += 1
        t_it = time.perf_counter()
        candidate = segment_reduce(
            np.minimum, w + dist[graph.indices], graph.indptr, np.inf)
        new = np.minimum(dist, candidate)
        changed = int(np.count_nonzero(new < dist))
        dist = new
        iters.append(IterationStats(
            k=k, newly=changed, time_s=time.perf_counter() - t_it,
            edges_examined=int(graph.indices.size), direction="spmv"))
        if changed == 0:
            break
    return BFSResult(
        dist=dist, parent=_weighted_parents(graph, w, dist), root=root,
        method="sssp-spmv", semiring="tropical", representation="csr",
        iterations=iters, total_time_s=time.perf_counter() - t0)


def sssp_dijkstra(graph: Graph, weights: np.ndarray, root: int) -> BFSResult:
    """Binary-heap Dijkstra (the scalar work-efficient baseline)."""
    n = graph.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    w = expand_edge_weights(graph, weights)
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    dist[root] = 0.0
    parent[root] = root
    heap: list[tuple[float, int]] = [(0.0, root)]
    done = np.zeros(n, dtype=bool)
    t0 = time.perf_counter()
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        lo, hi = graph.indptr[v], graph.indptr[v + 1]
        for u, wu in zip(graph.indices[lo:hi], w[lo:hi]):
            nd = d + wu
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, int(u)))
    return BFSResult(
        dist=dist, parent=parent, root=root, method="sssp-dijkstra",
        representation="al", total_time_s=time.perf_counter() - t0)


def _weighted_parents(graph: Graph, w: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Weighted DP: parent of v is a neighbor u with dist[u] + w(u,v) = dist[v]."""
    n = graph.n
    parent = np.full(n, -1, dtype=np.int64)
    roots = dist == 0
    parent[roots] = np.flatnonzero(roots)
    if graph.indices.size:
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
        nbr = graph.indices.astype(np.int64)
        ok = np.isclose(dist[nbr] + w, dist[src]) & np.isfinite(dist[src])
        cand = np.where(ok, nbr, np.int64(-1))
        lengths = np.diff(graph.indptr)
        nonempty = lengths > 0
        best = np.full(n, -1, dtype=np.int64)
        if nonempty.any():
            best[nonempty] = np.maximum.reduceat(
                cand, graph.indptr[:-1][nonempty])
        settle = np.isfinite(dist) & ~roots
        parent[settle] = best[settle]
    return parent
