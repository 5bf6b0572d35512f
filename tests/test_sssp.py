"""Tests of weighted SSSP (the boundary where SlimSell's trick stops)."""

import numpy as np
import pytest

from repro.apps.sssp import expand_edge_weights, sssp_dijkstra, sssp_spmv
from repro.graphs.graph import Graph
from repro.graphs.kronecker import kronecker

from conftest import cycle_graph, path_graph, two_components


def scipy_reference(g: Graph, weights: np.ndarray, root: int) -> np.ndarray:
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    w = expand_edge_weights(g, weights)
    mat = sp.csr_matrix((w, g.indices, g.indptr), shape=(g.n, g.n))
    return dijkstra(mat, directed=False, indices=root)


class TestExpandWeights:
    def test_symmetric_expansion(self):
        g = path_graph(3)  # edges (0,1), (1,2)
        w = np.array([2.0, 5.0])
        wd = expand_edge_weights(g, w)
        # indices: [1 | 0, 2 | 1] -> weights [2 | 2, 5 | 5]
        assert wd.tolist() == [2.0, 2.0, 5.0, 5.0]

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            expand_edge_weights(path_graph(3), np.ones(5))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            expand_edge_weights(path_graph(3), np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="negative"):
            expand_edge_weights(path_graph(3), np.array([1.0, np.nan]))


class TestAgainstReferences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spmv_matches_scipy_on_kronecker(self, seed):
        g = kronecker(8, 6, seed=seed)
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 10.0, size=g.m)
        root = int(np.argmax(g.degrees))
        got = sssp_spmv(g, w, root).dist
        want = scipy_reference(g, w, root)
        fin = np.isfinite(want)
        np.testing.assert_allclose(got[fin], want[fin])
        assert np.isinf(got[~fin]).all()

    def test_dijkstra_matches_spmv(self, kron_small):
        g = kron_small
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 3.0, size=g.m)
        a = sssp_spmv(g, w, 0)
        b = sssp_dijkstra(g, w, 0)
        fin = np.isfinite(a.dist)
        np.testing.assert_allclose(a.dist[fin], b.dist[fin])

    def test_unit_weights_reduce_to_bfs(self):
        from repro.bfs.traditional import bfs_serial

        g = cycle_graph(9)
        res = sssp_spmv(g, np.ones(g.m), 0)
        np.testing.assert_array_equal(res.dist, bfs_serial(g, 0).dist)

    def test_shortcut_taken_over_fewer_hops(self):
        # Triangle with a heavy direct edge: the 2-hop route wins.
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        w_by_edge = {(0, 1): 1.0, (0, 2): 10.0, (1, 2): 1.0}
        w = np.array([w_by_edge[tuple(e)] for e in g.edges().tolist()])
        res = sssp_spmv(g, w, 0)
        assert res.dist[2] == 2.0
        assert res.parent[2] == 1


class TestSemantics:
    def test_parents_form_shortest_path_tree(self, kron_small):
        g = kron_small
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 2.0, size=g.m)
        res = sssp_spmv(g, w, 5)
        wd = expand_edge_weights(g, w)
        for v in np.flatnonzero(np.isfinite(res.dist))[:50]:
            p = int(res.parent[v])
            if v == 5:
                assert p == 5
            else:
                assert g.has_edge(int(v), p)
                # Tree edge lies on a shortest path: dist[p] + w(p,v) = dist[v].
                slot = g.indptr[v] + np.searchsorted(g.neighbors(int(v)), p)
                assert res.dist[p] + wd[slot] == pytest.approx(res.dist[v])

    def test_disconnected(self):
        g = two_components()
        res = sssp_spmv(g, np.ones(g.m), 0)
        assert np.isinf(res.dist[4:]).all()

    def test_iteration_count_bounded_by_weighted_depth(self):
        g = path_graph(12)
        res = sssp_spmv(g, np.ones(11), 0)
        # Converges in depth + 1 sweeps (the no-change detection sweep).
        assert res.n_iterations == 12

    def test_root_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sssp_spmv(path_graph(3), np.ones(2), 5)
        with pytest.raises(ValueError, match="out of range"):
            sssp_dijkstra(path_graph(3), np.ones(2), -1)
