"""Tests of the weighted Sell-C-σ layout and chunked SSSP."""

import numpy as np
import pytest

from repro.apps.sssp import sssp_dijkstra
from repro.formats.sell import SellCSigma
from repro.formats.weighted import WeightedSellCSigma, sssp_chunked
from repro.graphs.kronecker import kronecker
from repro.semirings.base import get_semiring

from conftest import path_graph, star_graph


class TestLayout:
    def test_weights_land_in_correct_slots(self):
        g = path_graph(4)  # edges (0,1),(1,2),(2,3); edge i is (i, i+1)
        w = np.array([10.0, 20.0, 30.0])
        rep = WeightedSellCSigma(g, w, C=4, sigma=1)
        val = rep.val_for(get_semiring("tropical"))
        lay = rep._layout
        # Every stored entry carries the weight of its undirected edge.
        for slot in np.flatnonzero(lay.col != -1):
            chunk = int(np.searchsorted(rep.cs, slot, side="right") - 1)
            row_p = chunk * rep.C + (slot - rep.cs[chunk]) % rep.C
            u = int(rep.iperm[row_p])
            v = int(rep.iperm[lay.col[slot]])
            assert val[slot] == w[min(u, v)]

    def test_padding_is_inf(self):
        g = star_graph(5)
        rep = WeightedSellCSigma(g, np.ones(4), C=8, sigma=5)
        val = rep.val_for(get_semiring("tropical"))
        assert np.isinf(val[rep._layout.col == -1]).all()

    def test_storage_matches_sell(self):
        g = kronecker(8, 4, seed=0)
        w = np.ones(g.m)
        weighted = WeightedSellCSigma(g, w, C=8, sigma=g.n)
        plain = SellCSigma(g, C=8, sigma=g.n)
        # No SlimSell saving available: full Sell-C-σ footprint.
        assert weighted.storage_cells() == plain.storage_cells()

    def test_wrong_weight_shape_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="shape"):
            WeightedSellCSigma(g, np.ones(5), C=4)

    def test_negative_weights_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="negative"):
            WeightedSellCSigma(g, np.array([1.0, -1.0, 1.0]), C=4)
        with pytest.raises(ValueError, match="negative"):
            WeightedSellCSigma(g, np.array([1.0, np.nan, 1.0]), C=4)

    def test_non_tropical_semiring_rejected(self):
        g = path_graph(3)
        rep = WeightedSellCSigma(g, np.ones(2), C=4)
        with pytest.raises(ValueError, match="tropical"):
            rep.val_for(get_semiring("boolean"))


class TestChunkedSSSP:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("C", [4, 8, 16])
    def test_matches_dijkstra(self, seed, C):
        g = kronecker(8, 6, seed=seed)
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 5.0, size=g.m)
        rep = WeightedSellCSigma(g, w, C=C, sigma=g.n)
        root = int(np.argmax(g.degrees))
        a = sssp_chunked(rep, root)
        b = sssp_dijkstra(g, w, root)
        fin = np.isfinite(a.dist)
        assert np.array_equal(fin, np.isfinite(b.dist))
        np.testing.assert_allclose(a.dist[fin], b.dist[fin])

    def test_unit_weights_reduce_to_bfs(self, kron_small):
        from repro.bfs.validate import reference_distances

        g = kron_small
        rep = WeightedSellCSigma(g, np.ones(g.m), C=8, sigma=g.n)
        res = sssp_chunked(rep, 7)
        ref = reference_distances(g, 7)
        same = (res.dist == ref) | (np.isinf(res.dist) & np.isinf(ref))
        assert same.all()

    def test_sigma_invariance(self):
        g = kronecker(7, 4, seed=4)
        w = np.random.default_rng(4).uniform(0.5, 2.0, size=g.m)
        a = sssp_chunked(WeightedSellCSigma(g, w, C=4, sigma=1), 0)
        b = sssp_chunked(WeightedSellCSigma(g, w, C=4, sigma=g.n), 0)
        fin = np.isfinite(a.dist)
        np.testing.assert_allclose(a.dist[fin], b.dist[fin])

    def test_root_out_of_range(self):
        g = path_graph(3)
        rep = WeightedSellCSigma(g, np.ones(2), C=4)
        with pytest.raises(ValueError, match="out of range"):
            sssp_chunked(rep, 9)
