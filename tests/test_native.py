"""The native C layer-sweep kernel against its numpy oracle, bit for bit.

``repro.bfs.native`` compiles one C loop per semiring ``(⊕, ⊗)`` pair and
``sweep_band_layers`` hands sweeps to it; the numpy loop stays as the
fallback and the oracle.  These tests run the same inputs under both
kernels and require identical bits — raw sweep outputs (signed zeros and
``±inf`` included; NaN payloads excepted, see :func:`bits`), every engine of ``all_bfs_engines()``
with its per-iteration stats, weighted min-plus SSSP and ``SlimSpMV``
sums — plus the build cache and the fallback when no compiler works.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engines import all_bfs_engines
from repro.bfs import native
from repro.bfs.msbfs import (
    MultiSourceBFS,
    bfs_msbfs,
    spmm_layer_sweep,
    sweep_band_layers,
)
from repro.bfs.operator import SlimSpMV
from repro.dist.partition import Partition1D
from repro.exec import ExecMultiSourceBFS
from repro.formats.sell import SellCSigma
from repro.formats.slimsell import SlimSell
from repro.formats.weighted import WeightedSellCSigma, sssp_chunked
from repro.graphs.graph import Graph
from repro.graphs.kronecker import kronecker
from repro.obs.metrics import MetricsRegistry
from repro.semirings.base import get_semiring
from repro.serve.server import Server

SEMIRINGS = ("tropical", "real", "boolean", "sel-max")
WIDTHS = (1, 2, 3, 16, 64)
SETTINGS = dict(deadline=None, max_examples=30,
                suppress_health_check=[HealthCheck.too_slow])
#: Values that separate IEEE corner cases: signed zeros, infinities and
#: NaNs with two different payloads.
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 7.0, np.inf, -np.inf, np.nan,
                    np.array([0x7FF8000000000123]).view(np.float64)[0]])


def _require_native() -> None:
    """Skip when no native kernel can be built — except under
    ``REPRO_KERNEL=native``, where the whole point is that it must."""
    try:
        native.build()
    except native.NativeKernelError as exc:
        if os.environ.get("REPRO_KERNEL") == "native":
            raise
        pytest.skip(f"native kernel unavailable: {exc}")


@pytest.fixture(autouse=True)
def _restore_kernel():
    """Put the process-wide selection and loaded library back as found."""
    prev = native._kernel, native._loaded
    yield
    native._kernel, native._loaded = prev


def under(kernel: str, fn):
    # The IEEE corner values make numpy warn about inf - inf and 0 * inf.
    with native.use_kernel(kernel), np.errstate(invalid="ignore"):
        return fn()


def both(fn):
    """``fn()`` under the numpy kernel, then under the native kernel."""
    _require_native()
    return under("numpy", fn), under("native", fn)


def bits(a) -> np.ndarray:
    """Exact bit patterns, with every NaN mapped to one canonical NaN.

    NaN payloads are outside the contract: numpy's own ``add`` and
    ``multiply`` return either NaN operand's payload depending on which
    SIMD path handles the element, so two numpy calls disagree too.
    Everything else — signed zeros, infinities, every finite bit — must
    match.
    """
    a = np.asarray(a)
    if a.dtype != np.float64:
        return a
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


def assert_bits_equal(a, b, msg: str = "") -> None:
    np.testing.assert_array_equal(bits(a), bits(b), err_msg=msg)


def iter_key(res) -> list[tuple]:
    return [(s.k, s.newly, s.chunks_processed, s.chunks_skipped,
             s.work_lanes, s.edges_examined, s.direction)
            for s in res.iterations]


def assert_results_equal(a_list, b_list, msg: str = "",
                         same_method: bool = True) -> None:
    assert len(a_list) == len(b_list)
    for a, b in zip(a_list, b_list):
        assert a.root == b.root, msg
        assert a.method == b.method or not same_method, msg
        assert_bits_equal(a.dist, b.dist, msg)
        if a.parent is None:
            assert b.parent is None, msg
        else:
            assert_bits_equal(a.parent, b.parent, msg)
        assert iter_key(a) == iter_key(b), msg


@st.composite
def graphs(draw, max_n=48, max_m=160):
    """Random graphs including the adversarial shapes: no edges at all,
    isolated vertices, self-loops and duplicate edges in the edge list."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    if m and draw(st.booleans()):
        # Self-loops and repeated (also reversed) edges.
        extra = edges[: max(1, m // 4)]
        loops = np.stack([extra[:, 0], extra[:, 0]], axis=1)
        edges = np.concatenate([edges, extra[:, ::-1], loops])
    return Graph.from_edges(n, edges)


# ----------------------------------------------------------------------
# The raw sweep
# ----------------------------------------------------------------------
class TestSweepBitIdentity:
    @given(g=graphs(), semiring=st.sampled_from(SEMIRINGS),
           W=st.sampled_from(WIDTHS), C=st.sampled_from([1, 2, 4, 8, 16]),
           slim=st.booleans(), band=st.booleans(),
           noncontig=st.booleans(), seed=st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_sweep_band_layers(self, g, semiring, W, C, slim, band,
                               noncontig, seed):
        rep = (SlimSell if slim else SellCSigma)(g, C, g.n)
        sr = get_semiring(semiring)
        rng = np.random.default_rng(seed)
        shape = (rep.N,) if W == 1 else (rep.N, W)
        f = rng.choice(SPECIAL, size=shape)
        if noncontig:
            # Same values, strided storage (every other column/element).
            wide = np.empty(shape[:-1] + (2 * shape[-1],))
            if W == 1:
                wide[::2] = f
                f = wide[::2]
            else:
                wide[:, ::2] = f
                f = wide[:, ::2]
        # SlimSell's -1 marker reads f[N-1]: make that row a NaN so a
        # wrong index (or a skipped read) changes the output bits.
        f[-1] = np.nan
        act = np.flatnonzero(rng.random(rep.nc) < 0.7)
        if band:
            # One worker's row band: a random chunk subset, band-local
            # output positions (the executed backend's act_out).
            chunks = np.flatnonzero(rng.random(rep.nc) < 0.5)
            act = act[np.isin(act, chunks)]
            act_out = np.searchsorted(chunks, act)
            rows = (chunks[:, None] * C + np.arange(C)).ravel()
            x_shape = (chunks.size, C) + (() if W == 1 else (W,))
        else:
            act_out = None
            rows = np.arange(rep.N)
            x_shape = (rep.nc, C) + (() if W == 1 else (W,))

        def run():
            x = np.ascontiguousarray(f[rows]).reshape(x_shape)
            prof = []
            sweep_band_layers(sr, C, rep.col64, rep.val_for(sr), rep.cs,
                              rep.cl, f, x, act, act_out, profile=prof)
            return x, prof

        (xa, pa), (xb, pb) = both(run)
        assert_bits_equal(xa, xb, f"{semiring} W={W} C={C}")
        assert pa == pb

    @pytest.mark.parametrize("W", WIDTHS)
    @pytest.mark.parametrize("semiring", SEMIRINGS)
    def test_kronecker_all_chunks(self, semiring, W):
        g = kronecker(9, 8, seed=W)
        rep = SlimSell(g, 16, g.n)
        sr = get_semiring(semiring)
        rng = np.random.default_rng(W)
        f = rng.choice(SPECIAL, size=(rep.N, W))
        act = np.arange(rep.nc)

        def run():
            x = f.copy()
            spmm_layer_sweep(rep, sr, f, x, act)
            return x

        a, b = both(run)
        assert_bits_equal(a, b)

    def test_maximum_ties_follow_numpy(self):
        # np.maximum/np.minimum return their second argument on a tie,
        # which decides the sign of a zero: max(+0.0, -0.0) is -0.0.
        _require_native()
        g = Graph.from_edges(2, [(0, 1)])
        rep = SellCSigma(g, 2, 2)
        sr = get_semiring("sel-max")
        f = np.array([-0.0, -0.0])  # each row's contribution: 1 * -0.0
        for kernel in ("numpy", "native"):
            x = np.array([0.0, 0.0])
            with native.use_kernel(kernel):
                spmm_layer_sweep(rep, sr, f, x, np.arange(rep.nc))
            assert np.signbit(x).all(), kernel

    def test_ineligible_inputs_use_numpy(self):
        _require_native()
        g = kronecker(6, 4, seed=1)
        rep = SlimSell(g, 8, g.n)
        sr = get_semiring("tropical")
        f = np.zeros(rep.N)
        x = f.reshape(rep.nc, 8)  # aliases f: the C loop must decline
        act = np.arange(rep.nc)
        with native.use_kernel("native"):
            assert not native.sweep(sr, 8, rep.col64, rep.val_for(sr),
                                    rep.cs, rep.cl, f, x, act, act)
            x32 = np.zeros((rep.nc, 8), dtype=np.float32)
            assert not native.sweep(sr, 8, rep.col64, rep.val_for(sr),
                                    rep.cs, rep.cl, f, x32, act, act)
            bad = np.array([rep.nc])  # out of range: numpy raises
            assert not native.sweep(sr, 8, rep.col64, rep.val_for(sr),
                                    rep.cs, rep.cl, f, np.zeros_like(x),
                                    bad, bad)
            ok = np.zeros((rep.nc, 8))
            assert native.sweep(sr, 8, rep.col64, rep.val_for(sr), rep.cs,
                                rep.cl, f, ok, act, act)


# ----------------------------------------------------------------------
# Every engine, end to end
# ----------------------------------------------------------------------
class TestEnginesBitIdentity:
    @given(g=graphs(max_n=40, max_m=120), semiring=st.sampled_from(SEMIRINGS),
           nroots=st.integers(1, 70), slimwork=st.booleans(),
           workers=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    @settings(**dict(SETTINGS, max_examples=15))
    def test_all_bfs_engines(self, g, semiring, nroots, slimwork, workers,
                             seed):
        # nroots may exceed n: duplicate roots, batches wider than the graph.
        roots = np.random.default_rng(seed).integers(0, g.n, nroots)
        rep = SlimSell(g, 4, g.n)
        specs = all_bfs_engines(semiring, slimwork=slimwork,
                                exec_workers=workers)

        def run():
            return {name: spec.run(g, rep, roots)
                    for name, spec in specs.items()
                    if semiring in spec.semirings}

        a, b = both(run)
        for name in a:
            assert_results_equal(a[name], b[name], f"{name} {semiring}")

    @given(g=graphs(max_n=64, max_m=200), semiring=st.sampled_from(SEMIRINGS),
           ranks=st.integers(1, 4), backend=st.sampled_from(["serial",
                                                             "threads"]),
           seed=st.integers(0, 2**31 - 1))
    @settings(**dict(SETTINGS, max_examples=15))
    def test_exec_random_partitions(self, g, semiring, ranks, backend, seed):
        rng = np.random.default_rng(seed)
        rep = SlimSell(g, 4, g.n)
        part = Partition1D(rng.integers(0, ranks, rep.nc), ranks)
        roots = rng.integers(0, g.n, 8)

        def run():
            with ExecMultiSourceBFS(rep, semiring, workers=ranks,
                                    backend=backend, partition=part,
                                    slimwork=True) as eng:
                return eng.run(roots)

        a, b = both(run)
        assert_results_equal(a, b)
        assert_results_equal(
            a, under("numpy", lambda: MultiSourceBFS(
                rep, semiring, slimwork=True).run(roots)), same_method=False)

    @pytest.mark.parametrize("batch", [1, 3, 16, 200])
    def test_batch_wider_than_roots(self, batch):
        g = kronecker(8, 8, seed=3)
        roots = np.arange(0, g.n, 37)
        a, b = both(lambda: bfs_msbfs(g, roots, "sel-max", C=8,
                                      slimwork=True, batch=batch))
        assert_results_equal(a, b)

    def test_empty_graph_and_isolated_roots(self):
        g = Graph.from_edges(10, np.zeros((0, 2), dtype=np.int64))
        for semiring in SEMIRINGS:
            a, b = both(lambda: MultiSourceBFS(
                SlimSell(g, 4, g.n), semiring, slimwork=True).run(range(10)))
            assert_results_equal(a, b, semiring)

    def test_traced_profile_matches(self):
        # Both kernels fill the profile hook from the same live counts, so
        # traced layer spans carry the same attributes.
        from repro.obs.trace import Tracer

        g = kronecker(9, 8, seed=2)
        rep = SlimSell(g, 16, g.n)

        def run():
            eng = MultiSourceBFS(rep, "sel-max", slimwork=True)
            eng.tracer = Tracer()
            eng.run(np.arange(0, g.n, 50))
            return [(s.name, s.attrs.get("column_layers"),
                     s.attrs.get("live_chunk_layers"))
                    for s in eng.tracer.spans]

        a, b = both(run)
        assert a == b
        assert any(cols for _, cols, _ in a)


# ----------------------------------------------------------------------
# The other sweep callers: weighted min-plus and SlimSpMV
# ----------------------------------------------------------------------
class TestOtherCallers:
    @given(g=graphs(max_n=40, max_m=150), seed=st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_weighted_min_plus(self, g, seed):
        rng = np.random.default_rng(seed)
        weights = rng.choice([0.0, 0.5, 1.0, 3.25, 1e-3, np.inf], g.m)
        rep = WeightedSellCSigma(g, weights, 4)
        root = int(rng.integers(0, g.n))
        a, b = both(lambda: sssp_chunked(rep, root))
        assert_bits_equal(a.dist, b.dist)
        assert_bits_equal(a.parent, b.parent)
        assert [s.newly for s in a.iterations] == \
            [s.newly for s in b.iterations]

    @given(g=graphs(max_n=40, max_m=150), semiring=st.sampled_from(SEMIRINGS),
           W=st.sampled_from(WIDTHS), slim=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_slimspmv(self, g, semiring, W, slim, seed):
        rng = np.random.default_rng(seed)
        rep = (SlimSell if slim else SellCSigma)(g, 4, g.n)
        op = SlimSpMV(rep, semiring)
        # Real sums in arbitrary order-sensitive magnitudes, plus the
        # IEEE corner values.
        X = np.where(rng.random((g.n, W)) < 0.3,
                     rng.choice(SPECIAL, (g.n, W)),
                     rng.standard_normal((g.n, W)) * 10.0 ** rng.integers(
                         -8, 9, (g.n, W)))
        a, b = both(lambda: op.matmat(X))
        assert_bits_equal(a, b)


# ----------------------------------------------------------------------
# Selection, build cache and fallback
# ----------------------------------------------------------------------
def _bfs_small():
    g = kronecker(7, 8, seed=5)
    return MultiSourceBFS(SlimSell(g, 8, g.n), "sel-max",
                          slimwork=True).run([0, 5, 9])


class TestSelectionAndFallback:
    def test_set_kernel_validates_and_returns_previous(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            native.set_kernel("fortran")
        prev = native.set_kernel("numpy")
        assert native.set_kernel(prev) == "numpy"
        with native.use_kernel("numpy"):
            assert native.kernel_impl() == "numpy"

    def test_native_selected_reports_native(self):
        _require_native()
        with native.use_kernel("native"):
            assert native.kernel_impl() == "native"
            srv = Server(SlimSell(kronecker(6, 4, seed=1), 8))
            assert srv.metrics.value("kernel.native") == 1

    def test_no_compiler_falls_back_once(self, monkeypatch, tmp_path):
        expected = under("numpy", _bfs_small)
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        native._reset()
        native.set_kernel("auto")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _bfs_small()
            again = _bfs_small()
            impl = native.kernel_impl()
        unavailable = [w for w in caught
                       if "native layer-sweep kernel unavailable"
                       in str(w.message)]
        assert len(unavailable) == 1
        assert impl == "numpy"
        assert_results_equal(expected, got)
        assert_results_equal(expected, again)
        reg = MetricsRegistry()
        eng = ExecMultiSourceBFS(SlimSell(kronecker(6, 4, seed=1), 8),
                                 "sel-max", workers=2)
        eng.metrics = reg
        assert reg.value("kernel.native") == 0
        srv = Server(SlimSell(kronecker(6, 4, seed=1), 8))
        assert srv.metrics.value("kernel.native") == 0
        # Requiring the native kernel fails loudly and changes nothing.
        with pytest.raises(native.NativeKernelError, match="false"):
            native.set_kernel("native")
        assert native._kernel == "auto"

    def test_native_env_without_compiler_raises_at_first_sweep(self,
                                                                tmp_path):
        env = dict(os.environ, CC="/bin/false", REPRO_KERNEL="native",
                   XDG_CACHE_HOME=str(tmp_path))
        src = os.path.join(os.path.dirname(native.__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(src)
        code = ("import repro, repro.bfs.native as nk, numpy as np\n"
                "from repro.bfs.msbfs import bfs_msbfs\n"
                "from repro.graphs.kronecker import kronecker\n"
                "print('imported')\n"
                "try:\n"
                "    bfs_msbfs(kronecker(5, 4, seed=1), [0])\n"
                "except nk.NativeKernelError as e:\n"
                "    print('raised', e)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "imported" in out.stdout
        assert "raised REPRO_KERNEL=native" in out.stdout

    def test_cached_library_is_reused_without_compiler(self, monkeypatch,
                                                       tmp_path):
        _require_native()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = native.build()
        assert path.parent == tmp_path / "repro"
        mtime = path.stat().st_mtime_ns
        monkeypatch.setenv("CC", "/bin/false")
        native._reset()
        assert native.build() == path
        native.set_kernel("native")  # loads: would raise if it compiled
        assert native.kernel_impl() == "native"
        assert path.stat().st_mtime_ns == mtime
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_unwritable_cache_falls_back_to_temp(self, monkeypatch,
                                                 tmp_path):
        _require_native()
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")  # a file where the cache dir would go
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        path = native.build()
        assert path.parent.parent == tmp_path / "tmp"
        native._reset()
        native.set_kernel("native")
        assert native.kernel_impl() == "native"
