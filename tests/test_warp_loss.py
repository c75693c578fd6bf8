"""Warping, field resampling, and the similarity + smoothness objective."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from moco4d import autodiff as ad
from moco4d import losses
from moco4d import pool
from moco4d.errors import DimensionError, NumericError
from moco4d.losses import local_ncc, local_ncc_map, loss_terms, smoothness
from moco4d.phantom import endpoint_error
from moco4d.series import FrameSeries
from moco4d.warping import DisplacementField, resample_field, warp_series

from gradcheck import grad_check
from oracles import shift_volume, smoothness_naive, warp_trilinear_naive
from pooled import Submissions, record_pool_thread_calls


@pytest.fixture
def window3(monkeypatch):
    """A 3-voxel NCC window, for grids smaller than the job's 9 voxels."""
    monkeypatch.setattr(losses, "NCC_WINDOW", 3)


class TestWarp:
    def test_zero_field_identity_bit_exact(self):
        rng = np.random.default_rng(0)
        vol = rng.normal(size=(5, 6, 7)).astype(np.float32)
        out = ad.warp(vol, ad.constant(np.zeros((3, 5, 6, 7), dtype=np.float32))).data
        assert np.array_equal(out, vol)

    @pytest.mark.parametrize("shift", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 0)])
    def test_integer_shift_matches_index_oracle(self, shift):
        rng = np.random.default_rng(1)
        vol = rng.normal(size=(6, 6, 6))
        field = np.zeros((3, 6, 6, 6))
        for a in range(3):
            field[a] = shift[a]
        out = ad.warp(vol, ad.constant(field)).data
        want = shift_volume(vol, *shift)
        assert np.array_equal(out, want)

    def test_half_step_on_linear_ramp(self):
        W = 8
        vol = np.broadcast_to(np.arange(W, dtype=np.float64), (4, 4, W)).copy()
        field = np.zeros((3, 4, 4, W))
        field[2] = 0.5
        out = ad.warp(vol, ad.constant(field)).data
        np.testing.assert_allclose(out[:, :, :W - 1],
                                   vol[:, :, :W - 1] + 0.5, rtol=0, atol=1e-12)

    def test_linearity_in_volume(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 5))
        y = rng.normal(size=(5, 5, 5))
        field = rng.uniform(-1.5, 1.5, size=(3, 5, 5, 5))
        a, b = 2.5, -1.25
        field = ad.constant(field)
        lhs = ad.warp(a * x + b * y, field).data
        rhs = a * ad.warp(x, field).data + b * ad.warp(y, field).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(DimensionError):
            ad.warp(np.zeros((4, 4, 4)), ad.constant(np.zeros((3, 5, 4, 4))))

    def test_out_of_bounds_reads_zero(self):
        vol = np.ones((4, 4, 4))
        field = np.zeros((3, 4, 4, 4))
        field[0] = 10.0
        assert np.all(ad.warp(vol, ad.constant(field)).data == 0.0)

    # a grid the warp takes in two z-slabs, the second one partial
    MULTI_SLAB = (7, 48, 64)

    @pytest.mark.parametrize("grid", [(5, 6, 7), MULTI_SLAB])
    def test_matches_trilinear_oracle(self, grid):
        if grid == self.MULTI_SLAB:
            assert np.prod(grid) < pool.POOLED_MIN_VOXELS
            assert grid[0] > ad._WARP_SLAB_VOXELS // (grid[1] * grid[2]) >= 1
        rng = np.random.default_rng(15)
        vol = rng.normal(size=grid)
        # displacements in +-3 send many samples, and corners, out of the volume
        field = rng.uniform(-3.0, 3.0, size=(3, *grid))
        got = ad.warp(vol, ad.constant(field)).data
        assert np.abs(got - warp_trilinear_naive(vol, field)).max() <= 1e-12

    def test_float32_rounds_each_corner_term(self):
        # float32 volumes round every corner's float64 term to float32 and sum
        # in float32, in z-major corner order: earlier float32 warps repeat
        # bit for bit
        rng = np.random.default_rng(17)
        vol = rng.normal(size=(5, 6, 7)).astype(np.float32)
        field = rng.uniform(-3.0, 3.0, size=(3, 5, 6, 7)).astype(np.float32)
        assert np.array_equal(ad.warp(vol, ad.constant(field)).data, warp_trilinear_naive(vol, field))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_channels_bit_identical_to_single_warps(self, dtype):
        rng = np.random.default_rng(16)
        vols = rng.normal(size=(3, *self.MULTI_SLAB)).astype(dtype)
        field = rng.uniform(-3.0, 3.0, size=(3, *self.MULTI_SLAB)).astype(dtype)
        field = ad.constant(field)
        got = ad.warp(vols, field).data
        assert got.dtype == dtype
        for c in range(3):
            assert np.array_equal(got[c], ad.warp(vols[c], field).data)

    def test_volume_rank_rejected(self):
        with pytest.raises(DimensionError):
            ad.warp(np.zeros((1, 2, 4, 4, 4)), ad.constant(np.zeros((3, 4, 4, 4))))
        with pytest.raises(DimensionError):
            ad.warp(np.zeros((2, 4, 4, 4)), ad.constant(np.zeros((3, 4, 4, 5))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, bad):
        field = np.zeros((3, 4, 5, 6))
        field[1, 2, 3, 4] = bad
        with pytest.raises(NumericError):
            ad.warp(np.ones((4, 5, 6)), ad.constant(field))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_samples_match_trilinear_oracle(self, dtype):
        # sample positions exactly at the clamp bounds -2 and n, at the volume
        # edges -1 and n - 1, half a voxel in, and far beyond either side
        grid = (5, 6, 7)
        rng = np.random.default_rng(21)
        vol = -np.abs(rng.normal(size=grid)).astype(dtype) - 0.5
        field = np.zeros((3, *grid))
        for a, n in enumerate(grid):
            targets = np.array([-2.0, -1.0, n - 1.0, n - 0.5, n, -n - 0.5, 2.0 * n,
                                -2.5, n + 0.5, 1.25])
            coord = np.arange(n).reshape([-1 if i == a else 1 for i in range(3)])
            field[a] = rng.choice(targets, size=grid) - coord
        field = field.astype(dtype)
        got, want = ad.warp(vol, ad.constant(field)).data, warp_trilinear_naive(vol, field)
        if dtype == np.float32:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12

    def test_field_grad_beyond_the_volume_edges(self):
        # samples in (-2, -1) and past n have both neighbours outside the
        # volume: a zero field gradient; those in (-1, 0) and (n - 1, n)
        # keep one neighbour inside
        grid = (4, 5, 6)
        rng = np.random.default_rng(22)
        vol = rng.normal(size=grid)
        field = np.zeros((3, *grid))
        for a, n in enumerate(grid):
            targets = np.array([-1.7, -1.3, -0.6, -0.3, n - 0.7, n - 0.2, n + 0.4,
                                n + 1.6, 1.4])
            coord = np.arange(n).reshape([-1 if i == a else 1 for i in range(3)])
            field[a] = rng.choice(targets, size=grid) - coord
        weights = ad.constant(rng.normal(size=grid))
        params = {"field": ad.param("field", field)}

        def f(p):
            return ad.sum_all(ad.mul(ad.warp(vol, p["field"]), weights))

        err = grad_check(f, params, h=1e-4, samples=field.size, rng=rng)
        assert err <= 1e-6


class TestPooledWarp:
    # over pool.POOLED_MIN_VOXELS: five pooled slabs, the last one partial
    GRID = (33, 64, 64)

    def _case(self, seed, dtype, channels=1, grid=GRID):
        rng = np.random.default_rng(seed)
        vol = rng.normal(size=grid if channels == 1 else (channels, *grid)).astype(dtype)
        field = rng.uniform(-3.0, 3.0, size=(3, *grid)).astype(dtype)
        return vol, field

    def _field_grad(self, vol, field, weights):
        with ad.Tape() as tape:
            p = ad.param("field", field)
            loss = ad.sum_all(ad.mul(ad.warp(vol, p), weights))
        return ad.backward(tape, loss)["field"]

    def test_grid_spans_several_pooled_slabs(self):
        slabs, pooled, _ = ad._warp_slabs(self.GRID)
        assert pooled and len(slabs) > 2 and slabs[-1].stop - slabs[-1].start < slabs[0].stop

    @pytest.mark.parametrize("dtype, channels", [(np.float32, 1), (np.float64, 3)])
    def test_forward_matches_inline_bit_for_bit(self, monkeypatch, dtype, channels):
        vol, field = self._case(30, dtype, channels)
        got = ad.warp(vol, ad.constant(field)).data
        monkeypatch.setattr(pool, "WORKERS", 1)
        want = ad.warp(vol, ad.constant(field)).data
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_field_vjp_matches_inline_bit_for_bit(self, monkeypatch, dtype):
        vol, field = self._case(31, dtype)
        weights = ad.constant(np.random.default_rng(32).normal(size=self.GRID).astype(dtype))
        got = self._field_grad(vol, field, weights)
        monkeypatch.setattr(pool, "WORKERS", 1)
        want = self._field_grad(vol, field, weights)
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("grid, pooled", [((31, 64, 64), False), ((32, 64, 64), True)])
    def test_pool_runs_grids_from_the_threshold_up(self, monkeypatch, grid, pooled):
        assert (np.prod(grid) >= pool.POOLED_MIN_VOXELS) == pooled
        monkeypatch.setattr(pool, "WORKERS", max(2, pool.WORKERS))
        submissions = Submissions(monkeypatch)
        vol, field = self._case(33, np.float32, grid=grid)
        self._field_grad(vol, field, ad.constant(np.ones(grid, np.float32)))
        assert (submissions.total > 0) == pooled

    def test_taped_pooled_warp_is_one_node(self):
        vol, field = self._case(34, np.float32)
        with ad.Tape() as tape:
            ad.warp(vol, ad.param("field", field))
        assert len(tape.nodes) == 1 and tape.nodes[0].op == "warp"

    def test_pool_threads_build_no_tensor_and_call_no_public_function(self, monkeypatch):
        monkeypatch.setattr(pool, "WORKERS", max(2, pool.WORKERS))
        submissions = Submissions(monkeypatch)
        calls = record_pool_thread_calls(monkeypatch)
        vol, field = self._case(35, np.float32)
        self._field_grad(vol, field, ad.constant(np.ones(self.GRID, np.float32)))
        assert submissions.total > 0 and calls == []

    def test_call_from_a_pool_thread_runs_inline(self, monkeypatch):
        submissions = Submissions(monkeypatch)
        vol, field = self._case(36, np.float64, 3)
        weights = ad.constant(np.ones(self.GRID))
        want = ad.warp(vol, ad.constant(field)).data, self._field_grad(vol[0], field, weights)
        got = pool._POOL.submit(lambda: (ad.warp(vol, ad.constant(field)).data,
                                         self._field_grad(vol[0], field, weights)))
        got = got.result(timeout=120)
        assert submissions.from_workers == 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_concurrent_callers_match_inline(self, monkeypatch):
        # more tasks than pool threads, from several callers at once, with
        # frequent thread switches: a slab written twice or lost shows
        monkeypatch.setattr(pool, "WORKERS", 4 * pool.WORKERS)
        cases = [self._case(40 + k, np.float32) for k in range(4)]
        got = [None] * len(cases)

        def call(k):
            vol, field = cases[k]
            got[k] = ad.warp(vol, ad.constant(field)).data

        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        monkeypatch.setattr(pool, "WORKERS", 1)
        for (vol, field), out in zip(cases, got):
            assert np.array_equal(out, ad.warp(vol, ad.constant(field)).data)

    def test_import_without_sched_getaffinity(self):
        # macOS and Windows have no os.sched_getaffinity: the pool sizes
        # itself from os.cpu_count, and a pooled warp still matches inline
        script = f"""
import os
del os.sched_getaffinity
import numpy as np
from moco4d import autodiff as ad, pool
assert pool.WORKERS >= 1, pool.WORKERS
rng = np.random.default_rng(37)
vol = rng.normal(size={self.GRID}).astype(np.float32)
field = rng.uniform(-3.0, 3.0, size=(3, *{self.GRID})).astype(np.float32)
got = ad.warp(vol, ad.constant(field)).data
pool.WORKERS = 1
assert np.array_equal(got, ad.warp(vol, ad.constant(field)).data)
"""
        src = str(Path(ad.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestWarpSeries:
    GRID = (5, 6, 7)

    def _series(self, rng):
        data = rng.normal(size=(3, *self.GRID)).astype(np.float32)
        return FrameSeries(data, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_warps_each_frame_by_its_field(self):
        rng = np.random.default_rng(23)
        series = self._series(rng)
        before = series.data.copy()
        fields = [DisplacementField(rng.uniform(-2.0, 2.0, size=(3, *self.GRID)))
                  for _ in range(series.frames)]
        out = warp_series(series, fields)
        assert out.data.dtype == np.float32
        for t, fld in enumerate(fields):
            assert np.array_equal(out.data[t], ad.warp(series.data[t], ad.constant(fld.data)).data)
        assert np.array_equal(series.data, before)
        assert np.array_equal(out.mid_times, series.mid_times)

    def test_zero_field_frame_passes_through_bit_for_bit(self):
        rng = np.random.default_rng(24)
        series = self._series(rng)
        series.data[1, 0, 0, 0] = -0.0       # a warp would add +0.0 to it
        fields = [DisplacementField(np.zeros((3, *self.GRID), dtype=np.float32))
                  for _ in range(series.frames)]
        fields[2] = DisplacementField(np.full((3, *self.GRID), 0.5, dtype=np.float32))
        out = warp_series(series, fields)
        assert out.data[:2].tobytes() == series.data[:2].tobytes()
        assert not np.array_equal(out.data[2], series.data[2])

    def test_field_count_rejected(self):
        series = self._series(np.random.default_rng(25))
        zero = DisplacementField(np.zeros((3, *self.GRID)))
        with pytest.raises(DimensionError):
            warp_series(series, [zero] * 2)


def _endpoint_error_per_component(est_fields, true_fields):
    """The composition residual with one single-channel warp per component."""
    total, count = 0.0, 0
    for est, true in zip(est_fields, true_fields):
        resid = np.zeros((3, *true.grid))
        for a in range(3):
            resid[a] = est.data[a] + ad.warp(true.data[a].astype(np.float64),
                                             ad.constant(est.data.astype(np.float64))).data
        mag = np.sqrt(np.sum(resid ** 2, axis=0))
        total += float(mag.sum())
        count += mag.size
    return total / max(count, 1)


class TestEndpointError:
    GRID = (6, 7, 8)

    def _fields(self, rng, n, scale):
        return [DisplacementField(rng.uniform(-scale, scale, size=(3, *self.GRID))
                                  .astype(np.float32)) for _ in range(n)]

    def test_matches_per_component_composition(self):
        rng = np.random.default_rng(18)
        true, est = self._fields(rng, 3, 2.5), self._fields(rng, 3, 2.0)
        assert endpoint_error(est, true)[0] == _endpoint_error_per_component(est, true)

    def test_zero_correction_is_mean_true_magnitude(self):
        rng = np.random.default_rng(19)
        true = self._fields(rng, 3, 2.5)
        zero = [DisplacementField(np.zeros((3, *self.GRID), np.float32)) for _ in true]
        assert endpoint_error(zero, true)[0] == _endpoint_error_per_component(zero, true)
        t64 = true[0].data.astype(np.float64)
        want = np.mean(np.sqrt(np.sum(t64 ** 2, axis=0)))
        assert endpoint_error(zero[:1], true[:1])[0] == want

    def test_uncorrected_error_ignores_the_correction(self):
        # the second value is the error of a zero correction, whatever est is
        rng = np.random.default_rng(21)
        true, est = self._fields(rng, 3, 2.5), self._fields(rng, 3, 2.0)
        zero = [DisplacementField(np.zeros((3, *self.GRID), np.float32)) for _ in true]
        want = _endpoint_error_per_component(zero, true)
        assert endpoint_error(est, true)[1] == want
        assert endpoint_error(zero, true) == (want, want)

    def test_shape_mismatch(self):
        true = [DisplacementField(np.zeros((3, *self.GRID)))]
        for est in (np.zeros((3, 6, 7, 9)), np.ones((3, 6, 7, 9))):
            with pytest.raises(DimensionError):
                endpoint_error([DisplacementField(est)], true)

    def test_length_mismatch(self):
        rng = np.random.default_rng(20)
        true, est = self._fields(rng, 3, 2.5), self._fields(rng, 2, 2.0)
        with pytest.raises(DimensionError):
            endpoint_error(est, true)
        with pytest.raises(DimensionError):
            endpoint_error(true, est)


class TestResampleField:
    def test_unit_rescale_on_upsample(self):
        f = DisplacementField(np.ones((3, 2, 2, 2)))
        up = resample_field(f, 4)
        assert up.grid == (8, 8, 8)
        assert np.all(up.data == 4.0)

    def test_linear_field_matches_closed_form(self):
        n = 6
        f = np.zeros((3, n, n, n))
        f[1] = np.arange(n, dtype=np.float64)[None, :, None]
        up = resample_field(DisplacementField(f), 2)
        # src coordinate of output center i is (i + .5)/2 - .5, clamped
        for i in range(2 * n):
            src = np.clip((i + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
            np.testing.assert_allclose(up.data[1, 0, i, 0], 2.0 * src, atol=1e-12)

    def test_factor_below_two_rejected(self):
        with pytest.raises(DimensionError):
            resample_field(DisplacementField(np.zeros((3, 4, 4, 4))), 1)


@pytest.mark.usefixtures("window3")
class TestLocalNcc:
    def test_self_similarity_near_one(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.normal(size=(8, 8, 8)))
        v = float(local_ncc(x, x).data)
        assert 1.0 - 1e-3 <= v <= 1.0

    def test_affine_invariance_per_window(self):
        # boundary windows include padded zeros, which an affine offset does
        # not transform, so the invariance is an interior-window property
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 8, 8))
        m_self = local_ncc_map(ad.constant(x), ad.constant(x)).data
        m_aff = local_ncc_map(ad.constant(x), ad.constant(2.0 * x + 3.0)).data
        np.testing.assert_allclose(m_aff[1:-1, 1:-1, 1:-1],
                                   m_self[1:-1, 1:-1, 1:-1], atol=1e-6)

    def test_hand_computed_window(self):
        # 3^3 volume, window 3: the center voxel covers the full volume
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3, 3))
        b = rng.normal(size=(3, 3, 3))
        cc = local_ncc_map(ad.constant(a), ad.constant(b)).data
        n = 27.0
        ua, ub = a.sum() / n, b.sum() / n
        cross = ((a - ua) * (b - ub)).sum()
        var_a = ((a - ua) ** 2).sum()
        var_b = ((b - ub) ** 2).sum()
        want = cross ** 2 / (var_a * var_b + 1e-5)
        np.testing.assert_allclose(cc[1, 1, 1], want, rtol=1e-10)

    def test_symmetry(self, monkeypatch):
        monkeypatch.setattr(losses, "NCC_WINDOW", 5)
        rng = np.random.default_rng(6)
        a = ad.constant(rng.normal(size=(6, 6, 6)))
        b = ad.constant(rng.normal(size=(6, 6, 6)))
        assert abs(float(local_ncc(a, b).data) - float(local_ncc(b, a).data)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            local_ncc(ad.constant(np.zeros((4, 4, 4))), ad.constant(np.zeros((5, 4, 4))))

    def test_window_exceeding_extent(self, monkeypatch):
        monkeypatch.setattr(losses, "NCC_WINDOW", 9)
        with pytest.raises(DimensionError):
            zero = ad.constant(np.zeros((4, 4, 4)))
            local_ncc(zero, zero)

    def test_float32_matches_float64(self, monkeypatch):
        # the job's window on the paper's working grid: the float32 value and
        # the gradient in `a` stay within 1e-6 of float64 (5.7e-10 and 2.8e-7
        # measured on this pair)
        monkeypatch.setattr(losses, "NCC_WINDOW", 9)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(32, 32, 64))
        b = a + 0.5 * rng.normal(size=a.shape)
        out = {}
        for dtype in (np.float64, np.float32):
            with ad.Tape() as tape:
                v = local_ncc(ad.param("a", a.astype(dtype)), ad.constant(b.astype(dtype)))
            grad = ad.backward(tape, v)["a"]
            assert grad.dtype == dtype
            out[dtype] = float(v.data), grad
        (v64, g64), (v32, g32) = out[np.float64], out[np.float32]
        assert abs(v32 - v64) <= 1e-6 * abs(v64)
        assert np.abs(g32 - g64).max() <= 1e-6 * np.abs(g64).max()


class TestSmoothness:
    def test_constant_field_zero(self):
        assert float(smoothness(ad.constant(np.full((3, 4, 5, 6), 2.5))).data) == 0.0

    def test_unit_ramp_closed_form(self):
        D, H, W = 6, 5, 4
        f = np.zeros((3, D, H, W))
        f[0] = np.arange(D, dtype=np.float64)[:, None, None]
        got = float(smoothness(ad.constant(f)).data)
        want = (D - 1) * H * W / (9.0 * D * H * W)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(3, 4, 5, 3))
        got = float(smoothness(ad.constant(f)).data)
        want = smoothness_naive(f)
        assert abs(got - want) / abs(want) <= 1e-12

    def test_zero_iff_constant(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(3, 4, 4, 4))
        assert float(smoothness(ad.constant(f)).data) > 1e-12

    @pytest.mark.parametrize("shape", [(), (3, 4, 5), (2, 4, 5, 6)])
    def test_rejects_what_is_not_a_3_channel_volume(self, shape):
        with pytest.raises(DimensionError, match="smoothness"):
            smoothness(ad.constant(np.ones(shape)))


@pytest.mark.usefixtures("window3")
class TestTotalLoss:
    def test_identical_frames_zero_fields(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(8, 8, 8))
        m = 3
        fields = [ad.constant(np.zeros((3, 8, 8, 8))) for _ in range(m)]
        warped = [ad.constant(ref.copy()) for _ in range(m)]
        loss = float(loss_terms(ad.constant(ref), warped, fields)[0].data)
        assert abs(loss - (-m)) <= m * 1e-3

    def test_lambda_zero_is_pure_similarity(self, monkeypatch):
        monkeypatch.setattr(losses, "LAMBDA", 0.0)
        rng = np.random.default_rng(10)
        ref = ad.constant(rng.normal(size=(6, 6, 6)))
        mov = ad.constant(rng.normal(size=(6, 6, 6)))
        f = ad.constant(rng.normal(size=(3, 6, 6, 6)))
        loss = float(loss_terms(ref, [mov], [f])[0].data)
        sim = float(local_ncc(ref, mov).data)
        np.testing.assert_allclose(loss, -sim, rtol=1e-12)

    def test_lambda_sweep_hook(self, monkeypatch):
        rng = np.random.default_rng(11)
        ref = ad.constant(rng.normal(size=(6, 6, 6)))
        mov = ad.constant(rng.normal(size=(6, 6, 6)))
        f = ad.constant(rng.uniform(-1, 1, size=(3, 6, 6, 6)))
        vals = []
        for lam in (0.1, 1.0, 10.0, 100.0):
            monkeypatch.setattr(losses, "LAMBDA", lam)
            vals.append(float(loss_terms(ref, [mov], [f])[0].data))
        pen = float(smoothness(f).data)
        sim = float(local_ncc(ref, mov).data)
        for lam, v in zip((0.1, 1.0, 10.0, 100.0), vals):
            np.testing.assert_allclose(v, -sim + lam * pen, rtol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            loss_terms(ad.constant(np.zeros((4, 4, 4))), [ad.constant(np.zeros((4, 4, 4)))],
                       [])
        with pytest.raises(DimensionError):
            loss_terms(ad.constant(np.zeros((4, 4, 4))), [ad.constant(np.zeros((4, 4, 4)))] * 2,
                       [ad.constant(np.zeros((3, 4, 4, 4)))])

    def test_loss_terms_consistent(self, monkeypatch):
        monkeypatch.setattr(losses, "LAMBDA", 2.0)
        rng = np.random.default_rng(12)
        ref = ad.constant(rng.normal(size=(6, 6, 6)))
        movs = [ad.constant(rng.normal(size=(6, 6, 6))) for _ in range(2)]
        flds = [ad.constant(rng.normal(size=(3, 6, 6, 6))) for _ in range(2)]
        loss, sim, smo = loss_terms(ref, movs, flds)
        np.testing.assert_allclose(float(loss.data), -sim + 2.0 * smo, rtol=1e-10)
        want = sum(-float(local_ncc(ref, m).data) + 2.0 * float(smoothness(f).data)
                   for m, f in zip(movs, flds))
        np.testing.assert_allclose(float(loss.data), want, rtol=1e-12)


class TestGradients:
    @pytest.mark.usefixtures("window3")
    def test_total_loss_grad_wrt_fields(self):
        rng = np.random.default_rng(13)
        ref = rng.normal(size=(6, 6, 6))
        mov = rng.normal(size=(6, 6, 6))
        # keep displacements fractional so finite differences stay off the
        # trilinear floor discontinuities
        f0 = rng.uniform(0.1, 0.4, size=(3, 6, 6, 6))
        params = {"field": ad.param("field", f0)}

        def f(p):
            warped = ad.warp(mov, p["field"])
            return loss_terms(ad.constant(ref), [warped], [p["field"]])[0]

        err = grad_check(f, params, h=1e-4, samples=150, rng=rng)
        assert err <= 1e-4

    def test_channels_warp_grads(self):
        # the field gradient sums over the channels of the warped volume
        rng = np.random.default_rng(20)
        vols = rng.normal(size=(2, 5, 5, 5))
        field = rng.uniform(0.1, 0.4, size=(3, 5, 5, 5))
        params = {"field": ad.param("field", field)}

        def f(p):
            return ad.mean_all(ad.square(ad.warp(vols, p["field"])))

        err = grad_check(f, params, h=1e-4, samples=150, rng=rng)
        assert err <= 1e-4

