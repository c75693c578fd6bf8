"""Kinetic fitting: quadrature, weighted LS recovery, NFE, alignment metrics."""

import tracemalloc

import numpy as np
import pytest

from moco4d import pool
from moco4d.errors import ConfigurationError
from moco4d.metrics import global_ncc, nmi, roi_stats
from moco4d.patlak import (_PATLAK_BLOCK_VOXELS, F18_HALF_LIFE_MIN, T_STAR, InputFunction,
                           cumulative_input, decay_weights, parametric_maps)
from moco4d.series import FrameSeries

from oracles import patlak_nfe_scalar, patlak_wls_scalar, pearson_naive
from pooled import Submissions, record_pool_thread_calls


def dense_ifn(fn, t_max=70.0, dt=0.01):
    t = np.arange(0.0, t_max + dt / 2, dt)
    return InputFunction(t, fn(t))


class TestCumulativeInput:
    def test_constant_input(self):
        ifn = InputFunction(np.linspace(0, 10, 11), np.full(11, 3.0))
        assert cumulative_input(ifn, 7.0) == pytest.approx(21.0, rel=1e-14)

    def test_linear_input_exact(self):
        # trapezoid is exact on linear integrands
        ifn = InputFunction(np.linspace(0, 10, 6), 2.0 * np.linspace(0, 10, 6))
        assert cumulative_input(ifn, 10.0) == pytest.approx(100.0, rel=1e-14)
        assert cumulative_input(ifn, 3.0) == pytest.approx(9.0, rel=1e-12)

    def test_biexponential_matches_fine_grid(self):
        fn = lambda t: 3.0 * np.exp(-t / 5.0) + 1.5 * np.exp(-t / 40.0)
        coarse = dense_ifn(fn, dt=0.005)
        fine = dense_ifn(fn, dt=0.0001)
        for t in (1.0, 10.0, 33.3, 60.0):
            a = cumulative_input(coarse, t)
            b = cumulative_input(fine, t)
            assert abs(a - b) / abs(b) <= 1e-6

    def test_out_of_range(self):
        ifn = InputFunction(np.linspace(0, 10, 11), np.ones(11))
        with pytest.raises(ConfigurationError):
            cumulative_input(ifn, 11.0)

    def test_vectorized(self):
        ifn = InputFunction(np.linspace(0, 10, 101), np.linspace(0, 10, 101) ** 2)
        ts = np.array([1.0, 2.5, 9.0])
        out = cumulative_input(ifn, ts)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)


def tac_series(mids, acts, durations=None):
    """A time-activity curve as a 1-voxel float64 series."""
    durations = durations if durations is not None else np.full(len(mids), 5.0)
    return FrameSeries(np.asarray(acts, dtype=np.float64).reshape(-1, 1, 1, 1), mids,
                       durations)


def forward_tac(ifn, mids, ki, vb, durations=None):
    acts = ki * cumulative_input(ifn, mids) + vb * ifn.at(mids)
    return tac_series(mids, acts, durations)


def fit_tac(series, ifn):
    """(ki, vb, nfe, degenerate) of a 1-voxel series."""
    m = parametric_maps(series, ifn)
    return m.ki.item(), m.vb.item(), m.nfe.item(), bool(m.degenerate.item())


class TestPatlakFit:
    def test_exact_recovery(self):
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.02)
        mids = np.array([22.5, 27.5, 32.5, 37.5, 42.5, 47.5])
        tac = forward_tac(ifn, mids, 0.01, 0.05)
        ki, vb, _nfe, degenerate = fit_tac(tac, ifn)
        assert ki == pytest.approx(0.01, rel=1e-10)
        assert vb == pytest.approx(0.05, rel=1e-10)
        assert not degenerate

    def test_frames_before_t_star_are_ignored(self):
        # early frames off the model line change nothing past T_STAR
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.02)
        late = np.array([22.5, 27.5, 32.5, 37.5])
        mids = np.concatenate([[T_STAR - 15.0, T_STAR - 5.0], late])
        acts = 0.01 * cumulative_input(ifn, mids) + 0.05 * ifn.at(mids)
        acts[:2] = [7.0, -3.0]
        got = fit_tac(tac_series(mids, acts), ifn)
        want = fit_tac(tac_series(late, acts[2:]), ifn)
        assert got == want

    def test_pure_vascular(self):
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.02)
        mids = np.array([25.0, 30.0, 40.0, 55.0])
        tac = forward_tac(ifn, mids, 0.0, 0.05)
        ki, vb, _nfe, _deg = fit_tac(tac, ifn)
        assert ki == pytest.approx(0.0, abs=1e-12)
        assert vb == pytest.approx(0.05, rel=1e-10)

    def test_randomized_recovery_many(self):
        # brief version of the exactness sweep; the acceptance suite runs 1000.
        # Random frame durations give random decay weights
        rng = np.random.default_rng(0)
        ifn = dense_ifn(lambda t: 3.0 * np.exp(-t / 25.0) + 0.8, dt=0.05)
        mids = np.linspace(22.0, 62.0, 9)
        for _ in range(50):
            ki = rng.uniform(0.0, 0.05)
            vb = rng.uniform(0.01, 0.2)
            durations = rng.uniform(0.2, 3.0, len(mids))
            fit_ki, fit_vb, fit_nfe, _deg = fit_tac(
                forward_tac(ifn, mids, ki, vb, durations), ifn)
            assert abs(fit_ki - ki) <= 1e-10 * max(ki, 1e-3)
            assert abs(fit_vb - vb) <= 1e-10 * vb
            assert fit_nfe <= 1e-12

    def test_matches_transformed_ols_formulation(self):
        # the decay-weighted fit equals weighted OLS on the classic
        # transformed coordinates
        ifn = dense_ifn(lambda t: 2.5 * np.exp(-t / 35.0) + 0.6, dt=0.02)
        mids = np.linspace(22.0, 57.0, 8)
        rng = np.random.default_rng(1)
        acts = (0.012 * cumulative_input(ifn, mids) + 0.07 * ifn.at(mids)
                + rng.normal(0, 0.01, len(mids)))
        ki, vb, _nfe, _deg = fit_tac(tac_series(mids, acts), ifn)
        # transformed: y/cp = ki*(cum/cp) + vb, weighted by w * cp^2
        cp = ifn.at(mids)
        xs = cumulative_input(ifn, mids) / cp
        ys = acts / cp
        wts = decay_weights(mids, np.full(8, 5.0)) * cp ** 2
        xm = np.sum(wts * xs) / wts.sum()
        ym = np.sum(wts * ys) / wts.sum()
        ki_ols = np.sum(wts * (xs - xm) * (ys - ym)) / np.sum(wts * (xs - xm) ** 2)
        vb_ols = ym - ki_ols * xm
        assert ki == pytest.approx(ki_ols, rel=1e-9)
        assert vb == pytest.approx(vb_ols, rel=1e-9)

    def test_degenerate_constant_ratio(self):
        # proportional regressors make the normal equations singular
        times = np.linspace(0.0, 60.0, 601)
        ifn = InputFunction(times, np.full(601, 2.0))  # constant cp -> cum = 2t
        mids = np.array([30.0, 40.0, 50.0])
        # with constant cp, regressors [2t, 2] are NOT collinear
        tac = tac_series(mids, np.array([1.0, 1.0, 1.0]))
        _ki, _vb, _nfe, degenerate = fit_tac(tac, ifn)
        assert not degenerate  # sanity: this one is solvable

    def test_too_few_frames(self):
        ifn = dense_ifn(lambda t: np.full_like(t, 1.0) + t * 0, dt=0.1)
        tac = tac_series(np.array([10.0, 25.0]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            fit_tac(tac, ifn)


class TestNfe:
    def test_perfect_fit_zero(self):
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.02)
        mids = np.linspace(22.5, 57.5, 8)
        _ki, _vb, nfe, _deg = fit_tac(forward_tac(ifn, mids, 0.0146, 0.05), ifn)
        assert nfe <= 1e-12

    def test_hand_computed_three_frames(self):
        times = np.linspace(0.0, 60.0, 6001)
        ifn = InputFunction(times, np.full(6001, 1.0))   # cp = 1, cum = t
        mids = np.array([30.0, 40.0, 50.0])
        acts = np.array([1.0, 2.0, 4.0])
        # durations of exp(lambda * mid) make every decay weight 1
        durations = np.exp(np.log(2.0) / F18_HALF_LIFE_MIN * mids)
        w = decay_weights(mids, durations)
        np.testing.assert_allclose(w, 1.0, rtol=1e-15)
        # OLS line through (30, 1), (40, 2), (50, 4): slope 30/200, intercept
        # 7/3 - 6; residuals 1/6, -1/3, 1/6 -> num = 1/6, den = 21/9
        ki, vb, nfe, _deg = fit_tac(tac_series(mids, acts, durations), ifn)
        assert ki == pytest.approx(0.15, rel=1e-12)
        assert vb == pytest.approx(-11.0 / 3.0, rel=1e-12)
        assert nfe == pytest.approx(1.0 / 14.0, rel=1e-12)
        # the oracle on a fixed line y_hat = .1 t: residuals 3-1=2, 4-2=2,
        # 5-4=1 -> num = 4+4+1 = 9
        cum, cp = cumulative_input(ifn, mids), ifn.at(mids)
        got = patlak_nfe_scalar(cum, cp, acts, w, 0.1, 0.0)
        assert got == pytest.approx(9.0 / (21.0 / 9.0), rel=1e-12)

    def test_scale_invariance(self):
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.02)
        mids = np.linspace(22.5, 57.5, 8)
        rng = np.random.default_rng(2)
        acts = 0.01 * cumulative_input(ifn, mids) + 0.06 * ifn.at(mids) \
            + rng.normal(0, 0.02, 8)
        s = 7.3
        ifn2 = InputFunction(ifn.times, s * ifn.values)
        nfe1 = fit_tac(tac_series(mids, acts), ifn)[2]
        nfe2 = fit_tac(tac_series(mids, s * acts), ifn2)[2]
        assert nfe1 == pytest.approx(nfe2, rel=1e-9)

    def test_all_zero_activities_flagged(self):
        # the scalar NFE of an all-zero curve is 0/0; the maps flag the voxel
        ifn = dense_ifn(lambda t: np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.array([25.0, 35.0, 45.0])
        w = decay_weights(mids, np.full(3, 5.0))
        cum, cp = cumulative_input(ifn, mids), ifn.at(mids)
        ki, vb, _deg = patlak_wls_scalar(cum, cp, np.zeros(3), w)
        assert np.isnan(patlak_nfe_scalar(cum, cp, np.zeros(3), w, ki, vb))
        _ki, _vb, nfe, degenerate = fit_tac(tac_series(mids, np.zeros(3)), ifn)
        assert degenerate
        assert nfe == 0.0

    def test_noise_increases_expected_nfe(self):
        # Monte-Carlo sign test: noisy TACs (one voxel each) fit worse than clean ones
        rng = np.random.default_rng(3)
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.linspace(22.5, 57.5, 8)
        clean = forward_tac(ifn, mids, 0.01, 0.06)
        base = fit_tac(clean, ifn)[2]
        noise = rng.normal(0, 0.05, (100, 8)).T.reshape(8, 1, 1, 100)
        noisy = FrameSeries(clean.data + noise, mids, clean.durations)
        maps = parametric_maps(noisy, ifn)
        wins = int(np.sum(maps.nfe > base))
        # one-sided sign test at p < 0.01: needs >= 63 of 100
        assert wins >= 63


class TestParametricMaps:
    def _series(self, ki_map, vb_map, ifn, mids):
        frames = np.stack([(ki_map * cumulative_input(ifn, t)
                            + vb_map * ifn.at(t)).astype(np.float32) for t in mids])
        return FrameSeries(frames, mids, np.full(len(mids), 5.0))

    def test_uniform_phantom_constant_maps(self):
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.linspace(22.5, 57.5, 8)
        shape = (4, 4, 4)
        series = self._series(np.full(shape, 0.01), np.full(shape, 0.05), ifn, mids)
        maps = parametric_maps(series, ifn)
        assert not maps.degenerate.any()
        assert np.allclose(maps.ki, 0.01, atol=1e-6)
        assert np.allclose(maps.vb, 0.05, atol=1e-5)
        assert np.all(maps.nfe <= 1e-9)

    def test_all_zero_series_all_degenerate(self):
        ifn = dense_ifn(lambda t: np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.linspace(22.5, 57.5, 8)
        series = FrameSeries(np.zeros((8, 3, 3, 3), dtype=np.float32), mids,
                             np.full(8, 5.0))
        maps = parametric_maps(series, ifn)
        assert maps.degenerate.all()

    def test_matches_scalar_fit_per_voxel(self):
        rng = np.random.default_rng(4)
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.linspace(22.5, 57.5, 8)
        shape = (3, 3, 3)
        ki_map = rng.uniform(0.001, 0.03, shape)
        vb_map = rng.uniform(0.02, 0.1, shape)
        series = self._series(ki_map, vb_map, ifn, mids)
        maps = parametric_maps(series, ifn)
        w = decay_weights(mids, np.full(8, 5.0))
        v = (1, 2, 0)
        y = series.data[:, v[0], v[1], v[2]].astype(np.float64)
        ki, vb, _deg = patlak_wls_scalar(cumulative_input(ifn, mids), ifn.at(mids), y, w)
        assert maps.ki[v] == pytest.approx(ki, rel=1e-6)
        assert maps.vb[v] == pytest.approx(vb, rel=1e-5)

    def test_blocks_match_scalar_fit_per_voxel(self):
        # three voxel blocks, the last one partial, with background voxels
        rng = np.random.default_rng(5)
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.linspace(22.5, 57.5, 8)
        shape = (3, 100, 120)
        size = int(np.prod(shape))
        assert 2 * _PATLAK_BLOCK_VOXELS < size < 3 * _PATLAK_BLOCK_VOXELS
        ki_map = rng.uniform(0.001, 0.03, shape)
        vb_map = rng.uniform(0.02, 0.1, shape)
        ki_map[:, :10] = vb_map[:, :10] = 0.0
        clean = self._series(ki_map, vb_map, ifn, mids)
        noisy = clean.with_data(clean.data + rng.normal(0.0, 0.01, clean.data.shape)
                                .astype(np.float32) * (ki_map > 0))
        maps = parametric_maps(noisy, ifn)
        w = decay_weights(mids, np.full(8, 5.0))
        cum, cp = cumulative_input(ifn, mids), ifn.at(mids)
        edges = [v0 + d for v0 in range(0, size, _PATLAK_BLOCK_VOXELS) for d in (-1, 0)]
        picks = sorted(set(edges[1:]) | set(range(0, size, 97)) | {size - 1})
        for flat in picks:
            v = np.unravel_index(flat, shape)
            y = noisy.data[(slice(None),) + v].astype(np.float64)
            if not y.any():
                assert maps.degenerate[v] and maps.ki[v] == maps.nfe[v] == 0.0
                continue
            ki, vb, deg = patlak_wls_scalar(cum, cp, y, w)
            assert not deg and not maps.degenerate[v]
            assert maps.ki[v] == pytest.approx(ki, rel=1e-6)
            assert maps.vb[v] == pytest.approx(vb, rel=1e-5)
            nfe = patlak_nfe_scalar(cum, cp, y, w, maps.ki[v], maps.vb[v])
            assert maps.nfe[v] == pytest.approx(nfe, rel=1e-9)

    def test_peak_memory_is_maps_plus_a_few_blocks(self):
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.linspace(22.5, 57.5, 8)
        rng = np.random.default_rng(6)
        data = rng.uniform(0.5, 2.0, (8, 64, 64, 128)).astype(np.float32)
        series = FrameSeries(data, mids, np.full(8, 5.0))
        size = data[0].size
        maps_bytes = 3 * 8 * size + size           # ki, vb, nfe and the mask
        block_bytes = 8 * 8 * _PATLAK_BLOCK_VOXELS  # one [n_frames, block] float64
        tracemalloc.start()
        try:
            parametric_maps(series, ifn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < maps_bytes + 8 * block_bytes

    def _noisy_series(self, grid, seed):
        # background voxels, and noise that gives every fitted voxel an NFE
        rng = np.random.default_rng(seed)
        ifn = dense_ifn(lambda t: 2.0 * np.exp(-t / 30.0) + 0.5, dt=0.05)
        mids = np.linspace(22.5, 57.5, 8)
        ki_map = rng.uniform(0.001, 0.03, grid)
        vb_map = rng.uniform(0.02, 0.1, grid)
        ki_map[:, :10] = vb_map[:, :10] = 0.0
        clean = self._series(ki_map, vb_map, ifn, mids)
        noise = rng.normal(0.0, 0.01, clean.data.shape).astype(np.float32) * (ki_map > 0)
        return clean.with_data(clean.data + noise), ifn

    def test_pooled_maps_match_inline_bit_for_bit(self, monkeypatch):
        # over pool.POOLED_MIN_VOXELS, in blocks of which the last is partial
        grid = (33, 64, 64)
        assert np.prod(grid) % _PATLAK_BLOCK_VOXELS
        series, ifn = self._noisy_series(grid, 7)
        got = parametric_maps(series, ifn)
        monkeypatch.setattr(pool, "WORKERS", 1)
        want = parametric_maps(series, ifn)
        assert 0 < got.degenerate.sum() < got.degenerate.size
        for name in ("ki", "vb", "nfe", "degenerate"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("grid, pooled", [((31, 64, 64), False), ((32, 64, 64), True)])
    def test_pool_runs_grids_from_the_threshold_up(self, monkeypatch, grid, pooled):
        assert (np.prod(grid) >= pool.POOLED_MIN_VOXELS) == pooled
        monkeypatch.setattr(pool, "WORKERS", max(2, pool.WORKERS))
        submissions = Submissions(monkeypatch)
        calls = record_pool_thread_calls(monkeypatch)
        parametric_maps(*self._noisy_series(grid, 8))
        assert (submissions.total > 0) == pooled and calls == []


class TestAlignmentMetrics:
    def test_nmi_self_is_two(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 10, 10))
        assert nmi(x, x) == pytest.approx(2.0, rel=1e-12)

    def test_nmi_independent_noise_approaches_one(self):
        # at NMI_BINS = 64 bins per image
        rng = np.random.default_rng(6)
        a = rng.normal(size=200_000)
        b = rng.normal(size=200_000)
        assert abs(nmi(a, b) - 1.0) <= 0.05

    def test_nmi_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=5000)
        b = a + rng.normal(size=5000)
        assert nmi(a, b) == pytest.approx(nmi(b, a), rel=1e-12)

    def test_nmi_constant_flagged(self):
        assert np.isnan(nmi(np.zeros(100), np.arange(100.0)))

    def test_global_ncc_trivial(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=1000)
        assert global_ncc(x, x) == pytest.approx(1.0, rel=1e-12)
        assert global_ncc(x, -x) == pytest.approx(-1.0, rel=1e-12)

    def test_global_ncc_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(10, 10, 10))
        b = rng.normal(size=(10, 10, 10))
        assert global_ncc(a, b) == pytest.approx(pearson_naive(a, b), abs=1e-12)

    def test_global_ncc_symmetric_and_flagged(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=50), rng.normal(size=50)
        assert global_ncc(a, b) == pytest.approx(global_ncc(b, a), abs=1e-15)
        assert np.isnan(global_ncc(np.ones(10), b[:10]))


class TestRoiStats:
    def test_single_voxel(self):
        ki = np.zeros((3, 3, 3))
        ki[1, 1, 1] = 0.7
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[1, 1, 1] = True
        assert roi_stats(ki, mask) == (0.7, 0.7)

    def test_two_voxels(self):
        ki = np.array([[[0.0, 2.0]]])
        mask = np.ones((1, 1, 2), dtype=bool)
        assert roi_stats(ki, mask) == (1.0, 2.0)

    def test_empty_mask(self):
        with pytest.raises(ConfigurationError):
            roi_stats(np.ones((2, 2, 2)), np.zeros((2, 2, 2), dtype=bool))
