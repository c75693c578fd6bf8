"""Voxel-wise graphical fitting of irreversible-tracer kinetics.

After a start time t* (T_STAR), tissue activity is modeled as
    C_T(t) = Ki * integral_0^t C_P + Vb * C_P(t)
and fitted by weighted least squares per voxel. The normalized weighted mean
fitting error (NFE) uses the degrees-of-freedom denominator (n - 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pool
from .errors import ConfigurationError, DimensionError
from .series import FrameSeries

F18_HALF_LIFE_MIN = 109.77
# min; the fit uses only the frames whose mid-time is at least T_STAR
T_STAR = 20.0
# a voxel whose mean activity past t* is at most this fraction of the series
# maximum is background and flagged degenerate
ACTIVITY_FLOOR = 1e-6
# voxels fitted together: the [n_frames, block] float64 buffers of one block
# stay small, whatever the volume. Pooled blocks keep this size, unlike the
# warp's slabs: each task holds its own buffers, the [n_frames, block] calls
# already run long enough with the GIL released, and 32,768-voxel blocks were
# no faster on a pooled 64x64x128 fit (22.3 against 22.8 ms on 2 cores)
_PATLAK_BLOCK_VOXELS = 16384


@dataclass
class InputFunction:
    """Plasma activity samples, dense enough for trapezoidal integration."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise DimensionError("input function needs matching 1-D times/values")
        if not np.all(np.diff(self.times) > 0):
            raise DimensionError("input-function times must be strictly increasing")
        if np.any(self.values < 0):
            raise ConfigurationError("plasma activity must be nonnegative")
        self._cum = np.concatenate([
            [0.0],
            np.cumsum(0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.times)),
        ])

    def at(self, t):
        return np.interp(t, self.times, self.values)


@dataclass
class ParametricMaps:
    """Voxel-wise Ki (1/min), Vb (unitless), NFE (unitless), degenerate mask."""

    ki: np.ndarray
    vb: np.ndarray
    nfe: np.ndarray
    degenerate: np.ndarray


def decay_weights(mid_times, durations) -> np.ndarray:
    """Frame weights: duration times the F-18 decay factor at mid-time."""
    lam = np.log(2.0) / F18_HALF_LIFE_MIN
    return np.asarray(durations, dtype=np.float64) * np.exp(-lam * np.asarray(mid_times))


def cumulative_input(ifn: InputFunction, t):
    """Trapezoidal integral of the input function from 0 to t (exact on the
    piecewise-linear sample interpolant)."""
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < ifn.times[0]) or np.any(t_arr > ifn.times[-1]):
        raise ConfigurationError(f"t outside input-function range "
                                 f"[{ifn.times[0]}, {ifn.times[-1]}]")
    idx = np.searchsorted(ifn.times, t_arr, side="right") - 1
    idx = np.minimum(idx, len(ifn.times) - 2)
    t0 = ifn.times[idx]
    base = ifn._cum[idx]
    partial = 0.5 * (ifn.at(t_arr) + ifn.values[idx]) * (t_arr - t0)
    out = base + partial
    return float(out) if np.isscalar(t) else out


def parametric_maps(series: FrameSeries, ifn: InputFunction) -> ParametricMaps:
    """Per-voxel fit + NFE over the frames past T_STAR, weighted by
    `decay_weights`; degenerate voxels (air/background or singular fits) are
    flagged, never aborting the volume.

    The fit is vectorized: the design matrix is shared by all voxels, only the
    right-hand side varies; it and the NFE run one block of
    `_PATLAK_BLOCK_VOXELS` voxels at a time, each block in its own slice of
    the maps. On a grid of at least `pool.POOLED_MIN_VOXELS` voxels the blocks
    run on the pool; the maps are the same, bit for bit, as from the serial
    loop. A single time-activity curve is a 1-voxel series."""
    sel = series.mid_times >= T_STAR
    n = int(sel.sum())
    if n < 3:
        raise ConfigurationError(f"need >= 3 frames past t*={T_STAR} for NFE")
    wv = decay_weights(series.mid_times[sel], series.durations[sel])
    x1 = cumulative_input(ifn, series.mid_times[sel])
    x2 = ifn.at(series.mid_times[sel])
    if np.any(x2 <= 0):
        raise ConfigurationError("input function must be positive at fitted frames")

    a11 = np.sum(wv * x1 * x1)
    a12 = np.sum(wv * x1 * x2)
    a22 = np.sum(wv * x2 * x2)
    det = a11 * a22 - a12 * a12
    wx1, wx2 = wv * x1, wv * x2
    floor = ACTIVITY_FLOOR * max(float(series.data.max()), 1e-300)
    # mid-times increase, so the frames past t* are the last n
    fitted = series.data.reshape(series.frames, -1)[series.frames - n:]
    size = fitted.shape[1]
    ki, vb, nfe_map = np.zeros(size), np.zeros(size), np.zeros(size)
    degenerate = np.ones(size, dtype=bool)

    def fit_block(v0, buffers):
        # every [n, block] and [block] temporary is a buffer of this task
        blk = slice(v0, min(v0 + _PATLAK_BLOCK_VOXELS, size))
        m = blk.stop - v0
        y = buffers[0][:n * m].reshape(n, m)
        b1, b2, tmp, den = (b[:m] for b in buffers[1:])
        k, v, nfe, deg = ki[blk], vb[blk], nfe_map[blk], degenerate[blk]
        np.copyto(y, fitted[:, blk])
        np.matmul(wx1, y, out=b1)
        np.matmul(wx2, y, out=b2)
        np.less_equal(y.mean(axis=0, out=tmp), floor, out=deg)
        # k = (b1 * a22 - b2 * a12) / det, v = (a11 * b2 - a12 * b1) / det
        np.subtract(np.multiply(b1, a22, out=k), np.multiply(b2, a12, out=tmp), out=k)
        k /= det
        np.subtract(np.multiply(b2, a11, out=v), np.multiply(b1, a12, out=tmp), out=v)
        v /= det
        np.copyto(k, 0.0, where=deg)
        np.copyto(v, 0.0, where=deg)
        # den = (n - 2) * sum((w * y / n) ** 2) over frames, on y in place
        y *= wv[:, None]
        y /= n
        np.square(y, out=y)
        np.sum(y, axis=0, out=den)
        den *= n - 2
        # num = w @ (y_hat - y) ** 2, y_hat = outer(x1, k) + outer(x2, v), one
        # frame at a time on a fresh copy of y
        np.copyto(y, fitted[:, blk])
        for row, c1, c2 in zip(y, x1, x2):
            np.add(np.multiply(k, c1, out=b1), np.multiply(v, c2, out=b2), out=b1)
            np.subtract(b1, row, out=row)
        np.square(y, out=y)
        np.matmul(wv, y, out=nfe)
        deg |= den == 0.0
        np.divide(nfe, den, out=nfe, where=~deg)
        np.copyto(nfe, 0.0, where=deg)

    singular = abs(det) <= 1e-12 * max(a11 * a22, 1e-300)   # all degenerate
    if not singular:
        blocks = range(0, size, _PATLAK_BLOCK_VOXELS)
        block = min(size, _PATLAK_BLOCK_VOXELS)
        pool.run_chunks(fit_block, blocks, lambda: (
            np.empty(n * block), np.empty(block), np.empty(block), np.empty(block),
            np.empty(block)), size >= pool.POOLED_MIN_VOXELS)
    return ParametricMaps(*(m.reshape(series.grid) for m in (ki, vb, nfe_map, degenerate)))
