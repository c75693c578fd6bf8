"""Synthetic dynamic series with known kinetics and injectable inter-frame motion.

The phantom paints a hot-core tumor ellipsoid inside a body ellipsoid over
an air background, generates frames from the graphical kinetic model driven
by an analytic input function, and corrupts frames with seeded smooth
displacement fields (local shifts plus radial expansion or contraction) while
keeping the ground truth.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DimensionError, require_integers
from .metrics import global_ncc, nmi
from .patlak import InputFunction, cumulative_input, parametric_maps
from .series import FrameSeries
from .warping import DisplacementField, warp_series

# analytic plasma curve: bolus peak plus slow biexponential washout
IFN_PEAK_AMPLITUDE = 20.0   # SUV/min
IFN_PEAK_TAU = 0.8          # min
IFN_WASHOUT_AMPLITUDE = 2.5
IFN_WASHOUT_TAU = 80.0      # min
IFN_RISE_TAU = 1.2          # min
IFN_T_MAX = 70.0            # min, end of the dense sampling
IFN_DT = 0.05               # min, sampling step

# phantom: an air background, the body ellipsoid and one hot-core tumor
VOXEL_SIZE_MM = (8.0, 8.0, 8.0)
BACKGROUND_KI = 0.002       # body
BACKGROUND_VB = 0.05        # body

# frames: consecutive late frames, all past patlak.T_STAR
FRAME_START_MID = 22.5      # min
FRAME_SPACING = 5.0         # min, also each frame's duration

# motion: see MotionSpec
MAX_SHIFT_VOXELS = 2.0
RIGID_VOXELS = 0.8          # whole-volume translation jitter
EXPANSION_LOW = -0.30
EXPANSION_HIGH = -0.05
SHIFT_WINDOW_VOXELS = 4.0   # Gaussian extent of the local shift


def analytic_input_function(t):
    """Fixed positive plasma curve: zero at t=0, early peak, then monotone decay."""
    t = np.asarray(t, dtype=np.float64)
    peak = IFN_PEAK_AMPLITUDE * t * np.exp(-t / IFN_PEAK_TAU)
    washout = IFN_WASHOUT_AMPLITUDE * (np.exp(-t / IFN_WASHOUT_TAU)
                                       - np.exp(-t / IFN_RISE_TAU))
    out = peak + washout
    return float(out) if out.ndim == 0 else out


def sample_input_function() -> InputFunction:
    """Dense sampling of the analytic curve, every IFN_DT up to IFN_T_MAX, for
    trapezoidal integration."""
    times = np.arange(0.0, IFN_T_MAX + IFN_DT / 2, IFN_DT)
    return InputFunction(times, analytic_input_function(times))


@dataclass
class Region:
    """An ellipsoid with its center and per-axis radii in voxels, and its
    region-mean kinetics."""

    center: tuple
    radii: tuple
    ki: float                 # region mean
    vb: float                 # region mean
    peak: float = 1.0         # center-to-rim contrast of the radial profile

    def _rho2(self, grid):
        zz, yy, xx = np.ix_(*[np.arange(n) for n in grid])
        dz = (zz - self.center[0]) / self.radii[0]
        dy = (yy - self.center[1]) / self.radii[1]
        dx = (xx - self.center[2]) / self.radii[2]
        return dz * dz + dy * dy + dx * dx

    def mask(self, grid):
        return self._rho2(grid) <= 1.0

    def profile(self, grid):
        """Radial profile over the region mask, normalized to mean 1, so the
        region mean of ki/vb stays at the configured value."""
        m = self.mask(grid)
        shape = 1.0 + (self.peak - 1.0) * np.exp(-4.0 * self._rho2(grid))
        shape = shape * m
        mean = shape[m].mean()
        return shape / mean, m


@dataclass
class PhantomSpec:
    """The phantom on `grid`, a tuple of 3 integer extents of at least 1: a
    body ellipsoid with 0.42 of each extent as radius and kinetics
    BACKGROUND_KI and BACKGROUND_VB, and a hot-core tumor 4 voxels before the
    center along the last axis, whose center must lie inside the grid. Frames
    have voxels of VOXEL_SIZE_MM."""

    grid: tuple = (16, 16, 32)

    def __post_init__(self):
        if not isinstance(self.grid, (tuple, list)) or len(self.grid) != 3 or any(
                isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1
                for n in self.grid):
            raise DimensionError(f"phantom grid {self.grid!r} must be a tuple of 3 "
                                 "integer extents, each at least 1")
        c = tuple((n - 1) / 2.0 for n in self.grid)
        self.body = Region(c, tuple(0.42 * n for n in self.grid), BACKGROUND_KI, BACKGROUND_VB)
        # region-mean Ki at the motion-free reference scale, with elevated
        # blood volume in the same place
        self.tumor = Region((c[0], c[1], c[2] - 4), (3.0, 3.0, 3.2), 0.0146, 0.09, peak=3.0)
        if not all(0 <= x < n for x, n in zip(self.tumor.center, self.grid)):
            raise ConfigurationError(f"tumor center {self.tumor.center} outside grid")

    def kinetic_maps(self):
        """True (Ki, Vb) volumes; the tumor overrides the body."""
        ki = np.zeros(self.grid)
        vb = np.zeros(self.grid)
        body = self.body.mask(self.grid)
        ki[body] = self.body.ki
        vb[body] = self.body.vb
        shape, m = self.tumor.profile(self.grid)
        ki[m] = (self.tumor.ki * shape)[m]
        vb[m] = (self.tumor.vb * shape)[m]
        return ki, vb


def default_frame_times(n_frames=8):
    """Mid-times and durations of `n_frames` consecutive frames of
    FRAME_SPACING from FRAME_START_MID on."""
    mids = FRAME_START_MID + FRAME_SPACING * np.arange(n_frames)
    durations = np.full(n_frames, FRAME_SPACING)
    return mids, durations


def simulate_frames(spec: PhantomSpec, ifn: InputFunction, mid_times, durations) -> FrameSeries:
    """Noise-free kinetics per voxel, on voxels of VOXEL_SIZE_MM. The only
    noise is the one `train.preprocess` adds above CUTOFF to the frames the
    network sees."""
    mid_times = np.asarray(mid_times, dtype=np.float64)
    ki, vb = spec.kinetic_maps()
    frames = np.empty((len(mid_times), *ki.shape), dtype=np.float32)
    for i, t in enumerate(mid_times):
        frames[i] = ki * cumulative_input(ifn, t) + vb * ifn.at(t)
    return FrameSeries(frames, mid_times, np.asarray(durations, dtype=np.float64),
                       VOXEL_SIZE_MM)


@dataclass
class MotionSpec:
    """Per-frame pseudo local shift plus radial expansion/contraction.

    Each frame but `reference_index` gets a shift of up to MAX_SHIFT_VOXELS,
    windowed by a Gaussian of SHIFT_WINDOW_VOXELS at a random site in the
    middle half of each axis, a rigid translation of up to RIGID_VOXELS, and
    a radial factor about the volume center. `seed` draws all of them. The
    radial factor is drawn from [EXPANSION_LOW, EXPANSION_HIGH] in pull-warp
    convention: negative values sample toward the center, which enlarges
    objects. The range is biased toward enlargement, but the local shift and
    the rigid jitter also move the hot region, so the sign of the uptake bias
    in the corrupted series depends on the seed: on the default phantom
    (motion-free tumor Ki mean 0.0146) seeds 0-3 give 0.0169, 0.0134, 0.0152
    and 0.0141."""

    seed: int = 0
    reference_index: int = 0

    def __post_init__(self):
        require_integers(self, "seed", "reference_index")
        if self.reference_index < 0:
            raise ConfigurationError("reference_index must be nonnegative")


def _motion_field(grid, rng):
    zz, yy, xx = np.ix_(*[np.arange(n, dtype=np.float64) for n in grid])
    center = tuple((n - 1) / 2.0 for n in grid)
    # local shift: random vector scaled by a Gaussian window at a random site
    site = [rng.uniform(0.25 * n, 0.75 * n) for n in grid]
    u = rng.uniform(-MAX_SHIFT_VOXELS, MAX_SHIFT_VOXELS, size=3)
    g = np.exp(-((zz - site[0]) ** 2 + (yy - site[1]) ** 2 + (xx - site[2]) ** 2)
               / (2.0 * SHIFT_WINDOW_VOXELS ** 2))
    field = np.stack([u[0] * g, u[1] * g, u[2] * g])
    # rigid whole-volume translation
    rigid = rng.uniform(-RIGID_VOXELS, RIGID_VOXELS, size=3)
    for a in range(3):
        field[a] += rigid[a]
    # radial expansion/contraction about the volume center
    alpha = rng.uniform(EXPANSION_LOW, EXPANSION_HIGH)
    field[0] += alpha * (zz - center[0])
    field[1] += alpha * (yy - center[1])
    field[2] += alpha * (xx - center[2])
    return field


def inject_motion(series: FrameSeries, motion: MotionSpec):
    """Warp every frame but the reference by a seeded smooth field, stored
    and applied in float32.

    Returns (corrupted series, list of true corrupting DisplacementField, one
    per frame; the reference frame's field is zero)."""
    if motion.reference_index >= series.frames:
        raise ConfigurationError(
            f"reference index {motion.reference_index} out of range for "
            f"{series.frames} frames")
    rng = np.random.default_rng(motion.seed)
    grid = series.grid
    true_fields = []
    for t in range(series.frames):
        fld = np.zeros((3, *grid)) if t == motion.reference_index else _motion_field(grid, rng)
        true_fields.append(DisplacementField(fld.astype(np.float32)))
    return warp_series(series, true_fields), true_fields


def endpoint_error(est_fields, true_fields):
    """Mean composition residual |est(v) + true(v + est(v))| in voxels over
    the frames, for the estimated correction `est_fields` and for none (est
    zero, where the residual is exactly true); returns the pair
    (corrected, uncorrected).

    The first is zero for a perfect correction; the second is mean |true|. An
    all-zero est skips the warp: a zero field samples every grid point with
    weight 1 (and its other corners with weight 0), so there the two agree."""
    if len(est_fields) != len(true_fields):
        raise DimensionError(f"endpoint_error: {len(est_fields)} vs {len(true_fields)} fields")
    total = total_none = 0.0
    count = 0
    for est, true in zip(est_fields, true_fields):
        if est.data.shape != true.data.shape:
            raise DimensionError(
                f"endpoint_error: field shapes {est.data.shape} vs {true.data.shape}")
        resid = true.data.astype(np.float64)
        mag = none = np.sqrt(np.square(resid).sum(axis=0))
        if est.data.any():
            # sample the true field at the correction's landing points; the
            # sample positions are float64 whatever the field's dtype
            resid = ad.warp(resid, ad.constant(est.data)).data
            resid += est.data
            mag = np.sqrt(np.square(resid, out=resid).sum(axis=0))
        total += float(mag.sum())
        total_none += float(none.sum())
        count += mag.size
    return total / max(count, 1), total_none / max(count, 1)


def _condition_metrics(series, ifn, body, tumor):
    """`body` and `tumor` hold the flat indices of their voxels, in increasing
    order."""
    maps = parametric_maps(series, ifn)
    nfe_vals = np.take(maps.nfe, body[~np.take(maps.degenerate, body)])
    tumor_ki = np.take(maps.ki, tumor)
    ki, vb = np.take(maps.ki, body), np.take(maps.vb, body)
    return {
        "nfe_mean": float(nfe_vals.mean()) if nfe_vals.size else float("nan"),
        "nfe_max": float(nfe_vals.max()) if nfe_vals.size else float("nan"),
        "ki_mean": float(tumor_ki.mean()),
        "ki_max": float(tumor_ki.max()),
        "ki_vb_nmi": nmi(ki, vb),
        "ki_vb_ncc": global_ncc(ki, vb),
    }


def evaluate_correction(corrected: FrameSeries, truth: FrameSeries, true_fields,
                        est_fields, spec: PhantomSpec, ifn: InputFunction):
    """Fit three conditions and report their kinetic statistics and alignment
    metrics, and the field endpoint error with the estimated correction
    (`endpoint_error_voxels`) and without it (`endpoint_error_no_correction`).
    The conditions are the motion-free
    truth, the motion series (the truth warped by the true fields: bit for bit
    the series `inject_motion` returns) and the corrected series; each is
    fitted by `parametric_maps`, over its frames past patlak.T_STAR. Per
    condition the report holds the body's mean and max NFE (non-degenerate
    voxels only), the tumor's Ki mean and max, and the NMI and NCC of the
    body's Ki and Vb."""
    if (corrected.grid != truth.grid
            or not np.array_equal(corrected.mid_times, truth.mid_times)
            or not np.array_equal(corrected.durations, truth.durations)):
        raise DimensionError("corrected/truth grids or frame timings differ")
    if len(true_fields) != truth.frames:
        raise DimensionError(f"{len(true_fields)} true fields for {truth.frames} frames")
    if tuple(spec.grid) != truth.grid:
        raise DimensionError(f"phantom grid {tuple(spec.grid)} != series grid {truth.grid}")
    body = np.flatnonzero(spec.body.mask(spec.grid))
    tumor = np.flatnonzero(spec.tumor.mask(spec.grid))

    # the motion series and each condition's maps are dropped once measured
    report = {
        "motion_free": _condition_metrics(truth, ifn, body, tumor),
        "motion": _condition_metrics(warp_series(truth, true_fields), ifn, body, tumor),
        "corrected": _condition_metrics(corrected, ifn, body, tumor),
    }
    (report["endpoint_error_voxels"],
     report["endpoint_error_no_correction"]) = endpoint_error(est_fields, true_fields)
    return report
