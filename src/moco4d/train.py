"""Preprocessing, window construction, the optimization loop, and model
application to full series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import network as net
from .errors import (ConfigurationError, DimensionError, NumericError, require_finite,
                     require_integers)
from .losses import loss_terms
from .network import DOWN_FACTOR, NetVariant
from .series import FrameSeries
from .warping import DisplacementField, resample_field, warp_series


CUTOFF = 2.5               # SUV
NOISE_SIGMA = 0.01         # SUV, on the voxels above CUTOFF
WINDOW_LENGTH = 5          # frames per window, except for pairwise
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Settings shared by `train` and `apply`.

    The network sees the series mean-pooled by `downsample_factor`, with
    voxels above CUTOFF replaced by CUTOFF plus Gaussian noise of NOISE_SIGMA,
    registered to frame `reference_index`. `train` minimizes
    `losses.loss_terms` with Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) on
    windows of WINDOW_LENGTH frames (1 for pairwise); `apply` runs the whole
    series at once. `seed` drives that noise and the window order."""

    learning_rate: float = 1e-4
    epochs: int = 1
    seed: int = 0
    downsample_factor: int = 4
    reference_index: int = 0

    def __post_init__(self):
        require_finite(self, "learning_rate")
        require_integers(self, "epochs", "seed", "downsample_factor", "reference_index")
        if self.learning_rate <= 0 or self.downsample_factor < 1:
            raise ConfigurationError("learning_rate and downsample_factor must be positive")
        if self.epochs < 0 or self.reference_index < 0:
            raise ConfigurationError("epochs and reference_index must be nonnegative")


class AdamState:
    """Adam's moment estimates per parameter name, and the step count."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.step = 0


def adam_step(params, grads, state: AdamState, lr):
    """One Adam update over named parameter tensors (in place)."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** state.step
    corr2 = 1.0 - b2 ** state.step
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p.data -= (lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)).astype(p.data.dtype)


# -- frame conditioning ------------------------------------------------------------

def preprocess(frame, rng):
    """Intensity cutoff at CUTOFF with Gaussian noise of NOISE_SIGMA on the
    thresholded voxels.

    Applied only to the frames used for displacement estimation, never to the
    frames that are finally warped. Voxels at or below the cutoff pass through
    untouched.
    """
    out = np.array(frame, copy=True)
    mask = out > CUTOFF
    n = int(mask.sum())
    if n:
        out[mask] = (CUTOFF + rng.normal(0.0, NOISE_SIGMA, n)).astype(out.dtype)
    return out


def mean_pool(vol, factor):
    """Anti-aliased downsampling: mean over factor^3 blocks."""
    if factor == 1:
        return vol
    d, h, w = vol.shape
    if d % factor or h % factor or w % factor:
        raise DimensionError(f"extents {vol.shape} not divisible by {factor}")
    blocks = vol.reshape(d // factor, factor, h // factor, factor, w // factor, factor)
    return blocks.mean(axis=(1, 3, 5), dtype=np.float64).astype(vol.dtype)


def pad_to_multiple(vol):
    """Zero-pad the far side of each axis up to the next multiple of the
    network's DOWN_FACTOR; returns the padded volume and the original extents
    (for cropping back)."""
    shape = vol.shape
    target = tuple(-(-s // DOWN_FACTOR) * DOWN_FACTOR for s in shape)
    if target == shape:
        return vol, shape
    pads = tuple((0, t - s) for s, t in zip(shape, target))
    return np.pad(vol, pads), shape


def crop_to(vol, shape):
    return vol[tuple(slice(0, s) for s in shape)]


def _working_series(series: FrameSeries, cfg: TrainConfig, rng):
    """Downsample, pad to the network granularity, and preprocess each frame.

    Returns (net_frames [T,...], working_shape_before_pad). Raises
    ConfigurationError when `cfg.reference_index` is not a frame of the series."""
    if cfg.reference_index >= series.frames:
        raise ConfigurationError(
            f"reference index {cfg.reference_index} out of range for {series.frames} frames")
    worked = []
    shape = None
    for t in range(series.frames):
        vol = mean_pool(series.data[t], cfg.downsample_factor)
        vol, shape = pad_to_multiple(vol)
        worked.append(preprocess(vol, rng))
    return np.stack(worked), shape


def _train_step(model, params, reference, frames, adam, lr, step):
    """Forward, backward and Adam update on one window of `frames` registered
    to `reference`; returns the loss, its similarity and its smoothness term
    as floats. The step's graph lives only in this call's locals, so it is
    freed before the next step starts."""
    with ad.Tape() as tape:
        fields = net.forward_fields(model, reference, frames)
        warped = [ad.warp(m, f) for m, f in zip(frames, fields)]
        loss, sim, smooth = loss_terms(ad.constant(np.asarray(reference)), warped, fields)
    if not np.isfinite(loss.data):
        raise NumericError(
            f"non-finite loss at step {step} (similarity={sim}, smoothness={smooth})")
    grads = ad.backward(tape, loss)
    adam_step(params, grads, adam, lr)
    return float(loss.data), sim, smooth


def train(model: net.NetParams, variant, series_list, cfg: TrainConfig):
    """Adam at batch size 1 over shuffled windows; returns (model, trace).

    The windows are every run of consecutive frames of the window length in
    each series, each registered to that series' reference frame, which may
    itself be one of the window's frames. The trace holds one row per epoch:
    (epoch, mean_loss, similarity_term, smoothness_term). Deterministic under
    a fixed config. Raises ConfigurationError when a series is shorter than
    the window or the series give no training window."""
    variant = NetVariant(variant)
    if variant != model.variant:
        raise ConfigurationError(f"model is {model.variant.value}, requested {variant.value}")
    rng = np.random.default_rng(cfg.seed)

    length = 1 if variant == NetVariant.PAIRWISE else WINDOW_LENGTH
    all_windows = []
    for series in series_list:
        net_frames, _shape = _working_series(series, cfg, rng)
        if len(net_frames) < length:
            raise ConfigurationError(f"{len(net_frames)} frames < window length {length}")
        ref = net_frames[cfg.reference_index]
        all_windows.extend((ref, net_frames[start:start + length])
                           for start in range(len(net_frames) - length + 1))
    if not all_windows:
        raise ConfigurationError("no training window: series_list is empty")

    params = model.named()
    adam = AdamState()
    trace = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(all_windows))
        tot_loss = tot_sim = tot_smooth = 0.0
        for wi in order:
            loss, sim, smooth = _train_step(model, params, *all_windows[wi], adam,
                                            cfg.learning_rate, step)
            tot_loss += loss
            tot_sim += sim
            tot_smooth += smooth
            step += 1
        n = len(all_windows)
        trace.append((epoch, tot_loss / n, tot_sim / n, tot_smooth / n))
    return model, trace


def apply(model: net.NetParams, series: FrameSeries, cfg: TrainConfig):
    """Estimate at working resolution, upsample the fields, warp the original
    frames; the reference frame passes through unmodified.

    One network pass runs over every frame in order, the reference included as
    a moving frame (the first, at `reference_index` 0, as in training's first
    window); the reference's field is then dropped for a zero field.

    Returns (corrected FrameSeries, list of full-resolution DisplacementField,
    one per frame; the reference frame's field is zero)."""
    rng = np.random.default_rng(cfg.seed)
    net_frames, work_shape = _working_series(series, cfg, rng)
    est = net.estimate_displacements(model, net_frames[cfg.reference_index], net_frames)
    fields = []
    for i, fld in enumerate(est):
        if i == cfg.reference_index:
            df = DisplacementField(np.zeros((3, *series.grid), dtype=series.data.dtype))
        else:
            df = DisplacementField(crop_to(fld, (3,) + tuple(work_shape)))
            if cfg.downsample_factor > 1:
                df = resample_field(df, cfg.downsample_factor)
        fields.append(df)
    return warp_series(series, fields), fields
