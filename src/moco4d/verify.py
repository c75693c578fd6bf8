"""Reference end-to-end gradient verification instance.

Builds a registration problem on which finite differences are a trustworthy
oracle: correlated frames (movings are warped copies of the reference), flow
values held mid-cell away from the trilinear interpolation kinks, and conv
biases offset so most leaky-relu pre-activations sit on a fixed branch.
Coordinates the stencil still cannot resolve are handled inside grad_check.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import network as net
from .losses import LossConfig, loss_terms
from .warping import warp

_BIAS_OFFSETS = {
    "enc0": 3.0, "down1": -4.0, "down2": 3.0, "down3": -4.0, "down4": 3.0,
    "dec1": 3.0, "dec2": -4.0, "dec3": 3.0, "dec4": -4.0, "head1": 3.0, "head2": 3.0,
    "sconv": 3.0,
}


def make_gradcheck_instance(extents=(16, 16, 32), frames=5, seed=12345,
                            variant=net.NetVariant.B_CONVLSTM):
    """A float64 model + window pair suited to finite-difference checking."""
    rng = np.random.default_rng(seed)
    params = net.init_net_params(variant, np.random.default_rng(seed + 1),
                                 extents=extents, dtype=np.float64)
    k, b = params.convs["flow"]
    k.data[:] = rng.normal(0.0, 2e-5, k.data.shape)
    b.data[:] = 0.3
    for name, off in _BIAS_OFFSETS.items():
        if name in params.convs:
            params.convs[name][1].data[:] = off
    if variant == net.NetVariant.S_CONVLSTM:
        # the serial cell sees O(3) features; shrink its gate kernels so the
        # sigmoid/tanh gates stay unsaturated and gradients flow upstream
        params.cell.k.data *= 0.05

    ref = rng.normal(size=extents) + 1.0
    movs = []
    for _ in range(frames):
        fld = np.stack([ad.box_sum(rng.normal(size=extents), 3).data / 27.0
                        for _ in range(3)]) * 1.5
        movs.append(warp(ref, fld) + rng.normal(scale=0.02, size=extents))
    seq = net.FramePairSequence(ref, movs)
    cfg = LossConfig(lam=1.0, ncc_window=9, ncc_epsilon=1e-3)
    return params, seq, cfg


def window_loss_fn(params, seq, cfg):
    """Scalar end-to-end objective: estimate fields, warp, score."""
    movs = [np.asarray(m, dtype=np.float64) for m in seq.moving]
    ref = ad.constant(np.asarray(seq.reference, dtype=np.float64))

    def f(_params):
        fields = net.forward_fields(params, seq)
        warped = [warp(ad.constant(m), fl) for m, fl in zip(movs, fields)]
        return loss_terms(ref, warped, fields, cfg)[0]

    return f

