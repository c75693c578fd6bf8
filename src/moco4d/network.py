"""Displacement-estimation network: a 4-level 3-D U-Net over (moving, reference)
frame pairs, with optional recurrent blocks.

Every conv is 3x3x3 at padding 1 (`autodiff.conv3d`), and every conv but
`flow` is followed by a leaky ReLU of slope `autodiff.LEAKY_SLOPE`. Layout
(channels):

    enc0   conv 2->16, stride 1          full resolution
    down1  conv 16->32, stride 2         1/2
    down2  conv 32->32, stride 2         1/4
    down3  conv 32->32, stride 2         1/8
    down4  conv 32->32, stride 2         1/16 (bottleneck)
    dec1..dec3  upsample x2 + skip concat + conv 64->32
    dec4        upsample x2 + skip concat(16) + conv 48->32
    head1  conv 32->16
    head2  conv 16->16
    flow   conv ->3 (small-normal init so training starts near identity)

Upsampling is parameter-free trilinear interpolation. The moving frames run
through the network one at a time; variants differ at the bottleneck
(recurrent cell carried over the frame window, or a flattened dense LSTM with
a 1->32 channel-restore conv `restore`) or serially before the flow head
(conv `sconv` 16->16 + ConvLSTM 16->32, with a 32->3 flow conv). Recurrent
cells:

    bcell  ConvLSTM 32->32, one conv 64->128 on concat[x, h] per step
    scell  ConvLSTM 16->32, one conv 48->128 on concat[x, h] per step
    blstm  the same cell with a 0-D kernel over the flattened bottleneck of
           s voxels: hidden = s, one [4s, 33s] matvec on concat[x, h] per step
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from . import convlstm as cl
from .errors import ConfigurationError, DimensionError

LEVELS = 4
DOWN_FACTOR = 2 ** LEVELS
FLOW_STD = 1e-5

_ENCODER = [
    ("enc0", 2, 16, 1),
    ("down1", 16, 32, 2),
    ("down2", 32, 32, 2),
    ("down3", 32, 32, 2),
    ("down4", 32, 32, 2),
]
_DECODER = [
    ("dec1", 64, 32),
    ("dec2", 64, 32),
    ("dec3", 64, 32),
    ("dec4", 48, 32),
    ("head1", 32, 16),
    ("head2", 16, 16),
]


class NetVariant(str, Enum):
    PAIRWISE = "pairwise"
    MULTI_FRAME = "multi_frame"
    B_LSTM = "b_lstm"
    S_CONVLSTM = "s_convlstm"
    B_CONVLSTM = "b_convlstm"


@dataclass
class FramePairSequence:
    """A reference volume plus the moving frames registered against it."""

    reference: np.ndarray
    moving: list

    def __post_init__(self):
        if not self.moving:
            raise DimensionError("a frame-pair sequence needs a moving frame")
        shape = self.reference.shape
        for m in self.moving:
            if m.shape != shape:
                raise DimensionError(f"frame shape {m.shape} != reference {shape}")

    def __len__(self):
        return len(self.moving)


@dataclass
class NetParams:
    """A variant and its parameters, one dict of named tensors: `<layer>.k`
    and `<layer>.b` for each conv layer and for the recurrent cell (`bcell`,
    `scell` or `blstm`), e.g. "enc0.k", "bcell.b"."""

    variant: NetVariant
    tensors: dict
    bottleneck_spatial: tuple = None  # fixed for B-LSTM only

    def named(self):
        return self.tensors


def _conv_param(rng, name, cin, cout, dtype, std=None):
    # He-style fan-in scaling keeps activation variance roughly constant
    # through the leaky-relu stack
    fan_in = cin * 27
    if std is None:
        lim = float(np.sqrt(6.0 / fan_in))
        k = rng.uniform(-lim, lim, (cout, cin, 3, 3, 3)).astype(dtype)
    else:
        k = (rng.normal(0.0, std, (cout, cin, 3, 3, 3))).astype(dtype)
    return {f"{name}.k": ad.param(f"{name}.k", k),
            f"{name}.b": ad.param(f"{name}.b", np.zeros(cout, dtype=dtype))}


def init_net_params(variant, rng, extents=None, dtype=np.float32) -> NetParams:
    """Build a parameter set; `extents` is required only for the dense-LSTM
    variant (the flattened feature length depends on the working grid)."""
    variant = NetVariant(variant)
    tensors = {}
    for name, cin, cout, *_ in _ENCODER + _DECODER:
        tensors.update(_conv_param(rng, name, cin, cout, dtype))

    bottleneck_spatial = None
    if variant == NetVariant.B_CONVLSTM:
        tensors.update(cl.init_convlstm_params(rng, 32, 32, dtype=dtype, prefix="bcell"))
    elif variant == NetVariant.S_CONVLSTM:
        tensors.update(_conv_param(rng, "sconv", 16, 16, dtype))
        tensors.update(cl.init_convlstm_params(rng, 16, 32, dtype=dtype, prefix="scell"))
    elif variant == NetVariant.B_LSTM:
        if extents is None:
            raise ConfigurationError("dense-LSTM variant needs fixed input extents")
        _check_extents(extents)
        bottleneck_spatial = tuple(e // DOWN_FACTOR for e in extents)
        s = int(np.prod(bottleneck_spatial))
        tensors.update(cl.init_convlstm_params(rng, 32 * s, s, kernel=(), dtype=dtype,
                                               prefix="blstm"))
        tensors.update(_conv_param(rng, "restore", 1, 32, dtype))

    flow_in = 32 if variant == NetVariant.S_CONVLSTM else 16
    tensors.update(_conv_param(rng, "flow", flow_in, 3, dtype, std=FLOW_STD))
    return NetParams(variant, tensors, bottleneck_spatial)


def _check_extents(extents):
    if any(e % DOWN_FACTOR for e in extents):
        raise DimensionError(
            f"input extents {tuple(extents)} must be divisible by {DOWN_FACTOR}")


def _conv_block(params, name, x, stride):
    t = params.tensors
    y = ad.conv3d(x, t[f"{name}.k"], t[f"{name}.b"], stride=stride)
    return ad.leaky_relu(y)


def _encode(params, x):
    skips = []
    for name, _cin, _cout, stride in _ENCODER:
        x = _conv_block(params, name, x, stride)
        skips.append(x)
    return skips[:-1], skips[-1]


def _decode(params, skips, x):
    for i, (name, _cin, _cout) in enumerate(_DECODER[:4]):
        skip = skips[-(i + 1)]
        x = ad.interp_resize(x, skip.shape[-3:])
        x = ad.concat_channels([x, skip])
        x = _conv_block(params, name, x, stride=1)
    x = _conv_block(params, "head1", x, stride=1)
    x = _conv_block(params, "head2", x, stride=1)
    return x


def forward_fields(params: NetParams, seq: FramePairSequence):
    """Graph-building forward pass; returns one 3-channel field tensor per
    moving frame, at the input grid.

    The frames run one at a time through encoder, decoder and flow head; a
    recurrent cell carries its state from each frame to the next."""
    variant = params.variant
    shape = seq.reference.shape
    _check_extents(shape)
    if variant == NetVariant.B_LSTM:
        want = tuple(e // DOWN_FACTOR for e in shape)
        if want != params.bottleneck_spatial:
            raise ConfigurationError(
                f"dense-LSTM params were built for bottleneck {params.bottleneck_spatial}, "
                f"input gives {want}")

    t = params.tensors
    dtype = t["enc0.k"].dtype
    ref = ad.constant(np.asarray(seq.reference, dtype=dtype))
    state = None
    fields = []
    for moving in seq.moving:
        pair = ad.stack_frames([ad.constant(np.asarray(moving, dtype=dtype)), ref])
        skips, bottom = _encode(params, pair)

        # temporal context enters at the bottleneck for the B-variants
        if variant == NetVariant.B_CONVLSTM:
            state = cl.convlstm_step(t["bcell.k"], t["bcell.b"], bottom, state)
            bottom = state.h
        elif variant == NetVariant.B_LSTM:
            # the dense cell reads the bottleneck flattened; its h is one channel
            state = cl.convlstm_step(t["blstm.k"], t["blstm.b"],
                                     ad.reshape(bottom, (-1,)), state)
            bottom = _conv_block(params, "restore",
                                 ad.reshape(state.h, (1, *bottom.shape[1:])), stride=1)

        feat = _decode(params, skips, bottom)

        if variant == NetVariant.S_CONVLSTM:
            state = cl.convlstm_step(t["scell.k"], t["scell.b"],
                                     _conv_block(params, "sconv", feat, stride=1), state)
            feat = state.h

        fields.append(ad.conv3d(feat, t["flow.k"], t["flow.b"], stride=1))
    return fields


def estimate_displacements(params: NetParams, seq: FramePairSequence):
    """Inference entry point for the variant `params` was built for: one
    displacement array [3,D,H,W] per moving frame, displacements in voxels of
    the input grid."""
    fields = forward_fields(params, seq)
    return [f.data for f in fields]
