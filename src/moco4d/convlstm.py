"""Convolutional and fully connected LSTM cells.

Gate algebra (per time step, with zero-padded 3-D convolutions):

    i = sigmoid(W_i * x + U_i * h_prev + b_i)
    f = sigmoid(W_f * x + U_f * h_prev + b_f)
    c_hat = tanh(W_c * x + U_c * h_prev + b_c)
    c = i . c_hat + f . c_prev
    o = sigmoid(W_o * x + U_o * h_prev + b_o)
    h = o . tanh(c)

No peephole terms. All four gates come from one packed kernel
K = [[W_i U_i], [W_f U_f], [W_c U_c], [W_o U_o]] of shape
[4*hidden, in_channels + hidden, k, k, k] and one bias [4*hidden]: row block
g holds gate g (order i, f, c, o), and the columns read x first, then h. A
step is one convolution of concat[x, h_prev] with K, whose output splits
into the four gate pre-activations. The dense cell keeps the same row
blocks in two matrices, W [4*hidden, features] and U [4*hidden, hidden],
over a flattened feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError

GATES = ("i", "f", "c", "o")


@dataclass
class ConvLstmParams:
    """Packed gate kernel k [4h, c + h, k, k, k] and bias b [4h]."""

    k: ad.Tensor
    b: ad.Tensor

    @property
    def hidden(self):
        return self.k.shape[0] // 4

    @property
    def in_channels(self):
        return self.k.shape[1] - self.hidden

    def named(self):
        return {self.k.name: self.k, self.b.name: self.b}


@dataclass
class ConvLstmState:
    h: ad.Tensor
    c: ad.Tensor


@dataclass
class DenseLstmParams:
    """Input matrix w [4h, features], state matrix u [4h, h], bias b [4h]."""

    w: ad.Tensor
    u: ad.Tensor
    b: ad.Tensor

    @property
    def hidden(self):
        return self.u.shape[1]

    @property
    def features(self):
        return self.w.shape[1]

    def named(self):
        return {t.name: t for t in (self.w, self.u, self.b)}


def _gate_bias(hidden, forget_bias, dtype):
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = forget_bias
    return b


def init_convlstm_params(rng, in_channels, hidden, kernel=3, forget_bias=1.0,
                         dtype=np.float32, prefix="convlstm"):
    """Uniform +-sqrt(1/fan_in) kernels; forget-gate bias starts at `forget_bias`.

    Draws per gate, W then U, and writes each into its block of the packed
    kernel."""
    k = np.empty((4 * hidden, in_channels + hidden, kernel, kernel, kernel), dtype=dtype)
    lim_w = float(np.sqrt(1.0 / (in_channels * kernel ** 3)))
    lim_u = float(np.sqrt(1.0 / (hidden * kernel ** 3)))
    for g in range(len(GATES)):
        rows = slice(g * hidden, (g + 1) * hidden)
        k[rows, :in_channels] = rng.uniform(-lim_w, lim_w, k[rows, :in_channels].shape)
        k[rows, in_channels:] = rng.uniform(-lim_u, lim_u, k[rows, in_channels:].shape)
    return ConvLstmParams(ad.param(f"{prefix}.k", k),
                          ad.param(f"{prefix}.b", _gate_bias(hidden, forget_bias, dtype)))


def init_dense_lstm_params(rng, features, hidden, forget_bias=1.0,
                           dtype=np.float32, prefix="blstm"):
    w = np.empty((4 * hidden, features), dtype=dtype)
    u = np.empty((4 * hidden, hidden), dtype=dtype)
    lim_w = float(np.sqrt(1.0 / features))
    lim_u = float(np.sqrt(1.0 / hidden))
    for g in range(len(GATES)):
        rows = slice(g * hidden, (g + 1) * hidden)
        w[rows] = rng.uniform(-lim_w, lim_w, (hidden, features))
        u[rows] = rng.uniform(-lim_u, lim_u, (hidden, hidden))
    return DenseLstmParams(ad.param(f"{prefix}.w", w), ad.param(f"{prefix}.u", u),
                           ad.param(f"{prefix}.b", _gate_bias(hidden, forget_bias, dtype)))


def zero_state(hidden, spatial, dtype=np.float32):
    shape = (hidden, *spatial)
    return ConvLstmState(ad.constant(np.zeros(shape, dtype=dtype)),
                         ad.constant(np.zeros(shape, dtype=dtype)))


def _lstm_update(pre, c_prev):
    """Gate algebra on stacked pre-activations [4, hidden, ...] (i, f, c, o)."""
    i = ad.sigmoid(ad.select_frame(pre, 0))
    f = ad.sigmoid(ad.select_frame(pre, 1))
    c_hat = ad.tanh(ad.select_frame(pre, 2))
    c = ad.add(ad.mul(i, c_hat), ad.mul(f, c_prev))
    o = ad.sigmoid(ad.select_frame(pre, 3))
    h = ad.mul(o, ad.tanh(c))
    return ConvLstmState(h, c)


def convlstm_step(p: ConvLstmParams, x_t, prev: ConvLstmState) -> ConvLstmState:
    """One recurrent update on feature maps [C, D, H, W]."""
    if x_t.shape[0] != p.in_channels:
        raise DimensionError(f"convlstm_step: {x_t.shape[0]} input channels, "
                             f"params expect {p.in_channels}")
    if prev.h.shape != (p.hidden, *x_t.shape[1:]):
        raise DimensionError(f"convlstm_step: state shape {prev.h.shape} does not match "
                             f"hidden {p.hidden} over {x_t.shape[1:]}")
    pre = ad.conv3d(ad.concat_channels([x_t, prev.h]), p.k, p.b, stride=1,
                    padding=p.k.shape[2] // 2)
    return _lstm_update(ad.reshape(pre, (4, p.hidden, *x_t.shape[1:])), prev.c)


def convlstm_unroll(p: ConvLstmParams, x_seq, init: ConvLstmState):
    """Sequential application over a nonempty list of feature maps; returns all h_t."""
    if not x_seq:
        raise DimensionError("convlstm_unroll: empty sequence")
    hs = []
    state = init
    for x_t in x_seq:
        state = convlstm_step(p, x_t, state)
        hs.append(state.h)
    return hs


def dense_lstm_step(p: DenseLstmParams, x_t, prev: ConvLstmState) -> ConvLstmState:
    """Gate algebra with matrix-vector transitions on 1-D vectors."""
    if x_t.shape != (p.features,):
        raise DimensionError(f"dense_lstm_step: input {x_t.shape}, expected ({p.features},)")
    if prev.h.shape != (p.hidden,):
        raise DimensionError(f"dense_lstm_step: state {prev.h.shape}, expected ({p.hidden},)")
    pre = ad.add(ad.add(ad.matvec(p.w, x_t), ad.matvec(p.u, prev.h)), p.b)
    return _lstm_update(ad.reshape(pre, (4, p.hidden)), prev.c)
