"""One LSTM cell, convolutional or fully connected.

Gate algebra (per time step, with zero-padded 3-D convolutions):

    i = sigmoid(W_i * x + U_i * h_prev + b_i)
    f = sigmoid(W_f * x + U_f * h_prev + b_f)
    c_hat = tanh(W_c * x + U_c * h_prev + b_c)
    c = i . c_hat + f . c_prev
    o = sigmoid(W_o * x + U_o * h_prev + b_o)
    h = o . tanh(c)

No peephole terms. All four gates come from one packed kernel
K = [[W_i U_i], [W_f U_f], [W_c U_c], [W_o U_o]] of shape
[4*hidden, in_channels + hidden, *kernel] and one bias [4*hidden]: row block
g holds gate g (order i, f, c, o), and the columns read x first, then h. A
step is one product of K with concat[x, h_prev], whose output splits into
the four gate pre-activations. With a k x k x k kernel the product is a
convolution over feature maps [C, D, H, W]; the dense cell is the same cell
with a kernel of no spatial extent, K [4*hidden, features + hidden] applied
as a matrix-vector product to flat vectors [features].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError

GATES = ("i", "f", "c", "o")


@dataclass
class ConvLstmParams:
    """Packed gate kernel k [4h, c + h, *kernel] and bias b [4h]; a 2-D k is
    the dense cell."""

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


def _gate_bias(hidden, forget_bias, dtype):
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = forget_bias
    return b


def init_convlstm_params(rng, in_channels, hidden, kernel=(3, 3, 3), forget_bias=1.0,
                         dtype=np.float32, prefix="convlstm"):
    """Uniform +-sqrt(1/fan_in) kernels; forget-gate bias starts at `forget_bias`.

    `kernel` is the spatial kernel shape, () for the dense cell. Draws per
    gate, W then U, and writes each into its block of the packed kernel."""
    taps = int(np.prod(kernel))
    k = np.empty((4 * hidden, in_channels + hidden, *kernel), dtype=dtype)
    lim_w = float(np.sqrt(1.0 / (in_channels * taps)))
    lim_u = float(np.sqrt(1.0 / (hidden * taps)))
    for g in range(len(GATES)):
        rows = slice(g * hidden, (g + 1) * hidden)
        k[rows, :in_channels] = rng.uniform(-lim_w, lim_w, k[rows, :in_channels].shape)
        k[rows, in_channels:] = rng.uniform(-lim_u, lim_u, k[rows, in_channels:].shape)
    return ConvLstmParams(ad.param(f"{prefix}.k", k),
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
    """One recurrent update on feature maps [C, D, H, W], or on vectors [C]
    for the dense cell."""
    if x_t.shape[0] != p.in_channels:
        raise DimensionError(f"convlstm_step: {x_t.shape[0]} input channels, "
                             f"params expect {p.in_channels}")
    if prev.h.shape != (p.hidden, *x_t.shape[1:]):
        raise DimensionError(f"convlstm_step: state shape {prev.h.shape} does not match "
                             f"hidden {p.hidden} over {x_t.shape[1:]}")
    xh = ad.concat_channels([x_t, prev.h])
    if p.k.data.ndim == 5:
        pre = ad.conv3d(xh, p.k, p.b, stride=1, padding=p.k.shape[2] // 2)
    else:
        pre = ad.add(ad.matvec(p.k, xh), p.b)
    return _lstm_update(ad.reshape(pre, (4, p.hidden, *x_t.shape[1:])), prev.c)
