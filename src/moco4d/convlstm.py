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

The kernel and bias are two named parameters, `<prefix>.k` and `<prefix>.b`,
held in the model's one parameter dict; a step reads the hidden and input
sizes off the kernel's shape and starts from a zero state when it has none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError

GATES = ("i", "f", "c", "o")
FORGET_BIAS = 1.0


@dataclass
class ConvLstmState:
    h: ad.Tensor
    c: ad.Tensor


def init_convlstm_params(rng, in_channels, hidden, kernel=(3, 3, 3), dtype=np.float32,
                         prefix="convlstm"):
    """{`prefix`.k, `prefix`.b}: uniform +-sqrt(1/fan_in) kernels, and a
    bias that is FORGET_BIAS on the forget gate and zero elsewhere.

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
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = FORGET_BIAS
    return {f"{prefix}.k": ad.param(f"{prefix}.k", k),
            f"{prefix}.b": ad.param(f"{prefix}.b", b)}


def _lstm_update(pre, c_prev):
    """Gate algebra on stacked pre-activations [4, hidden, ...] (i, f, c, o)."""
    i = ad.sigmoid(ad.select_frame(pre, 0))
    f = ad.sigmoid(ad.select_frame(pre, 1))
    c_hat = ad.tanh(ad.select_frame(pre, 2))
    c = ad.add(ad.mul(i, c_hat), ad.mul(f, c_prev))
    o = ad.sigmoid(ad.select_frame(pre, 3))
    h = ad.mul(o, ad.tanh(c))
    return ConvLstmState(h, c)


def convlstm_step(k, b, x_t, prev) -> ConvLstmState:
    """One recurrent update of the cell with packed kernel k and bias b on
    feature maps [C, D, H, W], or on vectors [C] for the dense cell; a `prev`
    of None is the zero state."""
    hidden = k.shape[0] // 4
    if x_t.shape[0] != k.shape[1] - hidden:
        raise DimensionError(f"convlstm_step: {x_t.shape[0]} input channels, "
                             f"params expect {k.shape[1] - hidden}")
    spatial = x_t.shape[1:]
    if prev is None:
        zero = ad.constant(np.zeros((hidden, *spatial), dtype=x_t.dtype))
        prev = ConvLstmState(zero, zero)
    elif prev.h.shape != (hidden, *spatial):
        raise DimensionError(f"convlstm_step: state shape {prev.h.shape} does not match "
                             f"hidden {hidden} over {spatial}")
    xh = ad.concat_channels([x_t, prev.h])
    if k.data.ndim == 5:
        pre = ad.conv3d(xh, k, b, stride=1)
    else:
        pre = ad.add(ad.matvec(k, xh), b)
    return _lstm_update(ad.reshape(pre, (4, hidden, *spatial)), prev.c)
