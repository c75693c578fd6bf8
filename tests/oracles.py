"""Independent reference implementations shared across test modules.

These deliberately avoid the library's vectorized code paths: plain loops
and direct formula transcriptions only.
"""

import tracemalloc

import numpy as np

from moco4d.network import _DECODER, _ENCODER, DOWN_FACTOR, NetVariant

PAPER_EXTENTS = (128, 128, 256)


def conv3d_naive(x, k, b, stride=1, padding=0):
    """7-nested-loop direct correlation."""
    cin, D, H, W = x.shape
    cout, _, ks, _, _ = k.shape
    xp = np.pad(x, ((0, 0), (padding,) * 2, (padding,) * 2, (padding,) * 2))
    Do = (D + 2 * padding - ks) // stride + 1
    Ho = (H + 2 * padding - ks) // stride + 1
    Wo = (W + 2 * padding - ks) // stride + 1
    y = np.zeros((cout, Do, Ho, Wo), dtype=np.float64)
    for o in range(cout):
        for d in range(Do):
            for h in range(Ho):
                for w in range(Wo):
                    acc = 0.0
                    for c in range(cin):
                        for i in range(ks):
                            for j in range(ks):
                                for l in range(ks):
                                    acc += (xp[c, d * stride + i, h * stride + j,
                                               w * stride + l] * k[o, c, i, j, l])
                    y[o, d, h, w] = acc + b[o]
    return y


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid_two_exp(x):
    """Overflow-free sigmoid from two exps: exp(min(x, 0)) / (1 + exp(-|x|))."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def leaky_relu_where(x, slope, g):
    """Leaky ReLU by select: the output np.where(x > 0, x, slope * x) and the
    VJP np.where(x > 0, g, g * slope) of an output gradient g."""
    return np.where(x > 0, x, slope * x), np.where(x > 0, g, g * slope)


def convlstm_step_scalar(w, u, b, x_t, h_prev, c_prev):
    """Straight-line transcription of the gate equations using the naive conv.

    w, u, b are dicts over gates 'i','f','c','o' of plain arrays.
    """
    pad = w["i"].shape[2] // 2
    hid = w["i"].shape[0]
    zero_b = np.zeros(hid)

    def pre(g):
        return (conv3d_naive(x_t, w[g], b[g], 1, pad)
                + conv3d_naive(h_prev, u[g], zero_b, 1, pad))

    i = sigmoid_np(pre("i"))
    f = sigmoid_np(pre("f"))
    c_hat = np.tanh(pre("c"))
    c = i * c_hat + f * c_prev
    o = sigmoid_np(pre("o"))
    h = o * np.tanh(c)
    return h, c


def dense_lstm_step_formula(w, u, b, x_t, h_prev, c_prev):
    """The dense cell with separate input and state matrices: the four gate
    pre-activations are W x + U h + b, split into row blocks i, f, c, o."""
    pre = (w @ x_t + u @ h_prev + b).reshape(4, -1)
    i, f, o = sigmoid_np(pre[0]), sigmoid_np(pre[1]), sigmoid_np(pre[3])
    c = i * np.tanh(pre[2]) + f * c_prev
    return o * np.tanh(c), c


def shift_volume(vol, dz, dy, dx):
    """Integer-shift oracle for pull-warp with constant displacement.

    out[v] = vol[v + d] with zeros where v + d leaves the volume.
    """
    D, H, W = vol.shape
    out = np.zeros_like(vol)
    for z in range(D):
        for y in range(H):
            for x in range(W):
                sz, sy, sx = z + dz, y + dy, x + dx
                if 0 <= sz < D and 0 <= sy < H and 0 <= sx < W:
                    out[z, y, x] = vol[sz, sy, sx]
    return out


def warp_trilinear_naive(vol, field):
    """Triple-loop trilinear pull-warp: out[v] sums the 8 corners around
    v + field[v], z-major; each term is the corner's float64 trilinear weight
    times the voxel, rounded to the volume's dtype and summed in it. Corners
    outside the volume read 0."""
    D, H, W = vol.shape
    cast = vol.dtype.type
    out = np.zeros(vol.shape, dtype=vol.dtype)
    for z in range(D):
        for y in range(H):
            for x in range(W):
                p = (z + float(field[0, z, y, x]), y + float(field[1, z, y, x]),
                     x + float(field[2, z, y, x]))
                lo = [int(np.floor(c)) for c in p]
                frac = [c - f for c, f in zip(p, lo)]
                acc = cast(0)
                for corner in range(8):
                    idx, weight = [], 1.0
                    for axis in range(3):
                        up = (corner >> (2 - axis)) & 1
                        idx.append(lo[axis] + up)
                        weight *= frac[axis] if up else 1.0 - frac[axis]
                    if 0 <= idx[0] < D and 0 <= idx[1] < H and 0 <= idx[2] < W:
                        acc = cast(acc + cast(weight * float(vol[idx[0], idx[1], idx[2]])))
                out[z, y, x] = acc
    return out


def interp_resize_naive(x, out_spatial):
    """Per output voxel of the three trailing axes: the pixel-center source
    coordinate (i + 0.5) * n_in / n_out - 0.5 on each axis, clamped to
    [0, n_in - 1], then a trilinear blend of its 8 neighbours (the upper
    neighbour clamped too)."""
    lead, spatial = x.shape[:-3], x.shape[-3:]
    flat = x.reshape((-1,) + spatial)
    out = np.zeros((flat.shape[0],) + tuple(out_spatial))

    def taps(i, n_out, n_in):
        c = min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        lo = int(np.floor(c))
        return (lo, min(lo + 1, n_in - 1)), (1.0 - (c - lo), c - lo)

    for z in range(out_spatial[0]):
        iz, wz = taps(z, out_spatial[0], spatial[0])
        for y in range(out_spatial[1]):
            iy, wy = taps(y, out_spatial[1], spatial[1])
            for x_ in range(out_spatial[2]):
                ix, wx = taps(x_, out_spatial[2], spatial[2])
                for corner in range(8):
                    a, b, c = (corner >> 2) & 1, (corner >> 1) & 1, corner & 1
                    out[:, z, y, x_] += (wz[a] * wy[b] * wx[c]
                                         * flat[:, iz[a], iy[b], ix[c]])
    return out.reshape(lead + tuple(out_spatial))


def smoothness_naive(field):
    """Triple-loop mean of squared forward differences (zero at far boundary)."""
    C, D, H, W = field.shape
    total = 0.0
    for c in range(C):
        for z in range(D):
            for y in range(H):
                for x in range(W):
                    if z + 1 < D:
                        total += (field[c, z + 1, y, x] - field[c, z, y, x]) ** 2
                    if y + 1 < H:
                        total += (field[c, z, y + 1, x] - field[c, z, y, x]) ** 2
                    if x + 1 < W:
                        total += (field[c, z, y, x + 1] - field[c, z, y, x]) ** 2
    return total / (3 * C * D * H * W)


def pearson_naive(a, b):
    a = a.ravel()
    b = b.ravel()
    am, bm = a.mean(), b.mean()
    num = ((a - am) * (b - bm)).sum()
    den = np.sqrt(((a - am) ** 2).sum() * ((b - bm) ** 2).sum())
    return num / den


def patlak_wls_scalar(cum, cp, y, w):
    """Weighted least squares of y = Ki * cum + Vb * cp over the fitted frames.

    Returns (ki, vb, degenerate); singular systems fall back to the
    pure-vascular ratio.
    """
    a11 = np.sum(w * cum * cum)
    a12 = np.sum(w * cum * cp)
    a22 = np.sum(w * cp * cp)
    b1 = np.sum(w * cum * y)
    b2 = np.sum(w * cp * y)
    det = a11 * a22 - a12 * a12
    if abs(det) <= 1e-12 * max(a11 * a22, 1e-300):
        return 0.0, float(b2 / a22 if a22 > 0 else 0.0), True
    return float((b1 * a22 - b2 * a12) / det), float((a11 * b2 - a12 * b1) / det), False


def patlak_nfe_scalar(cum, cp, y, w, ki, vb):
    """Normalized weighted mean fitting error of a fixed line, with the (n - 2)
    degrees-of-freedom denominator; NaN when all activities vanish."""
    n = len(y)
    num = np.sum(w * (ki * cum + vb * cp - y) ** 2)
    den = (n - 2) * np.sum((w * y / n) ** 2)
    if den == 0.0:
        return float("nan")
    return float(num / den)


def traced_peak_bytes(fn):
    """Peak of the memory traced by tracemalloc (numpy buffers included)
    while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_params(params) -> int:
    """Exact number of scalar learnables in a constructed model."""
    return int(sum(t.size for t in params.named().values()))


def expected_param_count(variant, extents=PAPER_EXTENTS) -> int:
    """Closed-form parameter count (no allocation); used to sanity-check
    construction and to size the dense-LSTM variant without building it."""
    variant = NetVariant(variant)

    def conv(cin, cout, k=3):
        return cout * (cin * k ** 3 + 1)

    total = sum(conv(cin, cout) for _, cin, cout, _s in _ENCODER)
    total += sum(conv(cin, cout) for _, cin, cout in _DECODER)
    if variant == NetVariant.B_CONVLSTM:
        total += 4 * (32 * 32 * 27 * 2 + 32)
    elif variant == NetVariant.S_CONVLSTM:
        total += conv(16, 16)                       # serial conv
        total += 4 * (32 * 16 * 27 + 32 * 32 * 27 + 32)
    elif variant == NetVariant.B_LSTM:
        s = int(np.prod([e // DOWN_FACTOR for e in extents]))
        total += 4 * (s * (32 * s) + s * s + s)
        total += conv(1, 32)                        # channel restore
    total += conv(32 if variant == NetVariant.S_CONVLSTM else 16, 3)
    return total
