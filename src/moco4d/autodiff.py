"""Reverse-mode automatic differentiation over dense numpy arrays.

Primitives are recorded on an explicit tape (execution order is a valid
topological order), and `backward` walks the tape in reverse accumulating
vector-Jacobian products. A tape is differentiated once: `backward` consumes
it, freeing each node's graph as the walk passes it. Volumes may be stored in
float32; gradient checks should build float64 graphs. Reductions accumulate in
float64 regardless of storage dtype. `forward_diff`, `box_sum` and
`interp_resize` are one separable linear map: one matrix per changed axis, a
VJP that applies the transposes, and products in the matrices' dtype (float64
for `box_sum`).

A primitive takes tensors; `add` and `mul` also take a scalar second
operand, and `warp` takes its volume as an array.

The graph and the values are held apart. The tape, and every parent link,
hold a `Node`: parents, VJP, name, op, shape and dtype, and no reference to
the value. The `Tensor` that a primitive returns owns the value. A VJP
captures the arrays it reads (an operand, or its own output) and shapes,
dtypes and offsets, nothing else: never a `Tensor` or a list of them, which
would keep their values alive. So a value that no VJP reads is freed as
soon as the forward code drops its tensor, while the graph stays whole.
`leaky_relu` writes over its input's buffer, so the input's tensor holds the
activated values.
"""

from __future__ import annotations

import numpy as np

from . import pool
from .errors import ConfigurationError, DimensionError, NumericError

_TAPES: list["Tape"] = []


def _finite(arr) -> bool:
    # min/max propagate NaN and catch +-Inf without allocating a bool mask
    if arr.size == 0:
        return True
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


class Tape:
    """Ordered record of primitive applications for one scalar computation."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False


def _active_tape():
    return _TAPES[-1] if _TAPES else None


class Node:
    """One tensor's place in the graph, without its value; what a tape and a
    parent link hold.

    Holds the parents (nodes), the VJP, name, op, whether a gradient is
    needed, and the value's shape and dtype; no reference to the value, which
    lives while its `Tensor` or some VJP holds it."""

    __slots__ = ("parents", "vjp", "name", "requires_grad", "op", "shape", "dtype")

    def __init__(self, data, parents, vjp, name, requires_grad, op):
        self.parents = parents
        self.vjp = vjp
        self.name = name
        self.requires_grad = requires_grad
        self.op = op
        self.shape, self.dtype = data.shape, data.dtype

    @property
    def data(self):
        """A zero-stride stand-in of the value's shape and dtype; its `nbytes`
        is the value's."""
        return np.broadcast_to(np.zeros((), self.dtype), self.shape)


class Tensor:
    """A dense array and its `Node`; the array is the tensor's own.

    `vjp`, `name` and `requires_grad` are the node's. A taped result goes on
    the tape as its node, so dropping the tensor frees the value unless a VJP
    captured it."""

    __slots__ = ("data", "node")

    def __init__(self, data, parents=(), vjp=None, name=None, requires_grad=False,
                 op=None):
        self.data = np.asarray(data)
        parents = tuple(p.node for p in parents)
        self.node = Node(self.data, parents, vjp, name,
                         requires_grad or any(p.requires_grad for p in parents), op)
        tape = _active_tape()
        if tape is not None and parents:
            tape.nodes.append(self.node)

    @property
    def vjp(self):
        return self.node.vjp

    @vjp.setter
    def vjp(self, fn):
        self.node.vjp = fn

    @property
    def name(self):
        return self.node.name

    @property
    def requires_grad(self):
        return self.node.requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = self.name or self.node.op or "tensor"
        return f"Tensor({tag}, shape={self.data.shape}, dtype={self.data.dtype})"


def param(name, data):
    """A named leaf tensor; gradients are reported per parameter name."""
    return Tensor(np.asarray(data), name=name, requires_grad=True)


def constant(data):
    return Tensor(np.asarray(data))


def _node(data, parents, vjp, op):
    # outside a tape nothing is differentiated: a result keeps no parents and
    # no VJP, so an inference pass holds no graph
    if _active_tape() is None:
        return Tensor(data, op=op)
    return Tensor(data, parents=parents, vjp=vjp, op=op)


# -- arithmetic primitives -----------------------------------------------------

def add(a, b):
    if not isinstance(b, Tensor):
        c = float(b)
        return _node(a.data + c, [a], lambda g: (g,), "add_scalar")
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    return _node(a.data + b.data, [a, b], lambda g: (g, g), "add")


def mul(a, b):
    if not isinstance(b, Tensor):
        c = float(b)
        return _node(a.data * c, [a], lambda g: (g * c,), "mul_scalar")
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")
    av, bv = a.data, b.data
    return _node(av * bv, [a, b], lambda g: (g * bv, g * av), "mul")


def div(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"div: shape mismatch {a.data.shape} vs {b.data.shape}")
    bv = b.data
    out = a.data / bv

    def vjp(g):
        return g / bv, -g * out / bv

    return _node(out, [a, b], vjp, "div")


def square(a):
    av = a.data
    return _node(av * av, [a], lambda g: (2.0 * g * av,), "square")


def sum_all(a):
    """Sum of all entries, accumulated in float64."""
    out = np.asarray(a.data.sum(dtype=np.float64))
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        return (np.full(shape, float(g), dtype=dtype),)

    return _node(out, [a], vjp, "sum")


def mean_all(a):
    n = a.data.size
    out = np.asarray(a.data.sum(dtype=np.float64) / n)
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        return (np.full(shape, float(g) / n, dtype=dtype),)

    return _node(out, [a], vjp, "mean")


# -- activations ----------------------------------------------------------------

LEAKY_SLOPE = 0.2


def sigmoid(x):
    # no exp overflows: with e = exp(-|x|) <= 1 the numerator max(e, x >= 0)
    # is 1 for x >= 0, giving 1 / (1 + exp(-x)), and e = exp(x) below
    e = np.exp(-np.abs(x.data))
    out = np.maximum(e, x.data >= 0) / (1.0 + e)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _node(out, [x], vjp, "sigmoid")


def tanh(x):
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _node(out, [x], vjp, "tanh")


def leaky_relu(x):
    """max(x, LEAKY_SLOPE * x), written over x's own buffer.

    The input is overwritten, so call it only on a tensor that nothing else
    reads: in `src/` that is the fresh conv3d output in
    `network._conv_block`, whose VJP does not read its output. The VJP reads
    only the sign of the output, which is the sign of the input."""
    out = np.maximum(x.data, LEAKY_SLOPE * x.data, out=x.data)

    def vjp(g):
        return (g * np.maximum(out > 0, LEAKY_SLOPE, dtype=g.dtype),)

    return _node(out, [x], vjp, "leaky_relu")


# -- shape ops -------------------------------------------------------------------

def reshape(x, shape):
    shape = tuple(shape)
    in_shape = x.data.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _node(x.data.reshape(shape), [x], vjp, "reshape")


def concat_channels(parts):
    """Concatenate along the leading (channel) axis of [C,D,H,W], or of a flat
    [C]."""
    offs = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def vjp(g):
        return tuple(g[lo:hi] for lo, hi in zip(offs[:-1], offs[1:]))

    return _node(np.concatenate([p.data for p in parts]), parts, vjp, "concat")


def stack_frames(parts):
    """Stack same-shape tensors along a new leading axis."""
    return _node(np.stack([p.data for p in parts], axis=0), parts, lambda g: tuple(g),
                 "stack")


def select_frame(x, i):
    """Slice one entry off the leading axis."""
    i = int(i)
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[i] = g
        return (gx,)

    return _node(x.data[i], [x], vjp, "select")


def matvec(m, x):
    """y = M @ x for a 2-D weight matrix and 1-D vector."""
    if m.data.ndim != 2 or x.data.ndim != 1 or m.data.shape[1] != x.data.shape[0]:
        raise DimensionError(f"matvec: {m.data.shape} @ {x.data.shape}")

    mv, xv = m.data, x.data
    return _node(mv @ xv, [m, x], lambda g: (np.outer(g, xv), mv.T @ g), "matvec")


# -- 3-D convolution --------------------------------------------------------------
#
# Kernels are 3x3x3 at padding 1, stride s of 1 or 2. One
# plane-interleaved layout serves the forward pass and both VJPs. The input is
# padded by 1 once and stored as [D + 2, C, s*s, Hg, Wg]: each z-plane holds
# every channel, and each channel its s*s in-plane parity sub-planes of Hg x Wg
# (for stride 2 the padded rows and columns split by parity). Flat, with
# P = s*s*Hg*Wg, channel c of plane z*s + i sits at (i*C + c)*P past plane z*s,
# so the pair (z-tap, channel) has the one stride P. In-plane tap (j, l) reads
# sub-plane (j%s, l%s) at the row offset (j//s)*Wg + l//s, and output voxel
# (h, w) of a plane is row h*Wg + w. So each sub-plane (one at stride 1, four
# at stride 2) gives one strided [3*C, rows + its last offset] view, with no
# copy, and each of its taps reads the `rows` rows at the tap's offset. The
# forward pass stacks the kernels of a sub-plane's T taps in M: one
# [T*C_out, 3*C] x [3*C, rows + last offset] GEMM per sub-plane, batched over
# as many output planes as fit their products and sums in _CONV_STACK_BYTES.
# Each tap's product is that stack shifted by the tap's offset; the products
# are summed in tap order, and the sum plus the bias is copied into the output.
# One large-M GEMM runs faster than T GEMMs with M = C_out, while folding more
# taps into K (im2col) runs slower. The kernel gradient and the stride-2
# scatter run one GEMM per tap on its slice of the view, batched over
# _CONV_PLANES output planes. Rows with w >= Wo are computed and discarded
# (forward) or carry a zero gradient (VJPs).

_CONV_PLANES = 4
_CONV_STACK_BYTES = 2 << 20


def _parities(spatial, s):
    """Where x [C, D, H, W] goes in its plane layout: for each in-plane parity
    sub-plane, (parity, rows and columns of x, rows and columns of the
    sub-plane)."""
    _, h, w = spatial
    for a in range(s):
        for b in range(s):
            h0, w0 = (a - 1) % s, (b - 1) % s
            r, q = (h0 + 1) // s, (w0 + 1) // s
            yield (a * s + b, (slice(h0, None, s), slice(w0, None, s)),
                   (slice(r, r + len(range(h0, h, s))), slice(q, q + len(range(w0, w, s)))))


def _planes(x, s):
    """[C, D, H, W] -> plane layout [D + 2, C, s*s, Hg, Wg], zero-padded by 1."""
    c, d, h, w = x.shape
    hg, wg = (-(-(n + 2) // s) for n in (h, w))
    xp = np.zeros((d + 2, c, s * s, hg, wg), dtype=x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for par, (xh, xw), (ph, pw) in _parities(x.shape[1:], s):
        xp[1:1 + d, :, par, ph, pw] = xt[:, :, xh, xw]
    return xp


def _from_planes(xp, s, spatial):
    """Adjoint of `_planes`: plane layout -> [C, D, H, W]."""
    d = spatial[0]
    x = np.empty((xp.shape[1], *spatial), dtype=xp.dtype)
    for par, (xh, xw), (ph, pw) in _parities(spatial, s):
        x[:, :, xh, xw] = xp[1:1 + d, :, par, ph, pw].transpose(1, 0, 2, 3)
    return x


def _conv_extents(xp_shape, s):
    """Output extents (Do, Ho, Wo) and row count of a conv on a plane layout.

    For s in (1, 2), (Hp - 3)//s + 1 over the padded extent Hp equals
    Hg - 2//s over its sub-plane extent Hg = ceil(Hp / s), whichever parity
    Hp has; so too for W."""
    dp, _, _, hg, wg = xp_shape
    do, ho, wo = (dp - 3) // s + 1, hg - 2 // s, wg - 2 // s
    return (do, ho, wo), (ho - 1) * wg + wo


def _plane_batches(do, n):
    for z0 in range(0, do, n):
        yield z0, min(z0 + n, do)


def _tap_groups(s, wg):
    """Per in-plane parity sub-plane: its index, its in-plane taps
    n = j*3 + l in order, and their row offsets (rising)."""
    for a in range(s):
        for b in range(s):
            taps = [j * 3 + l for j in range(a, 3, s) for l in range(b, 3, s)]
            yield a * s + b, taps, [(n // 3 // s) * wg + n % 3 // s for n in taps]


def _sub_plane_views(xp, s, z0, z1):
    """Per sub-plane: its taps, their row offsets and the no-copy
    [z1 - z0, 3*C, rows + last offset] view of output planes z0..z1-1, whose
    entry [z, i*C + c, r] is row r of the sub-plane in input plane
    (z0 + z)*s + i, channel c. Tap n's operand is the slice [..., o:o + rows]
    at its offset o."""
    _, c, _, hg, wg = xp.shape
    _, rows = _conv_extents(xp.shape, s)
    q, p = hg * wg, s * s * hg * wg
    flat, item = xp.reshape(-1), xp.itemsize
    for sub, taps, offs in _tap_groups(s, wg):
        yield taps, offs, np.lib.stride_tricks.as_strided(
            flat[z0 * s * c * p + sub * q:], (z1 - z0, 3 * c, rows + offs[-1]),
            (s * c * p * item, p * item, item))


def _in_plane_taps(k, dtype):
    """[C_out, C_in, 3, 3, 3] -> per in-plane tap (j, l) the [C_out, 3*C_in]
    matrix whose column i*C_in + c is k[:, c, i, j, l]."""
    cout, cin = k.shape[:2]
    return np.ascontiguousarray(k.transpose(3, 4, 0, 2, 1), dtype=dtype).reshape(
        9, cout, 3 * cin)


def _correlate(xp, k, s, b):
    """Correlation of a plane layout with k, plus b: [C_out, Do, Ho, Wo],
    C-ordered. Per batch of output planes, one batched GEMM per sub-plane with
    its tap kernels stacked in M; each tap's product is a shifted slice of the
    stack, the products are summed in tap order, and the sum plus b is copied
    out."""
    cout = k.shape[0]
    kt = _in_plane_taps(k, xp.dtype)
    (do, ho, wo), rows = _conv_extents(xp.shape, s)
    wg = xp.shape[-1]
    groups = list(_tap_groups(s, wg))
    plane = cout * (ho * wg + sum(len(taps) * (rows + offs[-1]) for _, taps, offs in groups))
    zb = min(do, max(1, _CONV_STACK_BYTES // (plane * xp.itemsize)))
    y = np.empty((cout, do, ho, wo), dtype=xp.dtype)
    # one buffer holds the batch's sum rows and its stacks
    mem = np.empty(zb * plane, dtype=xp.dtype)
    at = zb * cout * ho * wg
    sums = mem[:at].reshape(zb, cout, ho * wg)
    stacks, prods = [], [None] * 9
    for _, taps, offs in groups:
        n = rows + offs[-1]
        st = mem[at:at + zb * len(taps) * cout * n].reshape(zb, len(taps) * cout, n)
        at += st.size
        stacks.append((kt[taps].reshape(-1, kt.shape[2]), st))
        for m, (t, o) in enumerate(zip(taps, offs)):
            prods[t] = st[:, m * cout:(m + 1) * cout, o:o + rows]
    voxels = sums.reshape(zb, cout, ho, wg)[..., :wo].transpose(1, 0, 2, 3)
    for z0, z1 in _plane_batches(do, zb):
        z = z1 - z0
        acc = sums[:z, :, :rows]
        for (km, st), (_, _, a) in zip(stacks, _sub_plane_views(xp, s, z0, z1)):
            np.matmul(km, a, out=st[:z])
        np.add(prods[0][:z], prods[1][:z], out=acc)
        for p in prods[2:]:
            acc += p[:z]
        np.add(voxels[:, :z], b, out=y[:, z0:z1])
    return y


def _kernel_grad(xp, gp, k_shape, s):
    """Gradient in the kernel from the input's plane layout and the output
    gradient gp [Do, C_out, Ho*Wg]: per batch and in-plane tap one batched
    GEMM [3*C_in, rows] x [rows, C_out], summed over the batch."""
    cout, cin = k_shape[:2]
    _, rows = _conv_extents(xp.shape, s)
    gk = np.zeros((9, 3 * cin, cout), dtype=gp.dtype)
    tmp = np.empty((_CONV_PLANES, 3 * cin, cout), dtype=gp.dtype)
    for z0, z1 in _plane_batches(gp.shape[0], _CONV_PLANES):
        gt, t = gp[z0:z1, :, :rows].transpose(0, 2, 1), tmp[:z1 - z0]
        for taps, offs, a in _sub_plane_views(xp, s, z0, z1):
            for n, o in zip(taps, offs):
                gk[n] += np.matmul(a[..., o:o + rows], gt, out=t).sum(axis=0)
    return np.ascontiguousarray(gk.reshape(3, 3, 3, cin, cout).transpose(4, 3, 2, 0, 1))


def _scatter_input_grad(gp, k, xp_shape, s):
    """Adjoint of `_correlate` in its input, as a plane layout: each batched
    GEMM [3*C_in, C_out] x [C_out, rows] is added through the tap's slice of
    its sub-plane view, one z-tap i at a time, since planes s*z + i are
    distinct within a batch only for one i."""
    cin = k.shape[1]
    kt = _in_plane_taps(k, gp.dtype).transpose(0, 2, 1).copy()
    _, rows = _conv_extents(xp_shape, s)
    gxp = np.zeros(xp_shape, dtype=gp.dtype)
    tmp = np.empty((_CONV_PLANES, 3 * cin, rows), dtype=gp.dtype)
    for z0, z1 in _plane_batches(gp.shape[0], _CONV_PLANES):
        g, t = gp[z0:z1, :, :rows], tmp[:z1 - z0]
        for taps, offs, a in _sub_plane_views(gxp, s, z0, z1):
            for n, o in zip(taps, offs):
                np.matmul(kt[n], g, out=t)
                for lo in range(0, 3 * cin, cin):
                    a[:, lo:lo + cin, o:o + rows] += t[:, lo:lo + cin]
    return gxp


def conv3d(x, kernels, bias, stride=1):
    """Direct (correlation) 3-D convolution: [C_in,D,H,W] -> [C_out,D',H',W'].

    Kernels must be 3x3x3; the input is zero-padded by 1 and the stride is 1
    or 2.

    All three passes run on one plane-interleaved layout (see the comment
    above `_CONV_PLANES`): the input is padded once, and each in-plane parity
    sub-plane is one strided view of it whose GEMM dimension K runs over the
    z-taps and channels. The forward pass runs one GEMM per sub-plane and
    batch of output planes, with the sub-plane's tap kernels stacked in M, and
    sums the taps' shifted products in tap order. The output is C-ordered. The
    VJP copies the output gradient once, zero-padded by 1, into a fixed
    [Do + 2, C_out, 1, Ho + 2, Wg] buffer on the input's row pitch Wg, so no
    gradient's bits depend on the incoming gradient's memory layout. The
    kernel and bias gradients read its interior rows as [Do, C_out, Ho*Wg].
    At stride 1 the buffer is the output gradient's plane layout, and the
    input gradient is the forward kernel run on it with the flipped,
    channel-transposed kernel; at stride 2 the input gradient is a scatter of
    the interior rows through each tap's slice of its sub-plane view. The
    input and kernel gradients are only computed for operands that require a
    gradient.
    """
    k = kernels.data
    if x.data.ndim != 4 or k.ndim != 5:
        raise DimensionError(f"conv3d: input ndim {x.data.ndim}, kernel ndim {k.ndim}")
    if k.shape[2:] != (3, 3, 3):
        raise DimensionError(f"conv3d: unsupported kernel extent {k.shape[2:]}")
    if k.shape[1] != x.data.shape[0]:
        raise DimensionError(f"conv3d: {k.shape[1]} kernel channels vs {x.data.shape[0]} input")
    if bias.data.shape != (k.shape[0],):
        raise DimensionError(f"conv3d: bias shape {bias.data.shape} vs {k.shape[0]} kernels")
    if stride not in (1, 2):
        raise DimensionError(f"conv3d: stride {stride} unsupported")
    if not _finite(x.data):
        raise NumericError("conv3d: non-finite input")
    xp = _planes(x.data, stride)
    y = _correlate(xp, k, stride, bias.data.reshape(-1, 1, 1, 1))
    # the input gradient reads only the kernel, the kernel gradient only the
    # input
    kv = k if x.requires_grad else None
    xv = x.data if kernels.requires_grad else None
    k_shape, bias_grad = k.shape, bias.requires_grad
    x_spatial, xp_shape, wg = x.data.shape[1:], xp.shape, xp.shape[-1]

    def vjp(g):
        cout, do, ho, wo = g.shape
        # rows w >= Wo of gp read the zero padding
        gpad = np.zeros((do + 2, cout, 1, ho + 2, wg), dtype=g.dtype)
        gpad[1:-1, :, 0, 1:-1, 1:wo + 1] = g.transpose(1, 0, 2, 3)
        gp = gpad.reshape(do + 2, cout, -1)[1:-1, :, wg + 1:wg + 1 + ho * wg]
        gx = gk = gb = None
        if kv is not None and stride == 1:
            flipped = kv.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
            gx = _correlate(gpad, flipped, 1, 0.0)
        elif kv is not None:
            gx = _from_planes(_scatter_input_grad(gp, kv, xp_shape, stride), stride,
                              x_spatial)
        if xv is not None:
            gk = _kernel_grad(_planes(xv, stride), gp, k_shape, stride)
        if bias_grad:
            gb = gp.sum(axis=(0, 2), dtype=np.float64).astype(g.dtype)
        return gx, gk, gb

    return _node(y, [x, kernels, bias], vjp, "conv3d")


# -- separable linear maps ------------------------------------------------------------
#
# One matrix per changed axis: the forward pass applies the matrices in turn, the
# VJP applies their transposes, and products run in the matrices' dtype before
# the result is cast back to the storage dtype.

def _along(x, a, axis):
    """Apply an [n_out, n_in] matrix along one axis as a (batched) GEMM whose
    result is contiguous; tensordot + moveaxis leaves it strided, 2.5x slower."""
    axis %= x.ndim
    n_in = x.shape[axis]
    out_shape = x.shape[:axis] + (a.shape[0],) + x.shape[axis + 1:]
    if axis == x.ndim - 1:
        return (x.reshape(-1, n_in) @ a.T).reshape(out_shape)
    pre = int(np.prod(x.shape[:axis]))
    return np.matmul(a, x.reshape(pre, n_in, -1)).reshape(out_shape)


def _separable(x, mats, op):
    """Tape node for the linear map that applies `mats` ({axis: matrix})."""
    dtype = x.data.dtype

    def apply(y, transpose):
        for axis, a in mats.items():
            y = _along(y, a.T if transpose else a, axis)
        return y.astype(dtype, copy=False)

    return _node(apply(x.data, False), [x], lambda g: (apply(g, True),), op)


def forward_diff(x, axis):
    """Forward difference along `axis`, zero at the far boundary."""
    n = x.data.shape[axis]
    d = np.eye(n, k=1, dtype=x.data.dtype) - np.eye(n, dtype=x.data.dtype)
    d[-1] = 0.0
    return _separable(x, {axis: d}, "forward_diff")


def box_sum(x, window):
    """Sum over a centered cubic window (zero padding); self-adjoint.

    The band matrices are float64, so the sums accumulate in float64."""
    if window % 2 != 1 or window < 1:
        raise DimensionError(f"box_sum: window must be odd positive, got {window}")
    if any(window > s for s in x.data.shape):
        raise DimensionError(f"box_sum: window {window} exceeds extents {x.data.shape}")
    hw = window // 2
    bands = {axis: np.tri(n, k=hw) - np.tri(n, k=-hw - 1)
             for axis, n in enumerate(x.data.shape)}
    return _separable(x, bands, "box_sum")


def _resize_matrix(n_out, n_in, dtype):
    """Dense [n_out, n_in] linear interpolation matrix: output pixel centers
    mapped onto the input grid, clamped to its edge samples."""
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(pos).astype(np.int64)
    f = pos - i0
    a = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    a[rows, i0] += 1.0 - f
    a[rows, np.minimum(i0 + 1, n_in - 1)] += f
    return a.astype(dtype)


def interp_resize(x, out_spatial):
    """Separable trilinear resize of the three trailing (spatial) axes.

    Sample points are pixel centers; edge samples clamp to the boundary value,
    so constants are preserved exactly and interior values are exact on
    linear ramps.
    """
    shape = x.data.shape
    mats = {axis: _resize_matrix(int(n), shape[axis], x.data.dtype)
            for axis, n in zip(range(len(shape) - 3, len(shape)), out_spatial)
            if shape[axis] != int(n)}
    return _separable(x, mats, "interp_resize")


# -- warp (backward/pull trilinear resampling) ---------------------------------------
#
# The volume is copied into a zero border of _WARP_BORDER voxels per side and
# sample positions are clamped to [-2, n], so both neighbours of a sample lie in
# the copy and a neighbour outside the volume reads 0: no masks, no clipped
# indices. A clamp at -1 would give samples in (-2, -1) a gradient from voxel 0.
#
# Both passes run one slab of z-planes at a time. A slab writes only its own
# planes of the output, so on a grid of at least pool.POOLED_MIN_VOXELS voxels
# the slabs run on the pool, one task per core; smaller grids keep the serial
# loop. Each task takes its taps and products from buffers made once per call,
# and the output is the same, bit for bit, whatever the slab size or the pool.

# output voxels per serial slab: a slab's taps and temporaries stay in cache
# (2 MB of L2 per core), which about halves a 64x64x128 warp against one
# whole-grid pass
_WARP_SLAB_VOXELS = 16384
# output voxels per pooled slab: a second thread pays only while each numpy call
# runs long with the GIL released (two threads ran a multiply-add loop 1.28x as
# fast as one at 16,384 float64 elements, 2.03x at 65,536)
_POOLED_SLAB_VOXELS = 32768
_WARP_BORDER = 2


def _warp_slabs(grid):
    """(z-slabs, whether they run on the pool, voxels of the largest slab) of
    a warp on `grid`."""
    pooled = grid[0] * grid[1] * grid[2] >= pool.POOLED_MIN_VOXELS
    plane = grid[1] * grid[2]
    step = max(1, (_POOLED_SLAB_VOXELS if pooled else _WARP_SLAB_VOXELS) // plane)
    slabs = [slice(z0, min(z0 + step, grid[0])) for z0 in range(0, grid[0], step)]
    return slabs, pooled, min(step, grid[0]) * plane


def _slab_views(buffers, zs, plane):
    """Each buffer [..., voxels] viewed as [..., planes of zs, *plane]."""
    shape = (zs.stop - zs.start,) + plane
    m = shape[0] * shape[1] * shape[2]
    return [b[..., :m].reshape(b.shape[:-1] + shape) for b in buffers]


def _warp_taps(field, zs, f, i):
    """Trilinear taps of a pull-warp by a [3, D, H, W] field on the z-planes
    `zs`, written into slab views of 7 float64 rows `f` and 2 int64 rows `i`.

    Returns (base, weights): base is the flat index of each sample's low
    corner in the bordered volume, and weights holds per axis the pair
    (1 - frac, frac). Sample positions are float64 whatever the field dtype.
    """
    grid = field.shape[1:]
    base, lo_int = i
    lo = f[6]
    weights = []
    for a, n in enumerate(grid):
        coord = np.arange(zs.start, zs.stop) if a == 0 else np.arange(n)
        low, frac = f[2 * a], f[2 * a + 1]
        # the sample position, then its weights, in place
        np.add(coord.reshape([-1 if j == a else 1 for j in range(3)]), field[a, zs], out=low)
        np.clip(low, -_WARP_BORDER, n, out=low)
        np.floor(low, out=lo)
        np.subtract(low, lo, out=frac)
        np.subtract(1.0, frac, out=low)
        np.copyto(lo_int, lo, casting="unsafe")
        lo_int += _WARP_BORDER
        if a:
            base *= n + 2 * _WARP_BORDER
            base += lo_int
        else:
            np.copyto(base, lo_int)
        weights.append((low, frac))
    return base, weights


def warp(volume, field):
    """Trilinear pull-warp: out(v) = volume(v + field(v)); outside reads 0.

    `volume` is an array, [D, H, W] or [C, D, H, W] with every channel
    warped by the same field; `field` is a [3, D, H, W] tensor
    (displacements in voxels of the volume's own grid) and must be finite.
    The node's one parent is the field, whose gradient sums over channels.

    On a grid of at least `pool.POOLED_MIN_VOXELS` voxels the forward pass
    and the field VJP run their z-slabs on the pool, in larger slabs; the
    result is the same, bit for bit, as from the serial loop.
    """
    if volume.ndim not in (3, 4):
        raise DimensionError(
            f"warp: volume must be [D,H,W] or [C,D,H,W], got {volume.shape}")
    grid = volume.shape[-3:]
    if field.data.shape != (3,) + grid:
        raise DimensionError(
            f"warp: field shape {field.data.shape} does not match volume {volume.shape}")
    if not _finite(field.data):
        raise NumericError("warp: non-finite field")
    chans = volume.reshape((-1,) + grid)            # [C, D, H, W]
    disp = field.data
    nc = len(chans)
    slabs, pooled, voxels = _warp_slabs(grid)
    # shape of the zero-bordered copy, and the volume's place in it
    bordered = (nc,) + tuple(n + 2 * _WARP_BORDER for n in grid)
    inner = (slice(None),) + (slice(_WARP_BORDER, -_WARP_BORDER),) * 3
    _, _, hp, wp = bordered
    # the 8 corners, z-major, with their flat offsets from the low corner
    corners = [(a, b, c, (a * hp + b) * wp + c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]

    def flat_bordered():
        flat = np.zeros(bordered, dtype=chans.dtype)
        flat[inner] = chans
        return flat.reshape(nc, -1)

    def gather(flat, base, off, vals):
        # one 1-D take per channel: a 2-D take along axis 1 is about 8x slower;
        # mode="clip" (the indices are in range) writes to `out` unbuffered
        for f, v in zip(flat, vals):
            np.take(f[off:], base, out=v, mode="clip")

    def vjp(g):
        # taps and the bordered copy are rebuilt here, not kept alive on the
        # tape
        g = g.reshape(chans.shape)
        flat = flat_bordered()
        gfield = np.zeros_like(disp)

        def slab_vjp(zs, buffers):
            f, i, vals, gv, t, s, s_cast = _slab_views(buffers, zs, grid[1:])
            base, (wz, wy, wx) = _warp_taps(disp, zs, f, i)
            gs, gf = g[:, zs], gfield[:, zs]
            for a, b, c, off in corners:
                gather(flat, base, off, vals)
                np.multiply(gs, vals, out=gv)
                # the weight derivative in the displacement is -1 at the
                # low neighbour and +1 at the high one
                for axis, up, p, q in ((0, a, wy[b], wx[c]), (1, b, wz[a], wx[c]),
                                       (2, c, wz[a], wy[b])):
                    np.multiply(gv, p, out=t)
                    t *= q
                    np.sum(t, axis=0, out=s)
                    np.copyto(s_cast, s)
                    (np.add if up else np.subtract)(gf[axis], s_cast, out=gf[axis])

        pool.run_chunks(slab_vjp, slabs, lambda: (
            np.empty((7, voxels)), np.empty((2, voxels), np.int64),
            np.empty((nc, voxels), chans.dtype),
            np.empty((nc, voxels), np.result_type(g, chans)), np.empty((nc, voxels)),
            np.empty(voxels), np.empty(voxels, gfield.dtype)), pooled)
        return (gfield,)

    flat = flat_bordered()
    out = np.zeros(chans.shape, dtype=chans.dtype)

    def slab_forward(zs, buffers):
        f, i, vals, prod = _slab_views(buffers, zs, grid[1:])
        base, (wz, wy, wx) = _warp_taps(disp, zs, f, i)
        wzy, w = f[7], f[8]
        for a, b, c, off in corners:
            if c == 0:
                np.multiply(wz[a], wy[b], out=wzy)      # shared by each x pair
            np.multiply(wzy, wx[c], out=w)
            gather(flat, base, off, vals)
            for slab, v in zip(out[:, zs], vals):
                # the float64 product, rounded once to the volume's dtype
                np.multiply(w, v, out=prod, casting="unsafe")
                slab += prod

    pool.run_chunks(slab_forward, slabs, lambda: (
        np.empty((9, voxels)), np.empty((2, voxels), np.int64),
        np.empty((nc, voxels), chans.dtype), np.empty(voxels, chans.dtype)), pooled)
    return _node(out.reshape(volume.shape), [field], vjp, "warp")


# -- backward pass --------------------------------------------------------------------

def backward(tape, loss):
    """Accumulate gradients of a scalar loss over the tape, consuming it.

    Returns a dict mapping parameter name -> gradient array for every named
    leaf tensor with requires_grad that the loss depends on. A vjp may return
    None for a parent that does not require a gradient.

    The walk frees the graph as it goes: each node is popped off the tape,
    its VJP is run, and its `parents` and `vjp` are dropped, and with the
    VJP the values it captured. Every consumer of a node comes later on the
    tape and has already been walked, so an activation is freed once the
    walk has passed it, and the pass holds no more than the forward pass
    did. The tape is left empty; a second call on it raises
    ConfigurationError, as does a loss that was not recorded on the tape.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not tape.nodes:
        raise ConfigurationError("backward: the tape holds no graph; a tape is "
                                 "differentiated once")
    if loss.node not in tape.nodes:
        raise ConfigurationError("backward: the loss was not recorded on this tape")
    grads: dict[Node, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    by_name: dict[str, np.ndarray] = {}
    while tape.nodes:
        node = tape.nodes.pop()
        g = grads.pop(node, None)
        vjp, parents = node.vjp, node.parents
        node.vjp, node.parents = None, ()
        if g is None or vjp is None:
            continue
        pgrads = vjp(g)
        for parent, pg in zip(parents, pgrads):
            if not parent.requires_grad:
                continue
            if pg.shape != parent.shape:
                raise DimensionError(
                    f"gradient shape {pg.shape} != parameter shape {parent.shape}")
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
            if parent.vjp is None and parent.name is not None:
                by_name[parent.name] = grads[parent]
    return by_name
