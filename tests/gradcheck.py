"""Finite-difference gradient checks and the reference end-to-end instance.

`grad_check` compares the tape's analytic gradients with central differences.
`make_gradcheck_instance` builds a registration problem on which finite
differences are a trustworthy oracle: correlated frames (movings are warped
copies of the reference), flow values held mid-cell away from the trilinear
interpolation kinks, and conv biases offset so most leaky-relu pre-activations
sit on a fixed branch. Coordinates the stencil still cannot resolve are
handled inside `grad_check`.
"""

import numpy as np

from moco4d import autodiff as ad
from moco4d import network as net
from moco4d.errors import NumericError
from moco4d.losses import LossConfig, loss_terms


def grad_check(f, params, h=1e-4, samples=200, rng=None, min_grad=0.0,
               refine=False, tol=1e-4):
    """Max relative error between analytic gradients and central differences.

    `f(params) -> Tensor` must build a scalar under the active tape;
    `params` is a dict name -> Tensor (float64 recommended). Up to `samples`
    coordinates are drawn across all parameters. The relative error is
    |analytic - numeric| / max(|analytic|, 1e-8).

    With `min_grad` > 0, sampling stratifies across parameter tensors and
    prefers coordinates whose analytic magnitude is at least `min_grad`
    (falling back to each tensor's largest-magnitude entries), so the
    relative-error metric is applied where an h-step stencil can resolve it.

    With `refine`, a coordinate whose plain stencil misses `tol` is re-measured
    at h/2. If the two stencils agree (numeric-only test), the Richardson
    combination (4*n2 - n1)/3 cancels the h^2 truncation term and becomes the
    oracle; if they disagree, the loss is not smooth enough there for a
    finite-difference oracle at this h (activation or interpolation kink) and
    the coordinate is replaced by another from the same tensor.
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    rng = rng or np.random.default_rng(0)
    with ad.Tape() as tape:
        loss = f(params)
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: non-finite loss")
    grads = ad.backward(tape, loss)

    names = sorted(grads)
    queues = {}
    if min_grad > 0.0:
        per = int(np.ceil(samples / len(names)))
        for name in names:
            mags = np.abs(grads[name].ravel())
            big = np.flatnonzero(mags >= min_grad)
            if big.size >= per:
                order = rng.permutation(big)
            else:
                order = np.argsort(mags)[::-1]
            queues[name] = [int(i) for i in order]
        coords = []
        for name in names:
            coords.extend((name, i) for i in queues[name][:per])
            queues[name] = queues[name][per:]
    else:
        flat_coords = []
        for name in names:
            flat_coords.extend((name, i) for i in range(params[name].data.size))
        if len(flat_coords) > samples:
            idx = rng.choice(len(flat_coords), size=samples, replace=False)
            flat_coords = [flat_coords[i] for i in sorted(idx)]
        coords = flat_coords
        queues = {name: [] for name in names}

    def central(name, flat, step):
        p = params[name].data
        orig = p.flat[flat]
        p.flat[flat] = orig + step
        f_hi = float(f(params).data)
        p.flat[flat] = orig - step
        f_lo = float(f(params).data)
        p.flat[flat] = orig
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NumericError("grad_check: non-finite function value")
        return (f_hi - f_lo) / (2.0 * step)

    max_rel = 0.0
    pending = list(coords)
    while pending:
        name, flat = pending.pop(0)
        analytic = float(grads[name].flat[flat])
        n1 = central(name, flat, h)
        rel = abs(analytic - n1) / max(abs(analytic), 1e-8)
        if refine and rel > tol:
            n2 = central(name, flat, h / 2.0)
            agree = abs(n2 - n1) <= 0.05 * max(abs(n1), abs(n2), 1e-8)
            if agree:
                n_r = (4.0 * n2 - n1) / 3.0
                rel = abs(analytic - n_r) / max(abs(analytic), 1e-8)
            elif queues.get(name):
                # stencil disagreement: a kink sits inside the step; this
                # coordinate has no finite-difference oracle at this h
                pending.append((name, queues[name].pop(0)))
                continue
        max_rel = max(max_rel, rel)
    return max_rel


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
    t = params.tensors
    t["flow.k"].data[:] = rng.normal(0.0, 2e-5, t["flow.k"].data.shape)
    t["flow.b"].data[:] = 0.3
    for name, off in _BIAS_OFFSETS.items():
        if f"{name}.b" in t:
            t[f"{name}.b"].data[:] = off
    if variant == net.NetVariant.S_CONVLSTM:
        # the serial cell sees O(3) features; shrink its gate kernels so the
        # sigmoid/tanh gates stay unsaturated and gradients flow upstream
        t["scell.k"].data *= 0.05

    ref = rng.normal(size=extents) + 1.0
    movs = []
    for _ in range(frames):
        fld = np.stack([ad.box_sum(ad.constant(rng.normal(size=extents)), 3).data / 27.0
                        for _ in range(3)]) * 1.5
        movs.append(ad.warp(ref, ad.constant(fld)).data + rng.normal(scale=0.02, size=extents))
    seq = net.FramePairSequence(ref, movs)
    cfg = LossConfig(lam=1.0, ncc_window=9, ncc_epsilon=1e-3)
    return params, seq, cfg


def window_loss_fn(params, seq, cfg):
    """Scalar end-to-end objective: estimate fields, warp, score."""
    movs = [np.asarray(m, dtype=np.float64) for m in seq.moving]
    ref = ad.constant(np.asarray(seq.reference, dtype=np.float64))

    def f(_params):
        fields = net.forward_fields(params, seq)
        warped = [ad.warp(m, fl) for m, fl in zip(movs, fields)]
        return loss_terms(ref, warped, fields, cfg)[0]

    return f
