"""Training objective: windowed NCC similarity plus displacement smoothness.

The job trains one objective, so its settings are module constants:
LAMBDA = 1 weighs the smoothness term, NCC_WINDOW = 9 voxels is the side of
the NCC window, and NCC_EPSILON = 1e-5 keeps the NCC denominator positive.
The functions read them at call time, so a test changes them with
`monkeypatch`: a 3- or 5-voxel window on grids smaller than 9 voxels,
another weight, or the gradchecks' larger epsilon. If a study sweeps the
weight, LAMBDA becomes a value that the job sets.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DimensionError

LAMBDA = 1.0          # smoothness weight
NCC_WINDOW = 9        # voxels per side of the NCC window
NCC_EPSILON = 1e-5    # added to the NCC denominator


def local_ncc_map(a, b):
    """Per-voxel windowed correlation measure cov^2 / (var_a * var_b + eps).

    With window sums S(.) over n voxels, cov = S(ab) - S(a) S(b) / n and
    var_a = S(a^2) - S(a)^2 / n. Windows are zero-padded with a fixed window
    count, so near-boundary windows include virtual zeros; `box_sum` rejects
    a window larger than the extents.
    """
    if a.shape != b.shape:
        raise DimensionError(f"local_ncc: shapes {a.shape} vs {b.shape}")
    w = NCC_WINDOW
    neg_inv_n = -1.0 / float(w ** 3)
    sa = ad.box_sum(a, w)
    sb = ad.box_sum(b, w)
    saa = ad.box_sum(ad.square(a), w)
    sbb = ad.box_sum(ad.square(b), w)
    sab = ad.box_sum(ad.mul(a, b), w)
    cross = ad.add(sab, ad.mul(ad.mul(sa, sb), neg_inv_n))
    var_a = ad.add(saa, ad.mul(ad.square(sa), neg_inv_n))
    var_b = ad.add(sbb, ad.mul(ad.square(sb), neg_inv_n))
    denom = ad.add(ad.mul(var_a, var_b), NCC_EPSILON)
    return ad.div(ad.square(cross), denom)


def local_ncc(a, b):
    """Mean windowed correlation measure over all voxels; in [0, 1]."""
    return ad.mean_all(local_ncc_map(a, b))


def smoothness(field):
    """Mean squared forward-difference gradient over voxels, channels, axes.

    The far boundary difference is zero; the normalization is the total
    number of voxel sites times the nine component-derivatives.
    """
    if len(field.shape) != 4 or field.shape[0] != 3:
        raise DimensionError(f"smoothness: field must be [3,D,H,W], got {field.shape}")
    nvox = int(np.prod(field.shape[1:]))
    total = None
    for axis in (1, 2, 3):
        part = ad.sum_all(ad.square(ad.forward_diff(field, axis)))
        total = part if total is None else ad.add(total, part)
    return ad.mul(total, 1.0 / (9.0 * nvox))


def loss_terms(reference, warped_list, fields):
    """(total, similarity_sum, smoothness_sum) with total built on the graph.

    The total sums -local_ncc(reference, warped) + LAMBDA * smoothness(field)
    over frames; `warped_list` and `fields` pair up one to one."""
    if len(warped_list) != len(fields):
        raise DimensionError(
            f"loss_terms: {len(warped_list)} warped frames vs {len(fields)} fields")
    sim = 0.0
    smo = 0.0
    loss = None
    for warped, field in zip(warped_list, fields):
        ncc = local_ncc(reference, warped)
        pen = smoothness(field)
        sim += float(ncc.data)
        smo += float(pen.data)
        term = ad.add(ad.mul(ncc, -1.0), ad.mul(pen, LAMBDA))
        loss = term if loss is None else ad.add(loss, term)
    return loss, sim, smo
