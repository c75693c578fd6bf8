"""Training objective: windowed NCC similarity plus displacement smoothness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DimensionError, require_finite, require_integers


@dataclass
class LossConfig:
    lam: float = 1.0           # smoothness weight
    ncc_window: int = 9
    ncc_epsilon: float = 1e-5

    def __post_init__(self):
        require_finite(self, "lam", "ncc_epsilon")
        require_integers(self, "ncc_window")
        if self.lam < 0:
            raise ConfigurationError("lambda must be nonnegative")
        if self.ncc_window % 2 != 1 or self.ncc_window < 1:
            raise ConfigurationError("ncc_window must be odd positive")
        if self.ncc_epsilon <= 0:
            raise ConfigurationError("ncc_epsilon must be positive")


def local_ncc_map(a, b, cfg: LossConfig):
    """Per-voxel windowed correlation measure cov^2 / (var_a * var_b + eps).

    Windows are zero-padded with a fixed window count, so near-boundary
    windows include virtual zeros.
    """
    if a.shape != b.shape:
        raise DimensionError(f"local_ncc: shapes {a.shape} vs {b.shape}")
    if any(cfg.ncc_window > s for s in a.shape):
        raise DimensionError(f"local_ncc: window {cfg.ncc_window} exceeds extents {a.shape}")
    w = cfg.ncc_window
    n = float(w ** 3)
    sa = ad.box_sum(a, w)
    sb = ad.box_sum(b, w)
    saa = ad.box_sum(ad.mul(a, a), w)
    sbb = ad.box_sum(ad.mul(b, b), w)
    sab = ad.box_sum(ad.mul(a, b), w)
    ua = ad.mul(sa, 1.0 / n)
    ub = ad.mul(sb, 1.0 / n)
    # cross = sum((a-ua)(b-ub)); var analogously, all over the window
    cross = ad.add(ad.add(sab, ad.add(ad.mul(ad.mul(ua, sb), -1.0),
                                      ad.mul(ad.mul(ub, sa), -1.0))),
                   ad.mul(ad.mul(ua, ub), n))
    var_a = ad.add(ad.add(saa, ad.mul(ad.mul(ua, sa), -2.0)), ad.mul(ad.mul(ua, ua), n))
    var_b = ad.add(ad.add(sbb, ad.mul(ad.mul(ub, sb), -2.0)), ad.mul(ad.mul(ub, ub), n))
    denom = ad.add(ad.mul(var_a, var_b), cfg.ncc_epsilon)
    return ad.div(ad.mul(cross, cross), denom)


def local_ncc(a, b, cfg: LossConfig):
    """Mean windowed correlation measure over all voxels; in [0, 1]."""
    return ad.mean_all(local_ncc_map(a, b, cfg))


def smoothness(field):
    """Mean squared forward-difference gradient over voxels, channels, axes.

    The far boundary difference is zero; the normalization is the total
    number of voxel sites times the nine component-derivatives.
    """
    if field.shape[0] != 3 or len(field.shape) != 4:
        raise DimensionError(f"smoothness: field must be [3,D,H,W], got {field.shape}")
    nvox = int(np.prod(field.shape[1:]))
    total = None
    for axis in (1, 2, 3):
        part = ad.sum_all(ad.square(ad.forward_diff(field, axis)))
        total = part if total is None else ad.add(total, part)
    return ad.mul(total, 1.0 / (9.0 * nvox))


def loss_terms(reference, warped_list, fields, cfg: LossConfig):
    """(total, similarity_sum, smoothness_sum) with total built on the graph.

    The total sums -local_ncc(reference, warped) + lambda * smoothness(field)
    over frames; `warped_list` and `fields` pair up one to one."""
    if len(warped_list) != len(fields):
        raise DimensionError(
            f"loss_terms: {len(warped_list)} warped frames vs {len(fields)} fields")
    sim = 0.0
    smo = 0.0
    loss = None
    for warped, field in zip(warped_list, fields):
        ncc = local_ncc(reference, warped, cfg)
        pen = smoothness(field)
        sim += float(ncc.data)
        smo += float(pen.data)
        term = ad.add(ad.mul(ncc, -1.0), ad.mul(pen, cfg.lam))
        loss = term if loss is None else ad.add(loss, term)
    return loss, sim, smo
