"""Whole-volume alignment metrics."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

NMI_BINS = 64


def nmi(a, b):
    """Normalized mutual information (H(A) + H(B)) / H(A,B) from a joint
    histogram of NMI_BINS x NMI_BINS bins over each image's min-max range; NaN
    for constant input."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise DimensionError("nmi: shapes differ")
    if a.min() == a.max() or b.min() == b.max():
        return float("nan")
    joint, _, _ = np.histogram2d(a, b, bins=NMI_BINS)
    p = joint / joint.sum()
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)

    def entropy(q):
        q = q[q > 0]
        return -np.sum(q * np.log(q))

    h_ab = entropy(p.ravel())
    return float((entropy(pa) + entropy(pb)) / h_ab)


def global_ncc(a, b):
    """Pearson correlation over all voxels; NaN for constant input."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionError("global_ncc: shapes differ")
    am = a - a.mean()
    bm = b - b.mean()
    den = np.sqrt(np.sum(am * am) * np.sum(bm * bm))
    if den == 0.0:
        return float("nan")
    return float(np.sum(am * bm) / den)
