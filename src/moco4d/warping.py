"""Displacement fields, pull-warping of a series, and field resampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, NumericError


@dataclass
class DisplacementField:
    """Per-voxel 3-vector displacements in voxels of the field's own grid."""

    data: np.ndarray  # [3, D, H, W]

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 4 or self.data.shape[0] != 3:
            raise DimensionError(f"field must be [3,D,H,W], got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise NumericError("non-finite displacement field")

    @property
    def grid(self):
        return self.data.shape[1:]


def warp_series(series, fields):
    """The series with frame t pull-warped by `fields[t]` (one DisplacementField
    per frame, on the series grid); a frame whose field is all zero is
    returned unchanged, bit for bit."""
    if len(fields) != series.frames:
        raise DimensionError(f"warp_series: {len(fields)} fields for {series.frames} frames")
    data = np.array(series.data, copy=True)
    for frame, fld in zip(data, fields):
        if fld.data.any():
            frame[...] = ad.warp(frame, ad.constant(fld.data)).data
    return series.with_data(data)


def resample_field(field: DisplacementField, factor: int) -> DisplacementField:
    """Trilinear upsampling of a field by `factor` on every axis, from the
    working grid back to a finer one: extents and displacement values (in
    voxels) multiply by `factor`.
    """
    if factor < 2:
        raise DimensionError(f"resample_field: factor must be >= 2, got {factor}")
    target = tuple(n * factor for n in field.grid)
    out = ad.interp_resize(ad.constant(field.data), target).data * float(factor)
    return DisplacementField(out.astype(field.data.dtype, copy=False))
