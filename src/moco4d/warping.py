"""Displacement fields, pull-warping, and field resampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, NumericError


@dataclass
class DisplacementField:
    """Per-voxel 3-vector displacements in voxels of the field's own grid."""

    data: np.ndarray  # [3, D, H, W]
    spacing_mm: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 4 or self.data.shape[0] != 3:
            raise DimensionError(f"field must be [3,D,H,W], got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise NumericError("non-finite displacement field")

    @property
    def grid(self):
        return self.data.shape[1:]


def warp(volume, field):
    """Trilinear pull-warp of a [D, H, W] volume, or of each channel of a
    [C, D, H, W] volume by the same field; accepts arrays or graph tensors.

    out(v) = volume(v + field(v)); samples outside the volume read 0.
    """
    graph = isinstance(volume, ad.Tensor) or isinstance(field, ad.Tensor)
    out = ad.warp(volume, field)
    return out if graph else out.data


def resample_field(field: DisplacementField, factor: int) -> DisplacementField:
    """Trilinear upsampling of a field by `factor` on every axis, from the
    working grid back to a finer one: extents and displacement values (in
    voxels) multiply by `factor`, the spacing divides by it.
    """
    if factor < 2:
        raise DimensionError(f"resample_field: factor must be >= 2, got {factor}")
    target = tuple(n * factor for n in field.grid)
    new_spacing = tuple(s / factor for s in field.spacing_mm)
    out = ad.interp_resize(ad.constant(field.data), target).data * float(factor)
    return DisplacementField(out.astype(field.data.dtype, copy=False), new_spacing)
