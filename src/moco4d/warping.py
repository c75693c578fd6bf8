"""Displacement fields, pull-warping, and field resampling."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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

    def to_mm(self):
        """Displacements in millimetres (reporting only)."""
        sp = np.asarray(self.spacing_mm, dtype=self.data.dtype)
        return self.data * sp[:, None, None, None]


def warp(volume, field):
    """Trilinear pull-warp of a [D, H, W] volume, or of each channel of a
    [C, D, H, W] volume by the same field; accepts arrays or graph tensors.

    out(v) = volume(v + field(v)); samples outside the volume read 0.
    """
    graph = isinstance(volume, ad.Tensor) or isinstance(field, ad.Tensor)
    if isinstance(field, DisplacementField):
        field = field.data
    out = ad.warp(volume, field)
    return out if graph else out.data


def resample_field(field: DisplacementField, factor: int, direction: str) -> DisplacementField:
    """Trilinear field resampling with voxel-unit rescaling of magnitudes.

    Upsampling by `factor` multiplies extents and displacement values by
    `factor`; downsampling divides (extents must divide evenly).
    """
    if factor < 2:
        raise DimensionError(f"resample_field: factor must be >= 2, got {factor}")
    if direction not in ("up", "down"):
        raise DimensionError(f"resample_field: direction {direction!r}")
    d, h, w = field.grid
    if direction == "up":
        target = (d * factor, h * factor, w * factor)
        scale = float(factor)
        new_spacing = tuple(s / factor for s in field.spacing_mm)
    else:
        if d % factor or h % factor or w % factor:
            raise DimensionError(
                f"resample_field: extents {field.grid} not divisible by {factor}")
        target = (d // factor, h // factor, w // factor)
        scale = 1.0 / factor
        new_spacing = tuple(s * factor for s in field.spacing_mm)
    out = ad.interp_resize(ad.constant(field.data), target).data * scale
    return DisplacementField(out.astype(field.data.dtype, copy=False), new_spacing)
