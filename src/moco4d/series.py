"""The 4-D dynamic series: frames over time with timing and spacing metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError


@dataclass
class FrameSeries:
    """T frames of a 3-D volume with per-frame mid-times and durations (min)."""

    data: np.ndarray                     # [T, D, H, W]
    mid_times: np.ndarray                # [T], strictly increasing
    durations: np.ndarray                # [T], positive
    voxel_size_mm: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        self.mid_times = np.asarray(self.mid_times, dtype=np.float64)
        self.durations = np.asarray(self.durations, dtype=np.float64)
        if self.data.ndim != 4:
            raise DimensionError(f"series data must be [T,D,H,W], got {self.data.shape}")
        t = self.data.shape[0]
        if self.mid_times.shape != (t,) or self.durations.shape != (t,):
            raise DimensionError("frame timing arrays must match the frame count")
        if t > 1 and not np.all(np.diff(self.mid_times) > 0):
            raise DimensionError("frame mid-times must be strictly increasing")
        if np.any(self.durations <= 0):
            raise DimensionError("frame durations must be positive")
        if not np.isfinite(self.data).all():
            raise NumericError("non-finite voxels in frame series")

    @property
    def frames(self):
        return self.data.shape[0]

    @property
    def grid(self):
        return self.data.shape[1:]

    def with_data(self, data):
        return FrameSeries(data, self.mid_times.copy(), self.durations.copy(),
                           self.voxel_size_mm)
