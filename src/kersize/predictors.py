"""Built-in reconstruction maps.

Each ``*_map`` helper returns per-measurement predictions keyed by
measurement id, the form the loss and report functions consume; these
estimators look only at feasible-set members. ``upscale`` resizes one
low-resolution measurement of a downsampling model back to signal shape.
None of them is privileged: the bounds hold for arbitrary maps, these are
just the standard baselines.
"""

from __future__ import annotations

import numpy as np

from .core import FeasibleSetCollection, UsageError
from .forward import DownsampleModel

__all__ = [
    "mean_map",
    "median_map",
    "zero_map",
    "upscale",
]


def _nonempty(c: FeasibleSetCollection):
    return (e for e in c.entries if e.count > 0)


def mean_map(c: FeasibleSetCollection) -> dict:
    """Coordinate mean of each feasible set (the optimal map for p = q = 2)."""
    return {e.id: e.members.mean(axis=0) for e in _nonempty(c)}


def median_map(c: FeasibleSetCollection) -> dict:
    """Coordinate-wise median of each feasible set."""
    return {e.id: np.median(e.members, axis=0) for e in _nonempty(c)}


def zero_map(c: FeasibleSetCollection) -> dict:
    return {e.id: np.zeros(c.d1) for e in _nonempty(c)}


def upscale(model: DownsampleModel, y, order: int = 1) -> np.ndarray:
    """Resize a flattened low-resolution measurement to signal shape.

    order 1 is bilinear, order 3 bicubic (spline interpolation per band).
    """
    from scipy import ndimage

    y = np.asarray(y, dtype=np.float64)
    if y.shape != (model.d2,):
        raise UsageError(f"measurement length {y.shape} != d2={model.d2}")
    bands, h, w = model.out_shape
    low = y.reshape(bands, h, w)
    f = model.factor
    high = np.stack(
        [ndimage.zoom(low[b], f, order=order, mode="nearest", grid_mode=True)
         for b in range(bands)]
    )
    return high.reshape(model.d1)
