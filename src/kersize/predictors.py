"""Built-in reconstruction maps.

Each helper returns per-measurement predictions keyed by measurement id, the
form the loss and report functions consume. The estimators look only at
feasible-set members; the upscalers resize low-resolution measurements of a
downsampling model back to signal shape. None of them is privileged: the
bounds hold for arbitrary maps, these are just the standard baselines.
"""

from __future__ import annotations

import numpy as np

from .core import FeasibleSetCollection, UsageError
from .forward import DownsampleModel

__all__ = [
    "mean_map",
    "median_map",
    "zero_map",
    "constant_map",
    "first_member_map",
    "upscale",
    "upscaler_map",
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


def constant_map(c: FeasibleSetCollection, value) -> dict:
    """The same signal estimate for every measurement."""
    v = np.asarray(value, dtype=np.float64)
    return {e.id: v for e in _nonempty(c)}


def first_member_map(c: FeasibleSetCollection) -> dict:
    """Each set's first member; in generated collections that is the ground truth."""
    return {e.id: e.members[0] for e in _nonempty(c)}


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


def upscaler_map(c: FeasibleSetCollection, model: DownsampleModel, order: int = 1) -> dict:
    """Upscale every measurement in a collection (id -> predicted signal)."""
    return {e.id: upscale(model, e.measurement, order=order) for e in c.entries}
