"""Built-in reconstruction maps.

Each ``*_map`` helper returns per-measurement predictions keyed by
measurement id, the form the loss and report functions consume; these
estimators look only at feasible-set members. The mean and median maps
reduce every non-empty set in one pass over the collection's stacked
members (``FeasibleSetCollection.stacked``), each set with the bits of its
own ``core.member_centre``. ``upscale`` resizes one
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


def _centres(c: FeasibleSetCollection, reduce) -> dict:
    sets, X, ids = c.stacked
    return dict(zip(ids, sets.centres(X, reduce)))


def mean_map(c: FeasibleSetCollection) -> dict:
    """Coordinate mean of each feasible set (the optimal map for p = q = 2)."""
    return _centres(c, np.mean)


def median_map(c: FeasibleSetCollection) -> dict:
    """Coordinate-wise median of each feasible set."""
    return _centres(c, np.median)


def zero_map(c: FeasibleSetCollection) -> dict:
    return {i: np.zeros(c.d1) for i in c.stacked[2]}


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
