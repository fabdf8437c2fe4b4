"""Method-independent accuracy bounds for finite-dimensional inverse problems.

The library builds feasible-set datasets for a forward model with bounded
noise, computes the average kernel size (whose half lower-bounds the loss of
every reconstruction map on those datasets) and, for linear models with
additive noise, the O(M) average symmetric kernel size, and verifies the
bound inequalities against pluggable reconstruction maps.
"""

from .bounds import BoundReport, kersize, optimal_map_value, verify_bounds
from .core import (
    DataError,
    FeasibleSet,
    FeasibleSetCollection,
    NormSpec,
    UsageError,
    collection_from_dataset,
    dataset_from_collection,
    loss,
    p_dist,
)
from .forward import (
    DownsampleModel,
    LinearModel,
    MicroscopyModel,
    NoiseSpec,
    downsample_matrix_1d,
    model_from_dict,
)
from .sampling import (
    SamplerSpec,
    build_feasible_sets,
    build_feasible_sets_many,
    sample_feasible,
)
from .symmetric import (
    SkersizeResult,
    kernel_projection,
    pseudoinverse,
    skersize,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DataError",
    "DownsampleModel",
    "FeasibleSet",
    "FeasibleSetCollection",
    "LinearModel",
    "MicroscopyModel",
    "NoiseSpec",
    "NormSpec",
    "SamplerSpec",
    "SkersizeResult",
    "UsageError",
    "build_feasible_sets",
    "build_feasible_sets_many",
    "collection_from_dataset",
    "dataset_from_collection",
    "downsample_matrix_1d",
    "kernel_projection",
    "kersize",
    "loss",
    "model_from_dict",
    "optimal_map_value",
    "p_dist",
    "pseudoinverse",
    "sample_feasible",
    "skersize",
    "verify_bounds",
]
