"""Fast accuracy bound for linear forward models with additive noise.

For y = A x + e the kernel of A carries all the non-uniqueness: reflecting a
signal through the orthogonal complement of the kernel,

    x' = x - 2 P x,      P = I - A^+ A,

yields a second signal with the identical measurement. The average symmetric
kernel size is the p-mean of the kernel components ‖P x_m‖ over a paired
dataset; it lower-bounds every reconstruction map's loss on the dataset
symmetrized with the reflections, at O(M) cost instead of the O(M^2) pairwise
bound.

Two projection readings are supported: ``signal_only`` projects the signal
space (the reflected pair keeps its noise admissible by construction), and
``joint`` projects (signal, noise) jointly through B = [A | I]; reflected
noise escaping the noise set is flagged, not rejected. The operator is a raw
matrix A, a ``LinearModel`` or a ``DownsampleModel``.

For an m x n operator B (B = A, or [A | I] with n = d1 + d2 in joint mode,
or one band of a downsampling model) the projector costs one SVD of B plus
O(n²·m) to build P = I - B^+ B and to verify it: symmetry, B P = 0, and
idempotency from the factors B^+ and B, never with an n³ product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DataError,
    NormSpec,
    PairedDataset,
    UsageError,
    power_mean,
    vector_norms,
)
from .forward import DownsampleModel, LinearModel, NoiseSpec

__all__ = [
    "pseudoinverse",
    "kernel_projection",
    "KernelProjector",
    "skersize",
    "SkersizeResult",
    "band_projector",
]


def pseudoinverse(A, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``tol * sigma_max`` are treated as zero
    (default tol: max(m, n) times the float64 machine epsilon). A zero matrix
    yields the zero matrix of transposed shape. An operator whose kept
    singular values are so small that the pseudoinverse overflows float64 is
    a ``DataError``.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise UsageError("pseudoinverse expects a matrix")
    if not np.all(np.isfinite(A)):
        raise DataError("matrix has non-finite entries")
    if A.size == 0:
        return np.zeros(A.T.shape)
    if tol is None:
        tol = max(A.shape) * np.finfo(np.float64).eps
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(A.T.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        inv = np.where(s > tol * s[0], np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
        pinv = (vt.T * inv[None, :]) @ u.T
    if not np.all(np.isfinite(pinv)):
        raise DataError(
            f"operator is too small to invert: its pseudoinverse overflows float64 "
            f"(largest singular value {s[0]:.3g})"
        )
    return pinv


@dataclass(frozen=True, eq=False)
class KernelProjector:
    """Orthogonal projection onto the kernel of a linear forward map.

    ``matrix`` is the read-only projector P: n x n, with n = d1 for the
    kernel of A alone, or n = d1 + d2 for the joint map B = [A | I] on
    (signal, noise) pairs. A read-only float64 array that owns its data is
    wrapped as is; any other matrix is copied first.
    """

    matrix: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.matrix, dtype=np.float64)
        if P.flags.writeable or not P.flags.owndata:
            P = P.copy()
            P.setflags(write=False)
        object.__setattr__(self, "matrix", P)


def _max_abs(R: np.ndarray) -> float:
    """max |R| over all entries (0 if R is empty, NaN if R holds one); overwrites R."""
    return float(np.abs(R, out=R).max(initial=0.0))


def _block_pairs(n: int) -> list:
    """(rows, cols) slices of the diagonal and upper 128 x 128 blocks of an
    n x n matrix.

    Pairing block (I, J) with block (J, I) keeps each transposed access inside
    the cache; a transposed pass over a whole 2304 x 2304 matrix costs about
    five times more.
    """
    return [(slice(i, i + 128), slice(j, j + 128))
            for i in range(0, n, 128) for j in range(i, n, 128)]


def _idempotency_residual(P: np.ndarray, L: np.ndarray, B: np.ndarray,
                          BP: np.ndarray) -> float:
    """max |P² - P| of P = ½(P0 + P0ᵀ), P0 = I - L B, from the factors.

    With Q = I - P = ½(L B + Bᵀ Lᵀ), P² - P = Q² - Q = -Q P
    = -½(L (B P) + Bᵀ (Lᵀ P)) for any L. For an m x n operator B that costs
    O(n²·m) given BP = B @ P, not the O(n³) of P @ P.
    """
    return 0.5 * _max_abs(np.hstack([L, B.T]) @ np.vstack([BP, L.T @ P]))


def _verify_projector(P: np.ndarray, L: np.ndarray, B: np.ndarray) -> None:
    """Raise unless P = ½(P0 + P0ᵀ), P0 = I - L B, is symmetric (1e-10),
    idempotent and annihilated by B (1e-8, max entry). A non-finite residual
    fails its check."""
    asym = np.max([np.abs(P[I, J] - P[J, I].T).max(initial=0.0)
                   for I, J in _block_pairs(P.shape[0])], initial=0.0)
    if not asym <= 1e-10:
        raise DataError("projector is not symmetric")
    BP = B @ P
    if not _idempotency_residual(P, L, B, BP) <= 1e-8:
        raise DataError("projector is not idempotent")
    if not _max_abs(BP) <= 1e-8:
        raise DataError("projector does not annihilate the operator")


def kernel_projection(A, mode: str = "signal_only", tol: float | None = None) -> KernelProjector:
    """Projector onto the kernel: I - A^+ A, or I - B^+ B with B = [A | I].

    The projector is verified before it is returned: symmetric to 1e-10,
    idempotent and annihilated by the operator to 1e-8 (max entry), or a
    ``DataError``.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise UsageError("kernel_projection expects a matrix")
    if mode not in ("signal_only", "joint"):
        raise UsageError(f"unknown projection mode {mode!r}")
    if tol is None:
        tol = max(A.shape) * np.finfo(np.float64).eps
    if mode == "joint":
        B = np.hstack([A, np.eye(A.shape[0])])
    else:
        B = A
    L = pseudoinverse(B, tol)
    # P = 0.5 * (P0 + P0.T) with P0 = I - L @ B, bit for bit, in place
    P = np.eye(B.shape[1])
    P -= L @ B
    for I, J in _block_pairs(P.shape[0]):
        S = P[I, J] + P[J, I].T
        S *= 0.5
        P[I, J] = S
        P[J, I] = S.T
    _verify_projector(P, L, B)
    P.setflags(write=False)
    return KernelProjector(matrix=P)


def band_projector(model: DownsampleModel, tol: float | None = None) -> KernelProjector:
    """Signal-kernel projector of one band of a downsampling model.

    Bands are independent, so the full projector is block diagonal with this
    block repeated; per-pair work then stays at single-band size.
    """
    return kernel_projection(model.band_matrix(), mode="signal_only", tol=tol)


@dataclass
class SkersizeResult:
    """Average symmetric kernel size plus the symmetrized dataset.

    ``noise_violations`` lists pairs whose joint-mode reflected noise left the
    noise set; ``bounds_violations`` lists pairs whose reflected signal left
    the signal box (known only when the operator carries bounds). Both are
    informational: flagged pairs are kept.
    """

    skersize: float
    v_norms: np.ndarray
    symmetrized: PairedDataset
    noise_violations: list = field(default_factory=list)
    bounds_violations: list = field(default_factory=list)
    mode: str = "signal_only"

    def to_dict(self) -> dict:
        return {
            "skersize": self.skersize,
            "half_skersize": 0.5 * self.skersize,
            "mode": self.mode,
            "pairs": int(self.v_norms.shape[0]),
            "noise_violations": list(self.noise_violations),
            "bounds_violations": list(self.bounds_violations),
        }


def skersize(pairs: PairedDataset, operator, noise: NoiseSpec,
             norm: NormSpec, mode: str = "signal_only",
             tol: float | None = None, feas_atol: float | None = None) -> SkersizeResult:
    """Average symmetric kernel size of a paired dataset under y = A x + e.

    Recovers each pair's noise as e_m = y_m - A x_m (rejecting pairs whose
    noise falls outside the noise set), projects onto the kernel, and returns

        skersize = ( (1/M') Σ_m ‖v_m‖^p )^(1/p)

    with v_m = P x_m (signal_only) or the signal part of P (x_m, e_m) (joint),
    together with the dataset extended by the reflected pairs (x'_m, y_m).

    The reflection through the orthogonal complement of the kernel is
    x' = x - 2 P x. In signal_only mode the noise is untouched, so
    A x' = A x exactly and each pair keeps its measurement. In joint mode the
    concatenated (x, e) is reflected and split back into its first d1 and
    last d2 coordinates, so A x' + e' = A x + e. Either way the reflection
    is an involution: reflecting (x', y) gives back (x, y).

    A downsampling model's signal_only projection applies its one-band
    projector to each band; every other projection is dense. Only a model
    has a signal box to flag reflections against. ``feas_atol`` widens the
    noise-membership check; the default absorbs float roundoff from
    re-deriving e_m (1e-9 relative to the measurement scale).

    Runs in O(M') at fixed dimensions: one projector plus one matrix product
    per pair. The projector is one SVD of the m x n operator plus O(n²·m) to
    build and verify it, with n the band size (a downsampling model in
    signal_only mode), d1 (any other signal_only operator) or d1 + d2 (joint).
    """
    if noise.kind != "additive":
        raise UsageError("the symmetric bound requires additive noise (y = A x + e)")
    if mode not in ("signal_only", "joint"):
        raise UsageError(f"unknown projection mode {mode!r}")
    if pairs.size == 0:
        raise DataError("empty dataset")
    if isinstance(operator, LinearModel):
        model, A = operator, operator.matrix
    elif isinstance(operator, DownsampleModel):
        model, A = operator, None  # its dense matrix is large: built in joint mode only
    else:
        model, A = None, np.asarray(operator, dtype=np.float64)
    d1 = A.shape[1] if A is not None else model.d1
    if d1 != pairs.d1:
        raise UsageError(f"operator has {d1} columns, pairs have d1={pairs.d1}")

    x = pairs.x
    e = pairs.y - (model.noiseless_batch(x) if model is not None else x @ A.T)
    if feas_atol is None:
        feas_atol = 1e-9 * max(1.0, float(np.abs(pairs.y).max(initial=0.0)))
    e_norms = noise.row_norms(e)
    bad = np.flatnonzero(e_norms > noise.eps_additive + feas_atol)
    if bad.size:
        m = int(bad[0])
        raise DataError(
            f"pair {m} is infeasible: recovered noise leaves the noise set "
            f"(|e|={float(e_norms[m]):.3g} > eps={noise.eps_additive:.3g})"
        )

    noise_violations: list = []
    if mode == "joint":
        P = kernel_projection(A if A is not None else model.matrix(), mode="joint", tol=tol)
        joint = np.hstack([x, e])
        pj = joint @ P.matrix.T
        v = pj[:, :d1]
        refl = joint - 2.0 * pj
        x_refl = refl[:, :d1]
        viol = noise.row_norms(refl[:, d1:]) > noise.eps_additive + feas_atol
        noise_violations = [int(i) for i in np.flatnonzero(viol)]
    else:
        if A is None:  # a DownsampleModel: its one-band projector on every band
            bands = x.reshape(pairs.size, model.bands, -1)
            v = np.einsum("ij,nbj->nbi", band_projector(model, tol).matrix, bands)
            v = v.reshape(pairs.size, -1)
        else:
            v = x @ kernel_projection(A, mode="signal_only", tol=tol).matrix.T
        x_refl = x - 2.0 * v

    v_norms = vector_norms(v, norm)
    value = power_mean([v_norms**norm.p], norm.p)
    outside = [] if model is None else np.flatnonzero(~model.within_bounds(x_refl))
    symmetrized = PairedDataset(
        x=np.vstack([x, x_refl]),
        y=np.vstack([pairs.y, pairs.y]),
        group=np.concatenate([pairs.group, pairs.group]),
        group_ids=pairs.group_ids,
    )
    return SkersizeResult(
        skersize=value,
        v_norms=v_norms,
        symmetrized=symmetrized,
        noise_violations=noise_violations,
        bounds_violations=[int(i) for i in outside],
        mode=mode,
    )
