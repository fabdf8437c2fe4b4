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
noise escaping the noise set is flagged, not rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DataError,
    NormSpec,
    PairedDataset,
    UsageError,
    vector_norms,
)
from .forward import DownsampleModel, LinearModel, NoiseSpec

__all__ = [
    "pseudoinverse",
    "kernel_projection",
    "KernelProjector",
    "reflect",
    "ReflectResult",
    "skersize",
    "SkersizeResult",
    "band_projector",
]


def pseudoinverse(A, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``tol * sigma_max`` are treated as zero
    (default tol: max(m, n) times the float64 machine epsilon). A zero matrix
    yields the zero matrix of transposed shape.
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
    inv = np.where(s > tol * s[0], np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (vt.T * inv[None, :]) @ u.T


@dataclass(frozen=True, eq=False)
class KernelProjector:
    """Orthogonal projection onto the kernel of a linear forward map.

    ``source`` records whether the kernel is that of A alone (n = d1) or of
    the joint map B = [A | I] on (signal, noise) pairs (n = d1 + d2);
    ``d_signal`` is the signal dimension used to split joint vectors.
    """

    matrix: np.ndarray
    source: str
    svd_tol: float
    d_signal: int

    def __post_init__(self):
        P = np.asarray(self.matrix, dtype=np.float64).copy()
        P.setflags(write=False)
        object.__setattr__(self, "matrix", P)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        return v @ self.matrix.T if v.ndim == 2 else self.matrix @ v

    def check(self, operator: np.ndarray | None = None,
              sym_tol: float = 1e-10, idem_tol: float = 1e-8) -> None:
        """Raise unless P is symmetric, idempotent and annihilated by the map."""
        P = self.matrix
        if np.max(np.abs(P - P.T), initial=0.0) > sym_tol:
            raise DataError("projector is not symmetric")
        if np.max(np.abs(P @ P - P), initial=0.0) > idem_tol:
            raise DataError("projector is not idempotent")
        if operator is not None:
            if np.max(np.abs(operator @ P), initial=0.0) > idem_tol:
                raise DataError("projector does not annihilate the operator")


def kernel_projection(A, mode: str = "signal_only", tol: float | None = None) -> KernelProjector:
    """Projector onto the kernel: I - A^+ A, or I - B^+ B with B = [A | I]."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise UsageError("kernel_projection expects a matrix")
    if mode not in ("signal_only", "joint"):
        raise UsageError(f"unknown projection mode {mode!r}")
    d2, d1 = A.shape
    if tol is None:
        tol = max(A.shape) * np.finfo(np.float64).eps
    if mode == "joint":
        B = np.hstack([A, np.eye(d2)])
    else:
        B = A
    P = np.eye(B.shape[1]) - pseudoinverse(B, tol) @ B
    P = 0.5 * (P + P.T)
    proj = KernelProjector(matrix=P, source=mode, svd_tol=tol, d_signal=d1)
    proj.check(operator=B)
    return proj


def band_projector(model: DownsampleModel, tol: float | None = None) -> KernelProjector:
    """Signal-kernel projector of one band of a downsampling model.

    Bands are independent, so the full projector is block diagonal with this
    block repeated; per-pair work then stays at single-band size.
    """
    return kernel_projection(model.band_matrix(), mode="signal_only", tol=tol)


@dataclass(frozen=True)
class ReflectResult:
    """A reflected (signal, noise) pair; ``noise_violation`` flags reflected
    noise that left the noise set (possible in joint mode only)."""

    x: np.ndarray
    e: np.ndarray
    noise_violation: bool = False


def reflect(x, e, proj: KernelProjector, noise: NoiseSpec | None = None) -> ReflectResult:
    """Reflect a pair through the orthogonal complement of the kernel.

    In signal_only mode x' = x - 2 P x and the noise is untouched, so
    A x' = A x exactly and the pair keeps its measurement. In joint mode the
    concatenated (x, e) is reflected and split back. The reflection is an
    involution.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if proj.source == "signal_only":
        if x.shape[0] != proj.dim:
            raise UsageError(f"signal length {x.shape[0]} != projector dim {proj.dim}")
        x_r, e_r = x - 2.0 * proj.apply(x), e.copy()
    else:
        v = np.concatenate([x, e])
        if v.shape[0] != proj.dim:
            raise UsageError(
                f"joint vector length {v.shape[0]} != projector dim {proj.dim}"
            )
        w = v - 2.0 * proj.apply(v)
        x_r, e_r = w[: proj.d_signal], w[proj.d_signal :]
    violation = False
    if noise is not None and proj.source == "joint":
        violation = not noise.contains(e_r, e_r.shape[0])
    return ReflectResult(x=x_r, e=e_r, noise_violation=violation)


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


class _BandSignalProjector:
    """Applies a per-band kernel projector to flattened multi-band signals."""

    def __init__(self, model: DownsampleModel, tol):
        self.block = band_projector(model, tol)
        self.bands = model.bands
        self.band_dim = model.height * model.width
        self.source = "signal_only"

    def project_signals(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        stacked = X.reshape(n, self.bands, self.band_dim)
        out = np.einsum("ij,nbj->nbi", self.block.matrix, stacked)
        return out.reshape(n, -1)


class _DenseSignalProjector:
    def __init__(self, proj: KernelProjector):
        self.proj = proj
        self.source = proj.source

    def project_signals(self, X: np.ndarray) -> np.ndarray:
        return X @ self.proj.matrix.T


def _resolve_operator(operator):
    """Accept a raw matrix, a LinearModel, or a DownsampleModel.

    Returns (model, matrix, signal_bounds); bounds are None for raw matrices.
    """
    if isinstance(operator, DownsampleModel):
        return operator, None, operator.signal_bounds
    if isinstance(operator, LinearModel):
        return None, operator.matrix, operator.signal_bounds
    return None, np.asarray(operator, dtype=np.float64), None


def skersize(pairs: PairedDataset, operator, noise: NoiseSpec,
             norm: NormSpec, mode: str = "signal_only",
             tol: float | None = None, feas_atol: float | None = None) -> SkersizeResult:
    """Average symmetric kernel size of a paired dataset under y = A x + e.

    Recovers each pair's noise as e_m = y_m - A x_m (rejecting pairs whose
    noise falls outside the noise set), projects onto the kernel, and returns

        skersize = ( (1/M') Σ_m ‖v_m‖^p )^(1/p)

    with v_m = P x_m (signal_only) or the signal part of P (x_m, e_m) (joint),
    together with the dataset extended by the reflected pairs (x'_m, y_m).
    ``feas_atol`` widens the noise-membership check; the default absorbs float
    roundoff from re-deriving e_m (1e-9 relative to the measurement scale).

    Runs in O(M') at fixed dimensions: one projector factorization plus one
    matrix product per pair.
    """
    if noise.kind != "additive":
        raise UsageError("the symmetric bound requires additive noise (y = A x + e)")
    if mode not in ("signal_only", "joint"):
        raise UsageError(f"unknown projection mode {mode!r}")
    model, A, box = _resolve_operator(operator)
    m_total = pairs.size
    if m_total == 0:
        raise DataError("empty dataset")

    if model is not None:
        g = model.noiseless_batch(pairs.x)
        if mode == "signal_only":
            projector = _BandSignalProjector(model, tol)
            joint_proj = None
        else:
            A = model.matrix()
            joint_proj = kernel_projection(A, mode="joint", tol=tol)
            projector = None
    else:
        if A.shape[1] != pairs.d1:
            raise UsageError(f"operator has {A.shape[1]} columns, pairs have d1={pairs.d1}")
        g = pairs.x @ A.T
        if mode == "signal_only":
            projector = _DenseSignalProjector(kernel_projection(A, mode="signal_only", tol=tol))
            joint_proj = None
        else:
            joint_proj = kernel_projection(A, mode="joint", tol=tol)
            projector = None

    e = pairs.y - g
    if feas_atol is None:
        feas_atol = 1e-9 * max(1.0, float(np.abs(pairs.y).max(initial=0.0)))
    if noise.ball == "inf":
        bad = np.abs(e).max(axis=1) > noise.eps_additive + feas_atol
    else:
        bad = np.linalg.norm(e, axis=1) > noise.eps_additive + feas_atol
    if bad.any():
        m = int(np.flatnonzero(bad)[0])
        raise DataError(
            f"pair {m} is infeasible: recovered noise leaves the noise set "
            f"(|e|={float(np.abs(e[m]).max()):.3g} > eps={noise.eps_additive:.3g})"
        )

    noise_violations: list = []
    if mode == "signal_only":
        v = projector.project_signals(pairs.x)
        x_refl = pairs.x - 2.0 * v
    else:
        joint = np.hstack([pairs.x, e])
        pj = joint @ joint_proj.matrix.T
        v = pj[:, : pairs.d1]
        refl = joint - 2.0 * pj
        x_refl = refl[:, : pairs.d1]
        e_refl = refl[:, pairs.d1 :]
        if noise.ball == "inf":
            viol = np.abs(e_refl).max(axis=1) > noise.eps_additive + feas_atol
        else:
            viol = np.linalg.norm(e_refl, axis=1) > noise.eps_additive + feas_atol
        noise_violations = [int(i) for i in np.flatnonzero(viol)]

    v_norms = vector_norms(v, norm)
    value = (math.fsum(float(t) for t in v_norms**norm.p) / m_total) ** (1.0 / norm.p)

    bounds_violations: list = []
    if box is not None:
        outside = (x_refl < box[None, :, 0]).any(axis=1) | (x_refl > box[None, :, 1]).any(axis=1)
        bounds_violations = [int(i) for i in np.flatnonzero(outside)]

    symmetrized = PairedDataset(
        x=np.vstack([pairs.x, x_refl]),
        y=np.vstack([pairs.y, pairs.y]),
        group=np.concatenate([pairs.group, pairs.group]),
        group_ids=pairs.group_ids,
    )
    return SkersizeResult(
        skersize=value,
        v_norms=v_norms,
        symmetrized=symmetrized,
        noise_violations=noise_violations,
        bounds_violations=bounds_violations,
        mode=mode,
    )
