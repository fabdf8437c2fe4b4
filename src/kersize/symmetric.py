"""Fast accuracy bound for linear forward models with additive noise.

For y = A x + e the kernel of A carries all the non-uniqueness: reflecting a
signal through the orthogonal complement of the kernel,

    x' = x - 2 P x,      P = I - A^+ A,

yields a second signal with the identical measurement. The average symmetric
kernel size is the p-mean of the kernel components ‖P x_m‖ over the M
members of a feasible-set collection, each a pair with its set's
measurement; it lower-bounds every reconstruction map's loss on the
collection symmetrized with the reflections, at O(M) cost instead of the
O(M^2) pairwise bound.

Two projection readings are supported: ``signal_only`` projects the signal
space (the reflected pair keeps its noise admissible by construction), and
``joint`` projects (signal, noise) jointly through B = [A | I]; reflected
noise escaping the noise set is flagged, not rejected. The forward model is
a ``LinearModel`` or a ``DownsampleModel`` with additive noise, and it is the
one owner of the noise: ``skersize`` reads the noise set from ``model.noise``.
A bare matrix A is ``LinearModel(A, noise, box)`` with the box [-inf, inf] in
every coordinate, built by the caller.

A downsampling model is block diagonal over its bands, and so is its kernel
projector (Penrose 1955): one band's projector, of size n_b or, in joint
mode on the band's signal and noise, n_b + m_b, serves every band. A linear
operator is one band. So every pair goes through the same band einsum, and
each pair's kernel component, reflection and verdicts are bit for bit those
of ``skersize`` on that pair alone, as each row of a forward model's batch is
its one-row call.

For an m x n operator B (B = A, or [A | I] with n = d1 + d2 in joint mode,
or one band of a downsampling model) the projector P = I - B^+ B costs one
SVD of B plus O(n²·m) to build and O(n·m·min(n, m)) to verify: B P = 0 to
1e-8 of B's largest entry and P² = P, both from the factors B^+ and B,
and finite entries. P is built one row block of at most ``_ROW_BLOCK``
doubles at a time, and every other temporary is O(n·m) or O(M'·n) for M'
pairs. ``skersize`` applies each block as it arrives and holds no n x n
array but, for n <= 2m, one the size of at most two copies of B;
``kernel_projection`` fills P from the same blocks. The residuals are taken
before the first block, and P's checks raise after the last, before
anything is returned.

The norms of the kernel components are taken by ``core.vector_norms``,
their p-th powers by ``core.norm_powers`` and their sum by
``core.power_mean``: a norm, power or sum past the float64 range is a
DataError that names it, never an infinite skersize. A reflection x - 2Px
whose 2Px overflows is recomputed as (x - Px) - Px, and one past the
float64 range is a DataError as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DataError,
    FeasibleSet,
    FeasibleSetCollection,
    NormSpec,
    UsageError,
    dataset_from_collection,
    norm_powers,
    power_mean,
    require_members,
    vector_norms,
)
from .forward import DownsampleModel, LinearModel

__all__ = [
    "pseudoinverse",
    "kernel_projection",
    "skersize",
    "SkersizeResult",
]

_ROW_BLOCK = 1 << 17  # doubles in one row block of an n x n array (1 MB)


def _row_blocks(n: int) -> list:
    """Row slices of an n x n array, each of at most ``_ROW_BLOCK`` doubles."""
    step = max(1, _ROW_BLOCK // max(1, n))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


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


def _max_abs(R: np.ndarray) -> float:
    """max |R| over all entries (0 if R is empty, NaN if R holds one); overwrites R."""
    return float(np.abs(R, out=R).max(initial=0.0))


def _projector_residuals(B: np.ndarray, L: np.ndarray) -> tuple:
    """(max |B P|, ‖P² - P‖_F) of P = I - ½(L B + Bᵀ Lᵀ), from the factors.

    With F = [L | Bᵀ] and W = [B P; Lᵀ P], P² - P = -(I - P) P = -½ F W for
    any L. For an m x n operator with 2m < n both come from the 2m x 2m Gram
    matrix S = Vᵀ V of V = [Bᵀ | L], and J swapping V's two column halves
    (V J = F): Wᵀ = V - ½ V J S and ‖F W‖_F² = tr(J S J · W Wᵀ), O(n·m²)
    with no n x n array. B and L enter as B / 2^e and 2^e L, e the exponent
    of max |B|, which leaves P unchanged and keeps the Gram products in
    range; Wᵀ overwrites V. The products run over chunks of
    k = max(m, rows of a ``_row_blocks`` block) rows of V, so each sums over
    at most k terms, as the build's own products do: sums over all n rows
    made OpenBLAS touch more of its workspace and raised the process's peak
    memory. Otherwise P, no larger than two copies of B, is formed and B P
    and P² - P are taken from it, O(n²·m). A NaN anywhere is the result.
    """
    m, n = B.shape
    if 2 * m >= n:
        LB = L @ B
        P = np.eye(n) - 0.5 * (LB + LB.T)
        del LB
        R = P @ P
        R -= P
        return _max_abs(B @ P), float(np.linalg.norm(R))
    _, e = np.frexp(np.abs(B).max(initial=0.0))
    V = np.empty((n, 2 * m))
    np.ldexp(B.T, -e, out=V[:, :m])
    np.ldexp(L, e, out=V[:, m:])
    k = max(m, _row_blocks(n)[0].stop)
    chunks = [slice(i, i + k) for i in range(0, n, k)]

    def gram():  # Vᵀ V
        G = np.zeros((2 * m, 2 * m))
        for I in chunks:
            G += V[I].T @ V[I]
        return G

    JS = np.roll(gram(), m, axis=0)
    for I in chunks:
        t = V[I, :m] @ JS[:m]
        t += V[I, m:] @ JS[m:]
        t *= 0.5
        V[I] -= t
    sq = np.vdot(np.roll(JS, m, axis=1), gram())  # gram() = W Wᵀ, symmetric
    return (float(np.ldexp(_max_abs(V[:, :m]), e)),
            0.5 * float(np.sqrt(np.maximum(sq, 0.0))))


def _kernel_operator(A: np.ndarray, mode: str) -> np.ndarray:
    """The operator B whose kernel the projector of A in ``mode`` spans: A,
    or [A | I] in joint mode. Every singular value of [A | I] is at least 1,
    since B Bᵀ = A Aᵀ + I, so ``pseudoinverse``'s default tolerance cuts none
    of them unless ‖A‖₂ nears 1 / ((m + n)·eps) for the m x n matrix A. Any
    mode but "signal_only" and "joint" is a UsageError."""
    if mode not in ("signal_only", "joint"):
        raise UsageError(f"unknown projection mode {mode!r}")
    return np.hstack([A, np.eye(A.shape[0])]) if mode == "joint" else A


def _projector_rows(B: np.ndarray):
    """Yield (I, P[I]) for each ``_row_blocks`` slice I of the kernel projector
    P = ½(P0 + P0ᵀ), P0 = I - L B, L = B^+ at ``pseudoinverse``'s default
    tolerance; raise ``DataError`` after the last block unless P is finite,
    idempotent (‖P² - P‖_F <= 1e-8) and annihilated by B
    (max |B P| <= 1e-8 max |B|).

    Rows I of L B are L[I] @ B and rows I of (L B)ᵀ are (L @ B[:, I])ᵀ; the
    off-diagonal entries are 0.5·(0 - (LB[i,j] + LB[j,i])), which equals
    0.5·((0 - LB[i,j]) + (0 - LB[j,i])) bit for bit, zero signs included, and
    the diagonal is 1 - LB[i,i]. So a block is bit for bit the rows of the
    whole n x n computation wherever BLAS sums each entry of a block product
    as it sums the whole product's, as OpenBLAS does for the 56-row blocks of
    a 2304-wide band; blocks of a few rows or a small operator can go to
    another kernel and differ in the last bits. The idempotency and
    annihilation residuals come from the factors before the first block (see
    ``_projector_residuals``), so no check temporary lives while the blocks
    are applied. A yielded block is the caller's to keep.
    """
    L = pseudoinverse(B)
    annihilation, idempotency = _projector_residuals(B, L)
    scale = float(np.abs(B).max(initial=0.0))
    finite = True
    for I in _row_blocks(B.shape[1]):
        block = L[I] @ B
        diag = 1.0 - block[:, I].diagonal()
        block += (L @ B[:, I]).T
        np.subtract(0.0, block, out=block)
        block *= 0.5
        np.fill_diagonal(block[:, I], diag)
        finite &= bool(np.isfinite(block).all())
        yield I, block
    if not finite:
        raise DataError("projector has non-finite entries")
    if not idempotency <= 1e-8:
        raise DataError("projector is not idempotent")
    if not annihilation <= 1e-8 * scale:
        raise DataError("projector does not annihilate the operator")


def kernel_projection(A, mode: str = "signal_only") -> np.ndarray:
    """Projector onto the kernel: I - A^+ A, or I - B^+ B with B = [A | I].

    Returns P as a read-only n x n array: n = d1 for the kernel of A alone,
    or n = d1 + d2 for the joint map B = [A | I] on (signal, noise) pairs.
    P is verified before it is returned: finite, idempotent
    (‖P² - P‖_F <= 1e-8) and annihilated by the operator to 1e-8 of its
    largest entry (max |B P|), or a ``DataError``; it is symmetric to the
    rounding of B^+ B.

    Runs in one SVD of the m x n operator plus O(n²·m) to build P and
    O(n·m·min(n, m)) to verify it, and holds P plus O(n·m) temporaries and
    one row block: P is filled from the row blocks ``skersize`` applies
    directly.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise UsageError("kernel_projection expects a matrix")
    B = _kernel_operator(A, mode)
    P = np.empty((B.shape[1], B.shape[1]))
    for I, block in _projector_rows(B):
        P[I] = block
    P.setflags(write=False)
    return P


@dataclass
class SkersizeResult:
    """Average symmetric kernel size plus the symmetrized dataset.

    Pair m is member m of the input ``collection`` in ``stacked`` order:
    ``v_norms[m]`` is the norm of its kernel component and
    ``reflections[m]`` (shape (M, d1)) its reflected signal.
    ``noise_violations`` lists pairs whose joint-mode reflected noise left the
    noise set; ``bounds_violations`` lists pairs whose reflected signal left
    the model's signal box (never for a box of [-inf, inf] in every
    coordinate). Both are informational: flagged pairs are kept.
    """

    skersize: float
    v_norms: np.ndarray
    reflections: np.ndarray
    collection: FeasibleSetCollection
    noise_violations: list = field(default_factory=list)
    bounds_violations: list = field(default_factory=list)
    mode: str = "signal_only"

    @functools.cached_property
    def symmetrized(self) -> FeasibleSetCollection:
        """The collection the bound certifies: each non-empty set with its id
        and measurement, its members followed by their reflections. Empty
        sets are left out. Built on first access."""
        sets, _, _ = self.collection.stacked
        filled = [e for e in self.collection.entries if e.count]
        entries = tuple(
            FeasibleSet(id=e.id, measurement=e.measurement,
                        members=np.vstack([e.members, self.reflections[a:b]]))
            for e, (a, b) in zip(filled, sets.bounds)
        )
        return FeasibleSetCollection(d1=self.collection.d1, d2=self.collection.d2,
                                     entries=entries)

    def to_dict(self) -> dict:
        return {
            "skersize": self.skersize,
            "half_skersize": 0.5 * self.skersize,
            "mode": self.mode,
            "pairs": int(self.v_norms.shape[0]),
            "noise_violations": list(self.noise_violations),
            "bounds_violations": list(self.bounds_violations),
        }


def skersize(c: FeasibleSetCollection, model, norm: NormSpec,
             mode: str = "signal_only") -> SkersizeResult:
    """Average symmetric kernel size of a collection under y = A x + e.

    Each member x_m of a set is a pair (x_m, y_m) with the set's measurement
    y_m, numbered m in ``c.stacked`` order; empty sets give no pair, and a
    collection with none at all is refused first (``core.require_members``).
    Recovers each pair's noise as e_m = y_m - A x_m, rejecting a pair whose
    noise leaves the noise set by more than the roundoff of re-deriving it,
    1e-9·max(1, max |y_m|) of the pair's own measurement
    (``LinearModel.noiseless_batch`` takes a product A x_m past the float64
    range again as 2^s A (2^-s x_m), so only a pair whose exact A x_m leaves
    the range is infeasible), projects onto the kernel, and returns

        skersize = ( (1/M') Σ_m ‖v_m‖^p )^(1/p)

    with v_m = P x_m (signal_only) or the signal part of P (x_m, e_m) (joint),
    together with the reflected pairs (x'_m, y_m) and, built from them on
    first access, the symmetrized collection (``SkersizeResult.symmetrized``).

    The reflection through the orthogonal complement of the kernel is
    x' = x - 2 P x. In signal_only mode the noise is untouched, so
    A x' = A x exactly and each pair keeps its measurement. In joint mode the
    concatenated (x, e) is reflected and split back into its signal and noise
    coordinates, so A x' + e' = A x + e, and a reflected noise that leaves
    the noise set by more than the pair's tolerance is flagged. Either way
    the reflection is an involution: reflecting (x', y) gives back (x, y).

    The model is a ``LinearModel`` or a ``DownsampleModel``, and its
    ``noise`` is the noise set; any other model, or a bare matrix, is a
    UsageError. A downsampling model applies its one-band projector
    to each band's n_b signal coordinates, or in joint mode to its n_b signal
    and m_b noise coordinates, split back into band-major x' and e'; a linear
    operator is one band of all d1 (and d2) coordinates.

    Runs in O(M') at fixed dimensions: one projector, built in O(n²·m) and
    verified in O(n·m·min(n, m)) from its factors (see the module
    docstring), each row block of which is applied to every band of every
    pair as it is built, in one einsum per block. The einsum over blocks is
    bit for bit one whole einsum with the assembled P, and it sums each entry
    in the same order whatever the other pairs: each pair's v_m, x'_m and
    noise and box verdicts are those of its lone call, and permuting the
    pairs permutes them. A norm ‖v_m‖, its p-th power or their sum past the
    float64 range raises DataError.
    """
    require_members(c)
    if not isinstance(model, (LinearModel, DownsampleModel)):
        raise UsageError(f"the model must be a LinearModel or a DownsampleModel, "
                         f"not {type(model).__name__}")
    noise = model.noise
    if noise.kind != "additive":
        raise UsageError("the symmetric bound requires additive noise (y = A x + e)")
    M = c.size
    if isinstance(model, DownsampleModel):  # one band's projector serves every band
        kernel_of, shape = model.band_matrix(), (M, model.bands, -1)
    else:  # a linear operator is one band
        kernel_of, shape = model.matrix, (M, 1, -1)
    B = _kernel_operator(kernel_of, mode)
    if model.d1 != c.d1:
        raise UsageError(f"operator has {model.d1} columns, pairs have d1={c.d1}")
    if model.d2 != c.d2:
        raise UsageError(f"operator has {model.d2} rows, pairs have d2={c.d2}")

    x, y = dataset_from_collection(c)
    g = model.noiseless_batch(x)
    with np.errstate(over="ignore"):  # noise past the float range is infeasible,
        e = y - g  # which is raised just below
    feas_atol = 1e-9 * np.maximum(1.0, np.abs(y).max(axis=1, initial=0.0))
    e_norms = noise.row_norms(e)
    bad = np.flatnonzero(e_norms > noise.eps_additive + feas_atol)
    if bad.size:
        m = int(bad[0])
        raise DataError(
            f"pair {m} is infeasible: recovered noise leaves the noise set "
            f"(|e|={float(e_norms[m])!r} > eps={float(noise.eps_additive)!r})"
        )

    vectors = x.reshape(shape)
    if mode == "joint":
        vectors = np.concatenate([vectors, e.reshape(shape)], axis=-1)
    projected = np.empty_like(vectors)
    for I, block in _projector_rows(B):
        np.einsum("ij,nbj->nbi", block, vectors, out=projected[:, :, I])
    with np.errstate(over="ignore"):  # 2Px may overflow where x - 2Px fits
        refl = vectors - 2.0 * projected
        lost = ~np.isfinite(refl)
        if lost.any():
            refl[lost] = (vectors[lost] - projected[lost]) - projected[lost]
    n = kernel_of.shape[1]  # the signal coordinates of a band, or of the whole pair
    v = projected[..., :n].reshape(M, -1)
    x_refl = refl[..., :n].reshape(M, -1)
    noise_violations: list = []
    if mode == "joint":
        e_refl = refl[..., n:].reshape(M, -1)
        viol = noise.row_norms(e_refl) > noise.eps_additive + feas_atol
        noise_violations = [int(i) for i in np.flatnonzero(viol)]

    v_norms = vector_norms(v, norm)
    over = np.flatnonzero(~np.isfinite(v_norms))
    if over.size:
        raise DataError(f"the norm of the kernel component of pair {int(over[0])} "
                        f"overflows float64")
    value = power_mean([norm_powers(v_norms, norm.p, "the p-th power of a kernel component")],
                       norm.p)
    lost = np.flatnonzero(~np.isfinite(refl.reshape(M, -1)).all(axis=1))
    if lost.size:
        raise DataError(f"the reflection of pair {int(lost[0])} overflows float64")
    outside = np.flatnonzero(~model.within_bounds(x_refl))
    return SkersizeResult(
        skersize=value,
        v_norms=v_norms,
        reflections=x_refl,
        collection=c,
        noise_violations=noise_violations,
        bounds_violations=[int(i) for i in outside],
        mode=mode,
    )
