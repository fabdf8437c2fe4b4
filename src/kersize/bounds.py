"""Average kernel size, the per-measurement optimal map, and bound reports.

The average kernel size of a feasible-set collection is

    ( (1/K) Σ_k (1/N(k)^2) Σ_{n,n'} ‖x_{k,n} - x_{k,n'}‖^p )^(1/p)

summing over ordered member pairs (the diagonal contributes zero); empty sets
contribute zero. Half of it lower-bounds the loss of every reconstruction map
on the derived dataset; the per-set minimizer θ of the mean p-th-power
distance attains the infimum, giving the upper half of the sandwich.

At p = q the distance splits by coordinate, and two exponents give the
unordered-pair sum in closed form, dropping no term, from the members
a_n = x_n − c centred on their computed mean c. Each costs O(N·d), plus one
sort per coordinate at p = q = 1:

    p = q = 2:  N Σ_n ‖a_n‖² − ‖Σ_n a_n‖²
    p = q = 1:  Σ_j Σ_i (2i − N + 1) a_(i),j    (a_(i),j the i-th smallest
                                                 of coordinate j, i from 0)

Both identities hold for any c; the second term at p = q = 2 removes what
rounding of the mean leaves behind. Centring is what keeps them accurate:
on a set at 1e6 with spread 1e-3 the uncentred weighted sum at p = q = 1
loses eight digits to cancellation, while centring costs at most one
rounding per value; c is ``core.member_centre``, finite on finite members.
Every other norm sums the pairs' ``core.distance_powers`` in fixed-size
blocks. Each final reduction is an exact fsum (``core.exact_sum``) over terms
computed in a fixed order, so reports are reproducible bit for bit; a power
or sum past the float64 range is a DataError, never an infinite kernel size.

θ is exact where a closed form exists (the mean at p = q = 2, the
coordinatewise median at p = q = 1), taken for all sets at once on the
collection's stacked members (``core.Sets.centres``, which groups the sets
by size so that each keeps the bits of its own ``core.member_centre``).
Every other p ≥ 1 goes to a numpy-only log-barrier interior-point method on
the epigraph form of the objective, which stops at a relative duality gap of
1e-10. ``_optimal_maps`` alone prepares a set for it: centred on its
``core.member_centre`` mean, scaled by its spread, and, where two members'
difference may leave the float range, taken at a quarter of its size. A set
of one member, or of identical members, is that member. ``verify_bounds``
hands all sets to one call of it, which steps every set in lockstep: each set
keeps its own barrier weight, step length and stopping test, comes out bit
for bit as if solved alone, and drops out when it converges or its Newton
system breaks down, without affecting the others. Its Newton systems take
one batched ``np.linalg.eigh`` per step (``_solve_psd``); from d ≈ 150 θ's
last bits depend on the BLAS thread count. At p = 1, q = 2 the
geometric median often sits on a member, which the barrier's point never
reaches; there the member nearest it is tried too, certified by Kuhn's test.
Each θ comes with a certificate: its objective (the exact mean of θ's loss
powers, whose p-th root is θ's loss on the set), an upper bound on its
distance to the minimum (from a Fenchel dual point built from the barrier
multipliers, or from Kuhn's dual points) and the set's own iteration count.
``verify_bounds`` evaluates every map on every set, θ's objective included,
in one stacked pass (``core.set_losses``); only the kernel size still runs
set by set, one ``pair_power_sum`` call per set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from .core import (
    DataError,
    FeasibleSetCollection,
    NormSpec,
    Sets,
    UsageError,
    distance_powers,
    exact_sum,
    member_centre,
    member_rows,
    power_mean,
    set_losses,
    vector_norms,
)

__all__ = [
    "REL_TOL",
    "at_most",
    "kersize",
    "optimal_map_value",
    "verify_bounds",
    "BoundReport",
    "MeasurementReport",
    "ThetaCertificate",
]

# The bound inequalities are exact in reals; this relative tolerance covers
# floating-point accumulation only.
REL_TOL = 1e-9


def at_most(a: float, b: float) -> bool:
    """``a <= b`` up to floating-point accumulation, ``REL_TOL * max(|a|, |b|)``:
    scaling a and b by a power of two scales the tolerance with them and keeps
    the verdict. An infinite side is compared exactly."""
    if math.isinf(a) or math.isinf(b):
        return bool(a <= b)
    return bool(a <= b + REL_TOL * max(abs(a), abs(b)))


def _block_size(n: int, d: int) -> int:
    # bounded temporaries; small sets get proportionally smaller blocks so the
    # within-block waste stays a constant fraction of the pair count
    return max(16, min(int(math.sqrt(4_000_000 / max(d, 1))), -(-n // 8)))


def pair_power_sum(members: np.ndarray, norm: NormSpec) -> float:
    """Sum of ‖x_n - x_n'‖^p over unordered member pairs: in closed form at
    p = q in {1, 2}, pair by pair otherwise (see the module docstring). A
    pair's power or a sum past the float64 range raises DataError."""
    X = np.asarray(members, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        return 0.0
    if norm.mask is not None:
        norm.check_dim(X.shape[1])
        X = X[:, norm.mask]
    what, pair = "the sum of the pairs' p-th powers", "the p-th power of a pair distance"
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the range fails its sum
        if norm.p == norm.q and norm.p in (1.0, 2.0):
            C = X - member_centre(X, np.mean)
            if norm.p == 2.0:
                # exact for any centre; the second term is what rounding of the
                # mean leaves behind
                s = C.sum(axis=0)
                squares = exact_sum(np.einsum("ij,ij->i", C, C).tolist(), what)
                return exact_sum([n * squares, -exact_sum((s * s).tolist(), what)], what)
            w = 2.0 * np.arange(n) - (n - 1)
            return exact_sum((np.sort(C, axis=0) * w[:, None]).ravel().tolist(), what)
        unmasked = NormSpec(p=norm.p, q=norm.q)
        bs = _block_size(n, X.shape[1])
        partial = []
        for i0 in range(0, n, bs):
            for j0 in range(i0, n, bs):
                # a diagonal block counts every unordered pair twice and its
                # own diagonal is exactly zero, so it adds half its sum
                pw = distance_powers(X[i0 : i0 + bs, None], X[None, j0 : j0 + bs], unmasked, pair)
                partial.append((0.5 if j0 == i0 else 1.0) * float(np.sum(pw)))
    return exact_sum(partial, what)


def kersize(c: FeasibleSetCollection, norm: NormSpec) -> tuple:
    """Average kernel size of a collection and the per-set contributions.

    Returns ``(value, v)`` where ``v[k]`` is the mean ordered-pair p-th-power
    distance within set k (zero for empty sets) and
    ``value = ((1/K) Σ v_k)^(1/p)``.
    """
    v = [2.0 * pair_power_sum(e.members, norm) / (e.count**2) if e.count else 0.0
         for e in c.entries]
    return power_mean([v], norm.p), v


# -- the interior-point solver for theta ----------------------------------------
#
# One call solves every set of one (p, q) at once. The members of all sets are
# stacked into one (M, d) array in the layout of ``core.Sets``; per-set sums
# are np.add.reduceat over those rows, and every set keeps its own barrier
# weight, step length and stopping state. Each per-set quantity is
# computed from that set's rows alone, so a set gets the same θ, bit for bit,
# whatever other sets share the call.

# THETA_TOL is the relative duality gap at which the solver stops. At q = ∞ on
# sets far from the origin a set may stop above it: on 100 sets of 3 to 11
# members at 1e6 + s·N(0, 1) in 3-D, the worst certified gap was 1.7e-8 of the
# objective at s = 1e-3 and 1.7e-5 at s = 1e-6. θ must sit on the float grid
# (ulp 1.2e-10 at 1e6), and the q = ∞ kink at the minimum makes that rounding
# cost first-order objective. The certificate stays valid there, only loose.
THETA_TOL = 1e-10
_MU = 20.0  # growth of the barrier weight per centring
_CENTRED = 1e-14  # half the squared Newton decrement of a centred point
_MAX_NEWTON = 50  # Newton steps one centring may take before the solver gives up
_MAX_STEPS = 600  # Newton steps in all
_GRAM_BLOCK = 1 << 22  # doubles in one temporary of _gram
_DUAL_Q = {1.0: np.inf, 2.0: 2.0, np.inf: 1.0}
_Q_NORMS = {q: NormSpec(q=q) for q in _DUAL_Q}


@dataclass(frozen=True)
class ThetaCertificate:
    """How close theta is to the minimum of f(z) = (1/N) Σ_n ‖x_n - z‖^p.

    ``gap`` is an upper bound on ``objective - min f``; ``iterations`` counts
    Newton steps (0 for the exact forms).
    """

    objective: float
    gap: float
    iterations: int


def _q_norms(rows: np.ndarray, q: float) -> np.ndarray:
    return vector_norms(rows, _Q_NORMS[q])


def _gram(U: np.ndarray, V: np.ndarray, sets: Sets) -> np.ndarray:
    """Σ_n u_n v_nᵀ over each set's rows, shape (K, d, d), from temporaries of
    at most ``_GRAM_BLOCK`` doubles. Splitting by row index i of the product
    leaves every entry's sum, and so its rounding, unchanged."""
    m, d = U.shape
    step = max(1, _GRAM_BLOCK // max(1, m * d))
    out = np.empty((sets.n.size, d, d))
    for i in range(0, d, step):
        out[:, i : i + step] = sets.sums(U[:, i : i + step, None] * V[:, None, :])
    return out


def _dual_gap(R: np.ndarray, Y: np.ndarray, p: float, q: float, sets: Sets) -> np.ndarray:
    """Upper bound on f(z) - min f for each set, from dual points ``Y``, one per
    member; ``R`` and ``Y`` are stacked as ``sets``.

    With h = ‖·‖_q^p, any y_n summing to zero give the Fenchel lower bound
    (1/N) Σ_n (⟨y_n, x_n⟩ - h*(y_n)) ≤ min f, where
    h*(y) = (p-1) (‖y‖_q*/p)^(p/(p-1)) and, at p = 1, h* is the indicator of
    the dual-norm unit ball. ``Y`` is centred to sum to zero over each set
    (and at p = 1 scaled into that ball); the bound's distance to f(z) is then
    the mean Fenchel-Young residual h(r_n) + h*(y_n) - ⟨y_n, r_n⟩ over the
    residuals R = x_n - z, a sum of nonnegative terms.
    """
    Y = Y - (sets.sums(Y) / sets.n[:, None])[sets.sid]
    dual = _q_norms(Y, _DUAL_Q[q])
    if p == 1.0:
        Y = Y / np.maximum(1.0, np.maximum.reduceat(dual, sets.starts))[sets.sid, None]
        conj = 0.0
    else:
        with np.errstate(over="ignore"):  # far from the centre: a useless, infinite gap
            conj = (p - 1.0) * (dual / p) ** (p / (p - 1.0))
    terms = _q_norms(R, q) ** p + conj - np.einsum("ij,ij->i", Y, R)
    return np.maximum(0.0, sets.fsums(terms) / sets.n)


def _solve_psd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A_k x_k = b_k for each set's symmetric positive semidefinite Schur
    complement (``A`` of shape (K, d, d), ``b`` of shape (K, d)) by one batched
    ``np.linalg.eigh`` at unit diagonal: D_k A_k D_k, D_k = diag(A_k)^(-1/2).

    A barrier's curvatures span decades along the diagonal, and an eigensolver
    loses digits with the condition number it is given: 6 sets of 20 members
    at d = 60, q = ∞ stopped at gaps up to 5e-7 of the objective unscaled and
    6e-11 scaled. An eigenvalue at most d·eps of its set's largest marks
    curvature that rounding has erased and gets no step, so x_k = D_k (D_k
    A_k D_k)⁺ D_k b_k (A_k⁺ b_k at a constant diagonal). A set whose A_k or
    b_k is not finite gets a NaN step and never reaches LAPACK, which solves
    each matrix of the stack on its own.
    """
    x = np.full_like(b, np.nan)
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if finite.any():
        A, b = A[finite], b[finite]
        root = np.sqrt(np.maximum(A.diagonal(axis1=1, axis2=2), 0.0))
        s = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
        lam, V = np.linalg.eigh(s[:, :, None] * A * s[:, None, :])
        c = ((s * b)[:, None, :] @ V)[:, 0]  # Vᵀ D b
        kept = lam > b.shape[1] * np.finfo(float).eps * lam[:, -1:]
        c = np.divide(c, lam, out=np.zeros_like(c), where=kept)
        x[finite] = s * (V @ c[:, :, None])[:, :, 0]
    return x


def _exclusive_sums(A: np.ndarray) -> np.ndarray:
    """Σ_{j≠i} A[:, j] for every column i, by prefix and suffix sums (no
    subtraction, so a dominant entry does not swamp the others)."""
    out = np.zeros_like(A)
    out[:, 1:] = np.cumsum(A[:, :-1], axis=1)
    out[:, :-1] += np.cumsum(A[:, :0:-1], axis=1)[:, ::-1]
    return out


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _diagonal(A: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous (K, d, d) stack."""
    return A.reshape(A.shape[0], -1)[:, :: A.shape[1] + 1]


# Each Newton step below takes the residuals R = x_n - z, the member bounds t,
# the slacks S, the first and second derivatives (grad, curv) of the weighted
# objective (τ/N) t_n^p and the row layout of the sets. It eliminates each
# member's own variables (t_n, and u_n at q = 1, which only the slacks need)
# in closed form, solves each set's d×d system for dz, and returns
# (dz, dt, change, dual, lam2): change(α) is the relative change of every
# slack along the step, α given per row, dual = ∂φ/∂r (φ the member
# barriers), lam2 each set's squared Newton decrement. Curvatures are formed
# from slack ratios (4ab/(a+b), not (a+b) - (a-b)²/(a+b)), so the nearly
# active slacks of a well-centred point do not cancel each other.


def _step_max(R, t, S, grad, curv, sets):
    """q = ∞: slacks s⁺ = t - r_i and s⁻ = t + r_i."""
    d = R.shape[1]
    ip, im = 1.0 / S[:, :d], 1.0 / S[:, d:]
    a, b = ip * ip, im * im
    sig, c = a + b, a - b
    W = sig.sum(axis=1) + curv
    diag = (sig * (_exclusive_sums(sig) + curv[:, None]) + 4.0 * a * b) / W[:, None]
    cw = c / W[:, None]
    schur = -_gram(cw, c, sets)
    _diagonal(schur)[:] = sets.sums(diag)
    g_t = grad - (ip + im).sum(axis=1)
    g_z = sets.sums(im - ip)
    dz = _solve_psd(schur, sets.sums(cw * g_t[:, None]) - g_z)
    dzr = dz[sets.sid]
    dt = -(g_t + _rowdot(c, dzr)) / W
    ratio = np.concatenate([(dt[:, None] + dzr) * ip, (dt[:, None] - dzr) * im], axis=1)
    lam2 = -(sets.sums(g_t * dt) + _rowdot(g_z, dz))
    return dz, dt, lambda alpha: alpha[:, None] * ratio, ip - im, lam2


def _step_sum(R, t, S, grad, curv, sets):
    """q = 1: slacks s⁺ = u_i - r_i, s⁻ = u_i + r_i and s0 = t - Σ_i u_i."""
    d = R.shape[1]
    sp, sm, s0 = S[:, :d], S[:, d : 2 * d], S[:, 2 * d]
    sp2, sm2 = sp * sp, sm * sm
    hsum = sp2 + sm2
    harm = 4.0 / hsum  # 4ab/(a+b), a = 1/s⁺², b = 1/s⁻²
    rho = (sm2 - sp2) / hsum  # (a-b)/(a+b)
    inv_sig = sp2 * sm2 / hsum
    # t enters only through s0 and the objective; eliminating it leaves the
    # weight c0' on (Σ du)² and the shifted linear term eta on each u_i
    q0 = 1.0 + curv * s0 * s0
    c0p = curv / q0
    eta = (curv * s0 + grad) / q0
    gam = (eta[:, None] * sp2 * sm2 - sp * sm * (sp + sm)) / hsum  # (g_u + β)/σ
    den = 1.0 + c0p * inv_sig.sum(axis=1)
    kap = c0p / den
    g_sum = gam.sum(axis=1)
    schur = _gram(rho * kap[:, None], rho, sets)
    _diagonal(schur)[:] += sets.sums(harm)
    r = 0.5 * (sm - sp)
    rhs = -sets.sums(harm * r - rho * eta[:, None] + (kap * g_sum)[:, None] * rho)
    dz = _solve_psd(schur, rhs)
    dzr = dz[sets.sid]
    du_sum = -(g_sum + _rowdot(rho, dzr)) / den
    du = -gam - (c0p * du_sum)[:, None] * inv_sig - rho * dzr
    inv_s0 = 1.0 / s0
    g_t = grad - inv_s0
    dt = (du_sum - g_t * s0 * s0) / q0
    ip, im = 1.0 / sp, 1.0 / sm
    dual = ip - im
    g_u = inv_s0[:, None] - ip - im
    lam2 = -sets.sums(g_t * dt + _rowdot(g_u, du) - _rowdot(dual, dzr))
    ratio = np.concatenate([(du + dzr) * ip, (du - dzr) * im,
                            ((dt - du.sum(axis=1)) / s0)[:, None]], axis=1)
    return dz, dt, lambda alpha: alpha[:, None] * ratio, dual, lam2


def _step_euclid(R, t, S, grad, curv, sets):
    """q = 2: the cone slack s = t² - ‖r‖², barrier -log s."""
    d = R.shape[1]
    s = S[:, 0]
    nr2 = _rowdot(R, R)
    nr = np.sqrt(nr2)
    rhat = np.divide(R, nr[:, None], out=np.zeros_like(R), where=nr[:, None] > 0)
    den = 2.0 * t * t + 2.0 * nr2 + curv * s * s
    h_tt = den / (s * s)
    h_tz = 4.0 * t[:, None] * R / (s * s)[:, None]
    # 2I/s + 4rrᵀ/s² - h_tz h_tzᵀ/h_tt, written as 2(I - r̂r̂ᵀ)/s + λ_r r̂r̂ᵀ
    lam_r = (4.0 + 2.0 * curv * s + 4.0 * curv * nr2) / den
    schur = _gram(rhat * (lam_r - 2.0 / s)[:, None], rhat, sets)
    _diagonal(schur)[:] += sets.sums(2.0 / s)[:, None]
    g_t = grad - 2.0 * t / s
    g_z = -2.0 * sets.sums(R / s[:, None])
    dz = _solve_psd(schur, sets.sums(h_tz * (g_t / h_tt)[:, None]) - g_z)
    dzr = dz[sets.sid]
    dt = -(g_t + _rowdot(h_tz, dzr)) / h_tt
    lin = 2.0 * (t * dt + _rowdot(R, dzr)) / s
    quad = (dt * dt - _rowdot(dzr, dzr)) / s
    change = lambda alpha: (alpha * lin + alpha * alpha * quad)[:, None]  # noqa: E731
    lam2 = -(sets.sums(g_t * dt) + _rowdot(g_z, dz))
    return dz, dt, change, 2.0 * R / s[:, None], lam2


def _line_search(change, t, dt, weight, p, lam2, sets, search):
    """Backtracking from the full step, set by set, until every slack of the
    set stays positive and its barrier function falls enough; returns each
    set's α (0 for a set outside ``search`` or where 60 halvings found no
    step) and the relative slack change at those α (0 where α = 0).
    ``weight`` is the objective's weight τ/N of each row's set.

    The change in a set's barrier function is one fsum over log1p of its slack
    ratios and expm1/log1p of t^p, so a tiny decrease is not lost to
    cancellation between two large function values.
    """
    alpha, taken, rel_taken = np.ones(sets.n.size), np.zeros(sets.n.size), 0.0
    tp = weight * t**p
    for _ in range(60):
        if not search.any():
            break
        ar = alpha[sets.sid]
        rel, tr = change(ar), ar * dt / t
        ok = search & (np.minimum.reduceat(np.minimum(rel.min(axis=1), tr), sets.starts) > -1.0)
        if ok.any():
            terms = np.concatenate([(tp * np.expm1(p * np.log1p(tr)))[:, None],
                                    -np.log1p(rel)], axis=1)
            accept = ok & (sets.fsums(terms, ok) <= -0.25 * alpha * lam2)
            taken = np.where(accept, alpha, taken)
            rel_taken = np.where(accept[sets.sid, None], rel, rel_taken)
            search = search & ~accept
        alpha = 0.5 * alpha
    return taken, rel_taken


def _spread(P: np.ndarray, centre: np.ndarray, sets: Sets) -> np.ndarray:
    """Each set's largest |x_ni - c_i| (0 at d = 0, +inf past the float range)."""
    with np.errstate(over="ignore"):
        return np.maximum.reduceat(np.abs(P - centre[sets.sid]).max(1, initial=0.0), sets.starts)


def _interior_point(P: np.ndarray, sets: Sets, centre: np.ndarray, scale: np.ndarray,
                    p: float, q: float) -> tuple:
    """Barrier method (Boyd & Vandenberghe 2004, ch. 11) for
    min_z (1/N) Σ_n ‖x_n - z‖_q^p, p ≥ 1, on every set at once, in epigraph
    form:

        min (1/N) Σ_n t_n^p  s.t.  t_n ≥ ±(x_ni - z_i)              (q = ∞)
                                   u_ni ≥ ±(x_ni - z_i), t_n ≥ Σ_i u_ni  (q = 1)
                                   t_n ≥ ‖x_n - z‖₂                 (q = 2)

    ``P`` stacks the members of the sets in the row layout ``sets``.
    Every member has the same constraint rows, so each Newton step eliminates
    the members' own variables (t_n, u_n) in closed form and solves one d×d
    system per set for z: O(M d²) per joint step for M members in all, with
    no loop over members or sets. Set k is solved in its caller's frame,
    (x_n - centre[k]) / scale[k], and its slacks are tracked multiplicatively,
    keeping their relative precision when they are far smaller than the data.

    A set stops when the Fenchel bound of ``_dual_gap``, built from the
    barrier multipliers, is within ``THETA_TOL`` of its objective, when
    raising its barrier weight no longer shrinks it, or when its Newton
    system breaks down (a step or decrement that is not finite); it then
    drops out of the joint steps without affecting the other sets. Returns
    each set's best point found (K, d), best lower bound on min f (K,) and
    number of Newton steps (K,).
    """
    K, d = sets.n.size, P.shape[1]
    theta, lower_out, steps_out = P[sets.starts].copy(), np.zeros(K), np.zeros(K, dtype=int)
    live = _spread(P, theta, sets) != 0.0  # one member, or identical ones: θ is that member
    ids = np.flatnonzero(live)
    if ids.size == 0:
        return theta, lower_out, steps_out
    rows = live[sets.sid]
    sets = Sets(sets.n[ids])
    X = (P[rows] - centre[ids][sets.sid]) / scale[ids][sets.sid, None]
    if q == np.inf:
        step, t = _step_max, np.abs(X).max(axis=1) + 0.5
        S = np.concatenate([t[:, None] - X, t[:, None] + X], axis=1)
    elif q == 1:
        step, u = _step_sum, np.abs(X) + 0.5
        t = u.sum(axis=1) + 0.5
        S = np.concatenate([u - X, u + X, (t - u.sum(axis=1))[:, None]], axis=1)
    else:
        step, t = _step_euclid, np.sqrt(_rowdot(X, X)) + 0.5
        S = (t * t - _rowdot(X, X))[:, None]
    degree = (S.shape[1] if q != 2 else 2) * sets.n  # the cone barrier has degree 2
    k = ids.size
    tau = degree / (sets.sums(t**p) / sets.n)
    z, best_z = np.zeros((k, d)), np.zeros((k, d))
    best_f, lower, last_gap = np.full(k, math.inf), np.full(k, -math.inf), np.full(k, math.inf)
    steps, idle, newton = np.zeros(k, dtype=int), np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    with np.errstate(all="ignore"):  # a breakdown shows as a non-finite step
        while ids.size:
            steps += 1
            newton += 1
            R = X - z[sets.sid]
            wr = (tau / sets.n)[sets.sid]  # the objective's weight, per row
            grad = wr * p * t ** (p - 1.0)
            curv = wr * p * (p - 1.0) * t ** (p - 2.0)
            dz, dt, change, dual, lam2 = step(R, t, S, grad, curv, sets)
            f = sets.sums(_q_norms(R, q) ** p) / sets.n
            gap = _dual_gap(R, dual / wr[:, None], p, q, sets)
            better = f < best_f
            best_f = np.where(better, f, best_f)
            best_z = np.where(better[:, None], z, best_z)
            lower = np.fmax(lower, f - gap)
            conv = best_f - lower <= THETA_TOL * best_f
            broken = ~(np.isfinite(lam2) & np.isfinite(dz).all(axis=1))
            centred = lam2 <= 2.0 * _CENTRED
            search = ~(conv | broken | centred)
            alpha, rel = _line_search(change, t, dt, wr, p, lam2, sets, search)
            stepped = alpha > 0.0
            # α = 0 leaves a set's point as it is (a broken set's is dropped)
            z, t, S = z + alpha[:, None] * dz, t + alpha[sets.sid] * dt, S * (1.0 + rel)
            done = conv | broken | (stepped & (newton >= _MAX_NEWTON))
            # a centring ends once the point is centred or no step helps:
            # raise the weight, unless the gap has stopped shrinking
            ended = ~(conv | broken | stepped)
            if ended.any():
                shrank = gap < 0.5 * last_gap
                last_gap = np.where(ended & shrank, gap, last_gap)
                idle = np.where(ended, np.where(shrank, 0, idle + 1), idle)
                tau = np.where(ended, tau * _MU, tau)
                newton = np.where(ended, 0, newton)
                done |= ended & ((steps >= _MAX_STEPS) | (idle >= 2))
            if done.any():
                out = ids[done]
                theta[out] = centre[out] + scale[out, None] * best_z[done]
                lower_out[out] = lower[done] * scale[out] ** p
                steps_out[out] = steps[done]
                keep = ~done
                rows = keep[sets.sid]
                X, t, S = X[rows], t[rows], S[rows]
                ids, z, best_z, best_f, lower, tau, last_gap, steps, idle, newton = (
                    a[keep] for a in (ids, z, best_z, best_f, lower, tau, last_gap, steps,
                                      idle, newton))
                sets = Sets(sets.n[keep])
    return theta, lower_out, steps_out


def _vertex_step(X: np.ndarray, z: np.ndarray, lower: float) -> tuple:
    """p = 1, q = 2: the geometric median often sits on a member, where the
    barrier's point stays just off the kink. Tries the member x_j nearest z,
    with dual points y_n = (x_n - x_j)/‖x_n - x_j‖ and the copies of x_j sharing
    -Σ y_n; by Kuhn's test (Kuhn 1973) x_j is optimal, with a zero gap, when
    ‖Σ y_n‖ ≤ its multiplicity. Returns x_j if f(x_j) ≤ f(z), else z, and the
    larger of ``lower`` and the Fenchel bound at x_j. Every difference of two
    members must be a float (``_optimal_maps`` rescues a set where it is not)."""
    to_z = _q_norms(X - z, 2.0)
    v = X[np.argmin(to_z)].copy()
    R = X - v
    dist = _q_norms(R, 2.0)
    Y = np.divide(R, dist[:, None], out=np.zeros_like(R), where=dist[:, None] > 0)
    copies = dist == 0.0
    Y[copies] = -Y.sum(axis=0) / np.count_nonzero(copies)
    f = float(np.mean(dist))
    lower = max(lower, f - float(_dual_gap(R, Y, 1.0, 2.0, Sets([X.shape[0]]))[0]))
    return (v if f <= np.mean(to_z) else z), lower


def _optimal_maps(sets: Sets, X: np.ndarray, norm: NormSpec) -> tuple:
    """θ (K, d), the lower bound on min f (None where θ is exact) and the
    iteration count of each set of the stacked members X, in the row layout
    ``sets``, of one member or many: the closed forms run over all sets at
    once, and the interior-point method serves all sets in one call, each
    centred on its member mean c and scaled by its spread max |x_ni - c_i|. A
    set spread past half the float range, where two members' difference may
    overflow, is solved at a quarter of its size, barrier and Kuhn's test alike."""
    if norm.p < 1 and (sets.n > 1).any():
        raise UsageError("optimal map for p < 1 is unsupported (objective is non-convex)")
    norm.check_dim(X.shape[1])
    thetas = sets.centres(X, np.mean)
    lowers, iterations = [None] * sets.n.size, [0] * sets.n.size
    if norm.p == 2 and norm.q == 2:
        return thetas, lowers, iterations
    cols = slice(None) if norm.mask is None else norm.mask
    P, centre = X[:, cols], thetas[:, cols]
    if norm.p == 1 and norm.q == 1:
        thetas[:, cols] = sets.centres(P, np.median)
        return thetas, lowers, iterations
    scale = _spread(P, centre, sets)
    wide = scale > 0.5 * np.finfo(float).max
    if wide.any():  # at a quarter of its size, where two members' difference is a float
        P = np.where(wide[sets.sid, None], np.ldexp(P, -2), P)
        centre = np.where(wide[:, None], np.ldexp(centre, -2), centre)
        scale = _spread(P, centre, sets)
    Z, lower, steps = _interior_point(P, sets, centre, scale, norm.p, norm.q)
    if norm.p == 1 and norm.q == 2:
        for k, (a, b) in enumerate(sets.bounds):
            Z[k], lower[k] = _vertex_step(P[a:b], Z[k], lower[k])
    Z[wide] = np.ldexp(Z[wide], 2)
    with np.errstate(over="ignore"):  # an objective past the float range
        lower[wide] *= 4.0**norm.p
    thetas[:, cols] = Z
    return thetas, lower.tolist(), steps.tolist()


def _certificate(objective: float, lower: float | None, iterations: int) -> ThetaCertificate:
    """θ's certificate from its objective (the exact mean of its loss powers
    ‖x_n - θ‖^p) and ``_optimal_maps``' lower bound and iteration count."""
    gap = 0.0 if lower is None else max(0.0, objective - lower)
    return ThetaCertificate(objective, gap, iterations)


def optimal_map_value(members, norm: NormSpec, certificate: bool = False):
    """Minimizer θ of f(z) = (1/N) Σ_n ‖x_n - z‖^p over the members of one set,
    by the solver the module docstring names for (p, q): the same solver, and
    so the same θ and certificate, that ``verify_bounds`` runs on all sets of
    a collection at once.

    Coordinates outside the norm's mask are copied from the member mean. With
    ``certificate=True`` returns ``(θ, ThetaCertificate)``: f(θ) (the exact
    sum of the powers over N, as ``verify_bounds`` takes it), an upper bound
    on f(θ) - min f (0 for the exact forms and a single member) and the
    solver's iteration count. A non-finite member, or a power or sum past
    the float64 range, raises DataError.
    """
    X = member_rows(members)
    if X.shape[0] == 0:
        raise UsageError("optimal_map_value needs at least one member")
    thetas, (lower,), (iterations,) = _optimal_maps(Sets([X.shape[0]]), X, norm)
    z = thetas[0]
    if not certificate:
        return z
    powers = distance_powers(X, z, norm, "the objective of theta")
    objective = exact_sum(powers.tolist(), "the objective of theta") / X.shape[0]
    return z, _certificate(objective, lower, iterations)


@dataclass
class MeasurementReport:
    """Per-measurement bound data: the K = 1 restriction of the kernel size,
    every map's loss restricted to this measurement and theta's certificate
    (see ``ThetaCertificate``; None for an empty set)."""

    id: str
    n_k: int
    v_k: float
    half_kersize_single: float
    losses: dict = field(default_factory=dict)
    theta_objective: float | None = None
    theta_gap: float | None = None
    theta_iterations: int | None = None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["losses"] = dict(self.losses)
        return d


@dataclass
class BoundReport:
    """Aggregate and per-measurement accuracy-bound results."""

    kersize: float
    half_kersize: float
    p: float
    q: float
    mask: list | None
    uniform: bool
    losses: dict
    theta_loss: float
    lower_ok: bool
    theta_upper_ok: bool
    lower_ok_by_map: dict
    note: str
    per_measurement: list

    def to_dict(self) -> dict:
        """The ``bounds.json`` document: every field, with q = inf as "inf",
        the three inequality flags under "inequality_flags" and each
        per-measurement row as its own document."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["q"] = "inf" if self.q == np.inf else self.q
        d["inequality_flags"] = {k: d.pop(k)
                                 for k in ("lower_ok", "theta_upper_ok", "lower_ok_by_map")}
        d["per_measurement"] = [m.to_dict() for m in self.per_measurement]
        return d


def verify_bounds(c: FeasibleSetCollection, predictions: Mapping[str, Mapping],
                  norm: NormSpec) -> BoundReport:
    """Compute the kernel-size bounds and check them against prediction maps.

    ``predictions`` maps a name to per-measurement signal estimates (keyed by
    measurement id). The optimal per-set map is always evaluated as 'theta'.
    Neither inequality, the lower one for every map or theta's upper one, is
    certified unless the sets are uniformly sized: the kernel size weights
    every set equally and the losses every member, so on ragged sets the
    flags are reported but not certified.
    Every set is evaluated in one stacked pass (``core.set_losses``): θ of
    all sets from one ``_optimal_maps`` call, then every map's per-set and
    aggregate losses (the ``core.loss`` value) and θ's objectives from one
    array of p-th powers of all members. A fault raises the error of the
    first failing set in collection order and, within it, of the first
    failing map ('theta', then ``predictions`` in order).
    """
    if not any(c.counts):
        raise DataError("collection has no members; bounds are vacuous")
    value, v = kersize(c, norm)
    half = value / 2.0

    if "theta" in predictions:
        raise UsageError("prediction name 'theta' is reserved")
    sets, X, ids = c.stacked
    thetas, lowers, iterations = _optimal_maps(sets, X, norm)
    named = {"theta": dict(zip(ids, thetas)), **predictions}
    per_set, losses, means = set_losses(sets, X, ids, named, norm)

    per_meas, j = [], 0
    for k, e in enumerate(c.entries):
        row = MeasurementReport(id=e.id, n_k=e.count, v_k=v[k],
                                half_kersize_single=0.5 * v[k] ** (1.0 / norm.p))
        per_meas.append(row)
        if e.count == 0:
            row.losses = dict.fromkeys(named)
            continue
        row.losses = {name: per_set[name][j] for name in named}
        cert = _certificate(means["theta"][j], lowers[j], iterations[j])
        row.theta_objective, row.theta_gap, row.theta_iterations = (
            cert.objective, cert.gap, cert.iterations)
        j += 1

    theta_loss = losses.pop("theta")
    lower_by_map = {name: at_most(half, lv) for name, lv in losses.items()}
    lower_by_map["theta"] = at_most(half, theta_loss)
    theta_upper = at_most(theta_loss, value)
    note = (
        "uniform set sizes: lower bound and theta upper bound both certified"
        if c.uniform
        else "non-uniform set sizes: lower bound and theta upper bound reported but not "
        "certified; the kernel size weights sets equally, the losses weight members equally"
    )
    return BoundReport(
        kersize=value,
        half_kersize=half,
        p=norm.p,
        q=norm.q,
        mask=norm.to_dict()["mask"],
        uniform=c.uniform,
        losses=losses,
        theta_loss=theta_loss,
        lower_ok=all(lower_by_map.values()),
        theta_upper_ok=theta_upper,
        lower_ok_by_map=lower_by_map,
        note=note,
        per_measurement=per_meas,
    )
