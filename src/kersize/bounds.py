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
rounding per value. Every other norm sums the pairs in fixed-size blocks.
Each final reduction is an exact fsum over terms computed in a fixed order,
so reports are reproducible bit for bit.

θ is exact where a closed form exists (the mean at p = q = 2, the
coordinatewise median at p = q = 1). Every other p ≥ 1 goes to a numpy-only
log-barrier interior-point method on the epigraph form of the objective,
which stops at a relative duality gap of 1e-10. ``verify_bounds`` hands all
sets to one call of it, which steps every set in lockstep: each set keeps its
own barrier weight, step length and stopping test, comes out bit for bit as
if solved alone, and drops out when it converges or its Newton system breaks
down, without affecting the others. At p = 1, q = 2 the geometric median often sits on a
member, which the barrier's point never reaches; there the member nearest it
is tried too, certified by Kuhn's test. Each θ comes with a certificate: its
objective, an upper bound on its distance to the minimum (from a Fenchel dual
point built from the barrier multipliers, or from Kuhn's dual points) and the
set's own iteration count.
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
    UsageError,
    loss_powers,
    power_mean,
    vector_norms,
)

__all__ = [
    "REL_TOL",
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


def _block_size(n: int, d: int) -> int:
    # bounded temporaries; small sets get proportionally smaller blocks so the
    # within-block waste stays a constant fraction of the pair count
    return max(16, min(int(math.sqrt(4_000_000 / max(d, 1))), -(-n // 8)))


def _pair_powers(diff: np.ndarray, p: float, q) -> np.ndarray:
    """‖diff‖^p over the last axis of a (b1, b2, d) block of differences.

    p in {1, 2} avoids the generic float power, which dominates large blocks.
    """
    if q == 2:
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        if p == 1.0:
            return np.sqrt(sq)
        return sq ** (p / 2.0)
    a = np.abs(diff)
    nrm = a.sum(axis=2) if q == 1 else (a.max(axis=2) if a.shape[2] else np.zeros(a.shape[:2]))
    if p == 1.0:
        return nrm
    if p == 2.0:
        return nrm * nrm
    return nrm**p


def pair_power_sum(members: np.ndarray, norm: NormSpec) -> float:
    """Sum of ‖x_n - x_n'‖^p over unordered member pairs: in closed form at
    p = q in {1, 2}, pair by pair otherwise (see the module docstring)."""
    X = np.asarray(members, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        return 0.0
    if norm.mask is not None:
        norm.check_dim(X.shape[1])
        X = X[:, norm.mask]
    if norm.p == norm.q and norm.p in (1.0, 2.0):
        C = X - X.mean(axis=0)
        if norm.p == 2.0:
            # exact for any centre; the second term is what rounding of the
            # mean leaves behind
            s = C.sum(axis=0)
            return n * math.fsum(np.einsum("ij,ij->i", C, C).tolist()) - math.fsum(s * s)
        w = 2.0 * np.arange(n) - (n - 1)
        return math.fsum((np.sort(C, axis=0) * w[:, None]).ravel().tolist())
    bs = _block_size(n, X.shape[1])
    partial = []
    for i0 in range(0, n, bs):
        xi = X[i0 : i0 + bs]
        # within-block grid counts every ordered pair once and its diagonal
        # is exactly zero, so half the full sum is the unordered-pair sum
        pw = _pair_powers(xi[:, None, :] - xi[None, :, :], norm.p, norm.q)
        partial.append(0.5 * float(np.sum(pw)))
        for j0 in range(i0 + bs, n, bs):
            xj = X[j0 : j0 + bs]
            pw = _pair_powers(xi[:, None, :] - xj[None, :, :], norm.p, norm.q)
            partial.append(float(np.sum(pw)))
    return math.fsum(partial)


def kersize(c: FeasibleSetCollection, norm: NormSpec) -> tuple:
    """Average kernel size of a collection and the per-set contributions.

    Returns ``(value, v)`` where ``v[k]`` is the mean ordered-pair p-th-power
    distance within set k (zero for empty sets) and
    ``value = ((1/K) Σ v_k)^(1/p)``.
    """
    v = []
    for e in c.entries:
        if e.count == 0:
            v.append(0.0)
        else:
            v.append(2.0 * pair_power_sum(e.members, norm) / (e.count**2))
    return power_mean([v], norm.p), v


# -- the interior-point solver for theta ----------------------------------------
#
# One call solves every set of one (p, q) at once. The members of all sets are
# stacked into one (M, d) array in which set k owns a run of consecutive rows;
# per-set sums are np.add.reduceat over those rows, and every set keeps its own
# barrier weight, step length and stopping state. Each per-set quantity is
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


class _Sets:
    """Row layout of sets stacked into one array: set k owns the ``n[k]`` rows
    from ``starts[k]`` on (every set has at least one row), and ``sid`` maps
    each row to its set."""

    def __init__(self, sizes):
        self.n = np.asarray(sizes, dtype=np.intp)
        stops = np.cumsum(self.n)
        self.starts = stops - self.n
        self.sid = np.repeat(np.arange(self.n.size), self.n)
        self._bounds = list(zip(self.starts.tolist(), stops.tolist()))

    def sums(self, A: np.ndarray) -> np.ndarray:
        """Per-set sums of the rows of A."""
        return np.add.reduceat(A, self.starts, axis=0)

    def fsums(self, A: np.ndarray, which: np.ndarray | None = None) -> np.ndarray:
        """Exact sum (math.fsum) of every entry of each set's rows of A, for
        the sets chosen by the mask ``which`` (all by default): +inf where it
        overflows, NaN where it is undefined or not chosen."""
        w = A[0].size
        values = A.ravel().tolist()
        out = [math.nan] * self.n.size
        for k in range(self.n.size) if which is None else np.flatnonzero(which).tolist():
            a, b = self._bounds[k]
            try:
                out[k] = math.fsum(values[a * w : b * w])
            except OverflowError:
                out[k] = math.inf
            except ValueError:  # inf - inf
                pass
        return np.array(out)


def _q_norms(rows: np.ndarray, q: float) -> np.ndarray:
    return vector_norms(rows, _Q_NORMS[q])


def _gram(U: np.ndarray, V: np.ndarray, sets: _Sets) -> np.ndarray:
    """Σ_n u_n v_nᵀ over each set's rows, shape (K, d, d), from temporaries of
    at most ``_GRAM_BLOCK`` doubles. Splitting by row index i of the product
    leaves every entry's sum, and so its rounding, unchanged."""
    m, d = U.shape
    step = max(1, _GRAM_BLOCK // max(1, m * d))
    if step >= d:
        return sets.sums(U[:, :, None] * V[:, None, :])
    out = np.empty((sets.n.size, d, d))
    for i in range(0, d, step):
        out[:, i : i + step] = sets.sums(U[:, i : i + step, None] * V[:, None, :])
    return out


def _dual_gap(R: np.ndarray, Y: np.ndarray, p: float, q: float,
              sets: _Sets | None = None) -> np.ndarray:
    """Upper bound on f(z) - min f for each set, from dual points ``Y``, one per
    member; ``R`` and ``Y`` are stacked as ``sets`` (one set by default).

    With h = ‖·‖_q^p, any y_n summing to zero give the Fenchel lower bound
    (1/N) Σ_n (⟨y_n, x_n⟩ - h*(y_n)) ≤ min f, where
    h*(y) = (p-1) (‖y‖_q*/p)^(p/(p-1)) and, at p = 1, h* is the indicator of
    the dual-norm unit ball. ``Y`` is centred to sum to zero over each set
    (and at p = 1 scaled into that ball); the bound's distance to f(z) is then
    the mean Fenchel-Young residual h(r_n) + h*(y_n) - ⟨y_n, r_n⟩ over the
    residuals R = x_n - z, a sum of nonnegative terms.
    """
    if sets is None:
        sets = _Sets([R.shape[0]])
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
    complement (``A`` of shape (K, d, d), ``b`` of shape (K, d)) by Cholesky,
    dropping pivots lost to rounding.

    A pivot below d·eps of its set's largest diagonal entry marks a direction
    whose curvature rounding has erased; it gets no step (x_j = 0) instead of
    a huge or indefinite one (Wright, "Modified Cholesky factorizations in
    interior-point algorithms for linear programming", 1999). Its column of L
    is zero and its root infinite, so the substitutions skip it. ``b`` is
    factored along as row d, which leaves the forward substitution in L's
    last row. Plain numpy, no LAPACK call.
    """
    d = b.shape[1]
    L = np.concatenate([A, b[:, None, :]], axis=1)  # factored in place, right-looking
    root = np.full_like(b, np.inf)
    tiny = d * np.finfo(float).eps * A.diagonal(axis1=1, axis2=2).max(axis=1)
    for j in range(d):
        pivot = L[:, j, j]
        np.sqrt(pivot, out=root[:, j], where=pivot > tiny)
        col = L[:, j:, j]
        col /= root[:, j, None]
        L[:, j + 1 :, j + 1 :] -= col[:, 1:, None] * col[:, None, 1 : d - j]
    y = L[:, d]  # the forward substitution, L y = b
    for j in range(d - 1, -1, -1):  # back substitution, column by column
        y[:, j] /= root[:, j]
        y[:, :j] -= y[:, j, None] * L[:, j, :j]
    return y


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


def _interior_point(P: np.ndarray, sizes, p: float, q: float) -> tuple:
    """Barrier method (Boyd & Vandenberghe 2004, ch. 11) for
    min_z (1/N) Σ_n ‖x_n - z‖_q^p, p ≥ 1, on every set at once, in epigraph
    form:

        min (1/N) Σ_n t_n^p  s.t.  t_n ≥ ±(x_ni - z_i)              (q = ∞)
                                   u_ni ≥ ±(x_ni - z_i), t_n ≥ Σ_i u_ni  (q = 1)
                                   t_n ≥ ‖x_n - z‖₂                 (q = 2)

    ``P`` stacks the members of the sets, ``sizes[k]`` rows for set k in turn.
    Every member has the same constraint rows, so each Newton step eliminates
    the members' own variables (t_n, u_n) in closed form and solves one d×d
    system per set for z: O(M d²) per joint step for M members in all, with
    no loop over members or sets. Each set is centred and scaled on its own,
    and its slacks are tracked multiplicatively, keeping their relative
    precision when they are far smaller than the data.

    A set stops when the Fenchel bound of ``_dual_gap``, built from the
    barrier multipliers, is within ``THETA_TOL`` of its objective, when
    raising its barrier weight no longer shrinks it, or when its Newton
    system breaks down (a step or decrement that is not finite); it then
    drops out of the joint steps without affecting the other sets. Returns
    each set's best point found (K, d), best lower bound on min f (K,) and
    number of Newton steps (K,).
    """
    sets = _Sets(sizes)
    K, d = sets.n.size, P.shape[1]
    centre = sets.sums(P) / sets.n[:, None]
    scale = np.maximum.reduceat(np.abs(P - centre[sets.sid]).max(axis=1), sets.starts)
    theta, lower_out, steps_out = P[sets.starts].copy(), np.zeros(K), np.zeros(K, dtype=int)
    live = scale != 0.0  # a set of identical members is solved: θ is that member
    ids = np.flatnonzero(live)
    if ids.size == 0:
        return theta, lower_out, steps_out
    rows = live[sets.sid]
    sets = _Sets(sets.n[ids])
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
                sets = _Sets(sets.n[keep])
    return theta, lower_out, steps_out


def _vertex_step(X: np.ndarray, z: np.ndarray, lower: float) -> tuple:
    """p = 1, q = 2: the geometric median often sits on a member, where the
    barrier's point stays just off the kink. Tries the member x_j nearest z,
    with dual points y_n = (x_n - x_j)/‖x_n - x_j‖ and the copies of x_j sharing
    -Σ y_n; by Kuhn's test (Kuhn 1973) x_j is optimal, with a zero gap, when
    ‖Σ y_n‖ ≤ its multiplicity. Returns x_j if f(x_j) ≤ f(z), else z, and the
    larger of ``lower`` and the Fenchel bound at x_j."""
    to_z = _q_norms(X - z, 2.0)
    v = X[np.argmin(to_z)].copy()
    R = X - v
    dist = _q_norms(R, 2.0)
    Y = np.divide(R, dist[:, None], out=np.zeros_like(R), where=dist[:, None] > 0)
    copies = dist == 0.0
    Y[copies] = -Y.sum(axis=0) / np.count_nonzero(copies)
    f = float(np.mean(dist))
    lower = max(lower, f - float(_dual_gap(R, Y, 1.0, 2.0)[0]))
    return (v if f <= np.mean(to_z) else z), lower


def _optimal_maps(sets, norm: NormSpec) -> list:
    """(θ, ThetaCertificate) for each member array of ``sets`` (each with at
    least one member); every set the interior-point method serves goes into
    one call of it."""
    sets = [np.atleast_2d(np.asarray(X, dtype=np.float64)) for X in sets]
    thetas = [X[0].copy() if X.shape[0] == 1 else X.mean(axis=0) for X in sets]
    lowers, iterations = [None] * len(sets), [0] * len(sets)
    multi = [k for k, X in enumerate(sets) if X.shape[0] > 1]
    if multi and norm.p < 1:
        raise UsageError("optimal map for p < 1 is unsupported (objective is non-convex)")
    for k in multi:
        norm.check_dim(sets[k].shape[1])
    if multi and not (norm.p == 2 and norm.q == 2):
        P = [sets[k] if norm.mask is None else sets[k][:, norm.mask] for k in multi]
        if norm.p == 1 and norm.q == 1:
            found = [(np.median(x, axis=0), None, 0) for x in P]
        else:
            Z, low, its = _interior_point(np.concatenate(P), [x.shape[0] for x in P],
                                          norm.p, norm.q)
            found = zip(Z, low.tolist(), its.tolist())
            if norm.p == 1 and norm.q == 2:
                found = [(*_vertex_step(x, z, lower), n) for x, (z, lower, n) in zip(P, found)]
        for k, (z, lower, its) in zip(multi, found):
            lowers[k], iterations[k] = lower, its
            if norm.mask is None:
                thetas[k] = z
            else:
                thetas[k][norm.mask] = z
    out = []
    for X, z, lower, its in zip(sets, thetas, lowers, iterations):
        objective = float(np.mean(vector_norms(X - z, norm) ** norm.p))
        gap = 0.0 if lower is None else max(0.0, objective - lower)
        out.append((z, ThetaCertificate(objective, gap, its)))
    return out


def optimal_map_value(members, norm: NormSpec, certificate: bool = False):
    """Minimizer θ of f(z) = (1/N) Σ_n ‖x_n - z‖^p over the members of one set.

    Which solver runs depends on (p, q):

    * p = q = 2: the coordinate mean (exact);
    * p = q = 1: the coordinatewise median (exact);
    * any other p ≥ 1: the interior-point method of ``_interior_point``, to a
      relative duality gap of ``THETA_TOL``; at p = 1, q = 2 followed by
      ``_vertex_step``, which moves θ onto the nearest member when that is
      no worse.

    ``verify_bounds`` solves all sets of a collection in lockstep, in one
    call of the same solver that runs here on one set. A set's θ and
    certificate do not depend on the other sets in that call: the iteration
    count is the set's own Newton steps, and a set whose Newton system breaks
    down stops at its best certified point without affecting the others.

    Coordinates outside the norm's mask are copied from the member mean. With
    ``certificate=True`` returns ``(θ, ThetaCertificate)``: f(θ), an upper
    bound on f(θ) - min f (0 for the exact forms and a single member) and
    the solver's iteration count.
    """
    X = np.atleast_2d(np.asarray(members, dtype=np.float64))
    if X.shape[0] == 0:
        raise UsageError("optimal_map_value needs at least one member")
    z, cert = _optimal_maps([X], norm)[0]
    return (z, cert) if certificate else z


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
    uniform: bool
    losses: dict
    theta_loss: float
    lower_ok: bool
    theta_upper_ok: bool
    lower_ok_by_map: dict
    note: str
    per_measurement: list

    def to_dict(self) -> dict:
        return {
            "kersize": self.kersize,
            "half_kersize": self.half_kersize,
            "p": self.p,
            "q": "inf" if self.q == np.inf else self.q,
            "uniform": self.uniform,
            "losses": self.losses,
            "theta_loss": self.theta_loss,
            "inequality_flags": {
                "lower_ok": self.lower_ok,
                "theta_upper_ok": self.theta_upper_ok,
                "lower_ok_by_map": self.lower_ok_by_map,
            },
            "note": self.note,
            "per_measurement": [m.to_dict() for m in self.per_measurement],
        }


def verify_bounds(c: FeasibleSetCollection, predictions: Mapping[str, Mapping],
                  norm: NormSpec, tol_rel: float = REL_TOL) -> BoundReport:
    """Compute the kernel-size bounds and check them against prediction maps.

    ``predictions`` maps a name to per-measurement signal estimates (keyed by
    measurement id). The optimal per-set map is always evaluated as 'theta'.
    The lower inequality applies to every map; the theta upper bound is
    certified only for collections with uniformly sized feasible sets.
    Each map's per-set losses and its aggregate loss (the ``core.loss`` value)
    come from one array of member p-th powers per set.
    """
    if not any(c.counts):
        raise DataError("collection has no members; bounds are vacuous")
    value, v = kersize(c, norm)
    half = value / 2.0

    if "theta" in predictions:
        raise UsageError("prediction name 'theta' is reserved")
    filled = [e for e in c.entries if e.count > 0]
    solved = _optimal_maps([e.members for e in filled], norm)
    theta = {e.id: z for e, (z, _) in zip(filled, solved)}
    certificates = {e.id: cert for e, (_, cert) in zip(filled, solved)}
    named = {"theta": theta, **predictions}

    powers = {name: [] for name in named}
    per_meas = []
    for k, e in enumerate(c.entries):
        row = MeasurementReport(
            id=e.id,
            n_k=e.count,
            v_k=v[k],
            half_kersize_single=0.5 * v[k] ** (1.0 / norm.p),
        )
        if e.count > 0:
            cert = certificates[e.id]
            row.theta_objective = cert.objective
            row.theta_gap = cert.gap
            row.theta_iterations = cert.iterations
        for name, preds in named.items():
            if e.count == 0:
                row.losses[name] = None
                continue
            pw = loss_powers(e.members, preds, e.id, norm, name)
            powers[name].append(pw)
            row.losses[name] = power_mean([pw], norm.p)
        per_meas.append(row)

    losses = {name: power_mean(pws, norm.p) for name, pws in powers.items()}
    theta_loss = losses.pop("theta")

    lower_by_map = {
        name: bool(half <= lv + tol_rel * max(1.0, lv)) for name, lv in losses.items()
    }
    lower_by_map["theta"] = bool(half <= theta_loss + tol_rel * max(1.0, theta_loss))
    theta_upper = bool(theta_loss <= value + tol_rel * max(1.0, value))
    note = (
        "uniform set sizes: lower bound and theta upper bound both certified"
        if c.uniform
        else "non-uniform set sizes: lower bound certified for measurable maps; "
        "theta upper bound reported but not certified"
    )
    return BoundReport(
        kersize=value,
        half_kersize=half,
        p=norm.p,
        q=norm.q,
        uniform=c.uniform,
        losses=losses,
        theta_loss=theta_loss,
        lower_ok=all(lower_by_map.values()),
        theta_upper_ok=theta_upper,
        lower_ok_by_map=lower_by_map,
        note=note,
        per_measurement=per_meas,
    )
