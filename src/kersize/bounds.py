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
coordinatewise median at p = q = 1) and Weiszfeld's geometric median at
p = 1, q = 2. Every other p ≥ 1 goes to a numpy-only log-barrier
interior-point method on the epigraph form of the objective, which stops at a
relative duality gap of 1e-10. Each θ comes with a certificate: its
objective, an upper bound on its distance to the minimum (from a Fenchel dual
point built from the barrier multipliers) and the iteration count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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


def _weiszfeld(points: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> tuple:
    """Geometric median by Weiszfeld iteration; returns (median, lower bound
    on the minimum mean distance, iterations).

    Ties at data points are handled by the standard epsilon-perturbation of
    the inverse-distance weights.
    """
    z = points.mean(axis=0)
    scale = max(1.0, float(np.abs(points).max()))
    tie_eps = 1e-15 * scale
    for it in range(1, max_iter + 1):
        dist = np.linalg.norm(points - z[None, :], axis=1)
        w = 1.0 / np.maximum(dist, tie_eps)
        z_new = (points * w[:, None]).sum(axis=0) / w.sum()
        converged = np.linalg.norm(z_new - z) <= tol * max(1.0, np.linalg.norm(z))
        z = z_new
        if converged:
            break
    # dual points: the unit residuals, with the member nearest to z taking up
    # their imbalance (exact when the median sits on that member)
    R = points - z
    dist = np.linalg.norm(R, axis=1)
    Y = np.divide(R, dist[:, None], out=np.zeros_like(R), where=dist[:, None] > 0)
    k = int(np.argmin(dist))
    Y[k] = 0.0
    Y[k] = -Y.sum(axis=0)
    return z, float(np.mean(dist)) - _dual_gap(R, Y, 1.0, 2.0), it


# -- the interior-point solver for theta ----------------------------------------

THETA_TOL = 1e-10  # relative duality gap at which the solver stops
_MU = 20.0  # growth of the barrier weight per centring
_CENTRED = 1e-14  # half the squared Newton decrement of a centred point
_MAX_NEWTON = 50  # Newton steps one centring may take before the solver gives up
_MAX_STEPS = 600  # Newton steps in all
_DUAL_Q = {1.0: np.inf, 2.0: 2.0, np.inf: 1.0}


@dataclass(frozen=True)
class ThetaCertificate:
    """How close theta is to the minimum of f(z) = (1/N) Σ_n ‖x_n - z‖^p.

    ``gap`` is an upper bound on ``objective - min f``; ``iterations`` counts
    Newton steps (Weiszfeld steps at p = 1, q = 2; 0 for the exact forms).
    """

    objective: float
    gap: float
    iterations: int


def _q_norms(rows: np.ndarray, q: float) -> np.ndarray:
    return vector_norms(rows, NormSpec(q=q))


def _dual_gap(R: np.ndarray, Y: np.ndarray, p: float, q: float) -> float:
    """Upper bound on f(z) - min f from dual points ``Y``, one per member.

    With h = ‖·‖_q^p, any y_n summing to zero give the Fenchel lower bound
    (1/N) Σ_n (⟨y_n, x_n⟩ - h*(y_n)) ≤ min f, where
    h*(y) = (p-1) (‖y‖_q*/p)^(p/(p-1)) and, at p = 1, h* is the indicator of
    the dual-norm unit ball. ``Y`` is centred to sum to zero (and at p = 1
    scaled into that ball); the bound's distance to f(z) is then the mean
    Fenchel-Young residual h(r_n) + h*(y_n) - ⟨y_n, r_n⟩ over the residuals
    R = x_n - z, a sum of nonnegative terms.
    """
    Y = Y - Y.mean(axis=0)
    dual = _q_norms(Y, _DUAL_Q[q])
    if p == 1.0:
        Y = Y / max(1.0, float(dual.max()))
        conj = 0.0
    else:
        with np.errstate(over="ignore"):  # far from the centre: a useless, infinite gap
            conj = (p - 1.0) * (dual / p) ** (p / (p - 1.0))
    terms = _q_norms(R, q) ** p + conj - np.einsum("ij,ij->i", Y, R)
    return max(0.0, math.fsum(terms) / R.shape[0])


def _solve_psd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for the symmetric positive semidefinite Schur complement
    ``A`` by Cholesky, dropping pivots lost to rounding.

    A pivot below d·eps of the largest diagonal entry marks a direction
    whose curvature rounding has erased; it gets no step (x_j = 0) instead
    of a huge or indefinite one (Wright, "Modified Cholesky factorizations in
    interior-point algorithms for linear programming", 1999). Plain numpy,
    no LAPACK call.
    """
    d = A.shape[0]
    L = np.zeros_like(A)
    tiny = d * np.finfo(float).eps * float(A.diagonal().max())
    keep = np.zeros(d, dtype=bool)
    for j in range(d):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if pivot > tiny:
            keep[j] = True
            L[j, j] = math.sqrt(pivot)
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    y = np.zeros(d)
    for j in np.flatnonzero(keep):
        y[j] = (b[j] - L[j, :j] @ y[:j]) / L[j, j]
    x = np.zeros(d)
    for j in np.flatnonzero(keep)[::-1]:
        x[j] = (y[j] - L[j + 1 :, j] @ x[j + 1 :]) / L[j, j]
    return x


def _exclusive_sums(A: np.ndarray) -> np.ndarray:
    """Σ_{j≠i} A[:, j] for every column i, by prefix and suffix sums (no
    subtraction, so a dominant entry does not swamp the others)."""
    out = np.zeros_like(A)
    out[:, 1:] = np.cumsum(A[:, :-1], axis=1)
    out[:, :-1] += np.cumsum(A[:, :0:-1], axis=1)[:, ::-1]
    return out


# Each Newton step below takes the residuals R = x_n - z, the member bounds t,
# the slacks S and the first and second derivatives (grad, curv) of the
# weighted objective (τ/N) t_n^p. It eliminates each member's own variables
# (t_n, and u_n at q = 1, which only the slacks need) in closed form, solves
# the d×d system for dz, and returns (dz, dt, change, dual, lam2): change(α)
# is the relative change of every slack along the step, dual = ∂φ/∂r (φ the
# member barriers), lam2 the squared Newton decrement. Curvatures are formed
# from slack ratios (4ab/(a+b), not (a+b) - (a-b)²/(a+b)), so the nearly
# active slacks of a well-centred point do not cancel each other.


def _step_max(R, t, S, grad, curv):
    """q = ∞: slacks s⁺ = t - r_i and s⁻ = t + r_i."""
    d = R.shape[1]
    ip, im = 1.0 / S[:, :d], 1.0 / S[:, d:]
    a, b = ip * ip, im * im
    sig, c = a + b, a - b
    W = sig.sum(axis=1) + curv
    diag = (sig * (_exclusive_sums(sig) + curv[:, None]) + 4.0 * a * b) / W[:, None]
    schur = -(c / W[:, None]).T @ c
    schur[np.diag_indices(d)] = diag.sum(axis=0)
    g_t = grad - (ip + im).sum(axis=1)
    g_z = (im - ip).sum(axis=0)
    dz = _solve_psd(schur, (c * (g_t / W)[:, None]).sum(axis=0) - g_z)
    dt = -(g_t + c @ dz) / W
    ratio = np.concatenate([(dt[:, None] + dz) * ip, (dt[:, None] - dz) * im], axis=1)
    return dz, dt, lambda alpha: alpha * ratio, ip - im, -(g_t @ dt + g_z @ dz)


def _step_sum(R, t, S, grad, curv):
    """q = 1: slacks s⁺ = u_i - r_i, s⁻ = u_i + r_i and s0 = t - Σ_i u_i."""
    d = R.shape[1]
    sp, sm, s0 = S[:, :d], S[:, d : 2 * d], S[:, 2 * d]
    sp2, sm2 = sp * sp, sm * sm
    harm = 4.0 / (sp2 + sm2)  # 4ab/(a+b), a = 1/s⁺², b = 1/s⁻²
    rho = (sm2 - sp2) / (sp2 + sm2)  # (a-b)/(a+b)
    inv_sig = sp2 * sm2 / (sp2 + sm2)
    # t enters only through s0 and the objective; eliminating it leaves the
    # weight c0' on (Σ du)² and the shifted linear term eta on each u_i
    c0p = curv / (1.0 + curv * s0 * s0)
    eta = (curv * s0 + grad) / (1.0 + curv * s0 * s0)
    gam = (eta[:, None] * sp2 * sm2 - sp * sm * (sp + sm)) / (sp2 + sm2)  # (g_u + β)/σ
    den = 1.0 + c0p * inv_sig.sum(axis=1)
    kap = c0p / den
    g_sum = gam.sum(axis=1)
    schur = (rho * kap[:, None]).T @ rho
    schur[np.diag_indices(d)] += harm.sum(axis=0)
    r = 0.5 * (sm - sp)
    rhs = -(harm * r - rho * eta[:, None] + (kap * g_sum)[:, None] * rho).sum(axis=0)
    dz = _solve_psd(schur, rhs)
    du_sum = -(g_sum + rho @ dz) / den
    du = -gam - (c0p * du_sum)[:, None] * inv_sig - rho * dz
    g_t = grad - 1.0 / s0
    dt = (du_sum - g_t * s0 * s0) / (1.0 + curv * s0 * s0)
    ip, im = 1.0 / sp, 1.0 / sm
    g_u = 1.0 / s0[:, None] - ip - im
    lam2 = -(g_t @ dt + float(np.sum(g_u * du)) + (im - ip).sum(axis=0) @ dz)
    ratio = np.concatenate([(du + dz) * ip, (du - dz) * im,
                            ((dt - du.sum(axis=1)) / s0)[:, None]], axis=1)
    return dz, dt, lambda alpha: alpha * ratio, ip - im, lam2


def _step_euclid(R, t, S, grad, curv):
    """q = 2: the cone slack s = t² - ‖r‖², barrier -log s."""
    d = R.shape[1]
    s = S[:, 0]
    nr2 = np.einsum("ij,ij->i", R, R)
    nr = np.sqrt(nr2)
    rhat = np.divide(R, nr[:, None], out=np.zeros_like(R), where=nr[:, None] > 0)
    den = 2.0 * t * t + 2.0 * nr2 + curv * s * s
    h_tt = den / (s * s)
    h_tz = 4.0 * t[:, None] * R / (s * s)[:, None]
    # 2I/s + 4rrᵀ/s² - h_tz h_tzᵀ/h_tt, written as 2(I - r̂r̂ᵀ)/s + λ_r r̂r̂ᵀ
    lam_r = (4.0 + 2.0 * curv * s + 4.0 * curv * nr2) / den
    schur = (rhat * (lam_r - 2.0 / s)[:, None]).T @ rhat
    schur[np.diag_indices(d)] += (2.0 / s).sum()
    g_t = grad - 2.0 * t / s
    g_z = -2.0 * (R / s[:, None]).sum(axis=0)
    dz = _solve_psd(schur, (h_tz * (g_t / h_tt)[:, None]).sum(axis=0) - g_z)
    dt = -(g_t + h_tz @ dz) / h_tt
    lin = 2.0 * (t * dt + R @ dz) / s
    quad = (dt * dt - dz @ dz) / s
    change = lambda alpha: (alpha * lin + alpha * alpha * quad)[:, None]  # noqa: E731
    return dz, dt, change, 2.0 * R / s[:, None], -(g_t @ dt + g_z @ dz)


def _line_search(change, t, dt, weight, p, lam2):
    """Backtracking from the full step until every slack stays positive and the
    barrier function falls enough; returns (α, relative slack change) or None.

    The change in the barrier function is summed from log1p of the slack
    ratios and expm1/log1p of t^p, so a tiny decrease is not lost to
    cancellation between two large function values.
    """
    alpha = 1.0
    for _ in range(60):
        rel, tr = change(alpha), alpha * dt / t
        if rel.min() > -1.0 and tr.min() > -1.0:
            gain = weight * math.fsum(t**p * np.expm1(p * np.log1p(tr)))
            if gain - math.fsum(np.log1p(rel).ravel()) <= -0.25 * alpha * lam2:
                return alpha, rel
        alpha *= 0.5
    return None


def _interior_point(P: np.ndarray, p: float, q: float) -> tuple:
    """Barrier method (Boyd & Vandenberghe 2004, ch. 11) for
    min_z (1/N) Σ_n ‖x_n - z‖_q^p, p ≥ 1, in epigraph form:

        min (1/N) Σ_n t_n^p  s.t.  t_n ≥ ±(x_ni - z_i)              (q = ∞)
                                   u_ni ≥ ±(x_ni - z_i), t_n ≥ Σ_i u_ni  (q = 1)
                                   t_n ≥ ‖x_n - z‖₂                 (q = 2)

    Every member has the same constraint rows, so each Newton step eliminates
    the members' own variables (t_n, u_n) in closed form and solves one d×d
    system for z: O(N d²) per step, with no loop over members. Slacks are
    tracked multiplicatively, keeping their relative precision when they are
    far smaller than the data.

    Stops when the Fenchel bound of ``_dual_gap``, built from the barrier
    multipliers, is within ``THETA_TOL`` of the objective, or when raising the
    barrier weight no longer shrinks it. Returns the best point found, the best
    lower bound on min f and the number of Newton steps.
    """
    n, d = P.shape
    centre = P.mean(axis=0)
    scale = float(np.abs(P - centre).max())
    if scale == 0.0:
        return P[0].copy(), 0.0, 0
    X = (P - centre) / scale
    z = np.zeros(d)
    if q == np.inf:
        step, t = _step_max, np.abs(X).max(axis=1) + 0.5
        S = np.concatenate([t[:, None] - X, t[:, None] + X], axis=1)
    elif q == 1:
        step, u = _step_sum, np.abs(X) + 0.5
        t = u.sum(axis=1) + 0.5
        S = np.concatenate([u - X, u + X, (t - u.sum(axis=1))[:, None]], axis=1)
    else:
        step, t = _step_euclid, np.sqrt(np.einsum("ij,ij->i", X, X)) + 0.5
        S = (t * t - np.einsum("ij,ij->i", X, X))[:, None]
    degree = S.size if q != 2 else 2 * n  # the cone barrier has degree 2
    tau = degree / float(np.mean(t**p))
    best_f, best_z, lower = math.inf, z, -math.inf
    steps, last_gap, idle = 0, math.inf, 0
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            while steps < _MAX_STEPS and idle < 2:
                for _ in range(_MAX_NEWTON):
                    steps += 1
                    R = X - z
                    grad = tau * p * t ** (p - 1.0) / n
                    curv = tau * p * (p - 1.0) * t ** (p - 2.0) / n
                    dz, dt, change, dual, lam2 = step(R, t, S, grad, curv)
                    f = float(np.mean(_q_norms(R, q) ** p))
                    gap = _dual_gap(R, (n / tau) * dual, p, q)
                    if f < best_f:
                        best_f, best_z = f, z
                    lower = max(lower, f - gap)
                    if best_f - lower <= THETA_TOL * best_f or lam2 <= 2.0 * _CENTRED:
                        break
                    found = _line_search(change, t, dt, tau / n, p, lam2)
                    if found is None:  # as centred as rounding allows
                        break
                    alpha, rel = found
                    z, t, S = z + alpha * dz, t + alpha * dt, S * (1.0 + rel)
                else:
                    break  # centring did not converge: stop at this weight
                if best_f - lower <= THETA_TOL * best_f:
                    break
                if gap < 0.5 * last_gap:
                    last_gap, idle = gap, 0
                else:
                    idle += 1
                tau *= _MU
    except (FloatingPointError, np.linalg.LinAlgError):
        pass  # the Newton system broke down; keep the best certified point
    return centre + scale * best_z, lower * scale**p, steps


def _theta(X: np.ndarray, norm: NormSpec) -> tuple:
    """(θ, lower bound on min f or None when θ is exact, iterations) for a set
    of at least two members."""
    if norm.p < 1:
        raise UsageError(
            "optimal map for p < 1 is unsupported (objective is non-convex)"
        )
    mean = X.mean(axis=0)
    if norm.mask is not None:
        norm.check_dim(X.shape[1])
    if norm.p == 2 and norm.q == 2:
        return mean, None, 0
    P = X if norm.mask is None else X[:, norm.mask]
    lower, iterations = None, 0
    if norm.p == 1 and norm.q == 1:
        z = np.median(P, axis=0)
    elif norm.p == 1 and norm.q == 2:
        z, lower, iterations = _weiszfeld(P)
    else:
        z, lower, iterations = _interior_point(P, norm.p, norm.q)
    if norm.mask is not None:
        full = mean.copy()
        full[norm.mask] = z
        z = full
    return z, lower, iterations


def optimal_map_value(members, norm: NormSpec, certificate: bool = False):
    """Minimizer θ of f(z) = (1/N) Σ_n ‖x_n - z‖^p over the members of one set.

    Which solver runs depends on (p, q):

    * p = q = 2: the coordinate mean (exact);
    * p = q = 1: the coordinatewise median (exact);
    * p = 1, q = 2: Weiszfeld's geometric median;
    * any other p ≥ 1: the interior-point method of ``_interior_point``, to a
      relative duality gap of ``THETA_TOL``.

    Coordinates outside the norm's mask are copied from the member mean. With
    ``certificate=True`` returns ``(θ, ThetaCertificate)``: f(θ), an upper
    bound on f(θ) - min f (0 for the exact forms and a single member) and
    the solver's iteration count.
    """
    X = np.atleast_2d(np.asarray(members, dtype=np.float64))
    if X.shape[0] == 0:
        raise UsageError("optimal_map_value needs at least one member")
    z, lower, iterations = _theta(X, norm) if X.shape[0] > 1 else (X[0].copy(), None, 0)
    if not certificate:
        return z
    objective = float(np.mean(vector_norms(X - z, norm) ** norm.p))
    gap = 0.0 if lower is None else max(0.0, objective - lower)
    return z, ThetaCertificate(objective, gap, iterations)


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
        return asdict(self)


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
    theta, certificates = {}, {}
    for e in c.entries:
        if e.count > 0:
            theta[e.id], certificates[e.id] = optimal_map_value(e.members, norm, certificate=True)
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
