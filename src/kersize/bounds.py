"""Average kernel size, the per-measurement optimal map, and bound reports.

The average kernel size of a feasible-set collection is

    ( (1/K) Σ_k (1/N(k)^2) Σ_{n,n'} ‖x_{k,n} - x_{k,n'}‖^p )^(1/p)

summing over ordered member pairs (the diagonal contributes zero); empty sets
contribute zero. Half of it lower-bounds the loss of every reconstruction map
on the derived dataset; the per-set minimizer of the mean p-th-power distance
attains the infimum, giving the upper half of the sandwich.

Pairwise sums are evaluated in fixed-size blocks with exact (fsum) reduction
across blocks, so reports are reproducible bit for bit.
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
        if p == 2.0:
            return sq
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
    """Sum of ‖x_n - x_n'‖^p over unordered member pairs."""
    X = np.asarray(members, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        return 0.0
    if norm.mask is not None:
        norm.check_dim(X.shape[1])
        X = X[:, norm.mask]
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


def _weiszfeld(points: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Geometric median by Weiszfeld iteration.

    Ties at data points are handled by the standard epsilon-perturbation of
    the inverse-distance weights.
    """
    z = points.mean(axis=0)
    scale = max(1.0, float(np.abs(points).max()))
    tie_eps = 1e-15 * scale
    for _ in range(max_iter):
        dist = np.linalg.norm(points - z[None, :], axis=1)
        w = 1.0 / np.maximum(dist, tie_eps)
        z_new = (points * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(z_new - z) <= tol * max(1.0, np.linalg.norm(z)):
            return z_new
        z = z_new
    return z


def _q_subgradient(r: np.ndarray, q) -> np.ndarray:
    if q == 2:
        nrm = np.linalg.norm(r)
        return r / nrm if nrm > 0 else np.zeros_like(r)
    if q == 1:
        return np.sign(r)
    g = np.zeros_like(r)
    if r.size:
        i = int(np.argmax(np.abs(r)))
        g[i] = np.sign(r[i])
    return g


def _subgradient_descent(points: np.ndarray, p: float, q,
                         tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Projected subgradient descent on z -> (1/N) Σ ‖x_n - z‖_q^p, p >= 1.

    The minimizer lives in a ball around the member mean (the objective only
    grows outside it), which the iterates are projected onto.
    """
    center = points.mean(axis=0)
    radius = 2.0 * max(float(np.linalg.norm(points - center[None, :], axis=1).max()), 1e-30)

    def objective(z):
        return float(np.mean(vector_norms(points - z[None, :], NormSpec(p=2, q=q)) ** p))

    z = center.copy()
    best, best_f = z.copy(), objective(z)
    for t in range(max_iter):
        g = np.zeros_like(z)
        for x in points:
            r = z - x
            nrm_q = float(vector_norms(r[None, :], NormSpec(p=2, q=q))[0])
            if nrm_q > 0:
                g += p * nrm_q ** (p - 1.0) * _q_subgradient(r, q)
        g /= points.shape[0]
        gn = np.linalg.norm(g)
        if gn == 0.0:
            return z
        step = radius / ((t + 1) ** 0.5 * gn)
        z_new = z - step * g
        off = z_new - center
        off_n = np.linalg.norm(off)
        if off_n > radius:
            z_new = center + off * (radius / off_n)
        f_new = objective(z_new)
        if f_new < best_f:
            best, best_f = z_new.copy(), f_new
        if np.linalg.norm(z_new - z) <= tol * max(1.0, np.linalg.norm(z)):
            return best
        z = z_new
    return best


def optimal_map_value(members, norm: NormSpec) -> np.ndarray:
    """Minimizer of z -> (1/N) Σ_n ‖x_n - z‖^p over the members of one set.

    Closed form for p = 2 with the q = 2 inner norm (the coordinate mean);
    Weiszfeld's geometric median for p = 1, q = 2; projected subgradient
    descent otherwise (p >= 1). Coordinates outside the norm's mask are
    copied from the member mean.
    """
    X = np.atleast_2d(np.asarray(members, dtype=np.float64))
    if X.shape[0] == 0:
        raise UsageError("optimal_map_value needs at least one member")
    if X.shape[0] == 1:
        return X[0].copy()
    if norm.p < 1:
        raise UsageError(
            "optimal map for p < 1 is unsupported (objective is non-convex)"
        )
    mean = X.mean(axis=0)
    if norm.mask is not None:
        norm.check_dim(X.shape[1])
        P = X[:, norm.mask]
    else:
        P = X
    if norm.p == 2 and norm.q == 2:
        return mean
    if norm.p == 1 and norm.q == 2:
        z_masked = _weiszfeld(P)
    else:
        z_masked = _subgradient_descent(P, norm.p, norm.q)
    z = mean.copy()
    if norm.mask is not None:
        z[norm.mask] = z_masked
    else:
        z = z_masked
    return z


@dataclass
class MeasurementReport:
    """Per-measurement bound data: the K = 1 restriction of the kernel size
    plus every map's loss restricted to this measurement."""

    id: str
    n_k: int
    v_k: float
    half_kersize_single: float
    losses: dict = field(default_factory=dict)

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
    theta = {e.id: optimal_map_value(e.members, norm) for e in c.entries if e.count > 0}
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
