"""Domain types, the evaluation pseudo-norm, the empirical loss, and dataset containers.

Signals and measurements are plain 1-D float64 numpy arrays; the containers
below validate and freeze them. All types are immutable after construction and
all operations are pure functions, so everything here is safe to share across
threads. Every row norm (of a loss, a kernel component or a
``forward.NoiseSpec`` noise ball) is taken by ``vector_norms``, whose l2
branch rescues a sum of squares that overflows; every checked p-th power
by ``norm_powers`` and every exact sum by ``exact_sum``: a value past the
float64 range raises DataError, never a RuntimeWarning or an infinite result.

Per-set quantities are computed over all sets at once. ``Sets`` is the row
layout of non-empty sets stacked into one array. A collection stacks its
members in it once (``FeasibleSetCollection.stacked``), and a
``PairedDataset`` groups its pairs into it once, at construction, so both
give ``set_losses`` the same ``stacked`` triple. Per-set means, medians and
sorts (``Sets.reduce``, ``Sets.centres``) group the sets by size and let
numpy reduce each group's (G, s, ...) stack over its set axis: numpy
reduces every set of such a stack in the order it reduces the set alone, so
each set gets the same bits, which a reduceat sum over the stacked rows does
not give. ``set_losses`` and ``loss`` take each map's p-th powers
``vector_norms(...) ** p`` for all rows in one pass, leave an overflowing
power infinite for the set it fails, sum each set exactly, and raise the
error of the first failing set, in collection order, that a per-set loop
would raise.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "UsageError",
    "DataError",
    "NormSpec",
    "FeasibleSet",
    "FeasibleSetCollection",
    "PairedDataset",
    "as_vector",
    "p_dist",
    "check_keys",
    "nullable",
    "whole",
    "Sets",
    "set_losses",
    "power_mean",
    "loss",
    "dataset_from_collection",
    "collection_from_dataset",
]


class UsageError(ValueError):
    """A call violated an operation's contract (bad arguments, bad config)."""


class DataError(ValueError):
    """Input data violated an invariant (missing prediction, malformed file)."""


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, read-only."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise UsageError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DataError(f"{name} contains non-finite entries")
    v = v.copy()
    v.setflags(write=False)
    return v


def _empty_ok_matrix(values, name: str) -> np.ndarray:
    m = np.asarray(values, dtype=np.float64)
    if m.ndim == 1 and m.size == 0:
        m = m.reshape(0, 0)
    if m.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise DataError(f"{name} contains non-finite entries")
    m = m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Evaluation pseudo-norm on signal space plus the loss exponent.

    ``q`` is the inner coordinate-norm exponent (1, 2 or inf), ``mask`` an
    optional 0/1 coordinate projection (None means all coordinates), and ``p``
    the loss exponent. With an all-ones mask and q = 2 this is the standard
    Euclidean norm.
    """

    p: float = 2.0
    q: float = 2.0
    mask: np.ndarray | None = None

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise UsageError(f"p must be a positive real, got {self.p}")
        if self.q not in (1, 2, np.inf):
            raise UsageError(f"q must be 1, 2 or inf, got {self.q}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        if self.mask is not None:
            m = np.asarray(self.mask)
            if m.ndim != 1 or not np.all(np.isin(m, (0, 1))):
                raise UsageError("mask must be a 1-D 0/1 vector")
            if not m.any():
                raise UsageError("mask must select at least one coordinate")
            m = m.astype(bool)
            m.setflags(write=False)
            object.__setattr__(self, "mask", m)

    def check_dim(self, d: int) -> None:
        if self.mask is not None and self.mask.shape[0] != d:
            raise UsageError(
                f"mask length {self.mask.shape[0]} does not match dimension {d}"
            )

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": "inf" if self.q == np.inf else self.q,
            "mask": None if self.mask is None else self.mask.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "NormSpec":
        d = check_keys(d, [f.name for f in fields(cls)], "norm", {"p": float})
        q = d.get("q", 2)
        if q in ("inf", "Inf", "infinity"):
            q = np.inf
        return cls(p=d.get("p", 2.0), q=q, mask=d.get("mask"))


def check_keys(doc, allowed, where: str, convert: Mapping | None = None,
               required=()) -> dict:
    """Copy of the JSON object ``doc`` with ``convert[key]`` applied to its values.

    A non-object, a key outside ``allowed``, a missing ``required`` key or a
    value its converter rejects raises DataError. Converters are plain type
    coercions (``whole``, ``float``, ``np.asarray``), so what is caught here
    is never a constructor's UsageError.
    """
    if not isinstance(doc, Mapping):
        raise DataError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise DataError(f"{where}: unknown keys {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise DataError(f"{where} lacks {missing}")
    out = dict(doc)
    for key, fn in (convert or {}).items():
        if key in out:
            try:
                out[key] = fn(out[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{where}.{key}: {exc}") from None
    return out


def nullable(convert):
    """A ``check_keys`` converter that passes null (None) through."""
    return lambda value: None if value is None else convert(value)


def whole(value) -> int:
    """A ``check_keys`` converter for an integer field: a whole number of
    magnitude at most 2^53, where every integer is a float, so 2.5, 1e20 or
    an infinity is refused rather than truncated or overflowed."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a whole number, got {value!r}")
    try:
        n = operator.index(value)
    except TypeError:
        f = float(value)
        if not f.is_integer():
            raise ValueError(f"{value!r} is not a whole number") from None
        n = int(f)
    if abs(n) > 2**53:
        raise ValueError(f"{value!r} is out of range (above 2^53 in magnitude)")
    return n


def vector_norms(diffs: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Masked q-norms of the rows of ``diffs`` (shape (n, d) -> (n,)); a norm
    past the float64 range is +inf, with no warning, for the caller to report.
    At q = 2 an infinite norm of a finite row, whose sum of squares
    overflowed, is taken again from the row scaled by its largest entry; every
    other norm keeps its bits."""
    d = np.atleast_2d(diffs)
    if norm.mask is not None:
        norm.check_dim(d.shape[1])
        d = d[:, norm.mask]
    if norm.q == 2:  # squares need no absolute values
        norms = np.sqrt(np.einsum("ij,ij->i", d, d))
        big = np.isinf(norms)
        if big.any():
            big &= np.isfinite(d).all(axis=1)
            top = np.abs(d[big]).max(axis=1)
            with np.errstate(over="ignore"):  # a norm past the float range stays inf
                norms[big] = top * np.sqrt(((d[big] / top[:, None]) ** 2).sum(axis=1))
        return norms
    d = np.abs(d)
    if norm.q == 1:
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            return d.sum(axis=1)
    return d.max(axis=1) if d.shape[1] else np.zeros(d.shape[0])


def p_dist(a, b, norm: NormSpec) -> float:
    """Pseudo-distance ``‖a - b‖`` under the masked inner q-norm.

    Symmetric and zero exactly when the masked coordinates agree; a
    pseudo-metric because unmasked coordinates are invisible to it. A
    distance past the float64 range raises DataError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError(f"p_dist needs equal-length vectors, got {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # an infinite difference is reported just below
        dist = float(vector_norms((a - b)[None, :], norm)[0])
    if math.isinf(dist):
        raise DataError("the distance overflows float64")
    return dist


def norm_powers(norms: np.ndarray, p: float, what: str) -> np.ndarray:
    """``norms ** p``. A power past the float64 range raises
    DataError("<what> overflows float64") instead of a RuntimeWarning."""
    with np.errstate(over="ignore"):  # reported just below
        powers = norms**p
    if not np.isfinite(powers).all():
        raise DataError(f"{what} overflows float64")
    return powers


def distance_powers(a, b, norm: NormSpec, what: str) -> np.ndarray:
    """``‖a - b‖^p`` for each row of the broadcast difference ``a - b`` (shape
    (..., d) -> (...)), through ``vector_norms`` and ``norm_powers``. A
    difference or power past the float64 range raises
    DataError("<what> overflows float64") instead of a RuntimeWarning."""
    with np.errstate(over="ignore"):  # an infinite difference has an infinite power
        diff = np.subtract(a, b)
    rows = diff.shape[:-1]
    norms = vector_norms(diff.reshape(math.prod(rows), diff.shape[-1]), norm)
    return norm_powers(norms, norm.p, what).reshape(rows)


def exact_sum(values, what: str) -> float:
    """``math.fsum`` of ``values`` (Python floats). A sum past the float64
    range, or a value outside it, raises DataError("<what> overflows float64")."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate sum past the range; inf - inf
        total = math.inf
    if not math.isfinite(total):
        raise DataError(f"{what} overflows float64")
    return total


def member_centre(members: np.ndarray, reduce, axis: int = 0) -> np.ndarray:
    """``reduce(members, axis=axis)`` (np.mean or np.median) over a non-empty
    axis, without overflow: the rows of one (n, d) set, or axis 1 of a
    (G, n, d) stack of sets of one size. An entry that leaves the float64
    range is reduced again from its members scaled by a power of two no
    smaller than 2n, which is exact in the normal range. Every other entry
    keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):  # recomputed just below
        out = reduce(members, axis=axis)
    big = ~np.isfinite(out)
    if big.any():
        shift = math.frexp(members.shape[axis])[1] + 1
        cols = big.reshape(-1, big.shape[-1]).any(axis=0)
        again = np.ldexp(reduce(np.ldexp(members[..., cols], -shift), axis=axis), shift)
        out[big] = again[big[..., cols]]
    return out


class Sets:
    """Row layout of non-empty sets stacked into one array: set k owns the
    ``n[k]`` rows from ``starts[k]`` on, and ``sid`` maps each row to its set.

    ``sums`` (np.add.reduceat) and ``fsums`` (exact) run over the rows of all
    sets at once. ``reduce`` groups the sets by size and applies a numpy
    function over the set axis of each group's (G, s, ...) stack. numpy
    reduces each set of such a stack the same way, bit for bit, as the set
    alone, which reduceat does not: a set's reduceat sum divided by n differs
    from its ``np.mean`` in the last bit on most random sets.
    """

    def __init__(self, sizes):
        self.n = np.asarray(sizes, dtype=np.intp)
        stops = np.cumsum(self.n)
        self.starts = stops - self.n
        self.sid = np.repeat(np.arange(self.n.size), self.n)
        self.bounds = list(zip(self.starts.tolist(), stops.tolist()))

    @functools.cached_property
    def _groups(self) -> list:
        """(set indices (G,), row indices (G, s)) for each set size s."""
        sizes, which = np.unique(self.n, return_inverse=True)
        groups = []
        for g, s in enumerate(sizes.tolist()):
            ks = np.flatnonzero(which == g)
            groups.append((ks, self.starts[ks, None] + np.arange(s)))
        return groups

    def sums(self, A: np.ndarray) -> np.ndarray:
        """Per-set sums of the rows of A."""
        return np.add.reduceat(A, self.starts, axis=0)

    def reduce(self, A: np.ndarray, fn) -> np.ndarray:
        """``fn(rows, axis=0)`` for each set's rows of A, with the bits of that
        call: ``fn(stack, axis=1)`` on each size group's stack. A reduction
        (np.mean, np.median, np.sum) gives one row per set, (K, ...); np.sort
        gives A's shape, each set's rows sorted in place."""
        out = None
        for ks, rows in self._groups:
            r = fn(A[rows], axis=1)
            sorts = r.ndim > A.ndim
            if out is None:
                out = np.empty(A.shape if sorts else (self.n.size, *r.shape[1:]), r.dtype)
            out[rows if sorts else ks] = r
        return np.empty((0, *A.shape[1:])) if out is None else out

    def centres(self, A: np.ndarray, reduce) -> np.ndarray:
        """``member_centre`` of each set's rows of A, shape (K, d)."""
        return self.reduce(A, functools.partial(member_centre, reduce=reduce))

    def fsums(self, A: np.ndarray, which: np.ndarray | None = None) -> np.ndarray:
        """Exact sum (math.fsum) of every entry of each set's rows of A, for
        the sets chosen by the mask ``which`` (all by default): +inf where it
        overflows, NaN where it is undefined or not chosen."""
        w = A[0].size
        values = A.ravel().tolist()
        out = [math.nan] * self.n.size
        for k in range(self.n.size) if which is None else np.flatnonzero(which).tolist():
            a, b = self.bounds[k]
            try:
                out[k] = math.fsum(values[a * w : b * w])
            except OverflowError:
                out[k] = math.inf
            except ValueError:  # inf - inf
                pass
        return np.array(out)


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """One measurement and the sampled signals mapping onto it."""

    id: str
    measurement: np.ndarray  # (d2,)
    members: np.ndarray  # (n, d1); n may be 0

    def __post_init__(self):
        object.__setattr__(self, "measurement", as_vector(self.measurement, "measurement"))
        m = np.asarray(self.members, dtype=np.float64)
        if m.ndim == 1:
            m = m.reshape(0, 0) if m.size == 0 else m[None, :]
        if m.ndim != 2:
            raise UsageError(f"members must be a 2-D array, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DataError(f"feasible set {self.id!r} has non-finite members")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @property
    def count(self) -> int:
        return self.members.shape[0]


@dataclass(frozen=True, eq=False)
class FeasibleSetCollection:
    """K measurements with their sampled feasible sets (the output shape of
    the feasible-set approximation step)."""

    d1: int
    d2: int
    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) == 0:
            raise UsageError("a collection needs at least one measurement")
        seen = set()
        for e in entries:
            if e.id in seen:
                raise DataError(f"duplicate feasible-set id {e.id!r}")
            seen.add(e.id)
            if e.measurement.shape[0] != self.d2:
                raise DataError(f"set {e.id!r}: measurement length != d2={self.d2}")
            if e.count > 0 and e.members.shape[1] != self.d1:
                raise DataError(f"set {e.id!r}: member length != d1={self.d1}")
        object.__setattr__(self, "entries", entries)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def counts(self) -> tuple:
        return tuple(e.count for e in self.entries)

    @property
    def uniform(self) -> bool:
        """True iff every feasible set has the same number of members."""
        c = self.counts
        return len(set(c)) == 1

    @property
    def ids(self) -> tuple:
        return tuple(e.id for e in self.entries)

    @functools.cached_property
    def stacked(self) -> tuple:
        """``(sets, X, ids)``: the members of the non-empty sets stacked into
        one (M, d1) array X in collection order, their row layout (a
        ``Sets``) and their ids."""
        filled = [e for e in self.entries if e.count > 0]
        X = np.vstack([e.members for e in filled]) if filled else np.zeros((0, self.d1))
        return Sets([e.count for e in filled]), X, tuple(e.id for e in filled)


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """Flat list of (x, y) pairs with the index of the originating set.

    ``group_ids[group[m]]`` names the measurement pair m came from; all pairs
    in one group carry the identical measurement vector.

    The pairs are grouped once, at construction, by a stable sort by group:
    ``sets`` is the ``Sets`` layout of the groups present (ascending),
    ``order`` takes the pairs into it, keeping their order within a group,
    and ``present_ids`` names those groups. No sorted copy of x is kept.
    """

    x: np.ndarray  # (M, d1)
    y: np.ndarray  # (M, d2)
    group: np.ndarray  # (M,) int
    group_ids: tuple
    sets: Sets = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    present_ids: tuple = field(init=False, repr=False)

    def __post_init__(self):
        x = _empty_ok_matrix(self.x, "x")
        y = _empty_ok_matrix(self.y, "y")
        g = np.asarray(self.group, dtype=np.intp).copy()
        if x.shape[0] != y.shape[0] or x.shape[0] != g.shape[0]:
            raise UsageError("x, y and group must have one row per pair")
        if g.size and (g.min() < 0 or g.max() >= len(self.group_ids)):
            raise DataError("group index out of range")
        order = np.argsort(g, kind="stable")
        gs, ys = g[order], y[order]
        same_group = gs[1:] == gs[:-1]
        # equal consecutive rows per group imply a constant group
        bad = np.flatnonzero(same_group & np.any(ys[1:] != ys[:-1], axis=1))
        if bad.size:
            k = int(gs[bad[0]])
            raise DataError(f"pairs in group {self.group_ids[k]!r} disagree on the measurement")
        starts = np.flatnonzero(np.concatenate([[g.size > 0], ~same_group]))
        g.setflags(write=False)
        order.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "group", g)
        object.__setattr__(self, "group_ids", tuple(self.group_ids))
        object.__setattr__(self, "sets", Sets(np.diff(np.append(starts, g.size))))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "present_ids", tuple(self.group_ids[k] for k in gs[starts]))

    @property
    def size(self) -> int:
        return self.x.shape[0]

    @property
    def d1(self) -> int:
        return self.x.shape[1]

    @property
    def stacked(self) -> tuple:
        """``(sets, x[order], present_ids)``: the ``FeasibleSetCollection.stacked``
        triple of the groups, with x[order] built on each access."""
        return self.sets, self.x[self.order], self.present_ids


def dataset_from_collection(c: FeasibleSetCollection) -> PairedDataset:
    """Flatten a collection into (x, y) pairs, set-major then member order."""
    sets, x, _ = c.stacked
    filled = np.array([k for k, e in enumerate(c.entries) if e.count], dtype=np.intp)
    y = np.array([c.entries[k].measurement for k in filled.tolist()]).reshape(-1, c.d2)
    return PairedDataset(x=x, y=y[sets.sid], group=filled[sets.sid], group_ids=c.ids)


def collection_from_dataset(c: PairedDataset) -> FeasibleSetCollection:
    """Regroup a paired dataset into feasible sets, one per present group,
    slicing each group's members from x in turn."""
    if c.size == 0:
        raise DataError("dataset has no pairs to regroup")
    entries = tuple(
        FeasibleSet(id=i, measurement=c.y[c.order[a]], members=c.x[c.order[a:b]])
        for i, (a, b) in zip(c.present_ids, c.sets.bounds)
    )
    return FeasibleSetCollection(d1=c.x.shape[1], d2=c.y.shape[1], entries=entries)


def _stack_predictions(ids, d: int, predictions: Mapping, of_map: str) -> tuple:
    """``(Phi, k, error)``: the predictions for ``ids`` stacked, (k, d), up
    to the first set k whose prediction is missing (DataError), not of shape
    (d,) (UsageError) or not finite (DataError), with that error; k is
    len(ids) and error None when every prediction passes."""
    rows, error = [], None
    for i in ids:
        if i not in predictions:
            error = DataError(f"missing prediction for measurement {i!r}{of_map}")
            break
        phi = np.asarray(predictions[i], dtype=np.float64)
        if phi.shape != (d,):
            error = UsageError(f"prediction for {i!r}{of_map} has shape {phi.shape}, "
                               f"expected ({d},)")
            break
        rows.append(phi)
    k = len(rows)
    Phi = np.array(rows).reshape(k, d)
    bad = np.flatnonzero(~np.isfinite(Phi).all(axis=1))
    if bad.size:
        k = int(bad[0])
        error = DataError(f"prediction for {ids[k]!r}{of_map} is not finite")
    return Phi[:k], k, error


def _prediction_powers(sets: Sets, X: np.ndarray, ids, maps: Mapping, norm: NormSpec) -> tuple:
    """``‖x - φ‖^p`` for every row x of the stacked sets X (set k named
    ``ids[k]``) under each map's prediction φ for its set, one row per map,
    shape (J, M), and each map's first failing set with its error,
    ``(k, error)`` (``(K, None)`` where none fails). A set fails when its
    prediction is missing, of the wrong shape or not finite, or so far from a
    member that the p-th power overflows float64; the powers of a map's rows
    from its first failing set on are meaningless. Each map takes one pass
    over all rows, with one (M, d) temporary."""
    K, d = sets.n.size, X.shape[1]
    powers = np.empty((len(maps), X.shape[0]))
    failed = []
    for j, (name, predictions) in enumerate(maps.items()):
        of_map = "" if name is None else f" from map {name!r}"
        good, k, error = _stack_predictions(ids, d, predictions, of_map)
        Phi = np.zeros((K, d))
        Phi[:k] = good
        diff = Phi[sets.sid]
        with np.errstate(over="ignore"):  # an overflow fails its set, just below
            np.subtract(X, diff, out=diff)
            powers[j] = vector_norms(diff, norm) ** norm.p
        over = np.flatnonzero(~np.isfinite(powers[j]))
        if over.size and sets.sid[over[0]] < k:
            k = int(sets.sid[over[0]])
            error = DataError(f"loss of the prediction for {ids[k]!r}{of_map} overflows float64")
        failed.append((k, error))
    return powers, failed


def power_mean(powers: Sequence[np.ndarray], p: float) -> float:
    """``((1/n) Σ t)^(1/p)`` over the n p-th powers t in the arrays ``powers``,
    summed exactly (``exact_sum``), so the result does not depend on their
    order. A sum past the float64 range raises DataError."""
    n = sum(len(a) for a in powers)
    # fsum reads Python floats much faster than numpy scalars
    values = itertools.chain.from_iterable(np.asarray(a, dtype=np.float64).tolist() for a in powers)
    return (exact_sum(values, f"the sum of {n} p-th powers") / n) ** (1.0 / p)


def set_losses(sets: Sets, X: np.ndarray, ids, maps: Mapping[str, Mapping],
               norm: NormSpec) -> tuple:
    """Each map's loss on every stacked set and on all of them together.

    ``maps`` maps a name to per-set predictions keyed by the ids ``ids`` of
    the sets of X. Returns ``(per_set, total, powers)``: ``per_set[name]``
    lists the sets' losses ((1/n_k) Σ ‖x - φ‖^p)^(1/p), ``total[name]`` is
    the loss over all M rows (the ``loss`` value) and ``powers`` the (J, M)
    array of p-th powers in map order. Every power comes from one pass over
    all maps and rows, and every sum is exact.

    A fault raises the error of the first failing set in collection order
    and, within it, of the first failing map in ``maps`` order (a missing,
    misshapen or non-finite prediction, an overflowing power, then an
    overflowing set sum); a total past the float64 range raises for the
    first such map.
    """
    powers, failed = _prediction_powers(sets, X, ids, maps, norm)
    sums = []
    for j, (k_fail, _) in enumerate(failed):
        s = sets.fsums(powers[j], np.arange(sets.n.size) < k_fail)
        over = np.flatnonzero(np.isinf(s))
        if over.size:
            k = int(over[0])
            failed[j] = (k, DataError(f"the sum of {sets.n[k]} p-th powers overflows float64"))
        sums.append(s.tolist())
    k, j = min((k, j) for j, (k, _) in enumerate(failed))
    if k < sets.n.size:
        raise failed[j][1]
    n, root = sets.n.tolist(), 1.0 / norm.p
    per_set = {name: [(t / m) ** root for t, m in zip(s, n)] for name, s in zip(maps, sums)}
    total = {name: power_mean([pw], norm.p) for name, pw in zip(maps, powers)}
    return per_set, total, powers


def loss(dataset: PairedDataset, predictions: Mapping[str, Sequence], norm: NormSpec) -> float:
    """Empirical reconstruction loss ``((1/M) Σ ‖x_m - φ(y_m)‖^p)^(1/p)``.

    ``predictions`` assigns one signal estimate per measurement id present in
    the dataset. For p = 2 with the Euclidean norm this is the RMSE. All
    pairs are evaluated in one pass over the dataset's grouping; a fault
    raises the error of the first failing measurement in group order.
    """
    if dataset.size == 0:
        raise DataError("loss is undefined on an empty dataset")
    powers, ((_, error),) = _prediction_powers(*dataset.stacked, {None: predictions}, norm)
    if error is not None:
        raise error
    return power_mean([powers[0]], norm.p)
