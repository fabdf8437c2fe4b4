"""Feasible-set construction by sampling: grid enumeration, rejection
sampling, and a feasibility-constrained random walk.

Acceptance uses the forward model's exact closed-form feasibility predicate,
so a sample is kept iff some admissible noise maps it onto the measurement.
One chunked search serves the grid, rejection sampling and the random
walk's first point: it tests up to ``_CHUNK`` candidates per feasibility
call and keeps hits until it has enough or its budget is spent. The grid
feeds it lattice points in C order, the other two uniform draws of the
signal box. Sets for distinct measurements are built on independent RNG
streams keyed by (seed, k), which makes results identical across runs. The
random walks of all sets advance in lockstep. Each step tests a window of
each active chain's next proposals in one batched feasibility call, and a
chain takes its window up to its first accepted proposal; the proposals
after it were made from the old state and are proposed again from the new
one. So every chain moves as a one-proposal-at-a-time walk would, in fewer
calls when most proposals are rejected. With ``build_feasible_sets_many``
that one lockstep spans the sets of several jobs (samplers and measurement
lists) on the same model. Each job's sets are bit for bit those of its lone
``build_feasible_sets`` call, since a model's feasibility test decides each
row as its one-row call does (the row contract of ``ForwardModel``). Both
builders return collections, the one dataset type every bound takes; a
caller that wants flat (x, y) pairs calls ``core.dataset_from_collection``.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import (
    DataError,
    FeasibleSet,
    FeasibleSetCollection,
    UsageError,
    as_vector,
    check_keys,
    nullable,
    whole,
)
from .forward import ForwardModel

__all__ = [
    "SamplerSpec",
    "sample_feasible",
    "build_feasible_sets",
    "build_feasible_sets_many",
]

_CHUNK = 512
_BLOCK = 128  # random-walk proposals drawn per chain per RNG call, at most;
# also the widest window a chain can test in one step
_BLOCK_VALUES = 1 << 20  # cap on the buffered proposal values of all chains


def _whole(value, name: str) -> int:
    """``value`` as ``core.whole`` reads an integer field, or a UsageError
    naming the argument: 2.5, NaN, an infinity or a bool is refused."""
    try:
        return whole(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{name}: {exc}") from None


@dataclass(frozen=True, eq=False)
class SamplerSpec:
    """How to hunt for feasible signals.

    ``n_max`` caps the members kept per measurement, ``budget`` the proposals
    spent before giving up. ``step_scale`` is the per-coordinate proposal width
    of the random walk (None: a tenth of the signal box); ``grid_resolution``
    the per-coordinate point counts of the grid sampler. The integer fields
    are read as ``core.whole`` reads a config's: 3.0 is 3, while 2.5, NaN,
    an infinity or a bool is a ``UsageError``.
    """

    kind: str = "rejection"
    n_max: int = 100
    seed: int = 0
    budget: int | None = None
    step_scale: float | Sequence | None = None
    grid_resolution: Sequence | None = None
    burn_in: int = 0
    thinning: int = 1

    def __post_init__(self):
        if self.kind not in ("grid", "rejection", "random_walk"):
            raise UsageError(f"unknown sampler kind {self.kind!r}")
        for name in ("n_max", "seed", "burn_in", "thinning"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.budget is not None:
            object.__setattr__(self, "budget", _whole(self.budget, "budget"))
        if self.grid_resolution is not None:
            try:
                counts = tuple(_whole(n, "grid_resolution") for n in self.grid_resolution)
            except TypeError:  # not a sequence
                raise UsageError(
                    "grid_resolution must give a positive count per coordinate") from None
            object.__setattr__(self, "grid_resolution", counts)
        if self.n_max < 1:
            raise UsageError("n_max must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.budget is not None and self.budget < self.n_max:
            raise UsageError("budget must be >= n_max")
        if self.burn_in < 0 or self.thinning < 1:
            raise UsageError("burn_in must be >= 0 and thinning >= 1")
        if self.kind == "grid" and self.grid_resolution is None:
            raise UsageError("grid sampler needs grid_resolution")

    @property
    def effective_budget(self) -> int:
        return self.budget if self.budget is not None else max(200 * self.n_max, 1000)

    @classmethod
    def from_dict(cls, d) -> "SamplerSpec":
        """Sampler from its document; every field is optional."""
        return cls(**check_keys(d, [f.name for f in fields(cls)], "sampler", _SAMPLER_TYPES))


_SAMPLER_TYPES = {
    "n_max": whole, "seed": whole, "budget": nullable(whole), "burn_in": whole,
    "thinning": whole,
    "step_scale": nullable(lambda v: np.asarray(v, dtype=np.float64).tolist()),
    "grid_resolution": nullable(lambda v: [whole(n) for n in v]),
}


def _box(model: ForwardModel) -> np.ndarray:
    """The signal box, for a sampler that draws from it: one with an
    infinite side (the model of `kersize skersize --matrix`) has no uniform
    points or lattice."""
    b = model.signal_bounds
    if not np.isfinite(b).all():
        raise UsageError("signal_bounds has an infinite side, which a sampler cannot draw from")
    return b


def _grid_draw(model: ForwardModel, resolution) -> tuple:
    """The grid's (draw, size): ``draw(start, n)`` gives lattice points start
    to start + n - 1 of the signal box, in C order."""
    res = np.asarray(resolution, dtype=int)
    if res.shape != (model.d1,) or np.any(res < 1):
        raise UsageError("grid_resolution must give a positive count per coordinate")
    size = math.prod(int(n) for n in res)  # Python ints: no wrap past 2^63
    if size > np.iinfo(np.intp).max:
        raise UsageError(f"grid_resolution gives {size} lattice points, more than can be indexed")
    b = _box(model)
    axes = [np.linspace(b[i, 0], b[i, 1], res[i]) for i in range(model.d1)]

    def draw(start, n):
        idx = np.unravel_index(np.arange(start, start + n), res)
        return np.stack([axis[i] for axis, i in zip(axes, idx)], axis=1)

    return draw, size


def _uniform_draw(model: ForwardModel, rng):
    """``draw(start, n)``: n uniform points of the signal box from rng."""
    b = _box(model)
    return lambda start, n: rng.uniform(b[:, 0], b[:, 1], size=(n, model.d1))


def _search(model, y, draw, budget, n_target) -> tuple:
    """Keep the feasible candidates of ``draw`` until ``n_target`` are kept
    or ``budget`` candidates are spent, testing up to ``_CHUNK`` at a time in
    one ``feasible_batch`` call. Returns (members, spent); spent counts the
    candidates up to and including the last member kept, or all of them when
    fewer than ``n_target`` were found."""
    kept, n_kept, spent = [], 0, 0
    while spent < budget and n_kept < n_target:
        n = min(_CHUNK, budget - spent)
        pts = draw(spent, n)
        hit = np.flatnonzero(model.feasible_batch(pts, y))[:n_target - n_kept]
        kept.append(pts[hit])
        n_kept += hit.size
        spent += int(hit[-1]) + 1 if n_kept == n_target else n
    return (np.vstack(kept) if kept else np.zeros((0, model.d1))), spent


def _half_step(model, sampler) -> np.ndarray:
    """Per-coordinate half-width of the random walk's uniform proposals."""
    step = sampler.step_scale
    if step is None:
        b = _box(model)
        step = 0.1 * (b[:, 1] - b[:, 0])
    try:
        half = 0.5 * np.broadcast_to(np.asarray(step, dtype=np.float64), (model.d1,))
    except ValueError:
        raise UsageError(f"step_scale must be one number or d1={model.d1} numbers") from None
    if not (np.isfinite(half).all() and (half >= 0).all()):
        raise UsageError(f"step_scale must be finite and nonnegative, got {step!r}")
    return half


def _random_walks(model, Y, rngs, anchors, half, budget, n_target, burn_in, thinning,
                  labels=None) -> list:
    """Run one feasibility-constrained random walk per row of Y, in lockstep.

    Chain k starts at ``anchors[k]``, or, where that is None, at the first
    feasible point of a uniform search of the signal box. Its proposal
    half-widths are ``half[k]`` and its limits ``budget[k]``, ``n_target[k]``,
    ``burn_in[k]`` and ``thinning[k]``, so chains of different samplers share
    one lockstep. Chain k draws only from ``rngs[k]``, in the order a lone
    walk would: the uniform search when there is no anchor, then d1 values
    per proposal. Proposals are drawn in blocks of up to ``_BLOCK`` (fewer
    when K * d1 is large, to bound memory), which gives the same values as
    single draws. Each step tests a window of every active chain's next
    proposals, ``min(rest of its block, max(1, _CHUNK // active chains))``
    of them, in one ``within_bounds`` and one ``feasible_batch`` call, so a
    call tests at most max(``_CHUNK``, K) rows. A chain takes its window up
    to and including its first accepted proposal, or all of it; the deltas
    after an acceptance stay in its block and are proposed from the new
    state in the next step. Each kept state is the same ``state + delta``
    as in a one-proposal-at-a-time walk, and a proposal that leaves the
    signal box counts against the chain's budget. Returns one (n, d1) array
    per chain.
    """
    k_total, d1 = len(rngs), model.d1
    spent = np.zeros(k_total, dtype=np.int64)
    n_accepted = np.zeros(k_total, dtype=np.int64)
    n_kept = np.zeros(k_total, dtype=np.int64)
    kept = [[] for _ in range(k_total)]
    state = np.zeros((k_total, d1))
    anchored = np.array([a is not None for a in anchors], dtype=bool)
    if anchored.any():
        at = np.flatnonzero(anchored)
        start = np.array([anchors[k] for k in at], dtype=np.float64)
        bad = at[~model.feasible_batch(start, Y[at])]
        if bad.size:
            which = f" of set {labels[bad[0]]}" if labels is not None else ""
            raise DataError(f"random-walk anchor{which} is not feasible for its measurement")
        state[at] = start
    started = anchored.copy()
    for k in np.flatnonzero(~anchored):
        first, spent[k] = _search(model, Y[k], _uniform_draw(model, rngs[k]), budget[k], 1)
        if first.size:
            state[k], started[k] = first[0], True

    def keep(chains):
        after = n_accepted[chains] - burn_in[chains]
        chains = chains[(after > 0) & (after % thinning[chains] == 0)]
        for k in chains:
            kept[k].append(state[k].copy())
        n_kept[chains] += 1

    found = np.flatnonzero(started & ~anchored)  # a found start is accepted; an anchor is not
    n_accepted[found] = 1
    keep(found)

    # A chain refills its block only when it has proposed every delta in it,
    # so it draws the values of a lone walk; a block cut short by the budget
    # runs out exactly when its chain does. A window never passes its block.
    block = min(_BLOCK, max(1, _BLOCK_VALUES // (k_total * d1)))
    deltas = np.empty((k_total, block, d1))
    used = np.zeros(k_total, dtype=np.int64)  # deltas of the block proposed so far
    drawn = np.zeros(k_total, dtype=np.int64)  # deltas in the block
    active = np.flatnonzero(started & (spent < budget) & (n_kept < n_target))
    while active.size:
        for k in active[used[active] == drawn[active]]:
            n = min(block, budget[k] - spent[k])
            deltas[k, :n] = rngs[k].uniform(-half[k], half[k], size=(n, d1))
            used[k], drawn[k] = 0, n
        width = np.minimum(drawn[active] - used[active], max(1, _CHUNK // active.size))
        slot = np.repeat(np.arange(active.size), width)  # each row's place in active
        chain = active[slot]
        offset = np.arange(slot.size) - (np.cumsum(width) - width)[slot]
        prop = state[chain] + deltas[chain, used[chain] + offset]
        ok = model.within_bounds(prop)
        if ok.any():
            ok[ok] = model.feasible_batch(prop[ok], Y[chain[ok]])
        # a window is taken up to and including its first accepted proposal;
        # the rest were made from the old state, and are proposed again
        hit = np.flatnonzero(ok)
        if hit.size:
            hit = hit[np.diff(slot[hit], prepend=-1) != 0]
            width[slot[hit]] = offset[hit] + 1
            moved = chain[hit]
            state[moved] = prop[hit]
            n_accepted[moved] += 1
            keep(moved)
        spent[active] += width
        used[active] += width
        active = active[(spent[active] < budget[active]) & (n_kept[active] < n_target[active])]
    return [np.vstack(rows) if rows else np.zeros((0, d1)) for rows in kept]


def _warn_if_empty(members, n_target) -> None:
    if members.shape[0] == 0 and n_target > 0:
        # point at the first frame outside this module: the caller's line
        frame, level = sys._getframe(1), 2
        while frame is not None and frame.f_code.co_filename == __file__:
            frame, level = frame.f_back, level + 1
        warnings.warn("sampling budget exhausted with zero feasible points", stacklevel=level)


def sample_feasible(model: ForwardModel, y, sampler: SamplerSpec,
                    rng: np.random.Generator | None = None,
                    anchor=None, n_target: int | None = None) -> np.ndarray:
    """Collect up to ``n_max`` signals whose feasible test against y passes.

    Deterministic given (model, y, sampler) including the seed. Returns an
    (n, d1) array, possibly empty; an empty result after exhausting the budget
    emits a warning (a zero-size feasible set is legal downstream). The grid,
    rejection sampling and, without an ``anchor``, the random walk's first
    point run one chunked search, which draws whole chunks of up to
    ``_CHUNK`` candidates. The random walk draws its proposals in blocks. So
    on a caller-supplied ``rng`` the sampler may draw up to one chunk or
    block past its last kept point.
    """
    y = as_vector(y, "measurement")
    if rng is None:
        rng = np.random.default_rng(sampler.seed)
    n_target = sampler.n_max if n_target is None else _whole(n_target, "n_target")
    if sampler.kind == "grid":
        draw, size = _grid_draw(model, sampler.grid_resolution)
        out, _ = _search(model, y, draw, min(sampler.effective_budget, size), n_target)
    elif sampler.kind == "rejection":
        out, _ = _search(model, y, _uniform_draw(model, rng), sampler.effective_budget, n_target)
    else:
        anchors = [None if anchor is None else as_vector(anchor, "anchor")]
        walk = (sampler, _half_step(model, sampler), n_target)
        out = _random_walks(model, y[None, :], [rng], anchors, *_per_chain([walk], [1]))[0]
    _warn_if_empty(out, n_target)
    return out


def _per_chain(walks, counts) -> tuple:
    """``_random_walks``' per-chain arrays (half, budget, n_target, burn_in,
    thinning) of walks given as (sampler, half, n_target), ``counts[j]``
    chains each."""
    half = np.repeat([h for _, h, _ in walks], counts, axis=0)
    limits = np.repeat([(s.effective_budget, n, s.burn_in, s.thinning) for s, _, n in walks],
                       counts, axis=0)
    return (half, *limits.T)


def _entry_rngs(seed: int, k: int) -> tuple:
    return (
        np.random.default_rng([seed, k, 0]),  # proposal stream
        np.random.default_rng([seed, k, 1]),  # measurement-generation stream
    )


# One checked job of build_feasible_sets_many: its sampler, set ids and
# measurements, the anchors (None in measurement mode), the per-set proposal
# streams, the random walk's half step (None for the other kinds) and the
# members to sample per set (an anchor is the first member of its set).
_Job = namedtuple("_Job", "sampler ids ys anchors rngs half n_target")


def _plan(model, measurements=None, *, generate: int | None = None, ground_truths=None,
          sampler: SamplerSpec) -> _Job:
    """Check one job and draw its measurements; no proposal is drawn. In
    ``generate`` and ``ground_truths`` modes set k's ground truth and noise
    come from its own (seed, k) measurement stream, and one ``apply_batch``
    call measures every set's ground truth, bit for bit as one one-row call
    per set would."""
    modes = sum(arg is not None for arg in (measurements, generate, ground_truths))
    if modes != 1:
        raise UsageError("pass exactly one of measurements=, generate= or ground_truths=")
    truths = None
    if generate is not None:
        generate = _whole(generate, "generate")
        if generate < 1:
            raise UsageError("generate must request at least one measurement")
        k_total = generate
    elif ground_truths is not None:
        truths = [as_vector(x, f"ground truth {k}") for k, x in enumerate(ground_truths)]
        if len(truths) == 0:
            raise UsageError("need at least one ground truth")
        k_total = len(truths)
    else:
        ys = [as_vector(y, f"measurement {k}") for k, y in enumerate(measurements)]
        if len(ys) == 0:
            raise UsageError("need at least one measurement")
        for k, y in enumerate(ys):
            if y.shape != (model.d2,):
                raise UsageError(f"measurement {k} has length {y.shape[0]} != d2={model.d2}")
        k_total = len(ys)
    half = _half_step(model, sampler) if sampler.kind == "random_walk" else None
    if sampler.kind == "grid":
        _grid_draw(model, sampler.grid_resolution)  # checks the resolution and the box
    elif sampler.kind == "rejection" or ground_truths is None:
        _box(model)  # drawn from by generated truths, rejection and an unanchored walk's start
    width = max(2, len(str(k_total - 1)))
    ids = [f"m{k:0{width}d}" for k in range(k_total)]
    sample_rngs, gen_rngs = zip(*(_entry_rngs(sampler.seed, k) for k in range(k_total)))
    anchors = None
    if measurements is None:
        b = model.signal_bounds
        anchors, noise = [], []
        for k, gen_rng in enumerate(gen_rngs):
            x_true = (truths[k] if truths is not None
                      else gen_rng.uniform(b[:, 0], b[:, 1], size=model.d1))
            noise.append(model.noise.sample(gen_rng, model.d2))
            if x_true.shape[0] != model.d1:
                raise UsageError(f"signal length {x_true.shape[0]} != d1={model.d1}")
            anchors.append(x_true)
        ys = list(model.apply_batch(np.array(anchors), np.array(noise)))
    n_target = sampler.n_max - (anchors is not None)
    return _Job(sampler, ids, ys, anchors, sample_rngs, half, n_target)


def build_feasible_sets_many(model: ForwardModel, jobs) -> list:
    """Build the feasible sets of several jobs on one model; one
    ``FeasibleSetCollection`` per job, in order.

    Each job is a dict of the keywords of ``build_feasible_sets``: one of
    ``measurements``, ``generate`` or ``ground_truths``, plus ``sampler``.
    Every job is checked, and its measurements drawn, before any proposal.
    The random walks of all sets of all jobs then advance in one lockstep,
    one batched feasibility test of a window of proposals per chain per
    step; grid and rejection jobs run set by set. Set k of a job draws only
    from its job's own (seed, k) streams, and the model decides each row as
    its one-row call does, so each job's collection is bit for bit that of
    its lone call.
    """
    plans = [_plan(model, **job) for job in jobs]
    if not plans:
        raise UsageError("need at least one job")
    walks = [j for j in plans if j.half is not None]
    walked = iter(())
    if walks:
        counts = [len(j.ys) for j in walks]
        labels = [repr(i) if len(plans) == 1 else f"{i!r} of job {n}"
                  for n, j in enumerate(plans) if j.half is not None for i in j.ids]
        walked = iter(_random_walks(
            model, np.vstack([y for j in walks for y in j.ys]),
            [rng for j in walks for rng in j.rngs],
            [a for j in walks for a in (j.anchors or [None] * len(j.ys))],
            *_per_chain([(j.sampler, j.half, j.n_target) for j in walks], counts),
            labels,
        ))
    out = []
    for job in plans:
        if job.half is not None:
            members = [next(walked) for _ in job.ys]
            for m in members:
                _warn_if_empty(m, job.n_target)
        else:
            members = [
                sample_feasible(model, y, job.sampler, rng=rng, n_target=job.n_target)
                for y, rng in zip(job.ys, job.rngs)
            ]
        if job.anchors is not None:
            members = [
                np.vstack([x[None, :], m]) if m.size else x[None, :]
                for x, m in zip(job.anchors, members)
            ]
        entries = tuple(
            FeasibleSet(id=i, measurement=y, members=m)
            for i, y, m in zip(job.ids, job.ys, members)
        )
        out.append(FeasibleSetCollection(d1=model.d1, d2=model.d2, entries=entries))
    return out


def build_feasible_sets(model: ForwardModel, measurements=None, *,
                        generate: int | None = None,
                        ground_truths=None,
                        sampler: SamplerSpec) -> FeasibleSetCollection:
    """Build one feasible set per measurement; returns the collection.

    Pass ``measurements`` explicitly, or ``generate=K`` to draw K ground-truth
    signals uniformly from the signal box, or ``ground_truths`` to measure a
    given list of signals; in the latter two modes the noise is drawn
    uniformly from the noise set and each ground truth is inserted as the
    first member of its own feasible set (and anchors the random walk).
    Random walks for all sets advance together; set k draws only from its
    own (seed, k) streams, so its members do not depend on the other sets.
    This is the one-job call of ``build_feasible_sets_many``.
    """
    job = dict(measurements=measurements, generate=generate, ground_truths=ground_truths,
               sampler=sampler)
    return build_feasible_sets_many(model, [job])[0]
