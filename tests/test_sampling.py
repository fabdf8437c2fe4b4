"""Tests for feasible-set construction."""

import warnings

import numpy as np
import pytest

from kersize import sampling
from kersize.core import DataError, UsageError, dataset_from_collection
from kersize.forward import LinearModel, MicroscopyModel, NoiseSpec
from kersize.sampling import (
    SamplerSpec,
    _entry_rngs,
    build_feasible_sets,
    sample_feasible,
)


def identity_model(eps=0.0, d=2, lo=-1.0, hi=1.0):
    return LinearModel(np.eye(d), NoiseSpec(kind="additive", eps_additive=eps),
                       [[lo, hi]] * d)


def small_microscope():
    return MicroscopyModel(pixels=(3, 3), pixel_size=100.0, psf_sigma0=150.0, psf_z0=400.0,
                           c_max=10.0, h_max=1000.0, exposure=1.0,
                           volume=[[100, 200], [100, 200], [-100, 100]],
                           noise=NoiseSpec(kind="mixed", eps_multiplicative=0.1,
                                           eps_additive=2.0))


def reference_walk(model, y, sampler, rng, n_target, anchor=None, chunk=512):
    """One chain, one proposal and one feasibility call at a time; without an
    anchor the start is searched in uniform draws of ``chunk`` points."""
    lo, hi = model.signal_bounds.T
    budget, spent, n_accepted, kept = sampler.effective_budget, 0, 0, []

    def record():
        if n_accepted > sampler.burn_in and (n_accepted - sampler.burn_in) % sampler.thinning == 0:
            kept.append(state.copy())

    state = None if anchor is None else np.asarray(anchor, dtype=np.float64)
    while state is None and spent < budget:
        pts = rng.uniform(lo, hi, size=(min(chunk, budget - spent), model.d1))
        hit = np.flatnonzero(model.feasible_batch(pts, y))
        spent += int(hit[0]) + 1 if hit.size else len(pts)
        if hit.size:
            state, n_accepted = pts[hit[0]], 1
            record()
    if state is None:
        return np.zeros((0, model.d1))
    half = 0.5 * np.broadcast_to(np.asarray(sampler.step_scale, dtype=np.float64), (model.d1,))
    while spent < budget and len(kept) < n_target:
        prop = state + rng.uniform(-half, half)
        spent += 1
        if np.all(prop >= lo) and np.all(prop <= hi) and model.feasible_batch(prop[None, :], y)[0]:
            state, n_accepted = prop, n_accepted + 1
            record()
    return np.vstack(kept) if kept else np.zeros((0, model.d1))


def reference_rejection(model, y, sampler, rng, n_target):
    """Uniform draws in chunks of 512, each tested alone, the first
    ``n_target`` feasible ones kept."""
    lo, hi = model.signal_bounds.T
    budget, spent, kept = sampler.effective_budget, 0, []
    while spent < budget and len(kept) < n_target:
        pts = rng.uniform(lo, hi, size=(min(512, budget - spent), model.d1))
        spent += len(pts)
        kept += [x for x in pts if model.feasible_batch(x[None, :], y)[0]]
    return np.vstack(kept[:n_target]) if kept[:n_target] else np.zeros((0, model.d1))


def reference_grid(model, y, sampler, n_target):
    """Lattice points in C order, each tested alone, the first ``n_target``
    feasible ones among the first ``budget`` points kept."""
    res, b = sampler.grid_resolution, model.signal_bounds
    axes = [np.linspace(b[i, 0], b[i, 1], res[i]) for i in range(model.d1)]
    kept = []
    for i, idx in enumerate(np.ndindex(*res)):
        if i == sampler.effective_budget or len(kept) == n_target:
            break
        x = np.array([axis[j] for axis, j in zip(axes, idx)])
        if model.feasible_batch(x[None, :], y)[0]:
            kept.append(x)
    return np.vstack(kept) if kept else np.zeros((0, model.d1))


class TestSamplerSpec:
    def test_budget_below_n_max(self):
        with pytest.raises(UsageError):
            SamplerSpec(kind="rejection", n_max=10, budget=5)

    def test_grid_needs_resolution(self):
        with pytest.raises(UsageError):
            SamplerSpec(kind="grid", n_max=10)

    @pytest.mark.parametrize("call, name", [
        (lambda: SamplerSpec(n_max=2.5), "n_max"),
        (lambda: SamplerSpec(n_max=float("nan")), "n_max"),
        (lambda: SamplerSpec(n_max=True), "n_max"),
        (lambda: SamplerSpec(budget=float("nan")), "budget"),
        (lambda: SamplerSpec(n_max=2, budget=5.5), "budget"),
        (lambda: SamplerSpec(kind="random_walk", thinning=1.5), "thinning"),
        (lambda: SamplerSpec(burn_in=0.5), "burn_in"),
        (lambda: SamplerSpec(seed=1.5), "seed"),
        (lambda: SamplerSpec(seed=float("inf")), "seed"),
        (lambda: SamplerSpec(kind="grid", grid_resolution=(2.5, 2)), "grid_resolution"),
        (lambda: build_feasible_sets(identity_model(eps=0.1), generate=2.5,
                                     sampler=SamplerSpec(n_max=3)), "generate"),
        (lambda: sample_feasible(identity_model(eps=0.1), [0.0, 0.0], SamplerSpec(n_max=3),
                                 n_target=2.5), "n_target"),
    ], ids=["n_max-2.5", "n_max-nan", "n_max-bool", "budget-nan", "budget-5.5",
            "thinning-1.5", "burn_in-0.5", "seed-1.5", "seed-inf", "grid_resolution-2.5",
            "generate-2.5", "n_target-2.5"])
    def test_integer_field_that_is_not_whole_is_usage_error(self, call, name):
        with pytest.raises(UsageError, match=f"^{name}: "):
            call()

    def test_whole_integer_fields_are_normalised(self):
        s = SamplerSpec(kind="grid", n_max=np.int64(3), seed=2.0, budget=np.float64(10),
                        grid_resolution=np.array([2, 3]), burn_in=0.0, thinning=1.0)
        fields = (s.n_max, s.seed, s.budget, s.burn_in, s.thinning, *s.grid_resolution)
        assert fields == (3, 2, 10, 0, 1, 2, 3)
        assert all(type(v) is int for v in fields)

    def test_from_dict(self):
        s = SamplerSpec.from_dict({"kind": "random_walk", "n_max": 7, "seed": 3, "budget": 100,
                                   "step_scale": [0.1, 0.2], "burn_in": 2, "thinning": 3})
        assert (s.kind, s.n_max, s.seed, s.budget, s.burn_in, s.thinning) == (
            "random_walk", 7, 3, 100, 2, 3)
        assert list(s.step_scale) == [0.1, 0.2] and s.grid_resolution is None


class TestSampleFeasible:
    def test_injective_noiseless_returns_subset_of_truth(self):
        """With an invertible noise-free model only x = y is feasible."""
        m = identity_model(eps=0.0)
        y = np.array([0.25, -0.5])
        rej = SamplerSpec(kind="rejection", n_max=5, seed=3, budget=2000)
        with pytest.warns(UserWarning):
            out = sample_feasible(m, y, rej)
        assert all(np.array_equal(row, y) for row in out)
        grid = SamplerSpec(kind="grid", n_max=5, seed=0, grid_resolution=(5, 5))
        out = sample_feasible(m, [0.5, 0.5], grid)  # lattice point of linspace(-1,1,5)
        assert out.shape == (1, 2)
        np.testing.assert_array_equal(out[0], [0.5, 0.5])

    def test_grid_enumerates_unconstrained_coordinate(self):
        # A ignores the second coordinate, so the grid fills it freely
        a, b = 0.7, 2.0
        m = LinearModel([[1.0, 0.0]], NoiseSpec(kind="additive", eps_additive=0.0),
                        [[a, a], [-b, b]])
        s = SamplerSpec(kind="grid", n_max=10, seed=0, grid_resolution=(1, 3))
        out = sample_feasible(m, [a], s)
        np.testing.assert_array_equal(out, [[a, -b], [a, 0.0], [a, b]])

    def test_rejection_acceptance_fraction(self):
        """Feasible interval of width 0.2 in a box of width 2: about 10% of
        uniform proposals are accepted, all inside the interval."""
        m = identity_model(eps=0.1, d=1)
        s = SamplerSpec(kind="rejection", n_max=20000, seed=5, budget=20000)
        out = sample_feasible(m, [0.0], s)
        assert 0.08 < out.shape[0] / 20000 < 0.12
        assert np.all(np.abs(out) <= 0.1)

    def test_budget_exhausted_warns_and_returns_empty(self):
        m = identity_model(eps=0.0)
        s = SamplerSpec(kind="rejection", n_max=4, seed=0, budget=50)
        with pytest.warns(UserWarning):
            out = sample_feasible(m, [0.3, 0.3], s)
        assert out.shape == (0, 2)

    def test_random_walk_states_all_feasible(self):
        m = identity_model(eps=0.1, d=3)
        s = SamplerSpec(kind="random_walk", n_max=80, seed=2, budget=5000, step_scale=0.15)
        y = np.zeros(3)
        out = sample_feasible(m, y, s)
        assert out.shape[0] > 0
        assert m.feasible_batch(out, y).all()

    def test_random_walk_infeasible_anchor(self):
        m = identity_model(eps=0.1)
        s = SamplerSpec(kind="random_walk", n_max=5, seed=0, budget=100, step_scale=0.1)
        with pytest.raises(DataError):
            sample_feasible(m, np.zeros(2), s, anchor=np.array([0.9, 0.9]))

    @pytest.mark.parametrize("burn_in,thinning", [(0, 1), (3, 2)])
    @pytest.mark.parametrize("anchored", [False, True])
    @pytest.mark.parametrize("block_values", [None, 12])
    def test_random_walk_matches_reference_loop(self, burn_in, thinning, anchored,
                                                block_values, monkeypatch):
        if block_values is not None:  # blocks of two proposals
            monkeypatch.setattr(sampling, "_BLOCK_VALUES", block_values)
        m = small_microscope()
        s = SamplerSpec(kind="random_walk", n_max=15, seed=6, budget=150,
                        step_scale=[5, 5, 20, 0.5, 50], burn_in=burn_in, thinning=thinning)
        truth = np.array([150.0, 150.0, 0.0, 5.0, 500.0])
        y = m.noiseless_batch(truth[None, :])[0] * 1.05 + 0.5
        anchor = truth if anchored else None
        got = sample_feasible(m, y, s, rng=np.random.default_rng(8), anchor=anchor)
        want = reference_walk(m, y, s, np.random.default_rng(8), s.n_max, anchor)
        assert got.shape[0] > 0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:sampling budget exhausted")
    def test_windowed_lockstep_matches_reference_walks(self, monkeypatch):
        """Fourteen chains in one lockstep, with a chunk of 16 rows and blocks
        of five proposals: windows widen from one proposal as chains finish,
        and end at block ends. Every chain, anchored or not, with or without
        burn-in and thinning, is bitwise its one-at-a-time walk, and no call
        tests more than 16 rows."""
        monkeypatch.setattr(sampling, "_CHUNK", 16)
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", 5 * 14 * 5)  # 14 chains, d1 = 5
        m = small_microscope()
        rows = []
        feasible = m.feasible_batch
        monkeypatch.setattr(m, "feasible_batch", lambda X, y: rows.append(len(X)) or
                            feasible(X, y))
        truth = np.array([150.0, 150.0, 0.0, 5.0, 500.0])
        truths = [truth, truth * [0.9, 1.1, 1, 1, 1], truth * [1.1, 0.9, 1, 0.8, 1.2]]
        ys = [m.noiseless_batch(truth[None, :])[0] * 1.05 + 0.5]
        walk = dict(kind="random_walk", n_max=15, seed=6, budget=150,
                    step_scale=[5, 5, 20, 0.5, 50])
        jobs = [
            {"generate": 6, "sampler": SamplerSpec(**walk)},
            {"ground_truths": truths, "sampler": SamplerSpec(
                **dict(walk, seed=7, burn_in=3, thinning=2, budget=90))},
            {"measurements": ys * 4, "sampler": SamplerSpec(
                **dict(walk, seed=8, burn_in=2, thinning=3, n_max=6, budget=60))},
            {"measurements": ys, "sampler": SamplerSpec(
                **dict(walk, seed=9, n_max=40, budget=400))},
        ]
        built = sampling.build_feasible_sets_many(m, jobs)
        calls = rows[:]
        for job, c in zip(jobs, built):
            s = job["sampler"]
            for k, e in enumerate(c.entries):
                rng = _entry_rngs(s.seed, k)[0]
                if "measurements" in job:
                    want = reference_walk(m, e.measurement, s, rng, s.n_max, chunk=16)
                    got = e.members
                else:
                    want = reference_walk(m, e.measurement, s, rng, s.n_max - 1,
                                          anchor=e.members[0])
                    got = e.members[1:]
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        counts = [n for c in built for n in c.counts]
        assert min(counts) < 6 and max(counts) == 40
        assert max(calls) <= 16 and len(calls) < 400 // 4

    def test_feasibility_calls_per_window(self, monkeypatch):
        """No feasibility call tests more than max(_CHUNK, chains) rows, and
        the microscopy demo spends its budget in under a quarter as many
        calls."""
        from kersize import demo
        from kersize.forward import ForwardModel

        rows = []
        feasible = ForwardModel.feasible_batch
        monkeypatch.setattr(ForwardModel, "feasible_batch",
                            lambda self, X, y: rows.append(len(X)) or feasible(self, X, y))
        k, n_max = 4, 5
        result = demo.microscopy_demo(k=k, n_max=n_max)
        chains = k * len(result["setups"])
        assert 0 < max(rows) <= max(sampling._CHUNK, chains)
        assert len(rows) < 60 * n_max / 4  # the demo's per-chain budget is 60 * n_max

    @pytest.mark.parametrize("kind,n_max,budget,n_target,reachable,rows", [
        ("rejection", 100, 700, None, True, "some"),  # the budget ends mid-chunk
        ("rejection", 20, 2000, None, True, "all"),  # the target is met mid-chunk
        ("rejection", 20, 2000, 0, True, "none"),
        ("rejection", 20, 2000, None, False, "none"),
        ("grid", 50, 900, None, True, "some"),  # the budget ends mid-chunk
        ("grid", 20, None, None, True, "all"),  # the target is met mid-chunk
        ("grid", 20, None, 0, True, "none"),
        ("grid", 20, None, None, False, "none"),
        ("grid", 100, None, None, True, "some"),  # all 3125 lattice points
    ])
    def test_search_matches_reference_loop(self, kind, n_max, budget, n_target, reachable,
                                           rows):
        """Grid and rejection keep the first feasible candidates in draw
        order, bit for bit those of a loop that tests one at a time."""
        m = small_microscope()
        truth = np.array([150.0, 150.0, 0.0, 5.0, 500.0])
        mu = m.noiseless_batch(truth[None, :])[0]
        y = mu * 1.05 + 0.5 if reachable else np.full(m.d2, -100.0)
        grid = {"grid_resolution": (5,) * 5} if kind == "grid" else {}
        s = SamplerSpec(kind=kind, n_max=n_max, seed=6, budget=budget, **grid)
        n = s.n_max if n_target is None else n_target
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = sample_feasible(m, y, s, n_target=n_target)
        want = (reference_grid(m, y, s, n) if kind == "grid"
                else reference_rejection(m, y, s, np.random.default_rng(s.seed), n))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert {"none": got.shape[0] == 0, "some": 0 < got.shape[0] < n,
                "all": got.shape[0] == n}[rows]
        assert len(caught) == (got.shape[0] == 0 and n > 0)

    def test_thinning_and_burn_in(self):
        m = identity_model(eps=0.5, d=1)
        base = SamplerSpec(kind="random_walk", n_max=30, seed=4, budget=4000, step_scale=0.2)
        thin = SamplerSpec(kind="random_walk", n_max=30, seed=4, budget=4000,
                           step_scale=0.2, burn_in=5, thinning=3)
        out_base = sample_feasible(m, [0.0], base)
        out_thin = sample_feasible(m, [0.0], thin)
        # thinned chain visits the same states, keeping every third after burn-in
        assert out_thin.shape[0] <= out_base.shape[0]
        assert m.feasible_batch(out_thin, [0.0]).all()


class TestBuildFeasibleSets:
    def test_injective_model_gives_singletons(self):
        m = identity_model(eps=0.0)
        s = SamplerSpec(kind="rejection", n_max=5, seed=1, budget=200)
        with pytest.warns(UserWarning):
            c = build_feasible_sets(m, generate=1, sampler=s)
        assert c.counts == (1,)
        assert dataset_from_collection(c).size == 1

    def test_generated_truth_is_first_member_and_feasible(self):
        m = LinearModel([[0.5, 0.5]], NoiseSpec(kind="additive", eps_additive=0.2),
                        [[-1, 1], [-1, 1]])
        s = SamplerSpec(kind="rejection", n_max=8, seed=7, budget=5000)
        c = build_feasible_sets(m, generate=4, sampler=s)
        for e in c.entries:
            assert m.feasible_batch(e.members, e.measurement).all()
            # ground truth reproduces its own measurement with some noise
            assert m.feasible_batch(e.members[:1], e.measurement)[0]

    def test_generator_determinism(self):
        m = LinearModel([[0.5, 0.5]], NoiseSpec(kind="additive", eps_additive=0.2),
                        [[-1, 1], [-1, 1]])
        s = SamplerSpec(kind="rejection", n_max=8, seed=7, budget=5000)
        c1 = build_feasible_sets(m, generate=4, sampler=s)
        c2 = build_feasible_sets(m, generate=4, sampler=s)
        for e1, e2 in zip(c1.entries, c2.entries):
            np.testing.assert_array_equal(e1.measurement, e2.measurement)
            np.testing.assert_array_equal(e1.members, e2.members)

    @pytest.mark.filterwarnings("ignore:sampling budget exhausted")
    @pytest.mark.parametrize("model,step,budget", [
        (LinearModel([[0.5, 0.5, 0.0], [0.0, 0.3, -0.6]],
                     NoiseSpec(kind="additive", eps_additive=0.15), [[-1, 1]] * 3), 0.3, 60),
        (small_microscope(), [5, 5, 20, 0.5, 50], 40),
    ], ids=["linear", "microscopy"])
    def test_lockstep_walks_match_lone_walks(self, model, step, budget):
        """Each set of the lockstep walk is bitwise the lone walk on its own
        (seed, k) stream, whatever the other chains do."""
        s = SamplerSpec(kind="random_walk", n_max=12, seed=3, budget=budget,
                        step_scale=step, burn_in=2, thinning=3)
        c = build_feasible_sets(model, generate=6, sampler=s)
        for k, e in enumerate(c.entries):
            truth = e.members[0]
            lone = sample_feasible(model, e.measurement, s, rng=_entry_rngs(s.seed, k)[0],
                                   anchor=truth, n_target=s.n_max - 1)
            assert e.members.tobytes() == np.vstack([truth[None, :], lone]).tobytes()
        ys = [e.measurement for e in c.entries]
        c2 = build_feasible_sets(model, measurements=ys, sampler=s)
        for k, e in enumerate(c2.entries):
            lone = sample_feasible(model, ys[k], s, rng=_entry_rngs(s.seed, k)[0])
            assert e.members.shape == lone.shape
            assert e.members.tobytes() == lone.tobytes()
        counts = c.counts + c2.counts
        assert min(counts) < s.n_max and max(counts) == s.n_max

    @pytest.mark.filterwarnings("ignore:sampling budget exhausted")
    @pytest.mark.parametrize("model,step,truth", [
        (LinearModel([[0.5, 0.5, 0.0], [0.0, 0.3, -0.6]],
                     NoiseSpec(kind="additive", eps_additive=0.15), [[-1, 1]] * 3),
         0.3, [0.2, -0.4, 0.1]),
        (small_microscope(), [5, 5, 20, 0.5, 50], [150.0, 150.0, 0.0, 5.0, 500.0]),
    ], ids=["linear", "microscopy"])
    def test_many_jobs_match_lone_calls(self, model, step, truth):
        """Every job of one lockstep over several jobs is bitwise its lone
        ``build_feasible_sets`` call, across seeds, step widths, budgets,
        sizes, burn-in, thinning and all three modes."""
        step = np.asarray(step, dtype=np.float64)
        walk = dict(kind="random_walk", n_max=12, seed=3, budget=60, step_scale=step,
                    burn_in=2, thinning=3)
        ys = [e.measurement for e in build_feasible_sets(
            model, generate=3, sampler=SamplerSpec(**dict(walk, seed=9))).entries]
        truths = [truth, np.asarray(truth) * 0.9, np.asarray(truth) * 1.1]
        jobs = [
            {"generate": 5, "sampler": SamplerSpec(**walk)},
            {"ground_truths": truths, "sampler": SamplerSpec(
                **dict(walk, seed=4, step_scale=step * 0.5, budget=90, n_max=7))},
            {"measurements": ys, "sampler": SamplerSpec(
                **dict(walk, seed=5, burn_in=0, thinning=1, budget=40, n_max=9))},
            {"generate": 2, "sampler": SamplerSpec(kind="rejection", n_max=4, seed=6,
                                                   budget=400)},
            {"generate": 4, "sampler": SamplerSpec(
                **dict(walk, seed=7, step_scale=None, burn_in=5, thinning=2, budget=200))},
        ]
        built = sampling.build_feasible_sets_many(model, jobs)
        assert len(built) == len(jobs)
        counts = []
        for job, c in zip(jobs, built):
            lone = build_feasible_sets(model, **job)
            assert c.ids == lone.ids
            for e, f in zip(c.entries, lone.entries):
                assert e.measurement.tobytes() == f.measurement.tobytes()
                assert e.members.shape == f.members.shape
                assert e.members.tobytes() == f.members.tobytes()
            d, lone_d = dataset_from_collection(c), dataset_from_collection(lone)
            assert d.x.tobytes() == lone_d.x.tobytes() and d.y.tobytes() == lone_d.y.tobytes()
            counts += c.counts
        assert min(counts) < max(counts) == 12

    def test_bad_step_scale_in_last_job_raises_before_any_proposal(self, monkeypatch):
        m = identity_model(eps=0.2)
        calls = []
        monkeypatch.setattr(m, "feasible_batch", lambda X, y: calls.append(X))
        jobs = [
            {"generate": 3, "sampler": SamplerSpec(kind="rejection", n_max=4, budget=100)},
            {"measurements": [[0.0, 0.0]],
             "sampler": SamplerSpec(kind="grid", n_max=4, grid_resolution=(3, 3))},
            {"measurements": [[0.0, 0.0]],
             "sampler": SamplerSpec(kind="random_walk", n_max=4, budget=100)},
            {"generate": 2, "sampler": SamplerSpec(kind="random_walk", n_max=4, budget=100,
                                                   step_scale=[0.1, 0.1, 0.1])},
        ]
        with pytest.raises(UsageError, match="step_scale"):
            sampling.build_feasible_sets_many(m, jobs)
        assert calls == []
        bad_grid = SamplerSpec(kind="grid", n_max=4, grid_resolution=(3, 3, 3))
        with pytest.raises(UsageError, match="grid_resolution"):
            sampling.build_feasible_sets_many(
                m, jobs[:3] + [{"measurements": [[0.0, 0.0]], "sampler": bad_grid}])
        assert calls == []
        with pytest.raises(UsageError, match="at least one job"):
            sampling.build_feasible_sets_many(m, [])

    def test_infinite_box_is_refused_before_any_draw(self, monkeypatch):
        """A sampler that draws from the signal box refuses a box with an
        infinite side before any proposal; an anchored walk with its own
        step draws nothing from the box and runs."""
        m = LinearModel(np.eye(2), NoiseSpec(kind="additive", eps_additive=0.2),
                        [[-1, 1], [-np.inf, 1]])
        calls = []
        feasible = m.feasible_batch
        monkeypatch.setattr(m, "feasible_batch", lambda X, y: calls.append(X) or feasible(X, y))
        rejection = SamplerSpec(kind="rejection", n_max=4, budget=100)
        grid = SamplerSpec(kind="grid", n_max=4, grid_resolution=(3, 3))
        walk = SamplerSpec(kind="random_walk", n_max=4, budget=100, step_scale=0.1)
        default_step = SamplerSpec(kind="random_walk", n_max=4, budget=100)
        for job in ({"measurements": [[0.0, 0.0]], "sampler": rejection},
                    {"ground_truths": [[0.0, 0.0]], "sampler": rejection},
                    {"measurements": [[0.0, 0.0]], "sampler": grid},
                    {"measurements": [[0.0, 0.0]], "sampler": walk},
                    {"generate": 2, "sampler": walk},
                    {"ground_truths": [[0.0, 0.0]], "sampler": default_step}):
            with pytest.raises(UsageError, match="infinite side"):
                sampling.build_feasible_sets_many(m, [job])
        for sampler, anchor in ((rejection, None), (grid, None), (walk, None),
                                (default_step, [0.0, 0.0])):
            with pytest.raises(UsageError, match="infinite side"):
                sample_feasible(m, [0.0, 0.0], sampler, anchor=anchor)
        assert calls == []
        c = build_feasible_sets(m, ground_truths=[[0.0, 0.0]], sampler=walk)
        assert c.counts == (4,)

    def test_infeasible_anchor_names_its_set_and_job(self):
        m = identity_model(eps=0.1)
        walk = SamplerSpec(kind="random_walk", n_max=5, seed=0, budget=100, step_scale=0.1)
        jobs = [{"ground_truths": [[0.0, 0.0]], "sampler": walk},
                {"ground_truths": [[0.0, 0.0], [0.5, 0.5]], "sampler": walk}]

        def apply_batch(X, E):  # measures the second truth of job 1 beyond the noise
            return X + E + np.where(X[:, :1] == 0.5, 1.0, 0.0)

        m.apply_batch = apply_batch
        with pytest.raises(DataError, match="'m01' of job 1"):
            sampling.build_feasible_sets_many(m, jobs)

    def test_microscopy_demo_matches_per_setup_calls(self, monkeypatch):
        """The demo's one lockstep over four setups gives each setup the
        collection of its own ``build_feasible_sets`` call."""
        from kersize import demo

        seen = []

        def spy(model, jobs):
            seen.append((model, jobs))
            return sampling.build_feasible_sets_many(model, jobs)

        monkeypatch.setattr(demo, "build_feasible_sets_many", spy)
        result = demo.microscopy_demo(k=4, n_max=5)
        (model, jobs), = seen
        assert len(jobs) == len(result["setups"]) == len(demo.MICROSCOPY_SETUPS)
        for job, setup in zip(jobs, result["setups"]):
            lone = build_feasible_sets(model, **job)
            got = setup["collection"]
            assert got.ids == lone.ids
            for e, f in zip(got.entries, lone.entries):
                assert e.measurement.tobytes() == f.measurement.tobytes()
                assert e.members.tobytes() == f.members.tobytes()

    def test_lockstep_walk_with_unreachable_sets(self):
        """Chains that exhaust their budget with zero members leave the others
        running, and each empty set warns exactly once."""
        m = identity_model(eps=0.1)
        s = SamplerSpec(kind="random_walk", n_max=10, seed=4, budget=500, step_scale=0.1)
        ys = [[0.0, 0.0], [5.0, 5.0], [0.5, 0.5], [-5.0, 3.0]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c = build_feasible_sets(m, measurements=ys, sampler=s)
        assert c.counts == (10, 0, 10, 0)
        assert [str(w.message) for w in caught] == [
            "sampling budget exhausted with zero feasible points"
        ] * 2
        for k in (0, 2):
            lone = sample_feasible(m, ys[k], s, rng=_entry_rngs(s.seed, k)[0])
            assert c.entries[k].members.tobytes() == lone.tobytes()

    def test_infeasible_anchor_names_its_set(self):
        class Offset(LinearModel):
            """Measures truths with x0 > 0.5 one unit off, beyond the noise."""

            def apply_batch(self, X, E):
                return super().apply_batch(X, E) + np.where(X[:, :1] > 0.5, 1.0, 0.0)

        m = Offset(np.eye(2), NoiseSpec(kind="additive", eps_additive=0.1), [[-1, 1]] * 2)
        s = SamplerSpec(kind="random_walk", n_max=5, seed=0, budget=100, step_scale=0.1)
        truths = [[0.0, 0.0], [0.9, 0.0], [0.95, 0.0]]
        with pytest.raises(DataError, match="'m01'"):
            build_feasible_sets(m, ground_truths=truths, sampler=s)

    def test_microscopy_reported_scale(self):
        """25 measurements with 1501 members each flatten to 25 * 1501 pairs."""
        m = MicroscopyModel(pixels=(2, 2), pixel_size=150.0, psf_sigma0=150.0,
                            psf_z0=400.0, c_max=10.0, h_max=500.0, exposure=1.0,
                            volume=[[0, 300], [0, 300], [-50, 50]],
                            noise=NoiseSpec(kind="mixed", eps_multiplicative=0.5,
                                            eps_additive=1e6))
        s = SamplerSpec(kind="rejection", n_max=1501, seed=0, budget=4000)
        c = build_feasible_sets(m, generate=25, sampler=s)
        assert c.uniform
        assert c.counts == (1501,) * 25
        assert dataset_from_collection(c).size == 25 * 1501

    def test_measurement_mode(self):
        m = identity_model(eps=0.3)
        s = SamplerSpec(kind="rejection", n_max=10, seed=2, budget=2000)
        c = build_feasible_sets(m, measurements=[[0.0, 0.0], [0.5, 0.5]], sampler=s)
        assert c.k == 2
        assert c.ids == ("m00", "m01")

    @pytest.mark.parametrize("request_, message", [
        ({"generate": 0}, "generate must request at least one measurement"),
        ({"ground_truths": []}, "need at least one ground truth"),
        ({"measurements": []}, "need at least one measurement"),
    ], ids=["generate-0", "no-ground-truths", "no-measurements"])
    def test_empty_request_is_usage_error(self, request_, message):
        with pytest.raises(UsageError, match=message):
            build_feasible_sets(identity_model(), sampler=SamplerSpec(n_max=2), **request_)

    def test_mode_arguments_are_exclusive(self):
        m = identity_model()
        s = SamplerSpec(kind="rejection", n_max=2, budget=10)
        with pytest.raises(UsageError):
            build_feasible_sets(m, measurements=[[0.0, 0.0]], generate=2, sampler=s)
        with pytest.raises(UsageError):
            build_feasible_sets(m, sampler=s)


class TestBudgetWarning:
    """The "budget exhausted" warning names the caller's line for every
    sampler kind and every entry point."""

    SAMPLERS = {
        "grid": SamplerSpec(kind="grid", n_max=3, grid_resolution=(5, 5)),
        "rejection": SamplerSpec(kind="rejection", n_max=3, budget=50),
        "random_walk": SamplerSpec(kind="random_walk", n_max=3, budget=50, step_scale=0.1),
    }

    @pytest.mark.parametrize("entry", ["sample_feasible", "build_feasible_sets",
                                       "build_feasible_sets_many"])
    @pytest.mark.parametrize("kind", ["grid", "rejection", "random_walk"])
    def test_warning_points_at_caller(self, kind, entry):
        m = identity_model(eps=0.0)
        y, s = [0.3, 0.3], self.SAMPLERS[kind]  # off the grid: no feasible point
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if entry == "sample_feasible":
                sample_feasible(m, y, s)
            elif entry == "build_feasible_sets":
                build_feasible_sets(m, measurements=[y], sampler=s)
            else:
                sampling.build_feasible_sets_many(
                    m, [{"measurements": [y], "sampler": s}] * 2)
        assert len(caught) == (2 if entry == "build_feasible_sets_many" else 1)
        for w in caught:
            assert "budget exhausted" in str(w.message)
            assert w.filename == __file__

