"""Tests for feasible-set construction."""

import warnings

import numpy as np
import pytest

from kersize import sampling
from kersize.core import DataError, UsageError
from kersize.forward import LinearModel, MicroscopyModel, NoiseSpec
from kersize.sampling import (
    SamplerSpec,
    _entry_rngs,
    build_feasible_sets,
    enforce_uniform,
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


def reference_walk(model, y, sampler, rng, n_target, anchor=None):
    """One chain, one proposal and one feasibility call at a time."""
    lo, hi = model.signal_bounds.T
    budget, spent, n_accepted, kept = sampler.effective_budget, 0, 0, []

    def record():
        if n_accepted > sampler.burn_in and (n_accepted - sampler.burn_in) % sampler.thinning == 0:
            kept.append(state.copy())

    state = None if anchor is None else np.asarray(anchor, dtype=np.float64)
    while state is None and spent < budget:
        pts = rng.uniform(lo, hi, size=(min(512, budget - spent), model.d1))
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


class TestSamplerSpec:
    def test_budget_below_n_max(self):
        with pytest.raises(UsageError):
            SamplerSpec(kind="rejection", n_max=10, budget=5)

    def test_grid_needs_resolution(self):
        with pytest.raises(UsageError):
            SamplerSpec(kind="grid", n_max=10)

    def test_roundtrip_dict(self):
        s = SamplerSpec(kind="random_walk", n_max=7, seed=3, budget=100,
                        step_scale=[0.1, 0.2], burn_in=2, thinning=3)
        s2 = SamplerSpec.from_dict(s.to_dict())
        assert s2.kind == s.kind and s2.n_max == s.n_max and s2.thinning == 3


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
        y = m.intensity(truth) * 1.05 + 0.5
        anchor = truth if anchored else None
        got = sample_feasible(m, y, s, rng=np.random.default_rng(8), anchor=anchor)
        want = reference_walk(m, y, s, np.random.default_rng(8), s.n_max, anchor)
        assert got.shape[0] > 0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

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
            c, d = build_feasible_sets(m, generate=1, sampler=s)
        assert c.counts == (1,)
        assert d.size == 1

    def test_generated_truth_is_first_member_and_feasible(self):
        m = LinearModel([[0.5, 0.5]], NoiseSpec(kind="additive", eps_additive=0.2),
                        [[-1, 1], [-1, 1]])
        s = SamplerSpec(kind="rejection", n_max=8, seed=7, budget=5000)
        c, _ = build_feasible_sets(m, generate=4, sampler=s)
        for e in c.entries:
            assert m.feasible_batch(e.members, e.measurement, atol=1e-12).all()
            # ground truth reproduces its own measurement with some noise
            assert m.feasible_batch(e.members[:1], e.measurement, atol=1e-12)[0]

    def test_generator_determinism(self):
        m = LinearModel([[0.5, 0.5]], NoiseSpec(kind="additive", eps_additive=0.2),
                        [[-1, 1], [-1, 1]])
        s = SamplerSpec(kind="rejection", n_max=8, seed=7, budget=5000)
        c1, _ = build_feasible_sets(m, generate=4, sampler=s)
        c2, _ = build_feasible_sets(m, generate=4, sampler=s)
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
        c, _ = build_feasible_sets(model, generate=6, sampler=s)
        for k, e in enumerate(c.entries):
            truth = e.members[0]
            lone = sample_feasible(model, e.measurement, s, rng=_entry_rngs(s.seed, k)[0],
                                   anchor=truth, n_target=s.n_max - 1)
            assert e.members.tobytes() == np.vstack([truth[None, :], lone]).tobytes()
        ys = [e.measurement for e in c.entries]
        c2, _ = build_feasible_sets(model, measurements=ys, sampler=s)
        for k, e in enumerate(c2.entries):
            lone = sample_feasible(model, ys[k], s, rng=_entry_rngs(s.seed, k)[0])
            assert e.members.shape == lone.shape
            assert e.members.tobytes() == lone.tobytes()
        counts = c.counts + c2.counts
        assert min(counts) < s.n_max and max(counts) == s.n_max

    def test_lockstep_walk_with_unreachable_sets(self):
        """Chains that exhaust their budget with zero members leave the others
        running, and each empty set warns exactly once."""
        m = identity_model(eps=0.1)
        s = SamplerSpec(kind="random_walk", n_max=10, seed=4, budget=500, step_scale=0.1)
        ys = [[0.0, 0.0], [5.0, 5.0], [0.5, 0.5], [-5.0, 3.0]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c, _ = build_feasible_sets(m, measurements=ys, sampler=s)
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

            def apply(self, x, e):
                return super().apply(x, e) + (1.0 if x[0] > 0.5 else 0.0)

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
        c, d = build_feasible_sets(m, generate=25, sampler=s)
        assert c.uniform
        assert c.counts == (1501,) * 25
        assert d.size == 25 * 1501

    def test_measurement_mode(self):
        m = identity_model(eps=0.3)
        s = SamplerSpec(kind="rejection", n_max=10, seed=2, budget=2000)
        c, _ = build_feasible_sets(m, measurements=[[0.0, 0.0], [0.5, 0.5]], sampler=s)
        assert c.k == 2
        assert c.ids == ("m00", "m01")

    def test_mode_arguments_are_exclusive(self):
        m = identity_model()
        s = SamplerSpec(kind="rejection", n_max=2, budget=10)
        with pytest.raises(UsageError):
            build_feasible_sets(m, measurements=[[0.0, 0.0]], generate=2, sampler=s)
        with pytest.raises(UsageError):
            build_feasible_sets(m, sampler=s)


class TestEnforceUniform:
    def collection(self, counts):
        m = identity_model(eps=1.0)
        s = SamplerSpec(kind="rejection", n_max=max(counts), seed=0,
                        budget=200 * max(counts))
        c, _ = build_feasible_sets(m, measurements=[[0.0, 0.0]] * len(counts), sampler=s)
        from kersize.core import FeasibleSet, FeasibleSetCollection

        entries = tuple(
            FeasibleSet(id=e.id, measurement=e.measurement, members=e.members[:n])
            for e, n in zip(c.entries, counts)
        )
        return FeasibleSetCollection(d1=c.d1, d2=c.d2, entries=entries)

    def test_already_uniform_unchanged(self):
        c = enforce_uniform(self.collection([5, 5, 5]), 5)
        assert c.counts == (5, 5, 5)

    def test_truncates_to_n(self):
        c0 = self.collection([5, 7, 6])
        c = enforce_uniform(c0, 5)
        assert c.counts == (5, 5, 5)
        np.testing.assert_array_equal(c.entries[1].members, c0.entries[1].members[:5])

    def test_deficient_set_named_in_error(self):
        c0 = self.collection([5, 3])
        with pytest.raises(DataError, match="m01"):
            enforce_uniform(c0, 5)
