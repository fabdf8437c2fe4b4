"""Tests for the average kernel size, the optimal map, and bound reports."""

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from kersize.core import (
    DataError,
    FeasibleSet,
    FeasibleSetCollection,
    NormSpec,
    Sets,
    UsageError,
    distance_powers,
    loss,
    p_dist,
    vector_norms,
)
from kersize import bounds
from kersize.bounds import (
    BoundReport,
    MeasurementReport,
    _dual_gap,
    kersize,
    optimal_map_value,
    pair_power_sum,
    verify_bounds,
)
from kersize.forward import LinearModel, NoiseSpec
from kersize.predictors import (
    mean_map,
    median_map,
    zero_map,
)
from kersize.sampling import SamplerSpec, sample_feasible
from kersize.symmetric import skersize

EUCLID = NormSpec(p=2, q=2)


def make_collection(member_lists, d1=2):
    entries = tuple(
        FeasibleSet(id=f"m{k}", measurement=[float(k)],
                    members=np.asarray(m, dtype=float).reshape(-1, d1))
        for k, m in enumerate(member_lists)
    )
    return FeasibleSetCollection(d1=d1, d2=1, entries=entries)


def kersize_oracle(c, norm):
    """Literal ordered-pair evaluation of the average kernel size."""
    vs = []
    for e in c.entries:
        if e.count == 0:
            vs.append(0.0)
            continue
        terms = []
        for xn in e.members:
            for xm in e.members:
                terms.append(p_dist(xn, xm, norm) ** norm.p)
        vs.append(math.fsum(terms) / e.count**2)
    return (math.fsum(vs) / c.k) ** (1.0 / norm.p)


class TestKersize:
    def test_two_point_set(self):
        c = make_collection([[[0, 0], [0, 2]]])
        value, v = kersize(c, EUCLID)
        assert value == pytest.approx(np.sqrt(2), rel=1e-15)
        assert v[0] == pytest.approx(2.0, rel=1e-15)

    def test_pair_distance_past_overflowing_squares(self):
        """At p = 1, q = 2 a pair whose sum of squares overflows still has its
        l2 distance 2·sqrt(2)·1e200."""
        c = make_collection([[[1e200, -1e200], [-1e200, 1e200]]])
        value, _ = kersize(c, NormSpec(p=1, q=2))
        assert value == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)

    def test_singletons_give_zero(self):
        c = make_collection([[[1, 2]], [[3, 4]], [[0, 0]]])
        value, v = kersize(c, EUCLID)
        assert value == 0.0
        assert v == [0.0, 0.0, 0.0]

    def test_two_sets_p1(self):
        c = make_collection([[[0, 0], [0, 2]], [[1, 1]]])
        value, v = kersize(c, NormSpec(p=1, q=2))
        assert v[0] == pytest.approx(1.0, rel=1e-15)
        assert v[1] == 0.0
        assert value == pytest.approx(0.5, rel=1e-15)

    def test_empty_set_contributes_zero(self):
        c = FeasibleSetCollection(
            d1=2, d2=1,
            entries=(
                FeasibleSet(id="a", measurement=[0.0], members=[[0, 0], [0, 2]]),
                FeasibleSet(id="b", measurement=[1.0], members=np.zeros((0, 2))),
            ),
        )
        value, v = kersize(c, EUCLID)
        assert v[1] == 0.0
        # (1/K) sum v_k = (2 + 0)/2 = 1, then the p-th root
        assert value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2, np.inf])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_oracle_on_random_collections(self, p, q):
        rng = np.random.default_rng(100 * p + (0 if q == np.inf else q))
        for trial in range(10):
            d1 = int(rng.integers(1, 5))
            mask = None
            if d1 > 1 and trial % 2:
                mask = np.zeros(d1, dtype=int)
                mask[rng.choice(d1, size=int(rng.integers(1, d1 + 1)), replace=False)] = 1
            norm = NormSpec(p=p, q=q, mask=mask)
            c = make_collection(
                [rng.normal(size=(int(rng.integers(0, 8)), d1)) * 5
                 for _ in range(int(rng.integers(1, 5)))],
                d1=d1,
            )
            if c.size == 0:  # no members: no kernel size to compare
                with pytest.raises(DataError, match="^collection has no members"):
                    kersize(c, norm)
                continue
            got, _ = kersize(c, norm)
            want = kersize_oracle(c, norm)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("p, q", [(2, 2), (2, 1), (1, np.inf), (1.5, 2)])
    def test_blocked_sum_matches_oracle_on_large_set(self, p, q):
        rng = np.random.default_rng(3)
        c = make_collection([rng.normal(size=(70, 3))], d1=3)
        norm = NormSpec(p=p, q=q)
        got, _ = kersize(c, norm)
        assert got == pytest.approx(kersize_oracle(c, norm), rel=1e-12)

    @pytest.mark.parametrize("p, q, pairwise", [
        (2, 2, False), (1, 1, False),
        (1, 2, True), (1, np.inf, True), (2, 1, True), (2, np.inf, True),
        (1.5, 1, True), (1.5, 2, True), (3, np.inf, True),
    ])
    def test_only_norms_without_closed_form_sum_pairs(self, monkeypatch, p, q, pairwise):
        calls = []
        monkeypatch.setattr("kersize.bounds.distance_powers",
                            lambda *args: calls.append(args) or distance_powers(*args))
        rng = np.random.default_rng(4)
        kersize(make_collection([rng.normal(size=(20, 2)), rng.normal(size=(3, 2))]),
                NormSpec(p=p, q=q))
        assert (len(calls) > 0) == pairwise

    @pytest.mark.parametrize("p", [1, 2])
    def test_closed_forms_match_literal_pair_sum(self, p):
        """p = q splits the pair sum by coordinate; the closed forms must stay
        exact on sets far from the origin relative to their spread."""
        rng = np.random.default_rng(21)
        sets = [
            1e6 + 1e-3 * rng.normal(size=(40, 3)),
            1e6 + 1e-6 * rng.normal(size=(40, 3)),
            1.0 + 1e-9 * rng.normal(size=(40, 3)),
            1e-9 * rng.normal(size=(40, 3)),
            -3e7 + rng.exponential(size=(40, 3)),
            np.repeat(rng.normal(size=(5, 3)), [1, 4, 2, 7, 3], axis=0),
            np.full((6, 3), 2.5),
            np.zeros((0, 3)),
            rng.normal(size=(1, 3)),
            1e6 + rng.normal(size=(2, 3)),
        ]
        for mask in (None, [1, 0, 1], [0, 1, 0]):
            norm = NormSpec(p=p, q=p, mask=mask)
            for X in sets:
                Xm = X if mask is None else X[:, np.asarray(mask, dtype=bool)]
                want = math.fsum(
                    abs(a - b) ** p
                    for i in range(len(Xm)) for j in range(i + 1, len(Xm))
                    for a, b in zip(Xm[i], Xm[j])
                )
                got = pair_power_sum(X, norm)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        members = [rng.normal(size=(6, 3)), rng.normal(size=(4, 3))]
        c1 = make_collection(members, d1=3)
        c2 = make_collection([members[0][::-1], members[1]][::-1], d1=3)
        assert kersize(c1, EUCLID)[0] == pytest.approx(kersize(c2, EUCLID)[0], rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_scaling_homogeneity(self, p):
        rng = np.random.default_rng(13)
        members = [rng.normal(size=(5, 3)), rng.normal(size=(3, 3))]
        norm = NormSpec(p=p, q=2)
        base, _ = kersize(make_collection(members, d1=3), norm)
        lam = 3.7
        scaled, _ = kersize(make_collection([lam * m for m in members], d1=3), norm)
        assert scaled == pytest.approx(lam * base, rel=1e-12)

    def test_monotone_under_noise_enlargement(self):
        """Grid-sampled feasible sets grow with the noise radius and the
        kernel size never shrinks."""
        bounds = [[-1, 1], [-1, 1]]
        grid = SamplerSpec(kind="grid", n_max=400, seed=0, budget=400,
                           grid_resolution=(20, 20))
        y = np.array([0.05, -0.1])
        prev = 0.0
        prev_set = np.zeros((0, 2))
        for eps in (0.1, 0.3, 0.6):
            m = LinearModel(np.eye(2), NoiseSpec(kind="additive", eps_additive=eps), bounds)
            members = sample_feasible(m, y, grid)
            # nested: every previously accepted lattice point is still accepted
            assert {tuple(r) for r in prev_set} <= {tuple(r) for r in members}
            c = make_collection([members])
            value, _ = kersize(c, EUCLID)
            assert value >= prev - 1e-12
            prev, prev_set = value, members

    def test_monotone_under_mixed_noise_enlargement(self):
        """Same nesting with both mixed-noise radii growing together."""
        bounds = [[0.2, 2.0], [0.2, 2.0]]
        grid = SamplerSpec(kind="grid", n_max=900, seed=0, budget=900,
                           grid_resolution=(30, 30))
        y = np.array([1.1, 0.9])
        prev = 0.0
        prev_set = np.zeros((0, 2))
        for eps1, eps2 in ((0.02, 0.05), (0.05, 0.15), (0.12, 0.3)):
            m = LinearModel(np.eye(2),
                            NoiseSpec(kind="mixed", eps_multiplicative=eps1,
                                      eps_additive=eps2), bounds)
            members = sample_feasible(m, y, grid)
            assert {tuple(r) for r in prev_set} <= {tuple(r) for r in members}
            value, _ = kersize(make_collection([members]), EUCLID)
            assert value >= prev - 1e-12
            prev, prev_set = value, members


class TestOptimalMapValue:
    def test_mean_for_p2(self):
        np.testing.assert_allclose(
            optimal_map_value([[0, 0], [0, 2]], EUCLID), [0.0, 1.0]
        )

    def test_singleton_any_p(self):
        for p in (0.5, 1, 2, 7):
            np.testing.assert_array_equal(
                optimal_map_value([[0.0, 0.0]], NormSpec(p=p, q=2)), [0.0, 0.0]
            )

    def test_geometric_median_majority_point(self):
        """With two of three points coincident the geometric median sits on
        the majority point; confirmed against a brute-force grid scan."""
        members = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
        norm = NormSpec(p=1, q=2)
        z = optimal_map_value(members, norm)
        np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-9)
        objective = lambda pt: np.mean(np.linalg.norm(members - pt, axis=1))
        grid = [(a, b) for a in np.linspace(-1, 1, 41) for b in np.linspace(-1, 4, 101)]
        best = min(grid, key=objective)
        assert objective(z) <= objective(best) + 1e-9

    def test_geometric_median_beats_grid_on_random_sets(self):
        rng = np.random.default_rng(17)
        norm = NormSpec(p=1, q=2)
        for _ in range(10):
            members = rng.normal(size=(6, 2)) * 2
            z = optimal_map_value(members, norm)
            objective = lambda pt: np.mean(np.linalg.norm(members - pt, axis=1))
            xs = np.linspace(members[:, 0].min(), members[:, 0].max(), 30)
            ys = np.linspace(members[:, 1].min(), members[:, 1].max(), 30)
            best = min(((a, b) for a in xs for b in ys), key=objective)
            assert objective(z) <= objective(best) + 1e-8

    def test_p_below_one_rejected(self):
        with pytest.raises(UsageError):
            optimal_map_value([[0, 0], [1, 1]], NormSpec(p=0.5, q=2))

    SOLVERS = [(2, 2), (1, 1), (2, 1), (1, 2), (2, np.inf), (1.5, 2)]

    @pytest.mark.parametrize("members", [np.zeros((0, 2)), []], ids=["no-rows", "empty-list"])
    @pytest.mark.parametrize("p, q", SOLVERS)
    def test_no_members_is_usage_error(self, members, p, q):
        """An empty list is no member, as ``FeasibleSet`` reads it, not one
        member of dimension 0."""
        with pytest.raises(UsageError, match="^optimal_map_value needs at least one member$"):
            optimal_map_value(members, NormSpec(p=p, q=q))

    @pytest.mark.parametrize("p, q", SOLVERS)
    def test_members_of_no_coordinate(self, p, q):
        """Members of dimension 0 spread by 0: θ is the empty member with a
        zero certificate, alone and in a collection."""
        norm = NormSpec(p=p, q=q)
        z, cert = optimal_map_value(np.zeros((3, 0)), norm, certificate=True)
        assert z.shape == (0,)
        assert (cert.objective, cert.gap, cert.iterations) == (0.0, 0.0, 0)
        c = FeasibleSetCollection(d1=0, d2=1, entries=tuple(
            FeasibleSet(id=f"m{n}", measurement=[0.0], members=np.zeros((n, 0))) for n in (3, 1)))
        report = verify_bounds(c, {}, norm)
        assert report.theta_loss == 0.0
        assert [(m.theta_objective, m.theta_gap, m.theta_iterations)
                for m in report.per_measurement] == [(0.0, 0.0, 0)] * 2

    @pytest.mark.parametrize("members, p, q, certificate", [
        ([[np.nan, 0.0], [1.0, 1.0]], 2, 2, False),
        ([[np.nan, 0.0], [1.0, 1.0]], 2, 1, True),
        ([[np.inf, 0.0], [1.0, 1.0]], 2, 2, True),
    ], ids=["nan", "nan-certificate", "inf-certificate"])
    def test_non_finite_member_is_data_error(self, members, p, q, certificate):
        """Refused as ``FeasibleSet`` refuses it, not solved into a NaN θ or
        reported as an overflow."""
        with pytest.raises(DataError, match="^the set has non-finite members$"):
            optimal_map_value(members, NormSpec(p=p, q=q), certificate=certificate)

    def test_objective_whose_sum_overflows_is_data_error(self):
        """The mean of θ's powers, about 6.7e307, is a float, but their exact
        sum is not: the certificate is refused; θ alone is still given."""
        members, norm = [[1e308, 0.0], [-1e308, 1.0], [0.0, 2.0]], NormSpec(p=1, q=2)
        with pytest.raises(DataError, match="^the objective of theta overflows float64$"):
            optimal_map_value(members, norm, certificate=True)
        np.testing.assert_array_equal(optimal_map_value(members, norm), [0.0, 2.0])

    @pytest.mark.parametrize("p, q", [(2, 2), (1, 1), (2, 1), (0.5, 2)])
    def test_one_member_of_the_wrong_dimension_is_refused(self, p, q):
        with pytest.raises(UsageError, match="^mask length 2 does not match dimension 3$"):
            optimal_map_value(np.ones((1, 3)), NormSpec(p=p, q=q, mask=[1, 0]))

    def test_masked_coordinates_from_mean(self):
        norm = NormSpec(p=1, q=2, mask=[1, 0])
        members = np.array([[0.0, 10.0], [0.0, 20.0], [3.0, 30.0]])
        z = optimal_map_value(members, norm)
        assert z[1] == pytest.approx(20.0)  # unmasked coordinate: member mean
        assert z[0] == pytest.approx(0.0, abs=1e-8)

    # f(θ) of the projected-subgradient solver this interior-point method
    # replaced, on rng(2024).normal(size=(6, 3)): θ must be no worse
    PARENT_OBJECTIVES = {
        (1, np.inf): 1.4061927763718032,
        (1.5, 1): 3.8190430695761535,
        (1.5, 2): 2.318691067902979,
        (1.5, np.inf): 1.6711371981595617,
        (2, 1): 6.314023259174038,
        (2, np.inf): 1.9886330964089318,
        (3, 1): 17.83519682488834,
        (3, 2): 5.605913827697265,
        (3, np.inf): 2.827855627708318,
    }

    def test_general_exponents_certified(self):
        members = np.random.default_rng(2024).normal(size=(6, 3))
        rng = np.random.default_rng(23)
        for (p, q), parent in self.PARENT_OBJECTIVES.items():
            norm = NormSpec(p=p, q=q)
            obj = lambda pt: math.fsum((vector_norms(members - pt, norm) ** p).tolist()) / 6
            z, cert = optimal_map_value(members, norm, certificate=True)
            assert cert.objective == obj(z)
            # rounding-level slack: where the old solver was already optimal
            # the two agree to the last bit or two
            assert cert.objective <= parent * (1 + 1e-12), (p, q)
            assert 0.0 <= cert.gap <= 1e-9 * cert.objective
            assert cert.iterations > 0
            assert obj(z) <= obj(members.mean(axis=0)) + 1e-9
            lower = cert.objective - cert.gap
            for _ in range(50):  # no random point does better, or beats the dual bound
                trial = members.mean(axis=0) + rng.normal(size=3)
                assert obj(z) <= obj(trial) + 1e-6
                assert lower <= obj(trial)
            for x in members:
                assert lower <= obj(x)

    @pytest.mark.parametrize("q", [1, 2, np.inf])
    @pytest.mark.parametrize("p", [1, 1.5, 3])
    def test_certificate_on_random_sets(self, p, q):
        """The certified gap holds against perturbations of θ and stays within
        1e-9 of the objective on sets with ties (integer data) and with a
        large offset."""
        rng = np.random.default_rng([41, int(2 * p), int(min(q, 3))])
        norm = NormSpec(p=p, q=q)
        for members in (rng.normal(size=(9, 4)), np.round(rng.normal(size=(7, 5)) * 3),
                        1e6 + rng.normal(size=(5, 2)) * 1e-3):
            z, cert = optimal_map_value(members, norm, certificate=True)
            obj = lambda pt: float(np.mean(vector_norms(members - pt, norm) ** p))
            assert 0.0 <= cert.gap <= 1e-9 * cert.objective
            spread = np.abs(members - members.mean(axis=0)).max()
            for _ in range(30):
                trial = z + rng.normal(size=z.shape) * spread * 10.0 ** rng.uniform(-9, 0)
                assert cert.objective - cert.gap <= obj(trial) * (1 + 1e-14)

    @pytest.mark.parametrize("members,j", [
        ([[0.0, 0.0]] * 6 + [[2.0, 0.0], [0.0, 1.0]], 0),
        ([[2.0, 2.0], [1.0, 3.0]] + [[1.0, 2.0]] * 5, 2),
        ([[1.5, -0.5], [4.0, -0.5], [1.5, -0.5], [1.5, 3.0], [-1.0, -2.0]], 0),
        (1e6 + np.array([[1e-3, 2e-3], [4e-3, 0.0], [1e-3, 2e-3], [0.0, 0.0], [2e-3, 5e-3]]), 0),
        ([[0.0]] * 4 + [[2.0]], 0),
        ([[0.0], [1.0], [1.0], [2.0], [5.0]], 1),
        ([[0.0, 0.0, 0.0]] * 4 + [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 0),
    ], ids=["majority", "majority-last", "pair", "offset", "int-1d-majority",
            "int-1d-median", "int-3d-axes"])
    def test_geometric_median_on_repeated_member(self, members, j):
        """A geometric median on a member repeated two or more times, here
        also on integer sets with ties, is that member exactly, certified to
        1e-9 of the objective by Kuhn's test."""
        members = np.array(members)
        norm = NormSpec(p=1, q=2)
        z, cert = optimal_map_value(members, norm, certificate=True)
        np.testing.assert_array_equal(z, members[j])
        assert 0.0 <= cert.gap <= 1e-9 * cert.objective
        obj = lambda pt: float(np.mean(vector_norms(members - pt, norm)))
        rng = np.random.default_rng(members.size)
        spread = np.abs(members - members.mean(axis=0)).max()
        for _ in range(30):
            trial = z + rng.normal(size=z.shape) * spread * 10.0 ** rng.uniform(-9, 0)
            assert cert.objective - cert.gap <= obj(trial) * (1 + 1e-14)

    @pytest.mark.parametrize("q", [1, 2, np.inf])
    @pytest.mark.parametrize("p", [1, 1.5, 3])
    def test_dual_bound_holds_for_any_dual_points(self, p, q):
        """The Fenchel bound behind theta_gap is valid at any point z and for
        any dual points, not only near the optimum: it never exceeds min f."""
        rng = np.random.default_rng([7, int(2 * p), int(min(q, 3))])
        members = rng.normal(size=(8, 3))
        norm = NormSpec(p=p, q=q)
        obj = lambda pt: float(np.mean(vector_norms(members - pt, norm) ** p))
        best = obj(optimal_map_value(members, norm))
        for _ in range(40):
            z = members.mean(axis=0) + rng.normal(size=3) * 3
            R = members - z
            # dual points that do not sum to zero: a shared pull towards the
            # mean residual plus noise
            Y = R.mean(axis=0) * rng.uniform(0.2, 2) + rng.normal(size=R.shape) * 0.3
            powers = vector_norms(R, norm) ** p
            lower = obj(z) - _dual_gap(R, powers, Y, float(p), float(q), Sets([8]))[0]
            assert lower <= best * (1 + 1e-12)

    def test_coordinatewise_median_for_p1_q1(self):
        members = np.array([[0.0, 5.0], [1.0, -1.0], [7.0, 2.0], [3.0, 2.5]])
        norm = NormSpec(p=1, q=1)
        z, cert = optimal_map_value(members, norm, certificate=True)
        np.testing.assert_array_equal(z, [2.0, 2.25])
        assert cert.gap == 0.0 and cert.iterations == 0
        obj = lambda pt: math.fsum(vector_norms(members - pt, norm).tolist()) / 4
        assert cert.objective == obj(z)
        for pt in ([1.0, 2.0], [3.0, 2.5], [2.0, 2.0]):  # the median interval is flat
            assert obj(z) <= obj(np.array(pt)) + 1e-15

    @pytest.mark.parametrize("p,q", [(2, 1), (3, np.inf), (1.5, 2), (1, 1), (1, 2), (2, 2)])
    def test_identical_members_certified_exactly(self, p, q):
        members = np.tile([[1.5, -2.0, 0.25]], (4, 1))
        z, cert = optimal_map_value(members, NormSpec(p=p, q=q), certificate=True)
        np.testing.assert_array_equal(z, members[0])
        assert cert.objective == 0.0 and cert.gap == 0.0

    def test_masked_general_norm_keeps_mean_coordinates(self):
        rng = np.random.default_rng(5)
        members = rng.normal(size=(6, 4))
        norm = NormSpec(p=3, q=np.inf, mask=[1, 0, 1, 0])
        z, cert = optimal_map_value(members, norm, certificate=True)
        np.testing.assert_array_equal(z[[1, 3]], members.mean(axis=0)[[1, 3]])
        z2, cert2 = optimal_map_value(members[:, [0, 2]], NormSpec(p=3, q=np.inf),
                                      certificate=True)
        np.testing.assert_array_equal(z[[0, 2]], z2)
        assert cert == cert2


class TestVerifyBounds:
    def test_two_point_sandwich(self):
        c = make_collection([[[0, 0], [0, 2]]])
        report = verify_bounds(c, {"phi": {"m0": np.array([0.0, 1.0])}}, EUCLID)
        assert report.half_kersize == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert report.losses["phi"] == pytest.approx(1.0, rel=1e-12)
        assert report.kersize == pytest.approx(np.sqrt(2), rel=1e-12)
        assert report.lower_ok and report.theta_upper_ok
        assert report.uniform

    def test_collection_with_no_members_is_data_error(self):
        c = FeasibleSetCollection(d1=2, d2=1, entries=(
            FeasibleSet(id="m0", measurement=[0.0], members=np.zeros((0, 2))),))
        with pytest.raises(DataError, match="^collection has no members; bounds are vacuous$"):
            verify_bounds(c, {}, EUCLID)

    def test_every_bound_refuses_a_memberless_collection(self):
        """A collection whose every set is empty has no pair to bound: the
        kernel size, the bound report and the symmetric bound all refuse it
        with one message, rather than report a vacuous 0."""
        c = FeasibleSetCollection(d1=2, d2=1, entries=tuple(
            FeasibleSet(id=f"m{k}", measurement=[float(k)], members=np.zeros((0, 2)))
            for k in range(3)))
        model = LinearModel(np.array([[0.5, 0.5]]),
                            NoiseSpec(kind="additive", eps_additive=0.1),
                            np.tile([-1.0, 1.0], (2, 1)))
        for bound in (lambda: kersize(c, EUCLID), lambda: verify_bounds(c, {}, EUCLID),
                      lambda: skersize(c, model, EUCLID)):
            with pytest.raises(DataError,
                               match="^collection has no members; bounds are vacuous$"):
                bound()

    def test_singleton_sets_perfect_map(self):
        c = make_collection([[[1, 1]], [[2, 0]]])
        preds = {e.id: e.members[0] for e in c.entries}
        report = verify_bounds(c, {"truth": preds}, EUCLID)
        assert report.half_kersize == 0.0
        assert report.losses["truth"] == 0.0
        assert report.lower_ok and report.theta_upper_ok

    def test_missing_prediction(self):
        c = make_collection([[[0, 0], [0, 2]]])
        with pytest.raises(DataError):
            verify_bounds(c, {"phi": {}}, EUCLID)

    def test_reserved_name(self):
        c = make_collection([[[0, 0], [0, 2]]])
        with pytest.raises(UsageError):
            verify_bounds(c, {"theta": {"m0": np.zeros(2)}}, EUCLID)

    def test_non_uniform_note(self):
        c = make_collection([[[0, 0], [0, 2]], [[1, 1]]])
        report = verify_bounds(c, {}, EUCLID)
        assert not report.uniform
        assert "not certified" in report.note

    def test_ragged_note_certifies_neither_bound(self):
        """The kernel size weights each set equally and the losses weight
        each member equally, so on ragged sets half the kernel size can exceed
        every map's loss, θ's included: the note claims neither bound."""
        c = make_collection([[0.0, 10.0], np.zeros(1000)], d1=1)
        report = verify_bounds(c, {"mean": mean_map(c), "zero": zero_map(c)}, EUCLID)
        assert report.half_kersize == 2.5
        assert report.theta_loss == pytest.approx(math.sqrt(50 / 1002), rel=1e-12)
        assert report.lower_ok_by_map == {"mean": False, "zero": False, "theta": False}
        assert "lower bound and theta upper bound reported but not certified" in report.note
        assert "weights sets equally" in report.note

    def test_non_uniform_lower_bound_can_fail(self):
        """Negative control: with very unequal set sizes a map that is perfect
        on the big set beats half the kernel size."""
        big = np.column_stack([np.full(100, 5.0), np.linspace(0, 1e-9, 100)])
        c = make_collection([[[0, 0], [0, 1]], big])
        norm = NormSpec(p=1, q=2)
        report = verify_bounds(c, {}, norm)
        assert not report.lower_ok  # theta is perfect on the 100-point set

    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_losses_match_core_loss_bitwise(self, p, q):
        """Per-set and aggregate losses come from one set of p-th powers and
        equal ``core.loss`` on the whole dataset and on each set alone, bit
        for bit, on mixed set sizes (an empty one included) under a mask."""
        rng = np.random.default_rng([31, int(p), int(min(q, 3))])
        members = [rng.normal(size=(n, 4)) * 3 for n in (3, 1, 0, 7, 2)]
        c = make_collection(members, d1=4)
        norm = NormSpec(p=p, q=q, mask=[1, 0, 1, 1])
        filled = [e.id for e in c.entries if e.count]
        maps = {"zero": zero_map(c), "median": median_map(c),
                "const": dict.fromkeys(filled, rng.normal(size=4))}
        report = verify_bounds(c, maps, norm)
        theta = {e.id: optimal_map_value(e.members, norm) for e in c.entries if e.count}
        assert report.theta_loss == loss(c, theta, norm)
        for name, preds in {**maps, "theta": theta}.items():
            if name != "theta":
                assert report.losses[name] == loss(c, preds, norm)
            for e, row in zip(c.entries, report.per_measurement):
                if e.count == 0:
                    assert row.losses[name] is None
                    continue
                alone = FeasibleSetCollection(d1=4, d2=1, entries=(e,))
                assert row.losses[name] == loss(alone, preds, norm)
        for e, row in zip(c.entries, report.per_measurement):
            if e.count == 0:
                assert row.theta_objective is row.theta_gap is row.theta_iterations is None
                continue
            assert row.theta_objective == pytest.approx(row.losses["theta"] ** p, rel=1e-12)
            assert 0.0 <= row.theta_gap <= 1e-9 * max(row.theta_objective, 1e-300) or (
                e.count == 1 and row.theta_gap == 0.0)

    @pytest.mark.parametrize("a, b, ok", [
        (1e-10, 1e-12, False),  # a 100x violation in small units
        (1.0 + 1e-10, 1.0, True),
        (1e-12 * (1 + 1e-10), 1e-12, True),
        (1.0 + 1e-8, 1.0, False),
        (-1e-10, -1e-12, True),
        (np.inf, 5.0, False),
        (5.0, np.inf, True),
        (np.inf, np.inf, True),
    ])
    def test_at_most_tolerance_is_relative(self, a, b, ok):
        assert bounds.at_most(a, b) is ok

    @pytest.mark.parametrize("k", [-40, 40])
    @pytest.mark.parametrize("p, q", [(2, 2), (1, 1), (2, 1), (2, np.inf)])
    def test_power_of_two_scaling_scales_values_and_keeps_flags(self, p, q, k):
        """A collection and its predictions scaled by 2^k give every value
        scaled by exactly 2^k and the same flags. The 60-point set makes some
        flag fail, which at 2^-40 lies within an absolute 1e-9."""
        rng = np.random.default_rng(19)
        big = np.column_stack([np.full(60, 5.0), np.linspace(0, 1e-9, 60)])
        sets = [[[0.0, 0.0], [0.0, 1.0]], big, rng.normal(size=(5, 2))]
        guess = {f"m{i}": rng.normal(size=2) for i in range(3)}
        norm = NormSpec(p=p, q=q)
        reports = [
            verify_bounds(make_collection([np.ldexp(s, j) for s in sets]),
                          {"guess": {i: np.ldexp(g, j) for i, g in guess.items()}}, norm)
            for j in (0, k)
        ]
        one, scaled = reports
        assert not all([one.lower_ok, one.theta_upper_ok])
        for name in ("kersize", "half_kersize", "theta_loss"):
            assert getattr(scaled, name) == math.ldexp(getattr(one, name), k), name
        assert scaled.losses == {n: math.ldexp(v, k) for n, v in one.losses.items()}
        assert ((scaled.lower_ok, scaled.theta_upper_ok, scaled.lower_ok_by_map)
                == (one.lower_ok, one.theta_upper_ok, one.lower_ok_by_map))

    def test_per_measurement_rows(self):
        c = make_collection([[[0, 0], [0, 2]], [[1, 1]]])
        report = verify_bounds(c, {"zero": zero_map(c)}, EUCLID)
        row = report.per_measurement[0]
        assert row.id == "m0" and row.n_k == 2
        assert row.half_kersize_single == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert report.per_measurement[1].half_kersize_single == 0.0

    def test_report_rows_serialize_as_asdict(self):
        """A row's dict serializes exactly as ``dataclasses.asdict`` does,
        with and without theta fields, and owns its losses."""
        c = make_collection([[[0, 0], [0, 2]], [], [[1, 1]]])
        report = verify_bounds(c, {"zero": zero_map(c)}, NormSpec(p=2, q=1))
        rows = report.per_measurement
        assert rows[0].theta_objective is not None and rows[1].theta_objective is None
        for row in rows:
            d = row.to_dict()
            assert json.dumps(d) == json.dumps(asdict(row))
            d["losses"]["zero"] = -1.0
            assert row.losses["zero"] != -1.0


    def test_report_document_is_its_fields(self):
        """bounds.json is the report's fields: q = inf as "inf", the three
        flags under inequality_flags and each row as its own document."""
        row = MeasurementReport(id="m0", n_k=2, v_k=2.0, half_kersize_single=0.5,
                                losses={"theta": 1.0, "zero": 1.5}, theta_objective=1.0,
                                theta_gap=0.0, theta_iterations=3)
        report = BoundReport(kersize=1.0, half_kersize=0.5, p=2.0, q=np.inf, mask=[0, 1],
                             uniform=True, losses={"zero": 1.5}, theta_loss=1.0, lower_ok=True,
                             theta_upper_ok=False, lower_ok_by_map={"theta": True, "zero": True},
                             note="", per_measurement=[row])
        assert report.to_dict() == {
            "kersize": 1.0, "half_kersize": 0.5, "p": 2.0, "q": "inf", "mask": [0, 1],
            "uniform": True, "losses": {"zero": 1.5}, "theta_loss": 1.0,
            "inequality_flags": {"lower_ok": True, "theta_upper_ok": False,
                                 "lower_ok_by_map": {"theta": True, "zero": True}},
            "note": "",
            "per_measurement": [{
                "id": "m0", "n_k": 2, "v_k": 2.0, "half_kersize_single": 0.5,
                "losses": {"theta": 1.0, "zero": 1.5}, "theta_objective": 1.0,
                "theta_gap": 0.0, "theta_iterations": 3,
            }],
        }
        report.q = 2.0
        assert report.to_dict()["q"] == 2.0


class TestBatchedTheta:
    """``verify_bounds`` solves θ for every set of a collection in one call of
    the interior-point method; each set must come out as if solved alone."""

    @staticmethod
    def _members():
        rng = np.random.default_rng(2026)
        return [
            rng.normal(size=(1, 3)),
            rng.normal(size=(2, 3)),
            rng.normal(size=(6, 3)) * 2,
            rng.normal(size=(40, 3)),
            np.tile([[0.5, -1.0, 2.0]], (5, 1)),  # all identical: scale 0
            np.round(rng.normal(size=(8, 3)) * 2),  # integer data with ties
            1e6 + 1e-3 * rng.normal(size=(5, 3)),
        ]

    @pytest.mark.parametrize("p,q", [(2, 1), (3, np.inf), (1.5, 2)])
    def test_each_set_matches_its_lone_solve(self, p, q):
        members = self._members()
        norm = NormSpec(p=p, q=q)
        report = verify_bounds(make_collection(members, d1=3), {}, norm)
        iterations = []
        for X, row in zip(members, report.per_measurement):
            z, cert = optimal_map_value(X, norm, certificate=True)
            assert (row.theta_objective, row.theta_gap, row.theta_iterations) == (
                cert.objective, cert.gap, cert.iterations)
            assert 0.0 <= row.theta_gap <= 1e-9 * row.theta_objective
            iterations.append(row.theta_iterations)
        assert iterations[0] == iterations[4] == 0  # a single member; identical members
        assert min(iterations[1:4] + iterations[5:]) > 0
        assert len(set(iterations)) > 2  # counted per set, not per joint step

    @pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (2, np.inf), (1.5, 2), (1, 1)])
    def test_trivial_sets_are_their_member(self, p, q):
        """A single member and three identical members (0.1, whose mean is not
        0.1) take the path every set takes: θ is the member, bit for bit, with
        a zero gap and no iteration, alone and beside other sets."""
        norm = NormSpec(p=p, q=q)
        trivial = [np.array([[0.1, -2.0, 3.0]]), np.full((3, 3), 0.1)]
        c = make_collection(self._members() + trivial, d1=3)
        sets, X, _ = c.stacked
        thetas = bounds._optimal_maps(sets, X, norm)[0]
        report = verify_bounds(c, {}, norm)
        for k, T in zip((-2, -1), trivial):
            z, cert = optimal_map_value(T, norm, certificate=True)
            assert z.tobytes() == T[0].tobytes() == thetas[k].tobytes()
            assert (cert.objective, cert.gap, cert.iterations) == (0.0, 0.0, 0)
            row = report.per_measurement[k]
            assert (row.theta_objective, row.theta_gap, row.theta_iterations) == (0.0, 0.0, 0)

    def test_gram_in_blocks_changes_no_bit(self, monkeypatch):
        """The Schur matrices built one row of the product at a time (the
        memory cap for wide signals) give the same θ, bit for bit."""
        c = make_collection(self._members(), d1=3)
        for norm in (NormSpec(p=2, q=1), NormSpec(p=3, q=np.inf), NormSpec(p=1.5, q=2)):
            whole = verify_bounds(c, {}, norm)
            monkeypatch.setattr(bounds, "_GRAM_BLOCK", 1)
            blocked = verify_bounds(c, {}, norm)
            monkeypatch.undo()
            assert blocked.to_dict() == whole.to_dict()

    def test_breakdown_of_one_set_leaves_the_others(self, monkeypatch):
        """A Newton system that yields NaN for one set stops that set at its
        best certified point; every other set's θ and certificate are
        unchanged, bit for bit."""
        members = self._members()
        c = make_collection(members, d1=3)
        norm = NormSpec(p=2, q=1)
        clean = verify_bounds(c, {}, norm)
        solve = bounds._solve_psd
        calls = []

        def poisoned(A, b):
            x = solve(A, b)
            if not calls:
                # the first call holds every set with two or more distinct
                # members, in order: the second of them is the 6-member set
                x[1] = np.nan
            calls.append(x.shape[0])
            return x

        monkeypatch.setattr(bounds, "_solve_psd", poisoned)
        broken = verify_bounds(c, {}, norm)
        assert calls[0] == 5
        for k, (a, b) in enumerate(zip(clean.per_measurement, broken.per_measurement)):
            if k == 2:
                continue
            assert (a.theta_objective, a.theta_gap, a.theta_iterations) == (
                b.theta_objective, b.theta_gap, b.theta_iterations)
            assert a.losses["theta"] == b.losses["theta"]
        row, best = broken.per_measurement[2], clean.per_measurement[2]
        assert row.theta_iterations == 1
        assert best.theta_objective < row.theta_objective
        assert 0.0 <= row.theta_gap
        assert row.theta_objective - row.theta_gap <= best.theta_objective

    @pytest.mark.parametrize("p,q", [(1.5, 2), (2, 1), (2, np.inf)])
    def test_certified_at_sixty_coordinates(self, p, q):
        """Six sets of 20 members in 60-D: every set converges to a certified
        gap within 1e-9 of its objective. At q = ∞ this needs the Newton
        systems solved at unit diagonal."""
        rng = np.random.default_rng(60)
        members = [rng.normal(size=(20, 60)) * rng.uniform(0.5, 2) for _ in range(6)]
        report = verify_bounds(make_collection(members, d1=60), {}, NormSpec(p=p, q=q))
        for row in report.per_measurement:
            assert row.theta_iterations > 0
            assert 0.0 <= row.theta_gap <= 1e-9 * row.theta_objective


class TestSolvePsd:
    """``bounds._solve_psd``: every set's Newton system from one batched
    eigendecomposition at unit diagonal."""

    def test_rank_deficient_system_gets_the_pseudo_solve(self):
        """With a constant diagonal the solve is A⁺b: no component along the
        null directions, whatever b holds there."""
        H = np.array([[1.0]])
        for _ in range(3):
            H = np.block([[H, H], [H, -H]])
        Q = H / math.sqrt(8.0)  # orthogonal; Q diag(λ) Qᵀ has a constant diagonal
        rng = np.random.default_rng(5)
        lams = [[0, 0, 1, 2, 3, 4, 5, 6], [3, 0, 1, 7, 0.5, 2, 0, 1], [1, 2, 3, 4, 5, 6, 7, 0]]
        A = np.stack([(Q * np.asarray(lam, dtype=float)) @ Q.T for lam in lams])
        b = rng.normal(size=(3, 8))
        x = bounds._solve_psd(A, b)
        for k, lam in enumerate(lams):
            scale = np.linalg.norm(x[k])
            null = Q[:, np.asarray(lam) == 0]
            assert np.abs(null.T @ x[k]).max() <= 1e-12 * scale
            np.testing.assert_allclose(x[k], np.linalg.pinv(A[k]) @ b[k], rtol=0, atol=1e-12 * scale)

    def test_badly_scaled_system_keeps_its_digits(self):
        """A = D M D with M well conditioned and D spanning 12 decades, as a
        barrier's curvatures do: the solve keeps the digits of M's."""
        rng = np.random.default_rng(6)
        G = rng.normal(size=(12, 24))
        M = G @ G.T
        M /= np.sqrt(np.outer(np.diag(M), np.diag(M)))
        D = 10.0 ** np.linspace(-6, 6, 12)
        y = rng.normal(size=12)
        A = D[:, None] * M * D[None, :]
        x = bounds._solve_psd(A[None], (A @ (y / D))[None])[0]
        assert np.abs(D * x - y).max() <= 1e-12 * np.abs(y).max()

    def test_non_finite_set_gets_a_nan_step_alone(self):
        """A NaN in one set's matrix and an inf in another's right-hand side
        give those sets NaN steps, with no error and no warning; every other
        set's step equals its lone solve, bit for bit."""
        rng = np.random.default_rng(7)
        G = rng.normal(size=(4, 5, 7))
        A, b = G @ G.transpose(0, 2, 1), rng.normal(size=(4, 5))
        A[1, 2, 3] = A[1, 3, 2] = np.nan
        b[2, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = bounds._solve_psd(A, b)
            lone = [bounds._solve_psd(A[k : k + 1], b[k : k + 1])[0] for k in (0, 3)]
        assert np.isnan(x[1]).all() and np.isnan(x[2]).all()
        for k, xk in zip((0, 3), lone):
            assert x[k].tobytes() == xk.tobytes()
            np.testing.assert_allclose(A[k] @ x[k], b[k], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k,d", [(0, 3), (2, 0), (0, 0)])
    def test_empty_stack_or_no_coordinates(self, k, d):
        x = bounds._solve_psd(np.zeros((k, d, d)), np.zeros((k, d)))
        assert x.shape == (k, d)


class TestBoundGuarantees:
    def _random_uniform_collection(self, rng, p):
        d1 = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 7))
        members = [rng.normal(size=(n, d1)) * rng.uniform(0.5, 3) for _ in range(k)]
        return make_collection(members, d1=d1), NormSpec(p=p, q=2)

    @pytest.mark.parametrize("p", [1, 2])
    def test_lower_bound_for_arbitrary_maps(self, p):
        rng = np.random.default_rng(p)
        for _ in range(30):
            c, norm = self._random_uniform_collection(rng, p)
            maps = {
                "median": median_map(c),
                "zero": zero_map(c),
                "const": dict.fromkeys(c.ids, rng.normal(size=c.d1) * 3),
                "first": {e.id: e.members[0] for e in c.entries},
            }
            report = verify_bounds(c, maps, norm)
            assert report.lower_ok, report.lower_ok_by_map

    def test_theta_optimality_p2(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            c, norm = self._random_uniform_collection(rng, 2)
            theta_loss = verify_bounds(c, {}, norm).theta_loss
            const = dict.fromkeys(c.ids, rng.normal(size=c.d1))
            for other in (median_map(c), zero_map(c), const):
                assert theta_loss <= loss(c, other, norm) * (1 + 1e-9) + 1e-12

    def test_sandwich_p2(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            c, norm = self._random_uniform_collection(rng, 2)
            report = verify_bounds(c, {}, norm)
            assert report.half_kersize <= report.theta_loss * (1 + 1e-9) + 1e-12
            assert report.theta_loss <= report.kersize * (1 + 1e-9) + 1e-12
