"""Tests for the pseudoinverse, kernel projections, reflections and SKersize."""

import warnings

import numpy as np
import pytest

from kersize.core import DataError, NormSpec, PairedDataset, UsageError, loss
from kersize.forward import DownsampleModel, LinearModel, NoiseSpec
from kersize.symmetric import (
    band_projector,
    kernel_projection,
    pseudoinverse,
    reflect,
    skersize,
)

EUCLID = NormSpec(p=2, q=2)
AVG = np.array([[0.5, 0.5]])


def penrose_residuals(A, Ap):
    return (
        np.max(np.abs(A @ Ap @ A - A), initial=0.0),
        np.max(np.abs(Ap @ A @ Ap - Ap), initial=0.0),
        np.max(np.abs((A @ Ap).T - A @ Ap), initial=0.0),
        np.max(np.abs((Ap @ A).T - Ap @ A), initial=0.0),
    )


def random_rank_matrix(rng, m, n, r, scale=1.0):
    if r == 0:
        return np.zeros((m, n))
    u, _ = np.linalg.qr(rng.normal(size=(m, r)))
    v, _ = np.linalg.qr(rng.normal(size=(n, r)))
    s = rng.uniform(0.2, 2.0, r) * scale
    return (u * s) @ v.T


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_selector_row(self):
        np.testing.assert_allclose(pseudoinverse([[1.0, 0.0]]), [[1.0], [0.0]], atol=1e-14)

    def test_averaging_row_full_rank_formula(self):
        # A^T (A A^T)^(-1) = (0.5, 0.5)^T / 0.5
        np.testing.assert_allclose(pseudoinverse(AVG), [[1.0], [1.0]], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_penrose_conditions_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            r = int(rng.integers(0, min(m, n) + 1))
            A = random_rank_matrix(rng, m, n, r)
            assert max(penrose_residuals(A, pseudoinverse(A))) < 1e-8

    def test_tolerance_drops_small_singular_values(self):
        A = np.diag([1.0, 1e-12])
        Ap = pseudoinverse(A, tol=1e-6)
        np.testing.assert_allclose(Ap, np.diag([1.0, 0.0]), atol=1e-14)


    def test_rank_deficient_emits_no_warning(self):
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Ap = pseudoinverse(A)
        assert max(penrose_residuals(A, Ap)) < 1e-12


class TestKernelProjection:
    def test_invertible_matrix_trivial_kernel(self):
        P = kernel_projection([[2.0, 1.0], [0.0, 1.0]]).matrix
        np.testing.assert_allclose(P, np.zeros((2, 2)), atol=1e-12)

    def test_averaging_row(self):
        P = kernel_projection(AVG).matrix
        np.testing.assert_allclose(P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_selector_row(self):
        P = kernel_projection([[1.0, 0.0]]).matrix
        np.testing.assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            A = random_rank_matrix(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
            proj = kernel_projection(A)
            proj.check(operator=A)  # symmetric, idempotent, annihilating

    def test_joint_mode(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 4))
        proj = kernel_projection(A, mode="joint")
        assert proj.dim == 6 and proj.d_signal == 4
        B = np.hstack([A, np.eye(2)])
        proj.check(operator=B)


class TestReflect:
    def test_row_space_signal_is_fixed_point(self):
        proj = kernel_projection(AVG)
        x = np.array([2.0, 2.0])  # multiple of A^T
        r = reflect(x, np.zeros(1), proj)
        np.testing.assert_allclose(r.x, x, atol=1e-12)

    def test_worked_example(self):
        proj = kernel_projection(AVG)
        r = reflect(np.array([1.0, 3.0]), np.zeros(1), proj)
        np.testing.assert_allclose(r.x, [3.0, 1.0], atol=1e-10)
        # same measurement: A x' = A x = 2
        np.testing.assert_allclose(AVG @ r.x, [2.0], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(2, 5))
        for mode in ("signal_only", "joint"):
            proj = kernel_projection(A, mode=mode)
            x, e = rng.normal(size=5), rng.normal(size=2)
            once = reflect(x, e, proj)
            twice = reflect(once.x, once.e, proj)
            np.testing.assert_allclose(twice.x, x, atol=1e-10)
            np.testing.assert_allclose(twice.e, e, atol=1e-10)

    def test_joint_preserves_measurement(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 6))
        proj = kernel_projection(A, mode="joint")
        x, e = rng.normal(size=6), rng.normal(size=3)
        r = reflect(x, e, proj)
        np.testing.assert_allclose(A @ r.x + r.e, A @ x + e, atol=1e-10)

    def test_noise_violation_flag(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(2, 4))
        proj = kernel_projection(A, mode="joint")
        tight = NoiseSpec(kind="additive", eps_additive=1e-12)
        x, e = rng.normal(size=4) * 5, np.zeros(2)
        r = reflect(x, e, proj, noise=tight)
        # the reflected noise is generically nonzero, far beyond the tiny ball
        assert r.noise_violation


class TestSkersize:
    def single_pair(self):
        return PairedDataset(x=[[1.0, 3.0]], y=[[2.0]], group=[0], group_ids=("m0",))

    def test_worked_example(self):
        res = skersize(self.single_pair(), AVG, NoiseSpec(kind="additive"), EUCLID)
        assert res.skersize == pytest.approx(np.sqrt(2), rel=1e-12)
        assert res.symmetrized.size == 2
        np.testing.assert_allclose(res.symmetrized.x[1], [3.0, 1.0], atol=1e-10)
        # the mean map attains the bound on the symmetrized dataset
        mean_loss = loss(res.symmetrized, {"m0": np.array([2.0, 2.0])}, EUCLID)
        assert mean_loss == pytest.approx(res.skersize, rel=1e-12)

    def test_row_space_dataset_gives_zero(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(2, 4))
        w = rng.normal(size=(5, 2))
        x = w @ A  # all rows in the row space of A
        y = x @ A.T
        pairs = PairedDataset(x=x, y=y, group=np.arange(5),
                              group_ids=tuple(f"m{i}" for i in range(5)))
        res = skersize(pairs, A, NoiseSpec(kind="additive"), EUCLID)
        assert res.skersize == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(res.symmetrized.x[5:], x, atol=1e-8)

    def test_infeasible_pair_named(self):
        pairs = PairedDataset(x=[[1.0, 3.0], [0.0, 0.0]], y=[[2.0], [5.0]],
                              group=[0, 1], group_ids=("m0", "m1"))
        with pytest.raises(DataError, match="pair 1"):
            skersize(pairs, AVG, NoiseSpec(kind="additive", eps_additive=0.5), EUCLID)

    def test_multiplicative_noise_rejected(self):
        with pytest.raises(UsageError):
            skersize(self.single_pair(), AVG,
                     NoiseSpec(kind="multiplicative", eps_multiplicative=0.1), EUCLID)

    def test_measurement_preservation_signal_mode(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(3, 7))
        x = rng.normal(size=(6, 7))
        e = rng.uniform(-0.1, 0.1, size=(6, 3))
        y = x @ A.T + e
        pairs = PairedDataset(x=x, y=y, group=np.arange(6),
                              group_ids=tuple(f"m{i}" for i in range(6)))
        res = skersize(pairs, A, NoiseSpec(kind="additive", eps_additive=0.1), EUCLID)
        resid = res.symmetrized.x[6:] @ A.T + e - y
        assert np.max(np.abs(resid)) < 1e-10

    def test_lower_bound_on_symmetrized_dataset(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(2, 5))
        x = rng.normal(size=(8, 5))
        y = x @ A.T
        ids = tuple(f"m{i}" for i in range(8))
        pairs = PairedDataset(x=x, y=y, group=np.arange(8), group_ids=ids)
        res = skersize(pairs, A, NoiseSpec(kind="additive"), EUCLID)
        for trial in range(10):
            preds = {i: rng.normal(size=5) for i in ids}
            assert res.skersize <= loss(res.symmetrized, preds, EUCLID) * (1 + 1e-9) + 1e-12

    def test_joint_mode_flags_and_bound(self):
        rng = np.random.default_rng(18)
        A = rng.normal(size=(2, 5))
        x = rng.normal(size=(4, 5))
        e = rng.uniform(-0.05, 0.05, size=(4, 2))
        y = x @ A.T + e
        ids = tuple(f"m{i}" for i in range(4))
        pairs = PairedDataset(x=x, y=y, group=np.arange(4), group_ids=ids)
        res = skersize(pairs, A, NoiseSpec(kind="additive", eps_additive=0.05),
                       EUCLID, mode="joint")
        assert res.mode == "joint"
        # reflected pairs keep their measurements even in joint mode
        e_refl = res.symmetrized.y[4:] - res.symmetrized.x[4:] @ A.T
        assert isinstance(res.noise_violations, list)
        for m in range(4):
            if m not in res.noise_violations:
                assert np.max(np.abs(e_refl[m])) <= 0.05 + 1e-9

    @pytest.mark.parametrize("mode", ["signal_only", "joint"])
    def test_linear_model_matches_raw_matrix_bitwise(self, mode):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 6))
        model = LinearModel(A, NoiseSpec(kind="additive", eps_additive=0.1),
                            np.tile([-1.0, 1.0], (6, 1)))
        x = rng.uniform(-0.5, 0.5, size=(5, 6))
        y = x @ A.T + rng.uniform(-0.1, 0.1, size=(5, 3))
        pairs = PairedDataset(x=x, y=y, group=np.arange(5),
                              group_ids=tuple(f"m{i}" for i in range(5)))
        via_model = skersize(pairs, model, model.noise, EUCLID, mode=mode)
        via_matrix = skersize(pairs, A, model.noise, EUCLID, mode=mode)
        np.testing.assert_array_equal(via_model.v_norms, via_matrix.v_norms)
        np.testing.assert_array_equal(via_model.symmetrized.x, via_matrix.symmetrized.x)
        assert via_model.skersize == via_matrix.skersize

    @pytest.mark.parametrize("operator", ["matrix", "linear", "downsample"])
    def test_signal_length_mismatch_is_usage_error(self, operator):
        noise = NoiseSpec(kind="additive", eps_additive=0.05)
        model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0, noise=noise)
        op = {
            "matrix": model.matrix(),
            "linear": LinearModel(model.matrix(), noise, np.tile([0.0, 1.0], (16, 1))),
            "downsample": model,
        }[operator]
        pairs = PairedDataset(x=np.full((2, 15), 0.5), y=np.full((2, 4), 0.5),
                              group=[0, 1], group_ids=("a", "b"))
        with pytest.raises(UsageError, match="16 columns, pairs have d1=15"):
            skersize(pairs, op, noise, EUCLID)

    def test_downsample_band_projector_matches_dense(self):
        rng = np.random.default_rng(19)
        for bands, height, width, factor in [(2, 8, 8, 2), (3, 8, 12, 4)]:
            model = DownsampleModel(bands=bands, height=height, width=width, factor=factor,
                                    r_max=1.0,
                                    noise=NoiseSpec(kind="additive", eps_additive=0.05))
            x = rng.uniform(0.2, 0.8, size=(3, model.d1))
            e = rng.uniform(-0.05, 0.05, size=(3, model.d2))
            y = model.noiseless_batch(x) + e
            ids = ("a", "b", "c")
            pairs = PairedDataset(x=x, y=y, group=np.arange(3), group_ids=ids)
            via_model = skersize(pairs, model, model.noise, EUCLID)
            via_dense = skersize(pairs, model.matrix(), model.noise, EUCLID)
            assert via_model.skersize == pytest.approx(via_dense.skersize, rel=1e-10)
            np.testing.assert_allclose(via_model.v_norms, via_dense.v_norms, rtol=1e-10)
            np.testing.assert_allclose(via_model.symmetrized.x, via_dense.symmetrized.x,
                                       atol=1e-9)

    def test_band_projector_invariants(self):
        model = DownsampleModel(bands=3, height=16, width=16, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        proj = band_projector(model)
        proj.check(operator=model.band_matrix())

    def test_joint_mode_with_downsample_model(self):
        model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        rng = np.random.default_rng(41)
        x = rng.uniform(0.2, 0.8, size=(2, model.d1))
        e = rng.uniform(-0.05, 0.05, size=(2, model.d2))
        y = model.noiseless_batch(x) + e
        pairs = PairedDataset(x=x, y=y, group=np.arange(2), group_ids=("a", "b"))
        res = skersize(pairs, model, model.noise, EUCLID, mode="joint")
        # measurements preserved under the joint reflection
        A = model.matrix()
        e_refl = res.symmetrized.y[2:] - res.symmetrized.x[2:] @ A.T
        np.testing.assert_allclose(res.symmetrized.x[2:] @ A.T + e_refl, y, atol=1e-9)
        assert res.skersize >= 0.0

    def test_out_of_box_reflections_flagged_not_rejected(self):
        """A high-contrast image reflects outside [0, r_max]; the pair is
        flagged but still appended."""
        model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.0))
        x = np.zeros((1, 16))
        x[0, 5] = 1.0  # sharp spike: kernel component pushes past the box
        y = model.noiseless_batch(x)
        pairs = PairedDataset(x=x, y=y, group=[0], group_ids=("m0",))
        res = skersize(pairs, model, model.noise, EUCLID)
        assert res.symmetrized.size == 2
        refl = res.symmetrized.x[1]
        outside = np.any(refl < 0.0) or np.any(refl > 1.0)
        assert outside == (0 in res.bounds_violations)
        assert outside  # this construction does leave the box


class TestCrossBoundIdentity:
    @pytest.mark.parametrize("p", [1, 2])
    def test_two_point_sets_link_the_bounds(self, p):
        """Kersize of the two-point symmetric sets equals
        2^(1-1/p) * SKersize."""
        from kersize.bounds import kersize as compute_kersize
        from kersize.core import FeasibleSet, FeasibleSetCollection

        rng = np.random.default_rng(20 + p)
        norm = NormSpec(p=p, q=2)
        for _ in range(10):
            d1 = int(rng.integers(2, 6))
            d2 = int(rng.integers(1, d1))
            A = rng.normal(size=(d2, d1))
            m_pairs = int(rng.integers(1, 5))
            x = rng.normal(size=(m_pairs, d1))
            y = x @ A.T
            ids = tuple(f"m{i}" for i in range(m_pairs))
            pairs = PairedDataset(x=x, y=y, group=np.arange(m_pairs), group_ids=ids)
            res = skersize(pairs, A, NoiseSpec(kind="additive"), norm)
            entries = tuple(
                FeasibleSet(id=ids[i], measurement=y[i],
                            members=np.vstack([x[i], res.symmetrized.x[m_pairs + i]]))
                for i in range(m_pairs)
            )
            c = FeasibleSetCollection(d1=d1, d2=d2, entries=entries)
            value, _ = compute_kersize(c, norm)
            expected = 2 ** (1 - 1 / p) * res.skersize
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-12)
