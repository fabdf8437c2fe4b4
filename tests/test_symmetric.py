"""Tests for the pseudoinverse, kernel projections, reflections and SKersize."""

import warnings

import numpy as np
import pytest

from kersize import symmetric
from kersize.core import DataError, NormSpec, PairedDataset, UsageError, loss
from kersize.forward import DownsampleModel, LinearModel, NoiseSpec
from kersize.symmetric import (
    band_projector,
    kernel_projection,
    pseudoinverse,
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


def assert_projector(P, operator):
    """Dense oracle for the projector invariants kernel_projection verifies:
    symmetric to 1e-10, idempotent (P @ P) and annihilated to 1e-8."""
    assert np.max(np.abs(P - P.T), initial=0.0) <= 1e-10
    assert np.max(np.abs(P @ P - P), initial=0.0) <= 1e-8
    assert np.max(np.abs(operator @ P), initial=0.0) <= 1e-8


def pairs_of(x, y):
    """One feasible set per (signal, measurement) row."""
    n = len(x)
    return PairedDataset(x=x, y=y, group=np.arange(n),
                         group_ids=tuple(f"m{i}" for i in range(n)))


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

    def test_overflowing_inverse_is_data_error(self):
        # 1/1e-320 overflows float64; no RuntimeWarning may leak either
        with pytest.raises(DataError, match="operator is too small to invert"):
            pseudoinverse([[1e-320, 0.0]])


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
            assert_projector(kernel_projection(A).matrix, A)

    def test_joint_mode(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 4))
        proj = kernel_projection(A, mode="joint")
        assert proj.matrix.shape == (6, 6)
        B = np.hstack([A, np.eye(2)])
        assert_projector(proj.matrix, B)

    @pytest.mark.parametrize("mode", ["signal_only", "joint"])
    def test_projector_bits_pinned(self, mode):
        """The projector is I - B^+ B symmetrized, bit for bit: the superres
        collection's digest depends on every bit of the band projector."""
        if mode == "joint":
            A = np.random.default_rng(8).normal(size=(40, 150))  # n = 190: ragged blocks
            B = np.hstack([A, np.eye(40)])
        else:
            A = B = DownsampleModel(bands=3, height=16, width=16, factor=4, r_max=1.0,
                                    noise=NoiseSpec(kind="additive")).band_matrix()
        P0 = np.eye(B.shape[1]) - pseudoinverse(B) @ B
        expected = 0.5 * (P0 + P0.T)
        P = kernel_projection(A, mode=mode).matrix
        np.testing.assert_array_equal(P.view(np.uint64), expected.view(np.uint64))

    def test_projector_is_wrapped_not_copied(self, monkeypatch):
        """kernel_projection's own verified P is the wrapper's matrix; a
        matrix a caller can still write to is copied and frozen."""
        seen = []

        def spy(P, L, B):
            seen.append(P)
            return verify(P, L, B)

        verify = symmetric._verify_projector
        monkeypatch.setattr(symmetric, "_verify_projector", spy)
        proj = kernel_projection(AVG)
        assert proj.matrix is seen[0]
        assert not proj.matrix.flags.writeable
        M = np.eye(3)
        for given in (M, M[:], np.eye(3, dtype=np.float32)):
            wrapped = symmetric.KernelProjector(given).matrix
            assert wrapped is not given and not wrapped.flags.writeable
            assert wrapped.dtype == np.float64
        frozen = M.copy()
        M[0, 0] = 5.0
        assert symmetric.KernelProjector(frozen).matrix[0, 0] == 1.0
        view = M[:]
        view.setflags(write=False)  # read-only, but M can still change it
        assert symmetric.KernelProjector(view).matrix is not view

    def test_tiny_operator_is_data_error(self):
        # 1/sigma overflows float64: an error naming the operator, no warning
        with pytest.raises(DataError, match="operator"):
            kernel_projection([[1e-320, 0.0]])


def factored_and_dense(B, L):
    """Idempotency residual of P = ½(P0 + P0ᵀ), P0 = I - L B: from the factors
    as kernel_projection computes it, and densely from P @ P."""
    P0 = np.eye(B.shape[1]) - L @ B
    P = 0.5 * (P0 + P0.T)
    factored = symmetric._idempotency_residual(P, L, B, B @ P)
    return factored, np.max(np.abs(P @ P - P), initial=0.0)


class TestProjectorVerification:
    """Each check of kernel_projection's verifier, reached through a corrupted
    pseudoinverse."""

    B = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 3.0, 0.5]])

    def corrupt(self, monkeypatch, fn):
        real = symmetric.pseudoinverse
        monkeypatch.setattr(symmetric, "pseudoinverse", lambda B, tol=None: fn(real(B, tol)))

    def test_not_symmetric(self, monkeypatch):
        self.corrupt(monkeypatch, lambda L: np.full_like(L, np.nan))
        with pytest.raises(DataError, match="projector is not symmetric"):
            kernel_projection(self.B)

    def test_not_idempotent(self, monkeypatch):
        self.corrupt(monkeypatch, lambda L: 0.5 * L)
        with pytest.raises(DataError, match="projector is not idempotent"):
            kernel_projection(self.B)

    def test_does_not_annihilate(self, monkeypatch):
        self.corrupt(monkeypatch, np.zeros_like)  # P = I: a projector, not onto the kernel
        with pytest.raises(DataError, match="projector does not annihilate the operator"):
            kernel_projection(self.B)

    def test_factored_residual_equals_dense_when_large(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            m, n = int(rng.integers(1, 8)), int(rng.integers(2, 12))
            B = rng.normal(size=(m, n))
            for L in (0.5 * pseudoinverse(B), rng.normal(size=(n, m))):
                factored, dense = factored_and_dense(B, L)
                assert dense > 1e-3
                assert factored == pytest.approx(dense, rel=1e-12)

    def test_factored_residual_small_on_true_projectors(self):
        rng = np.random.default_rng(31)
        operators = [np.zeros((0, 5)), np.zeros((3, 5))]
        for _ in range(10):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 40))
            A = random_rank_matrix(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
            operators += [A, np.hstack([A, np.eye(m)])]  # signal_only and joint
        for B in operators:
            factored, dense = factored_and_dense(B, pseudoinverse(B))
            assert factored <= 1e-13
            assert abs(factored - dense) <= 1e-13


class TestReflect:
    """The reflection of each pair, read from the symmetrized dataset."""

    WIDE = NoiseSpec(kind="additive", eps_additive=1e3)  # admits any joint noise here

    def test_row_space_signal_is_fixed_point(self):
        x = np.array([[2.0, 2.0]])  # multiple of A^T
        res = skersize(pairs_of(x, x @ AVG.T), AVG, NoiseSpec(kind="additive"), EUCLID)
        np.testing.assert_allclose(res.symmetrized.x[1], x[0], atol=1e-12)

    def test_worked_example(self):
        res = skersize(pairs_of([[1.0, 3.0]], [[2.0]]), AVG, NoiseSpec(kind="additive"),
                       EUCLID)
        x_refl = res.symmetrized.x[1]
        np.testing.assert_allclose(x_refl, [3.0, 1.0], atol=1e-10)
        # same measurement: A x' = A x = 2
        np.testing.assert_allclose(AVG @ x_refl, [2.0], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(2, 5))
        for mode in ("signal_only", "joint"):
            x, e = rng.normal(size=(4, 5)), rng.normal(size=(4, 2))
            y = x @ A.T + e
            once = skersize(pairs_of(x, y), A, self.WIDE, EUCLID, mode=mode)
            twice = skersize(pairs_of(once.symmetrized.x[4:], y), A, self.WIDE, EUCLID,
                             mode=mode)
            x_twice = twice.symmetrized.x[4:]
            np.testing.assert_allclose(x_twice, x, atol=1e-10)
            np.testing.assert_allclose(y - x_twice @ A.T, e, atol=1e-10)

    def test_joint_preserves_measurement(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 6))
        x, e = rng.normal(size=6), rng.normal(size=3)
        res = skersize(pairs_of([x], [A @ x + e]), A, self.WIDE, EUCLID, mode="joint")
        # the reflected noise e' is the noise half of (x, e) - 2 P (x, e)
        v = np.concatenate([x, e])
        w = v - 2.0 * kernel_projection(A, mode="joint").matrix @ v
        np.testing.assert_allclose(res.symmetrized.x[1], w[:6], atol=1e-12)
        np.testing.assert_allclose(A @ res.symmetrized.x[1] + w[6:], A @ x + e, atol=1e-10)

    def test_noise_violation_flag(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(2, 4))
        tight = NoiseSpec(kind="additive", eps_additive=1e-12)
        x = rng.normal(size=(1, 4)) * 5  # noise-free: e = 0
        res = skersize(pairs_of(x, x @ A.T), A, tight, EUCLID, mode="joint")
        # the reflected noise is generically nonzero, far beyond the tiny ball
        assert res.noise_violations == [0]


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
        assert_projector(band_projector(model).matrix, model.band_matrix())

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
