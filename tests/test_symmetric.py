"""Tests for the pseudoinverse, kernel projections, reflections and SKersize."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from kersize import symmetric
from kersize.core import (DataError, FeasibleSet, FeasibleSetCollection, NormSpec, UsageError,
                          collection_from_dataset, dataset_from_collection, loss)
from kersize.forward import DownsampleModel, LinearModel, NoiseSpec
from kersize.symmetric import kernel_projection, pseudoinverse, skersize

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
    symmetric to 1e-10, idempotent (P @ P) and annihilated to 1e-8 of the
    operator's largest entry."""
    assert np.max(np.abs(P - P.T), initial=0.0) <= 1e-10
    assert np.max(np.abs(P @ P - P), initial=0.0) <= 1e-8
    assert np.max(np.abs(operator @ P), initial=0.0) <= 1e-8 * np.max(np.abs(operator),
                                                                       initial=0.0)


def pairs_of(x, y):
    """One feasible set per (signal, measurement) row."""
    n = len(x)
    return collection_from_dataset(x, y, np.arange(n), tuple(f"m{i}" for i in range(n)))


def unbounded(A, noise=NoiseSpec(kind="additive")):
    """A with ``noise`` as a linear model with no signal box: every
    coordinate in [-inf, inf]."""
    return LinearModel(A, noise, np.tile([-np.inf, np.inf], (np.shape(A)[1], 1)))


def dense_matrix(model):
    """Test-side oracle: the whole multi-band downsampling matrix, block
    diagonal over the bands."""
    return np.kron(np.eye(model.bands), model.band_matrix())


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
        P = kernel_projection([[2.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(P, np.zeros((2, 2)), atol=1e-12)

    def test_averaging_row(self):
        P = kernel_projection(AVG)
        np.testing.assert_allclose(P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_selector_row(self):
        P = kernel_projection([[1.0, 0.0]])
        np.testing.assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            A = random_rank_matrix(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
            assert_projector(kernel_projection(A), A)

    def test_joint_mode(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 4))
        P = kernel_projection(A, mode="joint")
        assert P.shape == (6, 6)
        assert_projector(P, np.hstack([A, np.eye(2)]))

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
        P = kernel_projection(A, mode=mode)
        np.testing.assert_array_equal(P.view(np.uint64), expected.view(np.uint64))

    def test_projector_zeros_are_positive(self):
        """A selector's B^+ B holds exact zeros, and I - B^+ B makes them +0:
        building P in place must not turn them into -0."""
        A = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        P = kernel_projection(A)
        np.testing.assert_array_equal(P, np.diag([0.0, 1.0, 0.0, 1.0]))
        assert not np.signbit(P).any()

    def test_projector_is_returned_not_copied(self, monkeypatch):
        """kernel_projection returns, read-only, the array it filled with the
        verified row blocks of _projector_rows: no second copy of P."""
        seen = []

        def spy(B):
            for I, block in rows(B):
                seen.append((I, block))
                yield I, block

        rows = symmetric._projector_rows
        monkeypatch.setattr(symmetric, "_projector_rows", spy)
        monkeypatch.setattr(symmetric, "_ROW_BLOCK", 3 * 7)  # blocks of 3, 3 and 1 rows
        A = np.random.default_rng(33).normal(size=(2, 7))
        P = kernel_projection(A)
        assert [I for I, _ in seen] == [slice(0, 3), slice(3, 6), slice(6, 7)]
        for I, block in seen:
            np.testing.assert_array_equal(P[I].view(np.uint64), block.view(np.uint64))
        assert P.base is None and not P.flags.writeable

    @pytest.mark.parametrize("mode", ["signal_only", "joint"])
    def test_peak_memory_below_twice_the_projector(self, mode):
        """P is the only n x n array kernel_projection holds: a second one
        would take the traced peak past 2 x P."""
        if mode == "joint":
            A = np.random.default_rng(9).normal(size=(200, 2800))  # n = 3000
        else:
            A = DownsampleModel(bands=3, height=48, width=48, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive")).band_matrix()  # n = 2304
        tracemalloc.start()
        try:
            P = kernel_projection(A, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * P.nbytes

    def test_tiny_operator_is_data_error(self):
        # 1/sigma overflows float64: an error naming the operator, no warning
        with pytest.raises(DataError, match="operator"):
            kernel_projection([[1e-320, 0.0]])

    @pytest.mark.parametrize("call, error, message", [
        (lambda: pseudoinverse([0.5, 0.5]), UsageError, "pseudoinverse expects a matrix"),
        (lambda: pseudoinverse([[0.5, np.inf]]), DataError, "matrix has non-finite entries"),
        (lambda: kernel_projection([0.5, 0.5]), UsageError,
         "kernel_projection expects a matrix"),
        (lambda: kernel_projection(AVG, mode="signal"), UsageError,
         "unknown projection mode 'signal'"),
    ], ids=["pinv-vector", "pinv-non-finite", "projection-vector", "projection-mode"])
    def test_operator_that_is_no_finite_matrix_is_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


def dense_residuals(B, L):
    """Test-side oracle: max |B P| and ‖P² - P‖_F of P = ½(P0 + P0ᵀ),
    P0 = I - L B, from the whole n x n P."""
    P0 = np.eye(B.shape[1]) - L @ B
    P = 0.5 * (P0 + P0.T)
    return np.max(np.abs(B @ P), initial=0.0), float(np.linalg.norm(P @ P - P))


def assert_residuals_match_dense(B, L):
    """kernel_projection's factored residuals equal the dense oracle's to
    1e-12 of their scale: max |B| for B P, 1 (P's) for P² - P."""
    annihilation, idempotency = symmetric._projector_residuals(B, L)
    dense_annihilation, dense_idempotency = dense_residuals(B, L)
    scale = np.max(np.abs(B), initial=0.0)
    assert abs(annihilation - dense_annihilation) <= 1e-12 * max(scale, dense_annihilation)
    assert abs(idempotency - dense_idempotency) <= 1e-12 * max(1.0, dense_idempotency)
    return annihilation, idempotency


def verification_operators():
    """The operator shapes kernel_projection verifies, one pytest param each."""
    rng = np.random.default_rng(31)
    A = rng.normal(size=(4, 30))
    return [pytest.param(B, id=name) for name, B in [
        ("wide", A),
        ("tall", rng.normal(size=(9, 5))),
        ("square", rng.normal(size=(6, 6))),
        ("rank_deficient", random_rank_matrix(rng, 6, 20, 3)),
        ("zero_rows", np.zeros((0, 5))),
        ("zero", np.zeros((3, 8))),
        ("joint", np.hstack([A, np.eye(4)])),
        ("large", np.ldexp(A, 600)),  # B Bᵀ overflows and Lᵀ L underflows unless rescaled
        ("small", np.ldexp(A, -600)),
    ]]


class TestProjectorVerification:
    """Each check of kernel_projection's verifier, reached through a corrupted
    pseudoinverse, and the factored residuals against a dense oracle."""

    B = np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 3.0, 0.5]])

    def corrupt(self, monkeypatch, fn):
        real = symmetric.pseudoinverse
        monkeypatch.setattr(symmetric, "pseudoinverse", lambda B, tol=None: fn(real(B, tol)))

    def test_not_finite(self, monkeypatch):
        self.corrupt(monkeypatch, lambda L: np.full_like(L, np.nan))
        with pytest.raises(DataError, match="projector has non-finite entries"):
            kernel_projection(self.B)

    def test_not_idempotent(self, monkeypatch):
        self.corrupt(monkeypatch, lambda L: 0.5 * L)
        with pytest.raises(DataError, match="projector is not idempotent"):
            kernel_projection(self.B)

    def test_does_not_annihilate(self, monkeypatch):
        self.corrupt(monkeypatch, np.zeros_like)  # P = I: a projector, not onto the kernel
        with pytest.raises(DataError, match="projector does not annihilate the operator"):
            kernel_projection(self.B)

    def test_nan_in_first_row_block_is_the_residual(self, monkeypatch):
        """A NaN in L's first row reaches only the first row block of the
        factored checks, and both residuals are still NaN; _projector_rows
        then fails the idempotency check after yielding every (finite)
        block."""
        B = np.random.default_rng(32).normal(size=(3, 12))
        L = pseudoinverse(B)
        monkeypatch.setattr(symmetric, "_ROW_BLOCK", 4 * 12)  # three blocks of 4 rows
        assert len(symmetric._row_blocks(12)) == 3
        annihilation, idempotency = symmetric._projector_residuals(B, L)
        assert annihilation <= 1e-13 and idempotency <= 1e-13
        L[0] = np.nan
        assert all(np.isnan(symmetric._projector_residuals(B, L)))

        def nan_first_row(B, L):
            L = L.copy()
            L[0] = np.nan
            return residuals(B, L)

        residuals = symmetric._projector_residuals
        monkeypatch.setattr(symmetric, "_projector_residuals", nan_first_row)
        blocks = []
        with pytest.raises(DataError, match="projector is not idempotent"):
            for _, block in symmetric._projector_rows(B):
                blocks.append(block)
        assert len(blocks) == 3 and all(np.isfinite(b).all() for b in blocks)

    def test_factored_residual_equals_dense_when_large(self):
        """A wrong L gives residuals of order one; the factored ones match the
        dense oracle to 1e-12, on the wide path (2m < n) and the square one."""
        rng = np.random.default_rng(30)
        for _ in range(10):
            m, n = int(rng.integers(1, 8)), int(rng.integers(2, 12))
            B = rng.normal(size=(m, n))
            for L in (0.5 * pseudoinverse(B), rng.normal(size=(n, m))):
                annihilation, idempotency = assert_residuals_match_dense(B, L)
                assert idempotency > 1e-3 and annihilation > 1e-3

    def test_factored_residual_small_on_true_projectors(self):
        rng = np.random.default_rng(31)
        operators = [np.zeros((0, 5)), np.zeros((3, 5))]
        for _ in range(10):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 40))
            A = random_rank_matrix(rng, m, n, int(rng.integers(0, min(m, n) + 1)))
            operators += [A, np.hstack([A, np.eye(m)])]  # signal_only and joint
        for B in operators:
            annihilation, idempotency = assert_residuals_match_dense(B, pseudoinverse(B))
            assert idempotency <= 1e-13
            assert annihilation <= 1e-13 * np.max(np.abs(B), initial=0.0)

    @pytest.mark.parametrize("B", verification_operators())
    def test_residuals_match_dense_oracle(self, B):
        """The true L, a scaled L and a random L, on each operator shape."""
        rng = np.random.default_rng(37)
        L = pseudoinverse(B)
        for wrong in (L, 0.5 * L, L + 1e-3 * np.max(np.abs(L), initial=0.0)
                      * rng.normal(size=L.shape)):
            assert_residuals_match_dense(B, wrong)
        kernel_projection(B)  # the true projector passes every check

    def test_checks_hold_no_n_by_n_array(self):
        """On a wide operator the factored checks stay O(n·m): their traced
        peak is below a tenth of one n x n array."""
        B = np.random.default_rng(38).normal(size=(40, 2000))
        L = pseudoinverse(B)
        tracemalloc.start()
        try:
            symmetric._projector_residuals(B, L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2000 * 2000 * 8


class TestAnnihilationScale:
    """B P = 0 is checked relative to max |B|, so the operator's units do
    not decide whether its projector passes."""

    @pytest.mark.parametrize("scale", [1e-9, 1e9, 1e150, 1e-150])
    def test_scaled_operator_has_the_same_projector(self, scale):
        A = np.random.default_rng(39).normal(size=(3, 6))
        np.testing.assert_allclose(kernel_projection(A * scale), kernel_projection(A),
                                   rtol=0, atol=1e-12)

    def test_large_power_of_two_row(self):
        P = kernel_projection([[2.0**40, -(2.0**40)]])
        np.testing.assert_allclose(P, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-12)

    def test_zero_pseudoinverse_of_a_small_operator_is_refused(self, monkeypatch):
        """L = 0 gives P = I, which a small operator annihilates only to
        its own scale: refused, not accepted as an absolute 1e-8 would."""
        monkeypatch.setattr(symmetric, "pseudoinverse", lambda B, tol=None: np.zeros(B.T.shape))
        A = np.random.default_rng(39).normal(size=(3, 6)) * 1e-9
        with pytest.raises(DataError, match="projector does not annihilate the operator"):
            kernel_projection(A)

    def test_zero_operator_passes(self):
        np.testing.assert_array_equal(kernel_projection(np.zeros((2, 3))), np.eye(3))


class TestReflect:
    """The reflection of each pair."""

    WIDE = NoiseSpec(kind="additive", eps_additive=1e3)  # admits any joint noise here

    def test_row_space_signal_is_fixed_point(self):
        x = np.array([[2.0, 2.0]])  # multiple of A^T
        res = skersize(pairs_of(x, x @ AVG.T), unbounded(AVG), EUCLID)
        np.testing.assert_allclose(res.reflections[0], x[0], atol=1e-12)

    def test_worked_example(self):
        res = skersize(pairs_of([[1.0, 3.0]], [[2.0]]), unbounded(AVG), EUCLID)
        x_refl = res.reflections[0]
        np.testing.assert_allclose(x_refl, [3.0, 1.0], atol=1e-10)
        # same measurement: A x' = A x = 2
        np.testing.assert_allclose(AVG @ x_refl, [2.0], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(2, 5))
        for mode in ("signal_only", "joint"):
            x, e = rng.normal(size=(4, 5)), rng.normal(size=(4, 2))
            y = x @ A.T + e
            once = skersize(pairs_of(x, y), unbounded(A, self.WIDE), EUCLID, mode=mode)
            twice = skersize(pairs_of(once.reflections, y), unbounded(A, self.WIDE),
                             EUCLID, mode=mode)
            x_twice = twice.reflections
            np.testing.assert_allclose(x_twice, x, atol=1e-10)
            np.testing.assert_allclose(y - x_twice @ A.T, e, atol=1e-10)

    def test_joint_preserves_measurement(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 6))
        x, e = rng.normal(size=6), rng.normal(size=3)
        res = skersize(pairs_of([x], [A @ x + e]), unbounded(A, self.WIDE), EUCLID,
                       mode="joint")
        # the reflected noise e' is the noise half of (x, e) - 2 P (x, e)
        v = np.concatenate([x, e])
        w = v - 2.0 * kernel_projection(A, mode="joint") @ v
        np.testing.assert_allclose(res.reflections[0], w[:6], atol=1e-12)
        np.testing.assert_allclose(A @ res.reflections[0] + w[6:], A @ x + e, atol=1e-10)

    def test_noise_violation_flag(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(2, 4))
        tight = NoiseSpec(kind="additive", eps_additive=1e-12)
        x = rng.normal(size=(1, 4)) * 5  # noise-free: e = 0
        res = skersize(pairs_of(x, x @ A.T), unbounded(A, tight), EUCLID, mode="joint")
        # the reflected noise is generically nonzero, far beyond the tiny ball
        assert res.noise_violations == [0]


class TestSkersize:
    def single_pair(self):
        return pairs_of([[1.0, 3.0]], [[2.0]])

    def test_worked_example(self):
        res = skersize(self.single_pair(), unbounded(AVG), EUCLID)
        assert res.skersize == pytest.approx(np.sqrt(2), rel=1e-12)
        assert res.symmetrized.size == 2
        np.testing.assert_allclose(res.symmetrized.entries[0].members, [[1.0, 3.0], [3.0, 1.0]],
                                   atol=1e-10)
        # the mean map attains the bound on the symmetrized dataset
        mean_loss = loss(res.symmetrized, {"m0": np.array([2.0, 2.0])}, EUCLID)
        assert mean_loss == pytest.approx(res.skersize, rel=1e-12)

    def test_ragged_collection_symmetrized_layout(self):
        """Sets of 0, 1 and 3 members: each member is a pair, numbered in
        collection order, and the symmetrized collection leaves the empty set
        out, keeps each other set's id and measurement and lists its members
        then their reflections."""
        rng = np.random.default_rng(45)
        A = rng.normal(size=(2, 4))
        c = FeasibleSetCollection(d1=4, d2=2, entries=tuple(
            FeasibleSet(id=i, measurement=rng.normal(size=2), members=rng.normal(size=(n, 4)))
            for i, n in (("empty", 0), ("one", 1), ("three", 3))))
        res = skersize(c, unbounded(A, NoiseSpec(kind="additive", eps_additive=1e3)), EUCLID)
        P = np.eye(4) - np.linalg.pinv(A) @ A
        x = np.vstack([e.members for e in c.entries])
        np.testing.assert_allclose(res.v_norms, np.linalg.norm(x @ P.T, axis=1), rtol=1e-12)
        sym = res.symmetrized
        assert sym.ids == ("one", "three") and sym.counts == (2, 6) and sym.size == 8
        assert (sym.d1, sym.d2) == (4, 2)
        for e, want in zip(sym.entries, c.entries[1:]):
            assert e.measurement.tobytes() == want.measurement.tobytes()
            assert e.members[:want.count].tobytes() == want.members.tobytes()
            refl = want.members - 2.0 * want.members @ P.T
            np.testing.assert_allclose(e.members[want.count:], refl, rtol=0, atol=1e-12)

    def test_row_space_dataset_gives_zero(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(2, 4))
        w = rng.normal(size=(5, 2))
        x = w @ A  # all rows in the row space of A
        y = x @ A.T
        res = skersize(pairs_of(x, y), unbounded(A), EUCLID)
        assert res.skersize == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(res.reflections, x, atol=1e-8)

    def test_infeasible_pair_named(self):
        pairs = pairs_of([[1.0, 3.0], [0.0, 0.0]], [[2.0], [5.0]])
        with pytest.raises(DataError, match="pair 1"):
            skersize(pairs, unbounded(AVG, NoiseSpec(kind="additive", eps_additive=0.5)), EUCLID)

    def test_feasibility_tolerance_is_each_pairs_own(self):
        """Pair 1's noise leaves the ball by 1e-5. The roundoff tolerance is
        1e-9·max(1, max |y_m|) of the pair's own measurement, so the pair is
        refused beside a pair measuring 1e6 as it is alone, and the message
        shows its excess."""
        x = np.array([[1e6, 0.0], [0.2, 0.3]])
        y = np.array([[1e6 + 0.05], [0.6 + 1e-5]])
        noise = NoiseSpec(kind="additive", eps_additive=0.1)
        assert skersize(pairs_of(x[:1], y[:1]), unbounded([[1.0, 1.0]], noise), EUCLID).skersize > 0
        for rows in ([1], [0, 1]):
            with pytest.raises(DataError, match=f"pair {len(rows) - 1} is infeasible") as info:
                skersize(pairs_of(x[rows], y[rows]), unbounded([[1.0, 1.0]], noise), EUCLID)
            shown = re.search(r"\|e\|=(\S+) > eps=(\S+)\)", str(info.value))
            assert float(shown[1]) > float(shown[2]) == 0.1

    def test_joint_noise_flag_uses_each_pairs_tolerance(self):
        """In joint mode under A = [[1, 1]], e' = 2y/3 - e. Pair 1's reflected
        noise leaves the ball by 1e-5: it is flagged beside a pair measuring
        1e6 as it is alone."""
        x = np.array([[1e6, 0.0], [0.175015, 0.0]])
        y = np.array([[1e6 + 0.05], [0.225015]])
        noise = NoiseSpec(kind="additive", eps_additive=0.1)
        for rows, flagged in (([1], [0]), ([0, 1], [0, 1])):
            res = skersize(pairs_of(x[rows], y[rows]), unbounded([[1.0, 1.0]], noise), EUCLID,
                           mode="joint")
            assert res.noise_violations == flagged

    @pytest.mark.parametrize("noise", [
        NoiseSpec(kind="multiplicative", eps_multiplicative=0.1),
        NoiseSpec(kind="mixed", eps_additive=0.1, eps_multiplicative=0.1),
    ], ids=["multiplicative", "mixed"])
    def test_multiplicative_noise_rejected(self, noise):
        with pytest.raises(UsageError, match="requires additive noise"):
            skersize(self.single_pair(), unbounded(AVG, noise), EUCLID)

    def test_measurement_preservation_signal_mode(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(3, 7))
        x = rng.normal(size=(6, 7))
        e = rng.uniform(-0.1, 0.1, size=(6, 3))
        y = x @ A.T + e
        res = skersize(pairs_of(x, y), unbounded(A, NoiseSpec(kind="additive", eps_additive=0.1)),
                       EUCLID)
        resid = res.reflections @ A.T + e - y
        assert np.max(np.abs(resid)) < 1e-10

    def test_lower_bound_on_symmetrized_dataset(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(2, 5))
        x = rng.normal(size=(8, 5))
        y = x @ A.T
        pairs = pairs_of(x, y)
        ids = pairs.ids
        res = skersize(pairs, unbounded(A), EUCLID)
        for trial in range(10):
            preds = {i: rng.normal(size=5) for i in ids}
            assert res.skersize <= loss(res.symmetrized, preds, EUCLID) * (1 + 1e-9) + 1e-12

    def test_joint_mode_flags_and_bound(self):
        rng = np.random.default_rng(18)
        A = rng.normal(size=(2, 5))
        x = rng.normal(size=(4, 5))
        e = rng.uniform(-0.05, 0.05, size=(4, 2))
        y = x @ A.T + e
        res = skersize(pairs_of(x, y), unbounded(A, NoiseSpec(kind="additive", eps_additive=0.05)),
                       EUCLID, mode="joint")
        assert res.mode == "joint"
        # reflected pairs keep their measurements even in joint mode
        e_refl = y - res.reflections @ A.T
        assert isinstance(res.noise_violations, list)
        for m in range(4):
            if m not in res.noise_violations:
                assert np.max(np.abs(e_refl[m])) <= 0.05 + 1e-9

    @pytest.mark.parametrize("mode", ["signal_only", "joint"])
    @pytest.mark.parametrize("operator", ["unbounded 3x6", "linear 3x6", "linear 7x11",
                                          "downsample 1", "downsample 3"])
    def test_each_pair_is_its_lone_call(self, operator, mode):
        """Each pair's kernel norm, reflection and noise and box verdicts are,
        bit for bit, those of skersize on that pair alone, and permuting the
        pairs permutes them and keeps skersize's bits. The pairs' scales span
        1e-3 to 10, so some reflections leave the box or the noise ball."""
        rng = np.random.default_rng(36)
        M = 12
        scale = rng.permutation(np.logspace(-3, 1, M))[:, None]
        kind, size = operator.split()
        if kind == "downsample":
            noise = NoiseSpec(kind="additive", eps_additive=0.2)
            op = DownsampleModel(bands=int(size), height=8, width=8, factor=4, r_max=1.0,
                                 noise=noise)
            x = 0.1 + scale * rng.uniform(-0.1, 0.1, size=(M, op.d1))
        else:
            m, n = map(int, size.split("x"))
            A = rng.normal(size=(m, n))
            noise = NoiseSpec(kind="additive", eps_additive=0.1)
            op = (unbounded(A, noise) if kind == "unbounded"
                  else LinearModel(A, noise, np.tile([-1.0, 1.0], (n, 1))))
            x = scale * rng.uniform(-1.0, 1.0, size=(M, n))
        clean = op.noiseless_batch(x)
        e = rng.uniform(-1.0, 1.0, size=clean.shape) * noise.eps_additive
        y = clean + np.minimum(scale, 1.0) * e

        def outputs(res, rows):
            """The bits of each row's kernel norm and reflection, and its verdicts."""
            return [(res.v_norms[m].tobytes(), res.reflections[m].tobytes(),
                     m in res.noise_violations, m in res.bounds_violations) for m in rows]

        full = skersize(pairs_of(x, y), op, EUCLID, mode=mode)
        lone = [outputs(skersize(pairs_of(x[m:m + 1], y[m:m + 1]), op, EUCLID, mode=mode),
                        [0])[0] for m in range(M)]
        assert outputs(full, range(M)) == lone
        if mode == "joint":
            assert 0 < len(full.noise_violations) < M
        order = rng.permutation(M)
        permuted = skersize(pairs_of(x[order], y[order]), op, EUCLID, mode=mode)
        assert outputs(permuted, range(M)) == [lone[m] for m in order]
        assert permuted.skersize == full.skersize

    @pytest.mark.parametrize("mode", ["signal_only", "joint"])
    @pytest.mark.parametrize("d1, d2, message", [
        (15, 4, "16 columns, pairs have d1=15"),
        (16, 3, "4 rows, pairs have d2=3"),
        (16, 5, "4 rows, pairs have d2=5"),
    ], ids=["d1", "d2-short", "d2-long"])
    @pytest.mark.parametrize("operator", ["linear", "downsample"])
    def test_pair_length_mismatch_is_usage_error(self, operator, d1, d2, message, mode):
        """Pairs that do not fit the 4 x 16 operator are refused, where y - A x
        would broadcast or fail inside numpy."""
        noise = NoiseSpec(kind="additive", eps_additive=0.05)
        model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0, noise=noise)
        op = {
            "linear": LinearModel(dense_matrix(model), noise, np.tile([0.0, 1.0], (16, 1))),
            "downsample": model,
        }[operator]
        pairs = pairs_of(np.full((2, d1), 0.5), np.full((2, d2), 0.5))
        with pytest.raises(UsageError, match=message):
            skersize(pairs, op, EUCLID, mode=mode)

    @pytest.mark.parametrize("pairs, mode, error, message", [
        (None, "dual", UsageError, "unknown projection mode 'dual'"),
        (FeasibleSetCollection(d1=2, d2=1, entries=(
            FeasibleSet(id="m0", measurement=[2.0], members=[]),)), "signal_only", DataError,
         "collection has no members; bounds are vacuous"),
    ], ids=["mode", "no-pairs"])
    def test_unknown_mode_or_no_pairs_is_refused(self, pairs, mode, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            skersize(self.single_pair() if pairs is None else pairs, unbounded(AVG), EUCLID,
                     mode=mode)

    @pytest.mark.parametrize("model", [
        AVG, AVG.tolist(), [0.5, 0.5], 2.0, None, "microscopy",
    ], ids=["array", "list", "vector", "scalar", "none", "microscopy"])
    def test_model_other_than_linear_or_downsample_is_usage_error(self, model):
        """A bare matrix brings no noise set, and a microscopy model is not linear."""
        if isinstance(model, str):
            from kersize.forward import MicroscopyModel

            model = MicroscopyModel(pixels=(2, 2), pixel_size=100.0, psf_sigma0=150.0,
                                    psf_z0=400.0, c_max=10.0, h_max=1000.0, exposure=1.0,
                                    volume=[[0, 200], [0, 200], [-100, 100]],
                                    noise=NoiseSpec(kind="additive", eps_additive=1.0))
        with pytest.raises(UsageError, match="must be a LinearModel or a DownsampleModel"):
            skersize(self.single_pair(), model, EUCLID)

    def test_noise_recovery_past_the_float_range(self):
        """A x overflows: the pair is reported infeasible, with no overflow
        warning first."""
        x = np.array([[1.7e308, 1.7e308]])
        with pytest.raises(DataError, match=r"pair 0 is infeasible.*\|e\|=inf"):
            skersize(pairs_of(x, np.zeros((1, 1))),
                     unbounded([[1.0, 1.0]], NoiseSpec(kind="additive", eps_additive=1e308)),
                     EUCLID)

    @pytest.mark.parametrize("A, x, y, refl", [
        ([[2.0, -2.0]], [1.7e308, 1.7e308], 0.0, [-1.7e308, -1.7e308]),  # A x = 0
        ([[2.0**20, -2.0**20]], [1.7e308, 1.7e308], 0.0, [-1.7e308, -1.7e308]),  # a large row
        ([[2.0, 2.0]], [1.7e308, -1e308], 1.4e308, None),  # a partial sum overflows
    ])
    def test_product_overflows_where_its_exact_value_fits(self, A, x, y, refl):
        """A x overflows in float64 but its exact value fits: the pair is
        feasible and reflected, with no warning."""
        pairs = pairs_of(np.array([x]), np.array([[y]]))
        res = skersize(pairs, unbounded(A, NoiseSpec(kind="additive", eps_additive=1e300)),
                       NormSpec(p=1, q=np.inf))
        x_refl = res.reflections[0]
        assert np.isfinite(x_refl).all() and np.isfinite(res.skersize)
        w = 4 * np.abs(A).sum()  # A x' = A x = y, scaled to stay in range
        assert (np.asarray(A) / w) @ x_refl == pytest.approx(y / w, rel=1e-12)
        if refl is not None:
            assert res.skersize == 1.7e308
            assert x_refl.tolist() == refl

    @pytest.mark.parametrize("q, message", [
        (1, "the norm of the kernel component of pair 0 overflows float64"),
        (2, "the norm of the kernel component of pair 0 overflows float64"),
        (np.inf, "the reflection of pair 0 overflows float64"),
    ])
    def test_kernel_component_past_the_float_range_is_data_error(self, q, message):
        """Under A = ones(1, 6), x = (-1.5e308, 1.5e308, 1.5e308, 0, 0, 0) has a
        kernel component whose 1- and 2-norms leave the float range, and so
        does its reflection: each is a DataError that names what overflowed,
        with no overflow warning first."""
        x = np.array([[-1.5e308, 1.5e308, 1.5e308, 0.0, 0.0, 0.0]])
        with pytest.raises(DataError, match=message):
            skersize(pairs_of(x, np.array([[1.5e308]])), unbounded(np.ones((1, 6))),
                     NormSpec(p=1, q=q))

    def test_reflection_past_overflowing_doubled_projection(self):
        """2Px overflows where x - 2Px fits: with the zero operator P = I and
        the reflection is -x, and skersize ‖x‖ fits float64 (no warning)."""
        x = np.array([[5e307, 1.7e308]])
        res = skersize(pairs_of(x, np.zeros((1, 1))), unbounded(np.zeros((1, 2))),
                       NormSpec(p=1))
        assert res.skersize == pytest.approx(1.77200451e308, rel=1e-8)
        assert res.reflections[0].tobytes() == (-x[0]).tobytes()

    def test_downsample_band_projector_matches_dense(self):
        rng = np.random.default_rng(19)
        for bands, height, width, factor in [(2, 8, 8, 2), (3, 8, 12, 4)]:
            model = DownsampleModel(bands=bands, height=height, width=width, factor=factor,
                                    r_max=1.0,
                                    noise=NoiseSpec(kind="additive", eps_additive=0.05))
            x = rng.uniform(0.2, 0.8, size=(3, model.d1))
            e = rng.uniform(-0.05, 0.05, size=(3, model.d2))
            y = model.noiseless_batch(x) + e
            pairs = pairs_of(x, y)
            via_model = skersize(pairs, model, EUCLID)
            via_dense = skersize(pairs, unbounded(dense_matrix(model), model.noise), EUCLID)
            assert via_model.skersize == pytest.approx(via_dense.skersize, rel=1e-10)
            np.testing.assert_allclose(via_model.v_norms, via_dense.v_norms, rtol=1e-10)
            np.testing.assert_allclose(via_model.reflections, via_dense.reflections, atol=1e-9)

    @staticmethod
    def spy_on_v(monkeypatch):
        """The v whose norms skersize takes, as a list filled by each call."""
        seen = []

        def spy(v, norm):
            seen.append(v)
            return norms(v, norm)

        norms = symmetric.vector_norms
        monkeypatch.setattr(symmetric, "vector_norms", spy)
        return seen

    @pytest.mark.parametrize("side", [8, 12, 36, 48])
    def test_band_projection_bits_match_dense_oracle(self, monkeypatch, side):
        """v and the reflections, streamed over row blocks of the band
        projector, are one whole einsum with the dense P = ½(P0 + P0ᵀ), bit
        for bit: band widths 64 and 144 fit one block, 1296 and the
        benchmark's 2304 (48 x 48 x 3) end in a ragged block."""
        seen = self.spy_on_v(monkeypatch)
        model = DownsampleModel(bands=3, height=side, width=side, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        x = np.random.default_rng(side).uniform(0.2, 0.8, size=(5, model.d1))
        res = skersize(pairs_of(x, model.noiseless_batch(x)), model, EUCLID)
        B = model.band_matrix()
        P0 = np.eye(B.shape[1]) - pseudoinverse(B) @ B
        v = np.einsum("ij,nbj->nbi", 0.5 * (P0 + P0.T), x.reshape(5, 3, -1)).reshape(5, -1)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0].view(np.uint64), v.view(np.uint64))
        np.testing.assert_array_equal(res.reflections.view(np.uint64),
                                      (x - 2.0 * v).view(np.uint64))

    @pytest.mark.parametrize("path", ["band", "linear", "joint"])
    def test_streamed_reflections_over_ragged_row_blocks(self, monkeypatch, path):
        """With row blocks of 7 rows (the last one shorter), every path gives,
        bit for bit, the reflections of one whole band einsum with the P
        kernel_projection assembles from the same blocks: a linear operator
        is one band."""
        seen = self.spy_on_v(monkeypatch)
        rng = np.random.default_rng(34)
        if path == "band":
            model = DownsampleModel(bands=3, height=12, width=12, factor=4, r_max=1.0,
                                    noise=NoiseSpec(kind="additive", eps_additive=0.05))
            operator, A, noise, mode = model, model.band_matrix(), model.noise, "signal_only"
            x = rng.uniform(0.2, 0.8, size=(4, model.d1))
            y = model.noiseless_batch(x)
        else:
            A = rng.normal(size=(9, 41))  # n = 41, or 50 in joint mode
            noise = NoiseSpec(kind="additive", eps_additive=0.1)
            mode = "joint" if path == "joint" else "signal_only"
            operator = LinearModel(A, noise, np.tile([-10.0, 10.0], (41, 1)))
            x = rng.normal(size=(4, 41))
            y = operator.noiseless_batch(x) + rng.uniform(-0.1, 0.1, size=(4, 9))
        d = A.shape[1]  # a band's signal coordinates
        n = d + (A.shape[0] if mode == "joint" else 0)
        monkeypatch.setattr(symmetric, "_ROW_BLOCK", 7 * n)
        last = symmetric._row_blocks(n)[-1]
        assert last.stop - last.start < 7
        res = skersize(pairs_of(x, y), operator, EUCLID, mode=mode)
        vectors = x.reshape(4, -1, d)
        if mode == "joint":
            vectors = np.concatenate([vectors, (y - operator.noiseless_batch(x))[:, None]], axis=-1)
        projected = np.einsum("ij,nbj->nbi", kernel_projection(A, mode=mode), vectors)
        v = projected[..., :d].reshape(4, -1)
        np.testing.assert_array_equal(seen[0].view(np.uint64), v.view(np.uint64))
        np.testing.assert_array_equal(res.reflections.view(np.uint64),
                                      (x - 2.0 * v).view(np.uint64))

    def test_peak_memory_below_half_a_band_projector(self):
        """skersize holds no n x n array: at the benchmark's 48 x 48 x 3 its
        traced peak stays below half the 2304² band projector (20 MiB)."""
        model = DownsampleModel(bands=3, height=48, width=48, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        x = np.random.default_rng(35).uniform(0.2, 0.8, size=(16, model.d1))
        pairs = pairs_of(x, model.noiseless_batch(x))
        n = model.band_matrix().shape[1]
        tracemalloc.start()
        try:
            skersize(pairs, model, EUCLID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8

    def test_band_projector_invariants(self):
        model = DownsampleModel(bands=3, height=16, width=16, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        assert_projector(kernel_projection(model.band_matrix()), model.band_matrix())

    def test_joint_mode_with_downsample_model(self):
        model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        rng = np.random.default_rng(41)
        x = rng.uniform(0.2, 0.8, size=(2, model.d1))
        e = rng.uniform(-0.05, 0.05, size=(2, model.d2))
        y = model.noiseless_batch(x) + e
        res = skersize(pairs_of(x, y), model, EUCLID, mode="joint")
        # measurements preserved under the joint reflection
        A = dense_matrix(model)
        e_refl = y - res.reflections @ A.T
        np.testing.assert_allclose(res.reflections @ A.T + e_refl, y, atol=1e-9)
        assert res.skersize >= 0.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_multiband_joint_matches_dense_oracle(self, monkeypatch, p):
        """Joint mode on 3 non-square bands projects one band's (signal, noise)
        through [A_b | I]; it matches the dense [A | I] projector of the whole
        block-diagonal A to 1e-12 of the data's scale. Pairs 0, 2 and 4 lie in
        the row space of [A | I], so their reflected noise is their own and
        stays in the ball; the others' leaves it."""
        seen = self.spy_on_v(monkeypatch)
        model = DownsampleModel(bands=3, height=8, width=12, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        A = dense_matrix(model)
        rng = np.random.default_rng(43)
        x = rng.uniform(0.2, 0.8, size=(6, model.d1))
        e = rng.uniform(-0.05, 0.05, size=(6, model.d2))
        x[::2] = e[::2] @ A  # (x, e) = (Aᵀz, z)
        y = x @ A.T + e
        res = skersize(pairs_of(x, y), model, NormSpec(p=p, q=2), mode="joint")

        B = np.hstack([A, np.eye(model.d2)])
        P = np.eye(B.shape[1]) - np.linalg.pinv(B) @ B
        vectors = np.hstack([x, e])
        projected = vectors @ P.T
        refl = vectors - 2.0 * projected
        atol = 1e-12 * np.abs(vectors).max()
        np.testing.assert_allclose(seen[0], projected[:, :model.d1], rtol=0, atol=atol)
        np.testing.assert_allclose(res.reflections, refl[:, :model.d1], rtol=0, atol=atol)
        # one-member sets: each pair is followed by its reflection, with its measurement
        np.testing.assert_array_equal(dataset_from_collection(res.symmetrized)[1],
                                      np.repeat(y, 2, axis=0))
        np.testing.assert_allclose(res.reflections @ A.T + refl[:, model.d1:], y,
                                   rtol=0, atol=atol)
        outside = np.abs(refl[:, model.d1:]).max(axis=1) > 0.05 + 1e-9 * np.abs(y).max()
        assert res.noise_violations == [1, 3, 5] == list(np.flatnonzero(outside))

    def test_joint_peak_memory_holds_one_band(self):
        """Joint mode at the benchmark's 48 x 48 x 3 projects one 2448-wide
        band, not the whole 7344-wide [A | I]: its traced peak stays below
        40 MB (the whole operator's projector build peaked at 130 MB)."""
        model = DownsampleModel(bands=3, height=48, width=48, factor=4, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.05))
        x = np.random.default_rng(36).uniform(0.2, 0.8, size=(16, model.d1))
        pairs = pairs_of(x, model.noiseless_batch(x))
        tracemalloc.start()
        try:
            skersize(pairs, model, EUCLID, mode="joint")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_out_of_box_reflections_flagged_not_rejected(self):
        """A high-contrast image reflects outside [0, r_max]; the pair is
        flagged but still appended."""
        model = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0,
                                noise=NoiseSpec(kind="additive", eps_additive=0.0))
        x = np.zeros((1, 16))
        x[0, 5] = 1.0  # sharp spike: kernel component pushes past the box
        y = model.noiseless_batch(x)
        res = skersize(pairs_of(x, y), model, EUCLID)
        assert res.symmetrized.size == 2
        refl = res.reflections[0]
        outside = np.any(refl < 0.0) or np.any(refl > 1.0)
        assert outside == (0 in res.bounds_violations)
        assert outside  # this construction does leave the box


class TestCrossBoundIdentity:
    @pytest.mark.parametrize("p", [1, 2])
    def test_two_point_sets_link_the_bounds(self, p):
        """Kersize of the two-point symmetric sets equals
        2^(1-1/p) * SKersize."""
        from kersize.bounds import kersize as compute_kersize

        rng = np.random.default_rng(20 + p)
        norm = NormSpec(p=p, q=2)
        for _ in range(10):
            d1 = int(rng.integers(2, 6))
            d2 = int(rng.integers(1, d1))
            A = rng.normal(size=(d2, d1))
            m_pairs = int(rng.integers(1, 5))
            x = rng.normal(size=(m_pairs, d1))
            y = x @ A.T
            pairs = pairs_of(x, y)
            res = skersize(pairs, unbounded(A), norm)
            entries = tuple(
                FeasibleSet(id=pairs.ids[i], measurement=y[i],
                            members=np.vstack([x[i], res.reflections[i]]))
                for i in range(m_pairs)
            )
            c = FeasibleSetCollection(d1=d1, d2=d2, entries=entries)
            value, _ = compute_kersize(c, norm)
            expected = 2 ** (1 - 1 / p) * res.skersize
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-12)
