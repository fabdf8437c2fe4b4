"""Tests for the forward models and their feasibility predicates."""

import numpy as np
import pytest
from scipy import integrate

from kersize.core import DataError, UsageError
from kersize.forward import (
    DownsampleModel,
    LinearModel,
    MicroscopyModel,
    NoiseSpec,
    downsample_matrix_1d,
    model_from_dict,
)


def averaging_model(eps=0.0, kind="additive", eps_mult=0.0):
    return LinearModel(
        [[0.5, 0.5]],
        NoiseSpec(kind=kind, eps_additive=eps, eps_multiplicative=eps_mult),
        [[-10, 10], [-10, 10]],
    )


def small_microscope(kind="mixed", eps1=0.05, eps2=1.0):
    return MicroscopyModel(
        pixels=(4, 4),
        pixel_size=100.0,
        psf_sigma0=150.0,
        psf_z0=400.0,
        c_max=10.0,
        h_max=1000.0,
        exposure=1.0,
        volume=[[100, 300], [100, 300], [-100, 100]],
        noise=NoiseSpec(kind=kind, eps_multiplicative=eps1, eps_additive=eps2),
    )


class TestNoiseSpec:
    def test_kind_constraints(self):
        with pytest.raises(UsageError):
            NoiseSpec(kind="additive", eps_additive=0.1, eps_multiplicative=0.1)
        with pytest.raises(UsageError):
            NoiseSpec(kind="multiplicative", eps_additive=0.1, eps_multiplicative=0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -0.1])
    @pytest.mark.parametrize("kind, field", [("additive", "eps_additive"),
                                             ("multiplicative", "eps_multiplicative")])
    def test_radius_must_be_finite_and_nonnegative(self, kind, field, eps):
        with pytest.raises(UsageError, match=f"{field} must be finite and nonnegative"):
            NoiseSpec(kind=kind, **{field: eps})

    def test_mixed_requires_inf_ball(self):
        with pytest.raises(UsageError):
            NoiseSpec(kind="mixed", eps_additive=0.1, eps_multiplicative=0.1, ball="l2")

    def test_sample_stays_inside(self):
        rng = np.random.default_rng(0)
        for spec in (
            NoiseSpec(kind="additive", eps_additive=0.3),
            NoiseSpec(kind="additive", eps_additive=0.3, ball="l2"),
            NoiseSpec(kind="multiplicative", eps_multiplicative=0.2),
            NoiseSpec(kind="mixed", eps_multiplicative=0.1, eps_additive=0.5),
        ):
            m = LinearModel(np.eye(4), spec, [[-1, 1]] * 4)
            for _ in range(50):
                m.apply(np.zeros(4), spec.sample(rng, 4))  # DataError if outside the set

    @pytest.mark.parametrize("spec", [
        NoiseSpec(kind="additive", eps_additive=1e308),
        NoiseSpec(kind="additive", eps_additive=1e308, ball="l2"),
        NoiseSpec(kind="multiplicative", eps_multiplicative=9e307),
        NoiseSpec(kind="mixed", eps_multiplicative=0.1, eps_additive=1.7e308),
    ], ids=["inf", "l2", "multiplicative", "mixed"])
    def test_sample_refuses_radius_beyond_half_the_float_range(self, spec):
        with pytest.raises(UsageError, match="too large to sample from"):
            spec.sample(np.random.default_rng(0), 3)

    def test_sample_at_half_the_float_range(self):
        eps = np.finfo(float).max / 2
        e = NoiseSpec(kind="additive", eps_additive=eps).sample(np.random.default_rng(0), 3)
        assert np.all(np.abs(e) <= eps)

    def test_l2_row_norms_past_overflowing_squares(self):
        spec = NoiseSpec(kind="additive", eps_additive=1.0, ball="l2")
        E = np.array([[3e200, -4e200], [1e308, 1e308], [3.0, 4.0], [np.inf, 1.0], [0.0, 0.0]])
        norms = spec.row_norms(E)  # no overflow warning
        np.testing.assert_allclose(norms[:2], [5e200, np.sqrt(2) * 1e308], rtol=1e-15)
        np.testing.assert_array_equal(norms[2:], [5.0, np.inf, 0.0])

    @pytest.mark.parametrize("ball", ["inf", "l2"])
    def test_row_norms_agree_with_contains(self, ball):
        spec = NoiseSpec(kind="additive", eps_additive=0.3, ball=ball)
        rng = np.random.default_rng(9)
        E = rng.uniform(-0.4, 0.4, size=(200, 4))
        norms = spec.row_norms(E)
        expected = np.abs(E).max(axis=1) if ball == "inf" else np.linalg.norm(E, axis=1)
        np.testing.assert_array_equal(norms, expected)
        m = LinearModel(np.eye(4), spec, [[-1, 1]] * 4)
        inside = []
        for e in E:
            try:
                m.apply(np.zeros(4), e)
                inside.append(True)
            except DataError:
                inside.append(False)
        assert 0 < sum(inside) < len(E)
        np.testing.assert_array_equal(norms <= 0.3, inside)


class TestNoiseless:
    def test_averaging_row(self):
        m = averaging_model()
        np.testing.assert_allclose(m.noiseless([1.0, 3.0]), [2.0])

    def test_downsample_constant_is_fixed_point(self):
        m = DownsampleModel(bands=2, height=6, width=4, factor=2, r_max=1.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.1))
        c = np.full(m.d1, 0.35)
        np.testing.assert_allclose(m.noiseless(c), 0.35, rtol=1e-12)

    def test_microscopy_background_only(self):
        m = small_microscope()
        mu = m.noiseless([200, 200, 0, 3.0, 0.0])
        np.testing.assert_array_equal(mu, np.full(16, 3.0))

    def test_out_of_bounds_warns(self):
        m = averaging_model()
        with pytest.warns(UserWarning):
            m.noiseless([100.0, 0.0])


class TestApply:
    def test_zero_noise_matches_noiseless(self):
        m = averaging_model(eps=0.5)
        np.testing.assert_array_equal(m.apply([1, 3], [0.0]), m.noiseless([1, 3]))

    def test_additive(self):
        m = averaging_model(eps=0.5)
        np.testing.assert_allclose(m.apply([1.0, 3.0], [0.1]), [2.1])

    def test_mixed_hand_arithmetic(self):
        # mu (1 + e1) + e2 with mu = 10, e1 = 0.1, e2 = -0.5
        m = LinearModel([[1.0]], NoiseSpec(kind="mixed", eps_multiplicative=0.2,
                                           eps_additive=1.0), [[0, 20]])
        np.testing.assert_allclose(m.apply([10.0], [0.1, -0.5]), [10.5])

    def test_noise_outside_set_rejected(self):
        m = averaging_model(eps=0.5)
        with pytest.raises(DataError):
            m.apply([1, 3], [0.6])

    def test_noise_of_wrong_length_is_usage_error(self):
        m = averaging_model(eps=0.5)  # d2 = 1
        for e in ([], [0.1, 0.1]):
            with pytest.raises(UsageError, match="must have length 1"):
                m.apply([1, 3], e)
        mixed = LinearModel([[1.0], [2.0]], NoiseSpec(kind="mixed", eps_multiplicative=0.2,
                                                      eps_additive=1.0), [[0, 20]])
        for e in ([0.1, -0.5], [0.1, 0.0, -0.5], [0.1, 0.0, -0.5, 0.5, 0.0]):
            with pytest.raises(UsageError, match="must have length 4"):  # 2 * d2
                mixed.apply([10.0], e)
        # e = (e1, e2) of length 2 * d2: mu (1 + e1) + e2 with mu = (10, 20)
        np.testing.assert_allclose(mixed.apply([10.0], [0.1, 0.0, -0.5, 0.5]), [10.5, 20.5])


class TestFeasibility:
    def test_noiseless_measurement_always_feasible(self):
        m = averaging_model(eps=0.0)
        assert m.feasible_batch([[1.0, 3.0]], [2.0])[0]
        assert averaging_model(eps=0.3).feasible_batch([[1.0, 3.0]], [2.0])[0]

    def test_additive_gap_exceeds_radius(self):
        m = averaging_model(eps=0.1)
        assert not m.feasible_batch([[1.0, 3.0]], [2.15])[0]
        assert m.feasible_batch([[1.0, 3.0]], [2.05])[0]

    def test_mixed_bound(self):
        # |y - mu| = 1.4 <= mu*eps1 + eps2 = 10*0.05 + 1 = 1.5
        m = LinearModel([[1.0]], NoiseSpec(kind="mixed", eps_multiplicative=0.05,
                                           eps_additive=1.0), [[0, 20]])
        assert m.feasible_batch([[10.0]], [11.4])[0]
        assert not m.feasible_batch([[10.0]], [11.6])[0]

    def test_multiplicative_zero_component(self):
        m = LinearModel([[1.0, 0.0], [0.0, 0.0]],
                        NoiseSpec(kind="multiplicative", eps_multiplicative=0.5),
                        [[-5, 5], [-5, 5]])
        # second row of G is identically 0, so y2 must be 0
        assert m.feasible_batch([[2.0, 0.0]], [1.0, 0.0])[0]
        assert not m.feasible_batch([[2.0, 0.0]], [1.0, 0.1])[0]
        assert not m.feasible_batch([[2.0, 0.0]], [1.1, 0.0])[0]

    @pytest.mark.parametrize("kind,ball", [("additive", "inf"), ("additive", "l2"),
                                           ("multiplicative", "inf"), ("mixed", "inf")])
    def test_roundtrip_apply_then_feasible(self, kind, ball):
        """Every admissible noise vector yields a feasible measurement."""
        rng = np.random.default_rng(123)
        spec = NoiseSpec(
            kind=kind,
            eps_additive=0.4 if kind in ("additive", "mixed") else 0.0,
            eps_multiplicative=0.2 if kind in ("multiplicative", "mixed") else 0.0,
            ball=ball,
        )
        m = LinearModel(rng.normal(size=(3, 4)), spec, [[-2, 2]] * 4)
        for _ in range(100):
            x = rng.uniform(-2, 2, 4)
            e = spec.sample(rng, 3)
            y = m.apply(x, e)
            assert m.feasible_batch(x[None, :], y, atol=1e-12)[0]

    @pytest.mark.parametrize("family,kind,ball", [
        (family, kind, ball)
        for kind, ball in (("additive", "inf"), ("additive", "l2"), ("multiplicative", "inf"),
                           ("multiplicative", "l2"), ("mixed", "inf"))
        for family in ("linear", "downsample", "microscopy")
        if family != "downsample" or kind == "additive"
    ])
    def test_per_row_measurements_match_single_rows(self, family, kind, ball):
        """Row i of a call with one measurement per row equals the single-row
        call on that measurement."""
        spec = NoiseSpec(
            kind=kind,
            eps_additive=0.3 if kind in ("additive", "mixed") else 0.0,
            eps_multiplicative=0.2 if kind in ("multiplicative", "mixed") else 0.0,
            ball=ball,
        )
        rng = np.random.default_rng(9)
        if family == "linear":
            m = LinearModel(rng.normal(size=(3, 4)), spec, [[-2, 2]] * 4)
        elif family == "downsample":
            m = DownsampleModel(1, 4, 4, 2, 1.0, spec)
        else:
            m = MicroscopyModel(pixels=(4, 4), pixel_size=100.0, psf_sigma0=150.0,
                                psf_z0=400.0, c_max=10.0, h_max=1000.0, exposure=1.0,
                                volume=[[100, 300], [100, 300], [-100, 100]], noise=spec)
        b = m.signal_bounds
        X = rng.uniform(b[:, 0], b[:, 1], size=(40, m.d1))
        # even rows measure their own signal, odd rows another one
        sources = np.where(np.arange(40)[:, None] % 2 == 0, X, X[::-1])
        Y = np.vstack([m.apply(x, spec.sample(rng, m.d2)) for x in sources])
        got = m.feasible_batch(X, Y)
        want = np.array([m.feasible_batch(X[i : i + 1], Y[i])[0] for i in range(40)])
        np.testing.assert_array_equal(got, want)
        assert got.any() and not got.all()
        with pytest.raises(UsageError):
            m.feasible_batch(X, Y[:-1])

    def test_additive_monotone_in_radius(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(2, 3))
        bounds = [[-1, 1]] * 3
        for _ in range(50):
            x = rng.uniform(-1, 1, 3)
            y = rng.normal(size=2)
            small = LinearModel(A, NoiseSpec(kind="additive", eps_additive=0.2), bounds)
            large = LinearModel(A, NoiseSpec(kind="additive", eps_additive=0.5), bounds)
            if small.feasible_batch(x[None, :], y)[0]:
                assert large.feasible_batch(x[None, :], y)[0]


class TestLinearity:
    def test_apply_linear_in_signal(self):
        rng = np.random.default_rng(9)
        m = LinearModel(rng.normal(size=(3, 5)),
                        NoiseSpec(kind="additive", eps_additive=1.0), [[-4, 4]] * 5)
        for _ in range(50):
            x1, x2 = rng.uniform(-2, 2, (2, 5))
            e = rng.uniform(-1, 1, 3)
            lhs = m.apply(x1 + x2, e) + m.apply(np.zeros(5), np.zeros(3))
            rhs = m.apply(x1, e) + m.apply(x2, np.zeros(3))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestDownsample:
    def test_shape_reduction(self):
        m = DownsampleModel(bands=3, height=16, width=8, factor=4, r_max=1.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.1))
        assert m.d1 == 3 * 16 * 8
        assert m.d2 == 3 * 4 * 2
        assert m.out_shape == (3, 4, 2)

    def test_matrix_matches_separable_application(self):
        rng = np.random.default_rng(21)
        m = DownsampleModel(bands=2, height=8, width=8, factor=2, r_max=1.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.1))
        x = rng.uniform(0, 1, m.d1)
        np.testing.assert_allclose(m.matrix() @ x, m.noiseless_batch(x[None, :])[0],
                                   rtol=1e-12, atol=1e-14)

    def test_rows_sum_to_one(self):
        for n, f in ((8, 2), (12, 3), (16, 4)):
            D = downsample_matrix_1d(n, f)
            np.testing.assert_allclose(D.sum(axis=1), 1.0, rtol=1e-14)

    def test_locality_two_output_pixels(self):
        D = downsample_matrix_1d(32, 4)
        for j in range(D.shape[0]):
            support = np.flatnonzero(D[j])
            center = 4 * j + 1.5
            assert np.all(np.abs(support - center) < 2 * 4)

    def test_dimension_not_divisible(self):
        with pytest.raises(UsageError):
            downsample_matrix_1d(10, 4)

    def test_upscale_covers_all_measurements(self):
        from kersize.core import FeasibleSet, FeasibleSetCollection
        from kersize.predictors import upscale

        rng = np.random.default_rng(31)
        m = DownsampleModel(bands=2, height=8, width=8, factor=2, r_max=1.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.05))
        ys = m.noiseless_batch(rng.uniform(0, 1, size=(3, m.d1)))
        c = FeasibleSetCollection(
            d1=m.d1, d2=m.d2,
            entries=tuple(
                FeasibleSet(id=f"m{i}", measurement=ys[i], members=np.zeros((0, m.d1)))
                for i in range(3)
            ),
        )
        for order in (1, 3):
            preds = {e.id: upscale(m, e.measurement, order=order) for e in c.entries}
            assert set(preds) == {"m0", "m1", "m2"}
            for i in range(3):
                assert preds[f"m{i}"].shape == (m.d1,)
                np.testing.assert_array_equal(preds[f"m{i}"], upscale(m, ys[i], order=order))

    def test_constant_low_res_upscales_to_constant(self):
        from kersize.predictors import upscale

        m = DownsampleModel(bands=1, height=8, width=8, factor=2, r_max=1.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.05))
        y = np.full(m.d2, 0.4)
        np.testing.assert_allclose(upscale(m, y, order=1), 0.4, rtol=1e-12)


class TestMicroscopyIntensity:
    def test_centered_emitter_symmetric_image(self):
        m = small_microscope()
        mu = m.intensity([200.0, 200.0, 0.0, 2.0, 500.0]).reshape(4, 4)
        np.testing.assert_array_equal(mu, mu[::-1, ::-1])

    def test_total_emitter_photons_against_quadrature(self):
        """Sum of (mu - C T) equals h T times the Gaussian mass on the sensor,
        checked against adaptive quadrature of the Gaussian density."""
        m = small_microscope()
        theta = np.array([170.0, 240.0, 50.0, 1.0, 700.0])
        mu = m.intensity(theta)
        emitted = float(np.sum(mu - theta[3] * m.exposure))
        sigma = float(m.psf_sigma(theta[2]))

        def pdf(t, center):
            return np.exp(-0.5 * ((t - center) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))

        mass_x, _ = integrate.quad(pdf, 0.0, 400.0, args=(theta[0],))
        mass_y, _ = integrate.quad(pdf, 0.0, 400.0, args=(theta[1],))
        expected = theta[4] * m.exposure * mass_x * mass_y
        assert emitted == pytest.approx(expected, rel=1e-8)
        assert emitted < theta[4] * m.exposure

    def test_mass_approaches_one_as_sensor_grows(self):
        big = MicroscopyModel(pixels=(20, 20), pixel_size=100.0, psf_sigma0=150.0,
                              psf_z0=400.0, c_max=10.0, h_max=1000.0, exposure=1.0,
                              volume=[[0, 2000], [0, 2000], [-100, 100]],
                              noise=NoiseSpec(kind="mixed", eps_multiplicative=0.05,
                                              eps_additive=1.0))
        theta = [1000.0, 1000.0, 0.0, 0.0, 800.0]
        total = float(np.sum(big.intensity(theta)))
        assert total < 800.0
        assert total == pytest.approx(800.0, rel=1e-10)

    def test_strictly_increasing_in_background_and_rate(self):
        m = small_microscope()
        base = m.intensity([150, 250, 30, 4.0, 400.0])
        more_c = m.intensity([150, 250, 30, 4.5, 400.0])
        more_h = m.intensity([150, 250, 30, 4.0, 450.0])
        assert np.all(more_c > base)
        assert np.all(more_h > base)

    def test_defocus_widens_psf(self):
        m = small_microscope()
        assert m.psf_sigma(0.0) == 150.0
        assert m.psf_sigma(400.0) == pytest.approx(150.0 * np.sqrt(2))


class TestSerialization:
    def test_roundtrip_all_variants(self):
        models = [
            averaging_model(eps=0.25),
            DownsampleModel(bands=2, height=8, width=8, factor=2, r_max=3.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.1)),
            small_microscope(),
        ]
        for m in models:
            m2 = model_from_dict(m.to_dict())
            assert m2.d1 == m.d1 and m2.d2 == m.d2
            x = np.asarray(m.signal_bounds).mean(axis=1)
            np.testing.assert_allclose(m2.noiseless(x), m.noiseless(x), rtol=1e-15)

    def test_unknown_variant(self):
        with pytest.raises(DataError):
            model_from_dict({"variant": "mystery"})
