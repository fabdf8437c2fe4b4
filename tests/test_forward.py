"""Tests for the forward models and their feasibility predicates."""

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from kersize.core import DataError, NormSpec, UsageError, vector_norms
from kersize.forward import (
    DownsampleModel,
    ForwardModel,
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

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "poisson"}, "unknown noise kind 'poisson'"),
        ({"ball": "l1"}, "unknown noise ball 'l1'"),
    ], ids=["kind", "ball"])
    def test_unknown_kind_or_ball_is_usage_error(self, fields, message):
        with pytest.raises(UsageError, match=message):
            NoiseSpec(**fields)

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
            E = np.vstack([spec.sample(rng, 4) for _ in range(50)])
            assert spec.contains(E).all()
            m.apply_batch(np.zeros((50, 4)), E)  # DataError if outside the set

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

    @pytest.mark.parametrize("E", [
        np.random.default_rng(4).normal(scale=1e3, size=(64, 5)),
        np.array([[np.nan, 1.0], [-np.inf, 2.0], [np.inf, np.nan], [-0.0, 0.0], [-3.0, np.inf]]),
        np.zeros((3, 0)),
        np.zeros((0, 4)),
    ], ids=["random", "nan-inf", "zero-width", "no-rows"])
    def test_inf_ball_row_norms_are_the_largest_magnitude(self, E):
        norms = NoiseSpec(kind="additive", eps_additive=1.0).row_norms(E)
        expected = np.abs(E).max(axis=1, initial=0.0)
        assert norms.shape == expected.shape
        assert norms.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ball", ["inf", "l2"])
    def test_row_norms_agree_with_contains(self, ball):
        spec = NoiseSpec(kind="additive", eps_additive=0.3, ball=ball)
        rng = np.random.default_rng(9)
        E = rng.uniform(-0.4, 0.4, size=(200, 4))
        norms = spec.row_norms(E)
        q = {"inf": np.inf, "l2": 2}[ball]
        np.testing.assert_array_equal(norms, vector_norms(E, NormSpec(q=q)))
        if ball == "inf":
            np.testing.assert_array_equal(norms, np.abs(E).max(axis=1))
        else:  # an independent sum of squares, which may round the last bit otherwise
            np.testing.assert_allclose(norms, np.linalg.norm(E, axis=1), rtol=1e-15, atol=0)
        m = LinearModel(np.eye(4), spec, [[-1, 1]] * 4)
        inside = []
        for e in E:
            try:
                m.apply_batch(np.zeros((1, 4)), e[None, :])
                inside.append(True)
            except DataError:
                inside.append(False)
        assert 0 < sum(inside) < len(E)
        np.testing.assert_array_equal(norms <= 0.3, inside)
        np.testing.assert_array_equal(spec.contains(E), inside)


# Every kind and ball, with radii that rows of the quarter grid below meet exactly
GRID_SPECS = {
    "additive-inf": NoiseSpec(kind="additive", eps_additive=0.5),
    "additive-l2": NoiseSpec(kind="additive", eps_additive=1.25, ball="l2"),
    "multiplicative-inf": NoiseSpec(kind="multiplicative", eps_multiplicative=0.5),
    "multiplicative-l2": NoiseSpec(kind="multiplicative", eps_multiplicative=1.25, ball="l2"),
    "mixed-inf": NoiseSpec(kind="mixed", eps_multiplicative=0.25, eps_additive=0.5),
}

# (g, y) rows on the boundary of, or just past, every set of GRID_SPECS
EDGE_ROWS = [
    ([0.0, 0.0, 0.0], [0.5, -0.5, 0.0]),  # additive and mixed inf: on eps
    ([0.0, 0.0, 0.0], [0.75, -1.0, 0.0]),  # additive l2: on eps
    ([1.0, -2.0, 0.0], [0.5, 1.0, 0.0]),  # multiplicative inf: on eps, y = g = 0
    ([1.0, -2.0, 0.0], [0.5, 1.0, 0.25]),  # multiplicative: g = 0 but y != 0
    ([1.0, -1.0, 4.0], [0.75, -1.0, 0.0]),  # multiplicative l2: on eps
    ([2.0, -2.0, 0.0], [3.0, -3.0, 0.5]),  # mixed: on eps + eps_m |g|
    ([2.0, -2.0, 0.0], [3.0, -3.0, 0.75]),  # mixed: past it
]
ON_EPS = {"additive-inf": 0, "additive-l2": 1, "multiplicative-inf": 2,
          "multiplicative-l2": 4, "mixed-inf": 5}  # each set's edge row on its radius


def ball_norm(ball, values):
    """The inf or l2 norm of a list of floats, summed in order."""
    if ball == "inf":
        return max(abs(v) for v in values)
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total)


def literal_feasible(spec, g, y):
    """Whether some noise in ``spec``'s set composes the row g into y, one
    entry at a time in Python floats."""
    if spec.kind == "mixed":
        return all(abs(b - a) <= spec.eps_additive + spec.eps_multiplicative * abs(a)
                   for a, b in zip(g, y))
    if spec.kind == "additive":
        return ball_norm(spec.ball, [b - a for a, b in zip(g, y)]) <= spec.eps_additive
    if any(a == 0.0 and b != 0.0 for a, b in zip(g, y)):
        return False
    ratios = [b / a if a != 0.0 else 0.0 for a, b in zip(g, y)]
    return ball_norm(spec.ball, ratios) <= spec.eps_multiplicative


class TestNoiseSpecMethods:
    def grid_rows(self):
        rng = np.random.default_rng(4)
        G = np.vstack([[g for g, _ in EDGE_ROWS], rng.integers(-8, 9, (300, 3)) / 4.0])
        Y = np.vstack([[y for _, y in EDGE_ROWS], rng.integers(-8, 9, (300, 3)) / 4.0])
        return G, Y

    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_feasible_matches_per_row_loop(self, name):
        spec = GRID_SPECS[name]
        G, Y = self.grid_rows()
        got = spec.feasible(Y, G)  # one measurement per row
        want = [literal_feasible(spec, g, y) for g, y in zip(G.tolist(), Y.tolist())]
        np.testing.assert_array_equal(got, want)
        assert 0 < got.sum() < len(got)
        assert got[ON_EPS[name]] and not got[[3, 6]].any()
        for y in Y[: len(EDGE_ROWS)]:  # one measurement shared by every row
            want = [literal_feasible(spec, g, y.tolist()) for g in G.tolist()]
            np.testing.assert_array_equal(spec.feasible(y, G), want)

    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_contains_matches_per_row_loop(self, name):
        spec = GRID_SPECS[name]
        rng = np.random.default_rng(5)
        E = rng.integers(-3, 4, (300, spec.dim(3))) / 4.0
        radii = {"additive": [spec.eps_additive], "multiplicative": [spec.eps_multiplicative],
                 "mixed": [spec.eps_multiplicative, spec.eps_additive]}[spec.kind]
        want = [all(ball_norm(spec.ball, e[3 * b : 3 * b + 3]) <= r for b, r in enumerate(radii))
                for e in E.tolist()]
        got = spec.contains(E)
        np.testing.assert_array_equal(got, want)
        assert 0 < got.sum() < len(got)


def exact_feasible(spec, g, y):
    """``literal_feasible`` in exact rational arithmetic, for one entry."""
    g, y = Fraction(g), Fraction(y)
    if spec.kind == "additive":
        return abs(y - g) <= Fraction(spec.eps_additive)
    if spec.kind == "multiplicative":
        return y == 0 if g == 0 else abs(y / g) <= Fraction(spec.eps_multiplicative)
    return abs(y - g) <= Fraction(spec.eps_additive) + Fraction(spec.eps_multiplicative) * abs(g)


# (spec, g, y): one entry whose difference, ratio or mixed half-width leaves
# the float64 range
OVERFLOW_CASES = {
    "additive-inf": (NoiseSpec(kind="additive", eps_additive=1.0), -1.7e308, 1.7e308),
    "additive-l2": (NoiseSpec(kind="additive", eps_additive=1e308, ball="l2"), -1.7e308, 1e308),
    "multiplicative": (NoiseSpec(kind="multiplicative", eps_multiplicative=0.5), 1e-300, 1e10),
    "multiplicative-l2": (NoiseSpec(kind="multiplicative", eps_multiplicative=1e300,
                                    ball="l2"), -1e-10, 1e300),
    "mixed-both-overflow": (NoiseSpec(kind="mixed", eps_multiplicative=1.5), 1.5e308, -1e308),
    "mixed-feasible": (NoiseSpec(kind="mixed", eps_multiplicative=1.5), 1.7e308, -0.8e308),
    "mixed-on-the-edge": (NoiseSpec(kind="mixed", eps_multiplicative=2.0), 1e308, -1e308),
    "mixed-additive-half": (NoiseSpec(kind="mixed", eps_multiplicative=1.0,
                                      eps_additive=1e308), 1.7e308, -0.9e308),
    "mixed-additive-past": (NoiseSpec(kind="mixed", eps_multiplicative=1.0,
                                      eps_additive=1e308), 1.7e308, -1.5e308),
    "mixed-width-only": (NoiseSpec(kind="mixed", eps_multiplicative=1e10), 1e300, 5e307),
}


class TestFeasibleOverflow:
    """A difference, ratio or half-width past the float64 range decides
    feasibility exactly and quietly (warnings are errors here); every other
    row keeps its answer."""

    @pytest.mark.parametrize("name", list(OVERFLOW_CASES))
    def test_matches_exact_arithmetic(self, name):
        spec, g, y = OVERFLOW_CASES[name]
        want = exact_feasible(spec, g, y)
        assert spec.feasible(np.array([[y]]), np.array([[g]])).tolist() == [want]
        assert spec.feasible(np.array([y]), np.array([[g]])).tolist() == [want]
        if name == "mixed-both-overflow":  # inf <= inf answered True here before
            assert not want

    def test_cases_cover_both_answers(self):
        answers = {exact_feasible(*OVERFLOW_CASES[name]) for name in OVERFLOW_CASES}
        assert answers == {True, False}

    @pytest.mark.parametrize("name", list(GRID_SPECS))
    def test_other_rows_keep_their_answers(self, name):
        spec = GRID_SPECS[name]
        G, Y = TestNoiseSpecMethods().grid_rows()
        big_g, big_y = np.full((2, 3), 1.5e308), np.full((2, 3), 1.5e308)
        big_y[0] = -1.5e308  # a difference past the range
        big_g[1, 0] = 1e-300  # a ratio past the range
        big_y[1, 0] = 1e10
        got = spec.feasible(np.vstack([Y, big_y]), np.vstack([G, big_g]))
        assert got[: len(G)].tolist() == spec.feasible(Y, G).tolist()
        assert not got[len(G)]

    def test_linear_model_ratio_past_the_range(self):
        model = LinearModel([[1e-300]], NoiseSpec(kind="multiplicative",
                                                  eps_multiplicative=0.5), [[-1, 1]])
        assert model.feasible_batch([[1.0]], [1e10]).tolist() == [False]

    @pytest.mark.parametrize("noise", [NoiseSpec(kind="additive"),
                                       NoiseSpec(kind="mixed", eps_additive=1.0)])
    def test_linear_model_product_past_the_range(self, noise):
        """A x overflows in float64 but its exact value, 0, fits: the row is
        measured again from x scaled by a power of two, in the batch, the
        feasibility test and apply_batch; the finite row keeps the bits of
        its one-row call."""
        model = LinearModel([[2.0, -2.0]], noise, [[-1.7e308, 1.7e308]] * 2)
        X = np.array([[1.7e308, 1.7e308], [0.1, 0.3]])
        g = model.noiseless_batch(X)
        assert g[0].tolist() == [0.0]
        assert g[1].tobytes() == model.noiseless_batch(X[1:])[0].tobytes()
        assert model.feasible_batch(X[:1], [0.0]).tolist() == [True]
        assert model.apply_batch(X[:1], np.zeros((1, noise.dim(1)))).tolist() == [[0.0]]

    def test_linear_model_product_whose_exact_value_leaves_the_range(self):
        model = LinearModel([[2.0, 2.0]], NoiseSpec(kind="mixed", eps_additive=1.0),
                            [[-1.7e308, 1.7e308]] * 2)
        X = np.array([[1.7e308, 1.7e308], [1.0, 1.0]])
        assert np.isinf(model.noiseless_batch(X)[0, 0])
        assert model.feasible_batch(X, [4.0]).tolist() == [False, True]


class TestNoiseless:
    def test_averaging_row(self):
        m = averaging_model()
        np.testing.assert_allclose(m.noiseless_batch([[1.0, 3.0]]), [[2.0]])

    def test_downsample_constant_is_fixed_point(self):
        m = DownsampleModel(bands=2, height=6, width=4, factor=2, r_max=1.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.1))
        c = np.full(m.d1, 0.35)
        np.testing.assert_allclose(m.noiseless_batch(c[None, :]), 0.35, rtol=1e-12)

    def test_microscopy_background_only(self):
        m = small_microscope()
        mu = m.noiseless_batch([[200, 200, 0, 3.0, 0.0]])
        np.testing.assert_array_equal(mu, np.full((1, 16), 3.0))

    def test_out_of_bounds_warns(self):
        m = averaging_model()
        with pytest.warns(UserWarning):
            m.apply_batch([[100.0, 0.0]], [[0.0]])


class TestApply:
    def test_zero_noise_matches_noiseless(self):
        m = averaging_model(eps=0.5)
        np.testing.assert_array_equal(m.apply_batch([[1, 3]], [[0.0]]),
                                      m.noiseless_batch([[1, 3]]))

    def test_additive(self):
        m = averaging_model(eps=0.5)
        np.testing.assert_allclose(m.apply_batch([[1.0, 3.0]], [[0.1]]), [[2.1]])

    def test_mixed_hand_arithmetic(self):
        # mu (1 + e1) + e2 with mu = 10, e1 = 0.1, e2 = -0.5
        m = LinearModel([[1.0]], NoiseSpec(kind="mixed", eps_multiplicative=0.2,
                                           eps_additive=1.0), [[0, 20]])
        np.testing.assert_allclose(m.apply_batch([[10.0]], [[0.1, -0.5]]), [[10.5]])

    def test_noise_outside_set_rejected(self):
        m = averaging_model(eps=0.5)
        with pytest.raises(DataError):
            m.apply_batch([[1, 3]], [[0.6]])

    @pytest.mark.parametrize("call, error, message", [
        (lambda m: m.apply_batch([[1.0, np.nan]], [[0.0]]), DataError,
         "signal contains non-finite entries"),
        (lambda m: m.apply_batch([[1.0, 3.0]], [[np.inf]]), DataError,
         "noise contains non-finite entries"),
        (lambda m: m.apply_batch([[1.0, 3.0, 0.0]], [[0.0]]), UsageError,
         "signal length 3 != d1=2"),
        (lambda m: m.feasible_batch([[1.0]], [2.0]), UsageError, "signal length 1 != d1=2"),
        (lambda m: small_microscope().noiseless_batch([[1.0, 2.0, 0.0, 1.0]]), UsageError,
         "microscopy signals have 5 components (x, y, z, C, h)"),
    ], ids=["signal-nan", "noise-inf", "apply-length", "feasible-length", "microscopy-4"])
    def test_malformed_batch_is_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(averaging_model(eps=0.5))

    def test_noise_of_wrong_length_is_usage_error(self):
        m = averaging_model(eps=0.5)  # d2 = 1
        for e in ([], [0.1, 0.1]):
            with pytest.raises(UsageError, match="must have length 1"):
                m.apply_batch([[1, 3]], [e])
        mixed = LinearModel([[1.0], [2.0]], NoiseSpec(kind="mixed", eps_multiplicative=0.2,
                                                      eps_additive=1.0), [[0, 20]])
        for e in ([0.1, -0.5], [0.1, 0.0, -0.5], [0.1, 0.0, -0.5, 0.5, 0.0]):
            with pytest.raises(UsageError, match="must have length 4"):  # 2 * d2
                mixed.apply_batch([[10.0]], [e])
        # e = (e1, e2) of length 2 * d2: mu (1 + e1) + e2 with mu = (10, 20)
        np.testing.assert_allclose(mixed.apply_batch([[10.0]], [[0.1, 0.0, -0.5, 0.5]]),
                                   [[10.5, 20.5]])


    NOISES = {
        "additive": NoiseSpec(kind="additive", eps_additive=0.3),
        "multiplicative": NoiseSpec(kind="multiplicative", eps_multiplicative=0.2),
        "mixed": NoiseSpec(kind="mixed", eps_multiplicative=0.05, eps_additive=1.0),
        "l2": NoiseSpec(kind="additive", eps_additive=0.3, ball="l2"),
    }

    @staticmethod
    def batch_models():
        rng = np.random.default_rng(12)
        A = rng.normal(size=(7, 11))
        for name, noise in TestApply.NOISES.items():
            yield f"linear-{name}", LinearModel(A, noise, [[-1, 1]] * 11)
            if name != "l2":
                yield f"microscopy-{name}", small_microscope(
                    name, noise.eps_multiplicative, noise.eps_additive)
        yield "downsample", DownsampleModel(2, 8, 12, 4, 1.0, TestApply.NOISES["additive"])

    def test_batch_rows_are_one_row_calls_bit_for_bit(self):
        """Row i of ``apply_batch`` is the one-row call on (X[i], E[i]), which
        in turn is the noise-free measurement of x alone with its noise added."""
        rng = np.random.default_rng(13)
        for name, m in self.batch_models():
            b = m.signal_bounds
            X = rng.uniform(b[:, 0], b[:, 1], size=(40, m.d1))
            E = np.vstack([m.noise.sample(rng, m.d2) for _ in X])
            Y = m.apply_batch(X, E)
            assert Y.shape == (40, m.d2), name
            for x, e, y in zip(X, E, Y):
                assert y.tobytes() == m.apply_batch(x[None, :], e[None, :])[0].tobytes(), name
                g, kind = m.noiseless_batch(x[None, :])[0], m.noise.kind
                if kind == "additive":
                    want = g + e
                elif kind == "multiplicative":
                    want = g * e
                else:
                    want = g * (1.0 + e[: m.d2]) + e[m.d2 :]
                assert y.tobytes() == want.tobytes(), name

    def test_batch_checks_every_row(self):
        m = averaging_model(eps=0.5)
        X = np.zeros((4, 2))
        with pytest.raises(DataError, match="outside the noise set"):
            m.apply_batch(X, [[0.1], [0.2], [0.6], [0.0]])
        X[2, 0] = 11.0
        with pytest.warns(UserWarning, match="outside signal_bounds"):
            m.apply_batch(X, np.zeros((4, 1)))
        with pytest.raises(UsageError, match="must have length 1"):
            m.apply_batch(X, np.zeros((4, 2)))


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
            y = m.apply_batch(x[None, :], e[None, :])[0]
            assert m.feasible_batch(x[None, :], y)[0]

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
        E = np.vstack([spec.sample(rng, m.d2) for _ in sources])
        Y = m.apply_batch(sources, E)
        got = m.feasible_batch(X, Y)
        want = np.array([m.feasible_batch(X[i : i + 1], Y[i])[0] for i in range(40)])
        np.testing.assert_array_equal(got, want)
        assert got.any() and not got.all()
        with pytest.raises(UsageError):
            m.feasible_batch(X, Y[:-1])

    def test_admissible_noise_is_feasible_without_tolerance(self):
        """``feasible_batch(X, apply_batch(X, E))`` holds exactly for noise
        drawn from the set, for every model family and noise kind."""
        rng = np.random.default_rng(14)
        for name, m in TestApply.batch_models():
            b = m.signal_bounds
            X = rng.uniform(b[:, 0], b[:, 1], size=(200, m.d1))
            E = np.vstack([m.noise.sample(rng, m.d2) for _ in X])
            assert m.feasible_batch(X, m.apply_batch(X, E)).all(), name

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


class TestRowContract:
    """Row i of every built-in model's ``noiseless_batch`` is bit for bit its
    one-row call, whatever the batch and the layout of X; so a batched
    feasibility test decides each row as its one-row call does, even on the
    noise boundary, where the last bit of the image decides."""

    KINDS = [("additive", "inf"), ("additive", "l2"), ("multiplicative", "inf"),
             ("multiplicative", "l2"), ("mixed", "inf")]
    MODELS = ["linear 3x6", "linear 7x11", "downsample", "microscopy"]

    @staticmethod
    def noise(kind="additive", ball="inf"):
        return NoiseSpec(kind=kind, ball=ball,
                         eps_additive=0.3 if kind != "multiplicative" else 0.0,
                         eps_multiplicative=0.2 if kind != "additive" else 0.0)

    @staticmethod
    def model(name, noise):
        rng = np.random.default_rng(21)
        if name.startswith("linear"):
            d2, d1 = (3, 6) if name == "linear 3x6" else (7, 11)
            return LinearModel(rng.normal(size=(d2, d1)), noise, [[-1, 1]] * d1)
        if name == "downsample":
            return DownsampleModel(2, 8, 12, 4, 1.0, noise)
        return MicroscopyModel(pixels=(4, 4), pixel_size=100.0, psf_sigma0=150.0,
                               psf_z0=400.0, c_max=10.0, h_max=1000.0, exposure=1.0,
                               volume=[[100, 300], [100, 300], [-100, 100]], noise=noise)

    @staticmethod
    def signals(m, rng, n=64):
        b = m.signal_bounds
        return rng.uniform(b[:, 0], b[:, 1], size=(n, m.d1))

    @pytest.mark.parametrize("name", MODELS)
    def test_noiseless_batch_rows_are_one_row_calls(self, name):
        m = self.model(name, self.noise())
        rng = np.random.default_rng(22)
        X = self.signals(m, rng)
        if isinstance(m, LinearModel):
            # rows whose product overflows: some with an exact A x in range
            # (a kernel direction at the float limit), some past it
            w = np.linalg.svd(m.matrix)[2][-1]
            X[5] = np.finfo(float).max * w / np.abs(w).max()
            X[8] = -X[5]
            X[13] = 1e308 * rng.uniform(-1, 1, m.d1)
            with np.errstate(over="ignore"):
                terms = X[[5, 8]][:, None, :] * m.matrix
            assert np.isinf(terms).any()
        want = np.vstack([m.noiseless_batch(x[None, :]) for x in X])
        if isinstance(m, LinearModel):
            assert np.isfinite(want[[5, 8]]).all()
        wide = np.zeros((X.shape[0], 2 * m.d1))
        wide[:, ::2] = X
        for layout, V in (("C", X), ("Fortran", np.asfortranarray(X)),
                          ("column-strided", wide[:, ::2])):
            assert m.noiseless_batch(V).tobytes() == want.tobytes(), layout
            for lo, hi in ((0, 1), (1, 2), (3, 20), (7, 64), (13, 14), (63, 64)):
                got = m.noiseless_batch(V[lo:hi])
                assert got.tobytes() == want[lo:hi].tobytes(), (layout, lo, hi)

    @pytest.mark.parametrize("name,kind,ball", [
        (name, kind, ball) for (kind, ball), name in itertools.product(KINDS, MODELS)
        if name != "downsample" or kind == "additive"
    ])
    def test_boundary_rows_are_decided_as_one_row_calls(self, name, kind, ball):
        """Each row's measurement puts one entry (the l2 ball: the whole
        noise) on the boundary of the noise set around the row's one-row
        image, so the test turns on that image's last bits."""
        noise = self.noise(kind, ball)
        m = self.model(name, noise)
        rng = np.random.default_rng(23)
        X = self.signals(m, rng)
        G = np.vstack([m.noiseless_batch(x[None, :]) for x in X])
        if ball == "l2":
            u = rng.normal(size=G.shape)
            eps = noise.eps_additive + noise.eps_multiplicative
            Y = noise.compose(G, eps * u / np.linalg.norm(u, axis=1, keepdims=True))
        else:
            scale = rng.uniform(0.0, 0.5, G.shape) * rng.choice([-1.0, 1.0], G.shape)
            scale[np.arange(len(G)), rng.integers(m.d2, size=len(G))] = 1.0
            if kind == "multiplicative":
                Y = noise.compose(G, noise.eps_multiplicative * scale)
            else:
                Y = G + scale * noise.halfwidth(G)
        got = m.feasible_batch(X, Y)
        want = [m.feasible_batch(X[i : i + 1], Y[i])[0] for i in range(len(X))]
        np.testing.assert_array_equal(got, want)


class TestLinearity:
    def test_apply_linear_in_signal(self):
        rng = np.random.default_rng(9)
        m = LinearModel(rng.normal(size=(3, 5)),
                        NoiseSpec(kind="additive", eps_additive=1.0), [[-4, 4]] * 5)
        for _ in range(50):
            x1, x2 = rng.uniform(-2, 2, (2, 5))
            e = rng.uniform(-1, 1, 3)
            y12, y0 = m.apply_batch([x1 + x2, np.zeros(5)], [e, np.zeros(3)])
            y1, y2 = m.apply_batch([x1, x2], [e, np.zeros(3)])
            np.testing.assert_allclose(y12 + y0, y1 + y2, rtol=1e-12, atol=1e-12)


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
        dense = np.kron(np.eye(m.bands), m.band_matrix())  # block diagonal over bands
        np.testing.assert_allclose(dense @ x, m.noiseless_batch(x[None, :])[0],
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

    def test_upscale_refuses_a_measurement_of_the_wrong_length(self):
        from kersize.predictors import upscale

        m = DownsampleModel(bands=1, height=4, width=4, factor=2, r_max=1.0,
                            noise=NoiseSpec(kind="additive"))
        with pytest.raises(UsageError, match=re.escape("measurement length (3,) != d2=4")):
            upscale(m, np.zeros(3))

    def test_constant_low_res_upscales_to_constant(self):
        from kersize.predictors import upscale

        m = DownsampleModel(bands=1, height=8, width=8, factor=2, r_max=1.0,
                            noise=NoiseSpec(kind="additive", eps_additive=0.05))
        y = np.full(m.d2, 0.4)
        np.testing.assert_allclose(upscale(m, y, order=1), 0.4, rtol=1e-12)


class TestMicroscopyIntensity:
    def test_centered_emitter_symmetric_image(self):
        m = small_microscope()
        mu = m.noiseless_batch([[200.0, 200.0, 0.0, 2.0, 500.0]]).reshape(4, 4)
        np.testing.assert_array_equal(mu, mu[::-1, ::-1])

    def test_total_emitter_photons_against_quadrature(self):
        """Sum of (mu - C T) equals h T times the Gaussian mass on the sensor,
        checked against adaptive quadrature of the Gaussian density."""
        m = small_microscope()
        theta = np.array([170.0, 240.0, 50.0, 1.0, 700.0])
        mu = m.noiseless_batch(theta[None, :])[0]
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
        total = float(np.sum(big.noiseless_batch([theta])))
        assert total < 800.0
        assert total == pytest.approx(800.0, rel=1e-10)

    def test_strictly_increasing_in_background_and_rate(self):
        m = small_microscope()
        base, more_c, more_h = m.noiseless_batch([[150, 250, 30, 4.0, 400.0],
                                                  [150, 250, 30, 4.5, 400.0],
                                                  [150, 250, 30, 4.0, 450.0]])
        assert np.all(more_c > base)
        assert np.all(more_h > base)

    def test_defocus_widens_psf(self):
        m = small_microscope()
        assert m.psf_sigma(0.0) == 150.0
        assert m.psf_sigma(400.0) == pytest.approx(150.0 * np.sqrt(2))


class TestModelParameters:
    MICROSCOPE = dict(pixels=(4, 4), pixel_size=100.0, psf_sigma0=150.0, psf_z0=400.0,
                      c_max=10.0, h_max=1000.0, exposure=1.0,
                      volume=[[100, 300], [100, 300], [-100, 100]], noise=NoiseSpec())

    @pytest.mark.parametrize("build", [
        lambda nan: LinearModel(np.eye(2), NoiseSpec(), [[-1, nan], [-1, 1]]),
        lambda nan: LinearModel(np.eye(2), NoiseSpec(), [[-1, 1], [nan, 1]]),
        lambda nan: DownsampleModel(1, 4, 4, 2, nan, NoiseSpec()),
        lambda nan: MicroscopyModel(**dict(TestModelParameters.MICROSCOPE,
                                           volume=[[100, 300], [nan, 300], [-100, 100]])),
        *(lambda nan, name=name: MicroscopyModel(**dict(TestModelParameters.MICROSCOPE,
                                                        **{name: nan}))
          for name in ("pixel_size", "psf_sigma0", "psf_z0", "c_max", "h_max", "exposure")),
    ], ids=["linear_hi", "linear_lo", "r_max", "volume", "pixel_size", "psf_sigma0",
            "psf_z0", "c_max", "h_max", "exposure"])
    def test_nan_parameter_is_usage_error(self, build):
        """NaN passes every ``<= 0`` and ``lo > hi`` test; each constructor
        refuses it."""
        with pytest.raises(UsageError):
            build(float("nan"))


    @pytest.mark.parametrize("build, error, message", [
        (lambda: LinearModel([1.0, 2.0], NoiseSpec(), [[-1, 1]]), UsageError,
         "matrix must be 2-D"),
        (lambda: LinearModel([[1.0, np.inf]], NoiseSpec(), [[-1, 1]] * 2), DataError,
         "matrix has non-finite entries"),
        (lambda: LinearModel([[1.0, 2.0]], NoiseSpec(), [[-1, 1]]), UsageError,
         "signal_bounds must have shape (2, 2)"),
        (lambda: DownsampleModel(1, 4, 4, 1, 1.0, NoiseSpec()), UsageError,
         "factor must be an integer >= 2"),
        (lambda: DownsampleModel(0, 4, 4, 2, 1.0, NoiseSpec()), UsageError,
         "bands, height, width must be positive"),
        (lambda: DownsampleModel(1, 4, 4, 2, 1.0,
                                 NoiseSpec(kind="multiplicative", eps_multiplicative=0.1)),
         UsageError, "the downsampling model uses additive noise"),
        (lambda: MicroscopyModel(**dict(TestModelParameters.MICROSCOPE, pixels=(4, 0))),
         UsageError, "pixel counts must be positive"),
    ], ids=["matrix-1d", "matrix-inf", "bounds-shape", "factor-1", "bands-0",
            "downsample-multiplicative", "pixels-0"])
    def test_malformed_model_is_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("build, box", [
        (averaging_model, [[-10.0, 10.0], [-10.0, 10.0]]),
        (lambda: DownsampleModel(1, 4, 4, 2, 3.0, NoiseSpec()), [[0.0, 3.0]] * 16),
        (small_microscope, [[100.0, 300.0], [100.0, 300.0], [-100.0, 100.0],
                            [0.0, 10.0], [0.0, 1000.0]]),
    ], ids=["linear", "downsample", "microscopy"])
    def test_signal_box_is_a_read_only_copy(self, build, box):
        m = build()
        assert m.signal_bounds.dtype == np.float64 and m.signal_bounds.tolist() == box
        with pytest.raises(ValueError, match="read-only"):
            m.signal_bounds[0, 0] = -1e9
        assert m.signal_bounds.tolist() == box

    def test_linear_box_is_not_the_callers_array(self):
        given = np.array([[-1.0, 1.0], [-2.0, 2.0]])
        m = LinearModel(np.eye(2), NoiseSpec(), given)
        given[0] = [5.0, 6.0]
        assert m.signal_bounds.tolist() == [[-1.0, 1.0], [-2.0, 2.0]]


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
            np.testing.assert_allclose(m2.noiseless_batch([x]), m.noiseless_batch([x]),
                                       rtol=1e-15)

    @pytest.mark.parametrize("model, document", [
        (averaging_model(eps=0.25), {
            "variant": "linear_additive",
            "matrix": [[0.5, 0.5]],
            "noise": {"kind": "additive", "eps_additive": 0.25, "eps_multiplicative": 0.0,
                      "ball": "inf"},
            "signal_bounds": [[-10.0, 10.0], [-10.0, 10.0]],
        }),
        (DownsampleModel(bands=2, height=8, width=8, factor=2, r_max=3.0,
                         noise=NoiseSpec(kind="additive", eps_additive=0.1)), {
            "variant": "downsample_additive",
            "bands": 2, "height": 8, "width": 8, "factor": 2, "r_max": 3.0,
            "noise": {"kind": "additive", "eps_additive": 0.1, "eps_multiplicative": 0.0,
                      "ball": "inf"},
        }),
        (small_microscope(), {
            "variant": "microscopy",
            "pixels": [4, 4], "pixel_size": 100.0, "psf_sigma0": 150.0, "psf_z0": 400.0,
            "c_max": 10.0, "h_max": 1000.0, "exposure": 1.0,
            "volume": [[100.0, 300.0], [100.0, 300.0], [-100.0, 100.0]],
            "noise": {"kind": "mixed", "eps_additive": 1.0, "eps_multiplicative": 0.05,
                      "ball": "inf"},
        }),
    ], ids=["linear", "downsample", "microscopy"])
    def test_document_of_each_variant(self, model, document):
        """A model's document is the literal one, to the JSON text (so 3 is
        not written for 3.0), and reads back as the same model."""
        assert json.dumps(model.to_dict(), sort_keys=True) == json.dumps(document, sort_keys=True)
        again = model_from_dict(document)
        assert type(again) is type(model)
        assert again.to_dict() == document
        x = np.asarray(model.signal_bounds).mean(axis=1)[None, :]
        assert again.noiseless_batch(x).tobytes() == model.noiseless_batch(x).tobytes()

    def test_model_outside_the_variants_has_no_document(self):
        class Identity(ForwardModel):
            noise, d1, d2 = NoiseSpec(), 1, 1

            def noiseless_batch(self, X):
                return np.atleast_2d(X)

        with pytest.raises(UsageError, match="Identity is no model variant"):
            Identity().to_dict()

    def test_unknown_variant(self):
        with pytest.raises(DataError):
            model_from_dict({"variant": "mystery"})
