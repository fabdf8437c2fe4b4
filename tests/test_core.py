"""Tests for the evaluation pseudo-norm, empirical loss, and containers."""

import math
import re

import numpy as np
import pytest

from kersize.core import (
    DataError,
    FeasibleSet,
    FeasibleSetCollection,
    NormSpec,
    Sets,
    UsageError,
    as_vector,
    collection_from_dataset,
    dataset_from_collection,
    distance_powers,
    exact_sum,
    loss,
    member_centre,
    number,
    numbers,
    p_dist,
    power_mean,
    set_losses,
    vector_norms,
)

EUCLID = NormSpec(p=2, q=2)


def two_point_dataset():
    return collection_from_dataset([[0.0, 0.0], [0.0, 2.0]], [[1.0], [1.0]], [0, 0], ("y1",))


class TestNormSpec:
    def test_rejects_bad_p(self):
        with pytest.raises(UsageError):
            NormSpec(p=0.0)
        with pytest.raises(UsageError):
            NormSpec(p=-1.0)

    def test_rejects_bad_q(self):
        with pytest.raises(UsageError):
            NormSpec(q=3)

    def test_rejects_empty_mask(self):
        with pytest.raises(UsageError):
            NormSpec(mask=[0, 0, 0])

    def test_mask_values_binary(self):
        with pytest.raises(UsageError):
            NormSpec(mask=[1, 2, 0])

    def test_roundtrip_dict(self):
        n = NormSpec(p=1.5, q=np.inf, mask=[1, 0, 1])
        n2 = NormSpec.from_dict(n.to_dict())
        assert n2.p == n.p and n2.q == n.q
        assert np.array_equal(n2.mask, n.mask)


class TestNumberConverters:
    @pytest.mark.parametrize("value", ["0.2", True, None, [0.2]])
    def test_number_refuses_what_is_no_number(self, value):
        with pytest.raises(TypeError):
            number(value)

    @pytest.mark.parametrize("value", [[["1", 2]], [[1, True]], np.array([True]),
                                       np.array(["1"]), [[1, 2], [3]]])
    def test_numbers_refuses_what_is_no_array_of_numbers(self, value):
        with pytest.raises((TypeError, ValueError)):
            numbers(value)

    def test_numbers_reads_ints_past_int64(self):
        """JSON integers past the int64 range are numbers too, as float64
        read them before."""
        got = numbers([[-10**20, 10**20], [0, 0.5]])
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [[-1e20, 1e20], [0.0, 0.5]])


class TestPDist:
    def test_identity_is_zero(self):
        a = np.array([3.0, -1.0])
        for q in (1, 2, np.inf):
            assert p_dist(a, a, NormSpec(p=2, q=q)) == 0.0

    def test_masked_3_4_5(self):
        # third coordinate masked out, leaving a 3-4-5 triangle
        n = NormSpec(p=2, q=2, mask=[1, 1, 0])
        assert p_dist([3, 4, 5], [0, 0, 9], n) == pytest.approx(5.0, abs=0)

    def test_q1_sums_absolute_differences(self):
        assert p_dist([1, 3], [3, 1], NormSpec(p=2, q=1)) == 4.0

    def test_qinf_takes_max(self):
        assert p_dist([1, 3], [3, 0], NormSpec(p=2, q=np.inf)) == 3.0

    def test_l2_past_overflowing_squares(self):
        """Only the rows whose sum of squares overflows are rescaled; every
        other row keeps the bits of the plain square root."""
        rng = np.random.default_rng(43)
        d = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-100, 100, size=(6, 1))
        d[1] = [3e200, 4e200, 0.0]
        d[4] = [-1e308, 1e308, 1e308]
        norms = vector_norms(d, EUCLID)  # no overflow warning
        plain = np.sqrt(np.einsum("ij,ij->i", d, d))
        keep = [0, 2, 3, 5]
        np.testing.assert_array_equal(norms[keep].view(np.uint64), plain[keep].view(np.uint64))
        np.testing.assert_allclose(norms[[1, 4]], [5e200, np.sqrt(3) * 1e308], rtol=1e-15)
        masked = NormSpec(p=2, q=2, mask=[1, 0, 1])
        assert p_dist([3e200, 7.0, -4e200], [0.0, 0.0, 0.0], masked) == pytest.approx(5e200)

    def test_q1_distance_past_the_float_range_is_data_error(self):
        """Each difference overflows, and so would the sum of finite ones: a
        DataError, with no overflow warning first."""
        with pytest.raises(DataError, match="the distance overflows float64"):
            p_dist([1e308, 1e308], [-1e308, -1e308], NormSpec(q=1))
        with pytest.raises(DataError, match="the distance overflows float64"):
            p_dist([1e308, 1e308], [0.0, 0.0], NormSpec(q=1))
        assert vector_norms(np.array([[1e308, 1e308]]), NormSpec(q=1))[0] == np.inf

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            p_dist([1, 2], [1, 2, 3], EUCLID)

    @pytest.mark.parametrize("a, b", [([np.nan], [0.0]), ([0.0], [np.inf]),
                                      ([1.0, -np.inf], [1.0, 2.0])])
    def test_non_finite_vector_is_data_error(self, a, b):
        """A NaN or infinite entry is refused, not turned into a NaN distance."""
        with pytest.raises(DataError, match="^p_dist needs finite vectors$"):
            p_dist(a, b, NormSpec())

    def test_mask_length_mismatch(self):
        with pytest.raises(UsageError):
            p_dist([1, 2], [0, 0], NormSpec(mask=[1, 0, 1]))

    @pytest.mark.parametrize("q", [1, 2, np.inf])
    def test_pseudo_metric_on_random_triples(self, q):
        """Symmetry and the triangle inequality on masked coordinates."""
        rng = np.random.default_rng(42)
        n = NormSpec(p=2, q=q, mask=[1, 0, 1, 1, 0])
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 5)) * 10
            dab, dba = p_dist(a, b, n), p_dist(b, a, n)
            assert dab == dba
            dac, dcb = p_dist(a, c, n), p_dist(c, b, n)
            assert dab <= dac + dcb + 1e-12 * max(1.0, dab)

    def test_zero_iff_masked_coordinates_equal(self):
        n = NormSpec(p=2, q=2, mask=[1, 0])
        assert p_dist([1.0, 5.0], [1.0, -7.0], n) == 0.0
        assert p_dist([1.0, 5.0], [1.1, 5.0], n) > 0.0


class TestLoss:
    def test_hand_evaluated_rmse(self):
        # mean of squared distances {1, 1} then square root
        d = two_point_dataset()
        assert loss(d, {"y1": np.array([0.0, 1.0])}, EUCLID) == pytest.approx(1.0, rel=1e-12)

    def test_perfect_reconstruction_is_zero(self):
        c = FeasibleSetCollection(
            d1=2,
            d2=1,
            entries=(
                FeasibleSet(id="a", measurement=[1.0], members=[[2.0, 3.0]]),
                FeasibleSet(id="b", measurement=[4.0], members=[[0.0, -1.0]]),
            ),
        )
        preds = {"a": np.array([2.0, 3.0]), "b": np.array([0.0, -1.0])}
        assert loss(c, preds, EUCLID) == 0.0

    def test_p1_mean_absolute(self):
        d = two_point_dataset()
        assert loss(d, {"y1": np.array([0.0, 0.0])}, NormSpec(p=1, q=2)) == pytest.approx(1.0)

    def test_missing_prediction(self):
        d = two_point_dataset()
        with pytest.raises(DataError):
            loss(d, {}, EUCLID)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction(self, value):
        with pytest.raises(DataError, match="prediction for 'y1' is not finite"):
            loss(two_point_dataset(), {"y1": np.array([0.0, value])}, EUCLID)

    def test_huge_prediction(self):
        """A finite prediction 1e200 from the members has a finite loss at
        p = 1; at p = 2 its squared distance overflows, and so does the sum of
        two finite powers of 1e308 at distance 1e154: both are data errors."""
        d = two_point_dataset()
        far = {"y1": np.array([0.0, 1e200])}
        assert loss(d, far, NormSpec(p=1, q=2)) == pytest.approx(1e200)
        with pytest.raises(DataError, match="loss of the prediction for 'y1' overflows"):
            loss(d, far, EUCLID)
        with pytest.raises(DataError, match="sum of 2 p-th powers overflows"):
            loss(d, {"y1": np.array([0.0, 1e154])}, EUCLID)

    def test_empty_dataset(self):
        d = FeasibleSetCollection(d1=2, d2=1, entries=(
            FeasibleSet(id="a", measurement=[0.0], members=np.zeros((0, 2))),))
        with pytest.raises(DataError, match="^loss is undefined on an empty dataset$"):
            loss(d, {"a": np.zeros(2)}, EUCLID)
        with pytest.raises(DataError, match="^loss is undefined on an empty dataset$"):
            set_losses(Sets([]), np.zeros((0, 2)), (), {"m": {}}, NormSpec())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 3))
        y = np.repeat(rng.normal(size=(4, 2)), 3, axis=0)
        g = np.repeat(np.arange(4), 3)
        ids = tuple("m%d" % i for i in range(4))
        preds = {i: rng.normal(size=3) for i in ids}
        base = collection_from_dataset(x, y, g, ids)
        perm = rng.permutation(12)
        shuffled = collection_from_dataset(x[perm], y[perm], g[perm], ids)
        for p in (0.5, 1, 2, 3):
            n = NormSpec(p=p, q=2)
            assert loss(base, preds, n) == pytest.approx(loss(shuffled, preds, n), rel=1e-12)

    def test_power_mean_is_fsum_over_elements(self):
        """Bit-equal to fsum over the numpy scalars taken one by one, on arrays
        of mixed lengths (empty and 1-element ones included) and on a list."""
        rng = np.random.default_rng(5)
        powers = [rng.exponential(size=n) * 10.0 ** rng.integers(-12, 13, size=n)
                  for n in (0, 1, 7, 1, 300, 0, 64)]
        powers.insert(0, np.array([1e16] + [1.0] * 10))  # a naive sum drops every 1
        powers.append([0.25, 1e-300])
        n = sum(len(a) for a in powers)
        total = math.fsum([t for a in powers for t in a])
        for p in (0.5, 1.0, 1.5, 2.0, 3.0):
            assert power_mean(powers, p) == (total / n) ** (1.0 / p)

    @pytest.mark.parametrize("reduce", [np.mean, np.median])
    def test_centres_do_not_overflow(self, reduce):
        """A column whose float64 sum overflows is rescaled; every other column
        keeps the bits numpy gives it."""
        rng = np.random.default_rng(6)
        X = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-100, 100, size=(1, 3))
        X[:, 1] = [1.5e308, 1.5e308, -1e308, 1.5e308, 1.5e308, 1.5e308]
        got = member_centre(X, reduce)  # no overflow warning
        keep = [0, 2]
        np.testing.assert_array_equal(got[keep].view(np.uint64),
                                      reduce(X[:, keep], axis=0).view(np.uint64))
        assert got[1] == pytest.approx(6.5 / 6 * 1e308 if reduce is np.mean else 1.5e308,
                                       rel=1e-15)

    def test_powers_past_float64_raise(self):
        with pytest.raises(DataError, match="^the objective overflows float64$"):
            distance_powers(np.array([[1e200]]), np.array([-1e200]), NormSpec(p=2),
                            "the objective")
        with pytest.raises(DataError, match="^a sum overflows float64$"):
            exact_sum([1e308, 1e308], "a sum")
        with pytest.raises(DataError):
            exact_sum([math.inf, -math.inf], "a sum")

    def test_nearby_maps_have_nearby_losses(self):
        """|loss(phi) - loss(phi')| <= delta when every prediction moves by
        at most delta (p >= 1)."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(9, 4))
        y = np.repeat(rng.normal(size=(3, 2)), 3, axis=0)
        d = collection_from_dataset(x, y, np.repeat(np.arange(3), 3), ("a", "b", "c"))
        for p in (1, 1.5, 2, 4):
            n = NormSpec(p=p, q=2)
            preds = {i: rng.normal(size=4) for i in d.ids}
            delta = 0.37
            shift = rng.normal(size=4)
            shift *= delta / np.linalg.norm(shift)
            moved = {i: v + shift for i, v in preds.items()}
            assert abs(loss(d, preds, n) - loss(d, moved, n)) <= delta + 1e-12


class TestDatasetFromCollection:
    def test_counts_and_groups(self):
        c = FeasibleSetCollection(
            d1=2,
            d2=1,
            entries=(
                FeasibleSet(id="a", measurement=[1.0], members=[[0, 0], [0, 2]]),
                FeasibleSet(id="b", measurement=[2.0], members=[[1, 1]]),
            ),
        )
        x, y = dataset_from_collection(c)
        assert c.size == 3
        assert x.tolist() == [[0, 0], [0, 2], [1, 1]]
        assert y.tolist() == [[1.0], [1.0], [2.0]]  # each member with its set's measurement
        assert not x.flags.writeable  # the collection's own stacked members

    def test_empty_members_everywhere(self):
        c = FeasibleSetCollection(
            d1=2,
            d2=1,
            entries=(FeasibleSet(id="a", measurement=[1.0], members=np.zeros((0, 2))),),
        )
        x, y = dataset_from_collection(c)
        assert c.size == 0
        assert x.shape == (0, 2) and y.shape == (0, 1)

    def test_single_measurement_at_reported_scale(self):
        # one measurement with 1501 members gives 1501 pairs
        members = np.arange(1501 * 2, dtype=float).reshape(1501, 2)
        c = FeasibleSetCollection(
            d1=2, d2=1, entries=(FeasibleSet(id="a", measurement=[0.0], members=members),)
        )
        x, y = dataset_from_collection(c)
        assert c.size == 1501
        np.testing.assert_array_equal(x, members)
        np.testing.assert_array_equal(y, np.zeros((1501, 1)))

    def test_deterministic_set_major_order(self):
        c = FeasibleSetCollection(
            d1=1,
            d2=1,
            entries=(
                FeasibleSet(id="a", measurement=[0.0], members=[[1.0], [2.0]]),
                FeasibleSet(id="b", measurement=[1.0], members=[[3.0]]),
            ),
        )
        x, _ = dataset_from_collection(c)
        assert x[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_collection_roundtrip_through_dataset(self):
        c = FeasibleSetCollection(
            d1=2,
            d2=1,
            entries=(
                FeasibleSet(id="a", measurement=[1.0], members=[[0, 0], [0, 2]]),
                FeasibleSet(id="b", measurement=[2.0], members=[[1, 1]]),
            ),
        )
        c2 = collection_from_dataset(*dataset_from_collection(c),
                                     np.repeat(np.arange(c.k), c.counts), c.ids)
        assert c2.ids == c.ids
        for e1, e2 in zip(c.entries, c2.entries):
            np.testing.assert_array_equal(e1.members, e2.members)
            np.testing.assert_array_equal(e1.measurement, e2.measurement)


class TestContainers:
    def test_uniform_flag(self):
        mk = lambda n, i: FeasibleSet(id=str(i), measurement=[0.0], members=np.zeros((n, 2)))
        c = FeasibleSetCollection(d1=2, d2=1, entries=(mk(3, 0), mk(3, 1)))
        assert c.uniform
        c = FeasibleSetCollection(d1=2, d2=1, entries=(mk(3, 0), mk(2, 1)))
        assert not c.uniform

    def test_rejects_nonfinite_members(self):
        with pytest.raises(DataError, match="^feasible set 'a' has non-finite members$"):
            FeasibleSet(id="a", measurement=[0.0], members=[[np.nan, 0.0]])

    def test_rejects_mixed_measurements_in_group(self):
        with pytest.raises(DataError, match="^pairs in group 'a' disagree on the measurement$"):
            collection_from_dataset([[0.0], [1.0]], [[0.0], [1.0]], [0, 0], ("a",))

    def test_rejects_no_entries(self):
        with pytest.raises(UsageError, match="a collection needs at least one measurement"):
            FeasibleSetCollection(d1=1, d2=1, entries=())

    @pytest.mark.parametrize("call, error, message", [
        (lambda: as_vector([[1.0]]), UsageError, "vector must be 1-D, got shape (1, 1)"),
        (lambda: as_vector([1.0, np.inf], "y"), DataError, "y contains non-finite entries"),
        (lambda: FeasibleSet(id="a", measurement=[0.0], members=np.zeros((1, 1, 2))),
         UsageError, "members must be a 2-D array, got shape (1, 1, 2)"),
        (lambda: FeasibleSetCollection(d1=1, d2=2, entries=(
            FeasibleSet(id="a", measurement=[0.0], members=[[1.0]]),)),
         DataError, "set 'a': measurement length != d2=2"),
        (lambda: FeasibleSetCollection(d1=2, d2=1, entries=(
            FeasibleSet(id="a", measurement=[0.0], members=[[1.0]]),)),
         DataError, "set 'a': member length != d1=2"),
        (lambda: collection_from_dataset(np.zeros((1, 1, 1)), [[0.0]], [0], ("a",)),
         UsageError, "x must be 2-D, got shape (1, 1, 1)"),
        (lambda: collection_from_dataset([[0.0]], [[np.nan]], [0], ("a",)),
         DataError, "measurement contains non-finite entries"),
        (lambda: collection_from_dataset([[np.inf]], [[0.0]], [0], ("a",)),
         DataError, "feasible set 'a' has non-finite members"),
        (lambda: collection_from_dataset([[0.0]], [[0.0], [1.0]], [0, 0], ("a",)),
         UsageError, "x, y and group must have one row per pair"),
        (lambda: collection_from_dataset([[0.0]], [[0.0]], [1], ("a",)),
         DataError, "group index out of range"),
    ], ids=["vector-2d", "vector-inf", "members-3d", "measurement-length", "member-length",
            "pairs-3d", "pairs-nan", "pairs-x-inf", "pairs-rows", "pairs-group"])
    def test_malformed_input_is_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_one_dimensional_members(self):
        """An empty list is a set with no members, a flat vector one member."""
        assert FeasibleSet(id="a", measurement=[0.0], members=[]).count == 0
        one = FeasibleSet(id="a", measurement=[0.0], members=[1.0, 2.0])
        assert one.members.tolist() == [[1.0, 2.0]]

    def test_rejects_duplicate_ids(self):
        e = FeasibleSet(id="a", measurement=[0.0], members=[[1.0]])
        with pytest.raises(DataError):
            FeasibleSetCollection(d1=1, d2=1, entries=(e, e))
