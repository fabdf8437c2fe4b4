"""The stacked pass over every feasible set of a collection, against a
per-set oracle: each set's centres, θ, losses and certificate must come out
bit for bit as the per-set loops give them, and a fault must raise the error
the per-set loops raise."""

import math

import numpy as np
import pytest

from kersize import bounds
from kersize.bounds import optimal_map_value, pair_power_sum, verify_bounds
from kersize.core import (
    DataError,
    FeasibleSet,
    FeasibleSetCollection,
    NormSpec,
    PairedDataset,
    Sets,
    UsageError,
    collection_from_dataset,
    dataset_from_collection,
    distance_powers,
    loss,
    power_mean,
)
from kersize.predictors import mean_map, median_map, zero_map

# straddling numpy's 8-wide unrolled and 128-long blocked pairwise sums
SIZES = (1, 2, 7, 8, 9, 16, 128, 129, 300)
NORMS = [(2, 2), (1, 1), (2, 1), (1, 2), (2, np.inf)]


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def oracle_centre(members, reduce):
    """One set's overflow-safe mean or median, as a per-set loop takes it."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = reduce(members, axis=0)
    big = ~np.isfinite(out)
    if big.any():
        shift = math.frexp(members.shape[0])[1] + 1
        out[big] = np.ldexp(reduce(np.ldexp(members[:, big], -shift), axis=0), shift)
    return out


def oracle_loss_powers(members, predictions, set_id, norm, name=None):
    """One set's ‖x - φ‖^p, with the per-set checks in their order."""
    of_map = "" if name is None else f" from map {name!r}"
    if set_id not in predictions:
        raise DataError(f"missing prediction for measurement {set_id!r}{of_map}")
    phi = np.asarray(predictions[set_id], dtype=np.float64)
    if phi.shape != (members.shape[1],):
        raise UsageError(f"prediction for {set_id!r}{of_map} has shape {phi.shape}, "
                         f"expected ({members.shape[1]},)")
    if not np.isfinite(phi).all():
        raise DataError(f"prediction for {set_id!r}{of_map} is not finite")
    return distance_powers(members, phi, norm,
                           f"loss of the prediction for {set_id!r}{of_map}")


def oracle_report(c, maps, norm):
    """Per-set loops over a collection: each set's losses of every map
    ('theta' first, from the set's lone solve), θ's objective and v_k, and
    every map's total loss."""
    named = {"theta": {e.id: optimal_map_value(e.members, norm)
                       for e in c.entries if e.count}, **maps}
    powers = {name: [] for name in named}
    rows = []
    for e in c.entries:
        if e.count == 0:
            continue
        row = {}
        for name, preds in named.items():
            pw = oracle_loss_powers(e.members, preds, e.id, norm, name)
            powers[name].append(pw)
            row[name] = power_mean([pw], norm.p)
        row["objective"] = math.fsum(powers["theta"][-1].tolist()) / e.count
        row["v"] = 2.0 * pair_power_sum(e.members, norm) / e.count**2
        rows.append(row)
    totals = {name: power_mean(pws, norm.p) for name, pws in powers.items()}
    return rows, totals


def ragged_collection(d, seed=0, sizes=SIZES):
    """Sets of every size in ``sizes`` in shuffled order, with empty sets
    among them; members at widely different scales."""
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(sizes)) + [0, 0]
    order = [int(n) for n in rng.permutation(order)]
    entries = []
    for k, n in enumerate(order):
        scale = 10.0 ** rng.integers(-3, 4)
        members = 1e3 * rng.normal(size=d) + scale * rng.normal(size=(n, d))
        if n > 4:  # ties, for the medians
            members[: n // 4] = members[n // 4]
        entries.append(FeasibleSet(id=f"m{k:02d}", measurement=[float(k)],
                                   members=members.reshape(n, d)))
    return FeasibleSetCollection(d1=d, d2=1, entries=tuple(entries))


class TestSetsReduce:
    @pytest.mark.parametrize("d", [None, 1, 5])
    @pytest.mark.parametrize("fn", [np.mean, np.median, np.sum, np.sort])
    def test_each_set_gets_its_own_bits(self, d, fn):
        rng = np.random.default_rng(1)
        sizes = list(rng.permutation(SIZES + SIZES))
        shape = (sum(sizes),) if d is None else (sum(sizes), d)
        A = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        sets = Sets(sizes)
        got = sets.reduce(A, fn)
        for k, (a, b) in enumerate(sets.bounds):
            want = fn(A[a:b], axis=0)
            assert bits(got[a:b] if fn is np.sort else got[k]) == bits(want)

    @pytest.mark.parametrize("reduce", [np.mean, np.median])
    def test_centres_rescue_overflow_per_group(self, reduce):
        """Only the entries past the float64 range are recomputed; every
        other entry of the group keeps numpy's bits."""
        rng = np.random.default_rng(2)
        sizes = [3, 4, 3, 1, 4]
        A = rng.normal(size=(sum(sizes), 3))
        A[0:3, 1] = 1.5e308  # the first size-3 set overflows in column 1
        A[11:15, 2] = -1.7e308  # the second size-4 set in column 2
        got = Sets(sizes).centres(A, reduce)
        for k, (a, b) in enumerate(Sets(sizes).bounds):
            assert bits(got[k]) == bits(oracle_centre(A[a:b], reduce))
        assert got[0, 1] == 1.5e308 and got[4, 2] == -1.7e308

    def test_no_sets(self):
        assert Sets([]).reduce(np.zeros((0, 4)), np.mean).shape == (0, 4)

    def test_fsums_past_the_float_range_and_undefined(self):
        """An exact sum past the float64 range is +inf, inf - inf is NaN, and
        a set that ``which`` leaves out is NaN."""
        A = np.array([1e308, 1e308, np.inf, -np.inf, 3.0])
        assert Sets([2, 2, 1]).fsums(A).tolist()[::2] == [np.inf, 3.0]
        assert np.isnan(Sets([2, 2, 1]).fsums(A)[1])
        chosen = Sets([2, 2, 1]).fsums(A, np.array([True, False, False]))
        assert chosen[0] == np.inf and np.isnan(chosen[1:]).all()


class TestStackedPass:
    @pytest.mark.parametrize("d, masked", [(1, False), (5, False), (5, True)])
    @pytest.mark.parametrize("p, q", NORMS)
    def test_matches_per_set_oracle_bit_for_bit(self, p, q, d, masked):
        c = ragged_collection(d)
        norm = NormSpec(p=p, q=q, mask=[1, 0, 1, 1, 0] if masked else None)
        rng = np.random.default_rng(3)
        maps = {"mean": mean_map(c), "median": median_map(c), "zero": zero_map(c),
                "random": {i: 1e3 * rng.normal(size=d) for i in c.ids}}
        for e in c.entries:
            if e.count:
                assert bits(maps["mean"][e.id]) == bits(oracle_centre(e.members, np.mean))
                assert bits(maps["median"][e.id]) == bits(oracle_centre(e.members, np.median))
        rows, totals = oracle_report(c, maps, norm)
        report = verify_bounds(c, maps, norm)
        filled = [r for r in report.per_measurement if r.n_k]
        assert len(filled) == len(rows) == len(SIZES)
        for got, want in zip(filled, rows):
            assert list(got.losses) == ["theta", *maps]
            for name, value in got.losses.items():
                assert bits(value) == bits(want[name]), (got.id, name)
            assert bits(got.theta_objective) == bits(want["objective"])
            assert bits(got.v_k) == bits(want["v"])
        for row in report.per_measurement:
            if row.n_k == 0:
                assert row.losses == dict.fromkeys(["theta", *maps])
        assert bits(report.theta_loss) == bits(totals["theta"])
        for name in maps:
            assert bits(report.losses[name]) == bits(totals[name])
            assert bits(loss(dataset_from_collection(c), maps[name], norm)) == bits(totals[name])

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("p, q", [*NORMS, (1.5, 2)])
    def test_theta_loss_is_the_root_of_its_objective(self, p, q, masked):
        """Each row's θ loss and θ objective come from one exact per-set sum:
        the loss is the objective's p-th root, bit for bit."""
        c = ragged_collection(5, seed=7)
        norm = NormSpec(p=p, q=q, mask=[1, 0, 1, 1, 0] if masked else None)
        report = verify_bounds(c, {"zero": zero_map(c)}, norm)
        for row in report.per_measurement:
            if row.n_k:
                assert bits(row.losses["theta"]) == bits(row.theta_objective ** (1 / norm.p))

    @pytest.mark.parametrize("p, q", [(2, 2), (1, 1)])
    def test_closed_form_theta_is_the_per_set_centre(self, p, q):
        c = ragged_collection(4, seed=5)
        norm = NormSpec(p=p, q=q)
        for e in c.entries:
            if e.count:
                want = oracle_centre(e.members, np.mean if p == 2 else np.median)
                assert bits(optimal_map_value(e.members, norm)) == bits(want)

    def test_loss_groups_shuffled_rows(self):
        """``loss`` on a dataset whose rows are not grouped gives the bits of
        the per-group loop."""
        c = ragged_collection(3, seed=6)
        d = dataset_from_collection(c)
        perm = np.random.default_rng(6).permutation(d.size)
        shuffled = PairedDataset(x=d.x[perm], y=d.y[perm], group=d.group[perm],
                                 group_ids=d.group_ids)
        preds = median_map(c)
        norm = NormSpec(p=1.5, q=1)
        want = power_mean([oracle_loss_powers(e.members, preds, e.id, norm)
                           for e in c.entries if e.count], norm.p)
        assert bits(loss(shuffled, preds, norm)) == bits(want)


def oracle_error(c, maps, norm):
    """The exception the per-set loops raise on a collection, or None."""
    named = {"theta": mean_map(c), **maps}
    powers = {name: [] for name in named}
    try:
        for e in c.entries:
            if e.count:
                for name, preds in named.items():
                    pw = oracle_loss_powers(e.members, preds, e.id, norm, name)
                    powers[name].append(pw)
                    power_mean([pw], norm.p)
        for pws in powers.values():
            power_mean(pws, norm.p)
    except (DataError, UsageError) as exc:
        return exc
    return None


class TestFaults:
    """A fault in a later set and a later map raises the per-set loops'
    exception: the first failing set in collection order and, within it,
    the first failing map."""

    NORM = NormSpec(p=2, q=2)

    @staticmethod
    def collection():
        rng = np.random.default_rng(9)
        sizes = [3, 0, 4, 2, 5, 1]
        return FeasibleSetCollection(d1=3, d2=1, entries=tuple(
            FeasibleSet(id=f"m{k}", measurement=[float(k)], members=rng.normal(size=(n, 3)))
            for k, n in enumerate(sizes)))

    @staticmethod
    def maps(c):
        return {name: {i: np.full(3, j, dtype=float) for i in c.ids}
                for j, name in enumerate(["a", "b", "c"])}

    @staticmethod
    def fault(maps, name, set_id, kind):
        preds = maps[name]
        if kind == "missing":
            del preds[set_id]
        elif kind == "length":
            preds[set_id] = np.zeros(2)
        elif kind == "nan":
            preds[set_id] = np.array([0.0, np.nan, 0.0])
        elif kind == "inf":
            preds[set_id] = np.array([0.0, 0.0, -np.inf])
        elif kind == "power":  # each p-th power overflows
            preds[set_id] = np.array([2e154, 0.0, 0.0])
        elif kind == "sum":  # each p-th power fits, their sum does not
            preds[set_id] = np.array([1.2e154, 0.0, 0.0])

    KINDS = ["missing", "length", "nan", "inf", "power", "sum"]

    def check(self, c, maps):
        want = oracle_error(c, maps, self.NORM)
        assert want is not None
        with pytest.raises(type(want)) as got:
            verify_bounds(c, maps, self.NORM)
        assert str(got.value) == str(want)
        return str(want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_fault(self, kind):
        c = self.collection()
        maps = self.maps(c)
        self.fault(maps, "b", "m4", kind)
        message = self.check(c, maps)
        assert "m4" in message or kind == "sum"
        # so does the loss of that one map over the dataset, whose sum runs
        # over all pairs at once
        try:
            power_mean([oracle_loss_powers(e.members, maps["b"], e.id, self.NORM)
                        for e in c.entries if e.count], self.NORM.p)
        except (DataError, UsageError) as exc:
            want = exc
        with pytest.raises(type(want)) as got:
            loss(dataset_from_collection(c), maps["b"], self.NORM)
        assert str(got.value) == str(want)

    @pytest.mark.parametrize("first", KINDS)
    @pytest.mark.parametrize("second", ["missing", "nan", "sum"])
    def test_first_set_then_first_map_wins(self, first, second):
        c = self.collection()
        maps = self.maps(c)
        self.fault(maps, "c", "m2", second)  # an earlier set, a later map
        self.fault(maps, "b", "m2", first)  # the same set, an earlier map
        self.fault(maps, "a", "m5", second)  # a later set, the first map
        message = self.check(c, maps)
        assert "'c'" not in message and "'a'" not in message

    def test_total_overflow_names_the_first_map(self):
        """Every set's sum fits, the total over all sets does not."""
        rng = np.random.default_rng(4)
        c = FeasibleSetCollection(d1=1, d2=1, entries=tuple(
            FeasibleSet(id=f"m{k}", measurement=[0.0], members=rng.normal(size=(1, 1)))
            for k in range(3)))
        maps = {"a": {i: [0.0] for i in c.ids}, "b": {i: [1.1e154] for i in c.ids}}
        message = self.check(c, maps)
        assert message == "the sum of 3 p-th powers overflows float64"


class TestThetaOverflow:
    @pytest.mark.parametrize("p, q", [(1, np.inf), (2, 1)])
    def test_centre_of_members_at_the_float_limit(self, p, q):
        """Two members at 1e308: the interior-point centre's sum overflows,
        and the set's θ is that member with a zero gap (no warning)."""
        X = np.full((2, 3), 1e308)
        norm = NormSpec(p=p, q=q)
        z, cert = optimal_map_value(X, norm, certificate=True)
        assert bits(z) == bits(X[0])
        assert (cert.objective, cert.gap) == (0.0, 0.0)
        c = FeasibleSetCollection(d1=3, d2=1, entries=(
            FeasibleSet(id="m0", measurement=[0.0], members=X),))
        report = verify_bounds(c, {}, norm)
        assert report.theta_loss == 0.0 and report.per_measurement[0].theta_gap == 0.0

    @pytest.mark.parametrize("p, q", [(2, 1), (2, np.inf), (1.5, 2), (1, 2)])
    def test_set_spanning_the_float_range(self, p, q):
        """Members at ±1.7e308: their distances to the centre overflow, so the
        set is solved at a quarter of its size (no warning). At p = 2 and
        d = 1, θ is the mean; at p = 1 the median member."""
        X = np.array([[1.7e308], [1.7e308], [-1.7e308]])
        z = optimal_map_value(X, NormSpec(p=p, q=q))
        want = 1.7e308 if p == 1 else np.mean(X / 4) * 4 if p == 2 else None
        if want is not None:
            np.testing.assert_allclose(z, [want], rtol=1e-9)
        else:  # between the mean and the median
            assert 1.7e308 / 3 < z[0] < 1.7e308

    @pytest.mark.parametrize("X", [[[1e308], [-1e308], [0.0]],
                                   [[1e308, 0.0], [-1e308, 1.0], [0.0, 2.0]]])
    def test_set_whose_member_differences_overflow(self, X):
        """Members at ±1e308 about 0: the spread about the centre is a float
        but a difference of two members, which Kuhn's test at p = 1, q = 2
        takes, is not. The set is solved at a quarter of its size (no
        warning), and θ is the member at 0."""
        X = np.array(X)
        assert bits(optimal_map_value(X, NormSpec(p=1, q=2))) == bits(X[-1])

    def test_spanning_set_leaves_other_sets_bits(self):
        """Solved beside a spanning set, another set's θ keeps the bits it
        has alone."""
        rng = np.random.default_rng(3)
        small = rng.normal(size=(5, 2))
        wide = np.array([[1.7e308, 0.0], [1.7e308, 1.0], [-1.7e308, 2.0]])
        norm = NormSpec(p=2, q=1)
        thetas = bounds._optimal_maps(Sets([5, 3]), np.vstack([small, wide]), norm)[0]
        assert bits(thetas[0]) == bits(optimal_map_value(small, norm))
        np.testing.assert_allclose(thetas[1], np.mean(wide / 4, axis=0) * 4, rtol=1e-9)


def sets_bits(sets):
    """Everything a ``Sets`` row layout holds, as comparable values."""
    return (sets.n.tobytes(), sets.starts.tobytes(), sets.sid.tobytes(), sets.bounds)


class TestDatasetGrouping:
    """``PairedDataset`` groups its pairs once; ``stacked``, ``loss`` and
    ``collection_from_dataset`` read that grouping."""

    @pytest.mark.parametrize("d", [1, 5])
    def test_flattened_collection_stacks_like_the_collection(self, d):
        c = ragged_collection(d, seed=7)
        assert 0 in c.counts
        sets, X, ids = dataset_from_collection(c).stacked
        want_sets, want_X, want_ids = c.stacked
        assert sets_bits(sets) == sets_bits(want_sets)
        assert X.shape == want_X.shape and bits(X) == bits(want_X)
        assert ids == want_ids

    def test_shuffled_dataset_matches_per_group_loop(self):
        """Groups out of order, interleaved, some absent: the grouping and
        the regrouped collection are those of a literal loop over groups."""
        rng = np.random.default_rng(8)
        group_ids = tuple(f"g{k}" for k in range(9))
        group = rng.choice([0, 2, 3, 5, 8], size=40)  # groups 1, 4, 6 and 7 absent
        y = np.column_stack([group, -group]).astype(float)
        x = rng.normal(size=(40, 3))
        ds = PairedDataset(x=x, y=y, group=group, group_ids=group_ids)
        rows = [[m for m in range(40) if group[m] == k] for k in range(len(group_ids))]
        present = [k for k in range(len(group_ids)) if rows[k]]
        assert ds.sets.n.tolist() == [len(rows[k]) for k in present]
        assert ds.order.tolist() == [m for k in present for m in rows[k]]
        assert ds.present_ids == tuple(group_ids[k] for k in present)
        sets, X, ids = ds.stacked
        assert bits(X) == bits(x[[m for k in present for m in rows[k]]])
        regrouped = collection_from_dataset(ds)
        assert regrouped.ids == ids == ds.present_ids
        for e, k in zip(regrouped.entries, present):
            assert bits(e.measurement) == bits(y[rows[k][0]])
            assert e.members.shape == (len(rows[k]), 3)
            assert bits(e.members) == bits(x[rows[k]])

    @pytest.mark.parametrize("d", [1, 5])
    def test_roundtrip_gives_back_the_non_empty_sets(self, d):
        c = ragged_collection(d, seed=9)
        back = collection_from_dataset(dataset_from_collection(c))
        filled = [e for e in c.entries if e.count]
        assert (back.d1, back.d2) == (c.d1, c.d2)
        assert back.ids == tuple(e.id for e in filled)
        for got, want in zip(back.entries, filled):
            assert bits(got.measurement) == bits(want.measurement)
            assert got.members.shape == want.members.shape
            assert bits(got.members) == bits(want.members)

    def test_empty_dataset_has_no_groups(self):
        ds = PairedDataset(x=np.zeros((0, 2)), y=np.zeros((0, 1)), group=[], group_ids=("a",))
        sets, X, ids = ds.stacked
        assert sets.n.size == 0 and X.shape == (0, 2) and ids == ()
        with pytest.raises(DataError, match="no pairs to regroup"):
            collection_from_dataset(ds)


class TestDemoLosses:
    """Each demo takes every map's losses on a dataset from one
    ``set_losses`` call; each has the bits of that map's own ``loss`` call."""

    def test_microscopy_truth_losses(self):
        from kersize import demo

        result = demo.microscopy_demo(k=4, n_max=5, seed=2)
        norm = result["norm"]
        for setup in result["setups"]:
            c = setup["collection"]
            # the ground truth anchors its walk, so it is each set's first member
            truths = PairedDataset(x=[e.members[0] for e in c.entries],
                                   y=[e.measurement for e in c.entries],
                                   group=np.arange(c.k), group_ids=c.ids)
            maps = {"mean": mean_map(c), "median": median_map(c), "zero": zero_map(c)}
            assert list(setup["truth_losses"]) == list(maps)
            for name, preds in maps.items():
                assert bits(setup["truth_losses"][name]) == bits(loss(truths, preds, norm))

    def test_superres_losses(self):
        from kersize import demo
        from kersize.predictors import upscale

        out = demo.superres_demo(n_images=3, size=16, bands=2, factor=4, seed=3)
        model, norm, pairs = out["model"], out["norm"], out["pairs"]
        sym = out["result"].symmetrized
        sym_collection = collection_from_dataset(sym)
        maps = {
            "bilinear": {i: upscale(model, y, order=1) for i, y in zip(out["ids"], pairs.y)},
            "bicubic": {i: upscale(model, y, order=3) for i, y in zip(out["ids"], pairs.y)},
            "zero": zero_map(sym_collection),
            "mean": mean_map(sym_collection),
        }
        assert list(out["losses_original"]) == list(out["losses_symmetrized"]) == list(maps)
        for name, preds in maps.items():
            assert bits(out["losses_original"][name]) == bits(loss(pairs, preds, norm))
            assert bits(out["losses_symmetrized"][name]) == bits(loss(sym, preds, norm))
