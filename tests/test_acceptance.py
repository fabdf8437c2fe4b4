"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines. Criterion tolerances are fixed here, not tuned elsewhere.
"""

import math
import time
import warnings

import numpy as np
import pytest

from kersize.bounds import kersize, verify_bounds
from kersize.core import (
    DataError,
    FeasibleSet,
    FeasibleSetCollection,
    NormSpec,
    collection_from_dataset,
    loss,
    p_dist,
)
from kersize.demo import microscopy_demo
from kersize.forward import DownsampleModel, LinearModel, MicroscopyModel, NoiseSpec
from kersize.predictors import (
    median_map,
    upscale,
    zero_map,
)
from kersize.sampling import SamplerSpec, build_feasible_sets
from kersize.symmetric import kernel_projection, pseudoinverse, skersize

REL = 1e-9


def leq(a, b, rel=REL):
    return a <= b + rel * max(1.0, b)


def unbounded(A, noise=NoiseSpec(kind="additive")):
    """A with ``noise`` as a linear model with no signal box."""
    return LinearModel(A, noise, np.tile([-np.inf, np.inf], (np.shape(A)[1], 1)))


def random_linear(rng, mixed=False):
    d1 = int(rng.integers(1, 9))
    d2 = int(rng.integers(1, 7))
    A = rng.normal(size=(d2, d1))
    if mixed:
        noise = NoiseSpec(kind="mixed", eps_multiplicative=float(rng.uniform(0.05, 0.2)),
                          eps_additive=float(rng.uniform(0.2, 0.8)))
    else:
        noise = NoiseSpec(kind="additive", eps_additive=float(rng.uniform(0.1, 0.6)))
    return LinearModel(A, noise, [[-2, 2]] * d1)


def random_microscope(rng):
    return MicroscopyModel(
        pixels=(2, 2), pixel_size=150.0, psf_sigma0=150.0, psf_z0=400.0,
        c_max=10.0, h_max=400.0, exposure=1.0,
        volume=[[100, 300], [100, 300], [-50, 50]],
        noise=NoiseSpec(kind="mixed", eps_multiplicative=0.15, eps_additive=3.0),
    )


@pytest.fixture(scope="module")
def uniform_corpus():
    """200 randomized uniform collections over mixed linear and microscopy
    models, with their bound reports for five prediction maps."""
    t0 = time.perf_counter()
    corpus = []
    for trial in range(200):
        rng = np.random.default_rng([1000, trial])
        p = 1.0 if trial % 2 else 2.0
        if trial % 3 == 0:
            model = random_microscope(rng)
            budget = 20_000
            mask = [1, 1, 0, 0, 0] if trial % 2 else None
        else:
            model = random_linear(rng, mixed=trial % 4 == 1)
            budget = 6_000
            mask = None
            if model.d1 > 1 and trial % 5 == 0:
                mask = np.zeros(model.d1, dtype=int)
                mask[rng.choice(model.d1, size=int(rng.integers(1, model.d1 + 1)),
                                replace=False)] = 1
        norm = NormSpec(p=p, q=2.0, mask=mask)
        k = int(rng.integers(1, 21))
        n = int(rng.integers(2, 13))
        sampler = SamplerSpec(kind="rejection", n_max=n, seed=trial, budget=budget)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # count repeats from the same line too
            c = build_feasible_sets(model, generate=k, sampler=sampler)
        # a set whose search found nothing keeps only its anchor, with one warning
        assert all("budget exhausted" in str(w.message) for w in caught)
        assert len(caught) == sum(count == 1 for count in c.counts)
        keep = min(c.counts)  # truncate every set to the smallest one's size
        c = FeasibleSetCollection(d1=c.d1, d2=c.d2, entries=tuple(
            FeasibleSet(id=e.id, measurement=e.measurement, members=e.members[:keep])
            for e in c.entries))
        maps = {
            "median": median_map(c),
            "zero": zero_map(c),
            "const": dict.fromkeys(c.ids, rng.normal(size=c.d1) * 2),
            "first": {e.id: e.members[0] for e in c.entries},
        }
        report = verify_bounds(c, maps, norm)
        corpus.append((c, norm, report))
    return corpus, time.perf_counter() - t0


def test_criterion_1_lower_bound_property(uniform_corpus):
    """Half the kernel size never exceeds any map's
    loss on 200 randomized uniform collections (rel tol 1e-9)."""
    corpus, elapsed = uniform_corpus
    assert len(corpus) >= 200
    failures = 0
    checked = 0
    for _, _, report in corpus:
        assert report.uniform
        for name, ok in report.lower_ok_by_map.items():
            checked += 1
            if not ok:
                failures += 1
    assert failures == 0
    assert elapsed < 60.0, f"corpus construction took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS - {checked} map/collection lower bounds hold "
          f"on {len(corpus)} uniform collections in {elapsed:.1f}s")


def test_criterion_2_sandwich(uniform_corpus):
    """half kersize <= loss(theta) <= kersize on every p = 2 corpus entry."""
    corpus, _ = uniform_corpus
    n_checked = 0
    for _, norm, report in corpus:
        if norm.p != 2.0:
            continue
        assert leq(report.half_kersize, report.theta_loss)
        assert leq(report.theta_loss, report.kersize)
        n_checked += 1
    assert n_checked >= 90
    print(f"\n[criterion 2] PASS - theta sandwich holds on {n_checked} p=2 collections")


def _kersize_triple_loop(c, norm):
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


def test_criterion_3_oracle_equivalence():
    """Closed-form (p = q in {1, 2}) and blocked pairwise evaluation match
    the literal triple loop to 1e-12 relative on 100 random small
    collections."""
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(100):
        d1 = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        entries = tuple(
            FeasibleSet(id=f"m{j}", measurement=rng.normal(size=2),
                        members=rng.normal(size=(int(rng.integers(0, 11)), d1)) * 4)
            for j in range(k)
        )
        c = FeasibleSetCollection(d1=d1, d2=2, entries=entries)
        p = float(rng.choice([0.7, 1.0, 2.0, 3.0]))
        q = [1, 2, np.inf][trial % 3]
        mask = None
        if d1 > 1 and trial % 2:
            mask = np.zeros(d1, dtype=int)
            mask[rng.choice(d1, size=int(rng.integers(1, d1 + 1)), replace=False)] = 1
        norm = NormSpec(p=p, q=q, mask=mask)
        if c.size == 0:  # no members: no kernel size to compare
            with pytest.raises(DataError, match="^collection has no members"):
                kersize(c, norm)
            continue
        got, _ = kersize(c, norm)
        want = _kersize_triple_loop(c, norm)
        err = abs(got - want) / max(1e-300, abs(want)) if want else abs(got)
        worst = max(worst, err)
        assert err <= 1e-12
    print(f"\n[criterion 3] PASS - 100 collections, worst relative gap {worst:.2e}")


def test_criterion_4_symmetric_bound():
    """Symmetric kernel size lower-bounds every map on the symmetrized
    dataset; the per-measurement mean stays within twice the bound; reflected
    pairs reproduce their measurements to 1e-8."""
    t0 = time.perf_counter()
    norm = NormSpec(p=2.0, q=2.0)
    n_problems = 0
    for trial in range(100):
        rng = np.random.default_rng([4000, trial])
        if trial % 8 == 0:
            model = DownsampleModel(bands=3, height=16, width=16, factor=4, r_max=1.0,
                                    noise=NoiseSpec(kind="additive", eps_additive=0.02))
            operator = model
            m_pairs = int(rng.integers(2, 5))
            from scipy import ndimage

            fields = ndimage.gaussian_filter(
                rng.standard_normal((m_pairs, 3, 16, 16)), sigma=(0, 0, 2.0, 2.0)
            )
            x = 0.5 + 0.4 * fields.reshape(m_pairs, -1) / np.abs(fields).max()
            e = rng.uniform(-0.02, 0.02, size=(m_pairs, model.d2))
            y = model.noiseless_batch(x) + e
            A_dense = None
        else:
            d1 = int(rng.integers(3, 11))
            d2 = int(rng.integers(1, d1))
            A_dense = rng.normal(size=(d2, d1))
            model = None
            m_pairs = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.01, 0.2))
            operator = unbounded(A_dense, NoiseSpec(kind="additive", eps_additive=eps))
            x = rng.normal(size=(m_pairs, d1)) * 2
            e = rng.uniform(-eps, eps, size=(m_pairs, d2))
            y = x @ A_dense.T + e
        ids = tuple(f"m{i}" for i in range(m_pairs))
        pairs = collection_from_dataset(x, y, np.arange(m_pairs), ids)
        res = skersize(pairs, operator, norm, mode="signal_only")

        # reflected pairs keep their measurements
        if model is not None:
            g_refl = model.noiseless_batch(res.reflections)
        else:
            g_refl = res.reflections @ A_dense.T
        assert np.max(np.abs(g_refl + e - y)) < 1e-8

        sym = res.symmetrized
        mean_theta = {}
        for i, ident in enumerate(ids):
            mean_theta[ident] = 0.5 * (x[i] + res.reflections[i])
        maps = {"zero": {i: np.zeros(pairs.d1) for i in ids}, "mean": mean_theta}
        if model is not None:
            maps["bilinear"] = {ids[i]: upscale(model, y[i], order=1) for i in range(m_pairs)}
            maps["bicubic"] = {ids[i]: upscale(model, y[i], order=3) for i in range(m_pairs)}
        for name, preds in maps.items():
            assert leq(res.skersize, loss(sym, preds, norm)), name
        assert leq(loss(sym, mean_theta, norm), 2.0 * res.skersize)
        n_problems += 1
    elapsed = time.perf_counter() - t0
    assert n_problems >= 100
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"\n[criterion 4] PASS - {n_problems} linear-additive problems in {elapsed:.1f}s")


def test_criterion_5_penrose_conditions():
    """All four Penrose conditions to 1e-8 max-norm on 200 random matrices
    spanning ranks 0..min(d1, d2), dimensions up to 64."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        r = int(rng.integers(0, min(m, n) + 1))
        if r == 0:
            A = np.zeros((m, n))
        else:
            u, _ = np.linalg.qr(rng.normal(size=(m, r)))
            v, _ = np.linalg.qr(rng.normal(size=(n, r)))
            s = rng.uniform(0.1, 10.0, r) * float(rng.choice([1e-2, 1.0, 1e2]))
            A = (u * s) @ v.T
        Ap = pseudoinverse(A)
        residuals = (
            np.max(np.abs(A @ Ap @ A - A), initial=0.0),
            np.max(np.abs(Ap @ A @ Ap - Ap), initial=0.0),
            np.max(np.abs((A @ Ap).T - A @ Ap), initial=0.0),
            np.max(np.abs((Ap @ A).T - Ap @ A), initial=0.0),
        )
        worst = max(worst, max(residuals))
        assert max(residuals) < 1e-8
    print(f"\n[criterion 5] PASS - 200 matrices, worst Penrose residual {worst:.2e}")


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_criterion_6_cross_bound_identity(p):
    """Two-point symmetric feasible sets satisfy
    Kersize = 2^(1-1/p) * SKersize to 1e-10 relative."""
    rng = np.random.default_rng(66)
    norm = NormSpec(p=p, q=2.0)
    for _ in range(50):
        d1 = int(rng.integers(2, 9))
        d2 = int(rng.integers(1, d1))
        A = rng.normal(size=(d2, d1))
        m_pairs = int(rng.integers(1, 6))
        x = rng.normal(size=(m_pairs, d1)) * 3
        y = x @ A.T
        ids = tuple(f"m{i}" for i in range(m_pairs))
        pairs = collection_from_dataset(x, y, np.arange(m_pairs), ids)
        res = skersize(pairs, unbounded(A), norm)
        entries = tuple(
            FeasibleSet(id=ids[i], measurement=y[i],
                        members=np.vstack([x[i], res.reflections[i]]))
            for i in range(m_pairs)
        )
        c = FeasibleSetCollection(d1=d1, d2=d2, entries=entries)
        value, _ = kersize(c, norm)
        expected = 2.0 ** (1.0 - 1.0 / p) * res.skersize
        assert abs(value - expected) <= 1e-10 * max(1.0, expected)
    print(f"\n[criterion 6] PASS - 50 instances at p={p}")


def test_criterion_7_worked_numeric_case():
    """The averaging-operator example, end to end, to 1e-10."""
    A = np.array([[0.5, 0.5]])
    P = kernel_projection(A)
    np.testing.assert_allclose(P, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-10)
    pairs = FeasibleSetCollection(d1=2, d2=1, entries=(
        FeasibleSet(id="m0", measurement=[2.0], members=[[1.0, 3.0]]),))
    norm = NormSpec(p=2.0, q=2.0)
    res = skersize(pairs, unbounded(A), norm)
    np.testing.assert_allclose(res.reflections[0], [3.0, 1.0], atol=1e-10)
    assert abs(res.skersize - math.sqrt(2)) < 1e-10
    mean_loss = loss(res.symmetrized, {"m0": np.array([2.0, 2.0])}, norm)
    assert abs(mean_loss - res.skersize) < 1e-10
    print("\n[criterion 7] PASS - worked example: P, reflection, SKersize, "
          "attained lower bound")


def test_criterion_8_microscopy_trend():
    """Four worsening imaging setups: strictly growing per-setup half kernel
    size, every per-measurement estimator loss above its lower bound, and the
    mean/median losses inside the per-measurement upper bound for >= 95% of
    points. Desk scale (K=10, N=200) under five minutes."""
    t0 = time.perf_counter()
    result = microscopy_demo(k=10, n_max=200, seed=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"demo took {elapsed:.1f}s"

    halves = [s["report"].half_kersize for s in result["setups"]]
    assert all(halves[i] < halves[i + 1] for i in range(len(halves) - 1)), halves

    points = 0
    above = 0
    upper_hits = 0
    upper_total = 0
    for s in result["setups"]:
        for row in s["report"].per_measurement:
            for name in ("theta", "mean", "median", "zero"):
                points += 1
                if leq(row.half_kersize_single, row.losses[name]):
                    above += 1
            for name in ("mean", "median"):
                upper_total += 1
                if leq(row.losses[name], 2.0 * row.half_kersize_single):
                    upper_hits += 1
    assert above == points, f"{points - above} points below the lower bound"
    assert upper_hits >= 0.95 * upper_total
    print(f"\n[criterion 8] PASS - half kersize {['%.3f' % h for h in halves]} "
          f"strictly increasing; {above}/{points} points above lower bound; "
          f"{upper_hits}/{upper_total} mean/median within upper bound; "
          f"{elapsed:.0f}s")


def test_criterion_9_complexity_signatures():
    """skersize and the closed-form kernel size (p = q = 2) scale linearly
    (10x data < 15x time) while the pairwise kernel size (p = 2, q = 1) is
    quadratic (10x members > 40x time), measured at a 2000-pair base."""
    rng = np.random.default_rng(99)
    d1, d2 = 32, 8
    A = rng.normal(size=(d2, d1))
    norm = NormSpec(p=2.0, q=2.0)
    model = unbounded(A)

    def make_pairs(m):
        x = rng.normal(size=(m, d1))
        return collection_from_dataset(x, x @ A.T, np.arange(m), tuple(map(str, range(m))))

    def time_skersize(pairs, reps):
        skersize(pairs, model, norm)  # warm-up
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            skersize(pairs, model, norm)
            best = min(best, time.perf_counter() - t0)
        return best

    def time_kersize(n, reps, kernel_norm):
        members = rng.normal(size=(n, 4))
        c = FeasibleSetCollection(
            d1=4, d2=1,
            entries=(FeasibleSet(id="a", measurement=[0.0], members=members),),
        )
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            kersize(c, kernel_norm)
            best = min(best, time.perf_counter() - t0)
        return best

    t_lin_small = time_skersize(make_pairs(2000), reps=5)
    t_lin_big = time_skersize(make_pairs(20000), reps=3)
    lin_ratio = t_lin_big / t_lin_small
    assert lin_ratio < 15.0, f"skersize 10x ratio {lin_ratio:.1f}"

    t_closed_small = time_kersize(2000, reps=20, kernel_norm=norm)
    t_closed_big = time_kersize(20000, reps=5, kernel_norm=norm)
    closed_ratio = t_closed_big / t_closed_small
    assert closed_ratio < 15.0, f"kersize p=q=2 10x ratio {closed_ratio:.1f}"

    # p = 2, q = 1 has no closed form, so it sums every pair
    pairwise = NormSpec(p=2.0, q=1.0)
    t_quad_small = time_kersize(2000, reps=3, kernel_norm=pairwise)
    t_quad_big = time_kersize(20000, reps=1, kernel_norm=pairwise)
    quad_ratio = t_quad_big / t_quad_small
    assert quad_ratio > 40.0, f"kersize p=2 q=1 10x ratio {quad_ratio:.1f}"
    print(f"\n[criterion 9] PASS - skersize 10x data -> {lin_ratio:.1f}x time; "
          f"kersize p=q=2 10x members -> {closed_ratio:.1f}x time; "
          f"kersize p=2 q=1 10x members -> {quad_ratio:.1f}x time")
