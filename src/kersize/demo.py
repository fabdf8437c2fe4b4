"""End-to-end demo pipelines at desk scale.

``microscopy_demo`` builds four synthetic single-emitter imaging setups with
increasing background flux and decreasing emission rate, samples each
measurement's feasible set with the random walk (the walks of all four
setups in one lockstep), and verifies the kernel-size bounds of each setup
against the mean/median/zero estimators (localization error in the x-y
plane).

``superres_demo`` builds smooth synthetic multi-band images, downsamples them
fourfold with additive noise, and verifies the symmetric kernel-size bounds
against bilinear/bicubic upscaling, the zero map, and the per-measurement
mean.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import ndimage

from . import io
from .bounds import verify_bounds
from .core import NormSpec, PairedDataset, collection_from_dataset, loss, loss_powers, power_mean
from .forward import DownsampleModel, MicroscopyModel, NoiseSpec
from .predictors import mean_map, median_map, upscale, zero_map
from .sampling import SamplerSpec, build_feasible_sets_many
from .symmetric import skersize

__all__ = ["microscopy_demo", "superres_demo", "MICROSCOPY_SETUPS"]

# (name, background flux C, emission rate h): imaging quality degrades from
# first to last, which should show up as growing kernel sizes.
MICROSCOPY_SETUPS = (
    ("A1", 2.0, 4000.0),
    ("A2", 8.0, 1600.0),
    ("A3", 24.0, 640.0),
    ("A4", 60.0, 256.0),
)


def _microscopy_model() -> MicroscopyModel:
    return MicroscopyModel(
        pixels=(8, 8),
        pixel_size=100.0,  # nm
        psf_sigma0=150.0,
        psf_z0=400.0,
        c_max=80.0,
        h_max=5000.0,
        exposure=1.0,
        volume=[[300.0, 500.0], [300.0, 500.0], [-150.0, 150.0]],
        noise=NoiseSpec(kind="mixed", eps_multiplicative=0.03, eps_additive=2.0),
    )


def _walk_steps(model: MicroscopyModel, theta: np.ndarray, frac: float = 0.7) -> np.ndarray:
    """Per-parameter random-walk step widths from a local feasibility estimate.

    The feasible slab along parameter j is roughly tol / |dmu/dtheta_j| wide,
    with tol the pointwise acceptance margin; stepping a fraction of that
    keeps the walk's acceptance rate usable across very different setups.
    """
    mu = model.intensity(theta)
    tol = model.noise.eps_additive + model.noise.eps_multiplicative * np.abs(mu)
    b = model.signal_bounds
    steps = np.empty(5)
    for j in range(5):
        h = max(1e-4, 1e-6 * abs(theta[j]))
        d = np.zeros(5)
        d[j] = h
        grad = (model.intensity(theta + d) - model.intensity(theta - d)) / (2 * h)
        mag = np.abs(grad)
        allowed = np.min(np.where(mag > 1e-12, tol / np.maximum(mag, 1e-12), np.inf))
        steps[j] = frac * min(allowed, b[j, 1] - b[j, 0])
    return steps


def microscopy_demo(out_dir=None, k: int = 10, n_max: int = 200, seed: int = 1) -> dict:
    """Run the four-setup microscopy pipeline; returns per-setup results.

    For each setup, K emitters with the setup's (C, h) are placed uniformly in
    the volume, measured under mixed noise, and their feasible sets sampled by
    an anchored random walk. The walks of all four setups advance in one
    lockstep (one ``build_feasible_sets_many`` call); each setup's sets are
    those of its own ``build_feasible_sets`` call. Bounds are then evaluated
    per setup in the x-y localization pseudo-norm (p = 2).
    """
    model = _microscopy_model()
    norm = NormSpec(p=2.0, q=2.0, mask=[1, 1, 0, 0, 0])
    b = model.signal_bounds
    jobs = []
    for idx, (name, c_flux, h_rate) in enumerate(MICROSCOPY_SETUPS):
        rng = np.random.default_rng([seed, idx])
        truths = np.column_stack(
            [
                rng.uniform(b[0, 0], b[0, 1], k),
                rng.uniform(b[1, 0], b[1, 1], k),
                rng.uniform(b[2, 0], b[2, 1], k),
                np.full(k, c_flux),
                np.full(k, h_rate),
            ]
        )
        center = np.array(
            [b[0].mean(), b[1].mean(), 0.0, c_flux, h_rate]
        )
        sampler = SamplerSpec(
            kind="random_walk",
            n_max=n_max,
            seed=seed * 1000 + idx,
            budget=60 * n_max,
            step_scale=_walk_steps(model, center),
        )
        jobs.append({"ground_truths": truths, "sampler": sampler})

    setups = []
    built = build_feasible_sets_many(model, jobs)
    for (name, c_flux, h_rate), job, (collection, dataset) in zip(MICROSCOPY_SETUPS, jobs, built):
        maps = {
            "mean": mean_map(collection),
            "median": median_map(collection),
            "zero": zero_map(collection),
        }
        report = verify_bounds(collection, maps, norm)
        truth_dataset = PairedDataset(
            x=job["ground_truths"],
            y=np.vstack([e.measurement for e in collection.entries]),
            group=np.arange(k),
            group_ids=collection.ids,
        )
        truth_losses = {name_: loss(truth_dataset, preds, norm) for name_, preds in maps.items()}
        setups.append(
            {
                "name": name,
                "c_flux": c_flux,
                "h_rate": h_rate,
                "collection": collection,
                "dataset": dataset,
                "report": report,
                "truth_losses": truth_losses,
            }
        )

    result = {"setups": setups, "norm": norm, "model": model}
    if out_dir is not None:
        _write_microscopy_outputs(Path(out_dir), result)
    return result


def _write_microscopy_outputs(out: Path, result: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    io.write_json(out / "model.json", result["model"].to_dict())
    summary_rows = []
    map_names = ["mean", "median", "zero"]
    for s in result["setups"]:
        sub = out / s["name"]
        io.write_collection(sub, s["collection"], result["norm"])
        io.write_bound_report(sub, s["report"])
    header = ["method"]
    for s in result["setups"]:
        header += [f"{s['name']}_truth", f"{s['name']}_sampled"]
    for name in map_names:
        row = [name]
        for s in result["setups"]:
            row += [s["truth_losses"][name], s["report"].losses[name]]
        summary_rows.append(row)
    half_row = ["half_kersize"]
    for s in result["setups"]:
        half_row += [None, s["report"].half_kersize]
    summary_rows.append(half_row)
    io.write_table_csv(out / "summary.csv", header, summary_rows)


def _smooth_images(rng: np.random.Generator, n: int, bands: int, h: int, w: int,
                   r_max: float) -> np.ndarray:
    """Smooth random reflectance fields in (0.05, 0.95) * r_max."""
    imgs = np.empty((n, bands, h, w))
    for i in range(n):
        sigma = rng.uniform(1.5, 3.0)
        field = ndimage.gaussian_filter(rng.standard_normal((bands, h, w)), sigma=(0, sigma, sigma))
        span = np.abs(field).max()
        imgs[i] = 0.5 * r_max + (0.42 * r_max / max(span, 1e-12)) * field
    return imgs


def superres_demo(out_dir=None, n_images: int = 12, size: int = 32, bands: int = 3,
                  factor: int = 4, seed: int = 1) -> dict:
    """Run the super-resolution pipeline; returns the bound report data.

    Smooth multi-band images are downsampled ``factor``-fold with small
    additive noise; the symmetric kernel size is compared against the losses
    of bilinear/bicubic upscaling, the zero map, and the per-measurement mean
    on the symmetrized dataset.
    """
    rng = np.random.default_rng(seed)
    model = DownsampleModel(
        bands=bands, height=size, width=size, factor=factor, r_max=1.0,
        noise=NoiseSpec(kind="additive", eps_additive=0.002),
    )
    norm = NormSpec(p=2.0, q=2.0)
    imgs = _smooth_images(rng, n_images, bands, size, size, model.r_max)
    x = imgs.reshape(n_images, model.d1)
    e = np.vstack([model.noise.sample(rng, model.d2) for _ in range(n_images)])
    y = model.noiseless_batch(x) + e
    width = max(2, len(str(n_images - 1)))
    ids = tuple(f"img{i:0{width}d}" for i in range(n_images))
    pairs = PairedDataset(x=x, y=y, group=np.arange(n_images), group_ids=ids)

    result = skersize(pairs, model, model.noise, norm, mode="signal_only")
    sym_collection = collection_from_dataset(result.symmetrized)

    maps = {
        "bilinear": {ids[i]: upscale(model, y[i], order=1) for i in range(n_images)},
        "bicubic": {ids[i]: upscale(model, y[i], order=3) for i in range(n_images)},
        "zero": zero_map(sym_collection),
        "mean": mean_map(sym_collection),
    }
    # per map, one array of p-th powers per image gives both the per-image
    # and the aggregate losses on the symmetrized dataset
    powers = {
        name: [loss_powers(e.members, preds, e.id, norm, name) for e in sym_collection.entries]
        for name, preds in maps.items()
    }
    losses_sym = {name: power_mean(pws, norm.p) for name, pws in powers.items()}
    losses_orig = {name: loss(pairs, preds, norm) for name, preds in maps.items()}

    upscaler_losses = [losses_sym["bilinear"], losses_sym["bicubic"]]
    checks = {
        "lower_ok": all(result.skersize <= lv * (1 + 1e-9) + 1e-12 for lv in losses_sym.values()),
        "upscalers_within_upper": all(lv <= 2 * result.skersize * (1 + 1e-9) for lv in upscaler_losses),
        "theta_within_upper": losses_sym["mean"] <= 2 * result.skersize * (1 + 1e-9),
    }

    per_image = []
    for i, ident in enumerate(ids):
        row = {"id": ident, "skersize_single": float(result.v_norms[i])}
        for name, pws in powers.items():
            row[f"{name}_loss"] = power_mean([pws[i]], norm.p)
        per_image.append(row)

    out = {
        "model": model,
        "norm": norm,
        "pairs": pairs,
        "result": result,
        "losses_symmetrized": losses_sym,
        "losses_original": losses_orig,
        "checks": checks,
        "per_image": per_image,
        "ids": ids,
    }
    if out_dir is not None:
        _write_superres_outputs(Path(out_dir), out)
    return out


def _write_superres_outputs(out_path: Path, data: dict) -> None:
    out_path.mkdir(parents=True, exist_ok=True)
    io.write_json(out_path / "model.json", data["model"].to_dict())
    io.write_symmetric_report(out_path, data["result"], data["norm"])
    method_names = list(data["losses_symmetrized"])
    io.write_table_csv(
        out_path / "table2.csv",
        ["method", "rmse_original", "rmse_symmetrized"],
        [
            [name, data["losses_original"][name], data["losses_symmetrized"][name]]
            for name in method_names
        ]
        + [["half_skersize", None, 0.5 * data["result"].skersize]],
    )
    first = data["per_image"][0]
    cols = list(first)
    io.write_table_csv(
        out_path / "scatter.csv", cols, [[r[c] for c in cols] for r in data["per_image"]]
    )
    payload = data["result"].to_dict()
    payload["losses_symmetrized"] = data["losses_symmetrized"]
    payload["losses_original"] = data["losses_original"]
    payload["checks"] = data["checks"]
    io.write_json(out_path / "bounds.json", payload)
