"""The benchmark's workloads: one pipeline each, driven through kersize's
public functions only (``cli.main`` and the ``demo`` functions).

Each workload has three steps:

* ``setup(work, seed)`` builds the inputs (configs, measurement and
  prediction files) from the seed and returns them;
* ``run(inputs, out)`` is the timed region: the pipeline's operations, each
  one CLI command or one demo call, writing into ``out``;
* ``observe(inputs, out)`` reads the outputs back for the gate (see gate.py).

Calls go through module attributes (``cli.main``, ``demo.superres_demo``) so
that the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gate import close, collection_digest, half_kersize_oracle
from kersize import cli, demo

BOX = 1.0  # linear models: signals live in [-1, 1]^6


@dataclass
class Op:
    name: str
    error: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    observe: Callable


def _call(name: str, fn, *args, **kwargs) -> Op:
    """One operation; an exception or a non-zero CLI exit makes it fail."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = fn(*args, **kwargs)
        error = f"exit code {code}" if isinstance(code, int) and code != 0 else None
    except Exception:  # the gate boundary: record and report, keep running
        error = traceback.format_exc()
    return Op(name, error)


def _observation() -> dict:
    return {"digests": {}, "flags": {}, "exact": {}, "upper": {}}


def _observe_report(obs: dict, key: str, directory: Path, report: dict, digest_key: str) -> None:
    """Gate entries of one kernel-size report and the collection beside it."""
    flags = report["inequality_flags"]
    q = float("inf") if report["q"] == "inf" else report["q"]
    obs["digests"][digest_key] = collection_digest(directory)
    obs["flags"][f"{key}.lower_ok"] = flags["lower_ok"]
    if report["uniform"]:
        obs["flags"][f"{key}.theta_upper_ok"] = flags["theta_upper_ok"]
    oracle = half_kersize_oracle(directory, report["p"], q)
    obs["flags"][f"{key}.half_kersize_matches_oracle"] = close(oracle, report["half_kersize"])
    obs["exact"][f"{key}.half_kersize"] = report["half_kersize"]
    obs["upper"][f"{key}.theta_loss"] = report["theta_loss"]


# -- linear model through the CLI ---------------------------------------------


def _linear_setup(work: Path, seed: int, *, eps: float, sampler: dict, k: int) -> dict:
    """A 3x6 dense linear model with rows scaled to unit l1 norm, K measurement
    files of interior ground truths, and one external prediction directory."""
    rng = np.random.default_rng([seed, 0])
    A = rng.uniform(-1.0, 1.0, (3, 6))
    A /= np.abs(A).sum(axis=1, keepdims=True)
    work.mkdir(parents=True, exist_ok=True)
    measurements = work / "measurements"
    predictions = work / "external"
    measurements.mkdir()
    predictions.mkdir()
    width = max(2, len(str(k - 1)))
    for i in range(k):
        x = rng.uniform(-0.6 * BOX, 0.6 * BOX, 6)
        y = A @ x + rng.uniform(-eps, eps, 3)
        (measurements / f"y_{i:03d}.csv").write_text(",".join(repr(float(v)) for v in y) + "\n")
        guess = rng.uniform(-BOX, BOX, 6)
        (predictions / f"pred_m{i:0{width}d}.csv").write_text(
            ",".join(repr(float(v)) for v in guess) + "\n"
        )
    config = {
        "model": {
            "variant": "linear_additive",
            "matrix": A.tolist(),
            "noise": {"kind": "additive", "eps_additive": eps},
            "signal_bounds": [[-BOX, BOX]] * 6,
        },
        "sampler": dict(sampler, seed=seed),
        "norm": {"p": 2, "q": 2, "mask": None},
        "paths": {"input": "measurements", "output": None},
    }
    (work / "run.json").write_text(json.dumps(config))
    return {"config": work / "run.json", "predictions": predictions}


def _linear_run(inputs: dict, out: Path, norm_flags: tuple) -> list:
    collection = out / "collection"
    return [
        _call("sample", cli.main, ["sample", "--config", str(inputs["config"]),
                                   "--out", str(collection)]),
        _call("validate", cli.main, ["validate", str(collection), str(inputs["predictions"]),
                                     *norm_flags]),
    ]


def _linear_observe(inputs: dict, out: Path) -> dict:
    collection = out / "collection"
    obs = _observation()
    report = json.loads((collection / "bounds.json").read_text())
    _observe_report(obs, "validate:report", collection, report, "sample:collection")
    return obs


# The default-norm CLI path: rejection sample, then validate at p=q=2. Pair
# sums and narrow-row CSV io dominate.
LINEAR_CLI = Workload(
    name="linear_cli",
    setup=lambda work, seed: _linear_setup(
        work, seed, eps=0.3, k=6, sampler={"kind": "rejection", "n_max": 3000}
    ),
    run=lambda inputs, out: _linear_run(inputs, out, ()),
    observe=_linear_observe,
)

# The grid sampler and the general-norm theta solver (validate --p 2 --q 1).
# Pair sums and io are negligible.
LINEAR_L1 = Workload(
    name="linear_l1",
    setup=lambda work, seed: _linear_setup(
        work, seed, eps=0.1, k=2,
        sampler={"kind": "grid", "n_max": 6, "grid_resolution": [6] * 6, "budget": 6**6},
    ),
    # p=2, q=1 rather than p=q=1: at p=q=1 the theta solver stops early on
    # some seeds' grid-valued sets, so the work per run would depend on the seed
    run=lambda inputs, out: _linear_run(inputs, out, ("--p", "2", "--q", "1")),
    observe=_linear_observe,
)


# -- demos -----------------------------------------------------------------------


def _demo_setup(work: Path, seed: int) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    return {"seed": seed}


def _microscopy_observe(inputs: dict, out: Path) -> dict:
    obs = _observation()
    for name, _, _ in demo.MICROSCOPY_SETUPS:
        sub = out / name
        report = json.loads((sub / "bounds.json").read_text())
        _observe_report(obs, f"demo:{name}", sub, report, f"demo:{name}.collection")
    return obs


# 160 anchored random walks, one feasibility call per proposal: sampling and
# forward dominate, bounds are light, and the sets go to many small CSV files.
# 40 walks of 6 members per setup keep the per-seed proposal count steadier
# than fewer, longer walks.
MICROSCOPY = Workload(
    name="microscopy",
    setup=_demo_setup,
    run=lambda inputs, out: [
        _call("demo", demo.microscopy_demo, out, k=40, n_max=6, seed=inputs["seed"])
    ],
    observe=_microscopy_observe,
)


def _superres_observe(inputs: dict, out: Path) -> dict:
    obs = _observation()
    payload = json.loads((out / "bounds.json").read_text())
    for name, ok in payload["checks"].items():
        obs["flags"][f"demo:{name}"] = ok
    obs["digests"]["demo:symmetrized"] = collection_digest(out / "symmetrized")
    obs["exact"]["demo:skersize"] = payload["skersize"]
    return obs


# The symmetric bound at 48x48x3: projector SVD, 2304^2 projector checks,
# band projection and wide-row CSV writes. No sampling, no pair sums.
SUPERRES = Workload(
    name="superres",
    setup=_demo_setup,
    run=lambda inputs, out: [
        _call("demo", demo.superres_demo, out, n_images=16, size=48, bands=3, factor=4,
              seed=inputs["seed"])
    ],
    observe=_superres_observe,
)

WORKLOADS = {w.name: w for w in (MICROSCOPY, LINEAR_CLI, LINEAR_L1, SUPERRES)}
