"""Command-line front end.

Subcommands chain the library into complete bound-computation pipelines::

    kersize sample    --config run.json [--out DIR] [--seed N] [--n-max N]
    kersize kersize   COLLECTION [--p P] [--q Q] [--mask i,j,...] [--out DIR]
    kersize loss      COLLECTION PREDICTIONS [--name NAME] [norm flags]
    kersize validate  COLLECTION [PREDICTIONS ...] [--strict] [norm flags]
    kersize skersize  COLLECTION (--matrix A.csv | --model model.json)
                      [--mode signal|joint] [--eps-additive E] [norm flags]
    kersize demo      microscopy [--out DIR] [--seed N] [--k K] [--n-max N]
    kersize demo      superres [--out DIR] [--seed N]

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 bound violation
under --strict.

The sample config is a JSON document::

    {
      "model":   {... forward-model document, see forward.model_from_dict ...},
      "sampler": {"kind": "rejection", "n_max": 100, "seed": 0, ...},
      "norm":    {"p": 2, "q": 2, "mask": null},
      "paths":   {"input": null, "output": "out_dir"},
      "options": {"generate": 4}
    }

Unknown keys anywhere in the document are rejected, and so is any other
malformed document (exit 2). ``paths.input`` may name a directory of
``y_<id>.csv`` measurement files instead of ``options.generate``. A linear
model's "matrix" may be a CSV path relative to the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .bounds import kersize as compute_kersize
from .bounds import verify_bounds
from .core import (
    DataError,
    NormSpec,
    UsageError,
    check_keys,
    dataset_from_collection,
    nullable,
    set_losses,
    whole,
)
from .forward import LinearModel, NoiseSpec, model_from_dict
from .predictors import median_map, zero_map
from .sampling import SamplerSpec, build_feasible_sets
from .symmetric import skersize as compute_skersize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VIOLATION = 3


class _ParseError(Exception):
    """A command line argparse rejected; its usage line is already printed."""


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (usage errors exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _ParseError(f"{self.prog}: error: {message}")


def _load_model(doc, base: Path):
    """``model_from_dict``, after reading a linear model's "matrix" from the
    CSV file it names (relative to ``base``), if it names one."""
    if (isinstance(doc, dict) and doc.get("variant") == "linear_additive"
            and isinstance(doc.get("matrix"), str)):
        doc = {**doc, "matrix": io.read_vectors_csv(base / doc["matrix"])}
    return model_from_dict(doc)


def _mask_indices(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:  # argparse turns this into a usage error
        raise argparse.ArgumentTypeError(f"expected comma-separated indices, got {text!r}")


def _norm_from_flags(args, default: NormSpec, d1: int) -> NormSpec:
    mask = default.mask
    if args.mask is not None:
        for i in args.mask:
            if not 0 <= i < d1:
                raise UsageError(f"--mask index {i} out of range for d1={d1}")
        mask = np.zeros(d1, dtype=int)
        mask[args.mask] = 1
    return NormSpec(
        p=default.p if args.p is None else args.p,
        q=default.q if args.q is None else args.q,
        mask=mask,
    )


def _collection_command(sub, name: str, func, help: str):
    """A subcommand on a collection directory, with the norm flags and --out."""
    s = sub.add_parser(name, help=help)
    s.add_argument("collection", help="collection directory")
    s.add_argument("--p", type=float, default=None, help="loss exponent")
    s.add_argument("--q", type=float, default=None, help="inner norm exponent (1, 2 or inf)")
    s.add_argument("--mask", type=_mask_indices, default=None,
                   help="comma-separated coordinate indices to keep")
    s.add_argument("--out", default=None)
    s.set_defaults(func=func)
    return s


def _cmd_sample(args) -> int:
    config_path = Path(args.config)
    doc = check_keys(io.read_json(config_path), ("model", "sampler", "norm", "paths", "options"),
                     "config", required=("model", "sampler"))
    base = config_path.parent
    model = _load_model(doc["model"], base)
    flags = {key: getattr(args, key) for key in ("seed", "n_max")}
    sampler = dataclasses.replace(
        SamplerSpec.from_dict(doc["sampler"]), **{k: v for k, v in flags.items() if v is not None}
    )
    norm = NormSpec.from_dict(doc.get("norm", {}))
    norm.check_dim(model.d1)
    paths = check_keys(doc.get("paths", {}), ("input", "output"), "paths",
                       {"input": nullable(os.fspath), "output": nullable(os.fspath)})
    options = check_keys(doc.get("options", {}), ("generate",), "options",
                         {"generate": nullable(whole)})

    out = Path(args.out) if args.out else Path(paths.get("output") or "")
    if str(out) in ("", "."):
        raise UsageError("no output directory (set paths.output or --out)")

    if options.get("generate") is not None:
        collection = build_feasible_sets(model, generate=options["generate"], sampler=sampler)
    elif paths.get("input"):
        in_dir = base / paths["input"]
        files = sorted(in_dir.glob("y_*.csv"))
        if not files:
            raise DataError(f"no y_*.csv measurement files in {in_dir}")
        ys = [io.read_row_csv(f, "measurement") for f in files]
        collection = build_feasible_sets(model, measurements=ys, sampler=sampler)
    else:
        raise DataError("config needs options.generate or paths.input")

    io.write_collection(out, collection, norm)
    counts = collection.counts
    print(f"K={collection.k} N={list(counts)} uniform={collection.uniform}")
    if max(counts) <= 1:
        print("warning: all feasible sets are singletons; kernel-size bounds will be zero")
    return EXIT_OK


def _inputs(args) -> tuple:
    """Collection, norm (the manifest's, overridden by the norm flags) and
    output directory of a command on a collection."""
    collection, norm = io.read_collection(args.collection)
    norm = _norm_from_flags(args, norm, collection.d1)
    return collection, norm, Path(args.out or args.collection)


def _bounds_json(out: Path, norm: NormSpec) -> dict:
    """The bounds.json payload already in ``out`` if it records the same p, q
    and mask as ``norm``, else a fresh one; either way it records ``norm``, so
    one file never mixes values taken at two norms."""
    out.mkdir(parents=True, exist_ok=True)
    path, tag = out / "bounds.json", norm.to_dict()
    payload = io.read_json(path) if path.exists() else {}
    same_norm = isinstance(payload, dict) and tag.items() <= payload.items()
    return {**(payload if same_norm else {}), **tag}


def _cmd_kersize(args) -> int:
    collection, norm, out = _inputs(args)
    value, v = compute_kersize(collection, norm)
    half = value / 2.0
    payload = _bounds_json(out, norm)
    payload.update(kersize=value, half_kersize=half, uniform=collection.uniform)
    io.write_json(out / "bounds.json", payload)
    rows = [
        [e.id, e.count, 0.5 * v[k] ** (1.0 / norm.p)]
        for k, e in enumerate(collection.entries)
    ]
    io.write_table_csv(out / "per_measurement.csv", ["id", "n_k", "half_kersize_single"], rows)
    print(f"kersize={value:.8f} half_kersize={half:.8f}")
    return EXIT_OK


def _cmd_loss(args) -> int:
    name = _map_name(args.predictions, args.name)
    collection, norm, out = _inputs(args)
    preds = io.read_predictions_dir(args.predictions, collection.stacked[2])
    value = set_losses(*collection.stacked, {name: preds}, norm)[1][name]
    payload = _bounds_json(out, norm)
    payload.setdefault("losses", {})[name] = value
    io.write_json(out / "bounds.json", payload)
    print(f"loss[{name}]={value:.8f}")
    return EXIT_OK


def _map_name(pred_dir, name=None) -> str:
    """The name of the map in a prediction directory: ``name`` if given, else
    the last component of its absolute, lexically normalised path, so "." and
    "p/.." are named after the directories they stand for (symlinks are not
    followed); "_ext" is added to a built-in map's name (median, zero, theta),
    so the map never takes a built-in map's place in bounds.json. The root,
    which has no name, is a UsageError."""
    name = name or Path(os.path.abspath(pred_dir)).name
    if not name:
        raise UsageError(f"prediction directory {pred_dir} has no name for its map")
    return f"{name}_ext" if name in ("median", "zero", "theta") else name


def _prediction_names(pred_dirs) -> dict:
    """Each prediction directory by the name of its map (``_map_name``). Two
    directories of one name are a UsageError."""
    dirs = {}
    for pred_dir in pred_dirs:
        name = _map_name(pred_dir)
        if name in dirs:
            raise UsageError(f"prediction directories {dirs[name]} and {pred_dir} "
                             f"both name the map {name!r}")
        dirs[name] = pred_dir
    return dirs


def _cmd_validate(args) -> int:
    pred_dirs = _prediction_names(args.predictions)
    collection, norm, out = _inputs(args)
    maps = {"median": median_map(collection), "zero": zero_map(collection)}
    for name, pred_dir in pred_dirs.items():
        maps[name] = io.read_predictions_dir(pred_dir, collection.stacked[2])
    report = verify_bounds(collection, maps, norm)
    io.write_bound_report(out, report)
    print(
        f"kersize={report.kersize:.8f} half_kersize={report.half_kersize:.8f} "
        f"theta_loss={report.theta_loss:.8f} lower_ok={report.lower_ok} "
        f"theta_upper_ok={report.theta_upper_ok}"
    )
    if args.strict and not report.lower_ok:
        print("bound violation under --strict", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_skersize(args) -> int:
    if args.model and args.eps_additive is not None:
        raise UsageError("--eps-additive sets the noise of --matrix; a model has its own")
    collection, norm, out = _inputs(args)
    if args.model:
        model = _load_model(io.read_json(args.model), Path(args.model).parent)
    else:  # a bare matrix bounds no signal coordinate
        A = io.read_vectors_csv(args.matrix)
        eps = 0.0 if args.eps_additive is None else args.eps_additive
        model = LinearModel(A, NoiseSpec(kind="additive", eps_additive=eps),
                            np.tile([-np.inf, np.inf], (A.shape[1], 1)))
    mode = "signal_only" if args.mode == "signal" else "joint"
    result = compute_skersize(dataset_from_collection(collection), model, norm, mode=mode)
    io.write_symmetric_report(out, result, norm)
    io.write_json(out / "skersize.json", result.to_dict())
    print(f"skersize={result.skersize:.8f} half_skersize={0.5 * result.skersize:.8f}")
    if result.noise_violations:
        print(
            f"warning: {len(result.noise_violations)} reflected pairs left the noise set",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_demo(args) -> int:
    from .demo import microscopy_demo, superres_demo  # scipy, which no other command needs

    if args.seed < 0:
        raise UsageError("seed must be >= 0")
    sizes = {key: getattr(args, key) for key in ("k", "n_max") if getattr(args, key) is not None}
    if args.name == "superres" and sizes:
        raise UsageError("demo superres takes no --k or --n-max")
    if args.k is not None and args.k < 1:
        raise UsageError("k must be >= 1")
    out = Path(args.out) if args.out else Path(f"demo_{args.name}")
    if args.name == "microscopy":
        result = microscopy_demo(out_dir=out, seed=args.seed, **sizes)
        for s in result["setups"]:
            r = s["report"]
            print(
                f"{s['name']}: half_kersize={r.half_kersize:.4f} "
                f"mean={r.losses['mean']:.4f} median={r.losses['median']:.4f} "
                f"lower_ok={r.lower_ok}"
            )
    elif args.name == "superres":
        result = superres_demo(out_dir=out, seed=args.seed)
        sk = result["result"].skersize
        print(f"skersize={sk:.6f} half_skersize={0.5 * sk:.6f}")
        for name, value in result["losses_symmetrized"].items():
            print(f"loss[{name}]={value:.6f}")
        print(
            f"lower_ok={result['checks']['lower_ok']} "
            f"upscalers_within_2x={result['checks']['upscalers_within_upper']}"
        )
    else:
        raise UsageError(f"unknown demo {args.name!r}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="kersize", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="approximate feasible sets for measurements")
    s.add_argument("--config", required=True, help="JSON run configuration")
    s.add_argument("--out", default=None, help="output collection directory")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--n-max", type=int, default=None, dest="n_max")
    s.set_defaults(func=_cmd_sample)

    _collection_command(sub, "kersize", _cmd_kersize, "average kernel size of a collection")

    s = _collection_command(sub, "loss", _cmd_loss, "empirical loss of a prediction directory")
    s.add_argument("predictions")
    s.add_argument("--name", default=None, help="label for the prediction set")

    s = _collection_command(sub, "validate", _cmd_validate, "verify the bound inequalities")
    s.add_argument("predictions", nargs="*", help="external prediction directories")
    s.add_argument("--strict", action="store_true", help="exit 3 on a bound violation")

    s = _collection_command(sub, "skersize", _cmd_skersize,
                            "average symmetric kernel size (linear models)")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", default=None, help="operator as CSV")
    group.add_argument("--model", default=None, help="forward-model JSON")
    s.add_argument("--mode", choices=("signal", "joint"), default="signal")
    s.add_argument("--eps-additive", type=float, default=None, dest="eps_additive",
                   help="additive noise radius of --matrix (default 0)")

    s = sub.add_parser("demo", help="run a full pipeline demo")
    s.add_argument("name", help="microscopy or superres")
    s.add_argument("--out", default=None)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--k", type=int, default=None, help="microscopy only (default 10)")
    s.add_argument("--n-max", type=int, default=None, dest="n_max",
                   help="microscopy only (default 200)")
    s.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ParseError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
