"""Command-line front end.

Subcommands chain the library into complete bound-computation pipelines::

    kersize sample    --config run.json [--out DIR] [--seed N] [--n-max N]
    kersize kersize   COLLECTION [--p P] [--q Q] [--mask i,j,...] [--out DIR]
    kersize loss      COLLECTION PREDICTIONS [--name NAME] [norm flags]
    kersize validate  COLLECTION [PREDICTIONS ...] [--strict] [norm flags]
    kersize skersize  COLLECTION (--matrix A.csv | --model model.json)
                      [--mode signal|joint] [--eps-additive E] [norm flags]
    kersize demo      {microscopy,superres} [--out DIR] [--seed N] ...

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
    loss,
    nullable,
)
from .demo import microscopy_demo, superres_demo
from .forward import DownsampleModel, LinearModel, NoiseSpec, model_from_dict
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


def _add_norm_flags(sub) -> None:
    sub.add_argument("--p", type=float, default=None, help="loss exponent")
    sub.add_argument("--q", type=float, default=None, help="inner norm exponent (1, 2 or inf)")
    sub.add_argument("--mask", type=_mask_indices, default=None,
                     help="comma-separated coordinate indices to keep")


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
                         {"generate": nullable(int)})

    out = Path(args.out) if args.out else Path(paths.get("output") or "")
    if str(out) in ("", "."):
        raise UsageError("no output directory (set paths.output or --out)")

    if options.get("generate") is not None:
        collection, _ = build_feasible_sets(
            model, generate=options["generate"], sampler=sampler
        )
    elif paths.get("input"):
        in_dir = base / paths["input"]
        files = sorted(in_dir.glob("y_*.csv"))
        if not files:
            raise DataError(f"no y_*.csv measurement files in {in_dir}")
        ys = [io.read_vectors_csv(f)[0] for f in files]
        collection, _ = build_feasible_sets(model, measurements=ys, sampler=sampler)
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


def _bounds_json(out: Path) -> dict:
    """The bounds.json payload already in ``out`` ({} if none)."""
    out.mkdir(parents=True, exist_ok=True)
    return io.read_json(out / "bounds.json") if (out / "bounds.json").exists() else {}


def _cmd_kersize(args) -> int:
    collection, norm, out = _inputs(args)
    value, v = compute_kersize(collection, norm)
    half = value / 2.0
    payload = _bounds_json(out)
    payload.update(kersize=value, half_kersize=half, p=norm.p, q=norm.to_dict()["q"],
                   uniform=collection.uniform)
    io.write_json(out / "bounds.json", payload)
    rows = [
        [e.id, e.count, 0.5 * v[k] ** (1.0 / norm.p)]
        for k, e in enumerate(collection.entries)
    ]
    io.write_table_csv(out / "per_measurement.csv", ["id", "n_k", "half_kersize_single"], rows)
    print(f"kersize={value:.8f} half_kersize={half:.8f}")
    return EXIT_OK


def _cmd_loss(args) -> int:
    collection, norm, out = _inputs(args)
    present = [e.id for e in collection.entries if e.count > 0]
    preds = io.read_predictions_dir(args.predictions, present)
    value = loss(dataset_from_collection(collection), preds, norm)
    name = args.name or Path(args.predictions).name
    payload = _bounds_json(out)
    payload.setdefault("losses", {})[name] = value
    io.write_json(out / "bounds.json", payload)
    print(f"loss[{name}]={value:.8f}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    collection, norm, out = _inputs(args)
    maps = {"median": median_map(collection), "zero": zero_map(collection)}
    present = [e.id for e in collection.entries if e.count > 0]
    for pred_dir in args.predictions:
        name = Path(pred_dir).name
        if name in maps:
            name = f"{name}_ext"
        maps[name] = io.read_predictions_dir(pred_dir, present)
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
    collection, norm, out = _inputs(args)
    if args.model:
        model = _load_model(io.read_json(args.model), Path(args.model).parent)
        if not isinstance(model, (DownsampleModel, LinearModel)):
            raise UsageError("skersize needs a linear or downsampling model")
        operator, noise = model, model.noise
    else:
        operator = io.read_vectors_csv(args.matrix)
        noise = NoiseSpec(kind="additive", eps_additive=args.eps_additive)
    mode = "signal_only" if args.mode == "signal" else "joint"
    result = compute_skersize(dataset_from_collection(collection), operator, noise, norm,
                              mode=mode)
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
    out = Path(args.out) if args.out else Path(f"demo_{args.name}")
    if args.name == "microscopy":
        result = microscopy_demo(out_dir=out, k=args.k, n_max=args.n_max, seed=args.seed)
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

    s = sub.add_parser("kersize", help="average kernel size of a collection")
    s.add_argument("collection")
    _add_norm_flags(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_kersize)

    s = sub.add_parser("loss", help="empirical loss of a prediction directory")
    s.add_argument("collection")
    s.add_argument("predictions")
    s.add_argument("--name", default=None, help="label for the prediction set")
    _add_norm_flags(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_loss)

    s = sub.add_parser("validate", help="verify the bound inequalities")
    s.add_argument("collection")
    s.add_argument("predictions", nargs="*", help="external prediction directories")
    s.add_argument("--strict", action="store_true", help="exit 3 on a bound violation")
    _add_norm_flags(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_validate)

    s = sub.add_parser("skersize", help="average symmetric kernel size (linear models)")
    s.add_argument("collection", help="collection/dataset directory")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", default=None, help="operator as CSV")
    group.add_argument("--model", default=None, help="forward-model JSON")
    s.add_argument("--mode", choices=("signal", "joint"), default="signal")
    s.add_argument("--eps-additive", type=float, default=0.0, dest="eps_additive")
    _add_norm_flags(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_skersize)

    s = sub.add_parser("demo", help="run a full pipeline demo")
    s.add_argument("name", help="microscopy or superres")
    s.add_argument("--out", default=None)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--n-max", type=int, default=200, dest="n_max")
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
