"""File formats: vector CSVs, collection directories, JSON reports.

Vector CSV: one vector per row, comma separated, '.' decimal, no header, LF
line endings, floats in shortest round-trip form (so writing is byte-stable
across runs). A collection directory holds ``manifest.json`` plus one
``y_<id>.csv`` (the measurement) and one ``fs_<id>.csv`` (the feasible-set
members) per measurement. All writes go through a temp file and rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import (DataError, FeasibleSet, FeasibleSetCollection, NormSpec, check_keys,
                   collection_from_dataset)

__all__ = [
    "write_vectors_csv",
    "read_vectors_csv",
    "write_json",
    "read_json",
    "write_collection",
    "read_collection",
    "write_table_csv",
    "write_bound_report",
    "write_symmetric_report",
]

MANIFEST_VERSION = 1


def _atomic_write(path: Path, data: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return repr(float(v))


def write_vectors_csv(path, rows) -> None:
    """Write vectors (one per row) in the standard CSV form."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    lines = [",".join(_fmt(v) for v in row) for row in rows] if rows.size else []
    _atomic_write(Path(path), "".join(line + "\n" for line in lines))


def read_vectors_csv(path) -> np.ndarray:
    """Read a vector CSV into a 2-D float array ((0, 0) for an empty file)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file {path}")
    rows = []
    with open(path, "r", newline="") as handle:
        for ln, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
    if not rows:
        return np.zeros((0, 0))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: rows have inconsistent lengths")
    return np.asarray(rows, dtype=np.float64)


def write_table_csv(path, header, rows) -> None:
    """CSV with a header row; floats in round-trip form, other cells as str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                _fmt(v) if isinstance(v, (float, np.floating)) else ("" if v is None else str(v))
                for v in row
            )
        )
    _atomic_write(Path(path), "".join(line + "\n" for line in lines))


def write_json(path, payload) -> None:
    _atomic_write(Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file {path}")
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def write_collection(directory, c: FeasibleSetCollection, norm: NormSpec) -> None:
    """Write a collection directory: manifest.json + per-measurement CSVs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for e in c.entries:
        y_name = f"y_{e.id}.csv"
        fs_name = f"fs_{e.id}.csv"
        write_vectors_csv(directory / y_name, e.measurement[None, :])
        write_vectors_csv(directory / fs_name, e.members)
        entries.append(
            {"id": e.id, "measurement": y_name, "feasible": fs_name, "count": e.count}
        )
    manifest = {
        "version": MANIFEST_VERSION,
        "d1": c.d1,
        "d2": c.d2,
        "norm": norm.to_dict(),
        "entries": entries,
    }
    write_json(directory / "manifest.json", manifest)


def read_collection(directory) -> tuple:
    """Read a collection directory; returns (collection, norm).

    A malformed manifest (a missing or unknown key, a non-integer d1, d2 or
    count, entries that are not a list of objects) raises DataError.
    """
    directory = Path(directory)
    keys = ("version", "d1", "d2", "norm", "entries")
    manifest = check_keys(read_json(directory / "manifest.json"), keys, "manifest",
                          {"d1": int, "d2": int, "entries": list}, required=keys)
    if manifest["version"] != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {manifest['version']!r}")
    norm = NormSpec.from_dict(manifest["norm"])
    d1, d2 = manifest["d1"], manifest["d2"]
    entry_keys = ("id", "measurement", "feasible", "count")
    entries = []
    for i, rec in enumerate(manifest["entries"]):
        rec = check_keys(rec, entry_keys, f"manifest.entries[{i}]",
                         {"measurement": os.fspath, "feasible": os.fspath, "count": int},
                         required=entry_keys)
        y = read_vectors_csv(directory / rec["measurement"])
        if y.shape[0] != 1:
            raise DataError(f"{rec['measurement']}: expected exactly one measurement row")
        members = read_vectors_csv(directory / rec["feasible"])
        if members.shape == (0, 0):
            members = np.zeros((0, d1))
        if members.shape[0] != rec["count"]:
            raise DataError(
                f"{rec['feasible']}: {members.shape[0]} rows but manifest count {rec['count']}"
            )
        entries.append(FeasibleSet(id=rec["id"], measurement=y[0], members=members))
    return FeasibleSetCollection(d1=d1, d2=d2, entries=tuple(entries)), norm


def write_bound_report(directory, report) -> None:
    """Write ``bounds.json`` and ``scatter.csv`` of a ``bounds.BoundReport``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_json(directory / "bounds.json", report.to_dict())
    names = list(report.per_measurement[0].losses)
    write_table_csv(
        directory / "scatter.csv",
        ["id", "half_kersize_single"] + [f"{n}_loss" for n in names],
        [[m.id, m.half_kersize_single] + [m.losses[n] for n in names]
         for m in report.per_measurement],
    )


def write_symmetric_report(directory, result, norm: NormSpec) -> None:
    """Write ``v_norms.csv`` and ``symmetrized/`` of a ``symmetric.SkersizeResult``."""
    directory = Path(directory)
    write_collection(directory / "symmetrized", collection_from_dataset(result.symmetrized), norm)
    rows = [[i, float(v)] for i, v in enumerate(result.v_norms)]
    write_table_csv(directory / "v_norms.csv", ["id", "v_norm"], rows)


def read_predictions_dir(directory, ids) -> dict:
    """Read pred_<id>.csv files for the given measurement ids."""
    directory = Path(directory)
    preds = {}
    for ident in ids:
        path = directory / f"pred_{ident}.csv"
        if not path.exists():
            raise DataError(f"missing prediction file {path}")
        rows = read_vectors_csv(path)
        if rows.shape[0] != 1:
            raise DataError(f"{path}: expected exactly one prediction row")
        preds[ident] = rows[0]
    return preds


def write_predictions_dir(directory, preds) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for ident, vec in preds.items():
        write_vectors_csv(directory / f"pred_{ident}.csv", np.asarray(vec)[None, :])
