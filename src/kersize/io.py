"""File formats: vector CSVs, collection directories, JSON reports.

Vector CSV: one vector per row, comma separated, '.' decimal, no header, LF
line endings, floats in shortest round-trip form (so writing is byte-stable
across runs). The reader also accepts blank and whitespace-only lines (skipped),
CRLF or CR line endings and whitespace around each value. A file that is
missing, is a directory, is not UTF-8, has rows of different lengths or holds
a value that is not a decimal float raises ``DataError`` naming the file (and,
for a bad row, its 1-based line), which the CLI reports with exit code 2.

A collection directory holds ``manifest.json`` plus one ``y_<id>.csv`` (the
measurement) and one ``fs_<id>.csv`` (the feasible-set members) per
measurement. Every file is written as UTF-8 through a temp file and a rename.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np

from .core import DataError, FeasibleSet, FeasibleSetCollection, NormSpec, check_keys, whole

__all__ = [
    "write_vectors_csv",
    "read_vectors_csv",
    "read_row_csv",
    "write_json",
    "read_json",
    "write_collection",
    "read_collection",
    "write_table_csv",
    "write_bound_report",
    "write_symmetric_report",
]

MANIFEST_VERSION = 1


_TMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)
              | getattr(os, "O_BINARY", 0))
_tmp_numbers = itertools.count()


def _atomic_write(path, data: str) -> None:
    """Write ``data`` as UTF-8 to a new mode-0600 temp file beside ``path``,
    then rename it over ``path``: the rename is the commit point, so a reader
    sees the old bytes or the new ones. The temp file is removed on any
    failure."""
    while True:
        tmp = f"{path}.{os.getpid()}-{next(_tmp_numbers)}.tmp"
        try:
            fd = os.open(tmp, _TMP_FLAGS, 0o600)
            break
        except FileExistsError:
            continue
    try:
        try:
            view = memoryview(data.encode("utf-8"))
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return repr(float(v))


def write_vectors_csv(path, rows) -> None:
    """Write vectors (one per row) in the standard CSV form."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    # tolist() gives Python floats, whose repr is the shortest round-trip text
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()) if rows.size else ""
    _atomic_write(path, text)


def _read_text(path: Path) -> str:
    """The text of an existing UTF-8 file; DataError if it cannot be read."""
    if not path.exists():
        raise DataError(f"missing file {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def read_vectors_csv(path) -> np.ndarray:
    """Read a vector CSV into a 2-D float array ((0, 0) for an empty file)."""
    path = Path(path)
    lines = _read_text(path).split("\n")
    rows = list(filter(str.strip, lines))
    if not rows:
        return np.zeros((0, 0))
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        # loadtxt ends its message with the failing row: " at row N; ..." (1-based)
        # when the number of columns changes, " at row N, column C." (0-based)
        # for a value it cannot convert
        msg = str(exc)
        head, _, tail = msg.rpartition(" at row ")
        found = re.match(r"(\d+)([;,])", tail)
        if not head or found is None:
            raise DataError(f"{path}: {msg}") from None
        row = int(found[1]) - (found[2] == ";")
        file_lines = [ln for ln, line in enumerate(lines, 1) if line.strip()]
        raise DataError(f"{path}:{file_lines[row]}: {head}") from None


def read_row_csv(path, what: str) -> np.ndarray:
    """Read a vector CSV that must hold exactly one row; return that row."""
    rows = read_vectors_csv(path)
    if rows.shape[0] != 1:
        raise DataError(f"{path}: expected exactly one {what} row")
    return rows[0]


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
    _atomic_write(path, "".join(line + "\n" for line in lines))


def write_json(path, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    path = Path(path)
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def write_collection(directory, c: FeasibleSetCollection, norm: NormSpec) -> None:
    """Write a collection directory: manifest.json + per-measurement CSVs."""
    for e in c.entries:  # before any file is written
        _name(e.id)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for e in c.entries:
        y_name, fs_name = _file_names(e.id)
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


def _size(value) -> int:
    """A ``check_keys`` converter for a dimension or a count."""
    value = whole(value)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _name(value) -> str:
    """A ``check_keys`` converter for a measurement id, which must be a plain
    file name, so that ``y_<id>.csv`` and ``fs_<id>.csv`` stay in their
    directory."""
    if not isinstance(value, str):
        raise DataError(f"expected a string, got {type(value).__name__}")
    if value in ("", ".", "..") or any(c in value for c in "/\\\0"):
        raise DataError(f"measurement id {value!r} is not a plain file name: "
                        f"it is empty, '.' or '..', or holds '/', '\\' or NUL")
    return value


def _file_names(ident: str) -> tuple:
    """(measurement file, feasible-set file) of the set ``ident``: the one
    pair of names a collection directory gives it."""
    return f"y_{ident}.csv", f"fs_{ident}.csv"


def read_collection(directory) -> tuple:
    """Read a collection directory; returns (collection, norm).

    A malformed manifest (a missing or unknown key, a d1, d2 or count that is
    not a non-negative integer, an id that is not a string, a file name other
    than ``y_<id>.csv`` and ``fs_<id>.csv``, entries that are not a list of
    objects) raises DataError, so no entry reads a file outside the directory.
    """
    directory = Path(directory)
    keys = ("version", "d1", "d2", "norm", "entries")
    manifest = check_keys(read_json(directory / "manifest.json"), keys, "manifest",
                          {"d1": _size, "d2": _size, "entries": list}, required=keys)
    if manifest["version"] != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {manifest['version']!r}")
    norm = NormSpec.from_dict(manifest["norm"])
    d1, d2 = manifest["d1"], manifest["d2"]
    entry_keys = ("id", "measurement", "feasible", "count")
    entries = []
    for i, rec in enumerate(manifest["entries"]):
        rec = check_keys(rec, entry_keys, f"manifest.entries[{i}]",
                         {"id": _name, "count": _size}, required=entry_keys)
        if (rec["measurement"], rec["feasible"]) != _file_names(rec["id"]):
            raise DataError(f"manifest.entries[{i}]: the files of {rec['id']!r} must be "
                            f"named {' and '.join(_file_names(rec['id']))}")
        y = read_row_csv(directory / rec["measurement"], "measurement")
        members = read_vectors_csv(directory / rec["feasible"])
        if members.shape == (0, 0):
            members = np.zeros((0, d1))
        if members.shape[0] != rec["count"]:
            raise DataError(
                f"{rec['feasible']}: {members.shape[0]} rows but manifest count {rec['count']}"
            )
        entries.append(FeasibleSet(id=rec["id"], measurement=y, members=members))
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
    write_collection(directory / "symmetrized", result.symmetrized, norm)
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
        preds[ident] = read_row_csv(path, "prediction")
    return preds
