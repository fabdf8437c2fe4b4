"""Output gate: decides which operations of an iteration failed.

An observation is what one iteration wrote, read back from its output files::

    {"digests": {"<op>:<name>": sha256 hex of a collection directory},
     "flags":   {"<op>:<name>": bool that must be true},
     "exact":   {"<op>:<name>": value that must match the reference},
     "upper":   {"<op>:<name>": value that may fall below the reference}}

Keys are prefixed with the operation (one CLI command or one demo call) that
produced them, so each problem is charged to that operation. A reference is an
observation without flags, recorded for a seed in ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance on half_kersize / skersize against the reference, and on
# how far theta_loss may rise above it (a better theta may lower it).
REL_TOL = 1e-9

REFERENCES = Path(__file__).with_name("references.json")


def collection_digest(directory) -> str:
    """SHA-256 over a collection directory's manifest and vector CSVs.

    Report files the commands add next to them (bounds.json, scatter.csv) are
    left out: the digest covers the collection itself, byte for byte.
    """
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        name = path.name
        if name == "manifest.json" or (name.endswith(".csv") and name.startswith(("y_", "fs_"))):
            data = path.read_bytes()
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def _read_rows(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln]
    return np.array([[float(t) for t in ln.split(",")] for ln in lines]).reshape(len(lines), -1)


def half_kersize_oracle(directory, p: float, q: float) -> float:
    """Half the average kernel size of a collection directory, computed
    independently of kersize: the centred closed form for p = q = 2, all
    ordered pairs otherwise (small sets only)."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    mask = manifest["norm"]["mask"]
    v = []
    for entry in manifest["entries"]:
        X = _read_rows(directory / entry["feasible"])
        n = X.shape[0]
        if n == 0:
            v.append(0.0)
            continue
        if mask is not None:
            X = X[:, np.asarray(mask, dtype=bool)]
        if p == 2 and q == 2:
            c = X - X.mean(axis=0)
            v.append(2.0 * math.fsum((c * c).sum(axis=1)) / n)
            continue
        a = np.abs(X[:, None, :] - X[None, :, :])
        norms = a.sum(axis=2) if q == 1 else (np.sqrt((a * a).sum(axis=2)) if q == 2 else a.max(axis=2))
        v.append(math.fsum((norms**p).ravel()) / n**2)
    return 0.5 * (math.fsum(v) / len(v)) ** (1.0 / p)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def problems(observed: dict, reference: dict | None = None, first: dict | None = None) -> list:
    """(op, message) for every check the observation fails.

    ``reference`` is the recorded reference for this workload and seed, if
    any; ``first`` is the first observation of the same run, which every
    later iteration must reproduce exactly (runs are deterministic).
    """
    out = []
    for key, ok in observed["flags"].items():
        if not ok:
            out.append((key, "flag is false"))
    if reference is not None:
        for group in ("digests", "exact", "upper"):
            for key, ref in reference.get(group, {}).items():
                if key not in observed[group]:
                    out.append((key, "missing from the outputs"))
                    continue
                got = observed[group][key]
                if group == "digests" and got != ref:
                    out.append((key, f"digest {got[:12]} differs from reference {ref[:12]}"))
                elif group == "exact" and not close(got, ref):
                    out.append((key, f"{got!r} differs from reference {ref!r}"))
                elif group == "upper" and got > ref + REL_TOL * abs(ref):
                    out.append((key, f"{got!r} is above reference {ref!r}"))
    if first is not None:
        for group in ("digests", "exact", "upper"):
            for key in observed[group].keys() | first[group].keys():
                if observed[group].get(key) != first[group].get(key):
                    out.append((key, "differs from the first iteration of this run"))
    return [(key.split(":", 1)[0], f"{key}: {msg}") for key, msg in out]


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())
