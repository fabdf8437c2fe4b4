"""Digest of every benchmark workload's output tree.

    python3 tools/output_digest.py [--seeds 1 2 3]

For each workload of ``bench/workloads.py`` and each seed, runs the
workload's ``setup`` and ``run`` once, untimed, in a temporary directory,
and prints one line

    <workload> seed=<seed> files=<n> sha256=<hex>

whose digest covers the relative path and bytes of every file the two
steps left there (setup inputs and outputs). Two checkouts, or two runs
under different ``PYTHONHASHSEED`` values, produce the same outputs
exactly when their lines agree. Exits 1 if an operation fails. The
``bench/`` modules are imported, never changed, and nothing is written
under the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tree_digest(directory: Path) -> tuple:
    """(file count, sha256 hex) over the sorted relative paths and bytes of
    every file under ``directory``."""
    h = hashlib.sha256()
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    for path in files:
        name = path.relative_to(directory).as_posix().encode()
        data = path.read_bytes()
        for part in (name, data):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return len(files), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="default: 1")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    from run import prepare

    prepare()  # pins BLAS threads and puts this checkout's src/ first on the path
    from workloads import WORKLOADS

    status = 0
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix="kersize-digest-") as tmp:
                tmp = Path(tmp)
                inputs = workload.setup(tmp / "setup", seed)
                ops = workload.run(inputs, tmp / "out")
                failed = [f"{op.name}: {op.error}" for op in ops if op.error]
                count, digest = tree_digest(tmp)
            if failed:
                print(f"{name} seed={seed}: failed: {failed}", file=sys.stderr)
                status = 1
                continue
            print(f"{name} seed={seed} files={count} sha256={digest}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
