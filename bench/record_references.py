"""Record the output gate's references (bench/references.json).

    python3 bench/record_references.py --seeds 0-15 [--workload NAME ...]

Runs each workload once per seed, untimed, and stores what the gate compares
later runs against: collection digests, half_kersize / skersize, theta_loss.
A seed is recorded only if every operation succeeded and every flag held.
Record at a commit whose outputs are known good; later commits are held to
these values.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import WORK, prepare


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-15 or 1,7")
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)
    prepare()
    import gate
    from workloads import WORKLOADS

    references = gate.load_references()
    WORK.mkdir(exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                inputs = workload.setup(Path(tmp) / "setup", seed)
                ops = workload.run(inputs, Path(tmp) / "out")
                failed = [f"{op.name}: {op.error}" for op in ops if op.error]
                observed = workload.observe(inputs, Path(tmp) / "out") if not failed else None
            if observed is not None:
                failed = [msg for _, msg in gate.problems(observed)]
            if failed:
                print(f"{name} seed {seed}: not recorded: {failed}", file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = {
                group: observed[group] for group in ("digests", "exact", "upper")
            }
            print(f"{name} seed {seed}: recorded", flush=True)
    gate.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
