"""Benchmark of kersize's bound pipelines, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py and BENCHMARK.json): microscopy, linear_cli,
linear_l1, superres. Each is a closed loop with one client: one pipeline at a
time, in this process, with BLAS/OpenMP pinned to at most nproc threads.

A run sets the workload up several times (fresh-interpreter ``import
kersize`` plus building the inputs; ``setup_s`` is the median), runs one
untimed warm-up iteration, then repeats the pipeline until ``--seconds`` have
passed. Every iteration's outputs go through the gate (gate.py); an operation
that raises, exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: the median ``wall_s`` over the
timed iterations, ``setup_s`` and ``peak_rss_mb``. ``--trace 1`` alternates
traced and untraced iterations and reports the per-layer metrics (medians over
the traced iterations, see spans.py) and the tracing overhead; its spans go to
``bench/.work/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    for suffix, unit in (("us_per_", "us"), ("ns_per_", "ns"), ("ms_per_", "ms"),
                         ("bytes_", "bytes"), ("_share", "ratio"), ("_ratio", "ratio")):
        if suffix in name:
            return unit
    return "count"


def _pin_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)


def prepare() -> int:
    """Pin threads and put the kersize sources on the path; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    _pin_threads(nproc)
    sys.path.insert(0, str(SRC))
    return nproc


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the checkout
    may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": _git_commit(),
    }


def _median_metrics(rows: list) -> dict:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


class Runner:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, work: Path):
        import gate

        self.gate = gate
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = gate.load_references().get(workload.name, {}).get(str(seed))
        self.first = None  # the first iteration's observation; later ones must match it
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def setup(self, repeats: int) -> tuple:
        """Median of fresh-interpreter import plus input building, and the
        inputs of the last repetition."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        times, inputs = [], None
        for i in range(repeats):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import kersize"], cwd=ROOT, env=env,
                           stdin=subprocess.DEVNULL, check=True)
            inputs = self.workload.setup(self.work / f"setup{i}", self.seed)
            times.append(perf_counter() - t0)
        return statistics.median(times), inputs

    def iterate(self, inputs, tracer=None) -> float:
        """Run the pipeline once, gate its outputs, delete them; return the
        pipeline's wall time."""
        out = self.work / f"it{self.count}"
        self.count += 1
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            ops = self.workload.run(inputs, out)
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        errors = {op.name: op.error for op in ops if op.error}
        try:
            observed = self.workload.observe(inputs, out)
        except (OSError, ValueError, KeyError) as exc:
            observed = None
            for op in ops:
                errors.setdefault(op.name, f"outputs unreadable: {exc!r}")
        if observed is not None:
            found = self.gate.problems(observed, self.reference, self.first)
            for op_name, message in found:
                errors.setdefault(op_name, message)
            if self.first is None:
                self.first = observed
        for name, error in errors.items():
            print(f"FAILED {self.workload.name} seed {self.seed} {name}: {error}", file=sys.stderr)
        self.attempted += len(ops)
        self.failed += sum(op.name in errors for op in ops)
        shutil.rmtree(out, ignore_errors=True)
        return wall


def _traced_iteration(runner: Runner, inputs, run_id: int) -> tuple:
    import spans

    tracer = spans.Tracer(run_id)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wall = runner.iterate(inputs, tracer)
    metrics = spans.layer_metrics(tracer, wall)
    metrics["py_warnings"] = len(caught)
    return wall, metrics, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "kersize" / "__init__.py").is_file():
        print(f"error: no kersize sources under {SRC}", file=sys.stderr)
        return 2

    nproc = prepare()
    from workloads import WORKLOADS

    # a terminated run still removes its work directory and reaps its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = _environment(nproc)
    print("environment " + json.dumps(env, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work)
        setup_s, inputs = runner.setup(SETUP_REPEATS)
        runner.iterate(inputs)  # untimed warm-up, gated like the rest
        walls, traced_walls, layer_rows, all_spans = [], [], [], []
        start = perf_counter()
        while True:
            if args.trace and len(traced_walls) <= len(walls):
                wall, metrics, spans_ = _traced_iteration(runner, inputs, len(traced_walls))
                traced_walls.append(wall)
                layer_rows.append(metrics)
                all_spans += spans_
            else:
                walls.append(runner.iterate(inputs))
            if perf_counter() - start >= args.seconds and walls and (traced_walls or not args.trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        import spans

        metrics = _median_metrics(layer_rows)
        metrics["trace_overhead_share"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        metrics["failed_share"] = runner.failed / runner.attempted
        shares = {layer: metrics[key] / metrics["trace.wall_s"] for layer, key in spans.LAYER_SELF.items()}
        print("layer shares of traced wall_s: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "iterations": layer_rows, "spans": [s.to_dict() for s in all_spans],
        }))
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"timed iterations: {len(walls)}; wall_s per iteration: "
              + " ".join(f"{w:.4f}" for w in walls))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
