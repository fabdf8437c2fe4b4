"""Self-tests of the benchmark's own logic: self times, the tracer's patching,
and the output gate.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kersize import FeasibleSet, FeasibleSetCollection, NormSpec, bounds, io  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    tree = [
        spans.Span("demo.run", 0.0, 10.0, None, 0),
        spans.Span("bounds.verify", 1.0, 5.0, 0, 0, counted_s=0.5),
        spans.Span("core.loss", 2.0, 3.0, 1, 0),
        spans.Span("core.loss", 3.5, 4.0, 1, 0),
        spans.Span("io.write", 6.0, 7.0, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx(
        {"demo.run": 5.0, "bounds.verify": 2.0, "core.loss": 1.5, "io.write": 1.0}
    )
    # self times partition the top-level span
    assert sum(spans.self_times(tree).values()) + 0.5 == pytest.approx(10.0)


def _collection(n=5, seed=0):
    rng = np.random.default_rng(seed)
    entries = tuple(
        FeasibleSet(id=f"m{k:02d}", measurement=rng.uniform(size=2),
                    members=rng.uniform(-1, 1, (n, 3)))
        for k in range(3)
    )
    return FeasibleSetCollection(d1=3, d2=2, entries=entries)


def test_tracer_records_nested_spans_and_restores_originals():
    originals = (bounds.kersize, bounds.pair_power_sum, io.write_vectors_csv)
    tracer = spans.Tracer(run=7)
    tracer.install()
    try:
        assert bounds.kersize is not originals[0]
        bounds.verify_bounds(_collection(), {}, NormSpec())
    finally:
        tracer.uninstall()
    assert (bounds.kersize, bounds.pair_power_sum, io.write_vectors_csv) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "bounds.verify_bounds"
    assert names.count("bounds.pair_power_sum") == 3
    assert all(s.run == 7 for s in tracer.spans)
    pair = next(s for s in tracer.spans if s.name == "bounds.pair_power_sum")
    assert tracer.spans[pair.parent].name == "bounds.kersize"
    assert tracer.counters["bounds.pair_power_sum.pairs"] == 3 * 10


def _write_validated(directory: Path, lower_ok: bool = True) -> None:
    c = _collection()
    norm = NormSpec()
    io.write_collection(directory, c, norm)
    report = bounds.verify_bounds(c, {}, norm).to_dict()
    report["inequality_flags"]["lower_ok"] = lower_ok
    (directory / "bounds.json").write_text(json.dumps(report))


def _observe(directory: Path) -> dict:
    obs = workloads._observation()
    report = json.loads((directory / "bounds.json").read_text())
    workloads._observe_report(obs, "validate:report", directory, report, "sample:collection")
    return obs


def test_gate_passes_identical_outputs(tmp_path):
    _write_validated(tmp_path / "a")
    obs = _observe(tmp_path / "a")
    reference = {k: obs[k] for k in ("digests", "exact", "upper")}
    assert obs["flags"]["validate:report.half_kersize_matches_oracle"]
    assert gate.problems(obs, reference, obs) == []


def test_gate_flags_a_collection_with_one_changed_byte(tmp_path):
    _write_validated(tmp_path / "a")
    reference = gate.collection_digest(tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    target = tmp_path / "b" / "fs_m01.csv"
    data = bytearray(target.read_bytes())
    data[3] = ord("7") if data[3] != ord("7") else ord("8")
    target.write_bytes(bytes(data))
    assert gate.collection_digest(tmp_path / "b") != reference
    obs = workloads._observation()
    obs["digests"]["sample:collection"] = gate.collection_digest(tmp_path / "b")
    found = gate.problems(obs, {"digests": {"sample:collection": reference}})
    assert [op for op, _ in found] == ["sample"]


def test_gate_ignores_report_files_beside_the_collection(tmp_path):
    _write_validated(tmp_path / "a")
    before = gate.collection_digest(tmp_path / "a")
    (tmp_path / "a" / "scatter.csv").write_text("id\n")
    assert gate.collection_digest(tmp_path / "a") == before


def test_gate_flags_a_report_with_lower_ok_false(tmp_path):
    _write_validated(tmp_path / "a", lower_ok=False)
    found = gate.problems(_observe(tmp_path / "a"))
    assert [op for op, _ in found] == ["validate"]
    assert "lower_ok" in found[0][1]


def test_gate_reference_tolerances():
    ref = {"exact": {"demo:skersize": 1.0}, "upper": {"validate:theta_loss": 2.0}}
    obs = workloads._observation()
    obs["exact"]["demo:skersize"] = 1.0 + 1e-12
    obs["upper"]["validate:theta_loss"] = 1.5  # a better theta passes
    assert gate.problems(obs, ref) == []
    obs["exact"]["demo:skersize"] = 1.0 + 1e-6
    obs["upper"]["validate:theta_loss"] = 2.0 + 1e-6
    assert sorted(op for op, _ in gate.problems(obs, ref)) == ["demo", "validate"]


def test_gate_flags_an_iteration_that_differs_from_the_first():
    first = workloads._observation()
    first["digests"]["demo:symmetrized"] = "aa"
    later = workloads._observation()
    later["digests"]["demo:symmetrized"] = "bb"
    assert [op for op, _ in gate.problems(later, None, first)] == ["demo"]
