"""Smoke test of the benchmark at reduced input sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric of BENCHMARK.json appears with its unit, that
closed-form counts are labelled computed, that the traced run writes spans
with parents, that two runs of one seed give the same outputs, that the
correctness gate fails a call fed a wrong expected answer, and that the
benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=root)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


def checksums(proc: subprocess.CompletedProcess) -> dict:
    calls = [ln.split(" ", 3)[2:] for ln in proc.stdout.splitlines() if ln.startswith("# call ")]
    return {name: json.loads(blob)["sha256"] for name, blob in calls}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_repeatable_outputs(workload):
    first, second = run_bench(workload, 0), run_bench(workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for proc in (first, second):
        metrics = result_of(proc)["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(v["value"] > 0 for v in metrics.values())
    assert checksums(first) == checksums(second)
    assert all(checksums(first).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    proc = run_bench(workload, 1)
    metrics = result_of(proc)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # run_sweep returns no search counts, so the sweep's are closed forms.
    computed = {ln.split()[2] for ln in proc.stdout.splitlines() if ln.startswith("# metric") and "computed:" in ln}
    assert ("solver_real.patterns" in computed) == (workload == "sweep")

    trace = json.loads((ROOT / ".perfbench_out" / f"trace-{workload}-seed{SEED}.json").read_text())
    spans = {s["id"]: s for s in trace["spans"]}
    layer_spans = [s for s in spans.values() if s["name"].split(".")[0] in
                   {"model", "numerics", "distance", "solver_real", "solver_complex", "experiments"}]
    assert layer_spans
    for s in layer_spans:
        parent = spans[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        if parent["name"].startswith("call."):
            assert s["trace"] == parent["trace"] == parent["id"]


def wrong_expectation(call) -> None:
    """Change the expected answer of one call so that it no longer holds."""
    if call.kind == "certify":
        call.expect["d"] += 1
    elif call.kind == "solve":
        truth = call.expect["truths"][0]
        call.expect["truths"] = [truth.scaled(2.0)]
    elif call.kind == "sweep":
        call.expect["trials"] += 1
    else:
        call.expect["verdict"] = "no_such_verdict"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fails_a_wrong_expected_answer(workload, tmp_path):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import harness
        import workloads
    finally:
        del sys.path[:2]
    calls = workloads.build(workload, SEED, "smoke", str(tmp_path))
    gate = harness.Gate()
    harness.paired_pass(calls, gate, harness.Tracer(), defaultdict(list))
    assert gate.failed == 0, gate.failures

    # The untraced call and its traced replica both fail; no other call does.
    wrong_expectation(calls[0])
    gate = harness.Gate()
    harness.paired_pass(calls, gate, harness.Tracer(), defaultdict(list))
    assert gate.failed == 2 and all(f.startswith(calls[0].name) for f in gate.failures), gate.failures
    assert gate.failed / gate.attempted > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("certify", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
