"""Tests of the benchmark itself.

    python -m pytest perfbench

They run every workload for one batch of ops (``seconds=0``), so they
check behaviour, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OTHER_SEED = 5


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_file_lists_the_reported_metrics():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == {name: unit for name, unit, _ in layers.per_layer_spec()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_runs_and_checks_its_outputs(name):
    result = workloads.run(name, OTHER_SEED, seconds=0)
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    assert result.ops == workloads.WORKLOADS[name].batch
    assert all(value > 0 for value in run.end_to_end_metrics(result).values())


@pytest.mark.parametrize("name", sorted(workloads.PINNED_DIGESTS))
def test_digest_repeats_and_matches_the_pinned_value(name):
    first = workloads.run(name, workloads.DEFAULT_SEED, seconds=0)
    second = workloads.run(name, workloads.DEFAULT_SEED, seconds=0)
    assert first.correct and second.correct, first.problems + second.problems
    assert first.prefix_digest == second.prefix_digest == workloads.PINNED_DIGESTS[name]
    assert first.digest == second.digest


def _library_bindings() -> dict:
    """Every module global and class attribute of the hhw_pir modules."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "hhw_pir" and not module_name.startswith("hhw_pir."):
            continue
        for name, value in vars(module).items():
            found[(module_name, name)] = value
            if isinstance(value, type) and value.__module__.startswith("hhw_pir"):
                for attr, member in vars(value).items():
                    found[(module_name, name, attr)] = member
    return found


def test_tracing_leaves_the_library_unpatched():
    before = _library_bindings()
    with layers.Tracer() as tracer:
        assert workloads.scheme.decode is not before[("hhw_pir.scheme", "decode")]
        result = workloads.run("retrieval", OTHER_SEED, seconds=0, tracer=tracer)
    after = _library_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert tracer.absent == []
    metrics = layers.per_layer_metrics(tracer, result)
    assert set(metrics) == set(_units("per_layer"))
    assert metrics["trace.coverage"] > 0.9


def test_a_missing_layer_function_is_marked_absent():
    tracer = layers.Tracer(layers.TARGETS + ("linalg.no_such_function", "fields.Fq.no_such_method"))
    with tracer:
        result = workloads.run("tight_sweep", OTHER_SEED, seconds=0, tracer=tracer)
    assert tracer.absent == ["linalg.no_such_function", "fields.Fq.no_such_method"]
    assert "absent" in layers.layer_table(tracer, result)


def test_a_corrupted_decode_counts_as_failed(monkeypatch):
    real_decode = workloads.scheme.decode

    def corrupted(*args, **kwargs):
        out = real_decode(*args, **kwargs).copy()
        out[0, 0] = (out[0, 0] + 1) % workloads.RETRIEVAL_PARAMS.q
        return out

    monkeypatch.setattr(workloads.scheme, "decode", corrupted)
    result = workloads.run("retrieval", OTHER_SEED, seconds=0)
    assert result.failed == result.attempted
    assert not result.correct


def test_trial_errors_count_as_failed_trials(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.experiment, "recover_index", broken)
    result = workloads.run("tight_sweep", OTHER_SEED, seconds=0)
    assert result.attempted == workloads.SWEEP_TRIALS * result.ops
    assert result.failed == result.attempted


def test_command_prints_one_result_line():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tight_sweep", "--seed", str(OTHER_SEED),
           "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(_units("per_layer"))


def test_command_fails_without_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "retrieval", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
