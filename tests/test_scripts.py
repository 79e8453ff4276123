"""Smoke runs of the scripts under scripts/, each in a fresh subprocess, and the bench harness.

The scripts import the package the way a user would, so a deleted or
renamed public name breaks them without breaking any other test.  Each
bench's smoke run writes its record, whose rows must keep the names and
keys of the committed BENCH_<topic>.json.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hhw_pir
from hhw_pir import experiment, fields, linalg, scheme, serialization

ROOT = Path(__file__).resolve().parents[1]


def shape(value):
    """The key structure of a record: dicts by key, lists by their first item, anything else by type."""
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return [shape(value[0])] if value else []
    return type(value).__name__


@pytest.mark.parametrize(
    "argv",
    [
        ["rank_gap_demo.py"],
        ["success_vs_m.py", "--m-max", "3", "--trials", "20"],
        ["bench_trials.py", "--sweeps", "1", "--trials", "1", "--repeats", "1"],
        ["bench_attack.py", "--queries", "2", "--stacks", "1", "--repeats", "1"],
        ["bench_products.py", "--calls", "1", "--queries", "1", "--repeats", "1"],
        ["bench_echelon.py", "--calls", "1", "--queries", "1", "--repeats", "1"],
        ["bench_towers.py", "--calls", "1", "--repeats", "1"],
        ["bench_draws.py", "--sweeps", "1", "--queries", "2", "--repeats", "1"],
        ["bench_streams.py", "--sweeps", "1", "--sweep-trials", "20", "--trials", "2", "--repeats", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv, tmp_path):
    out = tmp_path / "bench.json"
    bench = argv[0].startswith("bench_")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:], *(["--out", str(out)] if bench else [])],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert proc.stdout
    if not bench:
        return
    written = json.loads(out.read_text())
    committed = json.loads((ROOT / f"BENCH_{argv[0][len('bench_'):-len('.py')]}.json").read_text())
    del written["machine"], committed["machine"]
    assert written.keys() == committed.keys()
    for key, value in committed.items():
        if isinstance(value, list):
            assert [row["name"] for row in written[key]] == [row["name"] for row in value], key
            assert [shape(row) for row in written[key]] == [shape(row) for row in value], key
        else:
            assert shape(written[key]) == shape(value), key


@pytest.fixture
def bench_scripts(monkeypatch):
    """The scripts directory on sys.path, as when a bench runs as a script."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("benchkit"), importlib.import_module("bench_products")


def test_a_differing_side_marks_its_row_and_exits_1(bench_scripts, monkeypatch, tmp_path):
    _, bench_products = bench_scripts
    kernel = fields.residue_matmul
    order = []

    def side():
        # the before side runs with the float64 kernel of tests/oracles.py patched in
        order.append("after" if fields.residue_matmul is kernel else "before")
        return [np.zeros(2, dtype=np.int64)]

    def differs():
        return [np.array([fields.residue_matmul is kernel])]

    monkeypatch.setattr(bench_products, "products", lambda calls: [("same", side, calls), ("differs", differs, calls)])
    monkeypatch.setattr(bench_products, "stages", lambda queries: ([], queries))
    out = tmp_path / "bench.json"
    assert bench_products.main(["--calls", "1", "--repeats", "4", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["rows"]
    assert [(row["name"], row["identical"]) for row in rows] == [("same", True), ("differs", False)]
    # one untimed run per side, then the first side leads on even repeats and trails on odd ones
    assert order == ["before", "after"] + ["before", "after", "after", "before"] * 2
    assert fields.residue_matmul is kernel


def test_patched_rebinds_every_binding_and_restores_it(bench_scripts):
    benchkit, _ = bench_scripts
    rank, to_digits, round_size = fields.fq_rank, fields.Fq.to_digits, experiment.ROUND_SIZE
    stand_in = object()
    with benchkit.patched(fq_rank=stand_in, to_digits=stand_in, ROUND_SIZE=1):
        assert all(module.fq_rank is stand_in for module in (hhw_pir, fields, linalg, scheme, serialization))
        assert fields.Fq.to_digits is stand_in
        assert experiment.ROUND_SIZE == 1
    assert all(module.fq_rank is rank for module in (hhw_pir, fields, linalg, scheme, serialization))
    assert fields.Fq.to_digits is to_digits and experiment.ROUND_SIZE == round_size
    blow_ups = fields.Fq.blow_up, fields.FieldTower.blow_up
    with benchkit.patched(**{"FieldTower.blow_up": stand_in}):
        assert fields.FieldTower.blow_up is stand_in and fields.Fq.blow_up is blow_ups[0]
    assert (fields.Fq.blow_up, fields.FieldTower.blow_up) == blow_ups
    for unbound in ("no_such_kernel", "Fq.no_such_method", "NoSuchClass.blow_up"):
        with pytest.raises(KeyError):
            with benchkit.patched(**{unbound: stand_in}):
                pass


def test_perf_pairs_runs_one_short_pair():
    """One pair of this checkout against itself: a row per end-to-end metric, and exit 1 only on a worse one."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "perf_pairs.py"), ".", ".",
         "--pairs", "1", "--seconds", "0.1", "--workloads", "tight_sweep"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    # two 0.1 s runs differ by noise alone, so a metric may read worse than its bound
    assert proc.returncode in (0, 1), (proc.stdout, proc.stderr)
    rows = [line.split() for line in proc.stdout.splitlines() if line.startswith("tight_sweep")]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert [row[1] for row in rows] == [metric["name"] for metric in metrics]
    assert all(row[-1] in ("held", "worse", "unresolved") for row in rows)  # one pair claims no gain
    assert (proc.returncode == 1) == any(row[-1] == "worse" for row in rows)


def test_perf_pairs_grades_each_metric_by_its_direction_and_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    grade = importlib.import_module("perf_pairs").grade
    parent = [100.0 + i % 3 for i in range(10)]  # quartiles 100 and 101.75
    faster = [value + 5 for value in parent]
    assert grade(parent, faster, "higher", 0.25) == {
        "parent_median": 101.0, "change_median": 106.0, "parent_iqr": 1.75, "won": 10, "pairs": 10, "verdict": "gain"}
    assert grade(parent, faster, "lower", 0.25)["verdict"] == "held"  # 5% worse, inside the bound
    assert grade(parent, faster, "lower", 0.01)["verdict"] == "worse"
    assert grade(parent, [value * 0.7 for value in parent], "higher", 0.25)["verdict"] == "worse"
    # eight pairs of ten, or a median ahead by no more than the parent's spread, is no gain
    assert grade(parent, faster[:8] + parent[8:], "higher", 0.25)["verdict"] == "held"
    assert grade(parent, [value + 1 for value in parent], "higher", 0.25)["verdict"] == "held"
    assert grade(parent[:2], faster[:2], "higher", 0.25)["verdict"] == "held"  # too few pairs to claim
    # a spread wider than the bound is unresolved, unless every change run beats every parent run
    wide = [50.0, 150.0] * 5
    assert grade(wide, [value + 10 for value in wide], "higher", 0.25)["verdict"] == "unresolved"
    assert grade(wide, [160.0] * 10, "higher", 0.25)["verdict"] == "held"  # ahead by 60, within the spread of 100
    split = grade(wide, [149.0] * 10, "higher", 0.25)
    assert split["won"] == 5 and split["verdict"] == "unresolved"
    ties = grade(parent, parent, "higher", 0.25)
    assert ties["won"] == 0 and ties["verdict"] == "held"


def test_machine_record_names_the_blas_build_and_threads(bench_scripts, monkeypatch):
    benchkit, _ = bench_scripts
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    record = benchkit.machine()
    assert {"python", "numpy", "cpu_count", "platform"} <= record.keys()
    assert record["OPENBLAS_NUM_THREADS"] == "1" and record["OMP_NUM_THREADS"] is None
    assert record["blas"] is None or record["blas"].keys() == {"name", "version", "openblas configuration"}
    json.dumps(record)

    def old_show_config():
        """numpy before 1.25: no mode argument."""

    monkeypatch.setattr(np, "show_config", old_show_config)
    assert benchkit.machine()["blas"] is None
