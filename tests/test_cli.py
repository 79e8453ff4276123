"""End-to-end command line checks, each one in a fresh subprocess.

Cross-process runs are the point: every artifact the pipeline consumes is
re-read from disk by a different interpreter than the one that wrote it,
so nothing can lean on in-memory state.
"""

import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hhw_pir.fields import build_tower
from hhw_pir.params import SchemeParams
from hhw_pir.scheme import DRAW_PHASES
from hhw_pir.serialization import load_matrix

from .oracles import per_draw_generate_queries

TIGHT = '{"p": 2, "e": 1, "s": 2, "v": 1, "n": 4, "k": 2, "m": 6, "L": 3}'


def run_cli(*args, expect: int = 0, flags: tuple[str, ...] = ()):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "hhw_pir.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def test_analyze_table_and_json():
    proc = run_cli("analyze")
    assert "delta=8" in proc.stdout
    assert "k0=24" in proc.stdout
    assert "m0=4" in proc.stdout
    doc = json.loads(run_cli("analyze", "--format", "json").stdout)
    assert doc["derived"]["k0"] == 24
    assert doc["failure_bound"]["simplified"] == f"1/{2**256}"
    assert doc["rates"]["r_pir_approx"] == "1/4"


def test_analyze_accepts_inline_params_and_overrides():
    doc = json.loads(
        run_cli("analyze", "--params", TIGHT, "--m", "8", "--format", "json").stdout
    )
    assert doc["params"]["m"] == 6  # the declared instance is echoed as is
    assert doc["failure_bound"]["m"] == 8  # the override lands in the bounds
    assert doc["rates"]["m"] == 8
    assert doc["derived"] == {"delta": 2, "k0": 6, "m0": 4}
    doc = json.loads(
        run_cli("analyze", "--params", TIGHT, "--file-rows", "16384", "--format", "json").stdout
    )
    assert doc["measured_rate"]["L"] == 16384


def test_analyze_params_from_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(TIGHT)
    doc = json.loads(run_cli("analyze", "--params", str(path), "--format", "json").stdout)
    assert doc["params"]["n"] == 4


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gendb -> query -> respond executed once; several tests read the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    db = str(root / "db.hhwm")
    query = str(root / "query.hhwm")
    secrets = str(root / "query.hhwm.secrets.json")
    response = str(root / "response.hhwm")
    run_cli("gendb", "--params", TIGHT, "--seed", "101", "--out", db)
    out = json.loads(
        run_cli("query", "--params", TIGHT, "--target", "4", "--seed", "202", "--out", query).stdout
    )
    assert out["secrets"] == secrets
    run_cli("respond", "--params", TIGHT, "--db", db, "--query", query, "--out", response)
    return {"root": root, "db": db, "query": query, "secrets": secrets, "response": response}


def test_decode_recovers_and_matches_database(pipeline):
    out = str(pipeline["root"] / "file.hhwm")
    doc = json.loads(
        run_cli(
            "decode", "--params", TIGHT,
            "--response", pipeline["response"], "--secrets", pipeline["secrets"],
            "--database", pipeline["db"], "--out", out,
        ).stdout
    )
    assert doc["target"] == 4
    assert doc["match"] is True

    # byte-exactness against the database slice, independently of the CLI check
    recovered = load_matrix(out)
    db = load_matrix(pipeline["db"])
    assert np.array_equal(recovered.data[:, :, 0], db.data[:, 6:8, 0])


def test_decode_detects_database_mismatch(pipeline):
    other_db = str(pipeline["root"] / "other.hhwm")
    run_cli("gendb", "--params", TIGHT, "--seed", "999", "--out", other_db)
    out = str(pipeline["root"] / "junk.hhwm")
    proc = run_cli(
        "decode", "--params", TIGHT, "--response", pipeline["response"],
        "--secrets", pipeline["secrets"], "--database", other_db, "--out", out,
        expect=1,
    )
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "BadArguments"
    assert "does not match" in err["error"]["message"]


def test_attack_recovers_target_cross_process(pipeline):
    report_path = str(pipeline["root"] / "attack.json")
    proc = run_cli("attack", "--params", TIGHT, "--query", pipeline["query"],
                   "--out", report_path)
    doc = json.loads(proc.stdout)
    assert doc["recovered_index"] == 4
    assert doc["candidates"] == [4]
    assert doc["threshold"] == 6
    assert json.loads(Path(report_path).read_text()) == doc


def test_attack_exit_code_on_ambiguity(tmp_path):
    # an all-zero query file: every deletion has rank 0, nothing distinguishes
    import struct

    path = tmp_path / "zero.hhwm"
    header = struct.pack("<4sBIIIII", b"HHWM", 1, 2, 1, 2, 12, 4)
    path.write_bytes(header + bytes(48))
    proc = run_cli("attack", "--params", TIGHT, "--query", str(path), expect=2)
    doc = json.loads(proc.stdout)
    assert doc["recovered_index"] is None
    assert doc["candidates"] == [1, 2, 3, 4, 5, 6]


def test_usage_errors_exit_1_with_a_json_error():
    """A bad command line is an operational error: exit 1 and a JSON error, not argparse's exit 2,
    which would read as an attack that named no index."""
    proc = run_cli("attack", "--params", TIGHT, "--fallback-argmin", "--query", "query.hhwm", expect=1)
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "BadArguments"
    assert "unrecognized arguments: --fallback-argmin" in error["message"]
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, needle", [
    (["attack", "--bogus", "--query", "q.hhwm"], "--bogus"),
    (["experiment", "--trials", "1", "--fallback-argmin"], "--fallback-argmin"),
    (["analyze", "--m", "notanint"], "notanint"),
    ([], "command"),
    (["selftest"], "invalid choice: 'selftest'"),
    (["analyze", "--params", "a_directory"], "Is a directory"),
    (["analyze", "--params", "latin1.json"], "can't decode byte 0xe9"),
    (["gendb", "--seed", "-1", "--out", "db.hhwm"], "seed must be a non-negative integer, got -1"),
    (["query", "--target", "1", "--seed", "-5", "--out", "q.hhwm"], "seed must be a non-negative integer, got -5"),
])
def test_usage_errors_are_typed(argv, needle, capsys, tmp_path, monkeypatch):
    """A bad command line, or parameters that are no readable JSON, raise BadArguments."""
    from hhw_pir import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"p": 2, "note": "\u00e9"}'.encode("latin-1"))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error["type"] == "BadArguments" and needle in error["message"]


def test_help_still_exits_0(capsys):
    from hhw_pir import cli

    for argv in (["--help"], ["attack", "--help"], ["experiment", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        assert "usage: hhw-pir" in capsys.readouterr().out


def test_readme_command_lines_parse():
    """Every `$ hhw-pir ...` line of the README, continuation lines joined, parses with the real parser."""
    from hhw_pir import cli

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.sub(r"\\\n\s*", " ", text).splitlines()
    commands = [shlex.split(line)[2:] for line in lines if line.startswith("$ hhw-pir ")]
    assert [argv[0] for argv in commands] == ["attack", "gendb", "query", "respond", "decode", "analyze"]
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_malformed_query_file_is_reported(tmp_path, capsys):
    """A query file that is malformed, a directory or missing is a MatrixFileError."""
    from hhw_pir import cli

    path = tmp_path / "broken.hhwm"
    path.write_bytes(b"HHWMgarbage")
    proc = run_cli("attack", "--params", TIGHT, "--query", str(path), expect=1)
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "MatrixFileError"
    for unreadable, needle in ((tmp_path, "Is a directory"), (tmp_path / "missing.hhwm", "No such file")):
        assert cli.main(["attack", "--params", TIGHT, "--query", str(unreadable)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "MatrixFileError" and needle in error["message"]


def test_bad_params_json_is_reported():
    proc = run_cli("analyze", "--params", '{"p": 4, "e": 1}', expect=1)
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "InvalidParams"


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, as RFC 8259 parsers do."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_single_file_reports_are_strict_json(tmp_path, capsys):
    """At m = 1 no wrong block exists and the union bound is 0: its log2 is written as null, and the
    table still prints it, in analyze, experiment --out and canonical_json."""
    from hhw_pir import cli
    from hhw_pir.experiment import ExperimentConfig, canonical_json, run_experiment

    single = json.dumps({**json.loads(TIGHT), "m": 1})
    assert cli.main(["analyze", "--params", single, "--format", "json"]) == 0
    bound = _strict_json(capsys.readouterr().out)["failure_bound"]
    assert bound["union"] == "0" and bound["log2_union"] is None and bound["log2_union_conservative"] is None
    assert cli.main(["analyze", "--params", TIGHT, "--m", "1"]) == 0
    assert "(log2 union -inf)" in capsys.readouterr().out
    out = tmp_path / "report.json"
    assert cli.main(["experiment", "--params", single, "--trials", "2", "--out", str(out)]) == 0
    aggregate = _strict_json(out.read_text())["aggregate"]
    assert aggregate["log2_bound_union"] is None and aggregate["log2_bound_union_conservative"] is None
    report = run_experiment(ExperimentConfig(params=SchemeParams.from_dict(json.loads(single)), trials=2))
    assert _strict_json(canonical_json(report))["aggregate"]["log2_bound_union"] is None


def test_analyze_refuses_non_positive_file_rows():
    """--file-rows 0 is a file length of 0, not the instance's L; it and negative lengths exit 1 with the JSON error."""
    for rows in ("0", "-3"):
        proc = run_cli("analyze", "--params", TIGHT, "--file-rows", rows, "--format", "json", expect=1)
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "BadArguments" and "L=" + rows in err["error"]["message"]


def test_query_rejects_out_of_range_target(tmp_path):
    out = str(tmp_path / "q.hhwm")
    proc = run_cli("query", "--params", TIGHT, "--target", "7", "--out", out, expect=1)
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "IndexOutOfRange"


def test_query_reports_its_draws_per_phase(tmp_path):
    """The query command prints the candidates its stream drew in each rejection phase, those of the
    per-draw reference path, and writes the query and secrets files it wrote before it printed them."""
    out = tmp_path / "q.hhwm"
    doc = json.loads(run_cli("query", "--params", TIGHT, "--target", "4", "--seed", "202", "--out", str(out)).stdout)
    params = SchemeParams.from_dict(json.loads(TIGHT))
    reference = per_draw_generate_queries(params, build_tower(2, 1, 2), [4], [np.random.default_rng(202)])
    assert doc["draws"] == dict(zip(DRAW_PHASES, reference.draws[0].tolist()))
    assert doc["draws"] == {"generator": 2, "info_set": 1, "basis": 12, "selector": 1}
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, tmp_path / "q.hhwm.secrets.json")]
    assert digests == [
        "f0fb333b20e1ffbb52f7944ea0dd5d3212cee30f4d533b10139104ee12f47ba8",
        "42927ac448b47424b4ce4b547aca2f097a369119178d236849337d458fae7341",
    ]


def test_experiment_json_and_csv(tmp_path):
    json_out = tmp_path / "report.json"
    proc = run_cli(
        "experiment", "--params", TIGHT, "--trials", "6", "--seed", "31",
        "--out", str(json_out),
    )
    summary = json.loads(proc.stdout)
    assert summary["trials"] == 6
    full = json.loads(json_out.read_text())
    assert len(full["trials"]) == 6
    assert full["config"]["master_seed"] == 31

    csv_out = tmp_path / "report.csv"
    run_cli(
        "experiment", "--params", TIGHT, "--trials", "6", "--seed", "31",
        "--format", "csv", "--out", str(csv_out),
    )
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0].startswith("trial,seed,target,recovered")
    assert len(lines) == 7


def test_experiment_deterministic_across_processes(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run_cli("experiment", "--params", TIGHT, "--trials", "5", "--seed", "77",
                "--out", str(out))
        doc = json.loads(out.read_text())
        doc.pop("digest")
        doc["aggregate"].pop("elapsed_ms")
        for t in doc["trials"]:
            for timing in ("elapsed_ms", "generate_ms", "attack_ms"):
                t.pop(timing)
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_unknown_subcommand_fails():
    proc = run_cli("frobnicate", expect=1)
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "BadArguments" and "invalid choice: 'frobnicate'" in error["message"]
