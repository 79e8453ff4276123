#!/usr/bin/env python3
"""Run the benchmark of BENCHMARK.json in alternating pairs of two checkouts and grade each end-to-end metric.

    python3 scripts/perf_pairs.py PARENT CHANGE
    python3 scripts/perf_pairs.py ../parent . --pairs 10 --workloads tight_sweep

PARENT and CHANGE are two checkouts of this repository.  For each
workload of BENCHMARK.json, each pair runs the benchmark command
(perfbench/run.py) with --trace 0 once in each checkout, under the
Python that runs this script and with the same run length (by default
BENCHMARK.json's run_seconds): the parent first on even pairs, the
change first on odd ones, so slow drift on the host hits both sides
equally.

For each end-to-end metric of BENCHMARK.json it prints both medians, the
parent's interquartile range, the pairs the change won (ties count for
neither side) and a verdict:

  worse       the change's median is worse than the parent's by more
              than the metric's bound, a fraction of the parent's median;
  gain        over at least ten pairs, the change won at least nine in
              ten, and its median is better than the parent's by more
              than the parent's interquartile range;
  unresolved  the parent's interquartile range is wider than the bound,
              and not every run of the change reads better than every
              run of the parent;
  held        none of these.

The exit code is 1 when a metric is worse or a run's output check
failed.  The script reads BENCHMARK.json of this repository and runs its
command in each checkout; the statistics and machine record come from
scripts/benchkit.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchkit import machine, summary

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, command: list[str], workload: str, seconds: float) -> dict:
    """The result line of one --trace 0 run of the benchmark command in ``checkout``."""
    if command[0] == "python3":
        command = [sys.executable, *command[1:]]
    argv = [*command, "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def grade(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The row of one metric from its paired values: parent[i] and change[i] ran in pair i."""
    sign = 1 if better == "higher" else -1
    base, new = summary(parent, "value", 6), summary(change, "value", 6)
    median, iqr = base["value_median"], base["value_iqr"]
    ahead = sign * (new["value_median"] - median)  # > 0: the change's median is better
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    if ahead < -bound * abs(median):
        verdict = "worse"
    elif len(parent) >= 10 and won >= 0.9 * len(parent) and ahead > iqr:
        verdict = "gain"
    elif iqr > bound * abs(median) and not min(sign * b for b in change) > max(sign * a for a in parent):
        verdict = "unresolved"
    else:
        verdict = "held"
    return {"parent_median": median, "change_median": new["value_median"], "parent_iqr": iqr,
            "won": won, "pairs": len(parent), "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="run length of every benchmark run")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    print("machine: " + json.dumps(machine()))
    print(f"{'workload':<12} {'metric':<12} {'parent':>12} {'change':>12} {'change %':>9} "
          f"{'parent iqr':>11} {'won':>6}  verdict")
    status = 0
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in sides:
                result = run_once(getattr(args, side), spec["command"], workload, args.seconds)
                if not result["correct"]:
                    print(f"{workload}: a {side} run failed its output check", file=sys.stderr)
                    status = 1
                runs[side].append({name: metric["value"] for name, metric in result["metrics"].items()})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = grade([run[name] for run in runs["parent"]], [run[name] for run in runs["change"]],
                        metric["better"], metric["bound"])
            change = 100 * (row["change_median"] / row["parent_median"] - 1) if row["parent_median"] else 0.0
            print(f"{workload:<12} {name:<12} {row['parent_median']:>12.6g} {row['change_median']:>12.6g} "
                  f"{change:>+8.1f}% {row['parent_iqr']:>11.4g} {row['won']:>2}/{row['pairs']:<3}  {row['verdict']}",
                  flush=True)
            if row["verdict"] == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
