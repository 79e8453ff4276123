#!/usr/bin/env python3
"""Print every metric of every workload: end to end, then layer by layer.

    python3 perfbench/report.py --seed 7 --seconds 10

For each workload this runs perfbench/run.py twice, one process after the
other: untraced for the end-to-end metrics, then traced for the layer
table.  The tracing overhead is the relative drop in ops_per_s from the
first run to the second.  Exits 1 when any run failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[bool, list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not lines:
        return False, lines, {}
    result = json.loads(lines[-1])
    ok = proc.returncode == 0 and result["correct"]
    return ok, [line for line in lines[:-1] if not line.startswith("record: ")], result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES, help="repeatable; default all")
    args = parser.parse_args(argv)

    all_ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        ok_plain, plain_lines, plain = run_once(workload, args.seed, args.seconds, 0)
        ok_traced, traced_lines, traced = run_once(workload, args.seed, args.seconds, 1)
        all_ok = all_ok and ok_plain and ok_traced
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        print("\n".join(plain_lines))
        print()
        print("\n".join(traced_lines))
        if plain and traced:
            untraced = plain["metrics"]["ops_per_s"]["value"]
            with_trace = traced["metrics"]["trace.ops_per_s"]["value"]
            print(f"tracing overhead: ops_per_s {untraced:.4g} untraced, {with_trace:.4g} traced,"
                  f" {1.0 - with_trace / untraced:.1%} lower with tracing")
        print(f"output checks: {'passed' if ok_plain and ok_traced else 'FAILED'}")
        print()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
