#!/usr/bin/env python3
"""Run one benchmark workload against the library source of this checkout.

    python3 perfbench/run.py --workload attack_scan --seed 7 --seconds 10 --trace 0

Workloads: attack_scan, retrieval, tight_sweep (see perfbench/README.md).
The run builds nothing: it imports hhw_pir from src/ next to this
directory, and exits 2 without a result when that source is missing.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, measured without
tracing; with --trace 1 they are the per-layer ones of a traced run.
Times are rescaled to a reference machine speed, measured during the run
with a fixed pure-Python loop (workloads.reference_times); the record
line also gives the plain wall-clock throughput.
Lines before it give a readable table and a "record:" line with the
machine, fixtures, seed and output digests.  The exit code is 1 when an
output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PACKAGE = ROOT / "src" / "hhw_pir"

WORKLOAD_NAMES = ("attack_scan", "retrieval", "tight_sweep")
# name -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_ratio": "fraction",
    "peak_rss_mb": "MB",
}


def end_to_end_metrics(result) -> dict[str, float]:
    op_ms = [t * 1e3 for t in result.op_s]
    return {
        "setup_s": statistics.median(result.setup_s),
        "ops_per_s": result.attempted / result.timed_s,
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": statistics.quantiles(op_ms, n=10)[8],
        "ok_ratio": 1.0 - result.failed / result.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="wall time of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"error: no library source at {SRC_PACKAGE.relative_to(ROOT)} in this checkout", file=sys.stderr)
        return 2
    import layers
    import workloads

    if Path(workloads.scheme.__file__).resolve().parent != SRC_PACKAGE:
        print(f"error: hhw_pir was imported from {workloads.scheme.__file__}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        with layers.Tracer() as tracer:
            result = workloads.run(args.workload, args.seed, args.seconds, tracer)
        metrics = layers.per_layer_metrics(tracer, result)
        units = {name: unit for name, unit, _ in layers.per_layer_spec()}
        print(layers.layer_table(tracer, result))
    else:
        result = workloads.run(args.workload, args.seed, args.seconds)
        metrics = end_to_end_metrics(result)
        units = dict(END_TO_END)
        for name, unit in units.items():
            print(f"{name:<12} {metrics[name]:>14.6g} {unit}")
        print(f"{'failed_ratio':<12} {result.failed / result.attempted:>14.6g} fraction")
        print(f"(wall clock: {result.attempted / result.wall_s:.6g} ops/s; times above are at the reference speed,"
              f" scale {result.scale:.4f})")

    wl = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fixture": wl.params.to_dict(),
        "ops": result.ops,
        "attempted": result.attempted,
        "failed": result.failed,
        "wall_ops_per_s": result.attempted / result.wall_s,
        "speed_scale": result.scale,
        "digest": result.digest,
        "prefix_digest": result.prefix_digest,
        "absent_layers": tracer.absent if tracer else [],
        "problems": result.problems,
        "machine": machine_record(),
    }
    print("record: " + json.dumps(record, sort_keys=True))
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
