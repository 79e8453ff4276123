#!/usr/bin/env python3
"""Time building the field towers against one modulus search per call with a scalar Rabin test.

Every experiment, the attack and the round trip run on one tower
F_p <= F_q <= F_(q^s), built by hhw_pir.fields.build_tower.  The script
times the same builds twice:

  before  the paths the package replaced: build_tower without its cache
          (the function its memo wraps, fields._build_tower.__wrapped__,
          patched in for the run), so every call searches its moduli
          again, and the scalar search of tests/oracles.py
          (scalar_smallest_irreducible, one Rabin test per candidate, no
          budget) as smallest_irreducible;
  after   the package: build_tower memoised on its (p, e, s), and the
          stacked Rabin test on windows of consecutive candidates that
          skips those with zero derivative or zero constant term.

Rows: a cold build (the cache cleared before each call) of (2, 1, 2),
(3, 1, 4), (2, 2, 3), (2, 1, 4) and (2, 16, 2), whose top search walks
65 536 squares before its first candidate; a warm build of (3, 1, 4),
a cache hit after the first call; and run_experiment at the tight base
for m = 2..10 in 25-trial calls, as the perfbench tight_sweep workload
runs it, per run_experiment call.  The cold rows run --calls calls per
timing, (2, 16, 2) one; the warm row runs 100 times --calls.

Each row is timed --repeats times per side and reported as
microseconds of wall time per call (median and interquartile range).
Both sides must give the same moduli and report digests, or the script
exits 1; the timing, comparison and record follow scripts/benchkit.py.
It writes the results to BENCH_towers.json.

    python3 scripts/bench_towers.py
    python3 scripts/bench_towers.py --calls 1 --repeats 1 --out bench.json
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

import benchkit
from hhw_pir import fields
from hhw_pir.experiment import ExperimentConfig, run_experiment
from hhw_pir.params import SchemeParams
from tests import oracles

COLD = [(2, 1, 2), (3, 1, 4), (2, 2, 3), (2, 1, 4), (2, 16, 2)]
SLOW = {(2, 16, 2)}  # one call per timing
WARM = (3, 1, 4)
SWEEP_BASE = dict(p=2, e=1, s=2, v=1, n=4, k=2, L=1)
SWEEP_M = range(2, 11)
SWEEP_TRIALS = 25
SWEEP_SEED = 400

CACHED = fields.build_tower
replaced = functools.partial(benchkit.patched, _build_tower=fields._build_tower.__wrapped__,
                             smallest_irreducible=oracles.scalar_smallest_irreducible)


def moduli(pes) -> tuple:
    """The moduli of the tower fields.build_tower builds for pes, looked up as it runs."""
    tower = fields.build_tower(*pes)
    return tower.base_modulus, tower.top_modulus


def cold(pes):
    def call():
        CACHED.cache_clear()
        return moduli(pes)

    return call


def sweep_configs() -> list[ExperimentConfig]:
    rng = np.random.default_rng(SWEEP_SEED)
    return [ExperimentConfig(params=SchemeParams(m=m, **SWEEP_BASE), trials=SWEEP_TRIALS,
                             master_seed=int(rng.integers(0, 2**63))) for m in SWEEP_M]


def rows(calls: int):
    """(name, call, calls per timing, items per call) of every row."""
    configs = sweep_configs()
    out = [(f"cold build_tower{pes}", cold(pes), 1 if pes in SLOW else calls, 1) for pes in COLD]
    out.append((f"warm build_tower{WARM}", lambda: moduli(WARM), 100 * calls, 1))
    out.append((f"tight sweep run_experiment (m=2..10, {SWEEP_TRIALS} trials, per call)",
                lambda: [run_experiment(cfg).digest for cfg in configs], 1, len(configs)))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=10, help="calls per timing of a cold build (100x for the warm one)")
    parser.add_argument("--repeats", type=int, default=7, help="timings per side and row")
    parser.add_argument("--out", default=str(benchkit.ROOT / "BENCH_towers.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "field tower builds and the tight sweep, microseconds of wall time per call",
        "before": "build_tower without its cache (fields._build_tower.__wrapped__) and tests/oracles.py "
                  "scalar_smallest_irreducible (one Rabin test per candidate, no budget) as smallest_irreducible",
        "after": "build_tower memoised on (p, e, s) and the stacked Rabin test on windows of candidates, "
                 "with zero-derivative and zero-constant candidates skipped, under MODULUS_SEARCH_BUDGET",
        "command": f"python3 scripts/bench_towers.py --calls {args.calls} --repeats {args.repeats}",
        "machine": benchkit.machine(),
        "search_budget": fields.MODULUS_SEARCH_BUDGET,
        "sweep": {"base": SWEEP_BASE, "m": list(SWEEP_M), "trials": SWEEP_TRIALS, "seed": SWEEP_SEED},
        "rows": [],
    }
    for name, call, calls, per in rows(args.calls):
        row = benchkit.bench_row(name, call, replaced, calls, args.repeats, per)
        doc["rows"].append(row)
        print(f"{name:58s} before {row['before']['us_median']:11.1f} us (IQR {row['before']['us_iqr']:.1f})  "
              f"after {row['after']['us_median']:9.1f} us (IQR {row['after']['us_iqr']:.1f})  "
              f"x{row['speedup_median']}  identical={row['identical']}")
    return benchkit.write(doc, args.out, all(row["identical"] for row in doc["rows"]))


if __name__ == "__main__":
    sys.exit(main())
