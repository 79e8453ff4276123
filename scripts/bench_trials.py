#!/usr/bin/env python3
"""Time run_experiment in rounds of one trial against rounds of ROUND_SIZE trials.

The experiment engine generates and attacks its trials in rounds: each
round is one stack of queries (hhw_pir.experiment.ROUND_SIZE of them).
The script times the same seeded experiments twice:

  before  rounds of one (ROUND_SIZE set to 1 for the run), every trial
          generated and attacked on its own, as run_trial does;
  after   rounds of the module constant.

Fixtures: the tight base of scripts/success_vs_m.py at m = 2..10 in
25-trial calls (the perfbench tight_sweep workload), and the preset, q4
and q=3 m=16 fixtures of ROADMAP.md in calls of --trials trials.  The
q=3 m=16 row gains least: its 40-column bases make the stacked chains
heavy, so stacking there saves little Python overhead.  Each fixture is
timed --repeats times per side and reported as trials per second of wall
time (median and interquartile range).

Both sides must give the same canonical report digest on every call, or
the script exits 1; the timing, comparison and record follow
scripts/benchkit.py.  It writes the results to BENCH_trials.json.

    python3 scripts/bench_trials.py
    python3 scripts/bench_trials.py --sweeps 1 --trials 2 --repeats 1 --out bench.json
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

import benchkit
from hhw_pir import experiment
from hhw_pir.experiment import ExperimentConfig, run_experiment
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams

SWEEP_BASE = dict(p=2, e=1, s=2, v=1, n=4, k=2, L=1)
SWEEP_M = range(2, 11)
SWEEP_TRIALS = 25
# (name, params, master seed) of the fixtures run in calls of --trials trials
FIXTURES = [
    ("preset", DEFAULT_PARAMS, 201),
    ("q4", SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=1), 202),
    ("q3_m16", SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256), 203),
]
SWEEP_SEED = 200


def fixture_configs(sweeps: int, trials: int) -> list[tuple[str, list[ExperimentConfig]]]:
    """(name, experiment configs) of every fixture, with fixed master seeds."""
    rng = np.random.default_rng(SWEEP_SEED)
    sweep = [
        ExperimentConfig(params=SchemeParams(m=m, **SWEEP_BASE), trials=SWEEP_TRIALS, master_seed=int(rng.integers(0, 2**63)))
        for _ in range(sweeps)
        for m in SWEEP_M
    ]
    rows = [("tight_sweep", sweep)]
    rows += [(name, [ExperimentConfig(params=params, trials=trials, master_seed=seed)]) for name, params, seed in FIXTURES]
    return rows


def bench_fixture(name: str, configs: list[ExperimentConfig], repeats: int) -> dict:
    trials = sum(cfg.trials for cfg in configs)
    sizes = {"before": 1, "after": experiment.ROUND_SIZE}

    def digests():
        return [run_experiment(cfg).digest for cfg in configs]

    sides = {side: (functools.partial(benchkit.patched, ROUND_SIZE=size), digests) for side, size in sizes.items()}
    identical, seconds = benchkit.timed_sides(sides, repeats)
    row = {
        "name": name,
        "params": [cfg.params.to_dict() for cfg in configs[: len(SWEEP_M)]],
        "calls": len(configs),
        "trials_per_call": configs[0].trials,
        "master_seeds": [cfg.master_seed for cfg in configs],
        "digests_identical": identical,
        **{side: {"round_size": size, **benchkit.summary([trials / s for s in seconds[side]], "trials_per_s")}
           for side, size in sizes.items()},
    }
    row["speedup_median"] = round(row["after"]["trials_per_s_median"] / row["before"]["trials_per_s_median"], 2)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=8, help="tight m = 2..10 sweeps, 25 trials per call")
    parser.add_argument("--trials", type=int, default=200, help="trials of the preset, q4 and q=3 m=16 calls")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per side and fixture")
    parser.add_argument("--out", default=str(benchkit.ROOT / "BENCH_trials.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "experiment trials per second",
        "before": "run_experiment in rounds of one trial (experiment.ROUND_SIZE = 1)",
        "after": f"run_experiment in rounds of experiment.ROUND_SIZE = {experiment.ROUND_SIZE} trials",
        "command": f"python3 scripts/bench_trials.py --sweeps {args.sweeps} --trials {args.trials} --repeats {args.repeats}",
        "machine": benchkit.machine(),
        "fixtures": [],
    }
    for name, configs in fixture_configs(args.sweeps, args.trials):
        row = bench_fixture(name, configs, args.repeats)
        doc["fixtures"].append(row)
        print(f"{name:12s} before {row['before']['trials_per_s_median']:8.1f} trials/s "
              f"(IQR {row['before']['trials_per_s_iqr']:.1f})  after {row['after']['trials_per_s_median']:8.1f} "
              f"(IQR {row['after']['trials_per_s_iqr']:.1f})  x{row['speedup_median']}  "
              f"identical={row['digests_identical']}")
    return benchkit.write(doc, args.out, all(row["digests_identical"] for row in doc["fixtures"]))


if __name__ == "__main__":
    sys.exit(main())
