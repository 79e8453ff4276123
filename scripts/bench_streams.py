#!/usr/bin/env python3
"""Time experiment trials that discard their Generators against trials that keep the exact RNG state.

run_experiment's rounds call hhw_pir.scheme.generate_queries with
discard_rngs=True: no trial draws from its Generator again, so each
stream's run of uniform F_q values (fields.UniformRun) also draws the
values of scheme.SPARE_CANDIDATES more basis and selector candidates in
each call, and a rejected candidate rarely costs another call.  The
script runs the same seeded experiments twice:

  before  scheme.SPARE_CANDIDATES patched to 0 (benchkit.patched), which
          turns the opt-in off: the runs draw only what their streams
          are certain to read, as the default generate_queries does;
  after   the package.

Rows: run_experiment at the tight base for m = 2..10 in 25-trial calls,
as the perfbench tight_sweep workload runs it, in trials per second;
scripts/success_vs_m.py with its default sweep, in seconds a run; and
run_experiment at the preset and at q=3 m=16 in calls of --trials
trials, in trials per second.  The record also counts the sized
rng.integers calls per tight trial (the calls a run makes; the target
and generator draws are not sized by an int), over one sweep.

Each row is timed --repeats times per side (median and interquartile
range).  Both sides must give the same canonical report digests and
draws, and success_vs_m.py the same output, or the script exits 1; the
timing, comparison and record follow scripts/benchkit.py.  It writes the
results to BENCH_streams.json.

    python3 scripts/bench_streams.py
    python3 scripts/bench_streams.py --sweeps 1 --sweep-trials 20 --trials 2 --repeats 1 --out bench.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys
from contextlib import nullcontext

import numpy as np

import benchkit
import success_vs_m
from hhw_pir import scheme
from hhw_pir.experiment import ExperimentConfig, run_experiment
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams

SWEEP_BASE = dict(p=2, e=1, s=2, v=1, n=4, k=2, L=1)
SWEEP_M = range(2, 11)
SWEEP_TRIALS = 25
SWEEP_SEED = 600
# (name, params, master seed) of the fixtures run in calls of --trials trials
FIXTURES = [
    ("preset", DEFAULT_PARAMS, 601),
    ("q3_m16", SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256), 602),
]

exact = functools.partial(benchkit.patched, SPARE_CANDIDATES=0)


def experiments(configs: list[ExperimentConfig]):
    """A call that runs ``configs`` and returns each report's digest and draws."""
    def call():
        reports = [run_experiment(cfg) for cfg in configs]
        return [[report.digest, [record.draws for record in report.records]] for report in reports]

    return call


def sweep_configs(sweeps: int) -> list[ExperimentConfig]:
    rng = np.random.default_rng(SWEEP_SEED)
    return [ExperimentConfig(params=SchemeParams(m=m, **SWEEP_BASE), trials=SWEEP_TRIALS,
                             master_seed=int(rng.integers(0, 2**63))) for _ in range(sweeps) for m in SWEEP_M]


def success_sweep(trials: int):
    """A call that runs scripts/success_vs_m.py with ``trials`` trials per m and returns what it prints."""
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            success_vs_m.main(["--trials", str(trials)])
        return out.getvalue()

    return call


class _CountingGenerator:
    """A Generator that counts its integers calls of an int size, the calls of a UniformRun, in ``calls``."""

    def __init__(self, rng: np.random.Generator, calls: list[int]):
        self.rng, self.calls = rng, calls

    def integers(self, low, high=None, size=None, dtype=np.int64):
        self.calls[0] += isinstance(size, int)
        return self.rng.integers(low, high, size=size, dtype=dtype)

    def permutation(self, n):
        return self.rng.permutation(n)


@contextlib.contextmanager
def counted_generators():
    """np.random.default_rng hands out _CountingGenerators until the block exits; yields their one-item call count."""
    real, calls = np.random.default_rng, [0]
    np.random.default_rng = lambda seed=None: _CountingGenerator(real(seed), calls)
    try:
        yield calls
    finally:
        np.random.default_rng = real


def sized_calls(configs: list[ExperimentConfig]) -> tuple[bool, dict]:
    """Whether both sides give the same digests and draws, and each side's sized integers calls per trial."""
    call, outputs, per_trial = experiments(configs), [], {}
    for side, context in (("before", exact), ("after", nullcontext)):
        with context(), counted_generators() as calls:
            outputs.append(call())
        per_trial[side] = round(calls[0] / sum(cfg.trials for cfg in configs), 3)
    return benchkit.same(*outputs), per_trial


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=8, help="tight m = 2..10 sweeps, 25 trials per call")
    parser.add_argument("--sweep-trials", type=int, default=1000, help="success_vs_m.py trials per value of m")
    parser.add_argument("--trials", type=int, default=128, help="trials of the preset and q=3 m=16 calls")
    parser.add_argument("--repeats", type=int, default=21, help="timings per side and row")
    parser.add_argument("--out", default=str(benchkit.ROOT / "BENCH_streams.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "uniform runs of experiment trials that discard their Generators",
        "before": "scheme.SPARE_CANDIDATES = 0: each run draws only what its stream is certain to read",
        "after": f"generate_queries(discard_rngs=True) in run_experiment, scheme.SPARE_CANDIDATES = "
                 f"{scheme.SPARE_CANDIDATES} spare basis and selector candidates per run call",
        "command": f"python3 scripts/bench_streams.py --sweeps {args.sweeps} --sweep-trials {args.sweep_trials} "
                   f"--trials {args.trials} --repeats {args.repeats}",
        "machine": benchkit.machine(),
        "rows": [],
    }
    counted, per_trial = sized_calls(sweep_configs(1))
    doc["sized_integers_calls_per_tight_trial"] = {"trials": len(SWEEP_M) * SWEEP_TRIALS, "identical": counted, **per_trial}
    print(f"sized integers calls per tight trial: before {per_trial['before']}  after {per_trial['after']}  identical={counted}")

    configs = sweep_configs(args.sweeps)
    rows = [
        (f"tight sweep run_experiment (m=2..10, {SWEEP_TRIALS} trials a call)", "trials_per_s",
         experiments(configs), len(configs) * SWEEP_TRIALS),
        ("scripts/success_vs_m.py (m=2..10, --sweep-trials trials per m)", "s_per_run", success_sweep(args.sweep_trials), 1),
    ]
    rows += [(f"{name} run_experiment (--trials trials a call)", "trials_per_s",
              experiments([ExperimentConfig(params=params, trials=args.trials, master_seed=seed)]), args.trials)
             for name, params, seed in FIXTURES]
    for name, unit, call, items in rows:
        identical, seconds = benchkit.timed_sides({"before": (exact, call), "after": (nullcontext, call)}, args.repeats)
        rate = unit == "trials_per_s"
        values = {side: [items / s if rate else s for s in times] for side, times in seconds.items()}
        row = {"name": name, "items_per_call": items, "identical": identical,
               **{side: benchkit.summary(values[side], unit, 3) for side in values}}
        before, after = row["before"][f"{unit}_median"], row["after"][f"{unit}_median"]
        row["speedup_median"] = round(after / before if rate else before / after, 2)
        doc["rows"].append(row)
        print(f"{name:60s} before {before:9.3f} {unit} (IQR {row['before'][f'{unit}_iqr']:.3f})  "
              f"after {after:9.3f} (IQR {row['after'][f'{unit}_iqr']:.3f})  x{row['speedup_median']}  identical={identical}")
    return benchkit.write(doc, args.out, counted and all(row["identical"] for row in doc["rows"]))


if __name__ == "__main__":
    sys.exit(main())
