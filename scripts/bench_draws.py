#!/usr/bin/env python3
"""Time query generation with one RNG call per candidate against one run of F_q values per stream.

After its generator and information set, each stream of
hhw_pir.scheme.generate_queries reads its basis candidates, codeword and
mask coefficients and selector candidates as uniform F_q values.  The
script times the same seeded generation twice:

  before  tests/oracles.py per_draw_generate_queries, patched in as
          generate_queries wherever the package binds it: one
          rng.integers call per basis candidate, per coefficient array
          and per selector candidate;
  after   the package: the values read off one run per stream
          (fields.UniformRun), drawn in as few calls as the reads allow.

Rows: run_experiment at the tight base for m = 2..10 in 25-trial calls,
as the perfbench tight_sweep workload runs it, in trials per second;
--queries consecutive generate_query calls on one Generator at the
perfbench retrieval fixture (q=4, L=512), in ms per query; and one
64-stream generate_queries round at q=3 m=16, in ms per query.

Each row is timed --repeats times per side (median and interquartile
range).  Both sides must give the same report digests and draws, the
same query arrays and the same Generator states after the call, or the
script exits 1; the timing, comparison and record follow
scripts/benchkit.py.  It writes the results to BENCH_draws.json.

    python3 scripts/bench_draws.py
    python3 scripts/bench_draws.py --sweeps 1 --queries 2 --repeats 1 --out bench.json
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from contextlib import nullcontext

import numpy as np

import benchkit
from hhw_pir.experiment import ExperimentConfig, run_experiment
from hhw_pir.fields import build_tower
from hhw_pir.params import SchemeParams
from hhw_pir.scheme import generate_queries, generate_query
from tests import oracles

SWEEP_BASE = dict(p=2, e=1, s=2, v=1, n=4, k=2, L=1)
SWEEP_M = range(2, 11)
SWEEP_TRIALS = 25
SWEEP_SEED = 500
RETRIEVAL_PARAMS = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=512)
Q3_PARAMS = SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256)
Q3_STREAMS = 64

replaced = functools.partial(benchkit.patched, generate_queries=oracles.per_draw_generate_queries)


def sweep(sweeps: int):
    rng = np.random.default_rng(SWEEP_SEED)
    configs = [ExperimentConfig(params=SchemeParams(m=m, **SWEEP_BASE), trials=SWEEP_TRIALS,
                                master_seed=int(rng.integers(0, 2**63))) for _ in range(sweeps) for m in SWEEP_M]

    def call():
        reports = [run_experiment(cfg) for cfg in configs]
        return [[report.digest, [record.draws for record in report.records]] for report in reports]

    return call, len(configs) * SWEEP_TRIALS


def retrieval(queries: int):
    params = RETRIEVAL_PARAMS
    tower = build_tower(params.p, params.e, params.s)

    def call():
        rng, out = np.random.default_rng(501), []
        for _ in range(queries):
            query, secrets = generate_query(params, tower, int(rng.integers(1, params.m + 1)), rng)
            out += [query.matrix.data, secrets.generator, secrets.info_set, secrets.basis, secrets.selector_block]
        return [out, rng.bit_generator.state]

    return call, queries


def q3_round():
    params = Q3_PARAMS
    tower = build_tower(params.p, params.e, params.s)
    targets = [1 + b % params.m for b in range(Q3_STREAMS)]

    def call():
        rngs = [np.random.default_rng([502, b]) for b in range(Q3_STREAMS)]
        batch = generate_queries(params, tower, targets, rngs)
        return [[getattr(batch, field.name) for field in dataclasses.fields(batch)], [rng.bit_generator.state for rng in rngs]]

    return call, Q3_STREAMS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=8, help="tight m = 2..10 sweeps, 25 trials per call")
    parser.add_argument("--queries", type=int, default=200, help="consecutive retrieval queries on one Generator")
    parser.add_argument("--repeats", type=int, default=15, help="timings per side and row")
    parser.add_argument("--out", default=str(benchkit.ROOT / "BENCH_draws.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "uniform F_q draws of query generation",
        "before": "tests/oracles.py per_draw_generate_queries as generate_queries: one rng.integers call "
                  "per basis candidate, coefficient array and selector candidate",
        "after": "generate_queries reading each stream's basis, coefficient and selector values off one "
                 "fields.UniformRun",
        "command": f"python3 scripts/bench_draws.py --sweeps {args.sweeps} --queries {args.queries} --repeats {args.repeats}",
        "machine": benchkit.machine(),
        "rows": [],
    }
    rows = [
        (f"tight sweep run_experiment (m=2..10, {SWEEP_TRIALS} trials a call)", "trials_per_s", sweep(args.sweeps)),
        ("retrieval generate_query (q=4 L=512, consecutive on one Generator)", "ms_per_query", retrieval(args.queries)),
        (f"q=3 m=16 generate_queries ({Q3_STREAMS} streams)", "ms_per_query", q3_round()),
    ]
    for name, unit, (call, items) in rows:
        identical, seconds = benchkit.timed_sides({"before": (replaced, call), "after": (nullcontext, call)}, args.repeats)
        rate = unit == "trials_per_s"
        values = {side: [items / s if rate else s / items * 1e3 for s in times] for side, times in seconds.items()}
        row = {"name": name, "items_per_call": items, "identical": identical,
               **{side: benchkit.summary(values[side], unit, 3) for side in values}}
        before, after = row["before"][f"{unit}_median"], row["after"][f"{unit}_median"]
        row["speedup_median"] = round(after / before if rate else before / after, 2)
        doc["rows"].append(row)
        print(f"{name:60s} before {before:9.3f} {unit} (IQR {row['before'][f'{unit}_iqr']:.3f})  "
              f"after {after:9.3f} (IQR {row['after'][f'{unit}_iqr']:.3f})  x{row['speedup_median']}  identical={identical}")
    return benchkit.write(doc, args.out, all(row["identical"] for row in doc["rows"]))


if __name__ == "__main__":
    sys.exit(main())
