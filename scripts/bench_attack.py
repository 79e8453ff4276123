#!/usr/bin/env python3
"""Time the attack's rank profile: one elimination per deletion, the numpy chains and the packed scan.

For each baseline fixture of ROADMAP.md, and for two paper-scale shapes
(q=2 n=64 and q=3 n=32, both m = 16, on an eighth as many queries), the
script samples a fixed set of seeded queries and times, query by query,
three ways of computing the rank profile:

  before  tests/oracles.py:per_deletion_rank_profile, one fq_rank of
          each (m-1)*delta x n*s block-deleted matrix;
  chain   tests/oracles.py:chain_deletion_ranks, prefix and suffix
          bases in reduced echelon form as numpy arrays, merged once per
          deletion, the reference for the scan that replaced it;
  after   hhw_pir.attack.rank_profile (fields.fq_deletion_ranks): every
          deletion read off one echelon basis of the transposed query,
          rows packed into Python ints, at every p; the basis rows leading
          in a block are masked, inserted into the basis itself and
          popped again.

It then times stacks of seeded queries, in rounds of 25 and of 64 as the
experiment engine scans them, at the tight base with m = 6 and m = 10,
the preset, q4 and q=3 m=16: the numpy chains (chain_deletion_ranks on
the stack) against fields.fq_deletion_ranks.

Each query or stack is timed --repeats times per side and reported as
milliseconds of wall time (median and interquartile range over every
query or stack and repeat).  Every side must return the same profiles on
every input, or the script exits 1; the timing, comparison and record
follow scripts/benchkit.py.  It writes the results to BENCH_attack.json.

    python3 scripts/bench_attack.py
    python3 scripts/bench_attack.py --queries 10 --stacks 2 --repeats 3 --out bench.json
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import nullcontext

import numpy as np

import benchkit
from hhw_pir.attack import rank_profile
from hhw_pir.fields import build_tower, fq_deletion_ranks
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams
from hhw_pir.scheme import generate_queries, generate_query
from tests.oracles import chain_deletion_ranks, per_deletion_rank_profile

# The four baseline fixtures of ROADMAP.md, each with its own fixed seed.
FIXTURES = [
    ("preset", DEFAULT_PARAMS, 101),
    ("tight", SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=4), 102),
    ("q4", SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=64), 103),
    ("q3_m16", SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256), 104),
]
# Paper-scale shapes, whose transposed queries have rows of 1024 bits (F_2) and 4096 bits (F_3).
PAPER_FIXTURES = [
    ("q2_n64", SchemeParams(p=2, e=1, s=4, v=2, n=64, k=32, m=16, L=16), 110),
    ("q3_n32", SchemeParams(p=3, e=1, s=4, v=2, n=32, k=16, m=16, L=16), 111),
]
# The stacked rows: (name, params, seed), each scanned in rounds of ROUNDS.
STACK_FIXTURES = [
    ("tight_m6", SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=4), 105),
    ("tight_m10", SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=10, L=4), 106),
    ("preset", DEFAULT_PARAMS, 107),
    ("q4", SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=64), 108),
    ("q3_m16", SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256), 109),
]
ROUNDS = (25, 64)


def timed_inputs(paths: dict, inputs: list, repeats: int) -> tuple[bool, dict[str, list[float]]]:
    """Whether every side gives the same output on every input, and each side's milliseconds per run."""
    identical, ms = True, {side: [] for side in paths}
    for i, item in enumerate(inputs):
        # odd inputs start from the last side, so that each side leads as often over an even count of inputs
        order = list(paths) if i % 2 == 0 else list(reversed(paths))
        sides = {side: (nullcontext, functools.partial(paths[side], item)) for side in order}
        same, seconds = benchkit.timed_sides(sides, repeats)
        identical = identical and same
        for side in paths:
            ms[side] += [t * 1000.0 for t in seconds[side]]
    return identical, ms


def bench_fixture(name: str, params: SchemeParams, seed: int, queries: int, repeats: int) -> dict:
    tower = build_tower(params.p, params.e, params.s)
    rng = np.random.default_rng(seed)
    sampled = [generate_query(params, tower, int(rng.integers(1, params.m + 1)), rng)[0].matrix.data
               for _ in range(queries)]
    width = params.n * params.s
    paths = {
        "before": lambda q: per_deletion_rank_profile(q, params.delta, tower.fq),
        "chain": lambda q: chain_deletion_ranks(q.reshape(len(q), width), params.delta, tower.fq),
        "after": lambda q: rank_profile(q, params, tower),
    }
    identical, ms = timed_inputs(paths, sampled, repeats)
    out = {
        "name": name,
        "params": params.to_dict(),
        "seed": seed,
        "queries": queries,
        "query_shape_over_fq": [params.block_rows, width],
        "profiles_identical": identical,
        **{side: benchkit.summary(ms[side], "ms", 4, "samples") for side in paths},
    }
    out["speedup_median"] = round(out["before"]["ms_median"] / out["after"]["ms_median"], 2)
    out["speedup_vs_chain_median"] = round(out["chain"]["ms_median"] / out["after"]["ms_median"], 2)
    return out


def bench_stack(name: str, params: SchemeParams, seed: int, count: int, stacks: int, repeats: int) -> dict:
    """Numpy chains against fq_deletion_ranks on ``stacks`` seeded stacks of ``count`` queries."""
    tower = build_tower(params.p, params.e, params.s)
    width = params.n * params.s
    sampled = []
    for i in range(stacks):
        rngs = [np.random.default_rng([seed, count, i, b]) for b in range(count)]
        targets = [int(r.integers(1, params.m + 1)) for r in rngs]
        sampled.append(generate_queries(params, tower, targets, rngs).data.reshape(count, params.block_rows, width))
    paths = {
        "chain": lambda st: chain_deletion_ranks(st, params.delta, tower.fq),
        "after": lambda st: fq_deletion_ranks(st, params.delta, tower.fq),
    }
    identical, ms = timed_inputs(paths, sampled, repeats)
    out = {
        "name": name,
        "params": params.to_dict(),
        "seed": seed,
        "count": count,
        "stacks": stacks,
        "stack_shape_over_fq": [count, params.block_rows, width],
        "profiles_identical": identical,
        **{side: benchkit.summary(ms[side], "ms", 4, "samples") for side in paths},
    }
    out["speedup_median"] = round(out["chain"]["ms_median"] / out["after"]["ms_median"], 2)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=40, help="seeded queries per fixture")
    parser.add_argument("--stacks", type=int, default=5, help="seeded stacks per stacked row")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs of each query or stack per side")
    parser.add_argument("--out", default=str(benchkit.ROOT / "BENCH_attack.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "attack rank profile",
        "before": "tests/oracles.py:per_deletion_rank_profile (one fq_rank per deleted block)",
        "chain": "tests/oracles.py:chain_deletion_ranks (prefix/suffix bases as numpy arrays in reduced echelon "
                 "form), the reference for the scan that replaced it",
        "after": "hhw_pir.attack.rank_profile and fields.fq_deletion_ranks (every deletion read off one echelon "
                 "basis of the transposed query, rows packed into Python ints, at every p; the basis rows leading "
                 "in a block are masked, inserted into the basis itself and popped again)",
        "command": "python3 scripts/bench_attack.py"
                   f" --queries {args.queries} --stacks {args.stacks} --repeats {args.repeats}",
        "machine": benchkit.machine(),
        "fixtures": [],
        "stacks": [],
    }
    fixtures = [(*fixture, args.queries) for fixture in FIXTURES]
    fixtures += [(*fixture, max(args.queries // 8, 1)) for fixture in PAPER_FIXTURES]
    for name, params, seed, queries in fixtures:
        row = bench_fixture(name, params, seed, queries, args.repeats)
        doc["fixtures"].append(row)
        print(f"{name:9s} before {row['before']['ms_median']:8.3f} ms "
              f"(IQR {row['before']['ms_iqr']:.3f})  chain {row['chain']['ms_median']:7.3f} ms "
              f"(IQR {row['chain']['ms_iqr']:.3f})  after {row['after']['ms_median']:7.3f} ms "
              f"(IQR {row['after']['ms_iqr']:.3f})  x{row['speedup_median']} (x{row['speedup_vs_chain_median']} "
              f"vs chain)  identical={row['profiles_identical']}")
    for name, params, seed in STACK_FIXTURES:
        for count in ROUNDS:
            row = bench_stack(name, params, seed, count, args.stacks, args.repeats)
            doc["stacks"].append(row)
            print(f"{name:9s} x{count:<3d} chain {row['chain']['ms_median']:8.3f} ms "
                  f"(IQR {row['chain']['ms_iqr']:.3f})  after {row['after']['ms_median']:8.3f} ms "
                  f"(IQR {row['after']['ms_iqr']:.3f})  x{row['speedup_median']}  "
                  f"identical={row['profiles_identical']}")
    return benchkit.write(doc, args.out, all(row["profiles_identical"] for row in doc["fixtures"] + doc["stacks"]))


if __name__ == "__main__":
    sys.exit(main())
