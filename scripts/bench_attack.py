#!/usr/bin/env python3
"""Time the attack's rank profile: one elimination per deletion vs the prefix/suffix kernel.

For each baseline fixture of ROADMAP.md the script samples a fixed set of
seeded queries and times, query by query, two ways of computing the rank
profile:

  before  tests/oracles.py:per_deletion_rank_profile, one fq_echelon on
          each (m-1)*delta x n*s block-deleted matrix;
  after   hhw_pir.attack.rank_profile, prefix and suffix echelon bases
          merged once per deletion (linalg.fq_deletion_ranks).

Both must return the same profile on every query, or the script exits 1.
It also counts the elimination work per query, as the rows x columns
handed to fq_echelon summed over its calls.  fq_echelon works over F_p,
so for e > 1 these are cells of the F_p blow-up, e^2 per F_q entry.  The
script writes the medians and interquartile ranges with the machine it
ran on to BENCH_attack.json.
Uses only the standard library and numpy.

    python3 scripts/bench_attack.py
    python3 scripts/bench_attack.py --queries 10 --repeats 3 --out bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from hhw_pir import fields, linalg  # noqa: E402
from hhw_pir.attack import rank_profile  # noqa: E402
from hhw_pir.fields import build_tower  # noqa: E402
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams  # noqa: E402
from hhw_pir.scheme import generate_query  # noqa: E402
from tests.oracles import per_deletion_rank_profile  # noqa: E402

# The four baseline fixtures of ROADMAP.md, each with its own fixed seed.
FIXTURES = [
    ("preset", DEFAULT_PARAMS, 101),
    ("tight", SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=4), 102),
    ("q4", SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=64), 103),
    ("q3_m16", SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256), 104),
]


@contextmanager
def counting_echelon():
    """Count calls and rows x cols cells of every fq_echelon call made meanwhile.

    The kernel is defined in fields and imported into linalg, so both
    names are replaced.
    """
    tally = {"calls": 0, "cells": 0}
    original = fields.fq_echelon

    def counted(arr, fq, reduced=False):
        shape = np.shape(arr)
        tally["calls"] += 1
        tally["cells"] += shape[0] * shape[1]
        return original(arr, fq, reduced)

    fields.fq_echelon = linalg.fq_echelon = counted
    try:
        yield tally
    finally:
        fields.fq_echelon = linalg.fq_echelon = original


def summary(samples_ms: list[float]) -> dict:
    q1, median, q3 = np.percentile(samples_ms, [25, 50, 75])
    return {
        "ms_median": round(float(median), 4),
        "ms_q1": round(float(q1), 4),
        "ms_q3": round(float(q3), 4),
        "ms_iqr": round(float(q3 - q1), 4),
        "samples": len(samples_ms),
    }


def bench_fixture(name: str, params: SchemeParams, seed: int, queries: int, repeats: int) -> dict:
    tower = build_tower(params.p, params.e, params.s)
    rng = np.random.default_rng(seed)
    sampled = [generate_query(params, tower, int(rng.integers(1, params.m + 1)), rng)[0].matrix.data
               for _ in range(queries)]
    paths = {
        "before": lambda q: per_deletion_rank_profile(q, params.delta, tower.fq),
        "after": lambda q: rank_profile(q, params, tower),
    }
    times = {side: [] for side in paths}
    profiles, work = {}, {}
    for side, run in paths.items():
        with counting_echelon() as tally:
            profiles[side] = [run(q) for q in sampled]
        work[side] = {key: value / queries for key, value in tally.items()}
    for i, query in enumerate(sampled):
        # alternate which side goes first so slow drift hits both equally
        order = list(paths) if i % 2 == 0 else list(reversed(paths))
        for _ in range(repeats):
            for side in order:
                start = time.perf_counter()
                paths[side](query)
                times[side].append((time.perf_counter() - start) * 1000.0)
    out = {
        "name": name,
        "params": params.to_dict(),
        "seed": seed,
        "queries": queries,
        "query_shape_over_fq": [params.block_rows, params.n * params.s],
        "profiles_identical": profiles["before"] == profiles["after"],
    }
    for side in paths:
        out[side] = {
            **summary(times[side]),
            "fq_echelon_calls_per_query": work[side]["calls"],
            "fq_echelon_cells_per_query": work[side]["cells"],
        }
    out["speedup_median"] = round(out["before"]["ms_median"] / out["after"]["ms_median"], 2)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=40, help="seeded queries per fixture")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs of each query per side")
    parser.add_argument("--out", default=str(ROOT / "BENCH_attack.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "attack rank profile",
        "before": "tests/oracles.py:per_deletion_rank_profile (one fq_echelon per deleted block)",
        "after": "hhw_pir.attack.rank_profile (prefix/suffix bases, linalg.fq_deletion_ranks)",
        "command": "python3 scripts/bench_attack.py"
                   f" --queries {args.queries} --repeats {args.repeats}",
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "fixtures": [],
    }
    for name, params, seed in FIXTURES:
        row = bench_fixture(name, params, seed, args.queries, args.repeats)
        doc["fixtures"].append(row)
        print(f"{name:7s} before {row['before']['ms_median']:8.3f} ms "
              f"(IQR {row['before']['ms_iqr']:.3f})  after {row['after']['ms_median']:7.3f} ms "
              f"(IQR {row['after']['ms_iqr']:.3f})  x{row['speedup_median']}  "
              f"cells/query {row['before']['fq_echelon_cells_per_query']:.0f} -> "
              f"{row['after']['fq_echelon_cells_per_query']:.0f}  "
              f"identical={row['profiles_identical']}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(row["profiles_identical"] for row in doc["fixtures"]) else 1


if __name__ == "__main__":
    sys.exit(main())
