#!/usr/bin/env python3
"""Time the F_q product kernel: the int64 kernel it replaced against the float64 one.

Every product over F_q and F_(q^s) runs on one kernel,
hhw_pir.fields.residue_matmul, with base-p digits gathered by
Fq.to_digits.  The script times the same products and retrieval stages
twice:

  before  the int64 kernel, patched in from tests/oracles.py for the run:
          int64_residue_matmul (a @ b % p on int64) as residue_matmul and
          the %-and-// loop (loop_digits) as Fq.to_digits;
  after   the kernel of the package, exact products on float64 BLAS and
          digits gathered from a table.

Products (fixed shapes, seeded operands): the retrieval fixture's
respond product (512x60 @ 60x18 over F_4) and decode products (512x9 @
9x9, 1536x3 @ 3x3), and the stacks of the tight sweep base (F_2 and
F_(2^2)): the codeword stack, the tower blow-up of a round and of one
stream's redraw (the tiny product, where the kernel's fixed cost per call
shows), and the deletion-rank chain, back-substitution and merge stacks.  Stages: generate_query,
respond and decode at the retrieval fixture (q=4 s=3 v=1 n=6 k=3 m=10
L=512), over --queries fixed-seed queries.

Each row is timed --repeats times per side, alternating which side goes
first, and reported as microseconds of wall time per call (median and
interquartile range).  Both sides must give identical outputs on every
product and stage, or the script exits 1.  It writes the results with
the machine it ran on to BENCH_products.json.  Uses only the standard
library and numpy.

    python3 scripts/bench_products.py
    python3 scripts/bench_products.py --calls 2 --queries 2 --repeats 1 --out bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from hhw_pir import fields, scheme  # noqa: E402
from hhw_pir.params import SchemeParams  # noqa: E402
from tests import oracles  # noqa: E402

RETRIEVAL = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=512)
PRODUCT_SEED = 300
QUERY_SEED = 301
DATABASE_SEED = 302


@contextmanager
def int64_kernel():
    """Run fields on the int64 kernel of tests/oracles.py until the block exits."""
    saved = fields.residue_matmul, fields.Fq.to_digits
    fields.residue_matmul = oracles.int64_residue_matmul
    fields.Fq.to_digits = lambda fq, arr: oracles.loop_digits(arr, fq)
    try:
        yield
    finally:
        fields.residue_matmul, fields.Fq.to_digits = saved


def products(calls: int):
    """(name, call, calls per timing) of every product row, on seeded operands."""
    rng = np.random.default_rng(PRODUCT_SEED)
    f4 = fields.build_tower(2, 2, 3).fq
    tight = fields.build_tower(2, 1, 2)
    f2 = tight.fq
    rows = [
        ("respond F_4 512x60 @ 60x18", f4.matmul, (f4.rand(rng, (512, 60)), f4.rand(rng, (60, 18))), calls),
        ("decode F_4 512x9 @ 9x9", f4.matmul, (f4.rand(rng, (512, 9)), f4.rand(rng, (9, 9))), calls),
        ("decode F_4 1536x3 @ 3x3", f4.matmul, (f4.rand(rng, (1536, 3)), f4.rand(rng, (3, 3))), calls),
        ("tight codeword F_(2^2) 64 x (12x2 @ 2x4)", tight.matmul, (tight.rand(rng, (64, 12, 2)), tight.rand(rng, (64, 2, 4))), 4 * calls),
        ("tight blow-up F_2 512x2 @ 2x4", f2.matmul, (f2.rand(rng, (512, 2)), tight.power_table), 4 * calls),
        ("tight one-stream blow-up F_2 4x2 @ 2x4", f2.matmul, (f2.rand(rng, (4, 2)), tight.power_table), 40 * calls),
        ("tight chain F_2 128 x (2x8 @ 8x8)", f2.matmul, (f2.rand(rng, (128, 2, 8)), f2.rand(rng, (128, 8, 8))), 4 * calls),
        ("tight back-substitution F_2 128 x (8x2 @ 2x8)", f2.matmul, (f2.rand(rng, (128, 8, 2)), f2.rand(rng, (128, 2, 8))), 4 * calls),
        ("tight merge F_2 230 x (4x8 @ 8x8)", f2.matmul, (f2.rand(rng, (230, 4, 8)), f2.rand(rng, (230, 8, 8))), 4 * calls),
    ]
    return [(name, lambda f=f, args=args: f(*args), n) for name, f, args, n in rows]


def stages(queries: int):
    """(name, call, calls per timing) of the three retrieval stages over fixed-seed queries."""
    p = RETRIEVAL
    tower = fields.build_tower(p.p, p.e, p.s)
    db = scheme.Database.random(p, np.random.default_rng(DATABASE_SEED))
    seeds = np.random.default_rng(QUERY_SEED).integers(0, 2**63, size=queries)
    jobs = [(1 + i % p.m, int(seed)) for i, seed in enumerate(seeds)]
    made = [scheme.generate_query(p, tower, target, np.random.default_rng(seed)) for target, seed in jobs]
    answers = [scheme.respond(db, query, p, tower) for query, _ in made]

    def generate():
        return [scheme.generate_query(p, tower, target, np.random.default_rng(seed))[0].matrix.data for target, seed in jobs]

    def respond():
        return [scheme.respond(db, query, p, tower).matrix.data for query, _ in made]

    def decode():
        return [scheme.decode(answer, secrets, p, tower) for answer, (_, secrets) in zip(answers, made)]

    return [(f"retrieval {name} (one query)", call, 1) for name, call in
            (("generate_query", generate), ("respond", respond), ("decode", decode))], queries


def timed(call, calls: int) -> float:
    """Seconds per call over ``calls`` calls."""
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - start) / calls


def same(x, y) -> bool:
    if isinstance(x, list):
        return len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    return x.dtype == y.dtype and np.array_equal(x, y)


def summary(us: list[float]) -> dict:
    q1, median, q3 = np.percentile(us, [25, 50, 75])
    return {"us_median": round(float(median), 1), "us_q1": round(float(q1), 1), "us_q3": round(float(q3), 1),
            "us_iqr": round(float(q3 - q1), 1), "repeats": len(us)}


def bench_row(name: str, call, calls: int, repeats: int, per: int = 1, before=int64_kernel) -> dict:
    """One row: ``call`` timed inside the ``before`` context and as it is; ``per`` divides the time of one call into per-item units."""
    sides = {"before": before, "after": nullcontext}
    us = {side: [] for side in sides}
    outputs = {}
    for side, kernel in sides.items():
        with kernel():
            outputs[side] = call()  # untimed warm-up, whose output is compared
    for rep in range(repeats):
        # alternate which side goes first so slow drift hits both equally
        order = list(sides) if rep % 2 == 0 else list(reversed(sides))
        for side in order:
            with sides[side]():
                seconds = timed(call, calls)
            us[side].append(seconds / per * 1e6)
    row = {"name": name, "calls_per_timing": calls, "identical": same(outputs["before"], outputs["after"]),
           "before": summary(us["before"]), "after": summary(us["after"])}
    row["speedup_median"] = round(row["before"]["us_median"] / row["after"]["us_median"], 2)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=50, help="calls per timing of a retrieval product (4x for tight stacks)")
    parser.add_argument("--queries", type=int, default=20, help="fixed-seed queries per timing of a retrieval stage")
    parser.add_argument("--repeats", type=int, default=11, help="timings per side and row")
    parser.add_argument("--out", default=str(ROOT / "BENCH_products.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "F_q product kernel, microseconds of wall time per call",
        "before": "int64 kernel: tests/oracles.py int64_residue_matmul (a @ b % p) and loop_digits (% and //) patched in",
        "after": "fields.residue_matmul (exact chunked float64 BLAS product, reduced without division) and the digit table",
        "command": f"python3 scripts/bench_products.py --calls {args.calls} --queries {args.queries} --repeats {args.repeats}",
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "seeds": {"products": PRODUCT_SEED, "queries": QUERY_SEED, "database": DATABASE_SEED},
        "retrieval_params": RETRIEVAL.to_dict(),
        "rows": [],
    }
    stage_rows, queries = stages(args.queries)
    rows = [(name, call, n, 1) for name, call, n in products(args.calls)]
    rows += [(name, call, n, queries) for name, call, n in stage_rows]
    for name, call, calls, per in rows:
        row = bench_row(name, call, calls, args.repeats, per)
        doc["rows"].append(row)
        print(f"{name:48s} before {row['before']['us_median']:9.1f} us (IQR {row['before']['us_iqr']:.1f})  "
              f"after {row['after']['us_median']:9.1f} us (IQR {row['after']['us_iqr']:.1f})  "
              f"x{row['speedup_median']}  identical={row['identical']}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(row["identical"] for row in doc["rows"]) else 1


if __name__ == "__main__":
    sys.exit(main())
