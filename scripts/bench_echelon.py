#!/usr/bin/env python3
"""Time the kernels over F_p on packed rows: elimination and ranks, against the paths they replaced.

Every inverse of the package reaches the reduced echelon form of
hhw_pir.fields.fq_echelon over F_p, and every rank hhw_pir.fields.fq_rank,
directly or through blow-ups.  Both pack each row into one Python int, a
field of bits per entry, and insert the rows into a basis keyed by top
field (XOR over F_2, a multiply-add and a division-free reduction of every
field for odd p); fq_echelon then clears the basis on its pivots.  The
script times each row twice, before and after:

  kernel rows  fq_echelon against the numpy loop it replaced, patched in
               from tests/oracles.py (loop_echelon, reduced), one column
               at a time with numpy row operations, as fq_echelon ran for
               every p;
  rank rows    fq_rank against the ranks it took before its packed
               kernel, patched in as echelon_rank: the ranks of the numpy
               fq_echelon_stack, now in tests/oracles.py, for a stack,
               len(fq_echelon(...)[1]) on the packed fq_echelon for a
               single matrix;
  stage rows   the package against both old paths at once.

Kernel rows (seeded matrices).  Over F_2, the [M | I] the q4 fixture's
inverses hand the kernel: 18x36, a 3x3 inverse over F_64, and 12x24, the
6x6 selector inverse over F_4; and a larger inverse, 60x120.  One 10x40
matrix each over F_3, F_5, F_251 and F_65521, whose packed fields are 8,
16, 32 and 64 bits wide.

Rank rows.  The 2-D ranks 18x36 over F_2 and 30x40 over F_3, the stacks
64x16x32 over F_2 and 64x20x40 over F_3 (seeded), and per fixture every
fq_rank call of one generation round of 64 fixed-seed streams
(scheme.generate_queries, captured once), replayed in order, and apart
from them the tail calls among them, stacks of 1 to 3 matrices, which
the rejection phases rank once few streams are still pending.

Stage rows: generate_query and decode of one query at a time at the
preset, tight and q4 fixtures (p = 2) and at the q=3 m=16 fixture
(p = 3), over --queries fixed-seed queries per fixture.  The attack's
recover_index runs neither kernel (scripts/bench_attack.py times its
scan).

Each row is timed --repeats times per side and reported as
microseconds of wall time per call.  Both sides must give identical
outputs on every row (echelon forms and pivots, ranks, query matrices
and decoded files), or the script exits 1; the timing, comparison and
record follow scripts/benchkit.py.  It writes the results to
BENCH_echelon.json.

    python3 scripts/bench_echelon.py
    python3 scripts/bench_echelon.py --calls 1 --queries 1 --repeats 1 --out bench.json
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

import benchkit
from hhw_pir import experiment, fields, scheme
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams
from tests import oracles

# the four baseline fixtures of ROADMAP.md
FIXTURES = [
    ("preset", DEFAULT_PARAMS),
    ("tight", SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=4)),
    ("q4", SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=64)),
    ("q3_m16", SchemeParams(p=3, e=1, s=4, v=2, n=10, k=5, m=16, L=256)),
]
MATRIX_SEED = 400
QUERY_SEED = 401
DATABASE_SEED = 402
ROUND_SEED = 403


def echelon_rank(arr, fq):
    """fields.fq_rank before its packed kernel: fq_echelon_stack's ranks, or fq_echelon's pivots for one matrix."""
    arr = np.asarray(arr)
    if fq.e > 1:
        return echelon_rank(fq.blow_up(arr), fq.fp) // fq.e
    *lead, rows, cols = arr.shape
    if lead:
        return oracles.fq_echelon_stack(arr.reshape(-1, rows, cols), fq)[1].reshape(lead)
    return len(fields.fq_echelon(arr, fq)[1])


# the numpy loop for echelon forms and inverses, and ranks on top of it
loop_kernel = functools.partial(benchkit.patched, fq_echelon=functools.partial(oracles.loop_echelon, reduced=True),
                                fq_rank=echelon_rank)
# ranks as they were taken before the packed rank kernel, on the packed fq_echelon
echelon_ranks = functools.partial(benchkit.patched, fq_rank=echelon_rank)


def kernels(calls: int):
    """(name, call, calls per timing) of every kernel row, on seeded matrices."""
    rng = np.random.default_rng(MATRIX_SEED)
    f2, f3, f5, f251, f65521 = (fields.Fq(p, 1, (0, 1)) for p in (2, 3, 5, 251, 65521))

    def with_identity(n):
        return np.hstack([f2.rand(rng, (n, n)), np.eye(n, dtype=np.int64)])

    def echelon(arr, fp):
        # fields.fq_echelon is looked up at call time, so the patched loop runs on the before side
        R, pivots = fields.fq_echelon(arr, fp)
        return [R, np.array(pivots, dtype=np.int64)]

    rows = [
        ("F_2 18x36 [M | I]", f2, with_identity(18), calls),
        ("F_2 12x24 [M | I]", f2, with_identity(12), calls),
        ("F_2 60x120 [M | I]", f2, with_identity(60), max(calls // 5, 1)),
        ("F_3 10x40", f3, f3.rand(rng, (10, 40)), calls),
        ("F_5 10x40 (16-bit fields)", f5, f5.rand(rng, (10, 40)), calls),
        ("F_251 10x40 (32-bit fields)", f251, f251.rand(rng, (10, 40)), calls),
        ("F_65521 10x40 (64-bit fields)", f65521, f65521.rand(rng, (10, 40)), calls),
    ]
    return [(name, lambda fp=fp, arr=arr: echelon(arr, fp), n) for name, fp, arr, n in rows]


def captured_ranks(p, tower) -> list:
    """Every (arr, fq) that fields.fq_rank receives in one generation round of fixed-seed streams."""
    calls = []

    def record(arr, fq, rank=fields.fq_rank):
        calls.append((np.array(arr), fq))
        return rank(arr, fq)

    streams = [np.random.default_rng([ROUND_SEED, i]) for i in range(experiment.ROUND_SIZE)]
    with benchkit.patched(fq_rank=record):
        scheme.generate_queries(p, tower, [1 + i % p.m for i in range(len(streams))], streams)
    return calls


def ranks(calls: int):
    """(name, call, calls per timing) of every rank row: seeded shapes and the captured generation rounds."""
    rng = np.random.default_rng(MATRIX_SEED + 1)
    f2, f3 = (fields.Fq(p, 1, (0, 1)) for p in (2, 3))

    def replay(jobs):
        # fields.fq_rank is looked up at call time, so echelon_rank runs on the before side
        return [np.asarray(fields.fq_rank(arr, fq)) for arr, fq in jobs]

    rows = [
        ("F_2 18x36", [(f2.rand(rng, (18, 36)), f2)], calls),
        ("F_3 30x40", [(f3.rand(rng, (30, 40)), f3)], calls),
        ("F_2 64x16x32 stack", [(f2.rand(rng, (64, 16, 32)), f2)], max(calls // 20, 1)),
        ("F_3 64x20x40 stack", [(f3.rand(rng, (64, 20, 40)), f3)], max(calls // 40, 1)),
    ]
    for fixture, p in FIXTURES:
        jobs = [(arr, fq) for arr, fq in captured_ranks(p, fields.build_tower(p.p, p.e, p.s)) if arr.ndim == 3]
        tails = [(arr, fq) for arr, fq in jobs if len(arr) <= 3]
        rows += [(f"{fixture} generation round: {len(jobs)} stacks", jobs, max(calls // 20, 1)),
                 (f"{fixture} generation round: its {len(tails)} stacks of 1-3", tails, max(calls // 10, 1))]
    return [(f"rank {name}", lambda jobs=jobs: replay(jobs), n) for name, jobs, n in rows]


def stages(queries: int):
    """(name, call, calls per timing) of generate and decode per fixture, over fixed-seed queries."""
    rows = []
    for index, (fixture, p) in enumerate(FIXTURES):
        tower = fields.build_tower(p.p, p.e, p.s)
        db = scheme.Database.random(p, np.random.default_rng(DATABASE_SEED + index))
        seeds = np.random.default_rng(QUERY_SEED + index).integers(0, 2**63, size=queries)
        jobs = [(1 + i % p.m, int(seed)) for i, seed in enumerate(seeds)]
        made = [scheme.generate_query(p, tower, target, np.random.default_rng(seed)) for target, seed in jobs]
        answers = [scheme.respond(db, query, p, tower) for query, _ in made]

        def generate(p=p, tower=tower, jobs=jobs):
            return [scheme.generate_query(p, tower, target, np.random.default_rng(seed))[0].matrix.data
                    for target, seed in jobs]

        def decode(p=p, tower=tower, made=made, answers=answers):
            return [scheme.decode(answer, secrets, p, tower) for answer, (_, secrets) in zip(answers, made)]

        rows += [(f"{fixture} generate_query (one query)", generate, 1), (f"{fixture} decode (one query)", decode, 1)]
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=200, help="calls per timing of a kernel row (a fifth at 60x120)")
    parser.add_argument("--queries", type=int, default=10, help="fixed-seed queries per timing of a stage row")
    parser.add_argument("--repeats", type=int, default=11, help="timings per side and row")
    parser.add_argument("--out", default=str(benchkit.ROOT / "BENCH_echelon.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "elimination and ranks over F_p, microseconds of wall time per call (stage rows: per query)",
        "before": "kernel rows: tests/oracles.py loop_echelon, reduced (numpy row operations, one column at a "
                  "time) patched in as fq_echelon; rank rows: echelon_rank (fq_echelon_stack(...)[1], or "
                  "len(fq_echelon(...)[1]) for one matrix) patched in as fq_rank; stage rows: both",
        "after": "fields.fq_echelon and fields.fq_rank on rows packed into Python ints, each inserted into a "
                 "basis keyed by its top field (XOR over F_2, multiply-add and a division-free field reduction "
                 "for odd p); fq_echelon then clears the basis on its pivots",
        "command": f"python3 scripts/bench_echelon.py --calls {args.calls} --queries {args.queries} --repeats {args.repeats}",
        "machine": benchkit.machine(),
        "seeds": {"matrices": MATRIX_SEED, "queries": QUERY_SEED, "database": DATABASE_SEED, "rounds": ROUND_SEED},
        "fixtures": {name: p.to_dict() for name, p in FIXTURES},
        "rows": [],
    }
    rows = [(name, call, n, 1, loop_kernel) for name, call, n in kernels(args.calls)]
    rows += [(name, call, n, 1, echelon_ranks) for name, call, n in ranks(args.calls)]
    rows += [(name, call, n, args.queries, loop_kernel) for name, call, n in stages(args.queries)]
    for name, call, calls, per, before in rows:
        row = benchkit.bench_row(name, call, before, calls, args.repeats, per)
        doc["rows"].append(row)
        print(f"{name:52s} before {row['before']['us_median']:9.1f} us (IQR {row['before']['us_iqr']:.1f})  "
              f"after {row['after']['us_median']:9.1f} us (IQR {row['after']['us_iqr']:.1f})  "
              f"x{row['speedup_median']}  identical={row['identical']}")
    return benchkit.write(doc, args.out, all(row["identical"] for row in doc["rows"]))


if __name__ == "__main__":
    sys.exit(main())
