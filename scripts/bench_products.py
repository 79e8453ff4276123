#!/usr/bin/env python3
"""Time the product paths and the round trip's small conversions against the paths they replaced.

Every product over F_q and F_(q^s) runs on one kernel,
hhw_pir.fields.residue_matmul.  The script times the same products and
retrieval stages twice:

  before  the paths the package replaced, patched in from tests/oracles.py
          for the run: float64_residue_matmul (every product on float64
          BLAS) as residue_matmul, two_step_blow_up (the power table of
          F_q^s, an F_q blow-up and then an F_p one) as FieldTower.blow_up,
          and the paths the lookups replaced: product_blow_up (the digits
          times the structure tensor) as Fq.blow_up, product_encode (a
          product also for e = 1) as Fq._encode, digit_vadd / digit_vsub
          (sums through base-p digits) as Fq.vadd / Fq.vsub,
          bytes_pack_rows (int.from_bytes for every row) as
          fields._pack_rows and division_coordinates (s rounds of % and
          //) as serialization._coordinates; on the load and
          generate_queries rows only those lookups' paths; on the respond
          row only concatenated_respond (the files
          concatenated, range-checked and expanded to F_p digits on every
          query) as scheme.respond, and on the decode rows only
          unit_row_decode (the decoding map built over F_q from the images
          of the n*s unit rows, with encodings between its steps) as
          scheme.decode;
  after   the package: one float32 product wherever its sums stay exact
          (float64 otherwise), the F_p blow-up of a tower in one product
          with its structure tensor, the F_q blow-up looked up in a table
          of all q regular representations, sums over F_(2^e) as XOR, an
          F_p encoding as a cast, rows of at most 64 bits packed by one
          uint64 product, matrix-file coordinates read from digit tables,
          respond as one product of the
          database's F_p digits, built once per database, with the query's
          blow-up, and decoding as one F_p map of the response's digits,
          composed from three eliminations over F_p and encoded once.

Products (fixed shapes, seeded operands): the retrieval fixture's
respond product (512x60 @ 60x18 over F_4), decode product (512x18 @ 18x6
over F_4, the map applied to the response) and codeword product (30x3 @
3x6 over F_(4^3)), and at the tight sweep base (F_2 and F_(2^2)): the
codeword stack, the tower blow-up of a round (64 generators of 2x4) and
of one stream's redraw (one 2x2 block, where the fixed cost per call
shows), and the "tight chain", "tight back-substitution" and "tight
merge" stacks.  Those three are the products of the numpy deletion
chain at the tight base, which the package no longer makes (its
deletion scan runs on packed rows); they stay as plain kernel rows.
The F_4 blow-ups of a retrieval op (1x3, 3x3, 6x6 and 60x18) close the
product rows; every product row looks its method up as it runs, so the
before side calls the method patched in.
Stages: generate_query, respond and decode at the retrieval fixture
(q=4 s=3 v=1 n=6 k=3 m=10 L=512), over --queries fixed-seed queries,
the one-off preprocessing of its database (Database.digits on a fresh
copy), which both sides time alike, load_query and load_response of
the saved files of those queries and their responses, and at two wide
fixtures, q=2 s=4 v=2 k=n/2 m=16 L=64 with n=64 and n=128,
generate_queries of one round of 4 fixed-seed streams and decode over a
quarter of --queries (at least one).

Each row is timed --repeats times per side and reported as
microseconds of wall time per call (median and interquartile range).
Both sides must give identical outputs on every product and stage, or
the script exits 1; the timing, comparison and record follow
scripts/benchkit.py.  It writes the results to BENCH_products.json.

    python3 scripts/bench_products.py
    python3 scripts/bench_products.py --calls 2 --queries 2 --repeats 1 --out bench.json
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

import numpy as np

import benchkit
from hhw_pir import fields, scheme, serialization
from hhw_pir.params import SchemeParams
from tests import oracles

RETRIEVAL = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=512)
WIDE = [SchemeParams(p=2, e=1, s=4, v=2, n=n, k=n // 2, m=16, L=64) for n in (64, 128)]
# F_4 blow-ups of one retrieval op: the basis row that spans V (the mask
# product), the basis, the selector's delta x delta W-coordinate matrix and
# the query that respond multiplies
BLOW_UP_SHAPES = [(1, 3), (3, 3), (6, 6), (60, 18)]
PRODUCT_SEED = 300
QUERY_SEED = 301
DATABASE_SEED = 302

GENERATE_STREAMS = 4

# the replaced paths of tests/oracles.py: those the lookups replaced, and all of them
LOOKUPS = {"Fq.blow_up": lambda fq, b: oracles.product_blow_up(b, fq), "Fq._encode": oracles.product_encode,
           "Fq.vadd": oracles.digit_vadd, "Fq.vsub": oracles.digit_vsub,
           "_pack_rows": oracles.bytes_pack_rows, "_coordinates": oracles.division_coordinates}
replaced_lookups = functools.partial(benchkit.patched, **LOOKUPS)
replaced_paths = functools.partial(benchkit.patched, residue_matmul=oracles.float64_residue_matmul, **LOOKUPS,
                                   **{"FieldTower.blow_up": lambda tower, data: oracles.two_step_blow_up(data, tower)})
replaced_respond = functools.partial(benchkit.patched, respond=oracles.concatenated_respond)
replaced_decode = functools.partial(benchkit.patched, decode=oracles.unit_row_decode)


def products(calls: int):
    """(name, call, calls per timing) of every product row, on seeded operands.

    A call looks its method up when it runs, so a method patched in for
    the before side is the one it calls.
    """
    rng = np.random.default_rng(PRODUCT_SEED)
    f64 = fields.build_tower(2, 2, 3)
    f4 = f64.fq
    tight = fields.build_tower(2, 1, 2)
    f2 = tight.fq
    rows = [
        ("respond F_4 512x60 @ 60x18", f4, "matmul", (f4.rand(rng, (512, 60)), f4.rand(rng, (60, 18))), calls),
        ("decode F_4 512x18 @ 18x6", f4, "matmul", (f4.rand(rng, (512, 18)), f4.rand(rng, (18, 6))), calls),
        ("codeword F_(4^3) 30x3 @ 3x6", f64, "matmul", (f64.rand(rng, (30, 3)), f64.rand(rng, (3, 6))), 4 * calls),
        ("tight codeword F_(2^2) 64 x (12x2 @ 2x4)", tight, "matmul", (tight.rand(rng, (64, 12, 2)), tight.rand(rng, (64, 2, 4))), 4 * calls),
        ("tight blow-up F_(2^2) 64 x (2x4)", tight, "blow_up", (tight.rand(rng, (64, 2, 4)),), 4 * calls),
        ("tight one-stream blow-up F_(2^2) 2x2", tight, "blow_up", (tight.rand(rng, (2, 2)),), 40 * calls),
        ("tight chain F_2 128 x (2x8 @ 8x8)", f2, "matmul", (f2.rand(rng, (128, 2, 8)), f2.rand(rng, (128, 8, 8))), 4 * calls),
        ("tight back-substitution F_2 128 x (8x2 @ 2x8)", f2, "matmul", (f2.rand(rng, (128, 8, 2)), f2.rand(rng, (128, 2, 8))), 4 * calls),
        ("tight merge F_2 230 x (4x8 @ 8x8)", f2, "matmul", (f2.rand(rng, (230, 4, 8)), f2.rand(rng, (230, 8, 8))), 4 * calls),
        *[(f"retrieval blow-up F_4 {t}x{c}", f4, "blow_up", (f4.rand(rng, (t, c)),), 4 * calls) for t, c in BLOW_UP_SHAPES],
    ]
    return [(name, lambda owner=owner, method=method, args=args: getattr(owner, method)(*args), n)
            for name, owner, method, args, n in rows]


def decode_stage(p: SchemeParams, queries: int):
    """A call that decodes ``queries`` fixed-seed responses at ``p``; only their secrets and responses are kept."""
    tower = fields.build_tower(p.p, p.e, p.s)
    db = scheme.Database.random(p, np.random.default_rng(DATABASE_SEED))
    seeds = np.random.default_rng(QUERY_SEED).integers(0, 2**63, size=queries)
    answered = []
    for i, seed in enumerate(seeds):
        query, secrets = scheme.generate_query(p, tower, 1 + i % p.m, np.random.default_rng(int(seed)))
        answered.append((scheme.respond(db, query, p, tower), secrets))
    return lambda: [scheme.decode(answer, secrets, p, tower) for answer, secrets in answered]


def stages(queries: int):
    """(name, call, calls per timing, items per call, before context) of the stage rows, and the query count.

    The respond row's before side is the replaced respond alone, so the
    row shows what answering from a preprocessed database saves per
    query, and likewise the replaced decode alone on the decode rows.
    The preprocessing row builds that database's F_p digits once per
    call; it has no replaced counterpart, so both of its sides time the
    same call and show the cost moved out of every respond.
    """
    p = RETRIEVAL
    tower = fields.build_tower(p.p, p.e, p.s)
    db = scheme.Database.random(p, np.random.default_rng(DATABASE_SEED))
    seeds = np.random.default_rng(QUERY_SEED).integers(0, 2**63, size=queries)
    jobs = [(1 + i % p.m, int(seed)) for i, seed in enumerate(seeds)]
    made = [scheme.generate_query(p, tower, target, np.random.default_rng(seed)) for target, seed in jobs]

    def generate():
        return [scheme.generate_query(p, tower, target, np.random.default_rng(seed))[0].matrix.data for target, seed in jobs]

    def respond():
        return [scheme.respond(db, query, p, tower).matrix.data for query, _ in made]

    def preprocess():
        return scheme.Database(db.files).digits(tower.fq)

    files = {"query": [], "response": []}
    for query, _ in made:
        for kind, save, matrix in [("query", serialization.save_query, query),
                                   ("response", serialization.save_response, scheme.respond(db, query, p, tower))]:
            buf = io.BytesIO()
            save(buf, matrix, p)
            files[kind].append(buf.getvalue())

    def load(kind, loader):
        return lambda: [loader(io.BytesIO(raw), p, tower).matrix.data for raw in files[kind]]

    def generate_round(w: SchemeParams):
        wide_tower = fields.build_tower(w.p, w.e, w.s)
        targets = [1 + i % w.m for i in range(GENERATE_STREAMS)]
        return lambda: scheme.generate_queries(
            w, wide_tower, targets, [np.random.default_rng([QUERY_SEED, i]) for i in range(GENERATE_STREAMS)]).data

    wide = max(1, queries // 4)
    return [
        ("retrieval generate_query (one query)", generate, 1, queries, replaced_paths),
        ("retrieval respond (one query)", respond, 1, queries, replaced_respond),
        ("retrieval decode (one query)", decode_stage(p, queries), 1, queries, replaced_decode),
        ("retrieval database preprocessing (one database)", preprocess, queries, 1, replaced_respond),
        ("retrieval load_query (one query)", load("query", serialization.load_query), 1, queries, replaced_lookups),
        ("retrieval load_response (one response)", load("response", serialization.load_response), 1, queries, replaced_lookups),
        *[(f"q=2 s=4 n={w.n} k={w.k} m={w.m} generate_queries (one query, rounds of {GENERATE_STREAMS})",
           generate_round(w), 1, GENERATE_STREAMS, replaced_lookups) for w in WIDE],
        *[(f"q=2 s=4 n={w.n} k={w.k} m={w.m} L={w.L} decode (one query)", decode_stage(w, wide), 1, wide, replaced_decode)
          for w in WIDE],
    ], queries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=50, help="calls per timing of a retrieval product (4x for tight stacks)")
    parser.add_argument("--queries", type=int, default=20, help="fixed-seed queries per timing of a retrieval stage")
    parser.add_argument("--repeats", type=int, default=11, help="timings per side and row")
    parser.add_argument("--out", default=str(benchkit.ROOT / "BENCH_products.json"))
    args = parser.parse_args(argv)

    doc = {
        "topic": "F_q and F_(q^s) products and the retrieval stages, microseconds of wall time per call",
        "before": "tests/oracles.py patched in: float64_residue_matmul (every product float64), "
                  "two_step_blow_up (power table, F_q then F_p blow-up) and the paths the lookups replaced "
                  "(product_blow_up, product_encode, digit_vadd/digit_vsub, bytes_pack_rows, division_coordinates); "
                  "on the load and generate_queries rows only those lookups' paths; on the respond row only "
                  "concatenated_respond (files concatenated and expanded to F_p digits per query), on the decode rows "
                  "only unit_row_decode (the decoding map built over F_q from the images of the unit rows)",
        "after": "fields.residue_matmul (one float32 product where exact, else chunked float64), "
                 "FieldTower.blow_up (one product with the F_p structure tensor), Fq.blow_up (a lookup in the table "
                 "of all q regular representations), XOR sums over F_(2^e), an F_p encoding as a cast, short rows "
                 "packed by one uint64 product, matrix-file coordinates from digit tables, respond as one product "
                 "with the database's F_p digits, built once per database, and decode as one F_p map of the "
                 "response's digits, composed from three eliminations over F_p and encoded once",
        "command": f"python3 scripts/bench_products.py --calls {args.calls} --queries {args.queries} --repeats {args.repeats}",
        "machine": benchkit.machine(),
        "seeds": {"products": PRODUCT_SEED, "queries": QUERY_SEED, "database": DATABASE_SEED},
        "retrieval_params": RETRIEVAL.to_dict(),
        "rows": [],
    }
    stage_rows, queries = stages(args.queries)
    rows = [(name, call, n, 1, replaced_paths) for name, call, n in products(args.calls)] + stage_rows
    for name, call, calls, per, before in rows:
        row = benchkit.bench_row(name, call, before, calls, args.repeats, per)
        doc["rows"].append(row)
        print(f"{name:48s} before {row['before']['us_median']:9.1f} us (IQR {row['before']['us_iqr']:.1f})  "
              f"after {row['after']['us_median']:9.1f} us (IQR {row['after']['us_iqr']:.1f})  "
              f"x{row['speedup_median']}  identical={row['identical']}")
    return benchkit.write(doc, args.out, all(row["identical"] for row in doc["rows"]))


if __name__ == "__main__":
    sys.exit(main())
