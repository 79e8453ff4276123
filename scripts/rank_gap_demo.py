#!/usr/bin/env python3
"""Show the rank gap one query at a time.

Generates a single query, deletes each row block in turn, and prints the
subfield rank of what remains: every non-target deletion leaves full rank,
the target's deletion falls to the threshold k0.  The query is then
re-expressed in a freshly sampled basis of the extension field and the
scan is repeated, demonstrating that the gap does not depend on knowing
the basis the query was built in.

    python3 scripts/rank_gap_demo.py
    python3 scripts/rank_gap_demo.py --preset tight --target 3 --seed 7
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from hhw_pir.attack import rank_profile, recover_index
from hhw_pir.fields import build_tower, sample_basis_split
from hhw_pir.linalg import change_basis
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams
from hhw_pir.scheme import generate_query

PRESETS = {
    "default": DEFAULT_PARAMS,
    "tight": SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=1),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--target", type=int, default=None, help="1-based file index (default: random)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    params = PRESETS[args.preset]
    rng = np.random.default_rng(args.seed)
    target = args.target if args.target is not None else int(rng.integers(1, params.m + 1))
    if not 1 <= target <= params.m:
        parser.error(f"target must be in [1, {params.m}]")

    tower = build_tower(params.p, params.e, params.s)
    print(f"preset {args.preset}: q={params.q} s={params.s} v={params.v} n={params.n} "
          f"k={params.k} m={params.m}")
    print(f"delta={params.delta}  threshold k0={params.rank_threshold}  full rank would be "
          f"min((m-1)*delta, n*s) = {min((params.m - 1) * params.delta, params.n * params.s)}")
    print()

    query, _ = generate_query(params, tower, target, rng)
    profile = rank_profile(query.matrix.data, params, tower)
    print(f"rank of the query with block j deleted (true target: {target}):")
    for j, r in enumerate(profile, start=1):
        marks = []
        if r <= params.rank_threshold:
            marks.append("<= k0")
        if j == target:
            marks.append("target")
        print(f"  block {j:>2}: rank {r:>3}  {'  '.join(marks)}")

    report = recover_index(query, params, tower)
    print(f"\nscan verdict: recovered index {report.recovered_index} "
          f"in {report.elapsed * 1000.0:.1f} ms")

    # same scan after hiding the basis the query was written in
    disguised = change_basis(query.matrix.data, tower, sample_basis_split(tower, rng))
    same = rank_profile(disguised, params, tower) == profile
    print(f"profile after re-expressing the query in a random basis: "
          f"{'identical' if same else 'DIFFERENT'}")
    return 0 if report.recovered_index == target and same else 1


if __name__ == "__main__":
    sys.exit(main())
