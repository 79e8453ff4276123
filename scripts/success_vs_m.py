#!/usr/bin/env python3
"""Sweep the file count m and compare observed attack failures to the bounds.

For each m the script runs a seeded batch of index-recovery trials at a
deliberately small parameter set (delta = 2), where failures are frequent
enough to measure, and prints the observed failure frequency next to three
predictions: the classical per-block union bound, the corrected bound that
only credits (m-2)*delta free rows per deleted block, and the closed form
q^(-(m - m0) * delta^2) * (m - 1).  The corrected column is the one the
observations should stay under; the other two visibly undershoot for small
m.  Rows below the useful regime (m < m0) are marked.

    python3 scripts/success_vs_m.py
    python3 scripts/success_vs_m.py --m-max 12 --trials 4000 --json sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys

from hhw_pir.analysis import failure_bound
from hhw_pir.experiment import ExperimentConfig, run_experiment
from hhw_pir.params import SchemeParams

BASE = dict(p=2, e=1, s=2, v=1, n=4, k=2, L=1)


def sweep_row(m: int, trials: int, seed: int) -> dict:
    params = SchemeParams(m=m, **BASE)
    cfg = ExperimentConfig(params=params, trials=trials, master_seed=seed)
    report = run_experiment(cfg)
    bounds = failure_bound(params)
    simplified_total = min(float(bounds.simplified) * (m - 1), 1.0) if m > 1 else 0.0
    return {
        "m": m,
        "trials": trials,
        "failures": report.failures,
        "observed": float(report.failure_rate),
        "classical": float(bounds.union),
        "corrected": float(bounds.union_conservative),
        "closed_form": simplified_total,
        "below_regime": bounds.regime_warning,
        # corrected bound plus three binomial standard deviations, the same
        # allowance the experiment harness grades against
        "corrected_pass": report.criterion_pass_conservative,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m-min", type=int, default=2)
    parser.add_argument("--m-max", type=int, default=10)
    parser.add_argument("--trials", type=int, default=1000, help="trials per value of m")
    parser.add_argument("--seed", type=int, default=20260818)
    parser.add_argument("--json", type=str, default=None, help="also write rows to this file")
    args = parser.parse_args(argv)
    if not 2 <= args.m_min <= args.m_max:
        parser.error("need 2 <= m-min <= m-max")

    base = SchemeParams(m=2, **BASE)
    print(f"parameters: {BASE}  delta={base.delta}  rank threshold k0={base.rank_threshold}  m0={base.m0}")
    print(f"{args.trials} trials per row, master seed {args.seed}")
    print()
    header = f"{'m':>3} {'failures':>10} {'observed':>9} {'classical':>10} {'corrected':>10} {'closed form':>12}"
    print(header)
    print("-" * len(header))

    rows = []
    for m in range(args.m_min, args.m_max + 1):
        row = sweep_row(m, args.trials, args.seed)
        rows.append(row)
        mark = ""
        if row["below_regime"]:
            mark = "  (below useful regime)"
        elif m == base.m0:
            mark = "  <- m0"
        print(
            f"{m:>3} {row['failures']:>6}/{row['trials']:<4}"
            f" {row['observed']:>8.4f} {row['classical']:>10.4f}"
            f" {row['corrected']:>10.4f} {row['closed_form']:>12.4f}{mark}"
        )

    exceeded = [r["m"] for r in rows if not r["corrected_pass"]]
    print()
    if exceeded:
        print(f"observed failures exceeded the corrected bound plus 3 sigma at m = {exceeded}")
    else:
        print("observed failures stayed within 3 sigma of the corrected bound at every m")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"base": BASE, "seed": args.seed, "rows": rows}, fh, indent=2)
        print(f"rows written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
