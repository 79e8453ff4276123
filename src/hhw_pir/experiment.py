"""Seeded Monte-Carlo harness for the attack's empirical success rate.

Every trial owns an independent RNG stream derived from the master seed by
a counter-based split (splitmix64 of master + golden-ratio increments), so
a trial's result depends only on the master seed and its index.

Trials run in rounds of ROUND_SIZE: a round generates its queries as one
stack (scheme.generate_queries, where each stream still draws in its own
order) and attacks them as one stack (attack.recover_index), so the
Python cost of each kernel call is paid once per round.  A round's
records equal those of rounds of one (run_trial); a round that raises is
re-run as rounds of one, so only the failing trials record the error.

Reports exist in two serializations: the full JSON includes wall-clock
timings, while the canonical form strips them so that two runs of the same
configuration compare byte-for-byte.  The canonical form's SHA-256 digest
is embedded in the full report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .analysis import failure_bound, _log2_or_none
from .attack import recover_index
from .errors import BadArguments
from .fields import FieldTower, as_integer, build_tower
from .params import SchemeParams
from .scheme import DRAW_PHASES, generate_queries

__all__ = [
    "splitmix64",
    "trial_seed",
    "ROUND_SIZE",
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentReport",
    "run_trial",
    "run_experiment",
    "report_to_json",
    "canonical_json",
    "report_to_csv",
    "CSV_FIELDS",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Trials generated and attacked together as one stack of queries.
ROUND_SIZE = 64


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; a bijection on 64-bit words.  A non-integer raises BadArguments."""
    x = as_integer(x, BadArguments, "splitmix64 input") & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def trial_seed(master_seed: int, trial: int) -> int:
    """Independent 64-bit stream seed for one trial index (1-based).  A non-integer raises BadArguments."""
    master_seed = as_integer(master_seed, BadArguments, "master seed")
    trial = as_integer(trial, BadArguments, "trial index")
    return splitmix64((master_seed + trial * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class ExperimentConfig:
    """Seeded attack trials of one scheme instance; a trial succeeds when the threshold rule
    names exactly one block and it is the target.  A bad field raises BadArguments."""

    params: SchemeParams
    trials: int
    master_seed: int = 0
    target_policy: Union[str, int] = "uniform"  # "uniform" or a fixed 1-based index

    def __post_init__(self):
        if not isinstance(self.params, SchemeParams):
            raise BadArguments(f"params must be a SchemeParams, got {type(self.params).__name__}")
        for name in ("trials", "master_seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), BadArguments, name))
        if self.trials < 1:
            raise BadArguments(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.master_seed <= _MASK64:
            raise BadArguments("master seed must fit in 64 unsigned bits")
        if self.target_policy != "uniform":
            policy = as_integer(self.target_policy, BadArguments, "target policy other than 'uniform'")
            if not 1 <= policy <= self.params.m:
                raise BadArguments(f"fixed target {policy} outside [1, {self.params.m}]")
            object.__setattr__(self, "target_policy", policy)

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "target_policy": self.target_policy,
            # the deleted argmin option, kept as a constant so canonical report bytes and digests do not change
            "fallback_argmin": False,
        }


@dataclass
class TrialRecord:
    trial: int
    seed: int
    target: int
    recovered: Optional[int]
    success: bool
    failure_reason: Optional[str]
    rank_profile: list[int]
    elapsed_ms: float  # the trial's share of its round
    # draws per rejection-sampling phase of scheme.DRAW_PHASES (zero after an error)
    draws: dict[str, int] = field(default_factory=dict)
    # the trial's shares of its round's query generation and attack, which make up elapsed_ms
    generate_ms: float = 0.0
    attack_ms: float = 0.0

    def to_dict(self, include_timings: bool = True) -> dict:
        """The record; timings and draw counts only with include_timings."""
        doc = {
            "trial": self.trial,
            "seed": self.seed,
            "target": self.target,
            "recovered": self.recovered,
            "success": self.success,
            "failure_reason": self.failure_reason,
            "rank_profile": self.rank_profile,
        }
        if include_timings:
            doc["elapsed_ms"] = self.elapsed_ms
            doc["draws"] = dict(self.draws)
            doc["generate_ms"] = self.generate_ms
            doc["attack_ms"] = self.attack_ms
        return doc


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list[TrialRecord]
    successes: int
    failures: int
    bound_union: Fraction
    bound_union_conservative: Fraction
    threshold: float
    threshold_conservative: float
    criterion_pass: bool
    criterion_pass_conservative: bool
    elapsed_ms: float = 0.0
    digest: str = field(default="", compare=False)

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def success_rate(self) -> Fraction:
        return Fraction(self.successes, self.trials)

    @property
    def failure_rate(self) -> Fraction:
        return Fraction(self.failures, self.trials)


def _criterion_threshold(bound: Fraction, trials: int) -> float:
    """Union bound plus three binomial standard deviations at that bound."""
    u = float(bound)
    return u + 3.0 * math.sqrt(u * (1.0 - u) / trials)


def run_trial(params: SchemeParams, tower: FieldTower, cfg: ExperimentConfig,
              trial: int) -> TrialRecord:
    """One seeded trial, a round of one; generation or attack errors become failure records."""
    return _run_round(params, tower, cfg, [trial])[0]


def _run_round(params: SchemeParams, tower: FieldTower, cfg: ExperimentConfig,
               trials: list[int]) -> list[TrialRecord]:
    """The records of ``trials``, generated and attacked as one stack."""
    seeds = [trial_seed(cfg.master_seed, t) for t in trials]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if cfg.target_policy == "uniform":
        targets = [int(rng.integers(1, params.m + 1)) for rng in rngs]
    else:
        targets = [cfg.target_policy] * len(trials)
    start = time.perf_counter()
    generated = None
    try:
        batch = generate_queries(params, tower, targets, rngs)
        generated = time.perf_counter()
        outcomes = recover_index(batch.data, params, tower)
        draws = batch.draws.tolist()
    except Exception as exc:  # noqa: BLE001 - a trial must never abort the run
        if len(trials) > 1:
            return [run_trial(params, tower, cfg, t) for t in trials]
        outcomes, draws = [exc], [[0] * len(DRAW_PHASES)]
    end = time.perf_counter()
    if generated is None:  # generation raised
        generated = end
    per_trial_ms = 1000.0 / len(trials)
    records = []
    for trial, seed, target, outcome, counts in zip(trials, seeds, targets, outcomes, draws):
        if isinstance(outcome, Exception):
            recovered, profile = None, []
            reason = f"error:{type(outcome).__name__}: {outcome}"
        else:
            recovered, profile, reason = outcome.recovered_index, list(outcome.rank_profile), outcome.failure_reason
        success = recovered == target
        if success:
            reason = None
        elif reason is None:
            reason = "wrong_index"
        records.append(TrialRecord(
            trial=trial,
            seed=seed,
            target=target,
            recovered=recovered,
            success=success,
            failure_reason=reason,
            rank_profile=profile,
            elapsed_ms=(end - start) * per_trial_ms,
            draws=dict(zip(DRAW_PHASES, counts)),
            generate_ms=(generated - start) * per_trial_ms,
            attack_ms=(end - generated) * per_trial_ms,
        ))
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials and grade the outcome against both failure bounds.

    The graded criterion is: observed failure frequency must not exceed the
    per-block bound times (m-1), plus three binomial standard deviations.
    It is evaluated once with the classical row count and once with the
    conservative one; only the latter is expected to hold in tight regimes
    (see the analysis module docstring).
    """
    params = cfg.params
    tower = build_tower(params.p, params.e, params.s)
    start = time.perf_counter()
    records = []
    for first in range(1, cfg.trials + 1, ROUND_SIZE):
        records += _run_round(params, tower, cfg, list(range(first, min(first + ROUND_SIZE, cfg.trials + 1))))
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    successes = sum(r.success for r in records)
    failures = cfg.trials - successes
    bounds = failure_bound(params, params.m)
    threshold = _criterion_threshold(bounds.union, cfg.trials)
    threshold_cons = _criterion_threshold(bounds.union_conservative, cfg.trials)
    observed = failures / cfg.trials

    report = ExperimentReport(
        config=cfg,
        records=records,
        successes=successes,
        failures=failures,
        bound_union=bounds.union,
        bound_union_conservative=bounds.union_conservative,
        threshold=threshold,
        threshold_conservative=threshold_cons,
        criterion_pass=observed <= threshold,
        criterion_pass_conservative=observed <= threshold_cons,
        elapsed_ms=elapsed_ms,
    )
    report.digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    return report


def _report_dict(report: ExperimentReport, include_timings: bool) -> dict:
    doc = {
        "config": report.config.to_dict(),
        "aggregate": {
            "trials": report.trials,
            "successes": report.successes,
            "failures": report.failures,
            "success_rate": f"{report.successes}/{report.trials}",
            "bound_union": str(report.bound_union),
            "bound_union_conservative": str(report.bound_union_conservative),
            "log2_bound_union": _log2_or_none(report.bound_union),
            "log2_bound_union_conservative": _log2_or_none(report.bound_union_conservative),
            "threshold": report.threshold,
            "threshold_conservative": report.threshold_conservative,
            "criterion_pass": report.criterion_pass,
            "criterion_pass_conservative": report.criterion_pass_conservative,
        },
        "trials": [r.to_dict(include_timings) for r in report.records],
    }
    if include_timings:
        doc["aggregate"]["elapsed_ms"] = report.elapsed_ms
        doc["digest"] = report.digest
    return doc


def canonical_json(report: ExperimentReport) -> str:
    """Deterministic serialization: same config and seed, same bytes."""
    return json.dumps(_report_dict(report, include_timings=False),
                      sort_keys=True, separators=(",", ":"), allow_nan=False)


def report_to_json(report: ExperimentReport, include_timings: bool = True) -> str:
    return json.dumps(_report_dict(report, include_timings), indent=1, allow_nan=False)


CSV_FIELDS = ["trial", "seed", "target", "recovered", "success",
              "failure_reason", "elapsed_ms", "rank_profile"]


def report_to_csv(report: ExperimentReport) -> str:
    """Per-trial records as CSV; rank profiles are pipe-separated."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in report.records:
        writer.writerow({
            "trial": r.trial,
            "seed": r.seed,
            "target": r.target,
            "recovered": "" if r.recovered is None else r.recovered,
            "success": int(r.success),
            "failure_reason": r.failure_reason or "",
            "elapsed_ms": f"{r.elapsed_ms:.3f}",
            "rank_profile": "|".join(map(str, r.rank_profile)),
        })
    return out.getvalue()
