import csv
import dataclasses
import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from hhw_pir import experiment
from hhw_pir.errors import BadArguments
from hhw_pir.experiment import (
    CSV_FIELDS,
    ROUND_SIZE,
    ExperimentConfig,
    canonical_json,
    report_to_csv,
    report_to_json,
    run_experiment,
    splitmix64,
    trial_seed,
)
from hhw_pir.fields import build_tower
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams
from hhw_pir.scheme import DRAW_PHASES, generate_query

from .conftest import Q4_PARAMS, TERNARY_PARAMS


FAST_PARAMS = SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=4, L=1)


# -- seed derivation -----------------------------------------------------------------


def test_splitmix64_reference_values():
    # published test vector: seed 1234567 advanced three times
    state = 1234567
    outputs = []
    for _ in range(3):
        state = (state + 0x9E3779B97F4A7C15) & (1 << 64) - 1
        outputs.append(splitmix64(state))
    assert outputs == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_trial_seeds_distinct_and_stable():
    seeds = [trial_seed(42, t) for t in range(1, 4001)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 1 << 64 for s in seeds)
    assert trial_seed(42, 1) == seeds[0]  # pure function of (master, trial)
    assert trial_seed(43, 1) != seeds[0]


def test_seed_derivation_refuses_non_integers():
    """A bool seeded like 1 and a float raised a bare TypeError; numpy integers are integers."""
    for args in [(True, 1), (1, False), (1.5, 1), (1, 2.0), ("7", 1), (np.bool_(True), 1)]:
        with pytest.raises(BadArguments, match="must be an integer"):
            trial_seed(*args)
    for x in [2.5, True, "3", None]:
        with pytest.raises(BadArguments, match="must be an integer"):
            splitmix64(x)
    assert trial_seed(np.uint64(42), np.int64(1)) == trial_seed(42, 1)
    assert splitmix64(np.int64(5)) == splitmix64(5)


# -- config validation ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(BadArguments):
        ExperimentConfig(params=FAST_PARAMS, trials=0)
    with pytest.raises(BadArguments):
        ExperimentConfig(params=FAST_PARAMS, trials=1, master_seed=-1)
    with pytest.raises(BadArguments):
        ExperimentConfig(params=FAST_PARAMS, trials=1, master_seed=1 << 64)
    with pytest.raises(BadArguments):
        ExperimentConfig(params=FAST_PARAMS, trials=1, target_policy="argmax")
    with pytest.raises(BadArguments):
        ExperimentConfig(params=FAST_PARAMS, trials=1, target_policy=0)
    with pytest.raises(BadArguments):
        ExperimentConfig(params=FAST_PARAMS, trials=1, target_policy=5)
    with pytest.raises(BadArguments):
        ExperimentConfig(params=FAST_PARAMS, trials=1, target_policy=True)
    # booleans, floats and strings are no integers, as in SchemeParams.from_dict
    for fields in [
        {"trials": True},
        {"trials": 2.5},
        {"trials": "3"},
        {"trials": 1, "master_seed": True},
        {"trials": 1, "master_seed": 1.5},
        {"trials": 1, "master_seed": "7"},
        {"trials": 1, "target_policy": 2.0},
        {"trials": 1, "target_policy": np.bool_(True)},
    ]:
        with pytest.raises(BadArguments, match="must be an integer"):
            ExperimentConfig(params=FAST_PARAMS, **fields)
    # params is a SchemeParams: a dict or None failed later with a bare AttributeError
    for params in [{"p": 2}, None, FAST_PARAMS.to_dict()]:
        for policy in ("uniform", 1):
            with pytest.raises(BadArguments, match="params must be a SchemeParams"):
                ExperimentConfig(params=params, trials=1, target_policy=policy)


def test_config_takes_integer_likes_as_int():
    cfg = ExperimentConfig(params=FAST_PARAMS, trials=np.int64(3), master_seed=np.uint64(5), target_policy=np.int64(2))
    assert (type(cfg.trials), type(cfg.master_seed), type(cfg.target_policy)) == (int, int, int)
    assert json.loads(json.dumps(cfg.to_dict()))["trials"] == 3
    assert cfg.to_dict() == ExperimentConfig(params=FAST_PARAMS, trials=3, master_seed=5, target_policy=2).to_dict()


# -- determinism -----------------------------------------------------------------------


def test_same_config_same_canonical_output():
    cfg = ExperimentConfig(params=FAST_PARAMS, trials=12, master_seed=7)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert canonical_json(a) == canonical_json(b)
    assert a.digest == b.digest
    # timing fields differ between runs but never reach the canonical form
    assert "elapsed" not in canonical_json(a)


PINNED_CONFIG = ExperimentConfig(
    params=SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=1), trials=400, master_seed=20200401
)
PINNED_DIGEST = "f311594e64f014d513fd35223a83d1920443b9d97e68d193fdb1b1f5cff3c369"


def test_tight_regime_digest_is_pinned():
    """The canonical report of a fixed tight run is the same across commits.

    The digest was taken before the attack's rank profile moved to the
    incremental kernel.  Any change to query sampling, the rank profile,
    the grading or the canonical serialization shows up here; a change
    that alters outputs on purpose must update the value and say why.
    """
    report = run_experiment(PINNED_CONFIG)
    assert (report.successes, report.failures) == (380, 20)
    assert report.digest == PINNED_DIGEST
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == report.digest


def test_digest_does_not_depend_on_the_tower_cache():
    """run_experiment builds its tower through build_tower's cache; a cold cache and a warm one agree."""
    build_tower.cache_clear()
    cold = run_experiment(PINNED_CONFIG).digest
    warm = run_experiment(PINNED_CONFIG).digest
    assert cold == warm == PINNED_DIGEST


def test_stage_shares_are_reported_and_stay_out_of_the_digest():
    """Each trial's generate and attack shares reach the JSON report, not the pinned canonical form."""
    report = run_experiment(PINNED_CONFIG)
    assert report.digest == PINNED_DIGEST
    for doc, record in zip(json.loads(report_to_json(report))["trials"], report.records):
        assert (doc["generate_ms"], doc["attack_ms"]) == (record.generate_ms, record.attack_ms)
        assert record.generate_ms > 0 and record.attack_ms > 0
        assert record.generate_ms + record.attack_ms == pytest.approx(record.elapsed_ms)
    lean = json.loads(report_to_json(report, include_timings=False))
    assert all("generate_ms" not in t and "attack_ms" not in t for t in lean["trials"])
    assert "generate_ms" not in canonical_json(report) and "attack_ms" not in canonical_json(report)


def test_different_seeds_differ():
    a = run_experiment(ExperimentConfig(params=FAST_PARAMS, trials=8, master_seed=1))
    b = run_experiment(ExperimentConfig(params=FAST_PARAMS, trials=8, master_seed=2))
    assert canonical_json(a) != canonical_json(b)


# -- outcomes --------------------------------------------------------------------------


def test_uniform_policy_covers_targets():
    report = run_experiment(ExperimentConfig(params=FAST_PARAMS, trials=60, master_seed=11))
    targets = {r.target for r in report.records}
    assert targets == {1, 2, 3, 4}
    assert report.trials == 60
    assert report.successes + report.failures == 60


def test_fixed_policy_pins_target():
    report = run_experiment(
        ExperimentConfig(params=FAST_PARAMS, trials=15, master_seed=5, target_policy=3)
    )
    assert all(r.target == 3 for r in report.records)


def test_records_are_ordered_and_seeded():
    cfg = ExperimentConfig(params=FAST_PARAMS, trials=9, master_seed=21)
    report = run_experiment(cfg)
    assert [r.trial for r in report.records] == list(range(1, 10))
    for r in report.records:
        assert r.seed == trial_seed(21, r.trial)
        assert r.success == (r.recovered == r.target)
        if r.success:
            assert r.failure_reason is None
        else:
            assert r.failure_reason is not None
        assert len(r.rank_profile) == FAST_PARAMS.m


def test_success_rate_fractions():
    report = run_experiment(ExperimentConfig(params=FAST_PARAMS, trials=10, master_seed=1))
    assert report.success_rate + report.failure_rate == 1
    assert report.success_rate == Fraction(report.successes, 10)


def test_default_point_always_recovers(preset_params):
    # 2^-256 failure bound: any observed failure here means a real bug
    report = run_experiment(ExperimentConfig(params=preset_params, trials=5, master_seed=9))
    assert report.successes == 5
    assert report.criterion_pass
    assert report.criterion_pass_conservative


def test_thresholds_reflect_bounds():
    cfg = ExperimentConfig(params=FAST_PARAMS, trials=50, master_seed=2)
    report = run_experiment(cfg)
    assert report.threshold >= float(report.bound_union)
    assert report.threshold_conservative >= float(report.bound_union_conservative)
    assert report.bound_union <= report.bound_union_conservative


# -- serialization of reports --------------------------------------------------------------


def test_json_report_shape():
    report = run_experiment(ExperimentConfig(params=FAST_PARAMS, trials=6, master_seed=13))
    doc = json.loads(report_to_json(report))
    assert doc["config"]["trials"] == 6
    assert doc["config"]["params"]["n"] == 4
    agg = doc["aggregate"]
    assert agg["successes"] + agg["failures"] == 6
    assert isinstance(agg["criterion_pass"], bool)
    assert "elapsed_ms" in agg
    assert doc["digest"] == report.digest
    assert len(doc["trials"]) == 6

    lean = json.loads(report_to_json(report, include_timings=False))
    assert "digest" not in lean
    assert "elapsed_ms" not in lean["aggregate"]
    assert all("elapsed_ms" not in t for t in lean["trials"])


def test_csv_report_shape():
    report = run_experiment(ExperimentConfig(params=FAST_PARAMS, trials=7, master_seed=17))
    rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
    assert len(rows) == 7
    assert list(rows[0]) == CSV_FIELDS
    for got, rec in zip(rows, report.records):
        assert int(got["trial"]) == rec.trial
        assert int(got["seed"]) == rec.seed
        assert int(got["success"]) == int(rec.success)
        profile = [int(x) for x in got["rank_profile"].split("|")]
        assert profile == rec.rank_profile


def test_error_trials_are_recorded_not_raised():
    from hhw_pir.experiment import run_trial
    from hhw_pir.fields import build_tower

    # a mismatched tower makes query generation raise inside the trial;
    # the record must carry the error, not propagate it
    wrong_tower = build_tower(3, 1, 2)
    cfg = ExperimentConfig(params=FAST_PARAMS, trials=1, master_seed=1)
    record = run_trial(FAST_PARAMS, wrong_tower, cfg, 1)
    assert record.success is False
    assert record.recovered is None
    assert record.failure_reason.startswith("error:DimensionMismatch")
    assert record.rank_profile == []
    assert record.attack_ms == 0 and record.generate_ms == record.elapsed_ms


def test_single_file_run_is_trivially_successful():
    params = SchemeParams(p=2, e=1, s=2, v=1, n=3, k=1, m=1, L=1)
    report = run_experiment(ExperimentConfig(params=params, trials=4, master_seed=1))
    assert report.successes == 4


# -- rounds -----------------------------------------------------------------------------

# every fixture gets 4 x 504 >= 2000 trials: two master seeds per target policy
ROUND_FIXTURES = {f"tight-m{m}": dataclasses.replace(FAST_PARAMS, m=m) for m in range(2, 11)}
ROUND_FIXTURES.update(preset=DEFAULT_PARAMS, q4=Q4_PARAMS, ternary=TERNARY_PARAMS)
ROUND_TRIALS = 504


def _records(report):
    return [r.to_dict(include_timings=False) for r in report.records], [r.draws for r in report.records]


@pytest.mark.parametrize("name", list(ROUND_FIXTURES))
def test_rounds_match_rounds_of_one(name, monkeypatch):
    """Records and draw counts do not depend on how trials are grouped into rounds."""
    params = ROUND_FIXTURES[name]
    assert ROUND_SIZE > 1 and ROUND_TRIALS % ROUND_SIZE  # a partial last round too
    configs = [
        ExperimentConfig(params=params, trials=ROUND_TRIALS, master_seed=1000 + i, target_policy=policy)
        for i, policy in enumerate(["uniform", "uniform", params.m, params.m])
    ]
    batched = [run_experiment(cfg) for cfg in configs]
    monkeypatch.setattr(experiment, "ROUND_SIZE", 1)
    for cfg, report in zip(configs, batched):
        single = run_experiment(cfg)
        assert _records(report) == _records(single)
        assert report.digest == single.digest
    for report in batched:
        for record in report.records:
            assert list(record.draws) == list(DRAW_PHASES) and min(record.draws.values()) >= 1


def test_a_failing_trial_fails_alone(monkeypatch):
    """A round that raises is re-run as rounds of one, so only the bad trial records the error."""
    params = dataclasses.replace(FAST_PARAMS, m=6)
    cfg = ExperimentConfig(params=params, trials=ROUND_SIZE + 10, master_seed=3)
    clean = run_experiment(cfg)
    rng = np.random.default_rng(trial_seed(3, 7))
    target = int(rng.integers(1, params.m + 1))
    bad = generate_query(params, build_tower(2, 1, 2), target, rng)[0].matrix.data
    real = experiment.recover_index

    def poisoned(stack, *args, **kwargs):
        if any(np.array_equal(q, bad) for q in stack):
            raise RuntimeError("injected")
        return real(stack, *args, **kwargs)

    monkeypatch.setattr(experiment, "recover_index", poisoned)
    report = run_experiment(cfg)
    failed = [r for r in report.records if (r.failure_reason or "").startswith("error:")]
    assert [r.trial for r in failed] == [7]
    assert failed[0].failure_reason == "error:RuntimeError: injected"
    assert failed[0].rank_profile == [] and failed[0].draws == dict.fromkeys(DRAW_PHASES, 0)
    got, want = _records(report), _records(clean)
    keep = [i for i in range(cfg.trials) if i != 6]
    assert [(got[0][i], got[1][i]) for i in keep] == [(want[0][i], want[1][i]) for i in keep]


def test_draw_counts_are_reported_beside_timings():
    report = run_experiment(ExperimentConfig(params=FAST_PARAMS, trials=5, master_seed=4))
    full = json.loads(report_to_json(report))
    for doc, record in zip(full["trials"], report.records):
        assert doc["draws"] == record.draws and "elapsed_ms" in doc
    lean = json.loads(report_to_json(report, include_timings=False))
    assert all("draws" not in t for t in lean["trials"])
    assert "draws" not in canonical_json(report)
