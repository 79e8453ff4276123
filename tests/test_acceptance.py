"""Release acceptance gate: one test per shipped guarantee.

Every check prints a single PASS/FAIL line (visible under ``pytest -s`` and
in the captured output of any failure) and then asserts the same condition,
so the human-readable checklist and the suite verdict cannot drift apart.
Tolerances are part of each statement: exact claims assert equality,
sampled frequencies get an explicit three-sigma binomial allowance, and
runtime budgets are asserted next to the results they time.

Check 4b is expected to fail, and is left failing on purpose.  The
classical failure bound for the rank scan credits (m-1)*delta rows of free
randomness to every wrong-block deletion, but the target block's delta rows
are spanned by the selector structure and contribute none, so only
(m-2)*delta rows are actually free.  At the small regime used here the gap
is visible: the observed failure frequency sits near 0.039, above the
classical allowance of about 0.029, and inside the corrected allowance of
about 0.064 that check 4c verifies.  The exact identity behind this is
tested in test_attack.py::test_deleted_rank_identity_exact, and the README
section "How tight is the failure bound?" walks through the numbers.
"""

from __future__ import annotations

import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hhw_pir.analysis import (
    failure_bound,
    gaussian_binomial,
    log2_fraction,
    measured_rate,
    measured_rate_limit,
    rate_report,
)
from hhw_pir.attack import rank_profile
from hhw_pir.experiment import ExperimentConfig, canonical_json, run_experiment
from hhw_pir.linalg import change_basis, fq_rank
from hhw_pir.params import SchemeParams
from hhw_pir.scheme import Database, decode, generate_query, respond
from hhw_pir.serialization import load_matrix, save_matrix

from .conftest import TIGHT_PARAMS
from .oracles import delete_block, noise_part, per_deletion_rank_profile, subspaces_materialized


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    return ok


# Runtimes of the two halves of check 4, which share one budget.
_CHECK4_ELAPSED_MS: dict[str, float] = {}


def test_01_end_to_end_retrieval(preset_params, preset_tower):
    """100 seeded round trips at the default parameters, exact recovery, < 60 s."""
    rng = np.random.default_rng(0xACCE_0001)
    trials = 100
    start = time.perf_counter()
    good = 0
    for _ in range(trials):
        db = Database.random(preset_params, rng)
        target = int(rng.integers(1, preset_params.m + 1))
        query, secrets = generate_query(preset_params, preset_tower, target, rng)
        response = respond(db, query, preset_params, preset_tower)
        recovered = decode(response, secrets, preset_params, preset_tower)
        good += np.array_equal(recovered, db.files[target - 1])
    elapsed = time.perf_counter() - start
    ok = good == trials and elapsed < 60.0
    assert _verdict(
        "check 1, end-to-end retrieval",
        ok,
        f"{good}/{trials} exact recoveries in {elapsed:.1f}s (budget 60s)",
    )


def test_02_target_deletion_rank_bound(preset_params, preset_tower):
    """Deleting the target block keeps subfield rank at or below k0, 500/500."""
    rng = np.random.default_rng(0xACCE_0002)
    k0 = preset_params.rank_threshold
    trials = 500
    worst = 0
    for _ in range(trials):
        target = int(rng.integers(1, preset_params.m + 1))
        query, _ = generate_query(preset_params, preset_tower, target, rng)
        kept = delete_block(query.matrix.data, target, preset_params.delta)
        worst = max(worst, fq_rank(kept.reshape(len(kept), -1), preset_tower.fq))
    ok = worst <= k0
    assert _verdict(
        "check 2, target-deletion rank bound",
        ok,
        f"max rank over {trials} queries = {worst}, threshold k0 = {k0} (zero tolerance)",
    )


def test_03_deleted_rank_decomposition(preset_params, preset_tower):
    """rank(query minus block j) = rank(noise layers minus block j) + delta.

    The noise layers are the codeword and mask parts; the identity holds for
    every non-target block j.  At the default parameters the coincidence
    that could break it has probability far below 2^-250, so zero mismatches
    are demanded across 200 queries.
    """
    rng = np.random.default_rng(0xACCE_0003)
    delta, fq = preset_params.delta, preset_tower.fq
    queries = 200
    checked = 0
    mismatches = 0
    for _ in range(queries):
        target = int(rng.integers(1, preset_params.m + 1))
        query, secrets = generate_query(preset_params, preset_tower, target, rng)
        noise = noise_part(query.matrix.data, secrets, delta, fq)
        lhs = per_deletion_rank_profile(query.matrix.data, delta, fq)
        rhs = per_deletion_rank_profile(noise, delta, fq)
        for j in range(1, preset_params.m + 1):
            if j == target:
                continue
            checked += 1
            mismatches += lhs[j - 1] != rhs[j - 1] + delta
    ok = mismatches == 0
    assert _verdict(
        "check 3, deleted-rank decomposition",
        ok,
        f"{checked} (query, block) pairs at defaults, {mismatches} mismatches (zero tolerance)",
    )


def test_04a_attack_success_at_defaults(preset_params):
    """200 seeded rank scans at the default parameters recover every target."""
    cfg = ExperimentConfig(params=preset_params, trials=200, master_seed=0xACCE_04A)
    report = run_experiment(cfg)
    _CHECK4_ELAPSED_MS["4a"] = report.elapsed_ms
    bound = failure_bound(preset_params)
    ok = report.successes == cfg.trials
    assert _verdict(
        "check 4a, attack success at defaults",
        ok,
        f"{report.successes}/{cfg.trials} recoveries, predicted failure <= "
        f"2^{log2_fraction(bound.union):.0f}, {report.elapsed_ms / 1000.0:.1f}s",
    )


@pytest.fixture(scope="module")
def tight_report():
    # One shared run for checks 4b and 4c: 2000 trials at the small regime
    # (delta = 2, threshold dimension 6) where failures actually occur.
    cfg = ExperimentConfig(params=TIGHT_PARAMS, trials=2000, master_seed=0xACCE_04B)
    return run_experiment(cfg)


def test_04b_tight_regime_failure_vs_classical_bound(tight_report):
    """EXPECTED RED: observed failures exceed the classical allowance.

    The allowance is the closed-form bound q^(-(m - m0) * delta^2) times
    (m - 1), plus three binomial standard deviations for 2000 trials.  The
    bound's exponent assumes (m-1)*delta free rows per deleted block; only
    (m-2)*delta are actually free, and at this regime the difference is the
    whole game.  The corrected bound is verified by check 4c below.
    """
    _CHECK4_ELAPSED_MS["4b"] = tight_report.elapsed_ms
    params = tight_report.config.params
    trials = tight_report.trials
    bound = failure_bound(params)
    stated = float(bound.simplified) * (params.m - 1)
    allowance = stated + 3.0 * math.sqrt(stated * (1.0 - stated) / trials)
    observed = float(tight_report.failure_rate)
    total_s = (_CHECK4_ELAPSED_MS.get("4a", 0.0) + _CHECK4_ELAPSED_MS["4b"]) / 1000.0
    ok = observed <= allowance and total_s < 300.0
    assert _verdict(
        "check 4b, tight-regime failure vs classical bound",
        ok,
        f"observed {tight_report.failures}/{trials} = {observed:.4f} vs allowance "
        f"{allowance:.4f} (= {params.m - 1} * 2^{log2_fraction(bound.simplified):.0f} "
        f"+ 3 sigma); checks 4a+4b took {total_s:.0f}s (budget 300s)",
    ), (
        "The classical row count overstates the failure exponent; the attainable one is "
        "(m-2)*delta^2 per block.  See test_attack.py::test_deleted_rank_identity_exact "
        "for the exact identity and the README for the corrected bound, which holds "
        "(check 4c).  This red result is intentional and documents the gap."
    )


def test_04c_tight_regime_failure_vs_corrected_bound(tight_report):
    """Supplementary: the (m-2)-row bound does cover the observed failures."""
    observed = float(tight_report.failure_rate)
    allowance = tight_report.threshold_conservative
    ok = observed <= allowance
    assert _verdict(
        "check 4c, tight-regime failure vs corrected bound (supplementary)",
        ok,
        f"observed {observed:.4f} vs corrected allowance {allowance:.4f} "
        f"(union {float(tight_report.bound_union_conservative):.4f} + 3 sigma)",
    )


def test_05_gaussian_binomials_vs_enumeration():
    """Subspace counts match a materialized enumeration; recurrence to b = 12."""
    mismatches = []
    for q in (2, 3):
        for b in range(6):
            counts = subspaces_materialized(b, q)
            for a in range(b + 1):
                if gaussian_binomial(b, a, q) != counts.get(a, 0):
                    mismatches.append((b, a, q))
    recurrence_ok = True
    for q in (2, 3):
        for b in range(1, 13):
            if gaussian_binomial(b, 0, q) != 1 or gaussian_binomial(b, b, q) != 1:
                recurrence_ok = False
            for a in range(1, b):
                lhs = gaussian_binomial(b, a, q)
                rhs = gaussian_binomial(b - 1, a - 1, q) + q**a * gaussian_binomial(b - 1, a, q)
                if lhs != rhs:
                    recurrence_ok = False
    ok = not mismatches and recurrence_ok
    assert _verdict(
        "check 5, gaussian binomials",
        ok,
        f"enumeration b <= 5, q in (2, 3): {'exact' if not mismatches else mismatches}; "
        f"recurrence b <= 12: {'holds' if recurrence_ok else 'violated'}",
    )


def test_06_derived_identities_random_sweep():
    """k0 = k*s + v*(n-k) = s*n - delta and both m0 forms agree, 10^4 tuples."""
    rng = np.random.default_rng(0xACCE_0006)
    tuples = 10_000
    bad = 0
    for _ in range(tuples):
        s = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        params = SchemeParams(
            p=int(rng.choice([2, 3, 5, 7])),
            e=int(rng.integers(1, 3)),
            s=s,
            v=int(rng.integers(1, s)),
            n=n,
            k=int(rng.integers(1, n)),
            m=int(rng.integers(1, 13)),
            L=1,
        )
        delta, k0 = params.delta, params.rank_threshold
        k0_ok = k0 == params.k * s + params.v * (n - params.k) == s * n - delta
        # the two printed forms of m0, recomputed on exact rationals
        first = Fraction((delta + 1) * (k0 - delta), delta * delta)
        second = (1 + Fraction(1, delta)) * (Fraction(s * n, delta) - 2)
        m0_ok = (
            params.m0
            == 1 + math.ceil(first)
            == 1 + math.ceil(second)
        )
        bad += not (k0_ok and m0_ok)
    ok = bad == 0
    assert _verdict(
        "check 6, derived-quantity identities",
        ok,
        f"{tuples} random tuples, {bad} violations (exact)",
    )


def test_07_counting_bound_chain():
    """gaussian_binomial(k0, k0 - delta, q) <= q^((delta+1)(k0-delta)), 100 tuples."""
    rng = np.random.default_rng(0xACCE_0007)
    accepted = 0
    bad = []
    while accepted < 100:
        s = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        params = SchemeParams(
            p=int(rng.choice([2, 3, 5])),
            e=int(rng.integers(1, 3)),
            s=s,
            v=int(rng.integers(1, s)),
            n=n,
            k=int(rng.integers(1, n)),
            m=2,
            L=1,
        )
        delta, k0 = params.delta, params.rank_threshold
        if k0 > 64 or k0 < delta:
            continue
        accepted += 1
        q = params.q
        lhs = gaussian_binomial(k0, k0 - delta, q)
        if lhs > q ** ((delta + 1) * (k0 - delta)):
            bad.append((params.p, params.e, s, params.v, n, params.k))
        if not failure_bound(params).rough_chain_ok:
            bad.append(("rough_chain_ok", params.p, params.e, s, params.v, n, params.k))
    ok = not bad
    assert _verdict(
        "check 7, counting bound chain",
        ok,
        f"100 tuples with k0 <= 64, exact integer comparison; counterexamples: {bad or 'none'}",
    )


def test_08_rate_report(preset_params):
    """Measured rate near its limit; coarse bound dominates below the useful regime."""
    measured = measured_rate(preset_params, L=2**14)
    limit = measured_rate_limit(preset_params)
    within = abs(float(measured) - float(limit)) <= 0.05 * float(limit)
    exact_limit = limit == Fraction(1, 4)

    rng = np.random.default_rng(0xACCE_0008)
    accepted = 0
    counterexamples = []
    while accepted < 100:
        s = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        params = SchemeParams(
            p=int(rng.choice([2, 3, 5, 7])),
            e=int(rng.integers(1, 3)),
            s=s,
            v=int(rng.integers(1, s)),
            n=n,
            k=int(rng.integers(1, n)),
            m=int(rng.integers(1, 13)),
            L=1,
        )
        if params.m >= params.m0:
            continue
        accepted += 1
        rep = rate_report(params)
        if rep.upper_bound > rep.coarse_bound:
            counterexamples.append(params.to_dict())
    ok = within and exact_limit and not counterexamples
    assert _verdict(
        "check 8, rate report",
        ok,
        f"measured rate at L = 2^14 is {measured} ({float(measured):.4f}), limit {limit} "
        f"(within 5%: {within}); 100 below-regime tuples, upper <= coarse counterexamples: "
        f"{counterexamples or 'none'}",
    )


def test_09_basis_blindness(preset_params, preset_tower):
    """Rank profiles are identical after re-expressing the query in a fresh basis."""
    rng = np.random.default_rng(0xACCE_0009)
    fq = preset_tower.fq
    trials = 50
    agree = 0
    for _ in range(trials):
        target = int(rng.integers(1, preset_params.m + 1))
        query, _ = generate_query(preset_params, preset_tower, target, rng)
        while True:
            transform = fq.rand(rng, (preset_tower.s, preset_tower.s))
            if fq_rank(transform, fq) == preset_tower.s:
                break
        disguised = change_basis(query.matrix.data, preset_tower, transform)
        agree += rank_profile(disguised, preset_params, preset_tower) == rank_profile(
            query.matrix.data, preset_params, preset_tower
        )
    ok = agree == trials
    assert _verdict(
        "check 9, basis blindness",
        ok,
        f"{agree}/{trials} queries give identical rank profiles after a random basis change",
    )


def test_10_determinism_and_serialization():
    """Same seed, same report; container round trip on 1000 random matrices."""
    cfg = ExperimentConfig(params=TIGHT_PARAMS, trials=40, master_seed=0xACCE_0010)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    deterministic = canonical_json(first) == canonical_json(second) and first.digest == second.digest

    rng = np.random.default_rng(0xACCE_0010)
    combos = ((2, 1, 2), (2, 2, 3), (3, 1, 2))
    total = 1000
    survived = 0
    for i in range(total):
        p, e, s = combos[i % len(combos)]
        arr = rng.integers(
            0, p**e, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7)), s), dtype=np.int64
        )
        buf = io.BytesIO()
        save_matrix(buf, arr, p, e, s)
        buf.seek(0)
        loaded = load_matrix(buf)
        survived += (loaded.p, loaded.e, loaded.s) == (p, e, s) and np.array_equal(loaded.data, arr)
    ok = deterministic and survived == total
    assert _verdict(
        "check 10, determinism and serialization",
        ok,
        f"repeated seeded run identical: {deterministic}; matrix container round trips: "
        f"{survived}/{total}",
    )
