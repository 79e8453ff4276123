import dataclasses
import json

import numpy as np
import pytest

from hhw_pir.attack import rank_profile, recover_index
from hhw_pir.errors import DimensionMismatch
from hhw_pir.fields import build_tower
from hhw_pir.linalg import change_basis, fq_deletion_ranks, fq_rank
from hhw_pir.params import SchemeParams
from hhw_pir.scheme import generate_queries, generate_query

from .oracles import delete_block, per_deletion_rank_profile, subfield_rank_oracle


def test_rank_profile_matches_naive_oracle(tight_params, tight_tower, rng):
    query, _ = generate_query(tight_params, tight_tower, 4, rng)
    profile = rank_profile(query.matrix.data, tight_params, tight_tower)
    for j in range(1, tight_params.m + 1):
        kept = delete_block(query.matrix.data, j, tight_params.delta)
        assert profile[j - 1] == subfield_rank_oracle(kept, tight_tower.fq)


def _naive_profile(data, delta, fq):
    return [subfield_rank_oracle(delete_block(data, j, delta), fq) for j in range(1, len(data) // delta + 1)]


def _subfield_rank(data, fq):
    """rank over F_q of an (r, n, s) array with its rows flattened."""
    return fq_rank(data.reshape(len(data), -1), fq)


# (fixture, queries checked against naive_rank_fq as well); the 56 x 32
# deletions of the preset and the 54 x 18 ones over F_4 are slow in plain
# Python, so they get the smallest subset
SCAN_FIXTURES = [("preset", 5), ("tight", 100), ("micro", 100), ("ternary", 100), ("q4", 5)]


@pytest.mark.parametrize("name,naive_count", SCAN_FIXTURES)
def test_rank_profile_matches_per_deletion_scan(name, naive_count, request):
    """The prefix/suffix kernel reproduces one elimination per deletion, query by query."""
    params = request.getfixturevalue(f"{name}_params")
    tower = request.getfixturevalue(f"{name}_tower")
    rng = np.random.default_rng(20200401)
    for i in range(1000):
        target = int(rng.integers(1, params.m + 1))
        query, _ = generate_query(params, tower, target, rng)
        data = query.matrix.data
        profile = rank_profile(data, params, tower)
        assert profile == per_deletion_rank_profile(data, params.delta, tower.fq), (name, i)
        if i < naive_count:
            assert profile == _naive_profile(data, params.delta, tower.fq), (name, i)


def _sparse_deficient(rng, fq, m, delta, width):
    """An (m*delta, width) F_q matrix of low rank, sparse, with some all-zero blocks."""
    rows = m * delta
    rank = int(rng.integers(0, min(rows, width) + 1))
    coords = fq.matmul(fq.rand(rng, (rows, rank)), fq.rand(rng, (rank, width)))
    coords[rng.random((rows, width)) < rng.random()] = 0
    coords.reshape(m, delta, width)[rng.random(m) < 0.3] = 0
    return coords


@pytest.mark.parametrize("name", ["preset", "tight", "micro", "ternary", "q4"])
def test_rank_profile_matches_per_deletion_on_degenerate_matrices(name, request):
    """Rank-deficient inputs the scheme never emits: zero blocks, full-rank prefixes, m = 1."""
    base = request.getfixturevalue(f"{name}_params")
    tower = request.getfixturevalue(f"{name}_tower")
    rng = np.random.default_rng(0x5EED)
    d, width = base.delta, base.n * tower.s
    for i in range(200):
        params = dataclasses.replace(base, m=int(rng.integers(1, 9)))
        coords = _sparse_deficient(rng, tower.fq, params.m, d, width)
        if i % 4 == 1:  # the leading rows already span every column they can
            lead = min(width, params.block_rows)
            coords[:lead, :lead] = np.eye(lead, dtype=np.int64)
        elif i % 4 == 2:
            coords[:] = 0
        qm = coords.reshape(params.block_rows, params.n, tower.s)
        profile = rank_profile(qm, params, tower)
        assert profile == per_deletion_rank_profile(qm, d, tower.fq), (name, i)
        if i < 20:
            assert profile == _naive_profile(qm, d, tower.fq), (name, i)
    one = dataclasses.replace(base, m=1)
    assert rank_profile(tower.rand(rng, (d, base.n)), one, tower) == [0]


@pytest.mark.parametrize("name", ["preset", "tight", "micro", "ternary", "q4"])
def test_stacked_scan_matches_per_deletion_scan(name, request):
    """Stacks of queries and of degenerate matrices, scanned at once, against the oracle and the 2-D scan."""
    params = request.getfixturevalue(f"{name}_params")
    tower = request.getfixturevalue(f"{name}_tower")
    rng = np.random.default_rng(0x57AC)
    d, width = params.delta, params.n * tower.s
    for i in range(12):
        count = int(rng.integers(1, 34))
        if i % 3:
            rngs = [np.random.default_rng([i, b]) for b in range(count)]
            targets = [int(r.integers(1, params.m + 1)) for r in rngs]
            stack = generate_queries(params, tower, targets, rngs).data
        else:
            stack = np.stack([_sparse_deficient(rng, tower.fq, params.m, d, width) for _ in range(count)])
            stack = stack.reshape(count, params.block_rows, params.n, tower.s)
        profiles = rank_profile(stack, params, tower)
        assert profiles.shape == (count, params.m)
        for b, data in enumerate(stack):
            assert profiles[b].tolist() == per_deletion_rank_profile(data, d, tower.fq) == rank_profile(data, params, tower), (name, i, b)


def test_recover_index_scans_a_stack(tight_params, tight_tower):
    rngs = [np.random.default_rng([7, b]) for b in range(9)]
    stack = generate_queries(tight_params, tight_tower, [1 + b % tight_params.m for b in range(9)], rngs).data
    for fallback in (False, True):
        reports = recover_index(stack, tight_params, tight_tower, fallback_argmin=fallback)
        singles = [recover_index(q, tight_params, tight_tower, fallback_argmin=fallback) for q in stack]
        strip = lambda r: {k: v for k, v in dataclasses.asdict(r).items() if k != "elapsed"}  # noqa: E731
        assert [strip(r) for r in reports] == [strip(r) for r in singles]
    with pytest.raises(DimensionMismatch):
        rank_profile(stack[:, :-1], tight_params, tight_tower)


def test_deletion_ranks_need_whole_blocks(tight_tower):
    with pytest.raises(DimensionMismatch):
        fq_deletion_ranks(np.zeros((5, 4), dtype=np.int64), 2, tight_tower.fq)


def test_rank_profile_validates_shape(tight_params, tight_tower, rng):
    rows, n = tight_params.block_rows, tight_params.n
    for shape in [(rows - 1, n), (rows, n + 1), (1, rows, n + 1), (rows * n,)]:
        with pytest.raises(DimensionMismatch):
            rank_profile(tight_tower.rand(rng, shape), tight_params, tight_tower)
    foreign = build_tower(2, 1, 3)  # coordinates of another degree s
    with pytest.raises(DimensionMismatch):
        rank_profile(foreign.rand(rng, (rows, n)), tight_params, tight_tower)


def test_recovery_at_default_params(preset_params, preset_tower, rng):
    """The scan names the planted index for every target position."""
    params, tower = preset_params, preset_tower
    for target in range(1, params.m + 1):
        query, _ = generate_query(params, tower, target, rng)
        report = recover_index(query, params, tower)
        assert report.recovered_index == target
        assert report.failure_reason is None
        assert report.below_threshold == [target]
        assert report.fallback_used is False
        # deleting the target block hides the full selector rank
        assert report.rank_profile[target - 1] <= params.rank_threshold
        others = [r for j, r in enumerate(report.rank_profile) if j != target - 1]
        assert all(r > params.rank_threshold for r in others)


def test_default_params_profile_shape(preset_params, preset_tower, rng):
    # at the default point every non-target deletion keeps full subfield rank
    params, tower = preset_params, preset_tower
    query, _ = generate_query(params, tower, 3, rng)
    profile = rank_profile(query.matrix.data, params, tower)
    assert profile[2] == params.rank_threshold
    full = min((params.m - 1) * params.delta, params.n * params.s)
    assert all(r == full for j, r in enumerate(profile) if j != 2)


def test_attack_needs_no_basis_knowledge(preset_params, preset_tower, rng):
    """Re-expressing every entry in a random basis leaves the scan unchanged."""
    params, tower = preset_params, preset_tower
    fq = tower.fq
    query, _ = generate_query(params, tower, 6, rng)
    while True:
        transform = fq.rand(rng, (tower.s, tower.s))
        if fq_rank(transform, fq) == tower.s:
            break
    disguised = change_basis(query.matrix.data, tower, transform)
    assert rank_profile(disguised, params, tower) == rank_profile(query.matrix.data, params, tower)
    assert recover_index(disguised, params, tower).recovered_index == 6


# -- the rank identities behind the threshold ------------------------------------------


def test_deleted_rank_identity_exact(tight_params, tight_tower, rng):
    """rank(Q minus block j) = delta + rank(D+E minus blocks i and j), always.

    The selector block contributes exactly delta independent dimensions on
    top of the codeword-plus-mask rows outside BOTH block i (whose D+E
    rows ride along with the selector) and block j.  This version of the
    identity has no failure probability; the commonly quoted form keeps
    block i's D+E rows on the right-hand side and holds only generically.
    """
    params, tower = tight_params, tight_tower
    d = params.delta
    for trial in range(40):
        target = int(rng.integers(1, params.m + 1))
        query, secrets = generate_query(params, tower, target, rng)
        layers = tower.fq.vadd(secrets.codeword_part, secrets.mask_part)
        for j in range(1, params.m + 1):
            if j == target:
                continue
            lhs = _subfield_rank(delete_block(query.matrix.data, j, d), tower.fq)
            both_dropped = delete_block(delete_block(layers, max(j, target), d), min(j, target), d)
            assert lhs == d + _subfield_rank(both_dropped, tower.fq)


def test_deleted_rank_generic_form_at_default(preset_params, preset_tower, rng):
    # away from tiny parameters the single-deletion form agrees with the scan
    params, tower = preset_params, preset_tower
    d = params.delta
    for trial in range(5):
        target = int(rng.integers(1, params.m + 1))
        query, secrets = generate_query(params, tower, target, rng)
        layers = tower.fq.vadd(secrets.codeword_part, secrets.mask_part)
        for j in range(1, params.m + 1):
            if j == target:
                continue
            lhs = _subfield_rank(delete_block(query.matrix.data, j, d), tower.fq)
            assert lhs == d + _subfield_rank(delete_block(layers, j, d), tower.fq)


def test_target_deletion_rank_never_exceeds_threshold(tight_params, tight_tower, rng):
    # the inequality direction that never fails: deleting the true target
    # always lands at or below the threshold
    params, tower = tight_params, tight_tower
    for _ in range(50):
        target = int(rng.integers(1, params.m + 1))
        query, _ = generate_query(params, tower, target, rng)
        deleted = delete_block(query.matrix.data, target, params.delta)
        assert _subfield_rank(deleted, tower.fq) <= params.rank_threshold


# -- degenerate scans --------------------------------------------------------------


def test_single_file_scan_is_trivial(micro_params, micro_tower, rng):
    query, _ = generate_query(micro_params, micro_tower, 1, rng)
    report = recover_index(query, micro_params, micro_tower)
    # deleting the only block leaves an empty matrix of rank 0
    assert report.rank_profile == [0]
    assert report.recovered_index == 1


def test_all_zero_query_is_ambiguous(tight_params, tight_tower):
    params = tight_params
    zero = np.zeros((params.block_rows, params.n, tight_tower.s), dtype=np.int64)
    report = recover_index(zero, params, tight_tower)
    assert report.recovered_index is None
    assert report.failure_reason == "ambiguous"
    assert report.below_threshold == list(range(1, params.m + 1))


def test_fallback_argmin_breaks_ties(tight_params, tight_tower):
    params = tight_params
    zero = np.zeros((params.block_rows, params.n, tight_tower.s), dtype=np.int64)
    report = recover_index(zero, params, tight_tower, fallback_argmin=True)
    assert report.fallback_used is True
    assert report.recovered_index == 1  # lowest index on ties
    assert report.failure_reason is None


def test_no_candidate_scan(rng):
    # a uniform random matrix almost surely keeps every deletion above the
    # threshold, leaving the candidate list empty
    params = SchemeParams(p=2, e=1, s=2, v=1, n=6, k=1, m=4, L=1)
    tower = build_tower(2, 1, 2)
    for _ in range(10):
        noise = tower.rand(rng, (params.block_rows, params.n))
        report = recover_index(noise, params, tower)
        if report.failure_reason == "no_candidate":
            assert report.below_threshold == []
            assert report.recovered_index is None
            break
    else:
        pytest.fail("uniform noise never produced an empty candidate list")


def test_report_serialises(tight_params, tight_tower, rng):
    query, _ = generate_query(tight_params, tight_tower, 5, rng)
    report = recover_index(query, tight_params, tight_tower)
    blob = json.loads(report.to_json())
    assert blob["recovered_index"] == report.recovered_index
    assert blob["rank_profile"] == report.rank_profile
    assert blob["threshold"] == tight_params.rank_threshold
    assert blob["candidates"] == report.below_threshold
    assert blob["elapsed_ms"] >= 0
