import numpy as np
import pytest

from hhw_pir import fields, linalg
from hhw_pir.errors import DecodeFailure, DimensionMismatch, IndexOutOfRange
from hhw_pir.fields import build_tower, fq_inv_matrix, fq_rank
from hhw_pir.linalg import ExtMatrix, ext_rank, is_information_set
from hhw_pir.params import SchemeParams
from hhw_pir.scheme import Database, Response, decode, generate_queries, generate_query, respond, sample_code

from .oracles import ext_inv, ext_mul, ext_zero, micro_decode, scalar_respond


# -- database ---------------------------------------------------------------------


def test_database_shape_check():
    with pytest.raises(DimensionMismatch):
        Database([np.zeros((2, 3)), np.zeros((2, 4))])


def test_database_stacking(rng, tight_params):
    db = Database.random(tight_params, rng)
    stacked = db.stacked()
    assert stacked.shape == (tight_params.L, tight_params.m * tight_params.delta)
    d = tight_params.delta
    for i, f in enumerate(db.files):
        assert np.array_equal(stacked[:, i * d : (i + 1) * d], f)
    assert db == Database([f.copy() for f in db.files])
    assert db != Database.random(tight_params, rng)


# -- code sampling -----------------------------------------------------------------


def test_sample_code_valid(tight_params, tight_tower, rng):
    for _ in range(25):
        gen, info = sample_code(tight_params, tight_tower, rng)
        assert gen.shape == (tight_params.k, tight_params.n, tight_tower.s)
        assert ext_rank(gen, tight_tower) == tight_params.k
        assert is_information_set(gen, info, tight_tower)
        assert len(info) == tight_params.k
        assert np.all(np.diff(info) > 0) and 0 <= info[0] and info[-1] < tight_params.n


def test_sample_code_uniform_over_lines(rng):
    """k=1, n=2 over F_4: five projective lines, drawn ~uniformly."""
    params = SchemeParams(p=2, e=1, s=2, v=1, n=2, k=1, m=1, L=1)
    tower = build_tower(2, 1, 2)
    counts: dict[tuple, int] = {}
    trials = 5000
    for _ in range(trials):
        gen, _ = sample_code(params, tower, rng)
        a, b = tuple(gen[0, 0]), tuple(gen[0, 1])
        # normalise the generator to a canonical projective representative
        if a != ext_zero(tower):
            key = (tower.one, ext_mul(tower, ext_inv(tower, a), b))
        else:
            key = (ext_zero(tower), tower.one)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 5
    expected = trials / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 4 degrees of freedom: P[chi2 > 18.5] ~ 0.001
    assert chi2 < 18.5, counts


# -- query layer invariants ----------------------------------------------------------


def _layers(params, tower, target, rng):
    query, secrets = generate_query(params, tower, target, rng)
    return query, secrets


def test_query_layers_satisfy_construction(tight_params, tight_tower, rng):
    params, tower = tight_params, tight_tower
    fq = tower.fq
    delta, n, v = params.delta, params.n, params.v
    for target in [1, 3, params.m]:
        query, secrets = _layers(params, tower, target, rng)
        D, E, Z = secrets.codeword_part, secrets.mask_part, secrets.selector_part
        assert np.array_equal(query.matrix.data, fq.vadd(fq.vadd(D, E), Z))
        assert query.matrix.shape == (params.m * delta, n)

        # codeword layer: adding its rows to the generator must not grow the rank
        assert ext_rank(np.concatenate([secrets.generator, D]), tower) == params.k

        assert not np.any(E[:, secrets.info_set])
        assert not np.any(Z[:, secrets.info_set])

        # in split-basis coordinates mask entries are pure V parts, selector entries pure W
        split_inv = fq_inv_matrix(secrets.split.basis, fq)
        assert not np.any(fq.matmul(E, split_inv)[..., v:])
        lo = (target - 1) * delta
        assert not np.any(Z[:lo]) and not np.any(Z[lo + delta :])
        block = Z[lo : lo + delta]
        assert np.array_equal(block, secrets.selector_block)
        assert not np.any(fq.matmul(block, split_inv)[..., :v])
        assert fq_rank(block.reshape(delta, n * tower.s), fq) == delta


def test_generate_query_validates(tight_params, tight_tower, rng):
    with pytest.raises(IndexOutOfRange):
        generate_query(tight_params, tight_tower, 0, rng)
    with pytest.raises(IndexOutOfRange):
        generate_query(tight_params, tight_tower, tight_params.m + 1, rng)
    other_tower = build_tower(3, 1, 2)
    with pytest.raises(DimensionMismatch):
        generate_query(tight_params, other_tower, 1, rng)


def test_generate_queries_needs_one_target_per_stream(tight_params, tight_tower):
    rngs = [np.random.default_rng(b) for b in range(3)]
    for targets in ([2], [1, 2], [1, 2, 3, 4]):
        with pytest.raises(DimensionMismatch, match="targets"):
            generate_queries(tight_params, tight_tower, targets, rngs)


# -- responding -------------------------------------------------------------------


def test_respond_matches_scalar_oracle(micro_params, micro_tower, rng):
    db = Database.random(micro_params, rng)
    query, _ = generate_query(micro_params, micro_tower, 1, rng)
    got = respond(db, query, micro_params, micro_tower)
    want = scalar_respond(db.files, query.matrix.data, micro_tower)
    assert np.array_equal(got.matrix.data, np.array(want))


def test_respond_matches_scalar_oracle_ternary(ternary_params, ternary_tower, rng):
    db = Database.random(ternary_params, rng)
    query, _ = generate_query(ternary_params, ternary_tower, 2, rng)
    got = respond(db, query, ternary_params, ternary_tower)
    want = scalar_respond(db.files, query.matrix.data, ternary_tower)
    assert np.array_equal(got.matrix.data, np.array(want))


def test_respond_validates(tight_params, tight_tower, rng):
    db = Database.random(tight_params, rng)
    query, _ = generate_query(tight_params, tight_tower, 1, rng)
    wrong_m = SchemeParams(**{**tight_params.to_dict(), "m": tight_params.m - 1})
    with pytest.raises(DimensionMismatch):
        respond(Database.random(wrong_m, rng), query, tight_params, tight_tower)
    bad = Database.random(tight_params, rng)
    bad.files[0][0, 0] = tight_params.q
    with pytest.raises(ValueError):
        respond(bad, query, tight_params, tight_tower)


# -- end to end -------------------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=1),
        SchemeParams(p=3, e=1, s=2, v=1, n=3, k=1, m=3, L=2),
        SchemeParams(p=2, e=2, s=2, v=1, n=3, k=1, m=2, L=2),
        SchemeParams(p=2, e=1, s=3, v=2, n=4, k=2, m=2, L=3),
    ],
    ids=lambda p: f"q{p.q}s{p.s}n{p.n}k{p.k}m{p.m}",
)
def test_retrieval_round_trip_all_targets(params, rng):
    tower = build_tower(params.p, params.e, params.s)
    db = Database.random(params, rng)
    for target in range(1, params.m + 1):
        query, secrets = generate_query(params, tower, target, rng)
        response = respond(db, query, params, tower)
        out = decode(response, secrets, params, tower)
        assert np.array_equal(out, db.files[target - 1])


def test_retrieval_round_trip_default(preset_params, preset_tower, rng):
    db = Database.random(preset_params, rng)
    target = 5
    query, secrets = generate_query(preset_params, preset_tower, target, rng)
    response = respond(db, query, preset_params, preset_tower)
    out = decode(response, secrets, preset_params, preset_tower)
    assert np.array_equal(out, db.files[target - 1])


def test_textbook_and_direct_paths_agree(tight_params, tight_tower, rng):
    db = Database.random(tight_params, rng)
    for target in range(1, tight_params.m + 1):
        query, secrets = generate_query(tight_params, tight_tower, target, rng)
        response = respond(db, query, tight_params, tight_tower)
        assert np.array_equal(decode(response, secrets, tight_params, tight_tower), db.files[target - 1])


def test_decode_matches_handwritten_micro_oracle(micro_params, micro_tower, rng):
    for _ in range(20):
        db = Database.random(micro_params, rng)
        query, secrets = generate_query(micro_params, micro_tower, 1, rng)
        response = respond(db, query, micro_params, micro_tower)
        out = decode(response, secrets, micro_params, micro_tower)
        hand = micro_decode(response.matrix.data[0], secrets, micro_tower)
        assert out[0].tolist() == hand
        assert out[0].tolist() == db.files[0][0].tolist()


def test_micro_exhaustive_over_all_databases(micro_params, micro_tower, rng):
    # delta = 2, L = 1, q = 2: only 4 possible files; decode must pick the
    # right one for every database, not merely on random draws
    query, secrets = generate_query(micro_params, micro_tower, 1, rng)
    for bits in range(4):
        db = Database([np.array([[bits & 1, bits >> 1]], dtype=np.int64)])
        response = respond(db, query, micro_params, micro_tower)
        out = decode(response, secrets, micro_params, micro_tower)
        assert np.array_equal(out, db.files[0])


def test_decode_zero_database_is_zero(tight_params, tight_tower, rng):
    zero_db = Database(
        [np.zeros((tight_params.L, tight_params.delta), dtype=np.int64) for _ in range(tight_params.m)]
    )
    query, secrets = generate_query(tight_params, tight_tower, 2, rng)
    response = respond(zero_db, query, tight_params, tight_tower)
    assert not np.any(decode(response, secrets, tight_params, tight_tower))


def test_decode_is_additive_in_the_database(tight_params, tight_tower, rng):
    # responses add over F_q, so decoding a sum of databases gives the sum of files
    params, tower = tight_params, tight_tower
    fq = tower.fq
    a = Database.random(params, rng)
    b = Database.random(params, rng)
    query, secrets = generate_query(params, tower, 3, rng)
    resp_a = respond(a, query, params, tower)
    resp_b = respond(b, query, params, tower)
    summed = Response(ExtMatrix(tower, fq.vadd(resp_a.matrix.data, resp_b.matrix.data)))
    out = decode(summed, secrets, params, tower)
    want = fq.vadd(a.files[2], b.files[2])
    assert np.array_equal(out, want)


def test_decode_rejects_wrong_width(tight_params, tight_tower, rng):
    db = Database.random(tight_params, rng)
    query, secrets = generate_query(tight_params, tight_tower, 1, rng)
    response = respond(db, query, tight_params, tight_tower)
    clipped = Response(ExtMatrix(tight_tower, response.matrix.data[:, :3]))
    with pytest.raises(DimensionMismatch):
        decode(clipped, secrets, tight_params, tight_tower)


def test_decode_singular_selector_raises_typed_error(tight_params, tight_tower, rng):
    # a repeated selector row stays inside W but makes the coordinate matrix singular
    db = Database.random(tight_params, rng)
    query, secrets = generate_query(tight_params, tight_tower, 2, rng)
    response = respond(db, query, tight_params, tight_tower)
    block = secrets.selector_block.copy()
    block[1] = block[0]
    secrets.selector_block = block
    with pytest.raises(DecodeFailure, match="singular"):
        decode(response, secrets, tight_params, tight_tower)


def test_decode_eliminates_each_matrix_once(monkeypatch, rng):
    """One q=4 decode hands fq_echelon every matrix at most once.

    An inversion eliminates [M | I], so that call is keyed on M; a rank
    check of M followed by its inverse counts as eliminating M twice.
    """
    params = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=64)
    tower = build_tower(params.p, params.e, params.s)
    db = Database.random(params, rng)
    query, secrets = generate_query(params, tower, 4, rng)
    response = respond(db, query, params, tower)

    seen = []
    original = fields.fq_echelon

    def counted(arr, fq, reduced=False):
        key = arr = np.asarray(arr)
        n = len(arr)
        if arr.shape[1] == 2 * n and np.array_equal(arr[:, n:], np.eye(n)):
            key = arr[:, :n]
        seen.append((key.shape, key.tobytes()))
        return original(arr, fq, reduced)

    monkeypatch.setattr(fields, "fq_echelon", counted)
    monkeypatch.setattr(linalg, "fq_echelon", counted)
    out = decode(response, secrets, params, tower)
    assert np.array_equal(out, db.files[3])
    assert seen, "decode eliminated nothing"
    assert len(set(seen)) == len(seen), f"{len(seen) - len(set(seen))} matrices eliminated twice"
