import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from hhw_pir import fields
from hhw_pir.attack import recover_index
from hhw_pir.errors import (
    BadArguments,
    CoordinateOutOfRange,
    DecodeFailure,
    DimensionMismatch,
    IndexOutOfRange,
    NotInformationSet,
    SamplingExhausted,
)
from hhw_pir.fields import (
    UniformRun,
    build_tower,
    fq_deletion_ranks,
    fq_inv_matrix,
    fq_rank,
    redraw_rejected,
    sample_split_bases,
)
from hhw_pir.linalg import ExtMatrix, ext_rank, is_information_set, solve_on_columns
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams
from hhw_pir.scheme import (
    DRAW_PHASES,
    Database,
    Query,
    QuerySecrets,
    Response,
    decode,
    generate_queries,
    generate_query,
    respond,
    sample_code,
    sample_codes,
)
from hhw_pir.serialization import load_secrets, save_secrets

from .conftest import MICRO_PARAMS, TERNARY_PARAMS, TIGHT_PARAMS
from .oracles import (
    concatenated_respond,
    ext_inv,
    ext_mul,
    ext_zero,
    micro_decode,
    per_draw_generate_queries,
    scalar_respond,
    unit_row_decode,
)


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


def test_database_storage_is_read_only(tight_params, tight_tower, rng):
    source = [f.copy() for f in Database.random(tight_params, rng).files]
    db = Database(source)
    stacked = db.stacked().copy()
    source[0][0, 0] ^= 1  # construction copied the files
    assert np.array_equal(db.stacked(), stacked)
    for i in range(db.file_count):
        with pytest.raises(ValueError):
            db.files[i][0, 0] ^= 1
    with pytest.raises(ValueError):
        db.stacked()[0, 0] ^= 1
    with pytest.raises(ValueError):
        db.digits(tight_tower.fq)[0, 0] = 1
    assert np.array_equal(db.stacked(), stacked)


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


# -- rejection sampling ----------------------------------------------------------------


class _ZeroRng:
    """An RNG stand-in whose every integer draw is all zeros; it counts its draws."""

    def __init__(self):
        self.draws = 0

    def integers(self, low, high=None, size=None, dtype=np.int64):
        self.draws += 1
        return np.zeros(size, dtype=dtype)


def test_sample_split_bases_gives_up_on_an_rng_of_zeros(monkeypatch, tight_tower):
    monkeypatch.setattr(fields, "MAX_SAMPLING_TRIES", 5)
    rng = _ZeroRng()
    with pytest.raises(SamplingExhausted, match="basis"):
        sample_split_bases(tight_tower, [UniformRun(rng, tight_tower.q)])
    assert rng.draws == 5


def test_sample_codes_gives_up_on_an_rng_of_zeros(monkeypatch, tight_params, tight_tower):
    monkeypatch.setattr(fields, "MAX_SAMPLING_TRIES", 5)
    rng = _ZeroRng()
    with pytest.raises(SamplingExhausted, match="generator"):
        sample_codes(tight_params, tight_tower, [rng])
    assert rng.draws == 5


class _ScriptedRng:
    """An RNG stand-in for one stream of generate_queries that records its draws.

    Its integers calls before its first permutation (the generator phase)
    return ``generator``, every permutation is the identity, and every
    later integers call reads on along ``run``, zeros past its end.
    """

    def __init__(self, generator, run=()):
        self.generator, self.run = generator, np.array(run, dtype=np.int64)
        self.generator_calls, self.permutations, self.run_values = 0, 0, 0

    def integers(self, low, high=None, size=None, dtype=np.int64):
        if not self.permutations:
            self.generator_calls += 1
            return self.generator.copy()
        values = np.zeros(size, dtype=dtype)
        head = self.run[self.run_values : self.run_values + size]
        values[: len(head)] = head
        self.run_values += size
        return values

    def permutation(self, n):
        self.permutations += 1
        return np.arange(n)


def _phase_stuck_rng(phase, params):
    """A _ScriptedRng on which generate_queries passes every phase before ``phase`` and never passes ``phase``.

    A generator that is zero never has full rank.  Its unit vectors on
    the last k columns have full rank but never pass the information set
    {0, ..., k-1} that the identity permutation picks; on the first k
    columns they pass it.  A run of zeros holds no invertible basis; one
    that opens with the identity basis passes it, and its coefficients
    and selector candidates are zero, of subfield rank 0.
    """
    k, n, s = params.k, params.n, params.s
    generator = np.zeros((k, n, s), dtype=np.int64)
    if phase == "info_set":
        generator[np.arange(k), n - k + np.arange(k), 0] = 1
    elif phase != "generator":
        generator[np.arange(k), np.arange(k), 0] = 1
    return _ScriptedRng(generator, np.eye(s, dtype=np.int64).ravel() if phase == "selector" else ())


STUCK_MESSAGES = {
    "generator": "^no full-rank generator found",
    "info_set": "^no information set found",
    "basis": "^no invertible basis matrix found",
    "selector": "^no full-rank selector block found",
}


@pytest.mark.parametrize("phase", DRAW_PHASES)
def test_every_phase_of_generate_queries_gives_up_after_the_cap(phase, monkeypatch, tight_params, tight_tower):
    """A stream that never passes one phase raises SamplingExhausted with that phase's message after
    exactly MAX_SAMPLING_TRIES candidates of it.

    The generator and information-set phases draw one call a candidate.
    The basis and selector candidates are reads of s*s and
    delta*(n-k)*(s-v) values off the stream's run.  The run draws the
    coefficients and one selector candidate ahead of a basis candidate,
    so at the tight base the first basis draw holds all five basis
    candidates, and it draws nothing ahead of a selector candidate.
    """
    monkeypatch.setattr(fields, "MAX_SAMPLING_TRIES", 5)
    reads = []
    take = UniformRun.take
    monkeypatch.setattr(UniformRun, "take", lambda run, count, ahead=0: reads.append(count) or take(run, count, ahead))
    params = tight_params
    basis, selector = params.s**2, params.delta * (params.n - params.k) * (params.s - params.v)
    coefficients = params.block_rows * (params.k * params.s + (params.n - params.k) * params.v)
    rng = _phase_stuck_rng(phase, params)
    with pytest.raises(SamplingExhausted, match=STUCK_MESSAGES[phase]):
        generate_queries(params, tight_tower, [1], [rng])
    expected = {
        "generator": (5, 0, [], 0),
        "info_set": (1, 5, [], 0),
        "basis": (1, 1, [basis] * 5, basis + coefficients + selector),
        "selector": (1, 1, [basis, coefficients] + [selector] * 5, basis + coefficients + 5 * selector),
    }[phase]
    assert (rng.generator_calls, rng.permutations, reads, rng.run_values) == expected


def test_redraw_rejected_gives_up_after_the_cap_on_the_stream_that_never_passes(monkeypatch):
    """Of three streams the middle one is always rejected: the others stop at their first draw,
    it draws exactly MAX_SAMPLING_TRIES times, and the error carries the phase's message."""
    monkeypatch.setattr(fields, "MAX_SAMPLING_TRIES", 5)
    rngs = [np.random.default_rng(seed) for seed in range(3)]
    draws = {id(rng): 0 for rng in rngs}

    def draw(rng):
        draws[id(rng)] += 1
        return rng is rngs[1]

    with pytest.raises(SamplingExhausted, match="^no full-rank selector block found"):
        redraw_rejected(rngs, draw, lambda _, stuck: ~stuck, "no full-rank selector block found")
    assert list(draws.values()) == [1, 5, 1]


# -- query layer invariants ----------------------------------------------------------


# A retrieval fixture (q=4) with a small L, so the scalar oracle keeps up.
SMALL_RETRIEVAL_PARAMS = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=2)
FIXTURES = [DEFAULT_PARAMS, TIGHT_PARAMS, MICRO_PARAMS, TERNARY_PARAMS, SMALL_RETRIEVAL_PARAMS]
FIXTURE_IDS = ["preset", "tight", "micro", "ternary", "retrieval"]
LAYER_QUERIES = 64


@pytest.mark.parametrize("params", FIXTURES, ids=FIXTURE_IDS)
def test_query_layers_satisfy_construction(params):
    """The layers rebuilt from each query of a stack and its secrets are those of the construction.

    Z is the selector block at the target rows; D is the one codeword
    layer that agrees with Q on I, since E and Z vanish there; E is
    Q - D - Z.
    """
    tower = build_tower(params.p, params.e, params.s)
    fq = tower.fq
    delta, n, v = params.delta, params.n, params.v
    targets = [1 + b % params.m for b in range(LAYER_QUERIES)]
    batch = generate_queries(params, tower, targets, [np.random.default_rng([0x1A7E, b]) for b in range(LAYER_QUERIES)])
    for b, target in enumerate(targets):
        Q, generator, info_set = batch.data[b], batch.generator[b], batch.info_set[b]
        lo = (target - 1) * delta
        Z = np.zeros_like(Q)
        Z[lo : lo + delta] = batch.selector_block[b]
        D = tower.matmul(solve_on_columns(generator, info_set, Q[:, info_set], tower), generator)
        E = fq.vsub(fq.vsub(Q, D), Z)
        assert np.array_equal(Q, fq.vadd(fq.vadd(D, E), Z))
        assert Q.shape == (params.m * delta, n, tower.s)

        # codeword layer: adding its rows to the generator must not grow the rank
        assert ext_rank(np.concatenate([generator, D]), tower) == params.k

        assert not np.any(E[:, info_set])
        assert not np.any(Z[:, info_set])

        # in split-basis coordinates mask entries are pure V parts, selector entries pure W
        split_inv = fq_inv_matrix(batch.basis[b], fq)
        assert not np.any(fq.matmul(E, split_inv)[..., v:]), (b, target)
        assert not np.any(Z[:lo]) and not np.any(Z[lo + delta :])
        block = Z[lo : lo + delta]
        assert np.array_equal(block, batch.selector_block[b])
        assert not np.any(fq.matmul(block, split_inv)[..., :v])
        assert fq_rank(block.reshape(delta, n * tower.s), fq) == delta


def test_generation_holds_one_full_size_array():
    """A round of 8 streams at q=2 s=4 v=2 n=32 k=16 m=16 peaks below 4.5 times its query stack.

    The codeword layer, which becomes the query, is the only (count,
    m*delta, n, s) array generation builds; with the codeword, mask and
    selector layers kept beside it the peak read 7.39 times.
    """
    params, tower = SchemeParams(p=2, e=1, s=4, v=2, n=32, k=16, m=16, L=1), build_tower(2, 1, 4)
    targets = [1 + 2 * b for b in range(8)]
    generate_queries(params, tower, targets, [np.random.default_rng([0, b]) for b in range(8)])  # warm-up
    tracemalloc.start()
    try:
        batch = generate_queries(params, tower, targets, [np.random.default_rng([1, b]) for b in range(8)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * batch.data.nbytes, peak / batch.data.nbytes


def test_generate_query_validates(tight_params, tight_tower, rng):
    with pytest.raises(IndexOutOfRange):
        generate_query(tight_params, tight_tower, 0, rng)
    with pytest.raises(IndexOutOfRange):
        generate_query(tight_params, tight_tower, tight_params.m + 1, rng)
    other_tower = build_tower(3, 1, 2)
    with pytest.raises(DimensionMismatch):
        generate_query(tight_params, other_tower, 1, rng)


def test_generate_query_takes_a_numpy_integer_target_as_a_python_int(tight_params, tight_tower, tmp_path):
    """An np.int64 target asks for the same query as the int, and its secrets save and load."""
    db = Database.random(tight_params, np.random.default_rng(1))
    query, secrets = generate_query(tight_params, tight_tower, np.int64(3), np.random.default_rng(2))
    same_query, _ = generate_query(tight_params, tight_tower, 3, np.random.default_rng(2))
    assert np.array_equal(query.matrix.data, same_query.matrix.data)
    assert type(secrets.target) is int and secrets.target == 3
    path = tmp_path / "secrets.json"
    save_secrets(path, secrets, tight_params)
    loaded = load_secrets(path, tight_params, tight_tower)
    assert loaded.target == 3
    response = respond(db, query, tight_params, tight_tower)
    assert np.array_equal(decode(response, loaded, tight_params, tight_tower), db.files[2])
    with pytest.raises(IndexOutOfRange):
        generate_query(tight_params, tight_tower, np.int64(tight_params.m + 1), np.random.default_rng(2))


def test_generate_query_refuses_a_bool_target(tight_params, tight_tower, rng):
    for target in (True, np.True_):
        with pytest.raises(BadArguments, match="integer"):
            generate_query(tight_params, tight_tower, target, rng)
    with pytest.raises(BadArguments, match="integer"):
        generate_queries(tight_params, tight_tower, [2, False], [rng, rng])


def test_generate_query_refuses_a_non_integer_target(tight_params, tight_tower, rng):
    for target in (2.0, np.float64(2), "2", None):
        with pytest.raises(BadArguments, match="integer"):
            generate_query(tight_params, tight_tower, target, rng)


def test_generate_queries_needs_one_target_per_stream(tight_params, tight_tower):
    rngs = [np.random.default_rng(b) for b in range(3)]
    for targets in ([2], [1, 2], [1, 2, 3, 4]):
        with pytest.raises(DimensionMismatch, match="targets"):
            generate_queries(tight_params, tight_tower, targets, rngs)


def test_generate_queries_needs_a_stream(tight_params, tight_tower, preset_params, preset_tower):
    for params, tower in ((tight_params, tight_tower), (preset_params, preset_tower)):
        with pytest.raises(DimensionMismatch, match="no RNG streams"):
            generate_queries(params, tower, [], [])


# sha256 over every QueryBatch field, draws included, of one round of 16 streams
# (targets 1, 2, ..., m, 1, ...) seeded [0x9E4, b].  Every fixture rejects some
# selector or information-set draws in it, so a rank test that decides
# differently moves a pin; the pinned experiment digest leaves draws out.
BATCH_PINS = {
    "preset": "ec59dfbc12548e2c821a3fb36501f157a2f44a23abcf5a56da7e0fe7861db845",
    "tight": "d52828a65926e3f479a82a070318f0e3c3cc5fa07ba8da356de236db723e13e1",
    "micro": "7cae398eac75b5d6c235e0061834c15331f0c2dcd50bb1edf7aed8d2db01993c",
    "ternary": "bd813b8eb5deaf94cc0ad97a4af34e5b1b414d3349d01fe9a49e835209021d2b",
    "retrieval": "ba0f101def434944da82c11d075c63a3a8c7b764e3b741f8fc90df99d6292c5f",
}


@pytest.mark.parametrize("params, pin", [(p, BATCH_PINS[name]) for p, name in zip(FIXTURES, FIXTURE_IDS)], ids=FIXTURE_IDS)
def test_generation_matches_its_pins(params, pin):
    """Every array of a seeded round, the rejection draws of each phase among them, is pinned."""
    tower = build_tower(params.p, params.e, params.s)
    batch = generate_queries(params, tower, [1 + b % params.m for b in range(16)],
                             [np.random.default_rng([0x9E4, b]) for b in range(16)])
    digest = hashlib.sha256()
    for field in dataclasses.fields(batch):
        arr = getattr(batch, field.name)
        digest.update(repr((field.name, arr.shape)).encode())
        digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    assert digest.hexdigest() == pin


GENERATION_STREAMS = 1000


@pytest.mark.parametrize("params", FIXTURES, ids=FIXTURE_IDS)
def test_generation_matches_the_per_draw_path(params):
    """1000 seeded streams give the queries, secrets and draws of one RNG call per candidate and
    coefficient array (oracles.per_draw_generate_queries), and leave every stream's bit generator
    in the same state, so the next draw of a reused stream does not move."""
    tower = build_tower(params.p, params.e, params.s)
    for start in range(0, GENERATION_STREAMS, 250):
        seeds = range(start, start + 250)
        targets = [1 + i % params.m for i in seeds]
        runs, draws = ([np.random.default_rng([0xD1F, i]) for i in seeds] for _ in range(2))
        batch = generate_queries(params, tower, targets, runs)
        reference = per_draw_generate_queries(params, tower, targets, draws)
        for field in dataclasses.fields(batch):
            assert np.array_equal(getattr(batch, field.name), getattr(reference, field.name)), field.name
        assert [rng.bit_generator.state for rng in runs] == [rng.bit_generator.state for rng in draws]


@pytest.mark.parametrize("params", FIXTURES, ids=FIXTURE_IDS)
def test_consecutive_queries_on_one_generator_match_the_per_draw_path(params):
    """50 generate_query calls on one Generator, each after a target draw from the same Generator,
    give the queries and secrets of the per-draw path on a Generator of the same seed."""
    tower = build_tower(params.p, params.e, params.s)
    rng, reference_rng = np.random.default_rng(0x50), np.random.default_rng(0x50)
    for _ in range(50):
        target = int(rng.integers(1, params.m + 1))
        assert int(reference_rng.integers(1, params.m + 1)) == target
        query, secrets = generate_query(params, tower, target, rng)
        reference = per_draw_generate_queries(params, tower, [target], [reference_rng])
        assert np.array_equal(query.matrix.data, reference.data[0])
        for name in ("generator", "info_set", "basis", "selector_block"):
            assert np.array_equal(getattr(secrets, name), getattr(reference, name)[0]), name
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("params", FIXTURES, ids=FIXTURE_IDS)
def test_discarding_generation_matches_the_per_draw_path(params):
    """With discard_rngs, 1000 seeded streams give the queries, secrets and draws of the per-draw
    path all the same.  The Generators' states are not compared: the runs draw spare values past
    what the streams read."""
    tower = build_tower(params.p, params.e, params.s)
    for start in range(0, GENERATION_STREAMS, 250):
        seeds = range(start, start + 250)
        targets = [1 + i % params.m for i in seeds]
        runs, draws = ([np.random.default_rng([0xD15, i]) for i in seeds] for _ in range(2))
        batch = generate_queries(params, tower, targets, runs, discard_rngs=True)
        reference = per_draw_generate_queries(params, tower, targets, draws)
        for field in dataclasses.fields(batch):
            assert np.array_equal(getattr(batch, field.name), getattr(reference, field.name)), field.name


class _RunCallCountingRng:
    """A Generator that counts its integers calls of an int size, the only calls UniformRun makes."""

    def __init__(self, seed):
        self.rng, self.run_calls = np.random.default_rng(seed), 0

    def integers(self, low, high=None, size=None, dtype=np.int64):
        self.run_calls += isinstance(size, int)
        return self.rng.integers(low, high, size=size, dtype=dtype)

    def permutation(self, n):
        return self.rng.permutation(n)


def test_discarding_generation_takes_about_one_run_call_a_stream(tight_params, tight_tower):
    """At the tight base a stream's run needs a second call only past SPARE_CANDIDATES * 2 rejected
    basis and selector candidates (w.p. 0.25%), so 1000 seeded streams average at most 1.05 calls."""
    rngs = [_RunCallCountingRng([0xCA11, i]) for i in range(GENERATION_STREAMS)]
    for start in range(0, GENERATION_STREAMS, 250):
        streams = rngs[start : start + 250]
        generate_queries(tight_params, tight_tower, [1] * len(streams), streams, discard_rngs=True)
    assert sum(rng.run_calls for rng in rngs) / len(rngs) <= 1.05


# -- responding -------------------------------------------------------------------


def test_respond_validates(tight_params, tight_tower, rng):
    db = Database.random(tight_params, rng)
    query, _ = generate_query(tight_params, tight_tower, 1, rng)
    wrong_m = SchemeParams(**{**tight_params.to_dict(), "m": tight_params.m - 1})
    with pytest.raises(DimensionMismatch):
        respond(Database.random(wrong_m, rng), query, tight_params, tight_tower)
    files = [f.copy() for f in Database.random(tight_params, rng).files]
    files[0][0, 0] = tight_params.q
    with pytest.raises(ValueError):
        respond(Database(files), query, tight_params, tight_tower)


@pytest.mark.parametrize("params", [TERNARY_PARAMS, SMALL_RETRIEVAL_PARAMS], ids=["ternary", "retrieval"])
@pytest.mark.parametrize("bad", ["negative", "q"])
def test_respond_and_decode_refuse_coordinates_out_of_range(params, bad):
    """A query, response or secrets entry outside [0, q) raises CoordinateOutOfRange at e = 1 and e = 2.

    Unchecked, the blow-up's table lookup wraps -1 and fails on q with a
    bare IndexError, and over a prime field the product reduces either
    mod p without a trace.  decode read a -1 in the generator or selector
    block as q - 1.
    """
    tower = build_tower(params.p, params.e, params.s)
    rng = np.random.default_rng(7)
    db = Database.random(params, rng)
    query, secrets = generate_query(params, tower, 1, rng)
    value = -1 if bad == "negative" else params.q
    data = query.matrix.data.copy()
    data[0, 0, 0] = value
    with pytest.raises(CoordinateOutOfRange):
        respond(db, Query(ExtMatrix(tower, data)), params, tower)
    response = respond(db, query, params, tower)
    answer = response.matrix.data.copy()
    answer[-1, -1, -1] = value
    with pytest.raises(CoordinateOutOfRange):
        decode(Response(ExtMatrix(tower, answer)), secrets, params, tower)
    for name in ("generator", "basis", "selector_block"):
        secret = getattr(secrets, name).copy()
        secret.flat[0] = value
        with pytest.raises(CoordinateOutOfRange):
            decode(response, dataclasses.replace(secrets, **{name: secret}), params, tower)


NON_INTEGER = {
    "float": lambda a: a + 0.4,
    "bool": lambda a: a.astype(bool),
    "object": lambda a: a.astype(object),
}


@pytest.mark.parametrize("kind", sorted(NON_INTEGER))
@pytest.mark.parametrize(
    "entry",
    [
        "fq_rank",
        "fq_deletion_ranks",
        "recover_index",
        "respond",
        "decode",
        "ExtMatrix",
        "Database",
        "decode_generator",
        "decode_basis",
        "decode_selector_block",
    ],
)
def test_entry_points_refuse_non_integer_arrays(entry, kind, tight_params, tight_tower):
    """A float, bool or object coordinate array raises CoordinateOutOfRange at every entry point.

    Cast to int64, each would pass as a valid matrix: the float one
    truncates to the query itself and the bool one ranks as 0/1.  respond
    and decode are handed their arrays past ExtMatrix's own check.  The
    database's files and decode's secrets arrays were cast the same way.
    """
    params, tower = tight_params, tight_tower
    rng = np.random.default_rng(5)
    db = Database.random(params, rng)
    query, secrets = generate_query(params, tower, 2, rng)
    response = respond(db, query, params, tower)
    bad = NON_INTEGER[kind]
    rows, n, s = query.matrix.data.shape
    with pytest.raises(CoordinateOutOfRange):
        if entry == "fq_rank":
            fq_rank(bad(query.matrix.data.reshape(rows, n * s)), tower.fq)
        elif entry == "fq_deletion_ranks":
            fq_deletion_ranks(bad(query.matrix.data.reshape(rows, n * s)), params.delta, tower.fq)
        elif entry == "recover_index":
            recover_index(bad(query.matrix.data), params, tower)
        elif entry == "respond":
            query.matrix.data = bad(query.matrix.data)
            respond(db, query, params, tower)
        elif entry == "decode":
            response.matrix.data = bad(response.matrix.data)
            decode(response, secrets, params, tower)
        elif entry == "ExtMatrix":
            ExtMatrix(tower, bad(query.matrix.data))
        elif entry == "Database":
            Database([bad(f) for f in db.files])
        else:
            name = entry.removeprefix("decode_")
            decode(response, dataclasses.replace(secrets, **{name: bad(getattr(secrets, name))}), params, tower)


DIFFERENTIAL_QUERIES = 1000


@pytest.mark.parametrize("params", FIXTURES, ids=FIXTURE_IDS)
def test_respond_matches_the_replaced_path_and_the_scalar_oracle(params):
    """One database answers 1000 seeded queries as the concatenating path and the scalar oracle do."""
    tower = build_tower(params.p, params.e, params.s)
    db = Database.random(params, np.random.default_rng([params.q, params.m, 0]))
    for start in range(0, DIFFERENTIAL_QUERIES, 250):
        seeds = range(start, start + 250)
        batch = generate_queries(params, tower, [1 + i % params.m for i in seeds], [np.random.default_rng(i) for i in seeds])
        for data in batch.data:
            query = Query(ExtMatrix(tower, data))
            got = respond(db, query, params, tower).matrix.data
            assert got.dtype == np.int64
            assert np.array_equal(got, concatenated_respond(db, query, params, tower).matrix.data)
            assert np.array_equal(got, scalar_respond(db.files, data, tower))


def test_one_database_answers_under_towers_of_different_fields(rng):
    """The F_p digits are kept per (p, e): each field gets its own, and a range check of its own."""
    shape = dict(s=2, v=1, n=4, k=2, m=3, L=3)
    db = Database([rng.integers(0, 2, size=(3, 2)) for _ in range(3)])
    wide = Database([rng.integers(0, 4, size=(3, 2)) for _ in range(3)])
    for p, e in ((2, 1), (2, 2), (3, 1), (2, 1)):
        params, tower = SchemeParams(p=p, e=e, **shape), build_tower(p, e, 2)
        query, secrets = generate_query(params, tower, 2, rng)
        for base in (db, wide) if p**e == 4 else (db,):
            got = respond(base, query, params, tower)
            assert np.array_equal(got.matrix.data, scalar_respond(base.files, query.matrix.data, tower))
            assert np.array_equal(decode(got, secrets, params, tower), base.files[1])
        assert db.digits(tower.fq).shape == (3, 6 * e)
        assert db.digits(tower.fq) is db.digits(tower.fq)
        if p**e < 4:
            with pytest.raises(CoordinateOutOfRange):
                respond(wide, query, params, tower)


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


@pytest.mark.parametrize("columns", [[0, 4], [-1, 0]], ids=["n", "negative"])
def test_decode_refuses_information_set_columns_out_of_range(columns, tight_params, tight_tower, rng):
    """A column n or -1 raises IndexOutOfRange: unchecked, n failed in numpy's indexing and -1 read column n - 1."""
    assert tight_params.n == 4
    db = Database.random(tight_params, rng)
    query, secrets = generate_query(tight_params, tight_tower, 1, rng)
    response = respond(db, query, tight_params, tight_tower)
    with pytest.raises(IndexOutOfRange, match="information set"):
        decode(response, dataclasses.replace(secrets, info_set=np.array(columns)), tight_params, tight_tower)


@pytest.mark.parametrize("kind", ["float", "shifted", "bool"])
def test_decode_refuses_an_information_set_that_is_not_an_integer_array(kind, tight_params, tight_tower, rng):
    """Float columns raised numpy's bare IndexError from np.delete and bool ones a bare ValueError; both raise IndexOutOfRange."""
    db = Database.random(tight_params, rng)
    query, secrets = generate_query(tight_params, tight_tower, 1, rng)
    response = respond(db, query, tight_params, tight_tower)
    info_set = secrets.info_set
    bad = {"float": info_set.astype(float), "shifted": info_set + 0.5, "bool": info_set.astype(bool)}[kind]
    with pytest.raises(IndexOutOfRange, match="information set"):
        decode(response, dataclasses.replace(secrets, info_set=bad), tight_params, tight_tower)


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


@pytest.mark.parametrize("params", FIXTURES, ids=FIXTURE_IDS)
def test_decode_refuses_a_generator_singular_on_the_information_set(params):
    tower = build_tower(params.p, params.e, params.s)
    rng = np.random.default_rng([0xB0D, params.q, params.m])
    db = Database.random(params, rng)
    for target in range(1, params.m + 1):
        query, secrets = generate_query(params, tower, target, rng)
        response = respond(db, query, params, tower)
        generator = secrets.generator.copy()
        generator[:, secrets.info_set[target % params.k]] = 0
        with pytest.raises(NotInformationSet):
            decode(response, dataclasses.replace(secrets, generator=generator), params, tower)


@pytest.mark.parametrize("params", FIXTURES, ids=FIXTURE_IDS)
def test_decode_refuses_a_selector_block_that_leaves_W(params):
    """A V basis vector added to one selector entry outside I leaks past the split."""
    tower = build_tower(params.p, params.e, params.s)
    rng = np.random.default_rng([0x1EA, params.q, params.m])
    db = Database.random(params, rng)
    for target in range(1, params.m + 1):
        query, secrets = generate_query(params, tower, target, rng)
        response = respond(db, query, params, tower)
        outside = np.delete(np.arange(params.n), secrets.info_set)
        block = secrets.selector_block.copy()
        row, col = target % params.delta, outside[target % len(outside)]
        block[row, col] = tower.fq.vadd(block[row, col], secrets.basis[0])
        with pytest.raises(DecodeFailure, match="leaks"):
            decode(response, dataclasses.replace(secrets, selector_block=block), params, tower)


DECODE_QUERIES = 2000
DECODE_ROUND = 250


@pytest.mark.parametrize(
    "params",
    [
        DEFAULT_PARAMS,
        TIGHT_PARAMS,
        MICRO_PARAMS,
        TERNARY_PARAMS,
        SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=64),
    ],
    ids=["preset", "tight", "micro", "ternary", "retrieval"],
)
def test_decode_matches_the_stepwise_decode(params):
    """decode's map on F_p digits against unit_row_decode's map on F_q encodings, over 2000 seeded queries per fixture.

    The queries come in rounds of generate_queries, every target in turn,
    against one seeded database; every decode, and the replaced map, must
    return the target file.
    """
    tower = build_tower(params.p, params.e, params.s)
    rng = np.random.default_rng(0xDEC0 + params.q * params.m)
    db = Database.random(params, rng)
    for start in range(0, DECODE_QUERIES, DECODE_ROUND):
        targets = [1 + (start + i) % params.m for i in range(DECODE_ROUND)]
        rngs = [np.random.default_rng([0xDEC0, start + i]) for i in range(DECODE_ROUND)]
        batch = generate_queries(params, tower, targets, rngs)
        for b, target in enumerate(targets):
            secrets = QuerySecrets(generator=batch.generator[b], info_set=batch.info_set[b],
                                   basis=batch.basis[b], target=target,
                                   selector_block=batch.selector_block[b])
            response = respond(db, Query(ExtMatrix(tower, batch.data[b])), params, tower)
            out = decode(response, secrets, params, tower)
            assert out.dtype == np.int64
            assert np.array_equal(out, unit_row_decode(response, secrets, params, tower)), (start + b, target)
            assert np.array_equal(out, db.files[target - 1]), (start + b, target)


def test_decode_eliminates_each_matrix_once(monkeypatch, rng):
    """One q=4 decode hands the echelon kernel every matrix at most once.

    fq_echelon and the inverses share one body, fields._echelon, which is
    counted.  An inversion eliminates [M | I], so that call is keyed on M;
    a rank check of M followed by its inverse counts as eliminating M twice.
    """
    params = SchemeParams(p=2, e=2, s=3, v=1, n=6, k=3, m=10, L=64)
    tower = build_tower(params.p, params.e, params.s)
    db = Database.random(params, rng)
    query, secrets = generate_query(params, tower, 4, rng)
    response = respond(db, query, params, tower)

    seen = []
    original = fields._echelon

    def counted(arr, p):
        key = arr = np.asarray(arr)
        n = len(arr)
        if arr.shape[1] == 2 * n and np.array_equal(arr[:, n:], np.eye(n)):
            key = arr[:, :n]
        seen.append((key.shape, key.tobytes()))
        return original(arr, p)

    monkeypatch.setattr(fields, "_echelon", counted)
    out = decode(response, secrets, params, tower)
    assert np.array_equal(out, db.files[3])
    assert seen, "decode eliminated nothing"
    assert len(set(seen)) == len(seen), f"{len(seen) - len(set(seen))} matrices eliminated twice"
