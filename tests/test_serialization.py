import functools
import hashlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhw_pir.errors import InvalidParams, MatrixFileError
from hhw_pir.fields import build_tower
from hhw_pir.params import SchemeParams
from hhw_pir.scheme import Database, decode, generate_query, respond
from hhw_pir.serialization import (
    MATRIX_MAGIC,
    MATRIX_VERSION,
    bytes_per_element,
    load_database,
    load_matrix,
    load_query,
    load_response,
    load_secrets,
    save_database,
    save_matrix,
    save_query,
    save_response,
    save_secrets,
)

_HEADER = struct.Struct("<4sBIIIII")


def _header(p=2, e=1, s=2, rows=1, cols=1, magic=MATRIX_MAGIC, version=MATRIX_VERSION):
    return _HEADER.pack(magic, version, p, e, s, rows, cols)


# -- element width ------------------------------------------------------------------


def test_bytes_per_element():
    assert bytes_per_element(2, 1, 2) == 1
    assert bytes_per_element(2, 1, 8) == 1
    assert bytes_per_element(2, 1, 9) == 2
    assert bytes_per_element(2, 2, 2) == 1  # q = 4, order 16
    assert bytes_per_element(3, 1, 2) == 1
    assert bytes_per_element(251, 1, 2) == 2
    assert bytes_per_element(2, 1, 64) == 8


# -- golden bytes -------------------------------------------------------------------


def test_save_matrix_golden_bytes():
    """One pinned file, byte for byte, so the format cannot drift silently."""
    buf = io.BytesIO()
    arr = np.array([[(1, 0), (0, 1), (1, 1)]], dtype=np.int64)  # 1x3, s=2 over F_2
    save_matrix(buf, arr, 2, 1, 2)
    want = (
        b"HHWM"
        + bytes([1])
        + struct.pack("<IIIII", 2, 1, 2, 1, 3)
        + bytes([0b01, 0b10, 0b11])  # value = c0 + 2*c1, one byte each
    )
    assert buf.getvalue() == want


# sha256 of the query file, the response file and the secrets JSON of one
# fixed-seed query, so that neither format nor the sampling behind it can drift
FILE_PINS = {
    "preset": (
        "0539e9fc855558f00427b34f86400aaa94f62f923d85d6a9e1b009b76a60c076",
        "451ff8e54d3079f046c7af005d979d1ec20ad30effb46449e4f2a65665cef0ad",
        "f85a83fe76ac5729dae69d28ab68fc159182640c94a61994c84bf13016f8e389",
    ),
    "q4": (
        "900056cd00909afabf08f8f5451d2c36328453b09012f735d0f37249ba30a17f",
        "cc6c11702bc79a3f30ee3275e1887b94a5fa8dc8b9a65823736f4379680aa0b7",
        "650f8b25681da79c3892a902302866d9e6f3824a7d8901649a0ab9a1ff513bf6",
    ),
}


@pytest.mark.parametrize("name", sorted(FILE_PINS))
def test_query_response_and_secrets_bytes_are_pinned(name, request, tmp_path):
    params = request.getfixturevalue(f"{name}_params")
    tower = request.getfixturevalue(f"{name}_tower")
    rng = np.random.default_rng(2020)
    db = Database.random(params, rng)
    query, secrets = generate_query(params, tower, 3, rng)
    blobs = []
    for save, obj in [(save_query, query), (save_response, respond(db, query, params, tower))]:
        buf = io.BytesIO()
        save(buf, obj, params)
        blobs.append(buf.getvalue())
    save_secrets(tmp_path / "s.json", secrets, params)
    blobs.append((tmp_path / "s.json").read_bytes())
    assert tuple(hashlib.sha256(blob).hexdigest() for blob in blobs) == FILE_PINS[name]


def test_element_integers_are_base_q_positional():
    buf = io.BytesIO(_header(p=3, e=1, s=2, rows=1, cols=1) + bytes([5]))
    found = load_matrix(buf)
    assert found.data[0, 0].tolist() == [2, 1]  # 5 = 2 + 1*3


# -- round trips --------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,e,s",
    [(2, 1, 1), (2, 1, 4), (3, 1, 2), (3, 2, 2), (251, 1, 2), (2, 1, 16)],
)
def test_matrix_round_trip(p, e, s, rng):
    q = p**e
    for _ in range(8):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        arr = rng.integers(0, q, size=(rows, cols, s), dtype=np.int64)
        buf = io.BytesIO()
        save_matrix(buf, arr, p, e, s)
        buf.seek(0)
        found = load_matrix(buf)
        assert (found.p, found.e, found.s) == (p, e, s)
        assert np.array_equal(found.data, arr)


def test_matrix_round_trip_two_dim_base_field(rng):
    arr = rng.integers(0, 3, size=(4, 5), dtype=np.int64)
    buf = io.BytesIO()
    save_matrix(buf, arr, 3, 1, 1)
    buf.seek(0)
    assert np.array_equal(load_matrix(buf).data[:, :, 0], arr)


def test_matrix_round_trip_full_64_bit_order():
    # p^(e*s) = 2^64 sits exactly on the supported boundary
    arr = np.ones((1, 1, 64), dtype=np.int64)
    buf = io.BytesIO()
    save_matrix(buf, arr, 2, 1, 64)
    buf.seek(0)
    found = load_matrix(buf)
    assert np.array_equal(found.data, arr)


def test_matrix_round_trip_on_disk(tmp_path, rng):
    path = tmp_path / "m.hhwm"
    arr = rng.integers(0, 4, size=(3, 2, 2), dtype=np.int64)
    save_matrix(path, arr, 2, 2, 2)
    assert np.array_equal(load_matrix(path).data, arr)
    assert np.array_equal(load_matrix(str(path)).data, arr)


# -- save-side validation --------------------------------------------------------------


def test_save_matrix_rejects_bad_input():
    buf = io.BytesIO()
    with pytest.raises(MatrixFileError, match="shape"):
        save_matrix(buf, np.zeros((2, 2), dtype=np.int64), 2, 1, 2)
    with pytest.raises(MatrixFileError, match="zero dimension"):
        save_matrix(buf, np.zeros((0, 3, 2), dtype=np.int64), 2, 1, 2)
    with pytest.raises(MatrixFileError, match=r"\[0, 2\)"):
        save_matrix(buf, np.full((1, 1, 2), 2, dtype=np.int64), 2, 1, 2)
    with pytest.raises(MatrixFileError, match=r"\[0, 4\)"):
        save_matrix(buf, np.full((1, 1, 2), -1, dtype=np.int64), 2, 2, 2)


# -- load-side rejection catalog ---------------------------------------------------------


@pytest.mark.parametrize(
    "raw,fragment",
    [
        (b"HHW", "too short"),
        (_header()[:20], "too short"),
        (_header(magic=b"HHWX") + bytes([0]), "bad magic"),
        (_header(version=2) + bytes([0]), "version"),
        (_header(p=4) + bytes([0]), "not prime"),
        (_header(p=0) + bytes([0]), "not prime"),
        (_header(e=0) + bytes([0]), "degrees"),
        (_header(s=0) + bytes([0]), "degrees"),
        (_header(rows=0) + b"", "dimensions"),
        (_header(cols=0) + b"", "dimensions"),
        (_header(p=2, e=1, s=65), "exceeds"),
        (_header(p=2, e=2**31, s=2**31), "exceeds"),
        (_header(p=2, e=2**32 - 1, s=1), "exceeds"),
        (_header(p=2, e=64, s=1) + bytes(8), "int64"),
        (_header(p=4294967291, e=2, s=1) + bytes(8), "int64"),
        (_header() + bytes([0, 0, 0]), "expected 1"),
        (_header(rows=2, cols=2) + bytes([0]), "expected 4"),
        (_header(p=3, e=1, s=1) + bytes([3]), "outside"),
        (_header(p=2, e=1, s=2) + bytes([4]), "outside"),
    ],
)
def test_load_matrix_rejects_malformed(raw, fragment):
    with pytest.raises(MatrixFileError, match=fragment):
        load_matrix(io.BytesIO(raw))


# -- protocol object round trips -----------------------------------------------------------


def test_query_round_trip(tight_params, tight_tower, rng, tmp_path):
    query, _ = generate_query(tight_params, tight_tower, 3, rng)
    path = tmp_path / "query.hhwm"
    save_query(path, query, tight_params)
    loaded = load_query(path, tight_params, tight_tower)
    assert np.array_equal(loaded.matrix.data, query.matrix.data)


def test_query_shape_and_field_checks(tight_params, tight_tower, ternary_params, ternary_tower, rng, tmp_path):
    # a response file is not a query file
    db = Database.random(tight_params, rng)
    query, _ = generate_query(tight_params, tight_tower, 1, rng)
    response = respond(db, query, tight_params, tight_tower)
    path = tmp_path / "resp.hhwm"
    save_response(path, response, tight_params)
    with pytest.raises(MatrixFileError, match="query is"):
        load_query(path, tight_params, tight_tower)
    # wrong field entirely
    tq, _ = generate_query(ternary_params, ternary_tower, 1, rng)
    tpath = tmp_path / "ternary.hhwm"
    save_query(tpath, tq, ternary_params)
    with pytest.raises(MatrixFileError, match="field"):
        load_query(tpath, tight_params, tight_tower)


def test_response_round_trip(tight_params, tight_tower, rng, tmp_path):
    db = Database.random(tight_params, rng)
    query, secrets = generate_query(tight_params, tight_tower, 2, rng)
    response = respond(db, query, tight_params, tight_tower)
    path = tmp_path / "resp.hhwm"
    save_response(path, response, tight_params)
    loaded = load_response(path, tight_params, tight_tower)
    assert np.array_equal(loaded.matrix.data, response.matrix.data)
    assert np.array_equal(
        decode(loaded, secrets, tight_params, tight_tower), db.files[1]
    )


def test_database_round_trip(tight_params, rng, tmp_path):
    db = Database.random(tight_params, rng)
    path = tmp_path / "db.hhwm"
    save_database(path, db, tight_params)
    assert load_database(path, tight_params) == db


def test_database_dimension_check(tight_params, ternary_params, rng, tmp_path):
    db = Database.random(ternary_params, rng)
    path = tmp_path / "db.hhwm"
    save_database(path, db, ternary_params)
    with pytest.raises(MatrixFileError):
        load_database(path, tight_params)


# -- secrets ------------------------------------------------------------------------------


def _secrets_doc(tmp_path, params, tower, rng, **overrides):
    query, secrets = generate_query(params, tower, 2, rng)
    path = tmp_path / "s.json"
    save_secrets(path, secrets, params)
    doc = json.loads(path.read_text())
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path, query, secrets


def test_secrets_round_trip(tight_params, tight_tower, rng, tmp_path):
    db = Database.random(tight_params, rng)
    query, secrets = generate_query(tight_params, tight_tower, 4, rng)
    path = tmp_path / "secrets.json"
    save_secrets(path, secrets, tight_params)
    loaded = load_secrets(path, tight_params, tight_tower)
    assert loaded.target == 4
    assert loaded.info_set.dtype == np.int64 and np.array_equal(loaded.info_set, secrets.info_set)
    assert json.loads(path.read_text())["info_set"] == (secrets.info_set + 1).tolist()  # 1-based on disk
    assert loaded.split.v == secrets.split.v
    assert np.array_equal(loaded.split.basis, secrets.split.basis)
    assert np.array_equal(loaded.generator, secrets.generator)
    assert np.array_equal(loaded.selector_block, secrets.selector_block)
    # full layers are deliberately not persisted
    assert loaded.codeword_part is None
    assert loaded.mask_part is None
    assert loaded.selector_part is None
    # and the restored secrets decode a fresh response
    response = respond(db, query, tight_params, tight_tower)
    assert np.array_equal(
        decode(response, loaded, tight_params, tight_tower), db.files[3]
    )


def test_secrets_rejects_garbage_file(tmp_path, tight_params, tight_tower):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(MatrixFileError, match="cannot parse"):
        load_secrets(path, tight_params, tight_tower)
    path.write_text('{"format": "something-else"}')
    with pytest.raises(MatrixFileError, match="not a secrets file"):
        load_secrets(path, tight_params, tight_tower)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"version": 9}, "version"),
        ({"version": True}, "version"),
        ({"version": 1.0}, "version"),
        ({"target": 0}, "target"),
        ({"target": 7}, "target"),
        ({"target": "2"}, "target"),
        ({"target": True}, "target"),
        ({"target": 2.0}, "target"),
        ({"info_set": [1]}, "information set"),
        ({"info_set": [True, 2]}, "information set"),
        ({"info_set": [2, 1]}, "bad information set"),
        ({"info_set": [1, 9]}, "bad information set"),
        ({"split_v": 2}, "split width"),
        ({"split_v": True}, "split width"),
        ({"basis": [[0, 0], [0, 0]]}, "singular"),
        ({"basis": [[1, 0, 0], [0, 1, 0]]}, "shape"),
        ({"basis": "nope"}, "not an integer array"),
        ({"basis": [[1.5, True], [0, 1]]}, "not an integer array"),
        ({"basis": [[True, 0], [0, 1]]}, "not an integer array"),
        ({"basis": [[1.0, 0], [0, 1]]}, "not an integer array"),
        ({"basis": [["1", 0], [0, 1]]}, "not an integer array"),
        ({"generator": [[["1", 0]] * 4] * 2}, "not an integer array"),
        ({"selector_block": [[0]]}, "shape"),
        ({"generator": [[[9, 0], [0, 0], [0, 0], [0, 0]]] * 2}, "outside"),
        ({"info_set": [1, 1]}, "bad information set"),
        ({"info_set": [0, 1]}, "bad information set"),
        ({"info_set": [-(2**70), 2**70]}, "bad information set"),
    ],
)
def test_secrets_rejects_malformed_fields(
    overrides, fragment, tight_params, tight_tower, rng, tmp_path
):
    path, _, _ = _secrets_doc(tmp_path, tight_params, tight_tower, rng, **overrides)
    with pytest.raises(MatrixFileError, match=fragment):
        load_secrets(path, tight_params, tight_tower)


def test_secrets_rejects_params_mismatch(tight_params, tight_tower, ternary_params, rng, tmp_path):
    path, _, _ = _secrets_doc(tmp_path, tight_params, tight_tower, rng)
    with pytest.raises(MatrixFileError, match="generated for"):
        load_secrets(path, ternary_params, tight_tower)


# -- fuzzed parsers ------------------------------------------------------------------------

_U32_EDGES = [0, 1, 2, 3, 4, 16, 32, 33, 63, 64, 65, 251, 2**16 + 1, 2**31, 4294967291, 2**32 - 1]


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_load_matrix_parses_or_raises_matrix_file_error(data):
    """Any header and payload either loads in range or raises MatrixFileError."""
    field = st.sampled_from(_U32_EDGES) | st.integers(0, 2**32 - 1)
    small = st.integers(0, 4) | field
    p, e, s = data.draw(st.sampled_from([2, 3, 251]) | field), data.draw(small), data.draw(small)
    rows, cols = data.draw(small), data.draw(small)
    magic = data.draw(st.sampled_from([MATRIX_MAGIC, b"HHWX"]))
    version = data.draw(st.sampled_from([MATRIX_VERSION, 0, 255]))
    head = _HEADER.pack(magic, version, p, e, s, rows, cols)
    exact = 2 <= p and 1 <= e * s <= 64 and rows * cols * ((e * s * p.bit_length() + 7) // 8) <= 256
    if exact and data.draw(st.booleans()):
        payload = data.draw(st.binary(min_size=rows * cols * bytes_per_element(p, e, s),
                                      max_size=rows * cols * bytes_per_element(p, e, s)))
    else:
        payload = data.draw(st.binary(max_size=64))
    raw = data.draw(st.sampled_from([head + payload, (head + payload)[: data.draw(st.integers(0, 40))]]))
    try:
        found = load_matrix(io.BytesIO(raw))
    except MatrixFileError:
        return
    assert found.data.shape == (rows, cols, s)
    assert found.data.min() >= 0 and found.data.max() < p**e


_FUZZ_PARAMS = SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=1)
_FUZZ_TOWER = build_tower(2, 1, 2)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _load_secrets_text(text: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_bytes(text)
        return load_secrets(path, _FUZZ_PARAMS, _FUZZ_TOWER)


@functools.cache
def _valid_secrets_text() -> str:
    _, secrets = generate_query(_FUZZ_PARAMS, _FUZZ_TOWER, 2, np.random.default_rng(5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save_secrets(path, secrets, _FUZZ_PARAMS)
        return path.read_text()


def _valid_secrets_doc() -> dict:
    return json.loads(_valid_secrets_text())


_SECRET_INTEGERS = ("version", "target", "split_v", "info_set", "basis", "generator", "selector_block")


def _integer_paths(obj, path=()):
    """Index paths to the integer leaves of nested lists."""
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _integer_paths(item, path + (i,))
    else:
        yield path


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_load_secrets_parses_or_raises_typed_error(data):
    """A valid secrets file with one integer written as another JSON type,
    with fields replaced, dropped or added, or raw bytes."""
    doc = _valid_secrets_doc()
    if data.draw(st.booleans()):
        # the same value as a float, a string or (for 0 and 1) a boolean never loads
        paths = [(key,) + sub for key in _SECRET_INTEGERS for sub in _integer_paths(doc[key])]
        *parents, last = data.draw(st.sampled_from(paths))
        holder = doc
        for step in parents:
            holder = holder[step]
        value = holder[last]
        holder[last] = data.draw(st.sampled_from([float(value), str(value)] + [bool(value)] * (value in (0, 1))))
        with pytest.raises(MatrixFileError):
            _load_secrets_text(json.dumps(doc).encode())
        return
    keys = sorted(doc) + ["params." + key for key in sorted(doc["params"])] + ["extra"]
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
        holder = doc
        if key.startswith("params.") and isinstance(doc.get("params"), dict):
            holder, key = doc["params"], key[len("params."):]
        if data.draw(st.booleans()):
            holder.pop(key, None)
        else:
            holder[key] = data.draw(_JSON)
    text = data.draw(st.sampled_from([json.dumps(doc).encode(), None]))
    if text is None:
        text = data.draw(st.binary(max_size=80) | st.just(b"\xff\xfe{}"))
    try:
        _load_secrets_text(text)
    except (MatrixFileError, InvalidParams):
        pass


def test_load_secrets_without_params_object_raises_matrix_file_error():
    for params in (None, [], "p=2", 3):
        doc = _valid_secrets_doc()
        if params is None:
            del doc["params"]
        else:
            doc["params"] = params
        with pytest.raises(MatrixFileError, match="params"):
            _load_secrets_text(json.dumps(doc).encode())
    with pytest.raises(MatrixFileError, match="cannot parse"):
        _load_secrets_text(b"\xff\xfe{}")
    doc = _valid_secrets_doc()
    doc["basis"] = [[2**70, 0], [0, 1]]
    with pytest.raises(MatrixFileError, match="not an integer array"):
        _load_secrets_text(json.dumps(doc).encode())
