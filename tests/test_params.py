import json
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhw_pir.cli import _load_params
from hhw_pir.errors import BadArguments, InvalidParams
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams


def test_default_params_derived_values():
    p = DEFAULT_PARAMS
    assert (p.p, p.e, p.s, p.v, p.n, p.k, p.m, p.L) == (2, 1, 4, 2, 8, 4, 8, 16)
    assert p.q == 2
    assert p.delta == 8
    assert p.rank_threshold == 24
    assert p.block_rows == 64


def test_rank_threshold_two_forms_agree():
    # k*s + v*(n-k) and s*n - delta are the same number for every instance
    for params in [
        DEFAULT_PARAMS,
        SchemeParams(p=2, e=1, s=2, v=1, n=4, k=2, m=6, L=1),
        SchemeParams(p=3, e=2, s=3, v=2, n=5, k=2, m=4, L=7),
        SchemeParams(p=5, e=1, s=2, v=1, n=3, k=1, m=2, L=1),
    ]:
        assert params.rank_threshold == params.s * params.n - params.delta


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(p=4), "not prime"),
        (dict(p=1), "not prime"),
        (dict(e=0), "e must be"),
        (dict(s=1), "s must be"),
        (dict(v=0), "v must lie"),
        (dict(v=4), "v must lie"),
        (dict(k=0), "k must lie"),
        (dict(k=8), "k must lie"),
        (dict(k=9), "k must lie"),
        (dict(m=0), "m must be"),
        (dict(L=0), "L must be"),
    ],
)
def test_validation_rejects(kwargs, fragment):
    base = dict(p=2, e=1, s=4, v=2, n=8, k=4, m=8, L=16)
    base.update(kwargs)
    with pytest.raises(InvalidParams, match=fragment):
        SchemeParams(**base)


_VALID = dict(p=3, e=2, s=3, v=1, n=4, k=2, m=5, L=3)


@pytest.mark.parametrize("key", sorted(_VALID))
def test_constructor_refuses_what_from_dict_refuses(key):
    """n=4.5 gave delta 2.5, m=6.0 a bare TypeError in run_experiment and e=True a JSON true."""
    value = _VALID[key]
    for bad in (float(value), value + 0.5, True):
        with pytest.raises(InvalidParams, match=f"parameter {key} must be an integer"):
            SchemeParams(**{**_VALID, key: bad})
    params = SchemeParams(**{**_VALID, key: np.int64(value)})
    assert type(getattr(params, key)) is int
    assert params == SchemeParams(**_VALID) and params.to_dict() == _VALID


def test_dict_round_trip():
    params = SchemeParams(p=3, e=2, s=3, v=1, n=4, k=2, m=5, L=3)
    assert SchemeParams.from_dict(params.to_dict()) == params


def test_from_dict_accepts_q():
    d = dict(q=9, s=2, v=1, n=3, k=1, m=2, L=1)
    params = SchemeParams.from_dict(d)
    assert (params.p, params.e) == (3, 2)
    assert params.q == 9


def test_from_dict_q_conflicts():
    with pytest.raises(InvalidParams, match="conflicts"):
        SchemeParams.from_dict(dict(q=9, p=2, s=2, v=1, n=3, k=1, m=2, L=1))
    with pytest.raises(InvalidParams, match="prime power"):
        SchemeParams.from_dict(dict(q=12, s=2, v=1, n=3, k=1, m=2, L=1))
    with pytest.raises(InvalidParams, match="prime power"):
        SchemeParams.from_dict(dict(q=1, s=2, v=1, n=3, k=1, m=2, L=1))


@pytest.mark.parametrize("value", ["abc", "4", None, float("inf"), float("nan"), 4.7, 4.0, True, [2], {"v": 2}])
def test_from_dict_rejects_non_integer_values(value):
    with pytest.raises(InvalidParams, match="must be an integer"):
        SchemeParams.from_dict(dict(p=2, e=1, s=2, v=1, n=3, k=1, m=2, L=value))
    with pytest.raises(InvalidParams, match="must be an integer"):
        SchemeParams.from_dict(dict(q=value, s=2, v=1, n=3, k=1, m=2, L=1))


def test_from_dict_rejects_non_objects():
    for doc in ([("p", 2)], 5, "p=2", None):
        with pytest.raises(InvalidParams, match="object"):
            SchemeParams.from_dict(doc)


def _within_seconds(seconds, fn):
    """fn() under a SIGALRM bound, so a stall fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "q,pe",
    [(2**61 - 1, (2**61 - 1, 1)), ((2**31 - 1) ** 2, (2**31 - 1, 2)), (3**40, (3, 40)), (2**64, (2, 64))],
)
def test_from_dict_factors_large_q_without_stalling(q, pe):
    params = _within_seconds(5, lambda: SchemeParams.from_dict(dict(q=q, s=2, v=1, n=3, k=1, m=2, L=1)))
    assert (params.p, params.e) == pe
    with pytest.raises(InvalidParams, match="prime power"):
        _within_seconds(5, lambda: SchemeParams.from_dict(dict(q=6 * q, s=2, v=1, n=3, k=1, m=2, L=1)))


_KEYS = st.sampled_from(["p", "e", "s", "v", "n", "k", "m", "L", "q", "delta", ""]) | st.text(max_size=3)
_VALUES = (
    st.integers(-3, 12)
    | st.sampled_from([2, 3, 4, 8, 9, 12, 2**61 - 1, 2**64])
    | st.integers()
    | st.booleans()
    | st.none()
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.integers(0, 3), max_size=2)
)


@given(
    st.dictionaries(_KEYS, _VALUES, max_size=6),
    st.sets(st.sampled_from(["p", "e", "s", "v", "n", "k", "m", "L"]), max_size=3),
)
@settings(max_examples=500, deadline=None)
def test_from_dict_parses_or_raises_invalid_params(changes, dropped):
    """A valid dict with fields changed, added or dropped: it parses or raises InvalidParams."""
    doc = dict(p=3, e=2, s=3, v=1, n=4, k=2, m=5, L=3)
    doc.update(changes)
    for key in dropped:
        doc.pop(key, None)
    try:
        params = SchemeParams.from_dict(doc)
    except InvalidParams:
        return
    assert SchemeParams.from_dict(params.to_dict()) == params


# a document nested deeper than the decoder's recursion limit
_DEEP = '{"p":' * 200_000 + "0" + "}" * 200_000
_DOCS = st.dictionaries(_KEYS, _VALUES, max_size=6).map(
    lambda changes: json.dumps({**dict(p=3, e=2, s=3, v=1, n=4, k=2, m=5, L=3), **changes})
)


@given(
    st.text() | st.text().map(lambda text: "{" + text) | _DOCS,
    st.binary() | _DOCS.map(str.encode),
)
@example(_DEEP, _DEEP.encode())
@settings(max_examples=300, deadline=None)
def test_params_reader_parses_or_raises_typed_error(text, raw):
    """The --params reader, given any inline text or any file bytes: SchemeParams, BadArguments or
    InvalidParams, never another error.  Text that is no inline JSON names a path in a directory holding the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.json"
        path.write_bytes(raw)
        inline = text if text.strip().startswith("{") else str(Path(tmp) / text.replace("/", ""))
        for argument in (inline, str(path)):
            try:
                assert isinstance(_load_params(argument), SchemeParams)
            except (BadArguments, InvalidParams):
                pass


def test_from_dict_missing_and_extra_fields():
    with pytest.raises(InvalidParams, match="missing"):
        SchemeParams.from_dict(dict(p=2, e=1, s=2, v=1, n=3, k=1, m=2))
    with pytest.raises(InvalidParams, match="unknown"):
        SchemeParams.from_dict(dict(p=2, e=1, s=2, v=1, n=3, k=1, m=2, L=1, delta=4))


@given(
    s=st.integers(2, 5),
    v_off=st.integers(1, 4),
    n=st.integers(2, 9),
    k_off=st.integers(1, 8),
    m=st.integers(1, 12),
)
@settings(max_examples=120, deadline=None)
def test_dimension_identity_holds_generally(s, v_off, n, k_off, m):
    v = min(v_off, s - 1)
    k = min(k_off, n - 1)
    params = SchemeParams(p=2, e=1, s=s, v=v, n=n, k=k, m=m, L=1)
    # query height in F_q dimensions splits exactly into the three layers
    assert params.rank_threshold + params.delta == params.s * params.n
    assert params.block_rows == m * (s - v) * (n - k)
