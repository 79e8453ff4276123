"""Bit-exact file formats for matrices, databases, and query secrets.

Binary matrix container ("HHWM", version 1), little-endian throughout:

    offset  size  field
    0       4     magic b"HHWM"
    4       1     format version (1)
    5       4     p   characteristic (u32)
    9       4     e   subfield extension degree over F_p (u32)
    13      4     s   tower degree over F_{p^e}; 1 for base-field data (u32)
    17      4     rows (u32)
    21      4     cols (u32)
    25      ...   rows*cols elements, row major

Each element is the integer sum(coord_j * (p^e)^j) of its s subfield
coordinates, stored in ceil(bitlen(p^(e*s) - 1) / 8) little-endian bytes.
Readers reject anything malformed: wrong magic or version, composite p,
zero dimensions, payload length mismatches, or element values outside
[0, p^(e*s)).

Secrets travel separately as JSON so the public query file never contains
them; the attack surface takes only the binary query.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from .errors import MatrixFileError
from .fields import BasisSplit, FieldTower, is_prime
from .linalg import ExtMatrix, fq_rank
from .params import SchemeParams
from .scheme import Database, Query, QuerySecrets, Response

__all__ = [
    "MATRIX_MAGIC",
    "MATRIX_VERSION",
    "MatrixFileData",
    "bytes_per_element",
    "save_matrix",
    "load_matrix",
    "save_query",
    "load_query",
    "save_response",
    "load_response",
    "save_database",
    "load_database",
    "save_secrets",
    "load_secrets",
]

MATRIX_MAGIC = b"HHWM"
MATRIX_VERSION = 1
_HEADER = struct.Struct("<4sBIIIII")

SECRETS_FORMAT = "hhw-pir-secrets"
SECRETS_VERSION = 1

PathOrFile = Union[str, Path, BinaryIO]


def bytes_per_element(p: int, e: int, s: int) -> int:
    """Bytes needed for one element value in [0, p^(e*s))."""
    return ((p ** (e * s) - 1).bit_length() + 7) // 8


@dataclass(frozen=True)
class MatrixFileData:
    """Decoded contents of a matrix file: field shape plus coordinates."""

    p: int
    e: int
    s: int
    data: np.ndarray  # (rows, cols, s) int64, entries in [0, p^e)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def _writable(dest: PathOrFile):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "wb"), True


def _readable(src: PathOrFile):
    if hasattr(src, "read"):
        return src, False
    return open(src, "rb"), True


def save_matrix(dest: PathOrFile, array: np.ndarray, p: int, e: int, s: int) -> None:
    """Write coordinates of shape (rows, cols, s), or (rows, cols) when
    s == 1, to the binary container."""
    arr = np.asarray(array)
    if arr.ndim == 2 and s == 1:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3 or arr.shape[2] != s:
        raise MatrixFileError(f"expected (rows, cols, {s}) coordinates, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise MatrixFileError("refusing to write a matrix with a zero dimension")
    q = p**e
    if arr.size and (arr.min() < 0 or arr.max() >= q):
        raise MatrixFileError(f"coordinates must lie in [0, {q})")

    rows, cols = arr.shape[0], arr.shape[1]
    weights = (q ** np.arange(s, dtype=object)).astype(np.uint64)
    values = (arr.reshape(-1, s).astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    width = bytes_per_element(p, e, s)
    octets = values.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width]

    fh, owned = _writable(dest)
    try:
        fh.write(_HEADER.pack(MATRIX_MAGIC, MATRIX_VERSION, p, e, s, rows, cols))
        fh.write(octets.tobytes())
    finally:
        if owned:
            fh.close()


def load_matrix(src: PathOrFile) -> MatrixFileData:
    fh, owned = _readable(src)
    try:
        raw = fh.read()
    finally:
        if owned:
            fh.close()

    if len(raw) < _HEADER.size:
        raise MatrixFileError(f"file too short for a header: {len(raw)} bytes")
    magic, version, p, e, s, rows, cols = _HEADER.unpack_from(raw)
    if magic != MATRIX_MAGIC:
        raise MatrixFileError(f"bad magic {magic!r}")
    if version != MATRIX_VERSION:
        raise MatrixFileError(f"unsupported format version {version}")
    if not is_prime(p):
        raise MatrixFileError(f"header characteristic {p} is not prime")
    if e < 1 or s < 1:
        raise MatrixFileError(f"degrees must be positive, got e={e}, s={s}")
    if rows < 1 or cols < 1:
        raise MatrixFileError(f"dimensions must be positive, got {rows}x{cols}")
    # p >= 2: bound e*s first, so huge header degrees never build a huge power
    if e * s > 64 or p ** (e * s) > 1 << 64:
        raise MatrixFileError(f"field order p^(e*s) = {p}^{e * s} exceeds the supported 2^64")
    if p**e > 1 << 63:
        raise MatrixFileError(f"subfield order {p}^{e} does not fit int64 coordinates")

    width = bytes_per_element(p, e, s)
    expected = rows * cols * width
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise MatrixFileError(f"payload is {len(payload)} bytes, expected {expected}")

    octets = np.frombuffer(payload, dtype=np.uint8).reshape(-1, width)
    padded = np.zeros((octets.shape[0], 8), dtype=np.uint8)
    padded[:, :width] = octets
    values = padded.view("<u8").reshape(-1)

    limit = p ** (e * s)
    if limit < 1 << 64 and values.size and int(values.max()) >= limit:
        raise MatrixFileError(f"element value {int(values.max())} outside [0, {limit})")

    q = np.uint64(p**e)
    coords = np.empty((values.size, s), dtype=np.int64)
    rest = values.copy()
    for j in range(s):
        coords[:, j] = (rest % q).astype(np.int64)
        rest //= q
    return MatrixFileData(p=p, e=e, s=s, data=coords.reshape(rows, cols, s))


def _check_field(found: MatrixFileData, params: SchemeParams, s: int, what: str) -> None:
    if (found.p, found.e, found.s) != (params.p, params.e, s):
        raise MatrixFileError(
            f"{what} was written for field (p={found.p}, e={found.e}, s={found.s}), "
            f"expected (p={params.p}, e={params.e}, s={s})"
        )


def save_query(dest: PathOrFile, query: Query, params: SchemeParams) -> None:
    save_matrix(dest, query.matrix.data, params.p, params.e, params.s)


def load_query(src: PathOrFile, params: SchemeParams, tower: FieldTower) -> Query:
    found = load_matrix(src)
    _check_field(found, params, params.s, "query")
    expected = (params.m * params.delta, params.n)
    if (found.rows, found.cols) != expected:
        raise MatrixFileError(f"query is {found.rows}x{found.cols}, expected {expected[0]}x{expected[1]}")
    return Query(ExtMatrix(tower, found.data))


def save_response(dest: PathOrFile, response: Response, params: SchemeParams) -> None:
    save_matrix(dest, response.matrix.data, params.p, params.e, params.s)


def load_response(src: PathOrFile, params: SchemeParams, tower: FieldTower) -> Response:
    found = load_matrix(src)
    _check_field(found, params, params.s, "response")
    if found.cols != params.n:
        raise MatrixFileError(f"response has {found.cols} columns, expected {params.n}")
    return Response(ExtMatrix(tower, found.data))


def save_database(dest: PathOrFile, db: Database, params: SchemeParams) -> None:
    # files sit side by side: column block r holds file r+1, giving an
    # L x (m*delta) base-field matrix
    save_matrix(dest, db.stacked(), params.p, params.e, 1)


def load_database(src: PathOrFile, params: SchemeParams) -> Database:
    found = load_matrix(src)
    _check_field(found, params, 1, "database")
    expected = (params.L, params.m * params.delta)
    if (found.rows, found.cols) != expected:
        raise MatrixFileError(f"database is {found.rows}x{found.cols}, expected {expected[0]}x{expected[1]}")
    flat = found.data[:, :, 0]
    files = [flat[:, r * params.delta:(r + 1) * params.delta].copy() for r in range(params.m)]
    return Database(files)


def _coords_to_lists(data: np.ndarray) -> list:
    return data.astype(int).tolist()


def save_secrets(dest: Union[str, Path], secrets: QuerySecrets, params: SchemeParams) -> None:
    """Write the decode-side secrets as JSON (no layer matrices included)."""
    doc = {
        "format": SECRETS_FORMAT,
        "version": SECRETS_VERSION,
        "params": params.to_dict(),
        "target": secrets.target,
        "info_set": (secrets.info_set + 1).tolist(),  # 1-based on disk
        "split_v": secrets.split.v,
        "basis": _coords_to_lists(secrets.split.basis),
        "generator": _coords_to_lists(secrets.generator),
        "selector_block": _coords_to_lists(secrets.selector_block),
    }
    Path(dest).write_text(json.dumps(doc, indent=1) + "\n")


def _is_int(value) -> bool:
    """A JSON integer: true, false, floats and strings are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_coord_array(obj, shape: tuple[int, ...], q: int, what: str) -> np.ndarray:
    leaves = [obj]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(leaf)
        elif not _is_int(leaf):
            raise MatrixFileError(f"secrets field {what} is not an integer array: it holds {leaf!r}")
    try:
        arr = np.asarray(obj, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"secrets field {what} is not an integer array") from exc
    if arr.shape != shape:
        raise MatrixFileError(f"secrets field {what} has shape {arr.shape}, expected {shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= q):
        raise MatrixFileError(f"secrets field {what} has entries outside [0, {q})")
    return arr


def load_secrets(src: Union[str, Path], params: SchemeParams, tower: FieldTower) -> QuerySecrets:
    try:
        doc = json.loads(Path(src).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFileError(f"cannot parse secrets file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SECRETS_FORMAT:
        raise MatrixFileError("not a secrets file")
    if not _is_int(doc.get("version")) or doc["version"] != SECRETS_VERSION:
        raise MatrixFileError(f"unsupported secrets version {doc.get('version')}")

    if not isinstance(doc.get("params"), dict):
        raise MatrixFileError("secrets file has no params object")
    stored = SchemeParams.from_dict(doc["params"])
    if stored != params:
        raise MatrixFileError(f"secrets were generated for {stored}, expected {params}")

    s, n, k, delta, q = params.s, params.n, params.k, params.delta, params.q
    target = doc.get("target")
    if not _is_int(target) or not 1 <= target <= params.m:
        raise MatrixFileError(f"target {target!r} outside [1, {params.m}]")
    info = doc.get("info_set")
    if (not isinstance(info, list) or len(info) != k
            or not all(map(_is_int, info))):
        raise MatrixFileError(f"information set must list {k} column indices")
    split_v = doc.get("split_v")
    if not _is_int(split_v) or split_v != params.v:
        raise MatrixFileError(f"split width {split_v!r} does not match v={params.v}")

    basis = _as_coord_array(doc.get("basis"), (s, s), q, "basis")
    generator = _as_coord_array(doc.get("generator"), (k, n, s), q, "generator")
    selector = _as_coord_array(doc.get("selector_block"), (delta, n, s), q, "selector_block")

    if not (1 <= info[0] and info[-1] <= n and all(a < b for a, b in zip(info, info[1:]))):
        raise MatrixFileError(f"bad information set: {info} is not a strictly increasing list of columns in [1, {n}]")
    if fq_rank(basis, tower.fq) != s:
        raise MatrixFileError("basis matrix is singular")
    return QuerySecrets(
        generator=generator,
        info_set=np.array(info, dtype=np.int64) - 1,
        split=BasisSplit(basis=basis, v=params.v),
        target=target,
        selector_block=selector,
    )
