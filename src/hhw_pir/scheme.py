"""The single-server PIR protocol: query generation, response, decoding.

The database holds m files, each an L x delta matrix over F_q.  A query
for file i is Q = D + E + Z, an (m*delta) x n matrix over F_q^s built
from three layers sharing a secret random code C with generator G and
information set I and a secret basis split V + W of F_q^s:

  * every row of D is a codeword of C,
  * E has entries in V and is zero on the columns in I,
  * Z is zero outside row block i and outside the complement of I; its
    entries lie in W and its block has full subfield rank delta.

The server answers with A = [X^1 ... X^m] @ Q, treating file entries as
F_q scalars.  X never changes between queries, so a Database is
preprocessed once: its files live in one read-only int64 array, and on
first use with a field it keeps the F_p digit matrix of X beside it, an
L x (m*delta*e) float array of 4 bytes an entry while the product runs
in float32 (else 8), against the 8 bytes an entry of the array.  Each
respond is then one product of those digits with the F_p blow-up of Q.

Because rows of D are codewords and E, Z vanish on I, the client can
rebuild the codeword layer of A from its I columns alone, subtract it,
project what remains onto W to erase E, and invert the delta x delta
coordinate matrix of the Z block to recover file i exactly.

Matrices over F_q^s are (rows, cols, s) coordinate arrays throughout and
information sets are sorted 0-based column arrays; only the public query
and the response travel as ExtMatrix, a tower with its coordinate array.
generate_queries builds the queries of many RNG streams as one stack
(QueryBatch); generate_query is that stack for one stream.  The layers
are never stored: generation adds the E and Z entries into D in place.
"""

from __future__ import annotations

import operator

import numpy as np

from dataclasses import dataclass

from .errors import BadArguments, DecodeFailure, DimensionMismatch, IndexOutOfRange
from .fields import (
    BasisSplit,
    FieldTower,
    Fq,
    _encodings,
    fq_rank,
    product_dtype,
    redraw_rejected,
    residue_matmul,
    sample_split_bases,
)
from .linalg import ExtMatrix, ext_rank, fq_inv_matrix, solve_on_columns
from .params import SchemeParams

# Retry cap for rejection sampling of codes and information sets.
MAX_SAMPLING_TRIES = 10**6


class Database:
    """m files of identical shape (L, delta), entries encoded over F_q, stored side by side.

    The files live in one read-only (L, m*delta) int64 array, copied once
    at construction; ``files`` are read-only column views of it and
    ``stacked()`` is the array itself.  On first use with a field F_q,
    ``digits`` builds the F_p digit matrix that respond multiplies and
    keeps it keyed by (p, e).  Storage never changes, so the digits never
    go stale.  The digit matrix costs L*m*delta*e floats (4 bytes each
    while its products run in float32, else 8) beside the 8*L*m*delta
    bytes of the array.
    """

    def __init__(self, files):
        files = [np.asarray(f, dtype=np.int64) for f in files]
        shapes = {f.shape for f in files}
        if len(shapes) != 1 or len(min(shapes)) != 2:
            raise DimensionMismatch(f"files must share one 2-D shape, got {sorted(shapes)}")
        self._data = np.concatenate(files, axis=1)
        self._data.setflags(write=False)
        self.files = np.split(self._data, len(files), axis=1)
        self._digits: dict[tuple[int, int], np.ndarray] = {}

    @property
    def file_count(self) -> int:
        return len(self.files)

    def stacked(self) -> np.ndarray:
        """All files side by side: the read-only (L, m*delta) F_q matrix."""
        return self._data

    def digits(self, fq: Fq) -> np.ndarray:
        """The read-only (L, m*delta*e) F_p digits of the stored entries, built on first use with (p, e).

        Entry (l, c) contributes its e base-p digits, least significant
        first, at columns c*e .. c*e + e - 1, in the float dtype that
        residue_matmul multiplies for that inner length, so a product with
        the F_p blow-up of a query takes them as they are.  An entry
        outside [0, q) raises CoordinateOutOfRange, a ValueError.
        """
        key = (fq.p, fq.e)
        if key not in self._digits:
            rows, cols = self._data.shape
            digits = fq.to_digits(_encodings(self._data, fq)).reshape(rows, cols * fq.e)
            digits = digits.astype(product_dtype(fq.p, cols * fq.e))
            digits.setflags(write=False)
            self._digits[key] = digits
        return self._digits[key]

    @classmethod
    def random(cls, params: SchemeParams, rng: np.random.Generator) -> "Database":
        return cls([rng.integers(0, params.q, size=(params.L, params.delta), dtype=np.int64) for _ in range(params.m)])

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return self.file_count == other.file_count and np.array_equal(self._data, other._data)


@dataclass
class Query:
    """The public query matrix sent to the server."""

    matrix: ExtMatrix


@dataclass
class Response:
    """The server's answer, an L x n matrix over F_q^s."""

    matrix: ExtMatrix


@dataclass
class QuerySecrets:
    """Everything the client keeps private about one query, as coordinate arrays.

    selector_block is the delta x n block of the selector layer, the only
    rows of the query that carry the target file; it sits in rows
    (target - 1)*delta .. target*delta - 1.
    """

    generator: np.ndarray  # (k, n, s)
    info_set: np.ndarray  # (k,) sorted 0-based columns
    split: BasisSplit
    target: int
    selector_block: np.ndarray  # (delta, n, s)


# The rejection-sampling phases of query generation, in draw order; each
# counts its draws per stream in QueryBatch.draws.
DRAW_PHASES = ("generator", "info_set", "basis", "selector")


@dataclass
class QueryBatch:
    """Queries of several RNG streams, stacked along a leading axis.

    data is the public query stack, the only full-size array a batch
    holds; the other arrays are the secrets of each query: generators,
    sorted 0-based information sets, split bases and selector blocks.
    draws[b] counts the draws stream b made in each of DRAW_PHASES.
    """

    data: np.ndarray  # (count, m*delta, n, s)
    generator: np.ndarray  # (count, k, n, s)
    info_set: np.ndarray  # (count, k)
    basis: np.ndarray  # (count, s, s)
    selector_block: np.ndarray  # (count, delta, n, s)
    draws: np.ndarray  # (count, len(DRAW_PHASES))


def sample_codes(params: SchemeParams, tower: FieldTower, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A uniform k-dimensional code of length n with a uniform information set, per RNG stream.

    Generator matrices are rejection-sampled until full rank, which makes
    the row space uniform over k-dimensional subspaces; column sets are
    rejection-sampled until invertible, uniform over valid information
    sets of the drawn code.  Both tests run on the stack of pending
    streams (fields.redraw_rejected).

    Returns the (count, k, n, s) generators, the (count, k) sorted 0-based
    information sets and the draws each stream made in the two phases.
    """
    k, n = params.k, params.n
    gens, gen_draws = redraw_rejected(
        rngs,
        lambda rng: tower.rand(rng, (k, n)),
        lambda _, candidates: ext_rank(candidates, tower) == k,
        MAX_SAMPLING_TRIES,
        "no full-rank generator found; RNG looks broken",
    )

    def invertible(streams, columns):
        picked = gens[streams[:, None], :, columns].swapaxes(1, 2)
        return ext_rank(picked, tower) == k

    columns, column_draws = redraw_rejected(
        rngs,
        lambda rng: np.sort(rng.permutation(n)[:k]),
        invertible,
        MAX_SAMPLING_TRIES,
        "no information set found; RNG looks broken",
    )
    return gens, columns, (gen_draws, column_draws)


def sample_code(params: SchemeParams, tower: FieldTower, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """sample_codes for one stream: a (k, n, s) generator and its sorted 0-based information set."""
    gens, columns, _ = sample_codes(params, tower, [rng])
    return gens[0], columns[0]


def generate_queries(params: SchemeParams, tower: FieldTower, targets, rngs) -> QueryBatch:
    """Queries for the 1-based files ``targets``, one per RNG stream in ``rngs``.

    Each phase draws for every pending stream and redraws only the
    rejected ones, so each stream draws in the same order as it would
    alone, and its query depends on nothing but its own stream.  A target
    that is not an integer, a bool among them, raises BadArguments, and
    one outside [1, m] raises IndexOutOfRange.
    """
    if (tower.p, tower.e, tower.s) != (params.p, params.e, params.s):
        raise DimensionMismatch(f"tower {tower} does not match params (p={params.p}, e={params.e}, s={params.s})")
    if len(targets) != len(rngs):
        raise DimensionMismatch(f"{len(targets)} targets for {len(rngs)} RNG streams")
    for target in targets:
        if isinstance(target, bool) or not hasattr(type(target), "__index__"):
            raise BadArguments(f"target must be an integer, got {target!r}")
        if not 1 <= operator.index(target) <= params.m:
            raise IndexOutOfRange(f"target must be in [1, {params.m}], got {target}")
    targets = [operator.index(target) for target in targets]
    fq = tower.fq
    delta, n, k, s, v = params.delta, params.n, params.k, params.s, params.v
    total_rows, count = params.block_rows, len(rngs)

    gens, info_sets, code_draws = sample_codes(params, tower, rngs)
    bases, basis_draws = sample_split_bases(tower, v, rngs)
    all_streams = np.arange(count)[:, None]
    inside = np.zeros((count, n), dtype=bool)
    inside[all_streams, info_sets] = True
    outside = np.nonzero(~inside)[1].reshape(count, n - k)

    # codeword layer: uniform coefficient rows times the generator, which becomes
    # the query; noise: the mask layer's uniform V-entries on the columns outside I
    coeffs, v_coeffs = [], []
    for rng in rngs:
        coeffs.append(tower.rand(rng, (total_rows, k)))
        v_coeffs.append(fq.rand(rng, (total_rows, n - k, v)))
    data = tower.matmul(np.array(coeffs), gens)
    noise = fq.matmul(np.array(v_coeffs).reshape(count, -1, v), bases[:, :v]).reshape(count, total_rows, n - k, s)

    # selector layer: W-entries in row block ``target`` whose subfield rank is full
    blocks = np.zeros((count, delta, n - k, s), dtype=np.int64)  # of each stream's latest draw

    def full_rank(streams, w_coeffs):
        entries = fq.matmul(w_coeffs.reshape(len(streams), delta * (n - k), s - v), bases[streams, v:])
        blocks[streams] = entries.reshape(len(streams), delta, n - k, s)
        return fq_rank(entries.reshape(len(streams), delta, (n - k) * s), fq) == delta

    _, selector_draws = redraw_rejected(
        rngs,
        lambda rng: fq.rand(rng, (delta, n - k, s - v)),
        full_rank,
        MAX_SAMPLING_TRIES,
        "no full-rank selector block found; RNG looks broken",
    )
    # the selector block goes into its stream's target rows, and mask and
    # selector, both zero on I, into the codeword layer's outside columns
    target_rows = (np.array(targets, dtype=np.int64)[:, None] - 1) * delta + np.arange(delta)
    noise[all_streams, target_rows] = fq.vadd(noise[all_streams, target_rows], blocks)
    data[all_streams, :, outside] = fq.vadd(data[all_streams, :, outside], noise.swapaxes(1, 2))
    selector_block = np.zeros((count, delta, n, s), dtype=np.int64)
    selector_block[all_streams, :, outside] = blocks.swapaxes(1, 2)

    return QueryBatch(
        data=data,
        generator=gens,
        info_set=info_sets,
        basis=bases,
        selector_block=selector_block,
        draws=np.array([*code_draws, basis_draws, selector_draws]).T,
    )


def generate_query(params: SchemeParams, tower: FieldTower, target: int, rng: np.random.Generator) -> tuple[Query, QuerySecrets]:
    """Build the query for file ``target`` (1-based) and its secrets: generate_queries for one stream."""
    batch = generate_queries(params, tower, [target], [rng])
    secrets = QuerySecrets(
        generator=batch.generator[0],
        info_set=batch.info_set[0],
        split=BasisSplit(basis=batch.basis[0], v=params.v),
        target=operator.index(target),
        selector_block=batch.selector_block[0],
    )
    return Query(ExtMatrix(tower, batch.data[0])), secrets


def respond(db: Database, query: Query, params: SchemeParams, tower: FieldTower) -> Response:
    """Server side: A = [X^1 ... X^m] @ Q, the stacked database times the query matrix.

    File entries are F_q scalars and act on each coordinate of Q alike,
    so the product is one residue_matmul: the database's F_p digits
    (Database.digits, built once per database and field) times the F_p
    blow-up of the (m*delta, n*s) F_q matrix of Q's coordinates (Q itself
    for e = 1), whose output digits are then encoded.  An entry outside
    [0, q) raises CoordinateOutOfRange, a ValueError.
    """
    qm, fq = query.matrix, tower.fq
    rows, cols = db.stacked().shape
    if cols != qm.rows or qm.cols != params.n or db.file_count != params.m:
        raise DimensionMismatch(
            f"database {(rows, cols)} with {db.file_count} files does not fit query {qm.shape} under m={params.m}, n={params.n}"
        )
    coords = qm.data.reshape(qm.rows, qm.cols * tower.s)
    out = residue_matmul(db.digits(fq), fq.blow_up(coords) if fq.e > 1 else coords, fq.p)
    return Response(ExtMatrix(tower, fq._encode(out.reshape(rows, -1, fq.e)).reshape(rows, qm.cols, tower.s)))


def decode(response: Response, secrets: QuerySecrets, params: SchemeParams, tower: FieldTower) -> np.ndarray:
    """Recover the target file from a response, exactly.

    Decoding is one F_q-linear map of the response, read as an L x (n*s)
    F_q matrix of coordinates, built from the secrets as an (n*s) x delta
    matrix.  Its steps: rebuild the codeword layer's contribution from the
    information set columns and subtract it on the complement columns, the
    only ones the projection reads; express what remains in the split
    basis and keep the trailing (W) coordinates, which erases the mask
    layer; multiply those delta coordinates by the inverse of the selector
    block's coordinate matrix.  They run once, on the n*s unit rows (row
    c*s + j holds x^j in column c), whose images are the rows of the map;
    the L rows of the response then take one product with it.

    Returns the (L, delta) F_q matrix of the target file.  A selection
    that is not an information set raises NotInformationSet, and a
    selector block that leaves W or whose coordinate matrix is singular
    raises DecodeFailure.
    """
    fq = tower.fq
    n, s, v, delta = params.n, params.s, params.v, params.delta
    A = response.matrix
    if A.cols != n:
        raise DimensionMismatch(f"response has {A.cols} columns, expected {n}")
    gen, info_set = secrets.generator, secrets.info_set
    outside = np.delete(np.arange(n), info_set)
    units = np.eye(n * s, dtype=np.int64).reshape(n * s, n, s)

    coeff = solve_on_columns(gen, info_set, units[:, info_set], tower)
    remainder = fq.vsub(units[:, outside], tower.matmul(coeff, gen[:, outside]))

    # the remainder rows and the selector block's rows, in the split basis by one product
    sel_out = secrets.selector_block[:, outside]
    stacked = np.concatenate([remainder.reshape(-1, s), sel_out.reshape(-1, s)])
    coords = fq.matmul(stacked, fq_inv_matrix(secrets.split.basis, fq)).reshape(-1, len(outside), s)
    w_coords, sel_coords = coords[: n * s, :, v:].reshape(n * s, delta), coords[n * s :]
    if np.any(sel_coords[:, :, :v]):
        raise DecodeFailure("selector block leaks outside the W part of the split")
    try:
        # delta x delta by the reshape, so a ValueError means singular
        sel_inv = fq_inv_matrix(sel_coords[:, :, v:].reshape(delta, delta), fq)
    except ValueError as exc:
        raise DecodeFailure("selector block coordinate matrix is singular") from exc
    return fq.matmul(A.data.reshape(A.rows, n * s), fq.matmul(w_coords, sel_inv))
