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
F_q scalars.  Because rows of D are codewords and E, Z vanish on I, the
client can rebuild the codeword layer of A from its I columns alone,
subtract it, project what remains onto W to erase E, and invert the
delta x delta coordinate matrix of the Z block to recover file i exactly.

Matrices over F_q^s are (rows, cols, s) coordinate arrays throughout and
information sets are sorted 0-based column arrays; only the public query
and the response travel as ExtMatrix, a tower with its coordinate array.
generate_queries builds the queries of many RNG streams as one stack
(QueryBatch); generate_query is that stack for one stream.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .errors import DecodeFailure, DimensionMismatch, IndexOutOfRange
from .fields import BasisSplit, FieldTower, fq_rank, redraw_rejected, sample_split_bases
from .linalg import ExtMatrix, ext_rank, fq_inv_matrix, solve_on_columns
from .params import SchemeParams

# Retry cap for rejection sampling of codes and information sets.
MAX_SAMPLING_TRIES = 10**6


@dataclass
class Database:
    """m files of identical shape (L, delta), entries encoded over F_q."""

    files: list[np.ndarray]

    def __post_init__(self):
        self.files = [np.asarray(f, dtype=np.int64) for f in self.files]
        shapes = {f.shape for f in self.files}
        if len(shapes) > 1:
            raise DimensionMismatch(f"files disagree on shape: {sorted(shapes)}")

    @property
    def file_count(self) -> int:
        return len(self.files)

    def stacked(self) -> np.ndarray:
        """All files side by side: an (L, m*delta) F_q matrix."""
        return np.concatenate(self.files, axis=1)

    @classmethod
    def random(cls, params: SchemeParams, rng: np.random.Generator) -> "Database":
        return cls([rng.integers(0, params.q, size=(params.L, params.delta), dtype=np.int64) for _ in range(params.m)])

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return len(self.files) == len(other.files) and all(np.array_equal(a, b) for a, b in zip(self.files, other.files))


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

    codeword_part, mask_part and selector_part are the three layers whose
    sum is the public query; selector_block is the delta x n nonzero block
    of selector_part, the only rows that carry the target file.
    """

    generator: np.ndarray  # (k, n, s)
    info_set: np.ndarray  # (k,) sorted 0-based columns
    split: BasisSplit
    target: int
    selector_block: np.ndarray  # (delta, n, s)
    # The full layers, each (m*delta, n, s), are kept for in-process
    # inspection but are not needed to decode, so a secrets file restores
    # them as None.
    codeword_part: np.ndarray | None = None
    mask_part: np.ndarray | None = None
    selector_part: np.ndarray | None = None


# The rejection-sampling phases of query generation, in draw order; each
# counts its draws per stream in QueryBatch.draws.
DRAW_PHASES = ("generator", "info_set", "basis", "selector")


@dataclass
class QueryBatch:
    """Queries of several RNG streams, stacked along a leading axis.

    data is the public query stack and the other arrays are the secrets
    of each query: generators, sorted 0-based information sets, split
    bases, selector blocks and the three layers whose sum is data.
    draws[b] counts the draws stream b made in each of DRAW_PHASES.
    """

    data: np.ndarray  # (count, m*delta, n, s)
    generator: np.ndarray  # (count, k, n, s)
    info_set: np.ndarray  # (count, k)
    basis: np.ndarray  # (count, s, s)
    selector_block: np.ndarray  # (count, delta, n, s)
    codeword: np.ndarray  # (count, m*delta, n, s)
    mask: np.ndarray
    selector: np.ndarray
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


def _scatter_columns(values: np.ndarray, columns: np.ndarray, n: int) -> np.ndarray:
    """(count, rows, n, s) zeros holding values[b] (count, rows, len, s) at columns[b]."""
    count, rows, _, s = values.shape
    out = np.zeros((count, rows, n, s), dtype=np.int64)
    out[np.arange(count)[:, None], :, columns] = values.swapaxes(1, 2)
    return out


def generate_queries(params: SchemeParams, tower: FieldTower, targets, rngs) -> QueryBatch:
    """Queries for the 1-based files ``targets``, one per RNG stream in ``rngs``.

    Each phase draws for every pending stream and redraws only the
    rejected ones, so each stream draws in the same order as it would
    alone, and its query depends on nothing but its own stream.
    """
    if (tower.p, tower.e, tower.s) != (params.p, params.e, params.s):
        raise DimensionMismatch(f"tower {tower} does not match params (p={params.p}, e={params.e}, s={params.s})")
    if len(targets) != len(rngs):
        raise DimensionMismatch(f"{len(targets)} targets for {len(rngs)} RNG streams")
    for target in targets:
        if not 1 <= target <= params.m:
            raise IndexOutOfRange(f"target must be in [1, {params.m}], got {target}")
    fq = tower.fq
    delta, n, k, s, v, m = params.delta, params.n, params.k, params.s, params.v, params.m
    total_rows, count = params.block_rows, len(rngs)

    gens, info_sets, code_draws = sample_codes(params, tower, rngs)
    bases, basis_draws = sample_split_bases(tower, v, rngs)
    inside = np.zeros((count, n), dtype=bool)
    inside[np.arange(count)[:, None], info_sets] = True
    outside = np.nonzero(~inside)[1].reshape(count, n - k)

    # codeword layer: uniform coefficient rows times the generator;
    # mask layer: uniform V-entries on the columns outside the information set
    coeffs, v_coeffs = [], []
    for rng in rngs:
        coeffs.append(tower.rand(rng, (total_rows, k)))
        v_coeffs.append(fq.rand(rng, (total_rows, n - k, v)))
    codeword = tower.matmul(np.array(coeffs), gens)
    masked = fq.matmul(np.array(v_coeffs).reshape(count, total_rows * (n - k), v), bases[:, :v])
    mask = _scatter_columns(masked.reshape(count, total_rows, n - k, s), outside, n)

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
    sel_rows = _scatter_columns(blocks, outside, n)
    selector = np.zeros((count, m, delta, n, s), dtype=np.int64)
    selector[np.arange(count), np.asarray(targets) - 1] = sel_rows
    selector = selector.reshape(count, total_rows, n, s)

    return QueryBatch(
        data=fq.vadd(fq.vadd(codeword, mask), selector),
        generator=gens,
        info_set=info_sets,
        basis=bases,
        selector_block=sel_rows,
        codeword=codeword,
        mask=mask,
        selector=selector,
        draws=np.array([*code_draws, basis_draws, selector_draws]).T,
    )


def generate_query(params: SchemeParams, tower: FieldTower, target: int, rng: np.random.Generator) -> tuple[Query, QuerySecrets]:
    """Build the query for file ``target`` (1-based) and its secrets: generate_queries for one stream."""
    batch = generate_queries(params, tower, [target], [rng])
    secrets = QuerySecrets(
        generator=batch.generator[0],
        info_set=batch.info_set[0],
        split=BasisSplit(basis=batch.basis[0], v=params.v),
        target=target,
        codeword_part=batch.codeword[0],
        mask_part=batch.mask[0],
        selector_part=batch.selector[0],
        selector_block=batch.selector_block[0],
    )
    return Query(ExtMatrix(tower, batch.data[0])), secrets


def respond(db: Database, query: Query, params: SchemeParams, tower: FieldTower) -> Response:
    """Server side: multiply the stacked database into the query matrix."""
    stacked = db.stacked()
    qm = query.matrix
    if stacked.shape[1] != qm.rows or qm.cols != params.n or db.file_count != params.m:
        raise DimensionMismatch(
            f"database {stacked.shape} with {db.file_count} files does not fit query {qm.shape} under m={params.m}, n={params.n}"
        )
    if np.any(stacked >= params.q) or np.any(stacked < 0):
        raise ValueError("database entries must be F_q encodings")
    return Response(ExtMatrix(tower, tower.scalar_matmul(stacked, qm.data)))


def decode(response: Response, secrets: QuerySecrets, params: SchemeParams, tower: FieldTower) -> np.ndarray:
    """Recover the target file from a response, exactly.

    Steps: rebuild the codeword layer's contribution from the information
    set columns and subtract it on the complement columns, the only ones
    the projection reads; express what remains in the split basis and keep
    the trailing (W) coordinates, which erases the mask layer; stack those
    coordinates into L x delta over F_q and multiply by the inverse of the
    selector block's coordinate matrix.

    Returns the (L, delta) F_q matrix of the target file.
    """
    fq = tower.fq
    n, s, v, delta = params.n, params.s, params.v, params.delta
    A = response.matrix
    if A.cols != n:
        raise DimensionMismatch(f"response has {A.cols} columns, expected {n}")
    gen, info_set = secrets.generator, secrets.info_set
    outside = np.delete(np.arange(n), info_set)

    coeff = solve_on_columns(gen, info_set, A.data[:, info_set], tower)
    remainder = fq.vsub(A.data[:, outside], tower.matmul(coeff, gen[:, outside]))

    basis_inv = fq_inv_matrix(secrets.split.basis, fq)
    L = remainder.shape[0]
    width = len(outside)
    split_coords = fq.matmul(remainder.reshape(L * width, s), basis_inv).reshape(L, width, s)
    w_coords = split_coords[:, :, v:].reshape(L, delta)

    sel_out = secrets.selector_block[:, outside]
    sel_coords = fq.matmul(sel_out.reshape(delta * width, s), basis_inv).reshape(delta, width, s)
    if np.any(sel_coords[:, :, :v]):
        raise DecodeFailure("selector block leaks outside the W part of the split")
    try:
        # delta x delta by the reshape, so a ValueError means singular
        sel_inv = fq_inv_matrix(sel_coords[:, :, v:].reshape(delta, delta), fq)
    except ValueError as exc:
        raise DecodeFailure("selector block coordinate matrix is singular") from exc
    return fq.matmul(w_coords, sel_inv)
