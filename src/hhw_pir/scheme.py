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
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .errors import DecodeFailure, DimensionMismatch, IndexOutOfRange, SamplingExhausted
from .fields import BasisSplit, FieldTower, sample_basis_split
from .linalg import (
    ExtMatrix,
    IndexSet,
    fq_inv_matrix,
    is_information_set,
    puncture,
    rank_ext,
    rank_fq,
    solve_on_columns,
)
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
    """Everything the client keeps private about one query.

    codeword_part, mask_part and selector_part are the three layers whose
    sum is the public query; selector_block is the delta x n nonzero block
    of selector_part, the only rows that carry the target file.
    """

    generator: ExtMatrix
    info_set: IndexSet
    split: BasisSplit
    target: int
    selector_block: ExtMatrix
    # The full layers are kept for in-process inspection but are not needed
    # to decode, so a secrets file restores them as None.
    codeword_part: ExtMatrix | None = None
    mask_part: ExtMatrix | None = None
    selector_part: ExtMatrix | None = None


def sample_code(params: SchemeParams, tower: FieldTower, rng: np.random.Generator) -> tuple[ExtMatrix, IndexSet]:
    """A uniform k-dimensional code of length n with a uniform information set.

    Generator matrices are rejection-sampled until full rank, which makes
    the row space uniform over k-dimensional subspaces; column sets are
    rejection-sampled until invertible, uniform over valid information
    sets of the drawn code.
    """
    k, n = params.k, params.n
    for _ in range(MAX_SAMPLING_TRIES):
        gen = ExtMatrix.random(tower, k, n, rng)
        if rank_ext(gen) == k:
            break
    else:
        raise SamplingExhausted("no full-rank generator found; RNG looks broken")
    for _ in range(MAX_SAMPLING_TRIES):
        choice = rng.permutation(n)[:k]
        columns = IndexSet(tuple(sorted(int(c) + 1 for c in choice)))
        if is_information_set(gen, columns):
            return gen, columns
    raise SamplingExhausted("no information set found; RNG looks broken")


def generate_query(params: SchemeParams, tower: FieldTower, target: int, rng: np.random.Generator) -> tuple[Query, QuerySecrets]:
    """Build the query for file ``target`` (1-based) and its secrets."""
    if (tower.p, tower.e, tower.s) != (params.p, params.e, params.s):
        raise DimensionMismatch(f"tower {tower} does not match params (p={params.p}, e={params.e}, s={params.s})")
    if not 1 <= target <= params.m:
        raise IndexOutOfRange(f"target must be in [1, {params.m}], got {target}")
    fq = tower.fq
    delta, n, k, s, v = params.delta, params.n, params.k, params.s, params.v
    total_rows = params.block_rows

    gen, info_set = sample_code(params, tower, rng)
    split = sample_basis_split(tower, v, rng)
    outside = info_set.complement(n).zero_based()

    # codeword layer: uniform coefficient rows times the generator
    coeffs = tower.rand(rng, (total_rows, k))
    codeword = tower.matmul(coeffs, gen.data)

    # mask layer: uniform V-entries on the columns outside the information set
    mask = np.zeros((total_rows, n, s), dtype=np.int64)
    v_coeff = fq.rand(rng, (total_rows, len(outside), v))
    mask[:, outside, :] = fq.matmul(v_coeff.reshape(-1, v), split.basis[:v]).reshape(total_rows, len(outside), s)

    # selector layer: W-entries in row block ``target`` whose subfield rank is full
    for _ in range(MAX_SAMPLING_TRIES):
        w_coeff = fq.rand(rng, (delta, len(outside), s - v))
        block = fq.matmul(w_coeff.reshape(-1, s - v), split.basis[v:]).reshape(delta, len(outside), s)
        if rank_fq(ExtMatrix(tower, block)) == delta:
            break
    else:
        raise SamplingExhausted("no full-rank selector block found; RNG looks broken")
    selector = np.zeros((total_rows, n, s), dtype=np.int64)
    lo = (target - 1) * delta
    sel_rows = np.zeros((delta, n, s), dtype=np.int64)
    sel_rows[:, outside, :] = block
    selector[lo : lo + delta] = sel_rows

    query_data = fq.vadd(fq.vadd(codeword, mask), selector)
    secrets = QuerySecrets(
        generator=gen,
        info_set=info_set,
        split=split,
        target=target,
        codeword_part=ExtMatrix(tower, codeword),
        mask_part=ExtMatrix(tower, mask),
        selector_part=ExtMatrix(tower, selector),
        selector_block=ExtMatrix(tower, sel_rows),
    )
    return Query(ExtMatrix(tower, query_data)), secrets


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
    outside = info_set.complement(n).zero_based()

    coeff = solve_on_columns(gen, info_set, puncture(A, info_set))
    remainder = fq.vsub(A.data[:, outside, :], tower.matmul(coeff.data, gen.data[:, outside, :]))

    basis_inv = fq_inv_matrix(secrets.split.basis, fq)
    L = remainder.shape[0]
    width = len(outside)
    split_coords = fq.matmul(remainder.reshape(L * width, s), basis_inv).reshape(L, width, s)
    w_coords = split_coords[:, :, v:].reshape(L, delta)

    sel_out = secrets.selector_block.data[:, outside, :]
    sel_coords = fq.matmul(sel_out.reshape(delta * width, s), basis_inv).reshape(delta, width, s)
    if np.any(sel_coords[:, :, :v]):
        raise DecodeFailure("selector block leaks outside the W part of the split")
    try:
        # delta x delta by the reshape, so a ValueError means singular
        sel_inv = fq_inv_matrix(sel_coords[:, :, v:].reshape(delta, delta), fq)
    except ValueError as exc:
        raise DecodeFailure("selector block coordinate matrix is singular") from exc
    return fq.matmul(w_coords, sel_inv)
