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

The client computes on base-p digits, like the server.  Generation blows
each generator draw up to its F_p regular representation once
(FieldTower.blow_up) and keeps the accepted ones: their rank, the rank of
their information-set column blocks and the codeword product all read
that one blow-up.  Decoding composes its three eliminations into one
(n*s*e) x (delta*e) F_p matrix and encodes only the decoded file.

Matrices over F_q^s are (rows, cols, s) coordinate arrays throughout and
information sets are sorted 0-based column arrays; only the public query
and the response travel as ExtMatrix, a tower with its coordinate array.
generate_queries builds the queries of many RNG streams as one stack
(QueryBatch); generate_query is that stack for one stream.  The layers
are never stored: generation adds the E and Z entries into D in place.

After its generator and information set, a stream reads uniform F_q
values only, in a fixed order: basis candidates until one is invertible,
the codeword and mask coefficients, then selector candidates until one
has full rank.  They are one run of the stream (fields.UniformRun).  One
rng.integers call of a + b values gives the values of two calls of a and
b and leaves the bit generator in the same state, so each call draws
every value the stream is certain to read next: after a basis
candidate, the coefficients and one selector candidate; after a
selector candidate, nothing.  Queries, draw counts and the RNG's state
after the call are those of one call per candidate and coefficient
array, in fewer calls: at the tight base of the sweep, about 3.3 a
query against 7.4.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .errors import BadArguments, CoordinateOutOfRange, DecodeFailure, DimensionMismatch, IndexOutOfRange, NotInformationSet
from .fields import (
    FieldTower,
    Fq,
    UniformRun,
    _encodings,
    as_integer,
    digit_dtype,
    fq_echelon,
    fq_inv_matrix,
    fq_rank,
    integer_array,
    product_dtype,
    redraw_rejected,
    residue_matmul,
    sample_split_bases,
)
from .linalg import ExtMatrix
from .params import SchemeParams


class Database:
    """m files of identical shape (L, delta), entries encoded over F_q, stored side by side.

    The files live in one read-only (L, m*delta) int64 array, copied once
    at construction from integer arrays (a float, bool or object file
    raises CoordinateOutOfRange, fields.integer_array); ``files`` are
    read-only column views of it and ``stacked()`` is the array itself.
    On first use with a field F_q, ``digits`` builds the F_p digit matrix
    that respond multiplies and keeps it keyed by (p, e).  Storage never
    changes, so the digits never go stale.  The digit matrix costs
    L*m*delta*e floats (4 bytes each while its products run in float32,
    else 8) beside the 8*L*m*delta bytes of the array.
    """

    def __init__(self, files):
        files = [np.asarray(f) for f in files]
        shapes = {f.shape for f in files}
        if len(shapes) != 1 or len(min(shapes)) != 2:
            raise DimensionMismatch(f"files must share one 2-D shape, got {sorted(shapes)}")
        files = [integer_array(f, None, CoordinateOutOfRange, "file entries") for f in files]
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

    basis holds a basis of F_q^s over F_q a vector a row: its first v rows
    span V, the rest W.  selector_block is the delta x n block of the
    selector layer, the only rows of the query that carry the target file;
    it sits in rows (target - 1)*delta .. target*delta - 1.
    """

    generator: np.ndarray  # (k, n, s)
    info_set: np.ndarray  # (k,) sorted 0-based columns
    basis: np.ndarray  # (s, s) F_q encodings, invertible
    target: int
    selector_block: np.ndarray  # (delta, n, s)


# The rejection-sampling phases of query generation, in draw order; each
# counts its draws per stream in QueryBatch.draws.
DRAW_PHASES = ("generator", "info_set", "basis", "selector")


@dataclass
class QueryBatch:
    """Queries of several RNG streams, stacked along a leading axis.

    data is the public query stack, the only full-size array a batch
    holds; the other arrays are the secrets of each query as F_q
    encodings: generators, sorted 0-based information sets, split bases
    and selector blocks.  The F_p blow-ups that generation ranks and
    multiplies by are not kept.  draws[b] counts the draws stream b made
    in each of DRAW_PHASES.
    """

    data: np.ndarray  # (count, m*delta, n, s)
    generator: np.ndarray  # (count, k, n, s)
    info_set: np.ndarray  # (count, k)
    basis: np.ndarray  # (count, s, s)
    selector_block: np.ndarray  # (count, delta, n, s)
    draws: np.ndarray  # (count, len(DRAW_PHASES))

    def query(self, tower: FieldTower, b: int, target: int) -> tuple[Query, QuerySecrets]:
        """Stream b's public query and its secrets, for the 1-based file ``target`` it was built for."""
        secrets = QuerySecrets(
            generator=self.generator[b],
            info_set=self.info_set[b],
            basis=self.basis[b],
            target=int(target),
            selector_block=self.selector_block[b],
        )
        return Query(ExtMatrix(tower, self.data[b])), secrets


def sample_codes(params: SchemeParams, tower: FieldTower, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """A uniform k-dimensional code of length n with a uniform information set, per RNG stream.

    Generator matrices are rejection-sampled until full rank, which makes
    the row space uniform over k-dimensional subspaces; column sets are
    rejection-sampled until invertible, uniform over valid information
    sets of the drawn code.  Both tests run on the stack of pending
    streams (fields.redraw_rejected) over F_p: each generator draw is
    blown up once (FieldTower.blow_up, d = s*e), its rank is the rank of
    that blow-up over d, and the blow-up of its columns I is the I column
    blocks of it.  A stream still rejected after fields.MAX_SAMPLING_TRIES
    draws in either phase raises SamplingExhausted.

    Returns the (count, k, n, s) generators, the (count, k) sorted 0-based
    information sets, the (count, k*d, n*d) blow-ups of the generators in
    the narrowest unsigned dtype that holds p - 1 (fields.digit_dtype) and
    the draws each stream made in the two phases.
    """
    k, n, fp = params.k, params.n, tower.fq.fp
    d = tower.s * tower.e
    blown = np.empty((len(rngs), k * d, n * d), dtype=digit_dtype(tower.p))  # of each stream's latest draw

    def full_rank(streams, candidates):
        big = tower.blow_up(candidates)
        blown[streams] = big
        return fq_rank(big, fp) == k * d

    gens, gen_draws = redraw_rejected(
        rngs,
        lambda rng: tower.rand(rng, (k, n)),
        full_rank,
        "no full-rank generator found; RNG looks broken",
    )

    def invertible(streams, columns):
        picked = blown.reshape(-1, k * d, n, d)[streams[:, None], :, columns]  # (streams, k, k*d, d)
        return fq_rank(picked.swapaxes(1, 2).reshape(len(streams), k * d, k * d), fp) == k * d

    columns, column_draws = redraw_rejected(
        rngs,
        lambda rng: np.sort(rng.permutation(n)[:k]),
        invertible,
        "no information set found; RNG looks broken",
    )
    return gens, columns, blown, (gen_draws, column_draws)


def sample_code(params: SchemeParams, tower: FieldTower, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """sample_codes for one stream: a (k, n, s) generator and its sorted 0-based information set."""
    gens, columns, _, _ = sample_codes(params, tower, [rng])
    return gens[0], columns[0]


def generate_queries(params: SchemeParams, tower: FieldTower, targets, rngs) -> QueryBatch:
    """Queries for the 1-based files ``targets``, one per RNG stream in ``rngs``.

    Each phase draws for every pending stream and redraws only the
    rejected ones, so each stream draws in the same order as it would
    alone, and its query depends on nothing but its own stream.  Past the
    information set a stream reads its basis, coefficients and selector
    off one UniformRun, which leaves its RNG as one call per candidate
    and coefficient array would (see the module docstring), so a
    Generator reused for the next query draws on unchanged.  A target
    that is not an integer, a bool among them, raises BadArguments, and
    one outside [1, m] raises IndexOutOfRange.
    """
    if (tower.p, tower.e, tower.s) != (params.p, params.e, params.s):
        raise DimensionMismatch(f"tower {tower} does not match params (p={params.p}, e={params.e}, s={params.s})")
    if len(targets) != len(rngs):
        raise DimensionMismatch(f"{len(targets)} targets for {len(rngs)} RNG streams")
    if not rngs:
        raise DimensionMismatch("no RNG streams: a batch holds at least one query")
    targets = [as_integer(target, BadArguments, "target") for target in targets]
    for target in targets:
        if not 1 <= target <= params.m:
            raise IndexOutOfRange(f"target must be in [1, {params.m}], got {target}")
    fq = tower.fq
    delta, n, k, s, v = params.delta, params.n, params.k, params.s, params.v
    total_rows, count = params.block_rows, len(rngs)

    gens, info_sets, blown, code_draws = sample_codes(params, tower, rngs)
    # an accepted basis is certainly followed by the coefficients and one selector candidate
    runs = [UniformRun(rng, fq.q) for rng in rngs]
    coeff_count, mask_count = total_rows * k * s, total_rows * (n - k) * v
    selector_count = delta * (n - k) * (s - v)
    bases, basis_draws = sample_split_bases(tower, runs, coeff_count + mask_count + selector_count)
    all_streams = np.arange(count)[:, None]
    inside = np.zeros((count, n), dtype=bool)
    inside[all_streams, info_sets] = True
    outside = np.nonzero(~inside)[1].reshape(count, n - k)

    # codeword layer: the digits of uniform coefficient rows times the generator's
    # blow-up, which becomes the query; noise: the mask layer's uniform V-entries
    # on the columns outside I
    coeffs = np.array([run.take(coeff_count + mask_count, selector_count) for run in runs])
    digits = fq.to_digits(coeffs[:, :coeff_count]).reshape(count, total_rows, k * s * fq.e)
    data = fq._encode(residue_matmul(digits, blown, fq.p).reshape(count, total_rows, n, s, fq.e))
    noise = fq.matmul(coeffs[:, coeff_count:].reshape(count, -1, v), bases[:, :v]).reshape(count, total_rows, n - k, s)

    # selector layer: W-entries in row block ``target`` whose subfield rank is
    # full; the rows of B[v:] are independent, so that is the rank of the
    # delta x delta matrix of their W-coordinates
    w_coeffs, selector_draws = redraw_rejected(
        runs,
        lambda run: run.take(selector_count).reshape(delta, n - k, s - v),
        lambda streams, candidates: fq_rank(candidates.reshape(len(streams), delta, -1), fq) == delta,
        "no full-rank selector block found; RNG looks broken",
    )
    blocks = fq.matmul(w_coeffs.reshape(count, delta * (n - k), s - v), bases[:, v:]).reshape(count, delta, n - k, s)
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
    return generate_queries(params, tower, [target], [rng]).query(tower, 0, target)


def respond(db: Database, query: Query, params: SchemeParams, tower: FieldTower) -> Response:
    """Server side: A = [X^1 ... X^m] @ Q, the stacked database times the query matrix.

    File entries are F_q scalars and act on each coordinate of Q alike,
    so the product is one residue_matmul: the database's F_p digits
    (Database.digits, built once per database and field) times the F_p
    blow-up of the (m*delta, n*s) F_q matrix of Q's coordinates (Q itself
    for e = 1), looked up in the field's table of regular representations
    (Fq.blow_up), whose output digits are then encoded.  The query is
    range-checked on every call (fields._encodings) and the database once,
    as its digits are built: an entry outside [0, q), which the lookup
    would wrap or the product reduce mod p, raises CoordinateOutOfRange,
    a ValueError, and so does a query that is not of an integer dtype.
    """
    qm, fq = query.matrix, tower.fq
    rows, cols = db.stacked().shape
    if cols != qm.rows or qm.cols != params.n or db.file_count != params.m:
        raise DimensionMismatch(
            f"database {(rows, cols)} with {db.file_count} files does not fit query {qm.shape} under m={params.m}, n={params.n}"
        )
    coords = _encodings(qm.data, fq).reshape(qm.rows, qm.cols * tower.s)
    out = residue_matmul(db.digits(fq), fq.blow_up(coords), fq.p)
    return Response(ExtMatrix(tower, fq._encode(out.reshape(rows, -1, fq.e)).reshape(rows, qm.cols, tower.s)))


def decode(response: Response, secrets: QuerySecrets, params: SchemeParams, tower: FieldTower) -> np.ndarray:
    """Recover the target file from a response, exactly.

    Decoding is one F_p-linear map of the response's base-p digits, an L x
    (n*s*e) matrix, built from the secrets as an (n*s*e) x (delta*e) F_p
    matrix; its product with the digits is encoded once, as the file.  The
    map composes three eliminations over F_p, each of a blow-up:

      * the codeword layer: the generator's blow-up (FieldTower.blow_up)
        with its information-set column blocks first, [G_I | G_out], is
        reduced to [I | P], P = G_I^-1 G_out, so a response row a leaves
        a_out - a_I P on the columns outside I, the only ones read;
      * the split: the inverse of the blow-up of the basis (Fq.blow_up)
        puts coordinates in the split basis, whose trailing (W) ones
        erase the mask layer; one product puts the selector block's
        outside columns there too;
      * the selector: the inverse of the blow-up of the selector block's
        delta x delta W-coordinate matrix.

    Returns the (L, delta) F_q matrix of the target file.  An entry of the
    response or of the generator, basis or selector block outside [0, q),
    which the digit lookup would wrap, or of a non-integer dtype raises
    CoordinateOutOfRange (fields._encodings), an information set that is
    not an integer array or holds a column outside [0, n) IndexOutOfRange
    (fields.integer_array), a selection that is not an information set
    NotInformationSet, and a selector block that leaves W or whose
    coordinate matrix is singular DecodeFailure.
    """
    fq, fp = tower.fq, tower.fq.fp
    n, k, s, v, e, delta = params.n, params.k, params.s, params.v, fq.e, params.delta
    d, p = s * e, fq.p
    A = response.matrix
    if A.cols != n:
        raise DimensionMismatch(f"response has {A.cols} columns, expected {n}")
    answer = _encodings(A.data, fq)
    generator, basis, selector = (_encodings(a, fq) for a in (secrets.generator, secrets.basis, secrets.selector_block))
    info_set = integer_array(secrets.info_set, n, IndexOutOfRange, "information set columns")
    outside = np.delete(np.arange(n), info_set)
    if len(info_set) != k or len(outside) != n - k:
        raise NotInformationSet(f"columns {info_set.tolist()} cannot be an information set of a {k}-row generator")

    big = tower.blow_up(generator).reshape(k * d, n, d)
    reduced, pivots = fq_echelon(np.concatenate([big[:, info_set], big[:, outside]], axis=1).reshape(k * d, n * d), fp)
    if pivots != list(range(k * d)):
        raise NotInformationSet(f"columns {info_set.tolist()} are not an information set")

    to_split = fq_inv_matrix(fq.blow_up(basis), fp)
    selector = fq.to_digits(selector[:, outside]).reshape(delta * (n - k), d)
    selector = residue_matmul(selector, to_split, p).reshape(delta, n - k, d)
    if np.any(selector[:, :, : v * e]):
        raise DecodeFailure("selector block leaks outside the W part of the split")
    try:
        # delta x delta by the reshape, so a ValueError means singular
        sel_inv = fq_inv_matrix(fq.blow_up(fq._encode(selector[:, :, v * e :].reshape(delta, delta, e))), fp)
    except ValueError as exc:
        raise DecodeFailure("selector block coordinate matrix is singular") from exc

    # each outside column's digits to its W-coordinates, then through the
    # selector's inverse; the I columns reach them through -P
    from_outside = residue_matmul(to_split[:, v * e :], sel_inv.reshape(n - k, (s - v) * e, delta * e), p)
    to_file = np.empty((n, d, delta * e), dtype=product_dtype(p, n * d))
    to_file[outside] = from_outside
    to_file[info_set] = residue_matmul(-reduced[:, k * d :] % p, from_outside.reshape(-1, delta * e), p).reshape(k, d, -1)
    out = residue_matmul(fq.to_digits(answer).reshape(A.rows, n * d), to_file.reshape(n * d, delta * e), p)
    return fq._encode(out.reshape(A.rows, delta, e))
