"""Ranks, inverses and information sets over the top field, and subfield ranks.

Everything here takes coordinate arrays: a matrix over F_q^s is an
(rows, cols, s) int64 array of the F_q coordinates of its entries in the
power basis, passed together with its FieldTower, and an information set
is a sorted int64 array of 0-based column positions.  ExtMatrix, a tower
with a validated coordinate array, is only the type of the public query
and response matrices and the argument of rank_ext and rank_fq.

Two rank notions coexist here.  rank_ext is the usual rank of a matrix
over F_q^s.  rank_fq expands every entry into its s coordinates over F_q,
concatenates them along each row, and takes the rank of the resulting
r x (n*s) matrix over F_q.  The second notion is what the query matrices
of the PIR scheme leak: it cannot exceed rank_ext * s and it is invariant
under applying any fixed invertible F_q-linear map to every entry, so an
observer needs no knowledge of the hidden basis to evaluate it.

Both run on the packed kernels over F_p of fields, ranks on fq_rank and
inverses on fq_inv_matrix, which reads them off the reduced echelon
form: work over F_q^s goes through one F_p regular representation
(FieldTower.blow_up), which replaces every entry by the (s*e) x (s*e)
F_p matrix of multiplication by it, built in one product, and work over
F_q through Fq.blow_up, its e x e counterpart.  A rank over F_q^s is one
fq_rank over F_p of one blow-up, and an inverse one fq_inv_matrix over
F_p.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CoordinateOutOfRange,
    DimensionMismatch,
    IndexOutOfRange,
    NotInformationSet,
    RankDeficientGenerator,
)
from .fields import (
    FieldTower,
    _encodings,
    fq_echelon,  # not called here: perfbench/layers.py traces the elimination kernel as linalg.fq_echelon
    fq_inv_matrix,
    fq_rank,
    integer_array,
)


class ExtMatrix:
    """A matrix over F_q^s: its tower and its (rows, cols, s) coordinate array, of an integer dtype."""

    __slots__ = ("tower", "data")

    def __init__(self, tower: FieldTower, data: np.ndarray):
        data = integer_array(data, None, CoordinateOutOfRange, "coordinates")
        if data.ndim != 3 or data.shape[2] != tower.s:
            raise DimensionMismatch(f"expected (rows, cols, {tower.s}) array, got {data.shape}")
        self.tower = tower
        self.data = data

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[1]


# -- ranks over the two fields ---------------------------------------------------


def ext_rank(data: np.ndarray, tower: FieldTower):
    """Rank over F_q^s of an (..., rows, cols, s) coordinate array; a stack gives an array of ranks."""
    return fq_rank(tower.blow_up(data), tower.fq.fp) // (tower.s * tower.e)


def rank_ext(m: ExtMatrix) -> int:
    """Rank of the matrix over the top field F_q^s."""
    return ext_rank(m.data, m.tower)


def rank_fq(m: ExtMatrix) -> int:
    """Rank over F_q after expanding every entry into its s coordinates.

    Rows of length n become rows of length n*s over F_q; the result is at
    most min(rows, n*s) and at least rank_ext(m).
    """
    r, c = m.shape
    return fq_rank(m.data.reshape(r, c * m.tower.s), m.tower.fq)


def change_basis(data: np.ndarray, tower: FieldTower, transform: np.ndarray) -> np.ndarray:
    """Apply an F_q-linear map entrywise: coordinates become coords @ transform.

    For invertible transforms this re-expresses every entry in another
    basis of F_q^s over F_q; rank_fq does not change under such maps.  An
    entry of either operand outside [0, q), or an operand that is not of
    an integer dtype, raises CoordinateOutOfRange (fields._encodings).
    """
    transform = _encodings(transform, tower.fq)
    s = tower.s
    if transform.shape != (s, s):
        raise DimensionMismatch(f"expected ({s}, {s}) transform, got {transform.shape}")
    data = _encodings(data, tower.fq)
    return tower.fq.matmul(data.reshape(-1, s), transform).reshape(data.shape)


# -- information sets ----------------------------------------------------------------
#
# An information set is a sorted array of 0-based column positions.


def is_information_set(gen: np.ndarray, columns: np.ndarray, tower: FieldTower) -> bool:
    """Whether the selected k columns of a full-rank k x n generator are invertible.

    Invertible selected columns already give the generator full rank, so
    the whole generator is ranked only on the way to a negative answer.
    """
    k, n = gen.shape[:2]
    columns = integer_array(columns, n, IndexOutOfRange, "information set columns")
    if len(columns) == k and ext_rank(gen[:, columns], tower) == k:
        return True
    if ext_rank(gen, tower) != k:
        raise RankDeficientGenerator("generator matrix does not have full row rank")
    return False


def ext_inv_matrix(data: np.ndarray, tower: FieldTower) -> np.ndarray:
    """Inverse of a square (n, n, s) matrix over F_q^s; ValueError when singular."""
    n, cols = data.shape[:2]
    if cols != n:
        raise DimensionMismatch(f"expected square matrix, got {(n, cols)}")
    d = tower.s * tower.e
    inv = fq_inv_matrix(tower.blow_up(data), tower.fq.fp)
    # row 0 of every block of the inverse blow-up holds the digits of the entry times 1
    return tower.fq.from_digits(inv[::d].reshape(n, n, tower.s, tower.e))


def solve_on_columns(gen: np.ndarray, columns: np.ndarray, targets: np.ndarray, tower: FieldTower) -> np.ndarray:
    """Coefficients L with (L @ gen) restricted to ``columns`` equal to ``targets``.

    The selected submatrix is inverted once and reused for every row of
    ``targets``, so solving for many rows costs one inversion plus a
    matrix product; a singular selection raises NotInformationSet.
    """
    k, n = gen.shape[:2]
    columns = integer_array(columns, n, IndexOutOfRange, "information set columns")
    if len(columns) != k:
        raise NotInformationSet(f"{len(columns)} columns cannot be an information set of a {k}-row generator")
    if targets.shape[1] != k:
        raise DimensionMismatch(f"targets have {targets.shape[1]} columns, expected {k}")
    try:
        inv = ext_inv_matrix(gen[:, columns], tower)
    except ValueError as exc:  # the block is square, so this is the singular case
        raise NotInformationSet(f"columns {columns.tolist()} are not an information set") from exc
    return tower.matmul(targets, inv)
