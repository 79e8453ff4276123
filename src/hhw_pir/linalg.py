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

Both run on the one elimination kernel, fields.fq_echelon over F_p: work
over F_q^s goes through the regular representation (FieldTower.blow_up),
which replaces every entry by the s x s F_q matrix of multiplication by
it, and work over F_q through Fq.blow_up, its e x e F_p counterpart.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInformationSet,
    RankDeficientGenerator,
)
from .fields import FieldTower, Fq, fq_echelon, fq_echelon_stack, fq_inv_matrix, fq_rank


class ExtMatrix:
    """A matrix over F_q^s: its tower and its (rows, cols, s) coordinate array."""

    __slots__ = ("tower", "data")

    def __init__(self, tower: FieldTower, data: np.ndarray):
        data = np.asarray(data, dtype=np.int64)
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


# -- subfield matrix toolkit (numpy arrays of F_q encodings) --------------------


def _fq_extend_basis(basis: np.ndarray, pivots: list[int], rows: np.ndarray, fq: Fq) -> tuple[np.ndarray, list[int]]:
    """Reduced basis of rowspace(basis) + rowspace(rows).

    ``basis`` is reduced on ``pivots``: basis[:, pivots] is the identity.
    The new rows are cleared on the old pivots with one product, the
    residual is brought to reduced echelon form, and its pivots are
    back-substituted into the old rows, so the result is reduced on
    pivots + new pivots (in that row order).
    """
    if len(pivots) == basis.shape[1]:
        return basis, pivots
    if pivots:
        rows = fq.vsub(rows, fq.matmul(rows[:, pivots], basis))
    if not rows.any():
        return basis, pivots
    new, new_pivots = fq_echelon(rows, fq, reduced=True)
    new = new[: len(new_pivots)]
    if not pivots:
        return new, new_pivots
    basis = fq.vsub(basis, fq.matmul(basis[:, new_pivots], new))
    return np.vstack([basis, new]), pivots + new_pivots


def fq_deletion_ranks(arr: np.ndarray, block: int, fq: Fq):
    """Rank over F_q of ``arr`` with each run of ``block`` rows deleted, in order.

    With B_1..B_m the row blocks, rank(arr minus B_j) is the dimension of
    rowspace(B_1..B_(j-1)) + rowspace(B_(j+1)..B_m).  Both chains of
    bases are built incrementally, 2(m-1) extensions by one block, and
    each deletion costs one merge: the smaller basis reduced against the
    larger one, then ranked.  No basis has more than ``cols`` rows, so the
    scan never eliminates a (m-1)*block-row matrix.  For e > 1 the scan
    runs once over F_p on the blow-up, whose blocks have block*e rows and
    whose ranks are e times those over F_q.

    A (count, rows, cols) stack gives a (count, m) array: the chains then
    run over the whole stack at once (_stacked_deletion_ranks), except
    for a stack of one, which takes the scan of a single matrix.
    """
    arr = np.asarray(arr, dtype=np.int64)
    rows, cols = arr.shape[-2:]
    m, rem = divmod(rows, block)
    if rem:
        raise DimensionMismatch(f"{rows} rows do not split into blocks of {block}")
    if fq.e > 1:
        ranks = fq_deletion_ranks(fq.blow_up(arr), block * fq.e, fq.fp)
        return ranks // fq.e if arr.ndim == 3 else [r // fq.e for r in ranks]
    if arr.ndim == 3:
        if len(arr) == 1:
            return np.array([fq_deletion_ranks(arr[0], block, fq)], dtype=np.int64)
        return _stacked_deletion_ranks(arr.reshape(len(arr), m, block, cols), fq)
    blocks = [arr[i * block : (i + 1) * block] for i in range(m)]
    empty = (np.zeros((0, cols), dtype=np.int64), [])
    before = [empty]  # before[j] spans blocks[:j]
    for b in blocks[:-1]:
        before.append(_fq_extend_basis(*before[-1], b, fq))
    after = [empty]  # after[j] spans blocks[j+1:], once reversed
    for b in reversed(blocks[1:]):
        after.append(_fq_extend_basis(*after[-1], b, fq))
    after.reverse()
    ranks = []
    for head, tail in zip(before, after):
        (big, big_pivots), (small, small_pivots) = (head, tail) if len(head[1]) >= len(tail[1]) else (tail, head)
        if len(big_pivots) == cols or not small_pivots:
            ranks.append(len(big_pivots))
            continue
        small = fq.vsub(small, fq.matmul(small[:, big_pivots], big))
        ranks.append(len(big_pivots) + fq_rank(small, fq))
    return ranks


# A stack of reduced bases is kept pivot-indexed: a (count, cols, cols)
# array whose row c is the basis vector with pivot column c, and zero when
# c is no pivot.  The diagonal then marks the pivots, and x - x @ basis
# clears every pivot column of a row x in one product.


def _extend_indexed(basis: np.ndarray, rank: np.ndarray, rows: np.ndarray, fq: Fq) -> tuple[np.ndarray, np.ndarray]:
    """Pivot-indexed stack of bases of rowspace(basis) + rowspace(rows), per matrix, and their ranks.

    Only the bases short of full rank are extended; a full one spans
    every row already.
    """
    open_ = np.flatnonzero(rank < basis.shape[-1])
    if not open_.size:
        return basis, rank
    old, rows = basis[open_], rows[open_]
    residual = fq.vsub(rows, fq.matmul(rows, old))
    new, added, pivots = fq_echelon_stack(residual, fq, reduced=True)
    new = new[:, : pivots.shape[1]]  # rows past the rank are zero
    at = np.maximum(pivots, 0)  # a padded pivot meets a zero row of new
    old = fq.vsub(old, fq.matmul(old[np.arange(len(old))[:, None], :, at].swapaxes(1, 2), new))
    found = pivots >= 0
    old[np.nonzero(found)[0], pivots[found]] = new[found]
    basis, rank = basis.copy(), rank.copy()
    basis[open_], rank[open_] = old, rank[open_] + added
    return basis, rank


def _stacked_deletion_ranks(blocks: np.ndarray, fq: Fq) -> np.ndarray:
    """fq_deletion_ranks over F_p of a (count, m, block, cols) stack of row blocks.

    The prefix and the suffix chain extend one pivot-indexed stack of
    2*count bases, the first count matrices by blocks 1, 2, ... and the
    others by blocks m, m-1, ...  The deletions are then ranked in one
    stacked elimination: wherever the larger basis of a deletion falls
    short of full rank and the smaller one is not empty, the pivot rows
    of the smaller basis, reduced against the larger one, padded with
    zero rows to the largest such count.
    """
    count, m, _, cols = blocks.shape
    chain = [(np.zeros((2 * count, cols, cols), dtype=np.int64), np.zeros(2 * count, dtype=np.int64))]
    for j in range(m - 1):
        chain.append(_extend_indexed(*chain[-1], np.concatenate([blocks[:, j], blocks[:, m - 1 - j]]), fq))
    bases = np.stack([basis for basis, _ in chain])
    rank = np.stack([rank for _, rank in chain])
    # deletion j merges the span of blocks[:, :j] with the span of blocks[:, j+1:]
    head, tail = bases[:, :count], bases[::-1, count:]
    head_rank, tail_rank = rank[:, :count], rank[::-1, count:]
    ranks = np.maximum(head_rank, tail_rank)
    pairs = np.nonzero((ranks < cols) & (np.minimum(head_rank, tail_rank) > 0))
    if pairs[0].size:
        head, tail = head[pairs], tail[pairs]
        swap = (tail_rank[pairs] > head_rank[pairs])[:, None, None]
        big, small = np.where(swap, tail, head), np.where(swap, head, tail)
        width = int(np.minimum(head_rank, tail_rank)[pairs].max())
        order = np.argsort(np.diagonal(small, axis1=-2, axis2=-1) == 0, axis=-1, kind="stable")[:, :width]
        small = np.take_along_axis(small, order[..., None], axis=-2)  # pivot rows first
        ranks[pairs] += fq_echelon_stack(fq.vsub(small, fq.matmul(small, big)), fq)[1]
    return ranks.T


# -- ranks over the two fields ---------------------------------------------------


def ext_rank(data: np.ndarray, tower: FieldTower):
    """Rank over F_q^s of an (..., rows, cols, s) coordinate array; a stack gives an array of ranks."""
    return fq_rank(tower.blow_up(data), tower.fq) // tower.s


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
    basis of F_q^s over F_q; rank_fq does not change under such maps.
    """
    transform = np.asarray(transform, dtype=np.int64)
    s = tower.s
    if transform.shape != (s, s):
        raise DimensionMismatch(f"expected ({s}, {s}) transform, got {transform.shape}")
    data = np.asarray(data, dtype=np.int64)
    return tower.fq.matmul(data.reshape(-1, s), transform).reshape(data.shape)


# -- information sets ----------------------------------------------------------------
#
# An information set is a sorted array of 0-based column positions.


def _columns_in_range(columns, n: int) -> np.ndarray:
    columns = np.asarray(columns, dtype=np.int64)
    if columns.size and (columns.min() < 0 or columns.max() >= n):
        raise IndexOutOfRange(f"columns {columns.tolist()} are not all in [0, {n})")
    return columns


def is_information_set(gen: np.ndarray, columns: np.ndarray, tower: FieldTower) -> bool:
    """Whether the selected k columns of a full-rank k x n generator are invertible.

    Invertible selected columns already give the generator full rank, so
    the whole generator is ranked only on the way to a negative answer.
    """
    k, n = gen.shape[:2]
    columns = _columns_in_range(columns, n)
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
    s = tower.s
    inv = fq_inv_matrix(tower.blow_up(data), tower.fq)
    # row 0 of every block of the inverse blow-up holds the entry times x^0
    return inv[::s].reshape(n, n, s)


def solve_on_columns(gen: np.ndarray, columns: np.ndarray, targets: np.ndarray, tower: FieldTower) -> np.ndarray:
    """Coefficients L with (L @ gen) restricted to ``columns`` equal to ``targets``.

    The selected submatrix is inverted once and reused for every row of
    ``targets``, so solving for many rows costs one inversion plus a
    matrix product; a singular selection raises NotInformationSet.
    """
    k, n = gen.shape[:2]
    columns = _columns_in_range(columns, n)
    if len(columns) != k:
        raise NotInformationSet(f"{len(columns)} columns cannot be an information set of a {k}-row generator")
    if targets.shape[1] != k:
        raise DimensionMismatch(f"targets have {targets.shape[1]} columns, expected {k}")
    try:
        inv = ext_inv_matrix(gen[:, columns], tower)
    except ValueError as exc:  # the block is square, so this is the singular case
        raise NotInformationSet(f"columns {columns.tolist()} are not an information set") from exc
    return tower.matmul(targets, inv)
