"""Reference implementations the test suite checks the package against.

Every kernel of the package keeps two references here, each with its own
differential test: an independent one, which shares no arithmetic with
the package, and the path that the kernel's latest rewrite replaced,
which may share the package's lower layers (named below).  When a kernel
is rewritten again, the path it replaced until then is deleted in the
same change and the newly replaced one takes its place, so no kernel
collects references; tests/test_oracles.py fails on a function here that
nothing calls.

The independent references compute in scalar arithmetic of their own:
digitwise fq_add/fq_sub, the digit polynomial product fq_poly_mul,
Fermat's fq_inv, and tuples over F_q^s (ext_add ... ext_inv, Fermat's
x^(q^s - 2)).  They read only the fields' moduli.

kernel: independent reference; replaced path (what it shares)
- fields.fq_echelon, fq_rank, fq_inv_matrix: naive_rank_fq,
  subfield_rank_oracle, and M @ M^-1 = I in the tests; loop_echelon and,
  on stacks, fq_echelon_stack (numpy row operations; nothing).
- fields.fq_deletion_ranks: the deletions of delete_block ranked by
  naive_rank_fq, beside per_deletion_rank_profile, the attack's original
  scan (one fq_rank per deletion); chain_deletion_ranks (Fq.blow_up,
  Fq.matmul, Fq.vsub and fq_rank).
- fields.residue_matmul: int64_residue_matmul; float64_residue_matmul
  (nothing).
- Fq.matmul, Fq.vmul: scalar_fq_matmul, fq_poly_mul, and scalar_ext_matmul
  on embed_subfield operands; product_matmul on product_blow_up
  (Fq.to_digits, Fq.mul_tensor and residue_matmul on e x e products).
- FieldTower.matmul, scalar_matmul, blow_up: scalar_ext_matmul;
  two_step_blow_up, two_step_matmul (companion_powers, Fq.matmul,
  Fq.blow_up).
- linalg.ext_rank, ext_inv_matrix, is_information_set: scalar_rank_ext,
  scalar_ext_inv, scalar_is_information_set; two_step_ext_rank,
  two_step_ext_inv (as two_step_matmul, and fq_rank, fq_inv_matrix).
- scheme.decode: micro_decode, and the stored file; unit_row_decode
  (solve_on_columns, FieldTower.matmul, Fq.matmul, Fq.vsub, fq_inv_matrix).
- scheme.respond: scalar_respond; concatenated_respond (_encodings,
  FieldTower.scalar_matmul).
- scheme.generate_queries, by default and with discard_rngs: the layers
  of its queries rebuilt from their secrets (tests/test_scheme.py) and
  BATCH_PINS; per_draw_generate_queries, one RNG call per candidate and
  per coefficient array (sample_codes, redraw_rejected, residue_matmul,
  Fq.matmul, Fq.vadd), whose Generator states the default keeps too.
- fields.smallest_irreducible and its stacked Rabin test _rabin:
  trial division (tests/test_fields.py) and FROZEN_MODULI;
  scalar_smallest_irreducible, Rabin's test on one candidate at a time
  (companion_powers, _matpow, Fq.blow_up, Fq.matmul and fq_rank).
- Fq.blow_up, Fq._encode, Fq.vadd/vsub, fields._pack_rows and the
  coordinates of serialization.load_matrix: fq_poly_mul, fq_add/fq_sub
  and plain integer arithmetic in the tests; product_blow_up,
  product_encode, digit_vadd/digit_vsub (Fq.to_digits, Fq.from_digits),
  bytes_pack_rows, division_coordinates.

The rest serve the scheme and analysis tests: delete_block and noise_part
take queries apart, and the subspace counts (subspaces_by_closure,
subspaces_by_echelon, subspaces_materialized, p_rank_at_most) enumerate
rather than use the package's formulas.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from hhw_pir.errors import DecodeFailure, DimensionMismatch, RankDeficientGenerator
from hhw_pir.fields import (
    FieldTower,
    Fq,
    _encodings,
    _matpow,
    _prime_factors,
    companion_powers,
    fq_inv_matrix,
    fq_rank,
    redraw_rejected,
    residue_matmul,
)
from hhw_pir.linalg import ExtMatrix, solve_on_columns
from hhw_pir.scheme import QueryBatch, Response, sample_codes


def fq_add(fq: Fq, a: int, b: int) -> int:
    """Sum in F_q, digit by digit mod p."""
    p = fq.p
    if fq.e == 1:
        return (a + b) % p
    return sum((a // p**i + b // p**i) % p * p**i for i in range(fq.e))


def fq_sub(fq: Fq, a: int, b: int) -> int:
    """Difference in F_q, digit by digit mod p."""
    p = fq.p
    if fq.e == 1:
        return (a - b) % p
    return sum((a // p**i - b // p**i) % p * p**i for i in range(fq.e))


@functools.lru_cache(maxsize=1 << 16)
def fq_poly_mul(fq: Fq, a: int, b: int) -> int:
    """Product in F_q by multiplying digit polynomials and reducing by the base modulus.

    Cached, because the scalar oracles call it on the same few pairs of a
    small field over and over.
    """
    p, e = fq.p, fq.e
    if e == 1:
        return a * b % p
    da, db = ([x // p**i % p for i in range(e)] for x in (a, b))
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * e - 2, e - 1, -1):
        c, prod[d] = prod[d], 0
        for t in range(e):
            prod[d - e + t] = (prod[d - e + t] - c * fq.modulus[t]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


def fq_inv(fq: Fq, a: int) -> int:
    """Inverse in F_q by Fermat's little theorem, a^(q - 2)."""
    if a == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    out, base, n = 1, a, fq.q - 2
    while n:
        if n & 1:
            out = fq_poly_mul(fq, out, base)
        base = fq_poly_mul(fq, base, base)
        n >>= 1
    return out


def _scalar_is_irreducible(fq: Fq, poly: list[int]) -> bool:
    """Rabin's test on the companion matrix C of one monic polynomial of degree d >= 1.

    poly is irreducible iff C^(q^d) = C and C^(q^(d/r)) - C has rank d for
    every prime r | d, checked along the chain C, C^q, ... on the blow-up of C.
    """
    d, e = len(poly) - 1, fq.e
    if d == 1:
        return True
    C = companion_powers(fq, poly, 2)[1]
    checks = {d // r for r in _prime_factors(d)}
    power = big = fq.blow_up(C)
    for k in range(1, d + 1):
        power = _matpow(power, fq.q, fq.fp.matmul)  # the blow-up of C^(q^k)
        if k in checks and fq_rank((power - big) % fq.p, fq.fp) < d * e:
            return False
    return bool(np.array_equal(power, big))


def scalar_smallest_irreducible(fq: Fq, degree: int) -> tuple[int, ...]:
    """The first irreducible in smallest_irreducible's order, one candidate and one Rabin test at a time.

    It skips only the candidates of zero derivative, and has no budget.
    """
    p = fq.p
    for value in range(fq.q**degree):
        coeffs = [(value // fq.q**i) % fq.q for i in range(degree)] + [1]
        if degree % p == 0 and not any(coeffs[i] for i in range(degree) if i % p):
            continue
        if _scalar_is_irreducible(fq, coeffs):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found; field context is broken")


def ext_zero(tower: FieldTower) -> tuple:
    return (0,) * tower.s


def ext_add(tower: FieldTower, a, b) -> tuple:
    return tuple(fq_add(tower.fq, x, y) for x, y in zip(a, b))


def _ext_sub(tower: FieldTower, a, b) -> tuple:
    return tuple(fq_sub(tower.fq, x, y) for x, y in zip(a, b))


def ext_mul(tower: FieldTower, a, b) -> tuple:
    """Product in F_q^s: schoolbook polynomial product reduced by the top modulus."""
    fq, s = tower.fq, tower.s
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = fq_add(fq, prod[i + j], fq_poly_mul(fq, int(x), int(y)))
    for d in range(2 * s - 2, s - 1, -1):
        c, prod[d] = prod[d], 0
        for t in range(s):
            prod[d - s + t] = fq_sub(fq, prod[d - s + t], fq_poly_mul(fq, c, tower.top_modulus[t]))
    return tuple(prod[:s])


def ext_inv(tower: FieldTower, a) -> tuple:
    """Inverse in F_q^s by Fermat's little theorem, a^(q^s - 2)."""
    if not any(a):
        raise ZeroDivisionError("zero has no multiplicative inverse")
    out, base, n = tower.one, tuple(a), tower.order - 2
    while n:
        if n & 1:
            out = ext_mul(tower, out, base)
        base = ext_mul(tower, base, base)
        n >>= 1
    return out


def naive_rank_fq(rows, fq: Fq) -> int:
    """Row rank over F_q by textbook Gauss-Jordan on Python lists."""
    work = [[int(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    pivot = 0
    for col in range(ncols):
        src = next((r for r in range(pivot, len(work)) if work[r][col] != 0), None)
        if src is None:
            continue
        work[pivot], work[src] = work[src], work[pivot]
        inv = fq_inv(fq, work[pivot][col])
        work[pivot] = [fq_poly_mul(fq, inv, x) for x in work[pivot]]
        for r in range(len(work)):
            if r != pivot and work[r][col] != 0:
                c = work[r][col]
                work[r] = [fq_sub(fq, x, fq_poly_mul(fq, c, y)) for x, y in zip(work[r], work[pivot])]
        pivot += 1
        if pivot == len(work):
            break
    return pivot


def delete_block(data: np.ndarray, j: int, delta: int) -> np.ndarray:
    """The rows of ``data`` without row block ``j`` (1-based) of ``delta`` rows."""
    return np.delete(data, slice((j - 1) * delta, j * delta), axis=0)


def noise_part(query_data: np.ndarray, secrets, delta: int, fq: Fq) -> np.ndarray:
    """D + E of an (m*delta, n, s) query Q = D + E + Z: Q with the selector block taken off the target rows."""
    rows = slice((secrets.target - 1) * delta, secrets.target * delta)
    noise = np.array(query_data, dtype=np.int64)
    noise[rows] = _digitwise_vsub(fq, noise[rows], secrets.selector_block)
    return noise


def per_deletion_rank_profile(data: np.ndarray, delta: int, fq: Fq) -> list[int]:
    """Rank profile of an (m*delta, n, s) query array by one full subfield elimination per deleted block.

    Each of the m deletions is ranked from scratch with the package's
    fq_rank, so this shares the elimination routine with the package; the
    tests pair it with naive_rank_fq, which shares nothing.
    """
    rows, cols, s = data.shape
    shape = (rows - delta, cols * s)
    return [fq_rank(delete_block(data, j, delta).reshape(shape), fq) for j in range(1, rows // delta + 1)]


def chain_deletion_ranks(arr: np.ndarray, block: int, fq: Fq):
    """fields.fq_deletion_ranks on numpy chains of reduced bases of every prefix and suffix of the row blocks.

    With B_1..B_m the row blocks, rank(arr minus B_j) is the dimension of
    rowspace(B_1..B_(j-1)) + rowspace(B_(j+1)..B_m).  Both chains of bases
    are built one block at a time, and each deletion merges the smaller
    basis into the larger one, where the scan that replaced it inserts the
    masked basis rows leading in the block into one basis and pops them
    again.  A (rows, cols) matrix runs the 2-D chain
    and gives a list, a (count, rows, cols) stack the stacked chain and a
    (count, m) array; for e > 1 both run over F_p on the blow-up.
    """
    arr = np.asarray(arr, dtype=np.int64)
    if fq.e > 1:
        arr, block = fq.blow_up(arr), block * fq.e
    if arr.ndim == 2:
        return [r // fq.e for r in _chained_deletion_ranks(arr, block, fq.fp)]
    count, rows, cols = arr.shape
    return _stacked_deletion_ranks(arr.reshape(count, rows // block, block, cols), fq.fp) // fq.e


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
    new, new_pivots = loop_echelon(rows, fq, reduced=True)
    new = new[: len(new_pivots)]
    if not pivots:
        return new, new_pivots
    basis = fq.vsub(basis, fq.matmul(basis[:, new_pivots], new))
    return np.vstack([basis, new]), pivots + new_pivots


def _chained_deletion_ranks(arr: np.ndarray, block: int, fq: Fq) -> list[int]:
    """chain_deletion_ranks over F_p of one (rows, cols) matrix.

    Each deletion reduces the smaller basis against the larger one and
    ranks the residual.
    """
    rows, cols = arr.shape
    blocks = [arr[i * block : (i + 1) * block] for i in range(rows // block)]
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
    """chain_deletion_ranks over F_p of a (count, m, block, cols) stack of row blocks.

    The prefix and the suffix chain extend one pivot-indexed stack of
    2*count bases, the first count matrices by blocks 1, 2, ... and the
    others by blocks m, m-1, ...  The deletions are then ranked by one
    fq_rank call on a stack: wherever the larger basis of a deletion falls
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
        ranks[pairs] += fq_rank(fq.vsub(small, fq.matmul(small, big)), fq)
    return ranks.T


@functools.cache
def _inverses(p: int) -> np.ndarray:
    """inverses[a] = a^-1 mod p for 0 < a < p, and inverses[0] = 0."""
    return np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)


def fq_echelon_stack(arr: np.ndarray, fq: Fq, reduced: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """loop_echelon on every matrix of a (count, rows, cols) stack at once, by numpy row operations.

    Step r finds the r-th pivot of every matrix: the leftmost column with
    a nonzero entry in rows r and below, and the topmost such entry.  The
    step swaps that row into row r (a no-op where the row is r already,
    or where a matrix has no pivot left), normalises it from a table of
    inverses mod p, and eliminates with it across the whole stack, so the
    Python loop runs once per pivot, not once per matrix.  Each matrix
    gets exactly the row operations loop_echelon applies to it, so the
    echelon forms agree entry for entry; a stack of one runs
    loop_echelon.  This loop served the stacked chains above while they
    were the package's scan for odd p.

    Returns:
        The echelon stack, the rank of each matrix, and a (count,
        min(rows, cols)) array whose row b lists the pivot columns of
        matrix b in row order, padded with -1 past its rank.
    """
    if fq.e != 1:
        raise ValueError(f"fq_echelon_stack eliminates over F_p only, got F_{fq.q}; pass the blow-up over fq.fp")
    p = fq.p
    count, rows, cols = np.shape(arr)
    depth = min(rows, cols)
    if count == 1:
        R, found = loop_echelon(arr[0], fq, reduced)
        return R[None], np.array([len(found)]), np.array([found + [-1] * (depth - len(found))], dtype=np.int64)
    # a C-ordered copy, so that flat below is a view and the row swaps written through it land in R
    R = np.array(arr, dtype=np.int64, order="C")
    inverses = _inverses(p)
    stack = np.arange(count)
    flat = R.reshape(count * rows, cols)
    first_row = stack * rows
    for r in range(depth):
        below = R[:, r:] != 0
        live_cols = below.any(axis=1)
        if not live_cols.any():
            break
        c = live_cols.argmax(axis=1)
        i = first_row + r + below[stack, :, c].argmax(axis=1)
        top = flat[i]
        flat[i] = R[:, r]
        if p != 2:  # over F_2 every pivot is 1 already
            top = top * inverses[top[stack, c]][:, None] % p
        R[:, r] = top
        lo = 0 if reduced else r + 1
        factors = R[stack, lo:, c]
        if reduced:
            factors[:, r] = 0
        R[:, lo:] = (R[:, lo:] - factors[:, :, None] * top[:, None, :]) % p
    # row r of an echelon form is zero past the rank, else it starts at its pivot
    leading = R[:, :depth] != 0
    pivot_rows = leading.any(axis=2)
    return R, pivot_rows.sum(axis=1), np.where(pivot_rows, leading.argmax(axis=2), -1)


def scalar_rank_ext(rows, tower: FieldTower) -> int:
    """Rank over F_q^s by Gauss-Jordan on lists of element tuples."""
    rows = [[tuple(int(c) for c in x) for x in row] for row in rows]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if any(rows[i][c])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pinv = ext_inv(tower, rows[rank][c])
        rows[rank] = [ext_mul(tower, pinv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and any(rows[i][c]):
                f = rows[i][c]
                rows[i] = [_ext_sub(tower, x, ext_mul(tower, f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def scalar_ext_inv(rows, tower: FieldTower) -> list[list[tuple]]:
    """Inverse over F_q^s by Gauss-Jordan on [M | I]; ValueError when singular."""
    n = len(rows)
    aug = [[tuple(int(c) for c in x) for x in row] + [tower.one if i == j else ext_zero(tower) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if any(aug[i][c])), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pinv = ext_inv(tower, aug[c][c])
        aug[c] = [ext_mul(tower, pinv, x) for x in aug[c]]
        for i in range(n):
            if i != c and any(aug[i][c]):
                f = aug[i][c]
                aug[i] = [_ext_sub(tower, x, ext_mul(tower, f, y)) for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def scalar_is_information_set(gen, columns, tower: FieldTower) -> bool:
    """Information-set test of a (k, n, s) generator and 0-based columns by scalar ranks over F_q^s."""
    rows = np.asarray(gen).tolist()
    k = len(rows)
    if scalar_rank_ext(rows, tower) != k:
        raise RankDeficientGenerator("generator matrix does not have full row rank")
    if len(columns) != k:
        return False
    return scalar_rank_ext([[row[c] for c in columns] for row in rows], tower) == k


def _digitwise_vsub(fq: Fq, a, b) -> np.ndarray:
    """Difference of encoding arrays, base-p digit by digit mod p, the digits split by // and %."""
    powers = fq.p ** np.arange(fq.e, dtype=np.int64)
    da, db = (np.asarray(x, dtype=np.int64)[..., None] // powers % fq.p for x in (a, b))
    return (da - db) % fq.p @ powers


def loop_echelon(arr, fq: Fq, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """fields.fq_echelon as it ran before its rows were packed into ints: one column at a time on numpy rows.

    The packed kernel replaced it over F_2 first and then for odd p too;
    with reduced=True it is the reference the kernel is checked against,
    entry for entry, over every field width of a packed row.  Reduced or
    not, it is the reference of fq_echelon_stack's echelon forms.
    """
    p = fq.p
    R = np.array(arr, dtype=np.int64, copy=True)
    rows = R.shape[0]
    pivots: list[int] = []
    r = 0
    for c in R.any(axis=0).nonzero()[0].tolist():
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        pinv = pow(int(R[r, c]), -1, p)
        if pinv != 1:
            R[r] = R[r] * pinv % p
        if reduced:
            others = R[:, c].nonzero()[0]
            others = others[others != r]
        else:
            others = R[r + 1 :, c].nonzero()[0] + (r + 1)
        if others.size:
            R[others] = (R[others] - R[others, c][:, None] * R[r][None, :]) % p
        pivots.append(c)
        r += 1
    return R, pivots


def product_blow_up(b, fq: Fq) -> np.ndarray:
    """Fq.blow_up as one product of the digits of b with the structure tensor, before the table lookup.

    The (..., t*e, c*e) int64 F_p regular representation of a (..., t, c)
    encoding array; b itself, as int64, for e = 1.
    """
    b = np.asarray(b, dtype=np.int64)
    if fq.e == 1:
        return b
    *lead, t, c = b.shape
    e = fq.e
    regular = residue_matmul(fq.to_digits(b), fq.mul_tensor.reshape(e, e * e), fq.p).astype(np.int64)
    return regular.reshape(*lead, t, c, e, e).swapaxes(-3, -2).reshape(*lead, t * e, c * e)


def product_matmul(a, b, fq: Fq) -> np.ndarray:
    """Fq.matmul on product_blow_up: the digits of a times the blow-up of b, by int64_residue_matmul.

    Row i of a block of the blow-up holds the digits of x^i times the
    entry, so row 0 of each block row of a's blow-up is the digits of a's
    row.  Leading axes broadcast as stacks, as in Fq.matmul.
    """
    e = fq.e
    digits = int64_residue_matmul(product_blow_up(a, fq)[..., ::e, :], product_blow_up(b, fq), fq.p)
    return digits.reshape(*digits.shape[:-1], -1, e) @ fq.p ** np.arange(e, dtype=np.int64)


def product_encode(fq: Fq, digits) -> np.ndarray:
    """Fq._encode as one product of (..., e) digits with their weights p^i, for every e, before e = 1 became a cast."""
    digits = np.asarray(digits)
    weights = fq.p ** np.arange(fq.e, dtype=np.float64)
    return (digits.reshape(-1, fq.e) @ weights).astype(np.int64).reshape(digits.shape[:-1])


def digit_vadd(fq: Fq, a, b) -> np.ndarray:
    """Fq.vadd through base-p digits for e > 1 (plain arithmetic mod p for e = 1), before F_(2^e) sums became XOR."""
    if fq.e == 1:
        return (np.asarray(a) + np.asarray(b)) % fq.p
    return fq.from_digits(np.add(fq.to_digits(a), fq.to_digits(b), dtype=np.int64))


def digit_vsub(fq: Fq, a, b) -> np.ndarray:
    """Fq.vsub through base-p digits for e > 1 (plain arithmetic mod p for e = 1), before F_(2^e) differences became XOR."""
    if fq.e == 1:
        return (np.asarray(a) - np.asarray(b)) % fq.p
    return fq.from_digits(np.subtract(fq.to_digits(a), fq.to_digits(b), dtype=np.int64))


def division_coordinates(values, q: int, s: int) -> np.ndarray:
    """The (N, s) int64 base-q digits of N uint64 element values by s rounds of % and //, as load_matrix split them before its digit tables."""
    rest = np.array(values, dtype=np.uint64)
    coords = np.empty((rest.size, s), dtype=np.int64)
    for j in range(s):
        coords[:, j] = (rest % np.uint64(q)).astype(np.int64)
        rest //= np.uint64(q)
    return coords


def bytes_pack_rows(arr, w: int) -> list[int]:
    """fields._pack_rows for every row length by bytes: np.packbits (w = 1) or big-endian fields of w bits, each row read with int.from_bytes.

    The package packs rows of at most 64 bits by one uint64 product instead.
    """
    arr = np.asarray(arr)
    data = np.packbits(arr, axis=-1) if w == 1 else arr.astype(f">u{w // 8}")
    raw, nbytes = data.tobytes(), data.shape[-1] * data.itemsize  # tobytes is in C order
    return [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "big") for i in range(math.prod(arr.shape[:-1]))]


def int64_residue_matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p as one int64 product, the kernel fields.residue_matmul replaced (sums below 2^63)."""
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % p


def float64_residue_matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p on float64 BLAS only, as fields.residue_matmul ran before its float32 product.

    The inner axis is cut into chunks of (2^51 - p) // (p-1)^2 terms, whose
    sums plus the carried residue stay below 2^51, and each partial sum x
    is reduced as x - p*floor(x*inv) with inv the smallest float64 not
    below 1/p.  Returns the residues in a float64 array.
    """
    a, b = np.asarray(a), np.asarray(b)
    inv = 1.0 / p
    if Fraction(inv) < Fraction(1, p):
        inv = np.nextafter(inv, np.inf)

    def reduce(x):
        x -= p * np.floor(x * inv)
        return x

    chunk = ((1 << 51) - p) // (p - 1) ** 2
    out = np.matmul(a[..., :chunk], b[..., :chunk, :], dtype=np.float64)
    for start in range(chunk, a.shape[-1], chunk):
        reduce(out)
        out += np.matmul(a[..., start : start + chunk], b[..., start : start + chunk, :], dtype=np.float64)
    return reduce(out)


@functools.cache
def _power_table(tower: FieldTower) -> np.ndarray:
    """(s, s*s) F_q matrix with y @ _power_table = [y, x*y, ..., x^(s-1)*y] on coordinates.

    Row j holds x^(j+i) for i < s, from the companion-matrix powers of the
    top modulus: one product with it gives every row of the F_q
    multiplication map of y.
    """
    s = tower.s
    return companion_powers(tower.fq, tower.top_modulus, s).transpose(1, 0, 2).reshape(s, s * s)


def _two_step_fq_blow_up(data, tower: FieldTower) -> np.ndarray:
    """The (..., r*s, c*s) F_q regular representation of an (..., r, c, s) coordinate array, by the power table."""
    *lead, r, c, s = np.shape(data)
    shifted = tower.fq.matmul(np.reshape(data, (-1, s)), _power_table(tower))
    return shifted.reshape(*lead, r, c, s, s).swapaxes(-3, -2).reshape(*lead, r * s, c * s)


def two_step_blow_up(data, tower: FieldTower) -> np.ndarray:
    """FieldTower.blow_up in two steps: the F_q blow-up by the power table, then its F_p blow-up."""
    return tower.fq.blow_up(_two_step_fq_blow_up(data, tower))


def two_step_matmul(a, b, tower: FieldTower) -> np.ndarray:
    """FieldTower.matmul as an F_q product of the coordinates of a with the F_q blow-up of b."""
    a = np.asarray(a, dtype=np.int64)
    *lead, r, t, s = a.shape
    out = tower.fq.matmul(a.reshape(*lead, r, t * s), _two_step_fq_blow_up(b, tower))
    return out.reshape(*out.shape[:-1], np.shape(b)[-2], s)


def two_step_ext_rank(data, tower: FieldTower):
    """linalg.ext_rank as the F_q rank of the F_q blow-up (itself blown up over F_p by fq_rank)."""
    return fq_rank(_two_step_fq_blow_up(data, tower), tower.fq) // tower.s


def two_step_ext_inv(data, tower: FieldTower) -> np.ndarray:
    """linalg.ext_inv_matrix as the F_q inverse of the F_q blow-up; ValueError when singular."""
    n = len(data)
    inv = fq_inv_matrix(_two_step_fq_blow_up(data, tower), tower.fq)
    # row 0 of every block of the inverse blow-up holds the entry times x^0
    return inv[:: tower.s].reshape(n, n, tower.s)


def concatenated_respond(db, query, params, tower: FieldTower):
    """scheme.respond as it redid its database work on every query.

    It concatenates the m files, range-checks every entry and multiplies
    the (L, m*delta) F_q matrix into the query's coordinates with
    FieldTower.scalar_matmul, which expands the entries to F_p digits
    again each time.  The package now builds those digits once per
    database (scheme.Database.digits).
    """
    stacked = _encodings(np.concatenate(db.files, axis=1), tower.fq)
    return Response(ExtMatrix(tower, tower.scalar_matmul(stacked, query.matrix.data)))


def per_draw_generate_queries(params, tower: FieldTower, targets, rngs, *, discard_rngs=False) -> QueryBatch:
    """scheme.generate_queries as it drew each basis candidate, coefficient array and selector candidate by its own call.

    Every stream draws its basis candidates, then its codeword and mask
    coefficients, then its selector candidates, each by one
    rng.integers call.  The package reads the same values off one run
    per stream (fields.UniformRun) in fewer calls.  Targets are not
    checked, and discard_rngs is taken and ignored, so the path can
    stand in for generate_queries wherever the package calls it.
    """
    fq = tower.fq
    delta, n, k, s, v = params.delta, params.n, params.k, params.s, params.v
    total_rows, count = params.block_rows, len(rngs)
    gens, info_sets, blown, code_draws = sample_codes(params, tower, rngs)
    bases, basis_draws = redraw_rejected(
        rngs, lambda rng: fq.rand(rng, (s, s)), lambda _, candidates: fq_rank(candidates, fq) == s, "basis"
    )
    all_streams = np.arange(count)[:, None]
    inside = np.zeros((count, n), dtype=bool)
    inside[all_streams, info_sets] = True
    outside = np.nonzero(~inside)[1].reshape(count, n - k)
    coeffs, v_coeffs = [], []
    for rng in rngs:
        coeffs.append(tower.rand(rng, (total_rows, k)))
        v_coeffs.append(fq.rand(rng, (total_rows, n - k, v)))
    digits = fq.to_digits(np.array(coeffs)).reshape(count, total_rows, k * s * fq.e)
    data = fq._encode(residue_matmul(digits, blown, fq.p).reshape(count, total_rows, n, s, fq.e))
    noise = fq.matmul(np.array(v_coeffs).reshape(count, -1, v), bases[:, :v]).reshape(count, total_rows, n - k, s)
    w_coeffs, selector_draws = redraw_rejected(
        rngs,
        lambda rng: fq.rand(rng, (delta, n - k, s - v)),
        lambda streams, candidates: fq_rank(candidates.reshape(len(streams), delta, -1), fq) == delta,
        "selector",
    )
    blocks = fq.matmul(w_coeffs.reshape(count, delta * (n - k), s - v), bases[:, v:]).reshape(count, delta, n - k, s)
    target_rows = (np.array(targets, dtype=np.int64)[:, None] - 1) * delta + np.arange(delta)
    noise[all_streams, target_rows] = fq.vadd(noise[all_streams, target_rows], blocks)
    data[all_streams, :, outside] = fq.vadd(data[all_streams, :, outside], noise.swapaxes(1, 2))
    selector_block = np.zeros((count, delta, n, s), dtype=np.int64)
    selector_block[all_streams, :, outside] = blocks.swapaxes(1, 2)
    return QueryBatch(data=data, generator=gens, info_set=info_sets, basis=bases, selector_block=selector_block,
                      draws=np.array([*code_draws, basis_draws, selector_draws]).T)


def unit_row_decode(response, secrets, params, tower: FieldTower) -> np.ndarray:
    """scheme.decode as one F_q-linear map built on F_q encodings, before the map was built on F_p digits.

    The map, an (n*s) x delta F_q matrix, is the image of the n*s unit
    rows (row c*s + j holds x^j in column c) under the steps of the
    decode: the codeword layer's contribution rebuilt from the
    information set columns by solve_on_columns and subtracted on the
    complement columns, what remains and the selector block's rows put in
    the split basis by one F_q product, the W coordinates kept, and the
    inverse of the selector block's coordinate matrix applied.  The L rows
    of the response then take one F_q product with it.
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

    sel_out = secrets.selector_block[:, outside]
    stacked = np.concatenate([remainder.reshape(-1, s), sel_out.reshape(-1, s)])
    coords = fq.matmul(stacked, fq_inv_matrix(secrets.basis, fq)).reshape(-1, len(outside), s)
    w_coords, sel_coords = coords[: n * s, :, v:].reshape(n * s, delta), coords[n * s :]
    if np.any(sel_coords[:, :, :v]):
        raise DecodeFailure("selector block leaks outside the W part of the split")
    try:
        sel_inv = fq_inv_matrix(sel_coords[:, :, v:].reshape(delta, delta), fq)
    except ValueError as exc:
        raise DecodeFailure("selector block coordinate matrix is singular") from exc
    return fq.matmul(A.data.reshape(A.rows, n * s), fq.matmul(w_coords, sel_inv))


def scalar_fq_matmul(a, b, fq: Fq) -> np.ndarray:
    """F_q product (r, t) @ (t, c) entry by entry with fq_poly_mul and fq_add."""
    out = np.zeros((len(a), np.shape(b)[1]), dtype=np.int64)
    for i, j in np.ndindex(out.shape):
        for k in range(len(b)):
            out[i, j] = fq_add(fq, int(out[i, j]), fq_poly_mul(fq, int(a[i][k]), int(b[k][j])))
    return out


def scalar_ext_matmul(a: np.ndarray, b: np.ndarray, tower: FieldTower) -> np.ndarray:
    """F_q^s product (r,t,s) @ (t,c,s) entry by entry with ext_mul and ext_add."""
    out = np.zeros((a.shape[0], b.shape[1], tower.s), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = ext_zero(tower)
            for k in range(a.shape[1]):
                acc = ext_add(tower, acc, ext_mul(tower, tuple(map(int, a[i, k])), tuple(map(int, b[k, j]))))
            out[i, j] = acc
    return out


def embed_subfield(x: np.ndarray, tower: FieldTower) -> np.ndarray:
    """F_q encodings as F_q^s coordinate arrays (x, 0, ..., 0)."""
    x = np.asarray(x, dtype=np.int64)
    out = np.zeros(x.shape + (tower.s,), dtype=np.int64)
    out[..., 0] = x
    return out


def subfield_rank_oracle(coords: np.ndarray, fq: Fq) -> int:
    """Rank over F_q of an (r, c, s) coordinate array, rows flattened."""
    r, c, s = coords.shape
    return naive_rank_fq(coords.reshape(r, c * s), fq)


def subspaces_by_closure(b: int, a: int, p: int) -> int:
    """Count a-dimensional subspaces of F_p^b by literally building them.

    Breadth-first growth: extend every (t)-dimensional subspace by every
    outside vector and deduplicate the resulting point sets.  Exponential,
    fine for p = 2 with b <= 5 and p = 3 with b <= 4.
    """
    vectors = list(itertools.product(range(p), repeat=b))
    zero = (0,) * b

    def extend(space: frozenset, x) -> frozenset:
        return frozenset(
            tuple((sv + c * xv) % p for sv, xv in zip(s, x))
            for s in space for c in range(p)
        )

    level = {frozenset([zero])}
    for _ in range(a):
        nxt = set()
        for space in level:
            for x in vectors:
                if x not in space:
                    nxt.add(extend(space, x))
        level = nxt
    return len(level)


def subspaces_by_echelon(b: int, a: int, p: int) -> int:
    """Count a-dimensional subspaces of F_p^b by enumerating canonical forms.

    Every subspace has a unique reduced row echelon basis, determined by
    its pivot columns plus the free entries to the right of the staircase;
    summing p^(free entries) over all pivot placements enumerates them all
    without touching the product formula under test.
    """
    total = 0
    for pivots in itertools.combinations(range(b), a):
        free = 0
        for t, col in enumerate(pivots):
            # row t may fill columns right of its pivot, skipping later pivots
            free += (b - col - 1) - (a - t - 1)
        total += p**free
    return total


def subspaces_materialized(b: int, p: int) -> dict[int, int]:
    """Every subspace of F_p^b as an explicit point set, tallied by dimension.

    Walks all reduced-echelon bases (pivot columns, then free entries),
    spans each basis into a frozenset of vectors, and insists the sets are
    pairwise distinct.  Unlike subspaces_by_echelon this touches every
    vector of every subspace, so it doubles as a spot check that the
    canonical forms really are in bijection with subspaces.  p prime.
    """
    seen: set[frozenset] = set()
    counts: dict[int, int] = {}
    for a in range(b + 1):
        for pivots in itertools.combinations(range(b), a):
            free_cells = [
                (t, col)
                for t, pc in enumerate(pivots)
                for col in range(pc + 1, b)
                if col not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_cells)):
                basis = [[0] * b for _ in range(a)]
                for t, pc in enumerate(pivots):
                    basis[t][pc] = 1
                for (t, col), val in zip(free_cells, values):
                    basis[t][col] = val
                points = {(0,) * b}
                for row in basis:
                    points = {
                        tuple((sv + c * rv) % p for sv, rv in zip(s, row))
                        for s in points for c in range(p)
                    }
                key = frozenset(points)
                assert key not in seen, "two echelon bases spanned one subspace"
                seen.add(key)
                counts[a] = counts.get(a, 0) + 1
    return counts


def _surjective_tuples(N: int, r: int, q: int) -> int:
    """Number of N-tuples of vectors spanning all of F_q^r, by inclusion-exclusion."""
    total = 0
    for t in range(r + 1):
        term = subspaces_by_echelon(r, t, q) * q ** (t * N)
        sign = (-1) ** (r - t)
        total += sign * term * q ** ((r - t) * (r - t - 1) // 2)
    return total


def p_rank_at_most(N: int, dim: int, r: int, q: int) -> Fraction:
    """P[rank <= r] for N iid uniform vectors of F_q^dim, exactly."""
    favorable = sum(
        subspaces_by_echelon(dim, t, q) * _surjective_tuples(N, t, q)
        for t in range(min(r, dim) + 1)
    )
    return Fraction(favorable, q ** (dim * N))


def micro_decode(response_row, secrets, tower: FieldTower):
    """From-scratch recovery for the 1-file micro instance (k=1, L=1, s=2).

    Follows the construction with explicit scalars: solve the one-term
    codeword system on the single information column, subtract, express
    the two remaining columns in the split basis via a hand-built 2x2
    inverse, keep the W coordinate, and divide by the selector's 2x2
    coordinate matrix (inverted by adjugate).
    """
    fq = tower.fq
    gen = secrets.generator[0]               # (n, s) single codeword generator row
    info_col = secrets.info_set[0]
    n = gen.shape[0]
    outside = [c for c in range(n) if c != info_col]
    basis = secrets.basis                    # (2, 2) over F_q, split after row v = 1
    assert tower.s == 2

    def emul(x, y):
        return ext_mul(tower, tuple(int(t) for t in x), tuple(int(t) for t in y))

    def esub(x, y):
        return _ext_sub(tower, tuple(int(t) for t in x), tuple(int(t) for t in y))

    # coefficient of the codeword layer from the information column
    coeff = emul(response_row[info_col], ext_inv(tower, tuple(int(t) for t in gen[info_col])))

    # 2x2 inverse of the basis by adjugate: [[d,-b],[-c,a]] / det
    a, b = int(basis[0][0]), int(basis[0][1])
    c, d = int(basis[1][0]), int(basis[1][1])
    det = fq_sub(fq, fq_poly_mul(fq, a, d), fq_poly_mul(fq, b, c))
    det_inv = fq_inv(fq, det)
    binv = [[fq_poly_mul(fq, det_inv, d), fq_poly_mul(fq, det_inv, fq_sub(fq, 0, b))],
            [fq_poly_mul(fq, det_inv, fq_sub(fq, 0, c)), fq_poly_mul(fq, det_inv, a)]]

    def w_coordinate(element):
        # coordinates of the element in the split basis; W part is index 1
        return fq_add(fq, fq_poly_mul(fq, int(element[0]), binv[0][1]),
                      fq_poly_mul(fq, int(element[1]), binv[1][1]))

    w_parts = []
    for colidx in outside:
        y = esub(response_row[colidx], emul(coeff, gen[colidx]))
        w_parts.append(w_coordinate(y))

    sel = secrets.selector_block             # (2, n, s)
    sel_cols = [[w_coordinate(sel[r][colidx]) for colidx in outside] for r in range(2)]
    sa, sb = sel_cols[0]
    sc, sd = sel_cols[1]
    sdet = fq_sub(fq, fq_poly_mul(fq, sa, sd), fq_poly_mul(fq, sb, sc))
    sdet_inv = fq_inv(fq, sdet)
    sinv = [[fq_poly_mul(fq, sdet_inv, sd), fq_poly_mul(fq, sdet_inv, fq_sub(fq, 0, sb))],
            [fq_poly_mul(fq, sdet_inv, fq_sub(fq, 0, sc)), fq_poly_mul(fq, sdet_inv, sa)]]

    x0 = fq_add(fq, fq_poly_mul(fq, w_parts[0], sinv[0][0]), fq_poly_mul(fq, w_parts[1], sinv[1][0]))
    x1 = fq_add(fq, fq_poly_mul(fq, w_parts[0], sinv[0][1]), fq_poly_mul(fq, w_parts[1], sinv[1][1]))
    return [x0, x1]


def scalar_respond(db_files, query_data, tower: FieldTower) -> np.ndarray:
    """The (L, n, s) response from the oracle's scalar F_q arithmetic.

    Every file entry x scales each coordinate u of its query row, and the
    scaled rows are summed coordinate by coordinate, with every product
    and sum looked up in q x q tables that fq_poly_mul and fq_add fill
    pair by pair.
    """
    fq = tower.fq
    pairs = [(a, b) for a in range(fq.q) for b in range(fq.q)]
    mul, add = (np.array([op(fq, a, b) for a, b in pairs], dtype=np.int64).reshape(fq.q, fq.q) for op in (fq_poly_mul, fq_add))
    stacked = np.concatenate([np.asarray(f, dtype=np.int64) for f in db_files], axis=1)
    out = np.zeros((stacked.shape[0],) + query_data.shape[1:], dtype=np.int64)
    for t, row in enumerate(np.asarray(query_data, dtype=np.int64)):
        out = add[out, mul[stacked[:, t, None, None], row]]
    return out
