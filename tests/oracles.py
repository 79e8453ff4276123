"""Independent reference implementations the test suite checks against.

Nothing here shares arithmetic with the package: the scalar F_q the
oracles compute in is their own (digitwise fq_add/fq_sub, the digit
polynomial product fq_poly_mul and Fermat's fq_inv), ranks are computed
by plain-Python elimination over it, subspaces are enumerated rather
than counted by formula, and the micro-instance decoder evaluates the
recovery pipeline with explicit scalars.  Five kinds of entry are paths
the package replaced, kept as the reference for their replacement:
per_deletion_rank_profile, the attack's original scan;
scalar_rank_ext / scalar_ext_inv / scalar_is_information_set, the
Gauss-Jordan elimination over F_q^s on scalar tower ops that the
regular-representation kernel replaced; digit_fq_matmul / digit_matmul /
digit_scalar_matmul, the products that contracted base-p digits against
F_p structure tensors before every product became one product on a
regular representation; int64_residue_matmul / int64_fq_matmul /
loop_digits, the int64 product mod p and the %-and-// digit loop that
kernel ran on before the exact float64 kernel (fields.residue_matmul) and
the digit table replaced them; and log_exp_tables / table_vmul /
table_echelon, the discrete log/exp arithmetic of F_q and the
elimination over F_q on top of it, before every elimination ran over F_p
on blow-ups.  The tuple arithmetic of F_q^s (ext_add ... ext_inv) is the
one the fields once ran on, before both extension steps were built from
companion-matrix powers; ext_inv is Fermat's x^(q^s - 2) rather than
polynomial Euclid.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from hhw_pir.errors import RankDeficientGenerator
from hhw_pir.fields import FieldTower, Fq, fq_rank


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


def ext_zero(tower: FieldTower) -> tuple:
    return (0,) * tower.s


def ext_add(tower: FieldTower, a, b) -> tuple:
    return tuple(fq_add(tower.fq, x, y) for x, y in zip(a, b))


def ext_sub(tower: FieldTower, a, b) -> tuple:
    return tuple(fq_sub(tower.fq, x, y) for x, y in zip(a, b))


def ext_neg(tower: FieldTower, a) -> tuple:
    return tuple(fq_sub(tower.fq, 0, x) for x in a)


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


def ext_pow(tower: FieldTower, a, n: int) -> tuple:
    out, base = tower.one, tuple(a)
    while n:
        if n & 1:
            out = ext_mul(tower, out, base)
        base = ext_mul(tower, base, base)
        n >>= 1
    return out


def ext_inv(tower: FieldTower, a) -> tuple:
    """Inverse in F_q^s by Fermat's little theorem, a^(q^s - 2)."""
    if not any(a):
        raise ZeroDivisionError("zero has no multiplicative inverse")
    return ext_pow(tower, a, tower.order - 2)


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


def per_deletion_rank_profile(data: np.ndarray, delta: int, fq: Fq) -> list[int]:
    """Rank profile of an (m*delta, n, s) query array by one full subfield elimination per deleted block.

    Each of the m deletions is ranked from scratch with the package's
    fq_rank, so this shares the elimination routine with the package; the
    tests pair it with naive_rank_fq, which shares nothing.
    """
    rows, cols, s = data.shape
    shape = (rows - delta, cols * s)
    return [fq_rank(delete_block(data, j, delta).reshape(shape), fq) for j in range(1, rows // delta + 1)]


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
                rows[i] = [ext_sub(tower, x, ext_mul(tower, f, y)) for x, y in zip(rows[i], rows[rank])]
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
                aug[i] = [ext_sub(tower, x, ext_mul(tower, f, y)) for x, y in zip(aug[i], aug[c])]
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


@functools.cache
def log_exp_tables(fq: Fq) -> tuple[np.ndarray, np.ndarray]:
    """Discrete exp/log tables of F_q (e > 1) over its smallest primitive element g.

    exp[i] = g^i for i < q - 1 and log inverts it; log[0] = -1.  The powers
    are taken with fq_poly_mul, and g is the smallest encoding >= 2 whose
    powers reach every nonzero element.
    """
    q = fq.q
    for g in range(2, q):
        exp = [1]
        while len(exp) < q - 1 and (x := fq_poly_mul(fq, exp[-1], g)) != 1:
            exp.append(x)
        if len(exp) == q - 1:
            break
    else:
        raise ValueError(f"F_{q} has no primitive element; its modulus is reducible")
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    return np.array(exp, dtype=np.int64), log


def table_vmul(fq: Fq, a, b) -> np.ndarray:
    """Entrywise product of encoding arrays through the log/exp tables."""
    exp, log = log_exp_tables(fq)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    out = np.zeros(a.shape, dtype=np.int64)
    mask = (a != 0) & (b != 0)
    out[mask] = exp[(log[a[mask]] + log[b[mask]]) % (fq.q - 1)]
    return out


def _table_vsub(fq: Fq, a, b) -> np.ndarray:
    powers = fq.p ** np.arange(fq.e, dtype=np.int64)
    da, db = (np.asarray(x, dtype=np.int64)[..., None] // powers % fq.p for x in (a, b))
    return (da - db) % fq.p @ powers


def table_echelon(arr, fq: Fq, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over F_q on the table arithmetic, with the pivoting of fq_echelon."""
    exp, log = log_exp_tables(fq)
    R = np.array(arr, dtype=np.int64, copy=True)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        R[[r, i]] = R[[i, r]]
        R[r] = table_vmul(fq, exp[-log[R[r, c]] % (fq.q - 1)], R[r])
        others = R[:, c].nonzero()[0] if reduced else R[r + 1 :, c].nonzero()[0] + (r + 1)
        others = others[others != r]
        if others.size:
            R[others] = _table_vsub(fq, R[others], table_vmul(fq, R[others, c][:, None], R[r][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def table_inv_matrix(arr, fq: Fq) -> np.ndarray:
    """Inverse over F_q by table elimination of [M | I]; ValueError when singular."""
    n = len(arr)
    R, pivots = table_echelon(np.hstack([np.asarray(arr, dtype=np.int64), np.eye(n, dtype=np.int64)]), fq, True)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def loop_digits(arr, fq: Fq) -> np.ndarray:
    """(..., e) int64 base-p digits of encodings by repeated % and //, as Fq.to_digits ran before its digit table."""
    t = np.asarray(arr, dtype=np.int64)
    out = np.empty(t.shape + (fq.e,), dtype=np.int64)
    for i in range(fq.e):
        out[..., i] = t % fq.p
        t = t // fq.p
    return out


def _from_digits(digits: np.ndarray, fq: Fq) -> np.ndarray:
    """Encodings of an (..., e) array of integer digits, each taken mod p."""
    return np.asarray(digits, dtype=np.int64) % fq.p @ fq.p ** np.arange(fq.e, dtype=np.int64)


def int64_residue_matmul(a, b, p: int) -> np.ndarray:
    """a @ b mod p as one int64 product, the kernel fields.residue_matmul replaced (sums below 2^63)."""
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % p


def int64_fq_matmul(a, b, fq: Fq) -> np.ndarray:
    """Fq.matmul as it ran on the int64 kernel: loop digits of a times the int64 blow-up of b, mod p.

    Leading axes broadcast as stacks, as in Fq.matmul.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    p, e = fq.p, fq.e
    if e == 1:
        return int64_residue_matmul(a, b, p)
    *lead, r, t = a.shape
    *b_lead, _, c = b.shape
    regular = int64_residue_matmul(loop_digits(b, fq), fq.mul_tensor.reshape(e, e * e), p)
    big = regular.reshape(*b_lead, t, c, e, e).swapaxes(-3, -2).reshape(*b_lead, t * e, c * e)
    out = int64_residue_matmul(loop_digits(a, fq).reshape(*lead, r, t * e), big, p)
    return _from_digits(out.reshape(*out.shape[:-1], c, e), fq)


@functools.cache
def _fq_digit_tensor(fq: Fq) -> np.ndarray:
    """F_p structure tensor T of F_q, (x*y)_d = sum_{a,b} x_a y_b T[a,b,d], from fq_poly_mul."""
    basis = [fq.p**i for i in range(fq.e)]
    return np.array([[loop_digits(fq_poly_mul(fq, x, y), fq) for y in basis] for x in basis], dtype=np.int64)


@functools.cache
def _tower_digit_tensor(tower: FieldTower) -> np.ndarray:
    """F_p structure tensor of F_q^s on flattened digits (digit e*j + i is digit i
    of coordinate j), from ext_mul."""
    fq = tower.fq
    basis = [tuple(fq.p**i if j == jj else 0 for jj in range(tower.s)) for j in range(tower.s) for i in range(fq.e)]
    return np.array([[loop_digits(ext_mul(tower, x, y), fq).reshape(-1) for y in basis] for x in basis],
                    dtype=np.int64)


def digit_fq_matmul(a: np.ndarray, b: np.ndarray, fq: Fq) -> np.ndarray:
    """F_q product (r,t) @ (t,c) by contracting base-p digits against the F_q tensor."""
    tmp = np.tensordot(loop_digits(a, fq), loop_digits(b, fq), axes=([1], [0]))  # (r, e, c, e)
    return _from_digits(np.einsum("racb,abd->rcd", tmp, _fq_digit_tensor(fq)), fq)


def _coords_to_digits(arr: np.ndarray, tower: FieldTower) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.int64)
    return loop_digits(arr, tower.fq).reshape(arr.shape[:-1] + (tower.s * tower.e,))


def _digits_to_coords(digits: np.ndarray, tower: FieldTower) -> np.ndarray:
    return _from_digits(digits.reshape(digits.shape[:-1] + (tower.s, tower.e)), tower.fq)


def digit_matmul(a: np.ndarray, b: np.ndarray, tower: FieldTower) -> np.ndarray:
    """F_q^s product (r,t,s) @ (t,c,s) by contracting digits against the top-field tensor."""
    tmp = np.tensordot(_coords_to_digits(a, tower), _coords_to_digits(b, tower), axes=([1], [0]))
    return _digits_to_coords(np.einsum("racb,abd->rcd", tmp, _tower_digit_tensor(tower)), tower)


def digit_scalar_matmul(x: np.ndarray, b: np.ndarray, tower: FieldTower) -> np.ndarray:
    """F_q (r,t) times F_q^s (t,c,s): only the first e rows of the top-field tensor take part."""
    tmp = np.tensordot(loop_digits(x, tower.fq), _coords_to_digits(b, tower), axes=([1], [0]))
    return _digits_to_coords(np.einsum("racb,abd->rcd", tmp, _tower_digit_tensor(tower)[: tower.e]), tower)


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


def regular_representation(x, tower: FieldTower) -> list[list[int]]:
    """s x s F_q matrix of multiplication by x in the power basis."""
    s = tower.s
    rows = []
    for i in range(s):
        basis_vec = tuple(1 if j == i else 0 for j in range(s))
        rows.append(list(ext_mul(tower, basis_vec, tuple(int(c) for c in x))))
    return rows


def rank_ext_oracle(data: np.ndarray, tower: FieldTower) -> int:
    """Rank over F_q^s of an (r, c, s) array computed without any extension-field elimination.

    Replacing every entry by its regular-representation block gives an
    F_q matrix whose rank is exactly s times the extension rank.
    """
    r, c = data.shape[:2]
    big = [[0] * (c * tower.s) for _ in range(r * tower.s)]
    for i in range(r):
        for j in range(c):
            block = regular_representation(data[i, j], tower)
            for a in range(tower.s):
                for b in range(tower.s):
                    big[i * tower.s + a][j * tower.s + b] = block[a][b]
    rank = naive_rank_fq(big, tower.fq)
    assert rank % tower.s == 0
    return rank // tower.s


def det_ext_oracle(mat_rows, tower: FieldTower):
    """Determinant over F_q^s by permutation expansion; fine up to 4x4."""
    n = len(mat_rows)
    total = ext_zero(tower)
    for perm in itertools.permutations(range(n)):
        sign_neg = _parity(perm)
        term = tower.one
        for i in range(n):
            term = ext_mul(tower, term, tuple(int(c) for c in mat_rows[i][perm[i]]))
        total = ext_add(tower, total, ext_neg(tower, term) if sign_neg else term)
    return total


def det_oracle(mat, fq: Fq) -> int:
    """Determinant by permutation expansion; fine up to 4x4."""
    m = [[int(x) for x in row] for row in mat]
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign_neg = _parity(perm)
        term = 1
        for i in range(n):
            term = fq_poly_mul(fq, term, m[i][perm[i]])
        total = fq_add(fq, total, fq_sub(fq, 0, term) if sign_neg else term)
    return total


def _parity(perm) -> bool:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return inversions % 2 == 1


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


def surjective_tuples(N: int, r: int, q: int) -> int:
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
        subspaces_by_echelon(dim, t, q) * surjective_tuples(N, t, q)
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
    basis = secrets.split.basis              # (2, 2) over F_q
    assert tower.s == 2 and secrets.split.v == 1

    def emul(x, y):
        return ext_mul(tower, tuple(int(t) for t in x), tuple(int(t) for t in y))

    def esub(x, y):
        return ext_sub(tower, tuple(int(t) for t in x), tuple(int(t) for t in y))

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


def scalar_respond(db_files, query_data, tower: FieldTower) -> list[list[tuple]]:
    """Response computed entry by entry with scalar tower ops."""
    m = len(db_files)
    L = db_files[0].shape[0]
    delta = db_files[0].shape[1]
    n = query_data.shape[1]
    out = []
    for row in range(L):
        out_row = []
        for col in range(n):
            acc = ext_zero(tower)
            for r in range(m):
                for t in range(delta):
                    x = int(db_files[r][row, t])
                    qe = tuple(int(u) for u in query_data[r * delta + t, col])
                    scaled = tuple(fq_poly_mul(tower.fq, x, u) for u in qe)
                    acc = ext_add(tower, acc, scaled)
            out_row.append(acc)
        out.append(out_row)
    return out
