"""Exact arithmetic for the field tower F_p <= F_q <= F_q^s.

Elements of the subfield F_q (q = p^e) are encoded as integers in [0, q):
the base-p digits of the encoding are the coefficients of the element in
the power basis of the base modulus.  An element of the top field F_q^s
is s such encodings, its coordinates in the power basis of the top
modulus, held on the last axis of a coordinate array.  Both moduli are
the lexicographically smallest monic irreducible polynomials of the
required degrees, found by exhaustive search in coefficient order, so a
tower is fully determined by (p, e, s).

Both extension steps are built by one construction: the powers of the
companion matrix C of the step's monic modulus, the matrix of y -> x*y
modulo it, so that row i of C^j holds the coordinates of x^(i+j).  Over
F_p, C^0..C^(e-1) is the structure tensor of F_q (Fq.mul_tensor); over
F_q, C^0..C^(s-1) is the power table of F_q^s (FieldTower.power_table).
The irreducibility test of a candidate modulus (Rabin's test on its C)
is a chain of matrix powers as well, so no polynomial arithmetic is left.

Bulk arithmetic runs on one product kernel, residue_matmul, a matrix
product mod p of residue arrays against a regular representation, which
replaces every entry of the right factor by the matrix of multiplication
by it: e x e over F_p for F_q (Fq.blow_up), s x s over F_q for F_q^s
(FieldTower.blow_up), so a product over the top field is one F_q
product, which is in turn one product over F_p.  The kernel runs on
float64 BLAS and is exact: it splits the inner axis into chunks whose
sums stay below 2^51 and reduces each partial sum without a division.

The one elimination kernel of the package, fq_echelon, works over F_p
only.  An F_q-space of dimension r is an F_p-space of dimension e*r, so
ranks and inverses over F_q (fq_rank, fq_inv_matrix) and over F_q^s
(see linalg.ext_rank) run on it through the same regular representations.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadSplit,
    DegreeTooSmall,
    DimensionMismatch,
    FieldTooLarge,
    NotPrime,
    ReducibleModulus,
    SamplingExhausted,
)

# Up to this order a product's float64 sums stay exact in chunks of at least
# (2^51 - p) / (p - 1)^2 >= 2^19 terms, and digit tables stay small (see residue_matmul).
MAX_SUBFIELD_ORDER = 1 << 16
# Guideline cap on the top field order.
MAX_TOWER_ORDER = 1 << 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# A float64 holds every integer below 2^53 exactly.  Below this bound the
# reduction in _reduce is exact too (see residue_matmul).
_EXACT_BELOW = 1 << 51


@functools.lru_cache(maxsize=None)
def _inverse_above(p: int) -> np.float64:
    """The smallest float64 not below 1/p."""
    inv = np.float64(1.0) / p
    return inv if Fraction(float(inv)) >= Fraction(1, p) else np.nextafter(inv, np.inf)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for a float64 array of integers in [0, _EXACT_BELOW)."""
    quotient = x * _inverse_above(p)
    np.floor(quotient, quotient)
    quotient *= p
    x -= quotient
    return x


def residue_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for arrays of residues in [0, p); leading axes broadcast as stacks.

    The product runs on float64 BLAS and returns the residues as exact
    integers in a float64 array.  Each term is at most (p-1)^2, so a chunk
    of (2^51 - p) // (p-1)^2 terms of the inner axis, plus the residue
    carried over from the chunks before it, sums to an integer below
    2^51, which float64 holds exactly.  Each sum x = k*p + r is reduced as
    x - p*floor(x*inv) with inv the smallest float not below 1/p: the
    rounded x*inv is at least k and exceeds x/p by at most 2^-51 * x/p,
    which is below 1/p for x < 2^51, so it stays below k + 1 and the floor
    is the exact quotient k.
    """
    a, b = np.asarray(a), np.asarray(b)
    chunk = (_EXACT_BELOW - p) // (p - 1) ** 2
    out = np.matmul(a[..., :chunk], b[..., :chunk, :], dtype=np.float64)
    for start in range(chunk, a.shape[-1], chunk):
        _reduce(out, p)
        out += np.matmul(a[..., start : start + chunk], b[..., start : start + chunk, :], dtype=np.float64)
    return _reduce(out, p)


@functools.lru_cache(maxsize=None)
def _digit_table(p: int, e: int) -> np.ndarray:
    """(p^e, e) table whose row x holds the base-p digits of x, least significant first."""
    table = np.empty((p**e, e), dtype=np.uint8 if p <= 256 else np.uint16)
    values = np.arange(p**e)
    for i in range(e):
        values, table[:, i] = np.divmod(values, p)
    table.setflags(write=False)
    return table


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Fq:
    """Arithmetic context for F_q with q = p^e, elements encoded as ints in [0, q).

    For e = 1 everything is plain arithmetic mod p.  For e >= 2 the
    arithmetic runs on the F_p regular representation of each element,
    built from the structure tensor; q is capped at MAX_SUBFIELD_ORDER and
    a reducible modulus raises ReducibleModulus.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = int(p)
        self.e = int(e)
        self.q = self.p**self.e
        if self.q > MAX_SUBFIELD_ORDER:
            raise FieldTooLarge(f"subfield order {self.q} exceeds {MAX_SUBFIELD_ORDER}")
        self.modulus = tuple(int(c) % self.p for c in modulus)
        if len(self.modulus) != self.e + 1 or self.modulus[self.e] != 1:
            raise ValueError("modulus must be monic of degree e")
        # the prime field, over which every elimination and Rabin's test compute
        self.fp = self if self.e == 1 else Fq(self.p, 1, (0, 1))
        if self.e > 1 and not _is_irreducible(self.fp, self.modulus):
            raise ReducibleModulus(f"modulus {self.modulus} is reducible over F_{self.p}")
        # structure tensor over F_p: (x*y)_d = sum_{a,b} x_a y_b T[a,b,d], T[a] = C^a
        self.mul_tensor = companion_powers(self.fp, self.modulus, self.e)
        self._weights = self.p ** np.arange(self.e, dtype=np.float64)  # digit i weighs p^i

    # -- vectorised arithmetic on encoding arrays -----------------------------

    def to_digits(self, arr: np.ndarray) -> np.ndarray:
        """(...,) encodings -> (..., e) base-p digit array, least significant digit first.

        The digits are gathered from a table of all q encodings, in the
        narrowest unsigned dtype that holds p - 1, so arithmetic that can
        leave [0, p) has to widen them first.
        """
        return np.take(_digit_table(self.p, self.e), np.asarray(arr, dtype=np.int64), axis=0)

    def from_digits(self, digits: np.ndarray) -> np.ndarray:
        """(..., e) integer digits, each taken mod p -> (...,) encodings."""
        return self._encode(np.asarray(digits, dtype=np.int64) % self.p)

    def _encode(self, digits: np.ndarray) -> np.ndarray:
        """(..., e) digits in [0, p) -> (...,) int64 encodings, as one 2-D product, which numpy hands to BLAS."""
        return (digits.reshape(-1, self.e) @ self._weights).astype(np.int64).reshape(digits.shape[:-1])

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (np.asarray(a) + np.asarray(b)) % self.p
        return self.from_digits(np.add(self.to_digits(a), self.to_digits(b), dtype=np.int64))

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        return self.from_digits(np.subtract(self.to_digits(a), self.to_digits(b), dtype=np.int64))

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entrywise product: the digits of a times the e x e regular representation of b."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return a * b % self.p
        digits = residue_matmul(self.to_digits(a)[..., None, :], self.blow_up(b[..., None, None]), self.p)
        return self._encode(digits[..., 0, :])

    def blow_up(self, b: np.ndarray) -> np.ndarray:
        """The (..., t*e, c*e) F_p regular representation of a (..., t, c) encoding array.

        Block (k, j) is the e x e matrix of y -> b_kj * y on digits: its
        row i holds the digits of x^i * b_kj.  Leading axes are a stack.
        """
        b = np.asarray(b, dtype=np.int64)
        *lead, t, c = b.shape
        e = self.e
        regular = residue_matmul(self.to_digits(b), self.mul_tensor.reshape(e, e * e), self.p).astype(np.int64)
        return regular.reshape(*lead, t, c, e, e).swapaxes(-3, -2).reshape(*lead, t * e, c * e)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over F_q of two encoding arrays (..., r, t) @ (..., t, c).

        For e > 1 the base-p digits of a multiply the (t*e, c*e) F_p
        regular representation of b, one residue_matmul, whose output
        digits are reduced already.  Leading axes broadcast as stacks of
        matrices.
        """
        if self.e == 1:
            return residue_matmul(a, b, self.p).astype(np.int64)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        *lead, r, t = a.shape
        out = residue_matmul(self.to_digits(a).reshape(*lead, r, t * self.e), self.blow_up(b), self.p)
        return self._encode(out.reshape(*out.shape[:-1], b.shape[-1], self.e))

    def rand(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.q, size=shape, dtype=np.int64)


def companion_powers(fq: Fq, modulus, count: int) -> np.ndarray:
    """(count, d, d) stack C^0..C^(count-1) over fq for a monic modulus of degree d.

    C is the companion matrix, the matrix of y -> x*y modulo the modulus
    acting on power-basis coordinates as y @ C, so row i of C^j holds the
    coordinates of x^(i+j).
    """
    d = len(modulus) - 1
    C = np.eye(d, k=1, dtype=np.int64)
    C[-1] = fq.vsub(0, np.asarray(modulus[:d], dtype=np.int64))
    powers = [np.eye(d, dtype=np.int64), C]
    while len(powers) < count:
        powers.append(fq.matmul(powers[-1], C))
    return np.array(powers[:count])


def _matpow(a: np.ndarray, n: int, matmul) -> np.ndarray:
    """a^n for n >= 1 by square-and-multiply, with no squaring past the top bit of n."""
    out = None
    while True:
        if n & 1:
            out = a if out is None else matmul(out, a)
        n >>= 1
        if not n:
            return out
        a = matmul(a, a)


# -- the elimination kernel over F_p (numpy arrays of residues) -----------------


def fq_echelon(arr: np.ndarray, fq: Fq, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over the prime field F_p with leftmost-column, topmost-row pivoting.

    Args:
        arr: (rows, cols) array of residues mod p.
        fq: a prime-field context (e = 1); larger fields reach this kernel
            through their F_p regular representation (Fq.blow_up).
        reduced: eliminate above pivots too and normalise them to 1.

    Returns:
        The echelon form and the list of pivot column indices.

    Only the columns holding a nonzero entry on entry are walked: row
    operations keep a zero column zero, so no pivot can appear in one.
    """
    if fq.e != 1:
        raise ValueError(f"fq_echelon eliminates over F_p only, got F_{fq.q}; pass the blow-up over fq.fp")
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


@functools.lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """inverses[a] = a^-1 mod p for 0 < a < p, and inverses[0] = 0."""
    table = np.zeros(p, dtype=np.int64)
    table[1:] = [pow(a, -1, p) for a in range(1, p)]
    table.setflags(write=False)
    return table


def fq_echelon_stack(arr: np.ndarray, fq: Fq, reduced: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """fq_echelon on every matrix of a (count, rows, cols) stack at once.

    Step r finds the r-th pivot of every matrix: the leftmost column with
    a nonzero entry in rows r and below, and the topmost such entry.  The
    step swaps that row into row r (a no-op where the row is r already,
    or where a matrix has no pivot left), normalises it from a table of
    inverses mod p, and eliminates with it across the whole stack, so the
    Python loop runs once per pivot, not once per matrix.  Each matrix
    gets exactly the row operations fq_echelon applies to it, so the
    echelon forms agree entry for entry.  A stack of one runs fq_echelon.

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
        R, found = fq_echelon(arr[0], fq, reduced)
        return R[None], np.array([len(found)]), np.array([found + [-1] * (depth - len(found))], dtype=np.int64)
    R = np.array(arr, dtype=np.int64, copy=True)
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


def fq_rank(arr: np.ndarray, fq: Fq):
    """Rank over F_q; for e > 1 the F_p rank of the blow-up, which is e times it.

    A (..., rows, cols) stack gives the array of the ranks of its matrices;
    a stack of one matrix is ranked by the 2-D fq_echelon.
    """
    arr = np.asarray(arr)
    if arr.ndim == 2 and not arr.any():
        return 0
    if fq.e > 1:
        return fq_rank(fq.blow_up(arr), fq.fp) // fq.e
    *lead, rows, cols = arr.shape
    if math.prod(lead) != 1:
        return fq_echelon_stack(arr.reshape(-1, rows, cols), fq)[1].reshape(lead)
    rank = len(fq_echelon(arr.reshape(rows, cols), fq)[1])
    return np.full(lead, rank) if lead else rank


def fq_inv_matrix(arr: np.ndarray, fq: Fq) -> np.ndarray:
    """Inverse of a square matrix of F_q encodings; ValueError when singular."""
    arr = np.asarray(arr, dtype=np.int64)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise DimensionMismatch(f"expected square matrix, got {arr.shape}")
    if fq.e > 1:
        inv = fq_inv_matrix(fq.blow_up(arr), fq.fp)
        # row 0 of every block of the inverse blow-up holds the digits of the entry
        return fq.from_digits(inv[:: fq.e].reshape(n, n, fq.e))
    R, pivots = fq_echelon(np.hstack([arr, np.eye(n, dtype=np.int64)]), fq, reduced=True)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def _is_irreducible(fq: Fq, poly: list[int]) -> bool:
    """Rabin's test for a monic polynomial of degree d >= 1 over fq, on its companion matrix C.

    C^n is the matrix of multiplication by x^n modulo poly, so C^n - C has
    rank d minus the degree of gcd(x^n - x, poly).  poly is irreducible iff
    C^(q^d) = C and C^(q^(d/r)) - C has rank d for every prime r | d.  The
    q-th powers run along one chain C, C^q, C^(q^2), ... on the blow-up of
    C over F_p, where a product is one residue_matmul and the rank is e
    times the rank over F_q; each rank is checked as the chain reaches it,
    so most reducible candidates stop early.
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


def smallest_irreducible(fq: Fq, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree over fq.

    Candidates are enumerated by the integer value of their non-leading
    coefficient vector in base q (constant term least significant), so the
    result is deterministic for a given field.  A candidate with zero
    derivative (p divides every exponent with a nonzero coefficient) is a
    p-th power over the perfect field fq, hence reducible, and is skipped
    without a test.
    """
    if degree < 1:
        raise DegreeTooSmall("irreducible polynomials need degree >= 1")
    p = fq.p
    for value in range(fq.q**degree):
        coeffs = [(value // fq.q**i) % fq.q for i in range(degree)] + [1]
        if degree % p == 0 and not any(coeffs[i] for i in range(degree) if i % p):
            continue
        if _is_irreducible(fq, coeffs):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found; field context is broken")


class FieldTower:
    """Immutable arithmetic context for F_p <= F_q <= F_q^s.

    Elements are numpy coordinate arrays of shape (..., s); the arithmetic
    runs on whole arrays (matmul, scalar_matmul).
    """

    def __init__(self, fq: Fq, s: int, top_modulus: tuple[int, ...]):
        self.fq = fq
        self.p, self.e, self.s = fq.p, fq.e, int(s)
        self.q = fq.q
        self.order = self.q**self.s
        self.base_modulus = self.fq.modulus
        self.top_modulus = tuple(int(c) for c in top_modulus)
        if len(self.top_modulus) != self.s + 1 or self.top_modulus[self.s] != 1:
            raise ValueError("top modulus must be monic of degree s")
        # (s, s*s) F_q matrix with y @ power_table = [y, x*y, ..., x^(s-1)*y]
        # on coordinates: row j holds x^(j+i) for i < s, so one product with
        # it gives every row of the multiplication map of y (see blow_up)
        powers = companion_powers(self.fq, self.top_modulus, self.s)
        self.power_table = powers.transpose(1, 0, 2).reshape(self.s, self.s * self.s)

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, s={self.s})"

    @property
    def one(self) -> tuple[int, ...]:
        """The coordinates of 1."""
        return (1,) + (0,) * (self.s - 1)

    # -- vectorised operations on coordinate arrays ------------------------------

    def rand(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Uniform coordinate array of the given leading shape, plus the s axis."""
        if isinstance(shape, int):
            shape = (shape,)
        return rng.integers(0, self.q, size=tuple(shape) + (self.s,), dtype=np.int64)

    def blow_up(self, data: np.ndarray) -> np.ndarray:
        """The (..., r*s, c*s) F_q regular representation of an (..., r, c, s) coordinate array.

        Block (a, b) is the s x s matrix of y -> m_ab * y in the power basis:
        its row i holds the coordinates of x^i * m_ab.  The map is an
        injective ring homomorphism, so the F_q rank of the blow-up is s times
        the rank over F_q^s, the blow-up of an inverse is the inverse of the
        blow-up, and a @ b over F_q^s is a (with rows flattened) times the
        blow-up of b over F_q.  Leading axes are a stack.
        """
        *lead, r, c, s = np.shape(data)
        shifted = self.fq.matmul(np.reshape(data, (-1, s)), self.power_table)
        return shifted.reshape(*lead, r, c, s, s).swapaxes(-3, -2).reshape(*lead, r * s, c * s)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product over F_q^s of coordinate arrays (..., r, t, s) @ (..., t, c, s) -> (..., r, c, s)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[-2] != b.shape[-3]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
        *lead, r, t, s = a.shape
        out = self.fq.matmul(a.reshape(*lead, r, t * s), self.blow_up(b))
        return out.reshape(*out.shape[:-1], b.shape[-2], s)

    def scalar_matmul(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of an F_q matrix (r,t) with a coordinate array (t,c,s).

        Subfield entries act coordinate-wise, so this is one F_q product
        with the coordinates of each row of b laid side by side.
        """
        x = np.asarray(x, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if x.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {x.shape} vs {b.shape}")
        t, c, s = b.shape
        return self.fq.matmul(x, b.reshape(t, c * s)).reshape(len(x), c, s)


def build_tower(p: int, e: int, s: int) -> FieldTower:
    """Construct the canonical tower for (p, e, s).

    Raises NotPrime for composite p, DegreeTooSmall for e < 1 or s < 2 and
    FieldTooLarge beyond desk-scale orders.  The moduli are found by
    exhaustive search, so equal inputs always yield identical towers.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise DegreeTooSmall("base degree e must be at least 1")
    if s < 2:
        raise DegreeTooSmall("top degree s must be at least 2")
    # p >= 2: bound e*s first, so huge degrees never build a huge power
    if e * s >= MAX_TOWER_ORDER.bit_length() or p ** (e * s) > MAX_TOWER_ORDER:
        raise FieldTooLarge(f"{p}^{e * s} exceeds the desk-scale cap of 2^64")
    fq = Fq(p, e, smallest_irreducible(Fq(p, 1, (0, 1)), e))
    return FieldTower(fq, s, smallest_irreducible(fq, s))


# -- basis splits --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BasisSplit:
    """A basis of F_q^s over F_q split into a leading and a trailing part.

    Row t of ``basis`` holds the power-basis coordinates of the t-th basis
    vector.  The first v rows span the subspace V, the remaining s - v rows
    span W, and V + W = F_q^s as F_q-spaces.
    """

    basis: np.ndarray  # (s, s) F_q encodings, invertible
    v: int

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def s(self) -> int:
        return self.basis.shape[0]


def redraw_rejected(rngs, draw, accept, max_tries: int, exhausted: str) -> tuple[np.ndarray, np.ndarray]:
    """One accepted candidate per RNG stream, by rejection sampling over a stack.

    Every pending stream draws one candidate with ``draw(rng)``;
    ``accept(indices, candidates)`` tests the stacked candidates of the
    streams at ``indices`` at once and returns a bool per candidate, and
    only the rejected streams draw again.  A stream's draws thus come in
    the order a loop over that stream alone would make them.

    Returns the stack of accepted candidates and the number of draws each
    stream made; a stream still rejected after ``max_tries`` draws raises
    SamplingExhausted with the message ``exhausted``.
    """
    if len(rngs) == 1:  # one stream: the same draws without the bookkeeping over streams
        only = np.zeros(1, dtype=np.int64)
        for tries in range(1, max_tries + 1):
            candidate = draw(rngs[0])[None]
            if accept(only, candidate)[0]:
                return candidate, np.array([tries])
        raise SamplingExhausted(exhausted)
    chosen = [None] * len(rngs)
    draws = [0] * len(rngs)
    pending = list(range(len(rngs)))
    for _ in range(max_tries):
        candidates = [draw(rngs[i]) for i in pending]
        ok = accept(np.array(pending), np.array(candidates)).tolist()
        rejected = []
        for i, candidate, good in zip(pending, candidates, ok):
            draws[i] += 1
            if good:
                chosen[i] = candidate
            else:
                rejected.append(i)
        pending = rejected
        if not pending:
            return np.array(chosen), np.array(draws)
    raise SamplingExhausted(exhausted)


def sample_split_bases(tower: FieldTower, v: int, rngs, max_tries: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """A uniform basis matrix of F_q^s over F_q per RNG stream, and each stream's draws.

    Rejection-samples uniform s x s matrices over F_q until invertible.
    The retry cap only exists to surface broken RNGs; a uniform sampler
    passes within a handful of draws.
    """
    s, fq = tower.s, tower.fq
    if not 0 < v < s:
        raise BadSplit(f"split position must satisfy 0 < v < {s}, got {v}")
    return redraw_rejected(
        rngs,
        lambda rng: fq.rand(rng, (s, s)),
        lambda _, candidates: fq_rank(candidates, fq) == s,
        max_tries,
        f"no invertible basis matrix in {max_tries} draws",
    )


def sample_basis_split(tower: FieldTower, v: int, rng: np.random.Generator, max_tries: int = 1000) -> BasisSplit:
    """Uniform basis of F_q^s over F_q, split after position v (sample_split_bases for one stream)."""
    bases, _ = sample_split_bases(tower, v, [rng], max_tries)
    return BasisSplit(basis=bases[0], v=v)

