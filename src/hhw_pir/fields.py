"""Exact arithmetic for the field tower F_p <= F_q <= F_q^s.

Elements of the subfield F_q (q = p^e) are encoded as integers in [0, q):
the base-p digits of the encoding are the coefficients of the element in
the power basis of the base modulus.  An element of the top field F_q^s
is s such encodings, its coordinates in the power basis of the top
modulus, held on the last axis of a coordinate array.  Both moduli are
the lexicographically smallest monic irreducible polynomials of the
required degrees, found by a search in coefficient order that skips
provably reducible candidates and tests the rest in stacks; it refuses
with ModulusSearchExhausted once a fixed budget of F_p work is spent, so
it finishes or refuses in bounded time.  A tower is fully determined by
(p, e, s), and build_tower builds each one once per process.

Both extension steps are built by one construction: the powers of the
companion matrix C of the step's monic modulus, the matrix of y -> x*y
modulo it, so that row i of C^j holds the coordinates of x^(i+j).  Over
F_p, C^0..C^(e-1) is the structure tensor of F_q (Fq.mul_tensor); the
F_p blow-ups of C^0..C^(s-1) over F_q, times those of the powers of the
generator of F_q, give the structure tensor of F_q^s over F_p
(FieldTower.mul_tensor).  The irreducibility test of candidate moduli
(Rabin's test on their C, _rabin) is a chain of matrix powers as well,
run on a stack of candidates at once, so no polynomial arithmetic is
left.

Bulk arithmetic runs on one product kernel, residue_matmul, a matrix
product mod p of residue arrays against an F_p regular representation,
which replaces every entry of the right factor by the matrix of
multiplication by it on base-p digits: e x e for F_q (Fq.blow_up) and
(s*e) x (s*e) for F_q^s (FieldTower.blow_up).  F_q has at most 2^16
elements, so each Fq keeps the e x e matrices of all of them in one
table, and its blow-up is a lookup; F_q^s is too large for that, and its
blow-up is one product of the digits with its structure tensor.  So a
product over either field is the blow-up and one kernel call, the digits
of the left factor times it.  The kernel is exact on BLAS: one float32
product when every sum stays below 2^22, else a float64 one whose inner
axis is split into chunks whose sums stay below 2^51; each sum is
reduced without a division.  Sums over F_(2^e) need no kernel: the base-2
digits of an encoding are its bits, so they are XOR.

Elimination and ranks work over F_p only.  An F_q-space of dimension r
is an F_p-space of dimension e*r, so ranks and inverses over F_q
(fq_rank, fq_inv_matrix) and over F_q^s (see linalg.ext_rank) reach them
through the same F_p regular representations.  Every kernel packs each row
into one Python int, an entry to a field of bits (_pack_rows, after the
M4RI library of Albrecht and Bard, without its tables), and acts on whole
rows at once: over F_2 with XOR, for odd p with one integer multiply-add
and a division-free reduction of every field (_reduce_fields).  One loop
row-reduces: _insert_rows inserts each row into a basis keyed by top
field.  Every kernel opens with _bases, which packs a matrix or a stack
at once and builds the basis of each matrix.  fq_rank counts those
bases; fq_echelon clears the basis on its pivots into the reduced
echelon form, by a body (_echelon) that fq_inv_matrix shares to invert
with one range check; and fq_deletion_ranks, the attack's scan of every
block deletion, reads all of them off the basis of the transposed
query, inserting the masked rows that lead in a block into that basis
and popping what they added.  All four raise CoordinateOutOfRange on an
entry outside [0, q), which a packed field would wrap.

That check is one of two input gates that every module of the package
runs its integer inputs through: as_integer for a scalar, integer_array
for an array.  A bool is not an integer, an array of another dtype is
refused where a cast would truncate it, and an array's entries must lie
in [0, bound); each gate raises the error type its caller names.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from fractions import Fraction

from .errors import (
    BadArguments,
    CoordinateOutOfRange,
    DegreeTooSmall,
    DimensionMismatch,
    FieldTooLarge,
    ModulusSearchExhausted,
    NotPrime,
    ReducibleModulus,
    SamplingExhausted,
)

# Up to this order a product's float64 sums stay exact in chunks of at least
# (2^51 - p) / (p - 1)^2 >= 2^19 terms, and digit tables stay small; a product
# runs in float32 instead while its whole sum stays below 2^22, which for
# p < 2^11 holds up to (2^22 - p) / (p - 1)^2 terms (see residue_matmul).
MAX_SUBFIELD_ORDER = 1 << 16
# Guideline cap on the top field order.
MAX_TOWER_ORDER = 1 << 64
# The modulus search (smallest_irreducible) tests chunks of consecutive
# candidates, doubling from 1 to _SEARCH_CHUNK, and starts no chunk once
# its Rabin tests have spent MODULUS_SEARCH_BUDGET F_p multiply-adds: a
# deterministic count of work, never wall time.
_SEARCH_CHUNK = 256
MODULUS_SEARCH_BUDGET = 1 << 34

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


# A float64 holds every integer below 2^53 exactly, a float32 every one below
# 2^24.  Below these bounds the reduction in _reduce is exact too (see residue_matmul).
_EXACT_BELOW = 1 << 51
_EXACT_BELOW_FLOAT32 = 1 << 22


@functools.lru_cache(maxsize=None)
def _inverse_above(p: int, dtype: type) -> np.floating:
    """The smallest float of ``dtype`` (np.float32 or np.float64) not below 1/p."""
    inv = dtype(1.0) / dtype(p)
    return inv if Fraction(float(inv)) >= Fraction(1, p) else np.nextafter(inv, dtype(np.inf))


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for a float array of integers below its dtype's exactness bound."""
    quotient = x * _inverse_above(p, x.dtype.type)
    np.floor(quotient, quotient)
    quotient *= p
    x -= quotient
    return x


def product_dtype(p: int, terms: int) -> type:
    """The float dtype residue_matmul multiplies in for an inner axis of ``terms`` terms mod p.

    np.float32 while (p-1)^2 * terms + p <= 2^22, else np.float64.  A left
    factor kept in this dtype (scheme.Database.digits) enters the product
    without a cast.
    """
    return np.float32 if (p - 1) ** 2 * terms + p <= _EXACT_BELOW_FLOAT32 else np.float64


def residue_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for arrays of residues in [0, p); leading axes broadcast as stacks.

    The product runs on BLAS and returns the residues as exact integers in
    a float array: float32 when the whole inner sum fits, float64
    otherwise.  Each term is at most (p-1)^2.  When (p-1)^2 * t + p <= 2^22
    for the t terms of the inner axis, every sum is an integer below 2^22,
    which float32 (24-bit significand) holds exactly, and the product is one
    float32 product.  Otherwise a chunk of (2^51 - p) // (p-1)^2 terms, plus
    the residue carried over from the chunks before it, sums to an integer
    below 2^51, which float64 (53 bits) holds exactly, and the chunks run
    as float64 products.  Each sum x = k*p + r is reduced as
    x - p*floor(x*inv) with inv the smallest float of the product's dtype
    not below 1/p.  With u = 2^-23 or 2^-52 the spacing of that dtype's
    floats at 1, inv and the rounding of x*inv each err by at most u in
    relative terms, so the rounded x*inv is at least k and exceeds x/p by
    less than 2u * x/p, which is below 1/p for x below 2^22 or 2^51: it
    stays below k + 1 and the floor is the exact quotient k.
    """
    a, b = np.asarray(a), np.asarray(b)
    if product_dtype(p, a.shape[-1]) is np.float32:
        return _reduce(np.matmul(a, b, dtype=np.float32), p)
    chunk = (_EXACT_BELOW - p) // (p - 1) ** 2
    out = np.matmul(a[..., :chunk], b[..., :chunk, :], dtype=np.float64)
    for start in range(chunk, a.shape[-1], chunk):
        _reduce(out, p)
        out += np.matmul(a[..., start : start + chunk], b[..., start : start + chunk, :], dtype=np.float64)
    return _reduce(out, p)


def digit_dtype(p: int) -> type:
    """The narrowest unsigned dtype that holds p - 1, in which digits and F_p blow-ups are kept."""
    return np.uint8 if p <= 256 else np.uint16


@functools.lru_cache(maxsize=None)
def _digit_table(p: int, e: int) -> np.ndarray:
    """(p^e, e) table whose row x holds the base-p digits of x, least significant first."""
    table = np.empty((p**e, e), dtype=digit_dtype(p))
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


def _coefficients(modulus, bound: int, what: str) -> tuple[int, ...]:
    """A modulus's coefficients as Python ints (as_integer, BadArguments); CoordinateOutOfRange unless in [0, bound)."""
    coefficients = tuple(as_integer(c, BadArguments, f"{what} coefficient") for c in modulus)
    if not all(0 <= c < bound for c in coefficients):
        raise CoordinateOutOfRange(f"{what} {coefficients} has a coefficient outside [0, {bound})")
    return coefficients


class Fq:
    """Arithmetic context for F_q with q = p^e, elements encoded as ints in [0, q).

    For e = 1 everything is plain arithmetic mod p.  For e >= 2 products
    run on the F_p regular representation of each element, looked up in
    ``regular_table``, which is built from the structure tensor on first
    use; sums run digitwise, and over F_(2^e) as XOR.  A p, e or modulus
    coefficient that is not an integer raises BadArguments and a
    coefficient outside [0, p) CoordinateOutOfRange (_coefficients), a
    composite p NotPrime and e < 1 DegreeTooSmall, q is capped at
    MAX_SUBFIELD_ORDER and a reducible modulus raises ReducibleModulus.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = as_integer(p, BadArguments, "characteristic p")
        self.e = as_integer(e, BadArguments, "base degree e")
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        if self.e < 1:
            raise DegreeTooSmall("base degree e must be at least 1")
        self.q = self.p**self.e
        if self.q > MAX_SUBFIELD_ORDER:
            raise FieldTooLarge(f"subfield order {self.q} exceeds {MAX_SUBFIELD_ORDER}")
        self.modulus = _coefficients(modulus, self.p, "modulus")
        if len(self.modulus) != self.e + 1 or self.modulus[self.e] != 1:
            raise ValueError("modulus must be monic of degree e")
        # the prime field, over which every elimination and Rabin's test compute
        self.fp = self if self.e == 1 else Fq(self.p, 1, (0, 1))
        if self.e > 1 and not _rabin(self.fp, [self.modulus[: self.e]])[0][0]:
            raise ReducibleModulus(f"modulus {self.modulus} is reducible over F_{self.p}")
        # structure tensor over F_p: (x*y)_d = sum_{a,b} x_a y_b T[a,b,d], T[a] = C^a
        self.mul_tensor = companion_powers(self.fp, self.modulus, self.e)
        self._weights = self.p ** np.arange(self.e, dtype=np.float64)  # digit i weighs p^i
        # a context is shared (build_tower memoises towers), so its arrays are read-only
        self.mul_tensor.setflags(write=False)
        self._weights.setflags(write=False)

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
        """(..., e) digits in [0, p) -> (...,) int64 encodings.

        For e = 1 the encoding is the digit, so this is a cast; otherwise
        one 2-D product with the digit weights, which numpy hands to BLAS.
        """
        if self.e == 1:
            return digits[..., 0].astype(np.int64)
        return (digits.reshape(-1, self.e) @ self._weights).astype(np.int64).reshape(digits.shape[:-1])

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entrywise sum; over F_(2^e) the digits are the bits, so it is XOR."""
        if self.p == 2:
            return np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return (np.asarray(a) + np.asarray(b)) % self.p
        return self.from_digits(np.add(self.to_digits(a), self.to_digits(b), dtype=np.int64))

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Entrywise difference; over F_(2^e) it is the sum."""
        if self.p == 2:
            return self.vadd(a, b)
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

    @functools.cached_property
    def regular_table(self) -> np.ndarray:
        """Read-only (q, e, e) table whose entry b is the e x e F_p matrix of y -> b*y on digits.

        Row i of entry b holds the digits of x^i * b, x the generator.  The
        matrix is F_p-linear in b, so with b = c*p^j + r, r < p^j and c < p,
        entry b is entry r plus c*C^j mod p (C^j = mul_tensor[j]): digit
        position j fills entries p^j .. p^(j+1) - 1 from those below them,
        one broadcast sum and reduction per position.  The table is kept
        in the digit dtype (digit_dtype), q*e^2 entries: 16 bytes for F_4,
        5.9 MB for F_(3^10), 16 MiB for F_(2^16).
        """
        p, e = self.p, self.e
        table = np.zeros((self.q, e, e), dtype=digit_dtype(p))
        for j, power in enumerate(self.mul_tensor):
            below = p**j
            multiples = (np.arange(1, p)[:, None, None, None] * power % p).astype(table.dtype)  # c*C^j, c = 1..p-1
            out = table[below : p * below].reshape(p - 1, below, e, e)
            if p <= 128:  # a sum of two residues, at most 2p - 2, fits uint8: add and reduce in place
                np.add(table[:below], multiples, out=out)
                out %= p
            else:
                out[...] = np.add(table[:below], multiples, dtype=np.uint16) % p
        table.setflags(write=False)
        return table

    def blow_up(self, b: np.ndarray) -> np.ndarray:
        """The (..., t*e, c*e) F_p regular representation of a (..., t, c) encoding array, as int64.

        Block (k, j) is the e x e matrix of y -> b_kj * y on digits: its
        row i holds the digits of x^i * b_kj, the entry of b_kj in
        regular_table, so the blow-up is one lookup and a block transpose.
        Leading axes are a stack.  For e = 1 that is b itself.  An entry
        outside [0, q) is not checked here: a negative one wraps and one
        past q raises IndexError, so entry points check with _encodings.
        """
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return b
        *lead, t, c = b.shape
        e = self.e
        regular = np.take(self.regular_table, b, axis=0).swapaxes(-3, -2).astype(np.int64, order="C")
        return regular.reshape(*lead, t * e, c * e)

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
    C = _companion(fq, modulus[:d])
    powers = [np.eye(d, dtype=np.int64), C]
    while len(powers) < count:
        powers.append(fq.matmul(powers[-1], C))
    return np.array(powers[:count])


def _companion(fq: Fq, coeffs) -> np.ndarray:
    """The (..., d, d) companion matrices over fq of the monic polynomials with non-leading coefficients (..., d)."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    d = coeffs.shape[-1]
    C = np.zeros(coeffs.shape + (d,), dtype=np.int64)
    C[..., :-1, 1:] = np.eye(d - 1, dtype=np.int64)
    C[..., -1, :] = fq.vsub(0, coeffs)
    return C


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


@functools.lru_cache(maxsize=256)
def _row_layout(p: int, cols: int) -> tuple[int, tuple[int, int, int, int]]:
    """(fields, (w, s, m, low)) of a packed row of ``cols`` entries over F_p (see _pack_rows).

    A packed row holds ``fields`` fields of w bits.  Over F_2, w = 1 and
    fields is cols rounded up to whole bytes; a row operation is XOR and
    reduces nothing, so s = m = low = 0.  For odd p, fields = cols and w is
    the narrowest of 8, 16, 32 and 64 with (p^2 - 1) * m < 2^w (every odd
    p < 2^16 fits in 64); s = bitlen(p^3) and m = ceil(2^s / p) are the
    shift and multiplier of the reduction (_reduce_fields), and low holds
    the low w - s bits of each of the cols fields.
    """
    if p == 2:
        return 8 * -(-cols // 8), (1, 0, 0, 0)
    s = (p**3).bit_length()
    m = -(-(1 << s) // p)
    w = next(w for w in (8, 16, 32, 64) if (p * p - 1) * m < 1 << w)
    # (2^(w*cols) - 1) / (2^w - 1) has a 1 at the bottom of every field
    return cols, (w, s, m, ((1 << w - s) - 1) * ((1 << w * cols) - 1) // ((1 << w) - 1))


def _reduce_fields(x: int, p: int, s: int, m: int, low: int) -> int:
    """Every field of a packed row over odd F_p, each below p^2, reduced mod p with no division.

        x - p * (((x * m) >> s) & low),   low the low w - s bits of each field.

    This is exact field by field.  Each field y of x stays below p^2: a
    field of a row is below p, one of (p - c) * b, b a row, is at most
    (p - 1)^2, and so is one of a row times the inverse of its top field.
    So y * m <= (p^2 - 1) * m < 2^w carries nothing into the next field;
    the shift puts floor(y * m / 2^s), which is below 2^(w - s), in the
    low w - s bits of the field, and low drops the s bits shifted in from
    the field above.  With y = k * p + r and m * p = 2^s + d, 0 <= d < p,
    y * m / 2^s = k + (r + y * d / 2^s) / p, and y * d < p^3 <= 2^s keeps
    r + y * d / 2^s below p, so the floor is the quotient k and each field
    drops to y - k * p = r with no borrow.  The row operations of the
    kernels inline it.
    """
    return x - p * ((x * m >> s) & low)


@functools.lru_cache(maxsize=256)
def _row_weights(cols: int, w: int) -> np.ndarray:
    """The weight of each of ``cols`` fields of w bits in a packed row of at most 64 bits, as int64 (see _pack_rows)."""
    top = 8 * -(-cols * w // 8)  # the row's bits, padded at the bottom to whole bytes
    weights = np.array([1 << top - w * (c + 1) for c in range(cols)], dtype=np.uint64).view(np.int64)
    weights.setflags(write=False)
    return weights


def _pack_rows(arr: np.ndarray, w: int) -> list[int]:
    """Every row of a (..., cols) array of residues mod p as one Python int, with fields of w bits.

    Column c of a row is its c-th field from the top, w from
    _row_layout(p, cols): over F_2, w = 1 and the row is padded at the
    bottom to whole bytes.  The rows come in C order of the leading axes
    whatever the memory order of arr.  Rows of at most 64 bits are packed
    all at once by one int64 product with the weight of each field
    (_row_weights), read as uint64: the fields do not overlap, so each
    sum is below 2^64, and int64 arithmetic wraps mod 2^64 to its bits
    (the top weight, 2^63, is -2^63 in int64).  Longer rows are packed by
    one numpy call (np.packbits, or a cast to big-endian fields) and read
    with int.from_bytes.
    """
    cols = arr.shape[-1]
    if cols * w <= 64:
        return (arr @ _row_weights(cols, w)).view(np.uint64).ravel().tolist()
    data = np.packbits(arr, axis=-1) if w == 1 else arr.astype(f">u{w // 8}")
    raw, nbytes = data.tobytes(), data.shape[-1] * data.itemsize  # tobytes is in C order
    return [int.from_bytes(raw[i : i + nbytes], "big") for i in range(0, len(raw), nbytes)]


def fq_echelon(arr: np.ndarray, fq: Fq) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over the prime field F_p.

    Args:
        arr: (rows, cols) array of residues mod p; an entry outside [0, p)
            raises CoordinateOutOfRange.
        fq: a prime-field context (e = 1); larger fields reach this kernel
            through their F_p regular representation (Fq.blow_up).

    Returns:
        The echelon form, a new (rows, cols) int64 array with its zero rows
        last, whose pivots are 1 and the only nonzero entries of their
        columns, and the ascending list of pivot column indices.

    The rows are packed (_pack_rows) and inserted into a basis keyed by
    top field (_insert_rows), whose rows, normalised and with distinct top
    fields, are the pivot rows.  From the rightmost pivot leftwards, each
    basis row is then cleared on the pivot fields right of its own by the
    rows already done; those are zero on each other's pivot fields, so one
    pass clears every one.  The rows are emitted by pivot column.  The
    reduced echelon form of a matrix is unique, so the result depends only
    on the matrix, and it is the one of the numpy loop this kernel replaced
    (tests/oracles.py:loop_echelon, reduced).
    """
    if fq.e != 1:
        raise ValueError(f"fq_echelon eliminates over F_p only, got F_{fq.q}; pass the blow-up over fq.fp")
    return _echelon(_encodings(arr, fq), fq.p)


def _echelon(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """fq_echelon of a (rows, cols) int64 array whose entries are known to lie in [0, p)."""
    rows, cols = arr.shape
    fields, (w, s, m, low), (basis,) = _bases(arr, p)
    field = (1 << w) - 1
    done: list[tuple[int, int]] = []  # (shift, row), from the rightmost pivot
    for shift in sorted(basis):
        x = basis[shift]
        for right, b in done:
            c = x >> right & field
            if c:
                if p == 2:
                    x ^= b
                else:
                    x += (p - c) * b
                    x -= p * ((x * m >> s) & low)  # _reduce_fields, inlined
        done.append((shift, x))
    done.reverse()
    nbytes = fields * w // 8
    packed = b"".join([x.to_bytes(nbytes, "big") for _, x in done]) + bytes(nbytes * (rows - len(done)))
    pivots = [fields - 1 - shift // w for shift, _ in done]
    if p == 2:
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(rows, nbytes)
        return np.unpackbits(bits, axis=1, count=cols).astype(np.int64), pivots
    return np.frombuffer(packed, dtype=f">u{w // 8}").reshape(rows, cols).astype(np.int64), pivots


def as_integer(value, error: type[Exception], what: str) -> int:
    """value as a Python int; ``error`` naming ``what`` unless it is an integer.

    An integer is what has __index__, Python's and numpy's integers alike.
    A bool is not one (numpy's has no __index__), and a float or a string
    is refused where int() would truncate or parse it.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def integer_array(arr, bound: int | None, error: type[Exception], what: str) -> np.ndarray:
    """arr as an int64 array; ``error`` naming ``what`` unless it is an integer array with entries in [0, bound).

    A non-empty array that is not of an integer dtype (float, bool,
    object) is refused, where a cast would truncate or reinterpret it.
    The range is one maximum over the entries read as unsigned, where a
    negative one reads as at least 2^63; bound None checks the dtype only.
    """
    arr = np.asarray(arr)
    if arr.size and arr.dtype.kind not in "iu":
        raise error(f"{what} must be an integer array, got {arr.dtype}, which a cast to integers would alter")
    arr = arr.astype(np.int64, copy=False)
    if bound is not None and arr.size and arr.view(np.uint64).max() >= bound:
        raise error(f"{what} span [{arr.min()}, {arr.max()}], outside [0, {bound})")
    return arr


def _encodings(arr, fq: Fq) -> np.ndarray:
    """arr as an int64 array of F_q encodings, or CoordinateOutOfRange (integer_array).

    A packed field would wrap an entry outside [0, q) without a trace, so
    the kernels' entry points check the range once, before any blow-up.
    """
    return integer_array(arr, fq.q, CoordinateOutOfRange, "entries")


def fq_rank(arr: np.ndarray, fq: Fq):
    """Rank over F_q of a (rows, cols) matrix, or the int64 array of the ranks of a (..., rows, cols) stack.

    For e > 1 it is the F_p rank of the blow-up divided by e: the size of
    each matrix's basis (_bases).  No echelon form is built.
    """
    arr = fq.blow_up(_encodings(arr, fq))
    ranks = [len(basis) // fq.e for basis in _bases(arr, fq.p)[2]]
    lead = arr.shape[:-2]
    return np.array(ranks, dtype=np.int64).reshape(lead) if lead else ranks[0]


def _bases(arr: np.ndarray, p: int) -> tuple[int, tuple[int, int, int, int], list[dict[int, int]]]:
    """(fields, layout, bases) of a (..., rows, cols) array of residues mod p, the prologue of every packed kernel.

    fields and layout = (w, s, m, low) are _row_layout(p, cols); bases
    holds, for each matrix in C order of the leading axes, the basis that
    _insert_rows builds from its rows.  The whole array is packed by one
    call (_pack_rows).
    """
    *lead, rows, cols = arr.shape
    fields, layout = _row_layout(p, cols)
    packed = _pack_rows(arr, layout[0])
    bases = []
    for i in range(math.prod(lead)):
        basis: dict[int, int] = {}
        _insert_rows(basis, packed[i * rows : (i + 1) * rows], cols, p, *layout)
        bases.append(basis)
    return fields, layout, bases


def _insert_rows(basis: dict[int, int], rows, full: int, p: int, w: int, s: int, m: int, low: int) -> None:
    """Insert packed rows over F_p, fields of w bits, into a basis of normalised rows keyed by top field.

    While a row x is nonzero, its top field is looked up: if a basis row b
    has that top field, x is cleared there (x XOR b over F_2; x + (p - c) * b
    with c the top field of x, then _reduce_fields, for odd p); otherwise x
    is normalised, stored, and the insertion stops.  The basis rows have
    distinct top fields, so they are independent and span every row
    inserted so far, whatever the insertion order.  Each step clears the
    top field of x, so a row takes at most rank + 1 steps, with no pivot
    search and no unpacking.  The basis is extended in place, and the
    insertion stops once it holds ``full`` rows, the number of columns: it
    then spans every row.
    """
    for x in rows:
        while x:
            shift = (x.bit_length() - 1) & -w  # rounded down to a field boundary, w a power of 2
            b = basis.get(shift)
            if b is None:
                c = x >> shift  # 1 over F_2
                if c != 1:
                    x = _reduce_fields(x * pow(c, -1, p), p, s, m, low)
                basis[shift] = x
                if len(basis) == full:
                    return
                break
            if p == 2:
                x ^= b
            else:
                x += (p - (x >> shift)) * b
                x -= p * ((x * m >> s) & low)  # _reduce_fields, inlined


def fq_deletion_ranks(arr: np.ndarray, block: int, fq: Fq):
    """Rank over F_q of ``arr`` with each run of ``block`` rows deleted, in order: the attack's scan.

    The scan rests on the rank formula of the dual matroid.  Deleting rows
    J of a matrix Q deletes columns J of its transpose, so rank(Q - J) is
    the dimension of the row space of Q^T with the columns in J masked
    to zero.  Let B be the basis of that row space that _bases builds,
    row i of Q as field i from the top of every packed row: its rows have
    distinct leading columns P, the greedy pivot rows of Q, and r = |P| is
    the rank.  Masking J leaves the leading entry of every row of B that
    leads outside J, so those r - |J & P| rows stay independent; the rank
    is their count plus the number of rows leading in J that stay
    independent of them, and of each other, once masked.

    A block j that holds no leading column of B has rank r with no further
    work; in the attack that is every block but the first few and the
    target's.  For one that holds some, those rows of B are masked to the
    fields outside j and inserted into B itself (_insert_rows); the rank
    is r - (rows leading in j) + (rows the insertion added), and the added
    rows are popped again (dict.popitem removes the latest entry first).
    This is exact with no masking while the rows are reduced.  A masked
    row is zero on block j and on every field above it, so each row of B
    it meets leads after j, and that row is zero there too: the mask
    leaves it as it is, and the reduced row stays zero on block j.  The
    rows of B leading before j, the only ones the mask changes, never
    take part: their leading fields are distinct and lie above block j,
    where every combination of the masked rows is zero.  One algorithm
    serves every p, one matrix and a stack alike.  For e > 1 the
    scan runs once over F_p on the blow-up, whose blocks have block*e rows
    and whose ranks are e times those over F_q.

    A (rows, cols) matrix gives the list of its m ranks, a (count, rows,
    cols) stack a (count, m) int64 array.  An entry outside [0, q) raises
    CoordinateOutOfRange, which a packed field would wrap, and any other
    shape, a block that is not an integer or is below 1 or rows that do
    not split into one or more blocks raise DimensionMismatch.
    """
    arr, block = _encodings(arr, fq), as_integer(block, DimensionMismatch, "block")
    if arr.ndim not in (2, 3) or block < 1:
        raise DimensionMismatch(f"expected [count,] (rows, cols) and a block >= 1, got {arr.shape} and {block}")
    rows = arr.shape[-2]
    if not rows or rows % block:
        raise DimensionMismatch(f"{rows} rows do not split into one or more blocks of {block}")
    if fq.e > 1:
        arr, block, rows = fq.blow_up(arr), block * fq.e, rows * fq.e
    fields, layout, bases = _bases(arr.swapaxes(-1, -2), fq.p)
    w = layout[0]
    span = (1 << w * block) - 1  # the fields of one block, at the bottom
    out = []
    for basis in bases:
        rank = len(basis)
        leading: dict[int, list[int]] = {}  # block -> the rows of the basis leading in it
        for shift, x in basis.items():
            leading.setdefault((fields - 1 - shift // w) // block, []).append(x)
        for j in range(rows // block):
            held = leading.get(j)
            if held is None:
                out.append(rank)
                continue
            keep = ~(span << (fields - (j + 1) * block) * w)
            _insert_rows(basis, [x & keep for x in held], rows, fq.p, *layout)
            out.append(len(basis) - len(held))  # r - |held| + the rows added
            while len(basis) > rank:
                basis.popitem()
    ranks = np.array(out, dtype=np.int64).reshape(len(bases), rows // block) // fq.e
    return ranks if arr.ndim == 3 else ranks[0].tolist()


def fq_inv_matrix(arr: np.ndarray, fq: Fq) -> np.ndarray:
    """Inverse of a square matrix of F_q encodings; ValueError when singular.

    For e > 1 it inverts the blow-up over F_p, whose inverse is the
    blow-up of the inverse.  The entries are range-checked once, here: the
    [M | I] handed to the echelon body (_echelon) holds residues by
    construction.
    """
    arr = _encodings(arr, fq)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise DimensionMismatch(f"expected square matrix, got {arr.shape}")
    size = n * fq.e
    R, pivots = _echelon(np.hstack([fq.blow_up(arr), np.eye(size, dtype=np.int64)]), fq.p)
    if pivots[:size] != list(range(size)):
        raise ValueError("matrix is singular")
    if fq.e == 1:
        return R[:, size:]
    # row 0 of every block of the inverse blow-up holds the digits of the entry
    return fq.from_digits(R[:: fq.e, size:].reshape(n, n, fq.e))


def _rabin(fq: Fq, coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """Rabin's test on a stack of monic polynomials of degree d >= 1 over fq, on their companion matrices.

    ``coeffs`` holds the (N, d) non-leading coefficients of N candidates,
    constant term first.  For one candidate f with companion matrix C, C^n
    is the matrix of multiplication by x^n modulo f, so C^n - C has rank d
    minus the degree of gcd(x^n - x, f), and f is irreducible iff
    C^(q^d) = C and C^(q^(d/r)) - C has rank d for every prime r | d.  The
    q-th powers of all N candidates run along one stacked chain C, C^q,
    C^(q^2), ... on the blow-ups of the C over F_p, where a product is one
    residue_matmul and the rank is e times the rank over F_q; each rank
    check drops the candidates it refutes, so most reducible ones stop
    early.  Returns the verdict of every candidate and the work the chain
    spent, in F_p multiply-adds: size^3 per candidate and product of
    size x size blow-ups, size = d*e.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    count, d = coeffs.shape
    size = d * fq.e
    products = fq.q.bit_length() + bin(fq.q).count("1") - 2  # of one q-th power (_matpow)
    checks = {d // r for r in _prime_factors(d)}
    live = np.arange(count)
    power = big = fq.blow_up(_companion(fq, coeffs))
    work = 0
    for k in range(1, d + 1):
        power = _matpow(power, fq.q, fq.fp.matmul)  # the blow-ups of C^(q^k)
        work += len(live) * products * size**3
        if k in checks:
            full = fq_rank((power - big) % fq.p, fq.fp) == size
            live, power, big = live[full], power[full], big[full]
            if not len(live):
                break
    verdict = np.zeros(count, dtype=bool)
    verdict[live] = (power == big).all(axis=(-2, -1))
    return verdict, work


def _candidates(fq: Fq, degree: int):
    """The non-leading coefficients (constant term first) of every monic candidate of a degree >= 2
    over fq that is not provably reducible, one row at a time in enumeration order.

    Candidates are enumerated by the integer value of their non-leading
    coefficient vector in base q (constant term least significant), in
    uint64 blocks of _SEARCH_CHUNK values.  Two kinds are provably
    reducible and skipped: one with zero derivative (p divides every
    exponent with a nonzero coefficient) is a p-th power over the perfect
    field fq, and one with zero constant term is divisible by x.
    """
    p, q, total = fq.p, fq.q, fq.q**degree
    weights = np.uint64(q) ** np.arange(degree, dtype=np.uint64)  # of the coefficients in a value
    unshared = [i for i in range(degree) if i % p]  # exponents of which p is no factor
    for start in range(0, total, _SEARCH_CHUNK):
        values = np.arange(min(_SEARCH_CHUNK, total - start), dtype=np.uint64) + np.uint64(start)
        coeffs = (values[:, None] // weights % np.uint64(q)).astype(np.int64)
        testable = coeffs[:, 0] != 0
        if degree % p == 0:
            testable &= coeffs[:, unshared].any(axis=1)
        yield from coeffs[testable]


def smallest_irreducible(fq: Fq, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree over fq.

    The candidates that are not provably reducible (_candidates) are
    tested in chunks of consecutive ones by one stacked Rabin test
    (_rabin) each, so the result is deterministic for a given field: the
    first survivor of the first chunk with one.  Chunks double from 1 to
    _SEARCH_CHUNK candidates, so a modulus found within a few candidates
    costs no batch.  A chunk starts only while the work of the tests so
    far stays below MODULUS_SEARCH_BUDGET; past it ModulusSearchExhausted
    (a FieldTooLarge) is raised, so the search finishes or refuses in
    bounded time.  Values are enumerated in uint64, so q^degree above
    MAX_TOWER_ORDER raises FieldTooLarge.
    """
    if degree < 1:
        raise DegreeTooSmall("irreducible polynomials need degree >= 1")
    if fq.q**degree > MAX_TOWER_ORDER:
        raise FieldTooLarge(f"{fq.q}^{degree} exceeds the desk-scale cap of 2^64")
    if degree == 1:
        return (0, 1)  # x, the first candidate, is irreducible
    candidates = _candidates(fq, degree)
    size, spent = 1, 0
    while spent < MODULUS_SEARCH_BUDGET and (chunk := list(itertools.islice(candidates, size))):
        verdict, work = _rabin(fq, chunk)
        spent += work
        if verdict.any():
            return tuple(chunk[verdict.argmax()].tolist()) + (1,)
        size = min(2 * size, _SEARCH_CHUNK)
    raise ModulusSearchExhausted(
        f"no monic irreducible of degree {degree} over F_({fq.p}^{fq.e}) within the search budget of"
        f" {MODULUS_SEARCH_BUDGET} F_p multiply-adds ({spent} spent): F_({fq.p}^{fq.e})^{degree} is out of reach"
    )


class FieldTower:
    """Immutable arithmetic context for F_p <= F_q <= F_q^s.

    Elements are numpy coordinate arrays of shape (..., s); the arithmetic
    runs on whole arrays (matmul, scalar_matmul).  An s or top modulus
    coefficient that is not an integer raises BadArguments and a
    coefficient outside [0, q) CoordinateOutOfRange (_coefficients), s < 2
    DegreeTooSmall and a reducible top modulus ReducibleModulus.
    """

    def __init__(self, fq: Fq, s: int, top_modulus: tuple[int, ...]):
        self.fq = fq
        self.p, self.e, self.s = fq.p, fq.e, as_integer(s, BadArguments, "top degree s")
        if self.s < 2:
            raise DegreeTooSmall("top degree s must be at least 2")
        self.q = fq.q
        self.order = self.q**self.s
        self.base_modulus = self.fq.modulus
        self.top_modulus = _coefficients(top_modulus, self.q, "top modulus")
        if len(self.top_modulus) != self.s + 1 or self.top_modulus[self.s] != 1:
            raise ValueError("top modulus must be monic of degree s")
        if not _rabin(fq, [self.top_modulus[: self.s]])[0][0]:
            raise ReducibleModulus(f"top modulus {self.top_modulus} is reducible over F_{self.q}")
        # (s*e, (s*e)^2) F_p structure tensor: the digits of y @ mul_tensor are
        # the flattened F_p regular representation of y (see blow_up).  The
        # F_p basis of F_q^s is x^j * a^i, a the generator of F_q, flattened
        # as e*j + i like the digits of a coordinate array, and multiplication
        # by it is the product of the representations of x^j (the blow-up of
        # C^j over F_q) and of a^i (C_base^i on every coordinate).
        fq, n = self.fq, self.s * self.e
        x_powers = fq.blow_up(companion_powers(fq, self.top_modulus, self.s))
        a_powers = np.kron(np.eye(self.s, dtype=np.int64), fq.mul_tensor)
        tensor = residue_matmul(x_powers[:, None], a_powers[None], self.p).astype(np.int64)
        self.mul_tensor = tensor.reshape(n, n * n)
        self.mul_tensor.setflags(write=False)

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
        """The (..., r*d, c*d) F_p regular representation of an (..., r, c, s) coordinate array, d = s*e.

        Block (a, b) is the d x d matrix of y -> m_ab * y on the base-p
        digits of y's coordinates (digit e*j + i is digit i of coordinate
        j): its row e*j + i holds the digits of x^j * a^i * m_ab.  It is one
        product, the digits of every entry times the structure tensor
        (mul_tensor).  The map is an injective ring homomorphism, so the F_p
        rank of the blow-up is d times the rank over F_q^s, the blow-up of
        an inverse is the inverse of the blow-up, and a @ b over F_q^s is
        the digits of a (with rows flattened) times the blow-up of b over
        F_p.  Leading axes are a stack.
        """
        *lead, r, c, s = np.shape(data)
        d = s * self.e
        digits = self.fq.to_digits(data).reshape(-1, d)
        regular = residue_matmul(digits, self.mul_tensor, self.p).astype(np.int64)
        return regular.reshape(*lead, r, c, d, d).swapaxes(-3, -2).reshape(*lead, r * d, c * d)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product over F_q^s of coordinate arrays (..., r, t, s) @ (..., t, c, s) -> (..., r, c, s).

        Two products over F_p: the blow-up of b (blow_up), and the base-p
        digits of a, rows flattened, times it, whose output digits are
        reduced already and only need encoding.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[-2] != b.shape[-3]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
        *lead, r, t, s = a.shape
        digits = self.fq.to_digits(a).reshape(*lead, r, t * s * self.e)
        out = residue_matmul(digits, self.blow_up(b), self.p)
        return self.fq._encode(out.reshape(*out.shape[:-1], b.shape[-2], s, self.e))

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
    """The canonical tower for (p, e, s), built once per process.

    Raises BadArguments unless p, e and s are integers (as_integer),
    NotPrime for composite p, DegreeTooSmall for e < 1 or s < 2,
    FieldTooLarge beyond desk-scale orders, and ModulusSearchExhausted (a
    FieldTooLarge) when a modulus lies past the search budget.  The moduli
    are the first irreducibles in a fixed enumeration (smallest_irreducible),
    so equal inputs always yield identical towers.  A tower is memoised on
    its (p, e, s), checked before the lookup, so a float is refused on a
    warm memo as on a cold one: a tower that validates is built on the
    first call and every later call returns the same object, which is
    immutable (its arrays are read-only); build_tower.cache_clear() drops
    them.
    """
    return _build_tower(
        as_integer(p, BadArguments, "characteristic p"),
        as_integer(e, BadArguments, "base degree e"),
        as_integer(s, BadArguments, "top degree s"),
    )


@functools.lru_cache(maxsize=None)
def _build_tower(p: int, e: int, s: int) -> FieldTower:
    """build_tower of integers p, e and s, memoised."""
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


build_tower.cache_clear = _build_tower.cache_clear


# -- rejection sampling ------------------------------------------------------------

# Draws per stream in one rejection phase before SamplingExhausted.  Each basis draw,
# the least likely to pass, passes w.p. >= 0.2888, so even 1000 fail w.p. < 2^-490.
MAX_SAMPLING_TRIES = 10**6


def redraw_rejected(rngs, draw, accept, exhausted: str) -> tuple[np.ndarray, np.ndarray]:
    """One accepted candidate per RNG stream, by rejection sampling over a stack.

    Every pending stream draws one candidate with ``draw(rng)``;
    ``accept(indices, candidates)`` tests the stacked candidates of the
    streams at ``indices`` at once and returns a bool per candidate, and
    only the rejected streams draw again.  A stream's draws thus come in
    the order a loop over that stream alone would make them.  A stream is
    whatever ``draw`` reads: an RNG, or a UniformRun over one that draws
    ahead what the stream is certain to read.

    Returns the stack of accepted candidates and the number of draws each
    stream made; a stream still rejected after MAX_SAMPLING_TRIES draws
    raises SamplingExhausted with the message ``exhausted``.
    """
    chosen = [None] * len(rngs)
    draws = [0] * len(rngs)
    pending = list(range(len(rngs)))
    for _ in range(MAX_SAMPLING_TRIES):
        candidates = [draw(rngs[i]) for i in pending]
        ok = accept(np.array(pending), np.array(candidates)).tolist()
        for i, candidate, good in zip(pending, candidates, ok):
            draws[i] += 1
            if good:
                chosen[i] = candidate
        pending = [i for i, good in zip(pending, ok) if not good]
        if not pending:
            return np.array(chosen), np.array(draws)
    raise SamplingExhausted(exhausted)


class UniformRun:
    """The uniform F_q values of one RNG stream, read in order and drawn in as few calls as the reads allow.

    One rng.integers(0, q, size=a + b, dtype=np.int64) call returns the
    values of two consecutive calls of a and b values and leaves the bit
    generator in the same state.  So ``take(count, ahead)`` returns the
    next ``count`` values of the run, and when it must draw, it draws the
    ``ahead`` values after them in the same call.  The caller promises
    that the stream reads at least ``ahead`` more values of the run
    before anything else draws from its RNG.  Kept to that promise, the
    values read and the RNG's state once the run is read out are those of
    one call per read.

    A run with ``spare`` > 0 draws that many values more in every call.
    The values read stay the same, but the RNG ends past them, so only a
    caller that never draws from the RNG again may pass it.
    """

    def __init__(self, rng: np.random.Generator, q: int, spare: int = 0):
        self.rng, self.q, self.spare = rng, q, spare
        self._drawn = np.empty(0, dtype=np.int64)  # drawn, not yet read

    def take(self, count: int, ahead: int = 0) -> np.ndarray:
        short = count - len(self._drawn)
        if short > 0:
            fresh = self.rng.integers(0, self.q, size=short + ahead + self.spare, dtype=np.int64)
            self._drawn = np.concatenate([self._drawn, fresh])
        taken, self._drawn = self._drawn[:count], self._drawn[count:]
        return taken


def sample_split_bases(tower: FieldTower, runs, ahead: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A uniform basis of F_q^s over F_q per UniformRun, and each run's draws.

    Rejection-samples uniform s x s matrices over F_q until invertible; row t
    of a basis holds the power-basis coordinates of its t-th vector.  Each
    candidate is the next s*s values of its run, and the caller promises
    that the stream reads at least ``ahead`` values of the run after the
    accepted one (UniformRun.take); a stream that raises SamplingExhausted
    never reads them.
    """
    s, fq = tower.s, tower.fq
    return redraw_rejected(
        runs,
        lambda run: run.take(s * s, ahead).reshape(s, s),
        lambda _, candidates: fq_rank(candidates, fq) == s,
        "no invertible basis matrix found; RNG looks broken",
    )


def sample_basis_split(tower: FieldTower, rng: np.random.Generator) -> np.ndarray:
    """sample_split_bases for one stream: a uniform (s, s) basis of F_q^s over F_q."""
    return sample_split_bases(tower, [UniformRun(rng, tower.q)])[0][0]
