"""Exact arithmetic for the field tower F_p <= F_q <= F_q^s.

Elements of the subfield F_q (q = p^e) are encoded as integers in [0, q):
the base-p digits of the encoding are the coefficients of the element in
the power basis of the base modulus.  Elements of the top field F_q^s are
length-s tuples of such encodings, i.e. coordinates in the power basis of
the top modulus.  Both moduli are the lexicographically smallest monic
irreducible polynomials of the required degrees, found by exhaustive
search in coefficient order, so a tower is fully determined by (p, e, s).

Bulk arithmetic runs on one product kernel, an integer matrix product
mod p against a regular representation, which replaces every entry of
the right factor by the matrix of multiplication by it.  Over F_q
(e > 1) that matrix is e x e over F_p, built from the structure tensor
of F_q (Fq.mul_tensor); over F_q^s it is s x s over F_q
(FieldTower.blow_up), so a product over the top field is one F_q
product, which is in turn one integer product over F_p.

The one elimination kernel of the package, fq_echelon over F_q, lives
here beside Fq; elimination over F_q^s runs on it through the same
regular representation (see linalg.rank_ext).
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .errors import (
    BadSplit,
    DegreeTooSmall,
    DimensionMismatch,
    DivisionByZero,
    FieldTooLarge,
    NotPrime,
    SamplingExhausted,
    WrongLength,
)

# An element of F_q^s: s coordinates over F_q in the power basis.
ExtElement = tuple[int, ...]

# Subfields are table-backed; beyond this order the tables stop being cheap.
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
    constructor builds discrete log/exp tables over a primitive element,
    so q is capped at MAX_SUBFIELD_ORDER.
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
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._inv_table: np.ndarray | None = None
        self._mul_tensor: np.ndarray | None = None
        if self.e > 1:
            self._build_tables()

    # -- scalar encode/decode -------------------------------------------------

    def digits_of(self, a: int) -> tuple[int, ...]:
        """Base-p digits of an encoding, least significant first."""
        return tuple((a // self.p**i) % self.p for i in range(self.e))

    def encode(self, digits) -> int:
        return sum(int(d) % self.p * self.p**i for i, d in enumerate(digits))

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free product: polynomial multiplication mod the modulus."""
        p, e = self.p, self.e
        da, db = self.digits_of(a), self.digits_of(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for t in range(e):
                    prod[d - e + t] = (prod[d - e + t] - c * self.modulus[t]) % p
        return self.encode(prod[:e])

    def _build_tables(self):
        q = self.q
        factors = _prime_factors(q - 1)
        gen = None
        for g in range(2, q):
            if all(self._pow_raw(g, (q - 1) // r) != 1 for r in factors):
                gen = g
                break
        if gen is None:
            raise RuntimeError("no primitive element found; modulus is not irreducible")
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._mul_raw(x, gen)
        if x != 1:
            raise RuntimeError("generator order mismatch; modulus is not irreducible")
        self._exp, self._log = exp, log

    def _pow_raw(self, a: int, n: int) -> int:
        out, base = 1, a
        while n:
            if n & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            n >>= 1
        return out

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self.encode(x + y for x, y in zip(self.digits_of(a), self.digits_of(b)))

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self.encode(x - y for x, y in zip(self.digits_of(a), self.digits_of(b)))

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, -1, self.p)
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    # -- vectorised arithmetic on encoding arrays -----------------------------

    def to_digits(self, arr: np.ndarray) -> np.ndarray:
        """(...,) encodings -> (..., e) base-p digit array."""
        arr = np.asarray(arr, dtype=np.int64)
        out = np.empty(arr.shape + (self.e,), dtype=np.int64)
        t = arr
        for i in range(self.e):
            out[..., i] = t % self.p
            t = t // self.p
        return out

    def from_digits(self, digits: np.ndarray) -> np.ndarray:
        digits = np.asarray(digits, dtype=np.int64) % self.p
        powers = self.p ** np.arange(self.e, dtype=np.int64)
        return digits @ powers

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (np.asarray(a) + np.asarray(b)) % self.p
        return self.from_digits(self.to_digits(a) + self.to_digits(b))

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        return self.from_digits(self.to_digits(a) - self.to_digits(b))

    def vneg(self, a: np.ndarray) -> np.ndarray:
        return self.vsub(np.zeros_like(np.asarray(a)), a)

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64) % self.p
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        out = np.zeros(a.shape, dtype=np.int64)
        mask = (a != 0) & (b != 0)
        if mask.any():
            out[mask] = self._exp[(self._log[a[mask]] + self._log[b[mask]]) % (self.q - 1)]
        return out

    @property
    def mul_tensor(self) -> np.ndarray:
        """Structure tensor T over F_p: (x*y)_d = sum_{a,b} x_a y_b T[a,b,d]."""
        if self._mul_tensor is None:
            e = self.e
            T = np.zeros((e, e, e), dtype=np.int64)
            for i in range(e):
                for j in range(e):
                    T[i, j] = self.digits_of(self._mul_raw(self.p**i, self.p**j))
            self._mul_tensor = T
        return self._mul_tensor

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over F_q of two encoding arrays (r,t) @ (t,c).

        For e > 1 the base-p digits of a multiply the (t*e, c*e) F_p
        regular representation of b as integers.  No int64 sum exceeds
        (p-1)^2 * t * e < 2^32 * t * e (p^e <= 2^16), far below 2^63.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return a @ b % self.p
        (r, t), (tb, c), e = a.shape, b.shape, self.e
        # row (k, i), column block j: the digits of p^i * b_kj
        regular = np.tensordot(self.to_digits(b), self.mul_tensor, axes=([2], [1])) % self.p
        regular = regular.transpose(0, 2, 1, 3).reshape(tb * e, c * e)
        return self.from_digits((self.to_digits(a).reshape(r, t * e) @ regular).reshape(r, c, e))

    def rand(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.q, size=shape, dtype=np.int64)


# -- the elimination kernel over F_q (numpy arrays of encodings) ----------------


def fq_echelon(arr: np.ndarray, fq: Fq, reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over F_q with leftmost-column, topmost-row pivoting.

    Args:
        arr: (rows, cols) array of F_q encodings.
        fq: subfield context.
        reduced: eliminate above pivots too and normalise them to 1.

    Returns:
        The echelon form and the list of pivot column indices.
    """
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
        if i != r:
            R[[r, i]] = R[[i, r]]
        pinv = fq.inv(int(R[r, c]))
        if pinv != 1:
            R[r] = fq.vmul(np.int64(pinv), R[r])
        if reduced:
            others = R[:, c].nonzero()[0]
            others = others[others != r]
        else:
            others = R[r + 1 :, c].nonzero()[0] + (r + 1)
        if others.size:
            factors = R[others, c][:, None]
            R[others] = fq.vsub(R[others], fq.vmul(factors, R[r][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def fq_rank(arr: np.ndarray, fq: Fq) -> int:
    arr = np.asarray(arr)
    if not arr.any():
        return 0
    return len(fq_echelon(arr, fq)[1])


def fq_inv_matrix(arr: np.ndarray, fq: Fq) -> np.ndarray:
    """Inverse of a square matrix of F_q encodings; ValueError when singular."""
    arr = np.asarray(arr, dtype=np.int64)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise DimensionMismatch(f"expected square matrix, got {arr.shape}")
    R, pivots = fq_echelon(np.hstack([arr, np.eye(n, dtype=np.int64)]), fq, reduced=True)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


# -- polynomial helpers over an Fq (coefficient lists, low degree first) ------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_sub(fq: Fq, a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = fq.sub(out[i], y)
    return _poly_trim(out)


def _poly_mul(fq: Fq, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return _poly_trim(out)


def _poly_divmod(fq: Fq, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    binv = fq.inv(b[-1])
    while len(a) >= len(b) and _poly_trim(a):
        shift = len(a) - len(b)
        coef = fq.mul(a[-1], binv)
        quot[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] = fq.sub(a[shift + i], fq.mul(coef, y))
        _poly_trim(a)
    return _poly_trim(quot), a


def _poly_mod(fq: Fq, a: list[int], m: list[int]) -> list[int]:
    return _poly_divmod(fq, a, m)[1]


def _poly_mulmod(fq: Fq, a: list[int], b: list[int], m: list[int]) -> list[int]:
    return _poly_mod(fq, _poly_mul(fq, a, b), m)


def _poly_powmod(fq: Fq, base: list[int], n: int, m: list[int]) -> list[int]:
    out = [1]
    base = _poly_mod(fq, list(base), m)
    while n:
        if n & 1:
            out = _poly_mulmod(fq, out, base, m)
        base = _poly_mulmod(fq, base, base, m)
        n >>= 1
    return out


def _poly_gcd(fq: Fq, a: list[int], b: list[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(fq, a, b)
    return a


def _is_irreducible(fq: Fq, poly: list[int]) -> bool:
    """Rabin test for a monic polynomial over F_q.

    poly is irreducible of degree d iff x^(q^d) = x mod poly and, for every
    prime r | d, gcd(x^(q^(d/r)) - x, poly) is constant.
    """
    d = len(poly) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    x = [0, 1]
    if _poly_trim(_poly_sub(fq, _poly_powmod(fq, x, fq.q**d, poly), x)):
        return False
    for r in _prime_factors(d):
        g = _poly_gcd(fq, _poly_sub(fq, _poly_powmod(fq, x, fq.q ** (d // r), poly), x), poly)
        if len(g) - 1 != 0:
            return False
    return True


def smallest_irreducible(fq: Fq, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree over fq.

    Candidates are enumerated by the integer value of their non-leading
    coefficient vector in base q (constant term least significant), so the
    result is deterministic for a given field.
    """
    if degree < 1:
        raise DegreeTooSmall("irreducible polynomials need degree >= 1")
    for value in range(fq.q**degree):
        coeffs = [(value // fq.q**i) % fq.q for i in range(degree)] + [1]
        if _is_irreducible(fq, coeffs):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found; field context is broken")


class FieldTower:
    """Immutable arithmetic context for F_p <= F_q <= F_q^s.

    Exposes scalar operations on ExtElement tuples and vectorised
    operations on numpy coordinate arrays of shape (..., s).
    """

    def __init__(self, p: int, e: int, s: int, base_modulus: tuple[int, ...], top_modulus: tuple[ExtElement | int, ...]):
        self.fq = Fq(p, e, base_modulus)
        self.p, self.e, self.s = int(p), int(e), int(s)
        self.q = self.fq.q
        self.order = self.q**self.s
        self.base_modulus = self.fq.modulus
        self.top_modulus = tuple(int(c) for c in top_modulus)
        if len(self.top_modulus) != self.s + 1 or self.top_modulus[self.s] != 1:
            raise ValueError("top modulus must be monic of degree s")
        self._power_table: np.ndarray | None = None

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, s={self.s})"

    def same_field(self, other: "FieldTower") -> bool:
        return (self.p, self.e, self.s) == (other.p, other.e, other.s)

    # -- elements --------------------------------------------------------------

    @property
    def zero(self) -> ExtElement:
        return (0,) * self.s

    @property
    def one(self) -> ExtElement:
        return (1,) + (0,) * (self.s - 1)

    def validate(self, x) -> ExtElement:
        x = tuple(int(c) for c in x)
        if len(x) != self.s:
            raise WrongLength(f"expected {self.s} coordinates, got {len(x)}")
        if any(c < 0 or c >= self.q for c in x):
            raise ValueError("coordinate outside [0, q)")
        return x

    # -- scalar arithmetic -------------------------------------------------------

    def ext_add(self, a: ExtElement, b: ExtElement) -> ExtElement:
        fq = self.fq
        return tuple(fq.add(x, y) for x, y in zip(a, b))

    def ext_sub(self, a: ExtElement, b: ExtElement) -> ExtElement:
        fq = self.fq
        return tuple(fq.sub(x, y) for x, y in zip(a, b))

    def ext_neg(self, a: ExtElement) -> ExtElement:
        fq = self.fq
        return tuple(fq.neg(x) for x in a)

    def ext_mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        fq, s = self.fq, self.s
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = fq.add(prod[i + j], fq.mul(x, y))
        # reduce by the monic top modulus
        for d in range(2 * s - 2, s - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for t in range(s):
                    prod[d - s + t] = fq.sub(prod[d - s + t], fq.mul(c, self.top_modulus[t]))
        return tuple(prod[:s])

    def ext_inv(self, a: ExtElement) -> ExtElement:
        """Multiplicative inverse by the extended Euclidean algorithm."""
        fq = self.fq
        r0 = list(self.top_modulus)
        r1 = _poly_trim([int(c) for c in a])
        if not r1:
            raise DivisionByZero("zero has no multiplicative inverse")
        t0: list[int] = []
        t1: list[int] = [1]
        while len(r1) - 1 > 0:
            quot, rem = _poly_divmod(fq, r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _poly_sub(fq, t0, _poly_mul(fq, quot, t1))
        c = fq.inv(r1[0])
        inv = _poly_mod(fq, _poly_mul(fq, t1, [c]), list(self.top_modulus))
        return tuple(inv + [0] * (self.s - len(inv)))

    def ext_pow(self, a: ExtElement, n: int) -> ExtElement:
        out, base = self.one, a
        while n:
            if n & 1:
                out = self.ext_mul(out, base)
            base = self.ext_mul(base, base)
            n >>= 1
        return out

    # -- integer encoding (used by serialization) --------------------------------

    def element_to_int(self, x: ExtElement) -> int:
        return sum(int(c) * self.q**j for j, c in enumerate(x))

    def int_to_element(self, value: int) -> ExtElement:
        if value < 0 or value >= self.order:
            raise ValueError("element value outside [0, q^s)")
        return tuple((value // self.q**j) % self.q for j in range(self.s))

    # -- vectorised operations on coordinate arrays ------------------------------

    def rand(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Uniform coordinate array of the given leading shape, plus the s axis."""
        if isinstance(shape, int):
            shape = (shape,)
        return rng.integers(0, self.q, size=tuple(shape) + (self.s,), dtype=np.int64)

    @property
    def power_table(self) -> np.ndarray:
        """(s, s*s) F_q matrix T with y @ T = [y, x*y, ..., x^(s-1)*y] on coordinates.

        Row j holds the coordinates of x^(j+i) for i = 0..s-1, so one
        product with T gives every row of the multiplication map of y.
        """
        if self._power_table is None:
            s = self.s
            x = (0, 1) + (0,) * (s - 2)
            powers = [self.ext_pow(x, t) for t in range(2 * s - 1)]
            table = [[powers[j + i] for i in range(s)] for j in range(s)]
            self._power_table = np.array(table, dtype=np.int64).reshape(s, s * s)
        return self._power_table

    def blow_up(self, data: np.ndarray) -> np.ndarray:
        """The (r*s, c*s) F_q regular representation of an (r, c, s) coordinate array.

        Block (a, b) is the s x s matrix of y -> m_ab * y in the power basis:
        its row i holds the coordinates of x^i * m_ab.  The map is an
        injective ring homomorphism, so the F_q rank of the blow-up is s times
        the rank over F_q^s, the blow-up of an inverse is the inverse of the
        blow-up, and a @ b over F_q^s is a (with rows flattened) times the
        blow-up of b over F_q.
        """
        r, c, s = np.shape(data)
        shifted = self.fq.matmul(np.reshape(data, (r * c, s)), self.power_table)
        return shifted.reshape(r, c, s, s).transpose(0, 2, 1, 3).reshape(r * s, c * s)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product over F_q^s of coordinate arrays (r,t,s) @ (t,c,s) -> (r,c,s)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
        r, t, s = a.shape
        return self.fq.matmul(a.reshape(r, t * s), self.blow_up(b)).reshape(r, b.shape[1], s)

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
    fp = Fq(p, 1, (0, 1))
    base_modulus = smallest_irreducible(fp, e)
    fq = Fq(p, e, base_modulus)
    top_modulus = smallest_irreducible(fq, s)
    return FieldTower(p, e, s, base_modulus, top_modulus)


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


def sample_basis_split(tower: FieldTower, v: int, rng: np.random.Generator, max_tries: int = 1000) -> BasisSplit:
    """Uniform basis of F_q^s over F_q, split after position v.

    Rejection-samples uniform s x s matrices over F_q until invertible.
    The retry cap only exists to surface broken RNGs; a uniform sampler
    passes within a handful of draws.
    """
    s = tower.s
    if not 0 < v < s:
        raise BadSplit(f"split position must satisfy 0 < v < {s}, got {v}")
    for _ in range(max_tries):
        cand = tower.fq.rand(rng, (s, s))
        if fq_rank(cand, tower.fq) == s:
            return BasisSplit(basis=cand, v=v)
    raise SamplingExhausted(f"no invertible basis matrix in {max_tries} draws")


def project_split(split: BasisSplit, tower: FieldTower, x: ExtElement) -> tuple[ExtElement, ExtElement]:
    """Decompose x = v_part + w_part along the split basis.

    v_part lies in the span of the first v basis vectors, w_part in the
    span of the rest.  Both projections are F_q-linear and idempotent.
    """
    fq, v = tower.fq, split.v
    x = np.asarray([tower.validate(x)], dtype=np.int64)
    y = fq.matmul(x, fq_inv_matrix(split.basis, fq))  # coordinates in the split basis
    v_part = fq.matmul(y[:, :v], split.basis[:v])[0]
    w_part = fq.matmul(y[:, v:], split.basis[v:])[0]
    return tuple(map(int, v_part)), tuple(map(int, w_part))
