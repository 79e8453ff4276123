"""Scheme parameter tuples and the constants derived from them."""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .errors import InvalidParams
from .fields import as_integer, is_prime


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of one protocol instance.

    p, e, s fix the field tower (q = p^e), v the split of the secret basis,
    (n, k) the code, m the number of database files and L the number of
    rows per file.  Each file then has delta = (s - v) * (n - k) columns
    over F_q, queries are (m * delta) x n matrices over F_q^s, and the
    rank threshold separating the target block from the others is
    rank_threshold = k*s + v*(n - k) = s*n - delta, the paper's k0.  m0
    is the least file count for which the simplified failure bound is
    nontrivial.

    Every field is an integer (fields.as_integer): a bool, float or string
    raises InvalidParams, and an integer of another type (numpy's) is
    stored as a Python int.
    """

    p: int
    e: int
    s: int
    v: int
    n: int
    k: int
    m: int
    L: int

    def __post_init__(self):
        for key in _FIELDS:
            object.__setattr__(self, key, as_integer(getattr(self, key), InvalidParams, f"parameter {key}"))
        if not is_prime(self.p):
            raise InvalidParams(f"p = {self.p} is not prime")
        if self.e < 1:
            raise InvalidParams("e must be at least 1")
        if self.s < 2:
            raise InvalidParams("s must be at least 2")
        if not 0 < self.v < self.s:
            raise InvalidParams(f"v must lie strictly between 0 and s = {self.s}")
        if not 0 < self.k < self.n:
            raise InvalidParams(f"k must lie strictly between 0 and n = {self.n}")
        if self.m < 1:
            raise InvalidParams("m must be at least 1")
        if self.L < 1:
            raise InvalidParams("L must be at least 1")
        if self.delta < 1:
            raise InvalidParams("delta = (s-v)(n-k) must be at least 1")

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def delta(self) -> int:
        """Columns per file over F_q; also the height of one query row block."""
        return (self.s - self.v) * (self.n - self.k)

    @property
    def rank_threshold(self) -> int:
        """Subfield rank of a query with its target block deleted stays at or below this."""
        return self.k * self.s + self.v * (self.n - self.k)

    @property
    def m0(self) -> int:
        """1 + ceil((delta + 1) * (k0 - delta) / delta^2), k0 = rank_threshold.

        This is also the printed form 1 + ceil((1 + 1/delta) * (s*n/delta - 2)).
        The ceiling is taken on exact integers, as minus the floor of the
        negated quotient, so boundary cases cannot be pushed over by float
        rounding.
        """
        delta = self.delta
        return 1 - (delta + 1) * (delta - self.rank_threshold) // (delta * delta)

    @property
    def block_rows(self) -> int:
        """Total number of query rows, m * delta."""
        return self.m * self.delta

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SchemeParams":
        """Parse a parameter object; q may stand in for p and e.

        Every value must be an integer (JSON true/false, floats and
        strings are refused); anything malformed raises InvalidParams.
        """
        if not isinstance(data, dict):
            raise InvalidParams(f"parameters must be an object, got {type(data).__name__}")
        extra = [str(f) for f in data if f not in _FIELDS and f != "q"]
        if extra:
            raise InvalidParams(f"unknown parameter fields: {', '.join(extra)}")
        values = {key: as_integer(val, InvalidParams, f"parameter {key}") for key, val in data.items()}
        if "q" in values:
            q = values.pop("q")
            for key, val in zip(("p", "e"), _factor_prime_power(q)):
                if values.setdefault(key, val) != val:
                    raise InvalidParams(f"q = {q} conflicts with {key} = {values[key]}")
        missing = [f for f in _FIELDS if f not in values]
        if missing:
            raise InvalidParams(f"missing parameter fields: {', '.join(missing)}")
        return cls(**values)


_FIELDS = ("p", "e", "s", "v", "n", "k", "m", "L")


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e and p prime, from integer e-th roots and is_prime."""
    for e in range(1, q.bit_length()):
        p = _integer_root(q, e)
        if p**e == q and is_prime(p):
            return p, e
    raise InvalidParams(f"q = {q} is not a prime power")


def _integer_root(n: int, e: int) -> int:
    """The largest x with x^e <= n, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


# The default instance used by the command line tools and the demo scripts.
DEFAULT_PARAMS = SchemeParams(p=2, e=1, s=4, v=2, n=8, k=4, m=8, L=16)
