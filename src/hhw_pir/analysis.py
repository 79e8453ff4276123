"""Exact evaluation of the quantities governing the rank distinguisher.

Everything here is computed with arbitrary-precision integers and
`fractions.Fraction`.  The bounds of interest decay like q^(-delta^2 * m),
which underflows IEEE doubles long before the parameters stop being
interesting (the default preset already sits at 2^-256), so floats appear
only in the log-domain display helpers, never in a comparison.

The quantities every formula consumes are SchemeParams properties:

  delta           file width (s - v) * (n - k); also the subfield rank of
                  the selector block hidden inside a query.
  rank_threshold  k0, the subfield dimension of the codeword-plus-mask
                  space, k*s + v*(n - k) = s*n - delta.  A deleted-block
                  query submatrix whose rows avoid the selector block has
                  rank at most k0; every other deletion exceeds k0 unless
                  the sampled rows lose rank.
  m0              least file count for which the simplified failure bound
                  is nontrivial.

Two per-block failure bounds are provided.  The classical count treats all
(m-1)*delta remaining rows as independent uniform samples of the k0-space.
That overcounts: the delta rows of the target block carry the selector
summand, so subfield combinations that use them cannot cancel it, and only
(m-2)*delta rows contribute free randomness.  The conservative bound uses
the smaller count; empirical failure rates track it, not the classical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadArguments
from .fields import as_integer
from .params import SchemeParams

__all__ = [
    "gaussian_binomial",
    "FailureBound",
    "failure_bound",
    "RateReport",
    "rate_report",
    "transfer_digits",
    "measured_rate",
    "measured_rate_limit",
    "log2_fraction",
]


def gaussian_binomial(b: int, a: int, q: int) -> int:
    """Number of a-dimensional subspaces of F_q^b, as an exact integer.

    Computed by the product formula
        prod_{t<a} (q^b - q^t) / (q^a - q^t),
    with the division performed once at the end; the quotient is always an
    integer.  An argument that is not an integer raises BadArguments.
    """
    b, a, q = as_integer(b, BadArguments, "b"), as_integer(a, BadArguments, "a"), as_integer(q, BadArguments, "q")
    if a < 0 or b < 0 or a > b:
        raise BadArguments(f"gaussian binomial needs 0 <= a <= b, got a={a}, b={b}")
    if q < 2:
        raise BadArguments(f"gaussian binomial needs q >= 2, got q={q}")
    num = 1
    den = 1
    for t in range(a):
        num *= q**b - q**t
        den *= q**a - q**t
    return num // den


def _file_count(params: SchemeParams, m) -> int:
    """m, or params.m for None; BadArguments unless an integer of at least 1."""
    m = params.m if m is None else as_integer(m, BadArguments, "file count m")
    if m < 1:
        raise BadArguments(f"file count must be at least 1, got {m}")
    return m


def _q_power(q: int, exponent: int) -> Fraction:
    """q**exponent as an exact Fraction, exponent of either sign."""
    if exponent >= 0:
        return Fraction(q**exponent)
    return Fraction(1, q**-exponent)


@dataclass(frozen=True)
class FailureBound:
    """Bounds on the chance that a wrong block's deletion also drops rank.

    They hold for params with m files in place of params.m; q, delta, k0
    and m0 are read from params.  per_block / union use the classical row count (m-1)*delta; the
    *_conservative fields use (m-2)*delta, excluding the target block's rows
    whose randomness is tied to the selector layer.  simplified is the
    closed form q^(-(m-m0)*delta^2); it is vacuous (>= 1) when m <= m0 and
    regime_warning is set when m < m0.  rough_chain_ok records the exact
    integer check qbin(k0, k0-delta, q) <= q^((delta+1)*(k0-delta)).
    """

    params: SchemeParams
    m: int
    per_block: Fraction
    union: Fraction
    per_block_conservative: Fraction
    union_conservative: Fraction
    simplified: Fraction
    regime_warning: bool
    rough_chain_ok: bool

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "m": self.m,
            "delta": self.params.delta,
            "k0": self.params.rank_threshold,
            "m0": self.params.m0,
            "per_block": _fraction_str(self.per_block),
            "union": _fraction_str(self.union),
            "per_block_conservative": _fraction_str(self.per_block_conservative),
            "union_conservative": _fraction_str(self.union_conservative),
            "simplified": _fraction_str(self.simplified),
            "log2_union": _log2_or_none(self.union),
            "log2_union_conservative": _log2_or_none(self.union_conservative),
            "log2_simplified": _log2_or_none(self.simplified),
            "regime_warning": self.regime_warning,
            "rough_chain_ok": self.rough_chain_ok,
        }


def failure_bound(params: SchemeParams, m: int | None = None) -> FailureBound:
    """Failure bounds for the rank distinguisher with m files.

    The per-block event is "deleting block j != target leaves subfield rank
    at most k0", equivalently "the free rows span at most k0 - delta
    dimensions of the k0-dimensional codeword-plus-mask space".  A union
    bound over the qbin(k0, k0 - delta, q) candidate subspaces gives

        per_block <= qbin(k0, k0 - delta, q) * q^(-delta * rows)

    with rows = (m-1)*delta for the classical count and (m-2)*delta for the
    conservative one.  Degenerate corners: with k0 < delta the event is
    impossible (rank cannot be negative) and the bound is 0; with m < 2 the
    conservative row count is clamped at 0, making that bound vacuous.
    """
    m = _file_count(params, m)
    q, delta, k0, m0 = params.q, params.delta, params.rank_threshold, params.m0

    if k0 < delta:
        per_block = Fraction(0)
        per_block_cons = Fraction(0)
        rough_ok = True
    else:
        qbin = gaussian_binomial(k0, k0 - delta, q)
        per_block = qbin * _q_power(q, -delta * delta * (m - 1))
        free_rows = max(m - 2, 0) * delta
        per_block_cons = qbin * _q_power(q, -delta * free_rows)
        rough_ok = qbin <= q ** ((delta + 1) * (k0 - delta))

    union = min(per_block * (m - 1), Fraction(1))
    union_cons = min(per_block_cons * (m - 1), Fraction(1))
    simplified = _q_power(q, -(m - m0) * delta * delta)
    return FailureBound(
        params=params,
        m=m,
        per_block=per_block,
        union=union,
        per_block_conservative=per_block_cons,
        union_conservative=union_cons,
        simplified=simplified,
        regime_warning=m < m0,
        rough_chain_ok=rough_ok,
    )


@dataclass(frozen=True)
class RateReport:
    """Communication-rate comparison for m files at the given parameters.

    r_pir_approx is the large-file limit delta/(s*n).  upper_bound is the
    rate ceiling (1 + 1/delta) / (m + 1 + 2/delta) implied by m < m0, and
    coarse_bound = 2/(m+3) dominates it for every delta >= 1, m >= 1: the
    cross-multiplied difference is (m-1)*(delta-1) >= 0.
    """

    m: int
    r_pir_approx: Fraction
    trivial_rate: Fraction
    upper_bound: Fraction
    coarse_bound: Fraction
    regime: str

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "r_pir_approx": _fraction_str(self.r_pir_approx),
            "trivial_rate": _fraction_str(self.trivial_rate),
            "upper_bound": _fraction_str(self.upper_bound),
            "coarse_bound": _fraction_str(self.coarse_bound),
            "regime": self.regime,
        }


def rate_report(params: SchemeParams, m: int | None = None) -> RateReport:
    m = _file_count(params, m)
    delta = params.delta
    upper = (1 + Fraction(1, delta)) / (m + 1 + Fraction(2, delta))
    return RateReport(
        m=m,
        r_pir_approx=measured_rate_limit(params),
        trivial_rate=Fraction(1, m),
        upper_bound=upper,
        coarse_bound=Fraction(2, m + 3),
        regime="attackable" if m >= params.m0 else "near-trivial",
    )


def transfer_digits(params: SchemeParams, m: int | None = None,
                    L: int | None = None) -> tuple[int, int, int]:
    """Base-p digit counts of (one file, query, response) as serialized.

    A file holds L*delta subfield elements of e digits each; the query holds
    m*delta*n extension elements of e*s digits; the response holds L*n of
    them.  Container framing (magic, headers, byte padding) is excluded:
    rates compare information content, not packaging overhead.  A file
    count or file length that is not an integer or is below 1 raises
    BadArguments.
    """
    m = params.m if m is None else as_integer(m, BadArguments, "file count m")
    L = params.L if L is None else as_integer(L, BadArguments, "file length L")
    if m < 1 or L < 1:
        raise BadArguments(f"file count and file length must be at least 1, got m={m}, L={L}")
    e, s, n, delta = params.e, params.s, params.n, params.delta
    file_digits = L * delta * e
    query_digits = m * delta * n * e * s
    response_digits = L * n * e * s
    return file_digits, query_digits, response_digits


def measured_rate(params: SchemeParams, m: int | None = None,
                  L: int | None = None) -> Fraction:
    """Finite-L rate: file digits over query-plus-response digits, exact."""
    file_d, query_d, response_d = transfer_digits(params, m, L)
    return Fraction(file_d, query_d + response_d)


def measured_rate_limit(params: SchemeParams) -> Fraction:
    """L -> infinity limit of measured_rate: query cost amortizes away."""
    return Fraction(params.delta, params.s * params.n)


def log2_fraction(x: Fraction) -> float:
    """log2 of a positive rational, safe far beyond float range."""
    if x <= 0:
        return float("-inf")

    def lg(value: int) -> float:
        bits = value.bit_length()
        if bits <= 53:
            return math.log2(value)
        shift = bits - 53
        return shift + math.log2(value >> shift)

    return lg(x.numerator) - lg(x.denominator)


def _log2_or_none(x: Fraction) -> float | None:
    """log2_fraction, or None (JSON null) for 0, such as the union over no wrong block at m = 1: JSON has no -inf."""
    return log2_fraction(x) if x else None


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
