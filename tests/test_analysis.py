import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhw_pir.analysis import (
    failure_bound,
    gaussian_binomial,
    log2_fraction,
    measured_rate,
    measured_rate_limit,
    rate_report,
    transfer_digits,
)
from hhw_pir.errors import BadArguments
from hhw_pir.params import DEFAULT_PARAMS, SchemeParams

from .conftest import TIGHT_PARAMS
from .oracles import p_rank_at_most, subspaces_by_closure, subspaces_by_echelon


# -- subspace counting ---------------------------------------------------------------


def test_gaussian_binomial_small_closed_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 2) == 1
    assert gaussian_binomial(0, 0, 2) == 1


def test_gaussian_binomial_counts_actual_subspaces():
    # brute-force construction of every subspace, p = 2 and p = 3
    for b in range(1, 5):
        for a in range(b + 1):
            assert gaussian_binomial(b, a, 2) == subspaces_by_closure(b, a, 2)
    for b in range(1, 4):
        for a in range(b + 1):
            assert gaussian_binomial(b, a, 3) == subspaces_by_closure(b, a, 3)


def test_gaussian_binomial_matches_echelon_enumeration():
    # reduced-echelon canonical forms, feasible at sizes closure search is not
    for q in (2, 3, 4):
        for b in range(7):
            for a in range(b + 1):
                assert gaussian_binomial(b, a, q) == subspaces_by_echelon(b, a, q)


def test_gaussian_binomial_pascal_recurrence():
    # q-Pascal: qbin(b, a) = qbin(b-1, a-1) + q^a * qbin(b-1, a), up through
    # the sizes the default parameters actually use (b = 24)
    for q in (2, 3):
        for b in range(1, 25):
            for a in range(1, b):
                lhs = gaussian_binomial(b, a, q)
                rhs = gaussian_binomial(b - 1, a - 1, q) + q**a * gaussian_binomial(b - 1, a, q)
                assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b))),
       st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 251]))
def test_gaussian_binomial_product_divides_exactly(ba, q):
    # the product formula's single final division never leaves a remainder
    b, a = ba
    num = math.prod(q**b - q**t for t in range(a))
    den = math.prod(q**a - q**t for t in range(a))
    assert num % den == 0
    assert gaussian_binomial(b, a, q) == num // den


def test_gaussian_binomial_symmetry():
    for b in range(10):
        for a in range(b + 1):
            assert gaussian_binomial(b, a, 2) == gaussian_binomial(b, b - a, 2)
    assert gaussian_binomial(24, 8, 2) == gaussian_binomial(24, 16, 2)


def test_gaussian_binomial_rejects_bad_arguments():
    with pytest.raises(BadArguments):
        gaussian_binomial(3, -1, 2)
    with pytest.raises(BadArguments):
        gaussian_binomial(2, 3, 2)
    with pytest.raises(BadArguments):
        gaussian_binomial(3, 1, 1)
    # 4.5 gave 74.0 and True counted as 1
    for b, a, q in [(4.5, 2, 2), (4, True, 2), (4, 2, 2.0), ("4", 2, 2)]:
        with pytest.raises(BadArguments, match="must be an integer"):
            gaussian_binomial(b, a, q)


# -- derived parameters -----------------------------------------------------------------


def test_derive_frozen_examples():
    for params, derived in [
        (DEFAULT_PARAMS, (8, 24, 4)),
        (TIGHT_PARAMS, (2, 6, 4)),
        (SchemeParams(p=3, e=1, s=2, v=1, n=3, k=1, m=3, L=2), (2, 4, 3)),
    ]:
        assert (params.delta, params.rank_threshold, params.m0) == derived


def test_derive_dimension_split():
    # k0 + delta always equals the total subfield dimension s*n
    for params in [
        DEFAULT_PARAMS,
        TIGHT_PARAMS,
        SchemeParams(p=5, e=1, s=3, v=2, n=6, k=3, m=2, L=1),
        SchemeParams(p=2, e=3, s=2, v=1, n=9, k=5, m=7, L=4),
    ]:
        assert params.rank_threshold + params.delta == params.s * params.n


@st.composite
def scheme_params(draw):
    s = draw(st.integers(2, 9))
    n = draw(st.integers(2, 40))
    return SchemeParams(
        p=draw(st.sampled_from([2, 3, 5, 7, 251])),
        e=draw(st.integers(1, 3)),
        s=s,
        v=draw(st.integers(1, s - 1)),
        n=n,
        k=draw(st.integers(1, n - 1)),
        m=draw(st.integers(1, 64)),
        L=draw(st.integers(1, 8)),
    )


@settings(max_examples=300, deadline=None)
@given(scheme_params())
def test_printed_forms_agree(params):
    """Each derived integer has two printed forms; they agree on every valid instance."""
    s, v, n, k = params.s, params.v, params.n, params.k
    delta = params.delta
    assert delta == (s - v) * (n - k)
    assert k * s + v * (n - k) == s * n - delta == params.rank_threshold
    # m0 = 1 + ceil((1 + 1/delta) * (s*n/delta - 2)), on exact rationals
    second = (1 + Fraction(1, delta)) * (Fraction(s * n, delta) - 2)
    assert params.m0 == 1 + math.ceil(second)


# -- failure bounds -----------------------------------------------------------------------


def test_failure_bound_tight_frozen_values():
    fb = failure_bound(TIGHT_PARAMS)
    assert fb.per_block == Fraction(651, 2**20)
    assert fb.union == Fraction(5 * 651, 2**20)
    assert fb.per_block_conservative == Fraction(651, 2**16)
    assert fb.union_conservative == Fraction(5 * 651, 2**16)
    assert fb.simplified == Fraction(1, 256)
    assert fb.regime_warning is False
    assert fb.rough_chain_ok is True


def test_failure_bound_default_frozen_values():
    fb = failure_bound(DEFAULT_PARAMS)
    assert fb.simplified == Fraction(1, 2**256)
    qbin = gaussian_binomial(24, 16, 2)
    assert fb.per_block == Fraction(qbin, 2**448)
    assert fb.union == Fraction(7 * qbin, 2**448)
    assert fb.per_block_conservative == Fraction(qbin, 2**384)
    # the closed form q^(-(m-m0) delta^2) really does dominate the union bound
    assert fb.union <= fb.simplified
    assert -319 < log2_fraction(fb.per_block) < -318
    assert fb.rough_chain_ok is True


def test_failure_bound_dominates_exact_model():
    """Union-over-subspaces bound vs the exact low-rank probability.

    For the small instance the probability that N uniform rows of F_2^6
    span at most 4 dimensions has an exact surjection-count expression;
    the subspace union bound must sit just above it.
    """
    fb = failure_bound(TIGHT_PARAMS)
    exact_classical = p_rank_at_most(10, 6, 4, 2)
    exact_conservative = p_rank_at_most(8, 6, 4, 2)
    assert float(exact_classical) == pytest.approx(0.00061308, rel=1e-4)
    assert float(exact_conservative) == pytest.approx(0.00944301, rel=1e-4)
    assert exact_classical <= fb.per_block
    assert exact_conservative <= fb.per_block_conservative
    # and the bound is not wasteful at these sizes: within 6% of exact
    assert fb.per_block / exact_classical < Fraction(106, 100)
    assert fb.per_block_conservative / exact_conservative < Fraction(106, 100)


def test_failure_bound_m_overrides():
    fb = failure_bound(TIGHT_PARAMS, m=4)
    assert fb.m == 4
    assert fb.simplified == 1  # at m = m0 the closed form degenerates to 1
    assert fb.regime_warning is False
    fb = failure_bound(TIGHT_PARAMS, m=3)
    assert fb.simplified == 16  # vacuous below m0, reported as is
    assert fb.regime_warning is True


def test_failure_bound_union_clamped():
    fb = failure_bound(TIGHT_PARAMS, m=2)
    # per_block = 651/2^4 > 1 already; union must clamp at certainty
    assert fb.union == 1
    assert fb.union_conservative == 1


def test_failure_bound_impossible_event_is_zero():
    # k0 < delta: a deleted submatrix can never reach rank k0 - delta < 0
    params = SchemeParams(p=2, e=1, s=3, v=1, n=5, k=1, m=2, L=1)
    assert params.rank_threshold < params.delta
    fb = failure_bound(params)
    assert fb.per_block == 0
    assert fb.union == 0
    assert fb.union_conservative == 0


def test_failure_bound_single_file():
    fb = failure_bound(TIGHT_PARAMS, m=1)
    # no wrong blocks exist; the union over zero events is zero
    assert fb.union == 0
    assert fb.union_conservative == 0
    with pytest.raises(BadArguments):
        failure_bound(TIGHT_PARAMS, m=0)


def test_failure_bound_to_dict_round_trips_strings():
    d = failure_bound(TIGHT_PARAMS).to_dict()
    assert d["per_block"] == f"651/{2**20}"
    assert d["simplified"] == "1/256"
    assert d["delta"] == 2 and d["k0"] == 6 and d["m0"] == 4
    assert d["regime_warning"] is False


# -- rates ------------------------------------------------------------------------------------


def test_rate_report_frozen_values():
    r = rate_report(DEFAULT_PARAMS)
    assert r.r_pir_approx == Fraction(1, 4)
    assert r.trivial_rate == Fraction(1, 8)
    assert r.upper_bound == Fraction(9, 74)
    assert r.coarse_bound == Fraction(2, 11)
    assert r.regime == "attackable"


def test_rate_regime_label():
    assert rate_report(TIGHT_PARAMS, m=3).regime == "near-trivial"
    assert rate_report(TIGHT_PARAMS, m=4).regime == "attackable"
    with pytest.raises(BadArguments):
        rate_report(TIGHT_PARAMS, m=0)


def test_coarse_bound_dominates_everywhere():
    """2/(m+3) >= (1 + 1/delta)/(m + 1 + 2/delta) for all delta, m >= 1."""
    for delta in range(1, 41):
        for m in range(1, 51):
            upper = (1 + Fraction(1, delta)) / (m + 1 + Fraction(2, delta))
            assert upper <= Fraction(2, m + 3)
    # equality exactly at delta = 1 or m = 1
    assert (1 + Fraction(1, 1)) / (3 + 1 + Fraction(2, 1)) == Fraction(2, 6)
    assert (1 + Fraction(1, 7)) / (1 + 1 + Fraction(2, 7)) == Fraction(2, 4)


def test_rate_functions_agree_on_dominance():
    for params in [DEFAULT_PARAMS, TIGHT_PARAMS]:
        for m in range(1, 12):
            r = rate_report(params, m=m)
            assert r.upper_bound <= r.coarse_bound


def test_transfer_digits_frozen():
    assert transfer_digits(DEFAULT_PARAMS) == (128, 2048, 512)
    assert transfer_digits(DEFAULT_PARAMS, L=2**14) == (2**14 * 8, 2048, 2**14 * 32)
    assert transfer_digits(TIGHT_PARAMS) == (2, 96, 8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: failure_bound(TIGHT_PARAMS, 2.5),
        lambda: failure_bound(TIGHT_PARAMS, True),
        lambda: rate_report(TIGHT_PARAMS, 2.5),
        lambda: measured_rate(TIGHT_PARAMS, 3, 2.5),
        lambda: transfer_digits(TIGHT_PARAMS, 2.5, 3),
        lambda: transfer_digits(TIGHT_PARAMS, 3, 3.0),
        lambda: transfer_digits(TIGHT_PARAMS, True),
    ],
    ids=["failure_bound", "failure_bound-bool", "rate_report", "measured_rate", "transfer_digits-m",
         "transfer_digits-L", "transfer_digits-bool"],
)
def test_rates_refuse_non_integer_file_counts_and_lengths(call):
    """A float m raised a bare TypeError from Fraction, and transfer_digits(params, 2.5, 3) gave (24, 640.0, 96)."""
    with pytest.raises(BadArguments, match="must be an integer"):
        call()


def test_rates_refuse_non_positive_file_counts_and_lengths():
    """m < 1 or L < 1 raises BadArguments, where the digit counts would give rates such as -3/244 (L = -3)
    and 1/2 (L = -128), above the 1/4 limit."""
    for m, L in [(0, None), (-1, None), (None, 0), (None, -3), (None, -128), (0, 0)]:
        with pytest.raises(BadArguments):
            transfer_digits(DEFAULT_PARAMS, m=m, L=L)
        with pytest.raises(BadArguments):
            measured_rate(DEFAULT_PARAMS, m=m, L=L)
    assert transfer_digits(DEFAULT_PARAMS, m=1, L=1) == (8, 256, 32)


def test_measured_rate_values():
    assert measured_rate(DEFAULT_PARAMS) == Fraction(128, 2560)
    assert measured_rate(DEFAULT_PARAMS, L=2**14) == Fraction(64, 257)
    limit = measured_rate_limit(DEFAULT_PARAMS)
    assert limit == Fraction(1, 4)
    # the finite-L rate climbs toward the limit from below
    last = Fraction(0)
    for L in [1, 4, 16, 256, 2**14, 2**20]:
        rate = measured_rate(DEFAULT_PARAMS, L=L)
        assert last < rate < limit
        last = rate
    assert limit - measured_rate(DEFAULT_PARAMS, L=2**14) < Fraction(1, 250)


# -- log display helper --------------------------------------------------------------------------


def test_log2_fraction_huge_and_small():
    assert log2_fraction(Fraction(2**1000)) == 1000.0
    assert log2_fraction(Fraction(1, 2**448)) == -448.0
    assert log2_fraction(Fraction(3, 4)) == pytest.approx(-0.4150375)
    assert log2_fraction(Fraction(0)) == float("-inf")
    assert log2_fraction(Fraction(1)) == 0.0
