import functools
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhw_pir
from hhw_pir import fields
from hhw_pir.errors import (
    BadSplit,
    DegreeTooSmall,
    FieldTooLarge,
    NotPrime,
    ReducibleModulus,
)
from hhw_pir.fields import (
    Fq,
    _is_irreducible,
    build_tower,
    fq_inv_matrix,
    is_prime,
    residue_matmul,
    sample_basis_split,
    smallest_irreducible,
)
from hhw_pir.linalg import ext_inv_matrix

from .oracles import (
    digit_fq_matmul,
    ext_add,
    ext_mul,
    ext_zero,
    fq_add,
    fq_inv,
    fq_poly_mul,
    fq_sub,
    int64_fq_matmul,
    int64_residue_matmul,
    log_exp_tables,
    naive_rank_fq,
    table_vmul,
)


def test_is_prime_matches_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == slow(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # composite numbers that fool Miller-Rabin on small base subsets
    for n in [3215031751, 3825123056546413051, 561, 1373653, 25326001]:
        assert not is_prime(n)
    for n in [2**31 - 1, 999999937, 67280421310721]:
        assert is_prime(n)


# -- canonical moduli ------------------------------------------------------------

# Towers are pinned down by (p, e, s) alone; these exact coefficient tuples
# (constant term first, monic) are frozen so a silent change in the search
# order or in the irreducibility test cannot go unnoticed.  They cover every
# tower with p in {2, 3, 5, 7}, e <= 3 and s <= 4, and were taken from the
# polynomial-arithmetic search the companion-matrix construction replaced.
FROZEN_MODULI = {
    (2, 1, 2): ((0, 1), (1, 1, 1)),
    (2, 1, 3): ((0, 1), (1, 1, 0, 1)),
    (2, 1, 4): ((0, 1), (1, 1, 0, 0, 1)),
    (2, 2, 2): ((1, 1, 1), (2, 1, 1)),
    (2, 2, 3): ((1, 1, 1), (2, 0, 0, 1)),
    (2, 2, 4): ((1, 1, 1), (1, 2, 1, 0, 1)),
    (2, 3, 2): ((1, 1, 0, 1), (1, 1, 1)),
    (2, 3, 3): ((1, 1, 0, 1), (2, 1, 0, 1)),
    (2, 3, 4): ((1, 1, 0, 1), (1, 1, 0, 0, 1)),
    (3, 1, 2): ((0, 1), (1, 0, 1)),
    (3, 1, 3): ((0, 1), (1, 2, 0, 1)),
    (3, 1, 4): ((0, 1), (2, 1, 0, 0, 1)),
    (3, 2, 2): ((1, 0, 1), (4, 0, 1)),
    (3, 2, 3): ((1, 0, 1), (3, 1, 0, 1)),
    (3, 2, 4): ((1, 0, 1), (4, 0, 0, 0, 1)),
    (3, 3, 2): ((1, 2, 0, 1), (1, 0, 1)),
    (3, 3, 3): ((1, 2, 0, 1), (9, 2, 0, 1)),
    (3, 3, 4): ((1, 2, 0, 1), (2, 1, 0, 0, 1)),
    (5, 1, 2): ((0, 1), (2, 0, 1)),
    (5, 1, 3): ((0, 1), (1, 1, 0, 1)),
    (5, 1, 4): ((0, 1), (2, 0, 0, 0, 1)),
    (5, 2, 2): ((2, 0, 1), (5, 0, 1)),
    (5, 2, 3): ((2, 0, 1), (6, 0, 0, 1)),
    (5, 2, 4): ((2, 0, 1), (5, 0, 0, 0, 1)),
    (5, 3, 2): ((1, 1, 0, 1), (2, 0, 1)),
    (5, 3, 3): ((1, 1, 0, 1), (5, 1, 0, 1)),
    (5, 3, 4): ((1, 1, 0, 1), (2, 0, 0, 0, 1)),
    (7, 1, 2): ((0, 1), (1, 0, 1)),
    (7, 1, 3): ((0, 1), (2, 0, 0, 1)),
    (7, 1, 4): ((0, 1), (1, 1, 0, 0, 1)),
    (7, 2, 2): ((1, 0, 1), (9, 0, 1)),
    (7, 2, 3): ((1, 0, 1), (2, 0, 0, 1)),
    (7, 2, 4): ((1, 0, 1), (9, 0, 0, 0, 1)),
    (7, 3, 2): ((2, 0, 0, 1), (1, 0, 1)),
    (7, 3, 3): ((2, 0, 0, 1), (7, 0, 0, 1)),
    (7, 3, 4): ((2, 0, 0, 1), (1, 1, 0, 0, 1)),
}


@pytest.mark.parametrize("pes,expected", sorted(FROZEN_MODULI.items()))
def test_canonical_moduli_frozen(pes, expected):
    tower = build_tower(*pes)
    assert tower.base_modulus == expected[0]
    assert tower.top_modulus == expected[1]


def _poly_is_irreducible_bruteforce(coeffs, fq):
    """Trial division by every lower-degree monic polynomial."""
    deg = len(coeffs) - 1

    def poly_mod(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            c = fq_poly_mul(fq, a[-1], fq_inv(fq, b[-1]))
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = fq_sub(fq, a[shift + i], fq_poly_mul(fq, c, y))
        while a and a[-1] == 0:
            a.pop()
        return a

    for d in range(1, deg // 2 + 1):
        for value in range(fq.q**d):
            divisor = [(value // fq.q**i) % fq.q for i in range(d)] + [1]
            if not poly_mod(coeffs, divisor):
                return False
    return True


# Trial division costs about q^(s/2) divisions; (5, 3, 4) and (7, 3, 4),
# beyond 2^12 of them, are covered by the pin and the Rabin differential.
@pytest.mark.parametrize("pes", [k for k in sorted(FROZEN_MODULI) if (k[0] ** k[1]) ** (k[2] // 2) <= 2**12])
def test_moduli_actually_irreducible(pes):
    p, e, s = pes
    tower = build_tower(p, e, s)
    fp = Fq(p, 1, (0, 1))
    assert _poly_is_irreducible_bruteforce(list(tower.base_modulus), fp)
    assert _poly_is_irreducible_bruteforce(list(tower.top_modulus), tower.fq)


def test_smallest_irreducible_is_smallest():
    # nothing lexicographically below the returned polynomial may be irreducible
    fq = Fq(2, 1, (0, 1))
    found = smallest_irreducible(fq, 4)
    assert found == (1, 1, 0, 0, 1)
    value = sum(c * 2**i for i, c in enumerate(found[:4]))
    for smaller in range(value):
        coeffs = [(smaller // 2**i) % 2 for i in range(4)] + [1]
        assert not _poly_is_irreducible_bruteforce(coeffs, fq)


def test_modulus_search_skips_pth_powers():
    """Over F_(2^16) every x^2 + c is a square; the search must not test them one by one."""

    def timeout(signum, frame):
        raise TimeoutError("build_tower(2, 16, 2) took more than 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        tower = build_tower(2, 16, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert tower.top_modulus == (2048, 1, 1)


def test_smallest_irreducible_rejects_degree_zero():
    with pytest.raises(DegreeTooSmall):
        smallest_irreducible(Fq(2, 1, (0, 1)), 0)


@pytest.mark.parametrize("p,e,max_degree", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 3), (3, 2, 3)],
                         ids=["F2", "F3", "F4", "F5", "F9"])
def test_rabin_on_companion_matches_trial_division(p, e, max_degree):
    """Every monic polynomial of degree 1..max_degree over the canonical F_q."""
    fq = build_tower(p, e, 2).fq
    for d in range(1, max_degree + 1):
        for value in range(fq.q**d):
            coeffs = [(value // fq.q**i) % fq.q for i in range(d)] + [1]
            assert _is_irreducible(fq, coeffs) == _poly_is_irreducible_bruteforce(coeffs, fq), coeffs


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)],
                         ids=lambda v: str(v))
def test_table_arithmetic_matches_polynomial_product(p, e):
    """Fq.vmul and the reference table product on all pairs against the
    digit-polynomial product, and exp[1] against the smallest element of
    multiplicative order q - 1."""
    fq = build_tower(p, e, 2).fq
    q = fq.q
    table = [[fq_poly_mul(fq, a, b) for b in range(q)] for a in range(q)]
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    assert fq.vmul(a, b).tolist() == table
    assert table_vmul(fq, a, b).tolist() == table

    def order(g):
        n, x = 1, g
        while x != 1:
            n, x = n + 1, table[x][g]
        return n

    assert log_exp_tables(fq)[0][1] == next(g for g in range(1, q) if order(g) == q - 1)


@pytest.mark.parametrize("p,modulus", [(2, (0, 0, 1)), (2, (1, 0, 1)), (3, (2, 0, 1))],
                         ids=["x^2", "(x+1)^2", "x^2-1"])
def test_reducible_modulus_raises_typed_error(p, modulus):
    with pytest.raises(ReducibleModulus):
        Fq(p, 2, modulus)
    assert issubclass(hhw_pir.ReducibleModulus, ValueError)


# -- F_4 exhaustively -------------------------------------------------------------

F4_ADD = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]
F4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def _scalar_inv(fq, a):
    return int(fq_inv_matrix(np.array([[a]]), fq)[0, 0])


def test_f4_tables():
    fq = Fq(2, 2, (1, 1, 1))
    for a in range(1, 4):
        assert F4_MUL[a][_scalar_inv(fq, a)] == 1
    with pytest.raises(ValueError):
        _scalar_inv(fq, 0)


def test_f4_vectorised_matches_tables():
    fq = Fq(2, 2, (1, 1, 1))
    a, b = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert fq.vadd(a, b).tolist() == F4_ADD
    assert fq.vmul(a, b).tolist() == F4_MUL
    assert fq.vsub(a, b).tolist() == [[fq_sub(fq, x, y) for y in range(4)] for x in range(4)]


def test_fq_mod_p_is_plain_arithmetic():
    fq = Fq(7, 1, (0, 1))
    a, b = np.meshgrid(np.arange(7), np.arange(7), indexing="ij")
    assert np.array_equal(fq.vadd(a, b), (a + b) % 7)
    assert np.array_equal(fq.vmul(a, b), a * b % 7)
    for x in range(1, 7):
        assert x * _scalar_inv(fq, x) % 7 == 1


# -- field axioms by exhaustion and by hypothesis ---------------------------------

TOWERS = {
    (2, 1, 2): build_tower(2, 1, 2),
    (3, 1, 2): build_tower(3, 1, 2),
    (2, 2, 2): build_tower(2, 2, 2),
    (2, 1, 4): build_tower(2, 1, 4),
}


# The laws are checked on the running code: products are 1 x 1 tower.matmul
# calls, sums fq.vadd and inverses ext_inv_matrix of a 1 x 1 matrix.


def _mul(tower, x, y):
    return tuple(int(c) for c in tower.matmul(np.array([[x]]), np.array([[y]]))[0, 0])


def _add(tower, x, y):
    return tuple(int(c) for c in tower.fq.vadd(np.array(x), np.array(y)))


def _inv(tower, x):
    return tuple(int(c) for c in ext_inv_matrix(np.array([[x]]), tower)[0, 0])


def _pow(tower, x, n):
    out = tower.one
    for bit in bin(n)[2:]:
        out = _mul(tower, out, out)
        if bit == "1":
            out = _mul(tower, out, x)
    return out


def test_ext_field_axioms_exhaustive_f4():
    tower = TOWERS[(2, 1, 2)]
    elems = [(a, b) for a in range(2) for b in range(2)]
    for x in elems:
        for y in elems:
            assert _add(tower, x, y) == _add(tower, y, x)
            assert _mul(tower, x, y) == _mul(tower, y, x)
            assert tuple(tower.fq.vsub(np.array(_add(tower, x, y)), np.array(y))) == x
            for z in elems:
                assert _mul(tower, x, _mul(tower, y, z)) == _mul(tower, _mul(tower, x, y), z)
                lhs = _mul(tower, x, _add(tower, y, z))
                rhs = _add(tower, _mul(tower, x, y), _mul(tower, x, z))
                assert lhs == rhs
        if x != ext_zero(tower):
            assert _mul(tower, x, _inv(tower, x)) == tower.one
            assert _pow(tower, x, tower.order - 1) == tower.one


@st.composite
def tower_and_elements(draw, count):
    key = draw(st.sampled_from(sorted(TOWERS)))
    tower = TOWERS[key]
    elems = [
        tuple(draw(st.integers(0, tower.q - 1)) for _ in range(tower.s))
        for _ in range(count)
    ]
    return tower, elems


@given(tower_and_elements(3))
@settings(max_examples=150, deadline=None)
def test_ext_ring_axioms(data):
    tower, (x, y, z) = data
    assert _add(tower, x, ext_zero(tower)) == x
    assert _mul(tower, x, tower.one) == x
    assert _add(tower, x, tuple(tower.fq.vsub(0, np.array(x)))) == ext_zero(tower)
    assert _mul(tower, _add(tower, x, y), z) == _add(tower, _mul(tower, x, z), _mul(tower, y, z))
    assert _mul(tower, x, y) == _mul(tower, y, x)
    assert _mul(tower, x, y) == ext_mul(tower, x, y)


@given(tower_and_elements(1))
@settings(max_examples=100, deadline=None)
def test_ext_inverse_and_power(data):
    tower, (x,) = data
    if x == ext_zero(tower):
        with pytest.raises(ValueError):
            _inv(tower, x)
    else:
        assert _mul(tower, x, _inv(tower, x)) == tower.one
        # Lagrange: the multiplicative group has order q^s - 1
        assert _pow(tower, x, tower.order - 1) == tower.one


@given(tower_and_elements(1))
@settings(max_examples=80, deadline=None)
def test_frobenius_is_additive(data):
    tower, (x,) = data
    # y -> y^q fixes F_q and is additive on the extension
    y = tuple(int(v) for v in np.random.default_rng(1).integers(0, tower.q, tower.s))
    lhs = _pow(tower, _add(tower, x, y), tower.q)
    rhs = _add(tower, _pow(tower, x, tower.q), _pow(tower, y, tower.q))
    assert lhs == rhs


# -- encodings and conversions ----------------------------------------------------


def test_digit_conversions_round_trip(rng):
    for tower in TOWERS.values():
        enc = tower.fq.rand(rng, (6, 3))
        assert np.array_equal(tower.fq.from_digits(tower.fq.to_digits(enc)), enc)


# -- vectorised against scalar ------------------------------------------------------


def test_fq_matmul_matches_scalar(rng):
    fq = Fq(2, 2, (1, 1, 1))
    a = fq.rand(rng, (4, 3))
    b = fq.rand(rng, (3, 5))
    got = fq.matmul(a, b)
    for i in range(4):
        for j in range(5):
            acc = 0
            for t in range(3):
                acc = fq_add(fq, acc, fq_poly_mul(fq, int(a[i, t]), int(b[t, j])))
            assert got[i, j] == acc


def test_tower_matmul_matches_scalar(rng):
    for key in [(2, 1, 2), (3, 1, 2), (2, 2, 2)]:
        tower = TOWERS[key]
        a = tower.rand(rng, (3, 2))
        b = tower.rand(rng, (2, 4))
        got = tower.matmul(a, b)
        for i in range(3):
            for j in range(4):
                acc = ext_zero(tower)
                for t in range(2):
                    acc = ext_add(tower, acc, ext_mul(tower, tuple(a[i, t]), tuple(b[t, j])))
                assert tuple(got[i, j]) == acc


def test_scalar_matmul_matches_scalar(rng):
    tower = TOWERS[(2, 2, 2)]
    x = tower.fq.rand(rng, (3, 4))
    b = tower.rand(rng, (4, 2))
    got = tower.scalar_matmul(x, b)
    for i in range(3):
        for j in range(2):
            acc = ext_zero(tower)
            for t in range(4):
                term = tuple(fq_poly_mul(tower.fq, int(x[i, t]), int(c)) for c in b[t, j])
                acc = ext_add(tower, acc, term)
            assert tuple(got[i, j]) == acc


def test_matmul_rejects_dimension_mismatch(rng):
    tower = TOWERS[(2, 1, 2)]
    with pytest.raises(ValueError):
        tower.matmul(tower.rand(rng, (2, 3)), tower.rand(rng, (2, 3)))
    with pytest.raises(ValueError):
        tower.scalar_matmul(tower.fq.rand(rng, (2, 3)), tower.rand(rng, (2, 3)))


def test_mul_tensor_reproduces_products():
    fq = Fq(3, 2, smallest_irreducible(Fq(3, 1, (0, 1)), 2))
    T = fq.mul_tensor
    for a in range(fq.q):
        for b in range(fq.q):
            da, db = fq.to_digits(a), fq.to_digits(b)
            digits = np.einsum("a,b,abd->d", da, db, T) % fq.p
            assert fq.from_digits(digits) == fq_poly_mul(fq, a, b)


# -- the float64 product kernel at its edges --------------------------------------------

# every (p, e) with p in {2, 3, 251, 65521}, e in {1, 2, 4, 8} and p^e within the order cap
KERNEL_FIELDS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4), (3, 8), (251, 1), (251, 2), (65521, 1)]


@functools.cache
def _kernel_field(p, e):
    return Fq(p, e, smallest_irreducible(Fq(p, 1, (0, 1)), e))


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_fq_matmul_matches_int64_kernel_on_stacks(p, e, rng):
    fq = _kernel_field(p, e)
    a = fq.rand(rng, (2, 3, 5, 7))
    b = fq.rand(rng, (3, 7, 4))  # one right factor per matrix of a's last stack axis
    got = fq.matmul(a, b)
    assert got.dtype == np.int64 and got.shape == (2, 3, 5, 4)
    assert np.array_equal(got, int64_fq_matmul(a, b, fq))
    assert np.array_equal(got[1, 2], digit_fq_matmul(a[1, 2], b[2], fq))


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_chunked_products_at_the_exactness_edge(p, e, rng, monkeypatch):
    """With the bound lowered to chunks of three terms, operands whose every
    digit is p - 1 fill each chunk up to the bound: three terms of (p-1)^2
    plus the carried residue p - 1 sum to the bound minus one."""
    monkeypatch.setattr(fields, "_EXACT_BELOW", 3 * (p - 1) ** 2 + p)
    top = np.full((2, 3, 10), p - 1)
    assert np.array_equal(residue_matmul(top, top.swapaxes(-1, -2), p), int64_residue_matmul(top, top.swapaxes(-1, -2), p))
    fq = _kernel_field(p, e)
    top_a, top_b = np.full((2, 4, 11), fq.q - 1), np.full((11, 3), fq.q - 1)
    a, b = fq.rand(rng, (2, 4, 11)), fq.rand(rng, (2, 11, 3))
    for x, y in [(top_a, top_b), (a, b)]:
        assert np.array_equal(fq.matmul(x, y), int64_fq_matmul(x, y, fq))
    assert np.array_equal(fq.matmul(top_a, top_b)[1], digit_fq_matmul(top_a[1], top_b, fq))


@pytest.mark.parametrize("p", sorted({p for p, _ in KERNEL_FIELDS}))
def test_multiples_of_p_reduce_to_zero(p):
    """Row u sums to u*(p-1) + u = u*p: an inverse of p rounded down would floor some to u - 1."""
    u = np.arange(p)
    got = residue_matmul(np.stack([u, u], axis=1), np.array([[p - 1], [1]]), p)
    assert not got.any()


@pytest.mark.parametrize("value", ["top", "odd"])
def test_inner_axis_past_one_chunk(value):
    """F_65521 products whose exact sums no single float64 sum holds.

    Every term of p - 1 (square 1 mod p) over two full chunks and one more
    term fills every chunk up to the kernel's own bound.  Every term of
    p - 2 (square 4 mod p, odd) over just over 2^53 / (p-2)^2 terms gives an
    odd sum in (2^53, 2^54), where float64 holds only even integers, so a
    sum in one piece is off before any reduction.  Its residue is odd as
    well, while x - p*floor(x/p) on such floats is even, so no rounding in
    the reduction can make up for it.
    """
    p = 65521
    chunk = (fields._EXACT_BELOW - p) // (p - 1) ** 2
    if value == "top":
        entry, t = p - 1, 2 * chunk + 1
    else:
        entry = p - 2
        t = (1 << 53) // entry**2 + 1
        while t % 2 == 0 or 4 * t % p % 2 == 0:
            t += 1
        assert (1 << 53) < t * entry**2 < (1 << 54)
    got = residue_matmul(np.full((1, t), entry), np.full((t, 1), entry), p)
    assert got.tolist() == [[t * entry**2 % p]]


# -- construction errors -------------------------------------------------------------


def test_build_tower_error_paths():
    with pytest.raises(NotPrime):
        build_tower(4, 1, 2)
    with pytest.raises(DegreeTooSmall):
        build_tower(2, 0, 2)
    with pytest.raises(DegreeTooSmall):
        build_tower(2, 1, 1)
    with pytest.raises(FieldTooLarge):
        build_tower(2, 1, 65)
    with pytest.raises(FieldTooLarge):
        Fq(2, 17, tuple([1] * 17 + [1]))


def test_fq_modulus_must_be_monic():
    with pytest.raises(ValueError):
        Fq(2, 2, (1, 1, 0))
    with pytest.raises(ValueError):
        Fq(2, 2, (1, 1))


# -- basis splits ----------------------------------------------------------------------


def test_sample_basis_split_invertible(rng):
    tower = TOWERS[(2, 1, 4)]
    for _ in range(20):
        split = sample_basis_split(tower, 2, rng)
        assert naive_rank_fq(split.basis, tower.fq) == 4
        assert split.v == 2 and split.s == 4
        assert not split.basis.flags.writeable


def test_sample_basis_split_rejects_bad_v(rng):
    tower = TOWERS[(2, 1, 2)]
    for v in [0, 2, -1, 5]:
        with pytest.raises(BadSplit):
            sample_basis_split(tower, v, rng)


def test_basis_split_uniform_over_gl2(rng):
    """Drawn bases should cover GL_2(F_2) evenly; chi-square on 6 cells."""
    tower = TOWERS[(2, 1, 2)]
    counts: dict[tuple, int] = {}
    trials = 6000
    for _ in range(trials):
        split = sample_basis_split(tower, 1, rng)
        key = tuple(split.basis.ravel().tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom: P[chi2 > 20.5] ~ 0.001
    assert chi2 < 20.5, counts


def _split_parts(split, tower, x):
    """The V and W parts of x in a split basis, as decode takes them.

    With y = x @ basis^-1, the V part is y[:v] @ basis[:v] and the W part
    y[v:] @ basis[v:].
    """
    fq, v = tower.fq, split.v
    y = fq.matmul(x, fq_inv_matrix(split.basis, fq))
    return fq.matmul(y[:, :v], split.basis[:v]), fq.matmul(y[:, v:], split.basis[v:])


def test_project_split_reconstructs_and_separates(rng):
    for key in [(2, 1, 2), (3, 1, 2), (2, 1, 4)]:
        tower = TOWERS[key]
        zero = np.zeros((10, tower.s), dtype=np.int64)
        for v in range(1, tower.s):
            split = sample_basis_split(tower, v, rng)
            x = tower.rand(rng, (10,))
            vp, wp = _split_parts(split, tower, x)
            assert np.array_equal(tower.fq.vadd(vp, wp), x)
            # idempotent: the V part has no W component and vice versa
            for got, want in zip(_split_parts(split, tower, vp), (vp, zero)):
                assert np.array_equal(got, want)
            for got, want in zip(_split_parts(split, tower, wp), (zero, wp)):
                assert np.array_equal(got, want)


def test_project_split_is_fq_linear(rng):
    tower = TOWERS[(2, 1, 4)]
    fq = tower.fq
    split = sample_basis_split(tower, 2, rng)
    x = tower.rand(rng, (5,))
    y = tower.rand(rng, (5,))
    vx, wx = _split_parts(split, tower, x)
    vy, wy = _split_parts(split, tower, y)
    vs, ws = _split_parts(split, tower, fq.vadd(x, y))
    assert np.array_equal(vs, fq.vadd(vx, vy))
    assert np.array_equal(ws, fq.vadd(wx, wy))


def test_v_part_spans_only_leading_rows(rng):
    # every V part must be an F_q-combination of the first v rows
    tower = TOWERS[(2, 1, 4)]
    split = sample_basis_split(tower, 2, rng)
    fq = tower.fq
    vp, _ = _split_parts(split, tower, tower.rand(rng, (5,)))
    for row in vp:
        stacked = np.vstack([split.basis[:2], row])
        assert naive_rank_fq(stacked, fq) == naive_rank_fq(split.basis[:2], fq)
