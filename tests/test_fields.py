import contextlib
import functools
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhw_pir
from hhw_pir import fields
from hhw_pir.errors import (
    BadArguments,
    CoordinateOutOfRange,
    DegreeTooSmall,
    FieldTooLarge,
    ModulusSearchExhausted,
    NotPrime,
    ReducibleModulus,
)
from hhw_pir.fields import (
    FieldTower,
    Fq,
    UniformRun,
    _rabin,
    build_tower,
    fq_inv_matrix,
    is_prime,
    residue_matmul,
    sample_basis_split,
    smallest_irreducible,
)
from hhw_pir.linalg import ext_inv_matrix

from . import oracles
from .oracles import (
    ext_add,
    ext_mul,
    ext_zero,
    fq_add,
    fq_inv,
    fq_poly_mul,
    fq_sub,
    int64_residue_matmul,
    naive_rank_fq,
    product_blow_up,
    product_matmul,
    scalar_fq_matmul,
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


@contextlib.contextmanager
def _alarm(seconds: int, what: str):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""

    def timeout(signum, frame):
        raise TimeoutError(f"{what} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_modulus_search_skips_pth_powers():
    """Over F_(2^16) every x^2 + c is a square; the search must not test them one by one."""
    build_tower.cache_clear()  # time the search, not a lookup
    with _alarm(2, "build_tower(2, 16, 2)"):
        tower = build_tower(2, 16, 2)
    assert tower.top_modulus == (2048, 1, 1)


def test_modulus_search_refuses_past_its_budget():
    """No x^8 + a*x + b over F_(2^8) is irreducible, so the search walks them until its budget runs out."""
    with _alarm(10, "build_tower(2, 8, 8)"):
        with pytest.raises(ModulusSearchExhausted, match=r"degree 8 over F_\(2\^8\)"):
            build_tower(2, 8, 8)
    assert issubclass(ModulusSearchExhausted, FieldTooLarge)


def test_smallest_irreducible_rejects_degree_zero():
    with pytest.raises(DegreeTooSmall):
        smallest_irreducible(Fq(2, 1, (0, 1)), 0)


@pytest.mark.parametrize("p,e,max_degree", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 3), (3, 2, 3)],
                         ids=["F2", "F3", "F4", "F5", "F9"])
def test_rabin_on_companion_matches_trial_division(p, e, max_degree):
    """Every monic polynomial of degree 1..max_degree over the canonical F_q, one stacked test per degree."""
    fq = build_tower(p, e, 2).fq
    for d in range(1, max_degree + 1):
        coeffs = [[(value // fq.q**i) % fq.q for i in range(d)] for value in range(fq.q**d)]
        verdict, _ = _rabin(fq, coeffs)
        assert verdict.tolist() == [_poly_is_irreducible_bruteforce(c + [1], fq) for c in coeffs], d


_SEARCH_FIELDS = [Fq(p, 1, (0, 1)) for p in (2, 3, 5, 7)] + [build_tower(p, e, 2).fq for p, e in [(2, 2), (2, 3), (3, 2)]]


@pytest.mark.parametrize("fq", _SEARCH_FIELDS, ids=lambda fq: f"q{fq.q}")
def test_stacked_search_matches_the_scalar_search(fq):
    """Every degree up to 4 over every F_q with q <= 9: the same modulus as one Rabin test per candidate."""
    for degree in range(1, 5):
        assert smallest_irreducible(fq, degree) == oracles.scalar_smallest_irreducible(fq, degree), degree


@pytest.mark.parametrize("pes", sorted(FROZEN_MODULI), ids=lambda pes: "-".join(map(str, pes)))
def test_stacked_search_matches_the_scalar_search_on_pinned_towers(pes):
    p, e, s = pes
    fp = Fq(p, 1, (0, 1))
    fq = Fq(p, e, oracles.scalar_smallest_irreducible(fp, e))
    assert smallest_irreducible(fp, e) == fq.modulus
    assert smallest_irreducible(fq, s) == oracles.scalar_smallest_irreducible(fq, s)


def test_search_refuses_degrees_past_the_tower_cap():
    with pytest.raises(FieldTooLarge):
        smallest_irreducible(Fq(2, 1, (0, 1)), 65)


# -- the tower cache ----------------------------------------------------------------


def _tower_arrays(tower):
    """Every array a tower holds: both F_q contexts' tensors, digit weights and regular tables, and its own tensor."""
    contexts = (tower.fq, tower.fq.fp)
    return [array for fq in contexts for array in (fq.mul_tensor, fq._weights, fq.regular_table)] + [tower.mul_tensor]


def test_build_tower_returns_one_tower_per_process():
    assert build_tower(2, 2, 3) is build_tower(2, 2, 3)


@pytest.mark.parametrize("pes", [(2, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_cached_tower_arrays_are_read_only(pes):
    for array in _tower_arrays(build_tower(*pes)):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1


def test_rebuild_after_cache_clear_is_equal():
    old = build_tower(2, 2, 3)
    build_tower.cache_clear()
    new = build_tower(2, 2, 3)
    assert new is not old
    assert (new.base_modulus, new.top_modulus) == (old.base_modulus, old.top_modulus)
    for a, b in zip(_tower_arrays(new), _tower_arrays(old), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)],
                         ids=lambda v: str(v))
def test_table_arithmetic_matches_polynomial_product(p, e):
    """Fq.vmul on all pairs against the table of digit-polynomial products,
    and against the product of their blow-ups on the replaced path."""
    fq = build_tower(p, e, 2).fq
    q = fq.q
    table = [[fq_poly_mul(fq, a, b) for b in range(q)] for a in range(q)]
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    got = fq.vmul(a, b)
    assert got.tolist() == table
    assert np.array_equal(got[..., None, None], product_matmul(a[..., None, None], b[..., None, None], fq))


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
    # the F_p blow-up is additive and multiplicative, and products of blow-ups commute
    big_x, big_y = (tower.blow_up(np.array([[c]])) for c in (x, y))
    product = tower.fq.fp.matmul(big_x, big_y)
    assert np.array_equal(tower.blow_up(np.array([[_add(tower, x, y)]])), (big_x + big_y) % tower.p)
    assert np.array_equal(tower.blow_up(np.array([[_mul(tower, x, y)]])), product)
    assert np.array_equal(tower.fq.fp.matmul(big_y, big_x), product)


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
        # the blow-up of the inverse is the F_p inverse of the blow-up
        inverse = fq_inv_matrix(tower.blow_up(np.array([[x]])), tower.fq.fp)
        assert np.array_equal(inverse, tower.blow_up(np.array([[_inv(tower, x)]])))


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
    assert np.array_equal(fq.matmul(a, b), scalar_fq_matmul(a, b, fq))


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


# -- the lookups against the paths they replaced ---------------------------------------------

# every TOWERS subfield, F_9 and F_(251^2) over all their encodings and F_(2^16) on a sample,
# under their canonical moduli; and F_(251^2) under x^2 + x + 1, whose companion matrix, unlike
# that of the canonical x^2 + 1, has a nonzero diagonal, so the table build adds residues past 255
LOOKUP_FIELDS = [(p, e, None) for p, e in sorted({(t.p, t.e) for t in TOWERS.values()} | {(3, 2), (251, 2), (2, 16)})]
LOOKUP_FIELDS.append((251, 2, (1, 1, 1)))
LOOKUP_SAMPLE = 4096


@pytest.mark.parametrize("p,e,modulus", LOOKUP_FIELDS)
def test_blow_up_table_matches_the_product_blow_up(p, e, modulus):
    """Fq.blow_up, a lookup in Fq.regular_table, against the product of the digits with the structure tensor,
    and on a sample of 64 encodings b against the digits of x^i * b by the digit-polynomial product."""
    fq = _kernel_field(p, e) if modulus is None else Fq(p, e, modulus)
    if fq.q < 1 << 16:
        encodings = np.arange(fq.q)
    else:
        encodings = np.concatenate([[0, 1, fq.q - 1], np.random.default_rng(fq.q).integers(0, fq.q, LOOKUP_SAMPLE)])
    got = fq.blow_up(encodings[:, None])
    assert got.dtype == np.int64
    assert np.array_equal(got, product_blow_up(encodings[:, None], fq))
    blocks = got.reshape(-1, e, e)
    for n in range(0, len(encodings), max(len(encodings) // 64, 1)):
        b = int(encodings[n])
        assert blocks[n].tolist() == [[fq_poly_mul(fq, p**i, b) // p**d % p for d in range(e)] for i in range(e)], b
    stack = np.resize(encodings[::-1], (2, 3, 5))
    assert np.array_equal(fq.blow_up(stack), product_blow_up(stack, fq))
    if e > 1:
        table = fq.regular_table
        assert table.shape == (fq.q, e, e) and table.dtype == fields.digit_dtype(p) and not table.flags.writeable


@pytest.mark.parametrize("e", [1, 2, 16])
def test_xor_sums_match_the_digit_path(e, rng):
    """Over F_(2^e), vadd and vsub are XOR of the encodings: the digitwise sums, without the round trip,
    and the scalar digitwise sums."""
    fq = _kernel_field(2, e)
    a, b = fq.rand(rng, (3, 40)), fq.rand(rng, (40,))
    for got, want in [(fq.vadd(a, b), oracles.digit_vadd(fq, a, b)), (fq.vsub(a, b), oracles.digit_vsub(fq, a, b)),
                      (fq.vsub(0, b), oracles.digit_vsub(fq, 0, b))]:
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for op, scalar in [(fq.vadd, fq_add), (fq.vsub, fq_sub)]:
        assert op(a, b).tolist() == [[scalar(fq, int(x), int(y)) for x, y in zip(row, b)] for row in a]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (65521, 1), (2, 2), (3, 2)])
def test_encode_matches_the_weighted_product(p, e, rng):
    """Fq._encode, a cast for e = 1, against the product of the digits with their weights, on int and float digits,
    and against the integer sum of digit i times p^i."""
    fq = _kernel_field(p, e)
    digits = rng.integers(0, p, size=(4, 5, e))
    for arr in (digits, digits.astype(np.float32)):
        got = fq._encode(arr)
        assert got.dtype == np.int64 and np.array_equal(got, oracles.product_encode(fq, arr))
        assert np.array_equal(got, (digits * p ** np.arange(e)).sum(axis=-1))


@pytest.mark.parametrize("p", [2, 3, 5, 251, 65521])
def test_packed_rows_match_the_bytes_packer(p):
    """_pack_rows against int.from_bytes for every row of 1 to 65 columns, stacks and empty shapes included,
    and (7, cols) arrays against the sum of each field shifted to its place in the row."""
    rng = np.random.default_rng(p)
    for cols in range(66):
        w = fields._row_layout(p, cols)[1][0]
        for shape in [(1, cols), (7, cols), (3, 4, cols), (0, cols), (5, 0, cols)]:
            arr = rng.integers(0, p, size=shape)
            arr[..., :1] = p - 1  # a top field at its largest
            assert fields._pack_rows(arr, w) == oracles.bytes_pack_rows(arr, w), (cols, shape)
            if shape == (7, cols):
                top = -(-w * cols // 8) * 8  # the row's bits, padded at the bottom to whole bytes
                assert fields._pack_rows(arr, w) == [sum(int(x) << top - w * (c + 1) for c, x in enumerate(row))
                                                     for row in arr], cols
        transposed = rng.integers(0, p, size=(cols, 6)).T  # rows in C order whatever the memory order
        assert fields._pack_rows(transposed, w) == oracles.bytes_pack_rows(transposed, w)


# -- the product kernel at its edges ------------------------------------------------------

# every (p, e) with p in {2, 3, 251, 65521}, e in {1, 2, 4, 8} and p^e within the order cap
KERNEL_FIELDS = [(2, 1), (2, 2), (2, 4), (2, 8), (3, 1), (3, 2), (3, 4), (3, 8), (251, 1), (251, 2), (65521, 1)]


@functools.cache
def _kernel_field(p, e):
    return Fq(p, e, smallest_irreducible(Fq(p, 1, (0, 1)), e))


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_fq_matmul_matches_int64_kernel_on_stacks(p, e, rng):
    """Stacks against the int64 product on the replaced blow-up, and every matrix against the scalar loops."""
    fq = _kernel_field(p, e)
    a = fq.rand(rng, (2, 3, 5, 7))
    b = fq.rand(rng, (3, 7, 4))  # one right factor per matrix of a's last stack axis
    got = fq.matmul(a, b)
    assert got.dtype == np.int64 and got.shape == (2, 3, 5, 4)
    assert np.array_equal(got, product_matmul(a, b, fq))
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(got[i, j], scalar_fq_matmul(a[i, j], b[j], fq))


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_chunked_products_at_the_exactness_edge(p, e, rng, monkeypatch):
    """With the float32 product switched off and the float64 bound lowered
    to chunks of three terms, operands whose every digit is p - 1 fill each
    chunk up to the bound: three terms of (p-1)^2 plus the carried residue
    p - 1 sum to the bound minus one."""
    monkeypatch.setattr(fields, "_EXACT_BELOW_FLOAT32", 0)
    monkeypatch.setattr(fields, "_EXACT_BELOW", 3 * (p - 1) ** 2 + p)
    top = np.full((2, 3, 10), p - 1)
    assert np.array_equal(residue_matmul(top, top.swapaxes(-1, -2), p), int64_residue_matmul(top, top.swapaxes(-1, -2), p))
    fq = _kernel_field(p, e)
    top_a, top_b = np.full((2, 4, 11), fq.q - 1), np.full((11, 3), fq.q - 1)
    a, b = fq.rand(rng, (2, 4, 11)), fq.rand(rng, (2, 11, 3))
    for x, y in [(top_a, top_b), (a, b)]:
        assert np.array_equal(fq.matmul(x, y), product_matmul(x, y, fq))
    assert np.array_equal(fq.matmul(top_a, top_b)[1], scalar_fq_matmul(top_a[1], top_b, fq))


# the primes of KERNEL_FIELDS with a float32 product for some inner length: (p-1)^2 + p <= 2^22
FLOAT32_PRIMES = sorted({p for p, _ in KERNEL_FIELDS if (p - 1) ** 2 + p <= 1 << 22})


def _float32_edge(p):
    """The longest inner axis whose products over F_p run in float32: (p-1)^2 * t + p <= 2^22."""
    return ((1 << 22) - p) // (p - 1) ** 2


@pytest.mark.parametrize("p", FLOAT32_PRIMES)
def test_float32_products_at_their_exactness_edge(p):
    """Every term (p-1)^2 over the longest float32 inner axis fills the sum up to
    2^22 - p (exactly, for p = 2); one term more takes the float64 path.
    Both agree with the int64 kernel."""
    t = _float32_edge(p)
    assert (p - 1) ** 2 * t + p <= 1 << 22 < (p - 1) ** 2 * (t + 1) + p
    if p == 2:
        assert (p - 1) ** 2 * t + p == 1 << 22
    for length, dtype in [(t, np.float32), (t + 1, np.float64)]:
        top = np.full((1, length), p - 1, dtype=np.uint8 if p < 256 else np.int64)
        got = residue_matmul(top, top.T, p)
        assert got.dtype == dtype
        assert np.array_equal(got, int64_residue_matmul(top, top.T, p))
        assert got.tolist() == [[(p - 1) ** 2 * length % p]]


# the KERNEL_FIELDS entries with a float32 product whose edge F_q product stays
# small: the blow-up of its right factor has edge * 2e int64 entries, at most
# 32 MiB here (p = 2 runs its edge on the kernel alone, in the tests around this one)
FLOAT32_EDGE_FIELDS = [(p, e) for p, e in KERNEL_FIELDS if p in FLOAT32_PRIMES and _float32_edge(p) * e <= 1 << 21]


@pytest.mark.parametrize("p,e", FLOAT32_EDGE_FIELDS)
def test_fq_matmul_across_the_float32_edge(p, e, rng, monkeypatch):
    """F_q products whose F_p inner axis (t digits of e) ends at the float32
    edge and just past it, on top and random entries, against the int64 product on the replaced blow-up."""
    fq = _kernel_field(p, e)
    dtypes = []

    def spied(a, b, p):
        out = residue_matmul(a, b, p)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(fields, "residue_matmul", spied)
    t = _float32_edge(p) // e
    for length, dtype in [(t, np.float32), (t + 1, np.float64)]:
        a = np.concatenate([np.full((1, length), fq.q - 1), fq.rand(rng, (1, length))])
        b = np.concatenate([np.full((length, 1), fq.q - 1), fq.rand(rng, (length, 1))], axis=1)
        got = fq.matmul(a, b)
        assert dtypes[-1] == dtype
        assert np.array_equal(got, product_matmul(a, b, fq))


@pytest.mark.parametrize("p", FLOAT32_PRIMES)
def test_float32_products_of_random_residues_at_the_edge(p, rng):
    t = _float32_edge(p)
    a = rng.integers(0, p, size=(1, t), dtype=np.uint8)
    b = rng.integers(0, p, size=(t, 1), dtype=np.uint8)
    got = residue_matmul(a, b, p)
    assert got.dtype == np.float32
    assert np.array_equal(got, int64_residue_matmul(a, b, p))
    assert np.array_equal(got, oracles.float64_residue_matmul(a, b, p))


@pytest.mark.parametrize("p", FLOAT32_PRIMES)
def test_multiples_of_p_near_the_float32_edge_reduce_to_zero(p):
    """Row i has c = t - 1 - i terms of (p-1)^2 = 1 mod p and one of
    (c mod p) * (p-1) = -c mod p: each sum is a multiple of p just below
    2^22, where an inverse of p rounded down, or an inexact float32 sum,
    would leave p - 1 or an off residue."""
    t = _float32_edge(p)
    a = np.zeros((3, t), dtype=np.uint8)
    for i, row in enumerate(a):
        c = t - 1 - i
        row[:c], row[c] = p - 1, c % p
    got = residue_matmul(a, np.full((t, 1), p - 1, dtype=np.uint8), p)
    assert got.dtype == np.float32
    assert not got.any()


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


def test_constructors_check_what_build_tower_checks():
    """Fq built Z/4 and a degree-0 field, FieldTower an s = 1 tower and one on the reducible x^2.

    They truncated a float p, e, s or coefficient (Fq(2.9, ...) built F_2),
    Fq reduced a coefficient mod p and FieldTower called one outside
    [0, q) reducible; build_tower refused a float degree on a cold memo
    only.
    """
    with pytest.raises(NotPrime, match="4 is not prime"):
        Fq(4, 1, (0, 1))
    with pytest.raises(DegreeTooSmall, match="base degree e must be at least 1"):
        Fq(2, 0, (1,))
    fq = Fq(2, 1, (0, 1))
    for s, modulus in [(0, (1,)), (1, (1, 1))]:
        with pytest.raises(DegreeTooSmall, match="top degree s must be at least 2"):
            FieldTower(fq, s, modulus)
    for build in [
        lambda: Fq(2.9, 1, (0, 1)),
        lambda: Fq(2, True, (0, 1)),
        lambda: Fq(2, 2, (1, 1.5, 1)),
        lambda: FieldTower(fq, 2.7, (1, 1, 1)),
        lambda: FieldTower(fq, 2, (1, 1, 1.0)),
    ]:
        with pytest.raises(BadArguments, match="must be an integer"):
            build()
    for build in [lambda: Fq(2, 1, (0, 3)), lambda: Fq(3, 2, (2, -1, 1)), lambda: FieldTower(fq, 2, (3, 1, 1))]:
        with pytest.raises(CoordinateOutOfRange, match="outside"):
            build()
    build_tower.cache_clear()
    with pytest.raises(BadArguments):  # a cold memo
        build_tower(2, 1.0, 2)
    tower = build_tower(2, 1, 2)
    for p, e, s in [(2, 1.0, 2), (2.0, 1, 2), (2, 1, True)]:
        with pytest.raises(BadArguments):  # a warm one
            build_tower(p, e, s)
    assert build_tower(np.int64(2), np.uint8(1), np.int32(2)) is tower
    for fq, modulus in [(fq, (0, 0, 1)), (fq, (1, 0, 1)), (Fq(3, 1, (0, 1)), (1, 0, 0, 1)), (build_tower(2, 2, 2).fq, (0, 0, 1))]:
        with pytest.raises(ReducibleModulus):
            FieldTower(fq, len(modulus) - 1, modulus)
    tower = build_tower(2, 2, 3)
    assert FieldTower(tower.fq, 3, tower.top_modulus).top_modulus == tower.top_modulus


# -- runs of uniform F_q values ------------------------------------------------------------


RUN_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 27, 49, 243, 256, 3**10, 2**16)
RUN_SPLITS = ((0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (4, 13), (17, 9), (40, 3))


@pytest.mark.parametrize("q", RUN_ORDERS)
def test_one_integers_call_equals_two_consecutive_calls(q):
    """The numpy property UniformRun rests on: integers(0, q, size=a+b) gives the values of two
    consecutive calls of a and b values and leaves the bit generator in the same state.

    Odd q rejects some raw draws and powers of two mask them; both must
    continue across the cut.  A numpy release that breaks this fails
    here, not by moving a pinned query.
    """
    for seed in range(4):
        for a, b in RUN_SPLITS:
            one, two = np.random.default_rng([seed, q]), np.random.default_rng([seed, q])
            joined = one.integers(0, q, size=a + b, dtype=np.int64)
            parts = [two.integers(0, q, size=size, dtype=np.int64) for size in (a, b)]
            assert np.array_equal(joined, np.concatenate(parts)), (seed, a, b)
            assert one.bit_generator.state == two.bit_generator.state, (seed, a, b)


class _CountingRng:
    """A Generator that records the size of each integers call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size, dtype=dtype)


def test_uniform_run_draws_only_when_short_and_then_the_promised_values_ahead():
    """take(count, ahead) draws count + ahead when nothing is left, reads on from what it drew, and
    once read out leaves the values and the state of one call per take."""
    reads = [(4, 20), (4, 20), (4, 20), (24, 4), (4, 0), (4, 0), (30, 0)]
    counting = _CountingRng(7)
    run = UniformRun(counting, 3)
    got = [run.take(count, ahead) for count, ahead in reads]
    assert counting.sizes == [24, 16, 4, 30]
    plain = np.random.default_rng(7)
    for (count, _), values in zip(reads, got):
        assert np.array_equal(values, plain.integers(0, 3, size=count, dtype=np.int64))
    assert counting.rng.bit_generator.state == plain.bit_generator.state


def test_uniform_run_with_spare_values_draws_them_in_every_call_and_reads_the_same_values():
    """spare adds that many values to every call; the values read are those of a run without it."""
    reads = [(4, 20), (4, 20), (4, 20), (24, 4), (4, 0), (4, 0), (30, 0)]
    counting = _CountingRng(7)
    run = UniformRun(counting, 3, spare=10)
    got = [run.take(count, ahead) for count, ahead in reads]
    assert counting.sizes == [34, 16, 34]
    plain = UniformRun(np.random.default_rng(7), 3)
    for (count, ahead), values in zip(reads, got):
        assert np.array_equal(values, plain.take(count, ahead))


# -- basis splits ----------------------------------------------------------------------


def test_sample_basis_split_invertible(rng):
    tower = TOWERS[(2, 1, 4)]
    for _ in range(20):
        basis = sample_basis_split(tower, rng)
        assert basis.shape == (4, 4) and basis.dtype == np.int64
        assert naive_rank_fq(basis, tower.fq) == 4


def test_basis_split_uniform_over_gl2(rng):
    """Drawn bases should cover GL_2(F_2) evenly; chi-square on 6 cells."""
    tower = TOWERS[(2, 1, 2)]
    counts: dict[tuple, int] = {}
    trials = 6000
    for _ in range(trials):
        key = tuple(sample_basis_split(tower, rng).ravel().tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom: P[chi2 > 20.5] ~ 0.001
    assert chi2 < 20.5, counts


def _split_parts(basis, v, tower, x):
    """The V and W parts of x in a basis split after row v, as decode takes them.

    With y = x @ basis^-1, the V part is y[:v] @ basis[:v] and the W part
    y[v:] @ basis[v:].
    """
    fq = tower.fq
    y = fq.matmul(x, fq_inv_matrix(basis, fq))
    return fq.matmul(y[:, :v], basis[:v]), fq.matmul(y[:, v:], basis[v:])


def test_project_split_reconstructs_and_separates(rng):
    for key in [(2, 1, 2), (3, 1, 2), (2, 1, 4)]:
        tower = TOWERS[key]
        zero = np.zeros((10, tower.s), dtype=np.int64)
        for v in range(1, tower.s):
            basis = sample_basis_split(tower, rng)
            x = tower.rand(rng, (10,))
            vp, wp = _split_parts(basis, v, tower, x)
            assert np.array_equal(tower.fq.vadd(vp, wp), x)
            # idempotent: the V part has no W component and vice versa
            for got, want in zip(_split_parts(basis, v, tower, vp), (vp, zero)):
                assert np.array_equal(got, want)
            for got, want in zip(_split_parts(basis, v, tower, wp), (zero, wp)):
                assert np.array_equal(got, want)


def test_project_split_is_fq_linear(rng):
    tower = TOWERS[(2, 1, 4)]
    fq = tower.fq
    basis = sample_basis_split(tower, rng)
    x = tower.rand(rng, (5,))
    y = tower.rand(rng, (5,))
    vx, wx = _split_parts(basis, 2, tower, x)
    vy, wy = _split_parts(basis, 2, tower, y)
    vs, ws = _split_parts(basis, 2, tower, fq.vadd(x, y))
    assert np.array_equal(vs, fq.vadd(vx, vy))
    assert np.array_equal(ws, fq.vadd(wx, wy))


def test_v_part_spans_only_leading_rows(rng):
    # every V part must be an F_q-combination of the first v rows
    tower = TOWERS[(2, 1, 4)]
    basis = sample_basis_split(tower, rng)
    fq = tower.fq
    vp, _ = _split_parts(basis, 2, tower, tower.rand(rng, (5,)))
    for row in vp:
        stacked = np.vstack([basis[:2], row])
        assert naive_rank_fq(stacked, fq) == naive_rank_fq(basis[:2], fq)
