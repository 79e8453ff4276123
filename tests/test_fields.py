import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhw_pir.errors import (
    BadSplit,
    DegreeTooSmall,
    DivisionByZero,
    FieldTooLarge,
    NotPrime,
    WrongLength,
)
from hhw_pir.fields import (
    BasisSplit,
    Fq,
    FieldTower,
    build_tower,
    is_prime,
    project_split,
    sample_basis_split,
    smallest_irreducible,
)

from .oracles import naive_rank_fq


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
# order cannot go unnoticed.
FROZEN_MODULI = {
    (2, 1, 2): ((0, 1), (1, 1, 1)),
    (2, 1, 4): ((0, 1), (1, 1, 0, 0, 1)),
    (3, 1, 2): ((0, 1), (1, 0, 1)),
    (2, 2, 3): ((1, 1, 1), (2, 0, 0, 1)),
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
            c = fq.mul(a[-1], fq.inv(b[-1]))
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = fq.sub(a[shift + i], fq.mul(c, y))
        while a and a[-1] == 0:
            a.pop()
        return a

    for d in range(1, deg // 2 + 1):
        for value in range(fq.q**d):
            divisor = [(value // fq.q**i) % fq.q for i in range(d)] + [1]
            if not poly_mod(coeffs, divisor):
                return False
    return True


@pytest.mark.parametrize("pes", sorted(FROZEN_MODULI))
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


def test_smallest_irreducible_rejects_degree_zero():
    with pytest.raises(DegreeTooSmall):
        smallest_irreducible(Fq(2, 1, (0, 1)), 0)


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


def test_f4_tables():
    fq = Fq(2, 2, (1, 1, 1))
    for a in range(4):
        for b in range(4):
            assert fq.add(a, b) == F4_ADD[a][b]
            assert fq.mul(a, b) == F4_MUL[a][b]
    for a in range(1, 4):
        assert fq.mul(a, fq.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        fq.inv(0)


def test_f4_vectorised_matches_tables():
    fq = Fq(2, 2, (1, 1, 1))
    a, b = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert fq.vadd(a, b).tolist() == F4_ADD
    assert fq.vmul(a, b).tolist() == F4_MUL
    assert fq.vsub(a, b).tolist() == [[fq.sub(x, y) for y in range(4)] for x in range(4)]
    assert fq.vneg(np.arange(4)).tolist() == [fq.neg(x) for x in range(4)]


def test_fq_mod_p_is_plain_arithmetic():
    fq = Fq(7, 1, (0, 1))
    for a in range(7):
        for b in range(7):
            assert fq.add(a, b) == (a + b) % 7
            assert fq.mul(a, b) == a * b % 7
        if a:
            assert fq.mul(a, fq.inv(a)) == 1


# -- field axioms by exhaustion and by hypothesis ---------------------------------

TOWERS = {
    (2, 1, 2): build_tower(2, 1, 2),
    (3, 1, 2): build_tower(3, 1, 2),
    (2, 2, 2): build_tower(2, 2, 2),
    (2, 1, 4): build_tower(2, 1, 4),
}


def test_ext_field_axioms_exhaustive_f4():
    tower = TOWERS[(2, 1, 2)]
    elems = [(a, b) for a in range(2) for b in range(2)]
    for x in elems:
        for y in elems:
            assert tower.ext_add(x, y) == tower.ext_add(y, x)
            assert tower.ext_mul(x, y) == tower.ext_mul(y, x)
            assert tower.ext_sub(tower.ext_add(x, y), y) == x
            for z in elems:
                assert tower.ext_mul(x, tower.ext_mul(y, z)) == tower.ext_mul(tower.ext_mul(x, y), z)
                lhs = tower.ext_mul(x, tower.ext_add(y, z))
                rhs = tower.ext_add(tower.ext_mul(x, y), tower.ext_mul(x, z))
                assert lhs == rhs
        if x != tower.zero:
            assert tower.ext_mul(x, tower.ext_inv(x)) == tower.one
            assert tower.ext_pow(x, tower.order - 1) == tower.one


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
    assert tower.ext_add(x, tower.zero) == x
    assert tower.ext_mul(x, tower.one) == x
    assert tower.ext_add(x, tower.ext_neg(x)) == tower.zero
    assert tower.ext_mul(tower.ext_add(x, y), z) == tower.ext_add(tower.ext_mul(x, z), tower.ext_mul(y, z))
    assert tower.ext_mul(x, y) == tower.ext_mul(y, x)


@given(tower_and_elements(1))
@settings(max_examples=100, deadline=None)
def test_ext_inverse_and_power(data):
    tower, (x,) = data
    if x == tower.zero:
        with pytest.raises(DivisionByZero):
            tower.ext_inv(x)
    else:
        assert tower.ext_mul(x, tower.ext_inv(x)) == tower.one
        # Lagrange: the multiplicative group has order q^s - 1
        assert tower.ext_pow(x, tower.order - 1) == tower.one


@given(tower_and_elements(1))
@settings(max_examples=80, deadline=None)
def test_frobenius_is_additive(data):
    tower, (x,) = data
    # y -> y^q fixes F_q and is additive on the extension
    y = tuple(int(v) for v in np.random.default_rng(1).integers(0, tower.q, tower.s))
    lhs = tower.ext_pow(tower.ext_add(x, y), tower.q)
    rhs = tower.ext_add(tower.ext_pow(x, tower.q), tower.ext_pow(y, tower.q))
    assert lhs == rhs


# -- encodings and conversions ----------------------------------------------------


def test_element_int_round_trip():
    tower = TOWERS[(2, 2, 2)]
    seen = set()
    for value in range(tower.order):
        x = tower.int_to_element(value)
        assert tower.element_to_int(x) == value
        seen.add(x)
    assert len(seen) == tower.order
    with pytest.raises(ValueError):
        tower.int_to_element(tower.order)
    with pytest.raises(ValueError):
        tower.int_to_element(-1)


def test_element_int_is_base_q_positional():
    tower = TOWERS[(3, 1, 2)]
    assert tower.element_to_int((2, 1)) == 2 + 1 * 3
    assert tower.int_to_element(7) == (1, 2)


def test_digit_conversions_round_trip(rng):
    for tower in TOWERS.values():
        enc = tower.fq.rand(rng, (6, 3))
        assert np.array_equal(tower.fq.from_digits(tower.fq.to_digits(enc)), enc)


def test_validate_rejects_malformed():
    tower = TOWERS[(2, 1, 2)]
    with pytest.raises(WrongLength):
        tower.validate((1, 0, 0))
    with pytest.raises(ValueError):
        tower.validate((2, 0))


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
                acc = fq.add(acc, fq.mul(int(a[i, t]), int(b[t, j])))
            assert got[i, j] == acc


def test_tower_matmul_matches_scalar(rng):
    for key in [(2, 1, 2), (3, 1, 2), (2, 2, 2)]:
        tower = TOWERS[key]
        a = tower.rand(rng, (3, 2))
        b = tower.rand(rng, (2, 4))
        got = tower.matmul(a, b)
        for i in range(3):
            for j in range(4):
                acc = tower.zero
                for t in range(2):
                    acc = tower.ext_add(acc, tower.ext_mul(tuple(a[i, t]), tuple(b[t, j])))
                assert tuple(got[i, j]) == acc


def test_scalar_matmul_matches_scalar(rng):
    tower = TOWERS[(2, 2, 2)]
    x = tower.fq.rand(rng, (3, 4))
    b = tower.rand(rng, (4, 2))
    got = tower.scalar_matmul(x, b)
    for i in range(3):
        for j in range(2):
            acc = tower.zero
            for t in range(4):
                term = tuple(tower.fq.mul(int(x[i, t]), int(c)) for c in b[t, j])
                acc = tower.ext_add(acc, term)
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
            da = np.array(fq.digits_of(a))
            db = np.array(fq.digits_of(b))
            digits = np.einsum("a,b,abd->d", da, db, T) % fq.p
            assert fq.encode(digits) == fq.mul(a, b)


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


def test_project_split_reconstructs_and_separates(rng):
    for key in [(2, 1, 2), (3, 1, 2), (2, 1, 4)]:
        tower = TOWERS[key]
        for v in range(1, tower.s):
            split = sample_basis_split(tower, v, rng)
            for _ in range(10):
                x = tuple(int(c) for c in tower.rand(rng, ()))
                vp, wp = project_split(split, tower, x)
                assert tower.ext_add(vp, wp) == x
                # idempotent: the V part has no W component and vice versa
                assert project_split(split, tower, vp) == (vp, tower.zero)
                assert project_split(split, tower, wp) == (tower.zero, wp)


def test_project_split_is_fq_linear(rng):
    tower = TOWERS[(2, 1, 4)]
    split = sample_basis_split(tower, 2, rng)
    x = tuple(int(c) for c in tower.rand(rng, ()))
    y = tuple(int(c) for c in tower.rand(rng, ()))
    vx, wx = project_split(split, tower, x)
    vy, wy = project_split(split, tower, y)
    vs, ws = project_split(split, tower, tower.ext_add(x, y))
    assert vs == tower.ext_add(vx, vy)
    assert ws == tower.ext_add(wx, wy)


def test_v_part_spans_only_leading_rows(rng):
    # every projected V part must be an F_q-combination of the first v rows
    tower = TOWERS[(2, 1, 4)]
    split = sample_basis_split(tower, 2, rng)
    fq = tower.fq
    for _ in range(5):
        x = tuple(int(c) for c in tower.rand(rng, ()))
        vp, _ = project_split(split, tower, x)
        stacked = np.vstack([split.basis[:2], np.array(vp)])
        assert naive_rank_fq(stacked, fq) == naive_rank_fq(split.basis[:2], fq)
