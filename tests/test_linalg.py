import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhw_pir.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotInformationSet,
    RankDeficientGenerator,
)
from hhw_pir.fields import Fq, build_tower, fq_echelon_stack
from hhw_pir.linalg import (
    ExtMatrix,
    change_basis,
    ext_inv_matrix,
    ext_rank,
    fq_deletion_ranks,
    fq_echelon,
    fq_inv_matrix,
    fq_rank,
    is_information_set,
    rank_ext,
    rank_fq,
    solve_on_columns,
)

from .oracles import (
    det_ext_oracle,
    digit_fq_matmul,
    digit_matmul,
    digit_scalar_matmul,
    embed_subfield,
    ext_add,
    ext_mul,
    ext_zero,
    naive_rank_fq,
    rank_ext_oracle,
    scalar_ext_inv,
    scalar_ext_matmul,
    scalar_is_information_set,
    scalar_rank_ext,
    subfield_rank_oracle,
    table_echelon,
    table_inv_matrix,
    table_vmul,
)

TOWERS = [build_tower(2, 1, 2), build_tower(3, 1, 2), build_tower(2, 2, 2)]


# -- ExtMatrix --------------------------------------------------------------------


def test_ext_matrix_shape_validation():
    tower = TOWERS[0]
    with pytest.raises(DimensionMismatch):
        ExtMatrix(tower, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        ExtMatrix(tower, np.zeros((2, 2, 3), dtype=np.int64))


def test_ext_matrix_round_trip_and_eq(rng):
    tower = TOWERS[1]
    data = tower.rand(rng, (3, 4))
    m = ExtMatrix(tower, data.tolist())
    assert m.data.dtype == np.int64 and np.array_equal(m.data, data)
    assert (m.rows, m.cols, m.shape) == (3, 4, (3, 4))
    assert m.tower is tower


def test_ext_matrix_add_sub_matmul_scalar_check(rng):
    """Sums, differences and products of (rows, cols, s) arrays over F_q^s against scalar tuples."""
    tower = TOWERS[2]
    fq = tower.fq
    a = tower.rand(rng, (2, 3))
    b = tower.rand(rng, (2, 3))
    c = tower.rand(rng, (3, 2))
    assert np.array_equal(fq.vsub(fq.vadd(a, b), b), a)
    prod = tower.matmul(a, c)
    for i in range(2):
        for j in range(2):
            acc = ext_zero(tower)
            for t in range(3):
                acc = ext_add(tower, acc, ext_mul(tower, tuple(a[i, t]), tuple(c[t, j])))
            assert tuple(prod[i, j]) == acc
    with pytest.raises(ValueError):
        tower.matmul(a, b)


# -- echelon and F_q rank ------------------------------------------------------------


def test_fq_echelon_reduced_properties(rng):
    fq = TOWERS[1].fq
    arr = fq.rand(rng, (5, 7))
    R, pivots = fq_echelon(arr, fq, reduced=True)
    assert pivots == sorted(pivots)
    for r, c in enumerate(pivots):
        col = R[:, c]
        assert col[r] == 1
        assert not np.any(np.delete(col, r))
    # row space unchanged: stacking originals onto the echelon adds no rank
    assert fq_rank(np.vstack([R, arr]), fq) == len(pivots) == fq_rank(arr, fq)


@pytest.mark.parametrize("tower", TOWERS, ids=lambda t: f"q{t.q}s{t.s}")
def test_fq_rank_matches_naive_oracle(tower, rng):
    fq = tower.fq
    for _ in range(250):
        rows = int(rng.integers(0, 6))
        cols = int(rng.integers(1, 6))
        arr = fq.rand(rng, (rows, cols))
        assert fq_rank(arr, fq) == naive_rank_fq(arr, fq)


def test_fq_echelon_refuses_extension_fields():
    fq = build_tower(2, 2, 2).fq
    with pytest.raises(ValueError, match="F_p only"):
        fq_echelon(np.eye(2, dtype=np.int64), fq)
    R, pivots = fq_echelon(fq.blow_up(np.eye(2, dtype=np.int64)), fq.fp)
    assert pivots == [0, 1, 2, 3]


# F_p itself for p in 2, 3, 5, 7, and the F_2 and F_3 blow-ups of F_4 and F_9
STACK_FIELDS = [(Fq(p, 1, (0, 1)), None) for p in (2, 3, 5, 7)] + [
    (build_tower(p, 2, 2).fq.fp, build_tower(p, 2, 2).fq) for p in (2, 3)
]
STACKS = 1000


def _stack_member(rng, base, shape, kind):
    """One matrix of a stack over ``base``: uniform, sparse, rank-deficient or zero."""
    rows, cols = shape
    if kind == 0:
        arr = base.rand(rng, shape)
    elif kind == 1:
        arr = base.rand(rng, shape) * (rng.random(shape) < 0.25)
    elif kind == 2:
        inner = int(rng.integers(0, min(shape)))
        arr = base.matmul(base.rand(rng, (rows, inner)), base.rand(rng, (inner, cols)))
    else:
        arr = np.zeros(shape, dtype=np.int64)
    return arr


@pytest.mark.parametrize("field", STACK_FIELDS, ids=lambda f: f"p{f[0].p}" + (f"-of-q{f[1].q}" if f[1] else ""))
def test_fq_echelon_stack_matches_fq_echelon(field):
    """Each matrix of a stack gets the echelon form, rank and pivots of the 2-D loop."""
    fp, fq = field
    rng = np.random.default_rng(0x57AC + fp.p + (fq.q if fq else 0))
    most = 4 if fq else 8  # a blow-up has e times the rows and columns
    for trial in range(STACKS):
        count = int(rng.integers(1, 34))
        shape = (int(rng.integers(1, most + 1)), int(rng.integers(1, most + 1)))
        members = np.stack([_stack_member(rng, fq or fp, shape, int(rng.integers(0, 4))) for _ in range(count)])
        stack = members if fq is None else fq.blow_up(members)
        reduced = bool(trial % 2)
        echelon, ranks, pivots = fq_echelon_stack(stack, fp, reduced=reduced)
        assert echelon.shape == stack.shape and pivots.shape == (count, min(stack.shape[1:]))
        for b in range(count):
            want, want_pivots = fq_echelon(stack[b], fp, reduced=reduced)
            assert np.array_equal(echelon[b], want), (trial, b)
            assert ranks[b] == len(want_pivots)
            assert pivots[b].tolist() == want_pivots + [-1] * (pivots.shape[1] - len(want_pivots))
        assert np.array_equal(fq_rank(stack, fp), ranks)
        if fq is not None:
            assert np.array_equal(fq_rank(members, fq), ranks // fq.e)


def test_fq_echelon_stack_refuses_extension_fields():
    fq = build_tower(2, 2, 2).fq
    with pytest.raises(ValueError, match="F_p only"):
        fq_echelon_stack(np.zeros((2, 2, 2), dtype=np.int64), fq)


def test_blow_ups_take_a_leading_batch_axis(rng):
    tower = build_tower(2, 2, 3)
    fq = tower.fq
    coords = tower.rand(rng, (5, 2, 3))
    assert np.array_equal(tower.blow_up(coords), np.stack([tower.blow_up(c) for c in coords]))
    enc = fq.rand(rng, (5, 2, 3))
    assert np.array_equal(fq.blow_up(enc), np.stack([fq.blow_up(e) for e in enc]))
    other = tower.rand(rng, (5, 3, 4))
    assert np.array_equal(tower.matmul(coords, other), np.stack([tower.matmul(a, b) for a, b in zip(coords, other)]))


def test_fq_rank_empty_and_degenerate():
    fq = TOWERS[0].fq
    assert fq_rank(np.zeros((0, 4), dtype=np.int64), fq) == 0
    assert fq_rank(np.zeros((3, 3), dtype=np.int64), fq) == 0
    assert fq_rank(np.eye(3, dtype=np.int64), fq) == 3


def test_fq_inv_matrix_round_trip(rng):
    for tower in TOWERS:
        fq = tower.fq
        for _ in range(20):
            arr = fq.rand(rng, (4, 4))
            if fq_rank(arr, fq) < 4:
                with pytest.raises(ValueError):
                    fq_inv_matrix(arr, fq)
                continue
            inv = fq_inv_matrix(arr, fq)
            assert np.array_equal(fq.matmul(arr, inv), np.eye(4, dtype=np.int64))
            assert np.array_equal(fq.matmul(inv, arr), np.eye(4, dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        fq_inv_matrix(np.zeros((2, 3), dtype=np.int64), TOWERS[0].fq)


# -- the two rank notions -------------------------------------------------------------


@pytest.mark.parametrize("tower", TOWERS, ids=lambda t: f"q{t.q}s{t.s}")
def test_ranks_match_oracles(tower, rng):
    for _ in range(120):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        data = tower.rand(rng, (rows, cols))
        m = ExtMatrix(tower, data)
        assert rank_fq(m) == subfield_rank_oracle(data, tower.fq)
        assert rank_ext(m) == ext_rank(data, tower) == rank_ext_oracle(data, tower)


def test_rank_empty_matrices():
    tower = TOWERS[0]
    assert rank_fq(ExtMatrix(tower, np.zeros((0, 3, tower.s)))) == 0
    assert rank_ext(ExtMatrix(tower, np.zeros((3, 0, tower.s)))) == 0


def test_ext_rank_of_a_stack(rng):
    for tower in TOWERS:
        stack = tower.rand(rng, (7, 3, 4))
        stack[2, 1] = stack[2, 0]
        stack[5] = 0
        assert ext_rank(stack, tower).tolist() == [rank_ext_oracle(m, tower) for m in stack]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_sandwich(seed):
    # rank over the big field, counted in F_q dimensions, brackets rank_fq
    rng = np.random.default_rng(seed)
    tower = TOWERS[seed % len(TOWERS)]
    m = ExtMatrix(tower, tower.rand(rng, (int(rng.integers(1, 6)), int(rng.integers(1, 6)))))
    re, rf = rank_ext(m), rank_fq(m)
    assert re <= rf <= re * tower.s
    assert rf <= min(m.rows, m.cols * tower.s)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_fq_blind_to_entrywise_basis_change(seed):
    rng = np.random.default_rng(seed)
    tower = TOWERS[seed % len(TOWERS)]
    fq = tower.fq
    data = tower.rand(rng, (int(rng.integers(1, 6)), int(rng.integers(2, 5))))
    while True:
        transform = fq.rand(rng, (tower.s, tower.s))
        if fq_rank(transform, fq) == tower.s:
            break
    assert rank_fq(ExtMatrix(tower, change_basis(data, tower, transform))) == rank_fq(ExtMatrix(tower, data))


def test_rank_fq_invariant_under_fq_row_ops(rng):
    # left multiplication by an invertible subfield matrix is a row operation
    tower = TOWERS[0]
    fq = tower.fq
    data = tower.rand(rng, (4, 3))
    while True:
        U = fq.rand(rng, (4, 4))
        if fq_rank(U, fq) == 4:
            break
    mixed = ExtMatrix(tower, tower.scalar_matmul(U, data))
    assert rank_fq(mixed) == rank_fq(ExtMatrix(tower, data))


def test_rank_fq_additive_on_disjoint_blocks(rng):
    tower = TOWERS[1]
    a = tower.rand(rng, (3, 2))
    b = tower.rand(rng, (2, 3))
    block = np.zeros((5, 5, tower.s), dtype=np.int64)
    block[:3, :2] = a
    block[3:, 2:] = b
    assert rank_fq(ExtMatrix(tower, block)) == rank_fq(ExtMatrix(tower, a)) + rank_fq(ExtMatrix(tower, b))


def test_change_basis_composes_and_validates(rng):
    tower = TOWERS[0]
    fq = tower.fq
    data = tower.rand(rng, (3, 3))
    A = fq.rand(rng, (tower.s, tower.s))
    B = fq.rand(rng, (tower.s, tower.s))
    lhs = change_basis(data, tower, fq.matmul(A, B))
    rhs = change_basis(change_basis(data, tower, A), tower, B)
    assert np.array_equal(lhs, rhs)
    stack = tower.rand(rng, (2, 3, 3))
    assert np.array_equal(change_basis(stack, tower, A)[1], change_basis(stack[1], tower, A))
    with pytest.raises(DimensionMismatch):
        change_basis(data, tower, np.zeros((3, 1), dtype=np.int64))


# -- information sets and solving ------------------------------------------------------


def _random_full_rank(tower, k, n, rng):
    while True:
        gen = tower.rand(rng, (k, n))
        if ext_rank(gen, tower) == k:
            return gen


def test_is_information_set_matches_determinant(rng):
    tower = TOWERS[1]
    gen = _random_full_rank(tower, 2, 4, rng)
    for cols in itertools.combinations(range(4), 2):
        det = det_ext_oracle(gen[:, list(cols)], tower)
        assert is_information_set(gen, np.array(cols), tower) == (det != ext_zero(tower))


def test_is_information_set_edge_cases(rng):
    tower = TOWERS[0]
    gen = _random_full_rank(tower, 2, 4, rng)
    assert not is_information_set(gen, np.array([0]), tower)  # wrong size
    for outside in ([0, 4], [-1, 2]):
        with pytest.raises(IndexOutOfRange):
            is_information_set(gen, np.array(outside), tower)
    degenerate = np.zeros((2, 4, tower.s), dtype=np.int64)
    with pytest.raises(RankDeficientGenerator):
        is_information_set(degenerate, np.array([0, 1]), tower)


def test_ext_inv_matrix_round_trip(rng):
    tower = TOWERS[2]
    m = _random_full_rank(tower, 3, 3, rng)
    inv = ext_inv_matrix(m, tower)
    eye = np.zeros((3, 3, tower.s), dtype=np.int64)
    eye[np.arange(3), np.arange(3), 0] = 1
    assert np.array_equal(tower.matmul(m, inv), eye)
    assert np.array_equal(tower.matmul(inv, m), eye)
    singular = np.zeros((2, 2, tower.s), dtype=np.int64)
    with pytest.raises(ValueError):
        ext_inv_matrix(singular, tower)
    with pytest.raises(DimensionMismatch):
        ext_inv_matrix(np.zeros((2, 3, tower.s), dtype=np.int64), tower)


def test_solve_on_columns_solves(rng):
    tower = TOWERS[0]
    for _ in range(10):
        gen = _random_full_rank(tower, 3, 5, rng)
        cols = next(
            np.array(c)
            for c in itertools.combinations(range(5), 3)
            if is_information_set(gen, np.array(c), tower)
        )
        targets = tower.rand(rng, (4, 3))
        coeff = solve_on_columns(gen, cols, targets, tower)
        assert np.array_equal(tower.matmul(coeff, gen)[:, cols], targets)


def test_solve_on_columns_rejects_bad_inputs(rng):
    tower = TOWERS[0]
    gen = np.zeros((2, 3, tower.s), dtype=np.int64)
    gen[[0, 1, 0], [0, 1, 2], 0] = 1  # rows (1, 0, 1) and (0, 1, 0)
    # columns 0 and 2 are linearly dependent for this generator
    dependent = np.array([0, 2])
    assert not is_information_set(gen, dependent, tower)
    with pytest.raises(NotInformationSet):
        solve_on_columns(gen, dependent, tower.rand(rng, (2, 2)), tower)
    good = np.array([0, 1])
    with pytest.raises(DimensionMismatch):
        solve_on_columns(gen, good, tower.rand(rng, (2, 3)), tower)
    with pytest.raises(NotInformationSet):
        solve_on_columns(gen, np.array([0]), tower.rand(rng, (2, 2)), tower)
    for outside in ([0, 3], [-1, 1]):
        with pytest.raises(IndexOutOfRange):
            solve_on_columns(gen, np.array(outside), tower.rand(rng, (2, 2)), tower)
    with pytest.raises(NotInformationSet):
        solve_on_columns(np.zeros((2, 3, tower.s), dtype=np.int64), good, tower.rand(rng, (2, 2)), tower)


# -- differential tests against the scalar elimination over F_q^s ------------------

# (p, e, s): preset, tight, ternary, q=3 s=4, q=4 s=3 (F_2 blow-ups), q=9 s=2
DIFF_TOWERS = [build_tower(*pes) for pes in [(2, 1, 4), (2, 1, 2), (3, 1, 2), (3, 1, 4), (2, 2, 3), (3, 2, 2)]]
DIFF_MATRICES = 1000


def _hard_matrix(tower, rng, kind: int) -> np.ndarray:
    """A small seeded (rows, cols, s) matrix of one of six kinds, most of them degenerate.

    0 uniform, 1 sparse (most entries zero, the rest often in F_q),
    2 rank-deficient product, 3 all-zero, 4 1 x 1, 5 singular square.
    """
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    if kind == 0:
        return tower.rand(rng, (rows, cols))
    if kind == 1:
        data = tower.rand(rng, (rows, cols))
        data[rng.random((rows, cols)) < 0.6] = 0
        data[..., 1:][rng.random((rows, cols)) < 0.5] = 0
        return data
    if kind == 2:
        inner = int(rng.integers(1, max(min(rows, cols), 2)))
        return tower.matmul(tower.rand(rng, (rows, inner)), tower.rand(rng, (inner, cols)))
    if kind == 3:
        return np.zeros((rows, cols, tower.s), dtype=np.int64)
    if kind == 4:
        return tower.rand(rng, (1, 1)) if rng.random() < 0.8 else np.zeros((1, 1, tower.s), dtype=np.int64)
    n = max(rows, 2)
    return tower.matmul(tower.rand(rng, (n, n - 1)), tower.rand(rng, (n - 1, n)))


@pytest.mark.parametrize("tower", DIFF_TOWERS, ids=lambda t: f"q{t.q}s{t.s}")
def test_ext_elimination_matches_scalar_gauss_jordan(tower):
    """rank_ext, ext_inv_matrix and is_information_set agree with the scalar path."""
    rng = np.random.default_rng(0xB10B + tower.order)
    singular = 0
    for t in range(DIFF_MATRICES):
        m = _hard_matrix(tower, rng, t % 6)
        rows, cols = m.shape[:2]
        entries = m.tolist()
        assert rank_ext(ExtMatrix(tower, m)) == scalar_rank_ext(entries, tower)
        if rows == cols:
            try:
                expected = scalar_ext_inv(entries, tower)
            except ValueError:
                singular += 1
                with pytest.raises(ValueError):
                    ext_inv_matrix(m, tower)
            else:
                assert np.array_equal(ext_inv_matrix(m, tower), np.array(expected))
        if rows <= cols:
            columns = np.sort(rng.permutation(cols)[:rows])
            try:
                expected = scalar_is_information_set(m, columns, tower)
            except RankDeficientGenerator:
                with pytest.raises(RankDeficientGenerator):
                    is_information_set(m, columns, tower)
            else:
                assert is_information_set(m, columns, tower) == expected
    assert singular >= DIFF_MATRICES // 6


# -- differential tests against the log/exp table elimination over F_q --------------

# q = 4, 8, 9, 16, 25, 27: every proper subfield the F_p blow-ups must handle
TABLE_FIELDS = [build_tower(p, e, 2).fq for p, e in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]]


def _hard_fq_matrix(fq, rng, kind: int) -> np.ndarray:
    """A small seeded F_q matrix, of the six kinds of _hard_matrix."""
    rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    if kind == 0:
        return fq.rand(rng, (rows, cols))
    if kind == 1:
        arr = fq.rand(rng, (rows, cols))
        arr[rng.random((rows, cols)) < 0.6] = 0
        return arr
    if kind == 2:
        inner = int(rng.integers(1, max(min(rows, cols), 2)))
        return fq.matmul(fq.rand(rng, (rows, inner)), fq.rand(rng, (inner, cols)))
    if kind == 3:
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == 4:
        return fq.rand(rng, (1, 1)) if rng.random() < 0.8 else np.zeros((1, 1), dtype=np.int64)
    n = max(rows, 2)
    return fq.matmul(fq.rand(rng, (n, n - 1)), fq.rand(rng, (n - 1, n)))


def _table_rank(arr, fq) -> int:
    return len(table_echelon(arr, fq)[1])


@pytest.mark.parametrize("fq", TABLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_blow_up_routing_matches_table_arithmetic(fq):
    """fq_rank, fq_inv_matrix, Fq.vmul and fq_deletion_ranks against the log/exp path."""
    rng = np.random.default_rng(0x7AB1E + fq.q)
    singular = 0
    for t in range(DIFF_MATRICES):
        arr = _hard_fq_matrix(fq, rng, t % 6)
        rows = len(arr)
        assert fq_rank(arr, fq) == _table_rank(arr, fq)
        if arr.shape == (rows, rows):
            try:
                expected = table_inv_matrix(arr, fq)
            except ValueError:
                singular += 1
                with pytest.raises(ValueError):
                    fq_inv_matrix(arr, fq)
            else:
                assert np.array_equal(fq_inv_matrix(arr, fq), expected)
        other = fq.rand(rng, arr.shape)
        assert np.array_equal(fq.vmul(arr, other), table_vmul(fq, arr, other))
        assert np.array_equal(fq.vmul(arr[:1], other), table_vmul(fq, arr[:1], other))  # broadcast
        block = int(rng.choice([d for d in range(1, rows + 1) if rows % d == 0]))
        deleted = [_table_rank(np.delete(arr, slice(lo, lo + block), axis=0), fq) for lo in range(0, rows, block)]
        assert fq_deletion_ranks(arr, block, fq) == deleted
    assert singular >= DIFF_MATRICES // 6


# -- differential tests against the digit contraction and the scalar loops --------

# the retrieval workload's database (L x m*delta) times its query (m*delta x n)
RESPOND_SHAPE = (512, 60, 6)


def _product_operands(tower, rng, t: int):
    """Seeded operands (a, b) over F_q^s and (x, y) over F_q for product number t.

    t % 6 picks the kind: 0 uniform, 1 sparse, 2 all-zero, 3 1 x 1 x 1,
    4 single row, 5 single column; every 250th product has the respond shape.
    """
    kind = t % 6
    r, k, c = (int(d) for d in rng.integers(1, 5, size=3))
    if kind == 3:
        r = k = c = 1
    r = 1 if kind == 4 else r
    c = 1 if kind == 5 else c
    if t % 250 == 0:
        r, k, c = RESPOND_SHAPE
    fq = tower.fq
    a, b, x, y = tower.rand(rng, (r, k)), tower.rand(rng, (k, c)), fq.rand(rng, (r, k)), fq.rand(rng, (k, c))
    if kind == 1:
        for arr in (a, b, x, y):
            arr[rng.random(arr.shape) < 0.6] = 0
    if kind == 2:
        for arr in (a, b, x, y):
            arr[...] = 0
    return a, b, x, y


@pytest.mark.parametrize("tower", DIFF_TOWERS, ids=lambda t: f"q{t.q}s{t.s}")
def test_products_match_digit_contraction_and_scalar_loops(tower):
    """Fq.matmul, FieldTower.matmul and scalar_matmul against both references.

    The digit contraction checks every product in full; the ext_mul/ext_add
    loops check every entry of the small products and two rows of the
    respond-shaped ones.  Subfield operands enter the loops embedded as
    (x, 0, ..., 0).
    """
    rng = np.random.default_rng(0x9D0D + tower.order)
    fq = tower.fq
    for t in range(DIFF_MATRICES):
        a, b, x, y = _product_operands(tower, rng, t)
        products = tower.matmul(a, b), tower.scalar_matmul(x, b), fq.matmul(x, y)
        assert products[0].shape == (len(a), b.shape[1], tower.s)
        assert np.array_equal(products[0], digit_matmul(a, b, tower))
        assert np.array_equal(products[1], digit_scalar_matmul(x, b, tower))
        assert np.array_equal(products[2], digit_fq_matmul(x, y, fq))
        rows = np.arange(len(a)) if len(a) <= 4 else rng.choice(len(a), 2, replace=False)
        assert np.array_equal(products[0][rows], scalar_ext_matmul(a[rows], b, tower))
        assert np.array_equal(products[1][rows], scalar_ext_matmul(embed_subfield(x[rows], tower), b, tower))
        loops = scalar_ext_matmul(embed_subfield(x[rows], tower), embed_subfield(y, tower), tower)
        assert not loops[..., 1:].any()
        assert np.array_equal(products[2][rows], loops[..., 0])
