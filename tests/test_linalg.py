import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhw_pir.errors import (
    CoordinateOutOfRange,
    DimensionMismatch,
    IndexOutOfRange,
    NotInformationSet,
    RankDeficientGenerator,
)
from hhw_pir.fields import Fq, _reduce_fields, _row_layout, build_tower, fq_deletion_ranks, is_prime
from hhw_pir.linalg import (
    ExtMatrix,
    change_basis,
    ext_inv_matrix,
    ext_rank,
    fq_echelon,
    fq_inv_matrix,
    fq_rank,
    is_information_set,
    rank_ext,
    rank_fq,
    solve_on_columns,
)

from .oracles import (
    chain_deletion_ranks,
    embed_subfield,
    fq_echelon_stack,
    fq_poly_mul,
    loop_echelon,
    naive_rank_fq,
    product_blow_up,
    product_matmul,
    scalar_ext_inv,
    scalar_ext_matmul,
    scalar_is_information_set,
    scalar_rank_ext,
    subfield_rank_oracle,
    two_step_blow_up,
    two_step_ext_inv,
    two_step_ext_rank,
    two_step_matmul,
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
    assert np.array_equal(tower.matmul(a, c), scalar_ext_matmul(a, c, tower))
    with pytest.raises(ValueError):
        tower.matmul(a, b)


# -- echelon and F_q rank ------------------------------------------------------------


def test_fq_echelon_reduced_properties(rng):
    fq = TOWERS[1].fq
    arr = fq.rand(rng, (5, 7))
    R, pivots = fq_echelon(arr, fq)
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


# -- the packed kernel against the numpy loop it replaced -----------------------------

F2 = Fq(2, 1, (0, 1))
# a packed row is whole bytes, so widths on and around the byte and 64-bit boundaries
GF2_WIDTHS = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130)
PACKED_EDGE_SHAPES = [(0, 0), (0, 9), (9, 0), (0, 130), (1, 1), (1, 130), (130, 1)]
GF2_MATRICES = 3000


PACKED_KINDS = 7


def _packed_matrix(fq, rng, shape, kind: int) -> np.ndarray:
    """A seeded matrix over F_p: uniform, sparse, rank-deficient, zero, (shifted) identity, repeated rows or all p - 1."""
    rows, cols = shape
    if kind == 0:
        return fq.rand(rng, shape)
    if kind == 1:
        return fq.rand(rng, shape) * (rng.random(shape) < 0.08)
    if kind == 2:
        inner = int(rng.integers(0, max(min(rows, cols), 1)))
        return fq.matmul(fq.rand(rng, (rows, inner)), fq.rand(rng, (inner, cols)))
    if kind == 3:
        return np.zeros(shape, dtype=np.int64)
    if kind == 4:
        return np.eye(rows, cols, k=int(rng.integers(-2, 3)), dtype=np.int64)
    if kind == 5:
        distinct = max(rows // 3, 1)
        return fq.rand(rng, (distinct, cols))[rng.integers(0, distinct, size=rows)]
    return np.full(shape, fq.p - 1, dtype=np.int64)


def _check_against_the_numpy_loop(fq, shapes, rng, naive_size: int) -> tuple[int, int]:
    """fq_echelon against reduced loop_echelon on seeded matrices of the given shapes; (full-rank, deficient) counts.

    Entry for entry, dtype, shape, pivots as Python ints and the input left
    untouched; every tenth matrix of at most naive_size entries is also
    ranked by naive_rank_fq.
    """
    full = deficient = 0
    for t, shape in enumerate(shapes):
        arr = _packed_matrix(fq, rng, shape, t % PACKED_KINDS)
        before = arr.copy()
        R, pivots = fq_echelon(arr, fq)
        want, want_pivots = loop_echelon(arr, fq, reduced=True)
        assert R.dtype == np.int64 and R.shape == arr.shape, (t, shape)
        assert np.array_equal(R, want), (t, shape)
        assert pivots == want_pivots and all(type(c) is int for c in pivots), (t, shape)
        assert np.array_equal(arr, before)
        rank = len(pivots)
        assert fq_rank(arr, fq) == rank
        if t % 10 == 0 and arr.size <= naive_size:
            assert rank == naive_rank_fq(arr, fq), (t, shape)
        if 0 < min(shape):
            full += rank == min(shape)
            deficient += rank < min(shape)
    return full, deficient


def test_packed_gf2_echelon_matches_the_numpy_loop():
    """fq_echelon over F_2 against the numpy loop it replaced, entry for entry, and naive_rank_fq."""
    rng = np.random.default_rng(0x6F2)
    shapes = PACKED_EDGE_SHAPES + [
        (int(rng.integers(0, 25)), int(rng.choice(GF2_WIDTHS) if t % 2 else rng.integers(0, 131)))
        for t in range(GF2_MATRICES - len(PACKED_EDGE_SHAPES))
    ]
    full, deficient = _check_against_the_numpy_loop(F2, shapes, rng, naive_size=1000)
    assert min(full, deficient) >= GF2_MATRICES // 5


# one odd prime per field width of a packed row: 8, 16, 32 and 64 bits
ODD_PACKED_PRIMES = (3, 5, 251, 65521)
ODD_MATRICES = 1600


@pytest.mark.parametrize("p", ODD_PACKED_PRIMES)
def test_packed_odd_p_echelon_matches_the_numpy_loop(p):
    """fq_echelon over odd F_p against the numpy loop it replaced, entry for entry, and naive_rank_fq."""
    fp = Fq(p, 1, (0, 1))
    assert _row_layout(p, 1)[1][0] == {3: 8, 5: 16, 251: 32, 65521: 64}[p]
    rng = np.random.default_rng(0x0DD + p)
    shapes = PACKED_EDGE_SHAPES + [
        (int(rng.integers(0, 25)), int(rng.integers(0, 131))) for _ in range(ODD_MATRICES - len(PACKED_EDGE_SHAPES))
    ]
    full, deficient = _check_against_the_numpy_loop(fp, shapes, rng, naive_size=300)
    assert min(full, deficient) >= ODD_MATRICES // 5


def test_packed_row_layout_holds_for_every_odd_prime():
    """2^s >= p^3 and (p^2 - 1) * m < 2^w for every odd p < 2^16; the reduction is exact on every x < p^2 for p < 2^8.

    Over F_2 a row is one bit per entry, padded to whole bytes, with no reduction.
    """
    assert [_row_layout.__wrapped__(2, cols) for cols in (0, 1, 8, 9)] == [(0, (1, 0, 0, 0)), (8, (1, 0, 0, 0)),
                                                                          (8, (1, 0, 0, 0)), (16, (1, 0, 0, 0))]
    odd_primes = [p for p in range(3, 1 << 16, 2) if is_prime(p)]
    for p in odd_primes:
        fields, (w, s, m, low) = _row_layout.__wrapped__(p, 2)
        assert fields == 2, p
        assert (1 << s) >= p**3 and m * p >= 1 << s > (m - 1) * p, p
        assert (p * p - 1) * m < 1 << w and w in (8, 16, 32, 64), p
        assert w == 8 or (p * p - 1) * m >= 1 << w // 2, p  # the narrowest width that holds
        assert low == ((1 << w - s) - 1) * (1 | 1 << w), p
    for p in [p for p in odd_primes if p < 1 << 8]:
        # every x < p^2, one per field of a single packed row, reduced all at once
        w, s, m, low = _row_layout.__wrapped__(p, p * p)[1]
        dtype = f">u{w // 8}"
        x = int.from_bytes(np.arange(p * p).astype(dtype).tobytes(), "big")
        reduced = _reduce_fields(x, p, s, m, low).to_bytes(p * p * w // 8, "big")
        assert np.array_equal(np.frombuffer(reduced, dtype=dtype), np.arange(p * p) % p), p


# packed rows of 256, 1024 and 4096 bits: one bit per column over F_2, one byte over F_3
WIDE_ROWS = [(2, 256), (2, 1024), (2, 4096), (3, 32), (3, 128), (3, 512)]
WIDE_MATRICES = 8
# an inverse eliminates [M | I], 2n columns; the numpy loop is too slow for n = 2048
WIDE_INVERSE_MAX = 512


@pytest.mark.parametrize("p, cols", WIDE_ROWS, ids=lambda x: str(x))
def test_wide_packed_rows_match_the_numpy_loop(p, cols):
    """fq_echelon, fq_rank and fq_inv_matrix on rows of 256 to 4096 bits against reduced loop_echelon."""
    fp = Fq(p, 1, (0, 1))
    rng = np.random.default_rng(0x1DE + p * cols)
    for t in range(WIDE_MATRICES):
        arr = _packed_matrix(fp, rng, (int(rng.integers(1, 25)), cols), t % PACKED_KINDS)
        R, pivots = fq_echelon(arr, fp)
        want, want_pivots = loop_echelon(arr, fp, reduced=True)
        assert np.array_equal(R, want) and pivots == want_pivots, t
        assert fq_rank(arr, fp) == len(want_pivots), t
    n = cols // 2
    if n > WIDE_INVERSE_MAX:
        return
    eye = np.eye(n, dtype=np.int64)
    for singular in (False, True):
        # a row permutation of L @ U, unit triangular factors, is invertible; a row the sum of two others is not
        M = fp.matmul(np.tril(fp.rand(rng, (n, n)), -1) + eye, np.triu(fp.rand(rng, (n, n)), 1) + eye)
        M = M[rng.permutation(n)]
        if singular:
            M[0] = fp.vadd(M[1], M[2])
        want, want_pivots = loop_echelon(np.hstack([M, eye]), fp, reduced=True)
        assert (want_pivots[:n] == list(range(n))) != singular
        if singular:
            with pytest.raises(ValueError, match="singular"):
                fq_inv_matrix(M, fp)
        else:
            assert np.array_equal(fq_inv_matrix(M, fp), want[:, n:])


def _check_on_the_blow_up(arr, fq, naive: bool) -> bool:
    """fq_rank and fq_inv_matrix of an F_q matrix against loop_echelon on its product blow-up over F_p.

    The blow-up is an injective ring homomorphism: its F_p rank is e times
    the rank, and the blow-up of the inverse is the right half of the
    reduced [B | I], B the blow-up.  An inverse must also give M @ M^-1 = I,
    and with ``naive`` the rank must be naive_rank_fq's.  True when arr is
    square and singular.
    """
    big = product_blow_up(arr, fq)
    rank = fq_rank(arr, fq)
    assert rank == len(loop_echelon(big, fq.fp)[1]) // fq.e
    if naive:
        assert rank == naive_rank_fq(arr, fq)
    rows, cols = arr.shape
    if rows != cols:
        return False
    n = rows * fq.e
    R, pivots = loop_echelon(np.hstack([big, np.eye(n, dtype=np.int64)]), fq.fp, reduced=True)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError):
            fq_inv_matrix(arr, fq)
        return True
    inv = fq_inv_matrix(arr, fq)
    assert np.array_equal(product_blow_up(inv, fq), R[:, n:])
    assert np.array_equal(fq.matmul(arr, inv), np.eye(rows, dtype=np.int64))
    return False


@pytest.mark.parametrize("fq", [build_tower(2, e, 2).fq for e in (2, 3, 4)], ids=lambda f: f"q{f.q}")
def test_gf2_blow_ups_match_table_arithmetic(fq):
    """fq_rank and fq_inv_matrix over F_4, F_8 and F_16 on blow-ups up to 96 bits wide,
    against loop_echelon on the product blow-up and naive_rank_fq."""
    rng = np.random.default_rng(0xB10 + fq.q)
    singular = 0
    for t in range(60):
        n = int(rng.integers(7, 13))
        arr = _hard_fq_matrix(fq, rng, t % 6) if t % 3 == 0 else fq.rand(rng, (n, n))
        if t % 3 == 1:
            arr[int(rng.integers(0, n))] = arr[int(rng.integers(0, n))]
        singular += _check_on_the_blow_up(arr, fq, naive=True)
    assert singular >= 10


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
    """Each matrix of a stack gets the echelon form, rank and pivots of the 2-D loop (loop_echelon), reduced and not."""
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
            want, want_pivots = loop_echelon(stack[b], fp, reduced=reduced)
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


def test_stacks_in_any_memory_order_match_their_c_ordered_copy():
    """fq_echelon_stack and fq_rank on transposed, swapped and strided-slice stacks, over F_2 and F_3."""
    for p in (2, 3):
        fp = Fq(p, 1, (0, 1))
        rng = np.random.default_rng(0x5D + p)
        square = fp.rand(rng, (5, 4, 4))
        square[0, 3] = square[0, 1]
        square[1, :, 2] = 0
        wide = fp.rand(rng, (6, 5, 9)) * (rng.random((6, 5, 9)) < 0.5)
        views = [square.transpose(0, 2, 1), square.swapaxes(0, 1), square.swapaxes(0, 2), wide[::2, 1:, ::2],
                 wide[:, ::-1, 3:], np.asfortranarray(wide)]
        for view in views:
            copy = np.ascontiguousarray(view)
            assert not view.flags.c_contiguous
            for reduced in (False, True):
                for got, want in zip(fq_echelon_stack(view, fp, reduced), fq_echelon_stack(copy, fp, reduced)):
                    assert np.array_equal(got, want), (p, view.shape, reduced)
            ranks = [naive_rank_fq(matrix, fp) for matrix in copy]
            assert fq_rank(view, fp).tolist() == fq_rank(copy, fp).tolist() == ranks, (p, view.shape)
            assert [fq_rank(matrix, fp) for matrix in view] == ranks


def test_rank_and_inverse_reject_entries_outside_the_field():
    """A packed field would wrap an entry outside [0, q): fq_rank, fq_inv_matrix and fq_echelon raise instead."""
    f2, f3, f4 = Fq(2, 1, (0, 1)), Fq(3, 1, (0, 1)), build_tower(2, 2, 2).fq
    # 256 would wrap to 0 in an 8-bit field, though 256 = 1 mod 3; 2 would pack as bit 1 over F_2
    cases = [(f3, [[256]]), (f2, [[2, 0], [0, 2]]), (f3, [[1, 0], [-1, 1]]), (f4, [[1, 4], [0, 1]]),
             (f3, [[256, 0]]), (f3, [[-1, 0]])]
    for fq, entries in cases:
        arr = np.array(entries)
        for call in (fq_rank, fq_inv_matrix) + ((fq_echelon,) if fq.e == 1 else ()):
            with pytest.raises(CoordinateOutOfRange):
                call(arr, fq)
        with pytest.raises(CoordinateOutOfRange):
            fq_rank(np.stack([arr % fq.q, arr]), fq)
    assert fq_rank(np.array([[3, 0], [0, 1]]), f4) == 2
    assert np.array_equal(fq_inv_matrix(np.array([[2]]), f3), [[2]])


# one prime per field width of a packed row: 1, 8, 16, 32 and 64 bits
RANK_PRIMES = (2,) + ODD_PACKED_PRIMES
# leading shapes: a matrix, stacks of 0, 1, 2, 3 and 64, and 4-D stacks
RANK_LEADS = [(), (0,), (1,), (2,), (3,), (64,), (2, 3), (3, 0)]
RANK_CASES = 400


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_packed_rank_matches_the_oracles(p):
    """fq_rank against naive_rank_fq and the pivot count of loop_echelon, on seeded matrices and stacks.

    A 2-D input gives an int, a stack an int64 array of its leading shape,
    and the input is left untouched.
    """
    fp = Fq(p, 1, (0, 1))
    rng = np.random.default_rng(0x4A2C + p)
    matrices = naive = 0
    for t in range(RANK_CASES):
        lead = RANK_LEADS[t % len(RANK_LEADS)]
        if t < len(PACKED_EDGE_SHAPES):
            shape = PACKED_EDGE_SHAPES[t]
        else:
            shape = (int(rng.integers(0, 25)), int(rng.integers(0, 131)))
        members = [_packed_matrix(fp, rng, shape, (t + i) % PACKED_KINDS) for i in range(int(np.prod(lead)))]
        arr = np.array(members, dtype=np.int64).reshape(*lead, *shape)
        before = arr.copy()
        ranks = fq_rank(arr, fp)
        assert np.array_equal(arr, before)
        if lead:
            assert isinstance(ranks, np.ndarray) and ranks.dtype == np.int64 and ranks.shape == lead, (t, lead)
        else:
            assert type(ranks) is int, t
        for member, rank in zip(members, np.ravel(ranks).tolist()):
            assert rank == len(loop_echelon(member, fp)[1]), (t, lead, shape)
            if member.size <= 300:
                assert rank == naive_rank_fq(member, fp), (t, lead, shape)
                naive += 1
        matrices += len(members)
    assert matrices >= 2000 and naive >= 500


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
    """Zero and empty matrices rank 0 by insertion alone, as Python ints, and empty stacks keep their shape."""
    for fq in [tower.fq for tower in TOWERS] + [Fq(65521, 1, (0, 1))]:
        for shape in ((0, 4), (0, 0), (5, 0), (3, 3), (4, 7)):
            rank = fq_rank(np.zeros(shape, dtype=np.int64), fq)
            assert type(rank) is int and rank == 0, (fq.q, shape)
        assert fq_rank(np.eye(3, dtype=np.int64), fq) == 3
        for shape, want in (((3, 0, 4), [0, 0, 0]), ((3, 4, 0), [0, 0, 0]), ((0, 4, 4), [])):
            ranks = fq_rank(np.zeros(shape, dtype=np.int64), fq)
            assert ranks.dtype == np.int64 and ranks.tolist() == want, (fq.q, shape)


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
        assert rank_ext(m) == ext_rank(data, tower) == scalar_rank_ext(data.tolist(), tower)


def test_rank_empty_matrices():
    tower = TOWERS[0]
    assert rank_fq(ExtMatrix(tower, np.zeros((0, 3, tower.s)))) == 0
    assert rank_ext(ExtMatrix(tower, np.zeros((3, 0, tower.s)))) == 0


def test_ext_rank_of_a_stack(rng):
    for tower in TOWERS:
        stack = tower.rand(rng, (7, 3, 4))
        stack[2, 1] = stack[2, 0]
        stack[5] = 0
        assert ext_rank(stack, tower).tolist() == [scalar_rank_ext(m.tolist(), tower) for m in stack]


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


@pytest.mark.parametrize("tower", TOWERS, ids=lambda t: f"q{t.q}s{t.s}")
def test_change_basis_refuses_operands_it_would_truncate_or_reduce(tower, rng):
    """A fractional operand was truncated and an entry >= q reduced mod p; both raise CoordinateOutOfRange."""
    data = tower.rand(rng, (3, 3))
    transform = tower.fq.rand(rng, (tower.s, tower.s))
    too_big_data, too_big_transform = data.copy(), transform.copy()
    too_big_data[1, 2, 0] = tower.q
    too_big_transform[0, 1] = tower.q + tower.p
    for bad_data, bad_transform in [
        (data + 0.4, transform),
        (data, transform + 0.4),
        (data.astype(bool), transform),
        (too_big_data, transform),
        (data, too_big_transform),
        (-data - 1, transform),
    ]:
        with pytest.raises(CoordinateOutOfRange):
            change_basis(bad_data, tower, bad_transform)


# -- information sets and solving ------------------------------------------------------


def _random_full_rank(tower, k, n, rng):
    while True:
        gen = tower.rand(rng, (k, n))
        if ext_rank(gen, tower) == k:
            return gen


def test_is_information_set_matches_determinant(rng):
    """Every pair of columns is an information set exactly when its 2 x 2 block is nonsingular, by scalar ranks."""
    tower = TOWERS[1]
    gen = _random_full_rank(tower, 2, 4, rng)
    for cols in itertools.combinations(range(4), 2):
        nonsingular = scalar_rank_ext(gen[:, list(cols)].tolist(), tower) == 2
        assert is_information_set(gen, np.array(cols), tower) == nonsingular


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


@pytest.mark.parametrize("kind", ["shifted", "float", "bool"])
def test_information_set_columns_must_be_integers(kind, rng):
    """Fractional columns were truncated to an information set; columns that are not integers raise IndexOutOfRange."""
    tower = TOWERS[0]
    gen = _random_full_rank(tower, 2, 4, rng)
    columns = next(np.array(c) for c in itertools.combinations(range(4), 2) if is_information_set(gen, np.array(c), tower))
    bad = {"shifted": columns + 0.5, "float": columns.astype(float), "bool": np.ones(2, dtype=bool)}[kind]
    with pytest.raises(IndexOutOfRange, match="integers"):
        is_information_set(gen, bad, tower)
    with pytest.raises(IndexOutOfRange, match="integers"):
        solve_on_columns(gen, bad, tower.rand(rng, (2, 2)), tower)


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


# -- differential tests against the two-step blow-up by the power table ------------

# q = 2, 3, 4, 8, 9, 16
TWO_STEP_TOWERS = [build_tower(*pes) for pes in [(2, 1, 3), (3, 1, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 4, 2)]]
TWO_STEP_STACKS = 150


def _mixed_stack(tower, rng, count: int, rows: int, cols: int) -> np.ndarray:
    """(count, rows, cols, s): uniform, sparse, rank-deficient and zero members in turn."""
    members = []
    for i in range(count):
        kind = i % 4
        if kind == 2:
            inner = int(rng.integers(1, max(min(rows, cols), 2)))
            members.append(tower.matmul(tower.rand(rng, (rows, inner)), tower.rand(rng, (inner, cols))))
            continue
        data = tower.rand(rng, (rows, cols)) if kind < 3 else np.zeros((rows, cols, tower.s), dtype=np.int64)
        if kind == 1:
            data[rng.random((rows, cols)) < 0.6] = 0
        members.append(data)
    return np.array(members).reshape(count, rows, cols, tower.s)


@pytest.mark.parametrize("tower", TWO_STEP_TOWERS, ids=lambda t: f"q{t.q}s{t.s}")
def test_one_structure_tensor_matches_the_two_step_blow_up(tower):
    """FieldTower.blow_up, FieldTower.matmul, ext_rank and ext_inv_matrix on stacks against the power-table route."""
    rng = np.random.default_rng(0x2573 + tower.order)
    singular = 0
    for t in range(TWO_STEP_STACKS):
        count, rows, inner, cols = (int(d) for d in rng.integers(1, 6, size=4))
        a = _mixed_stack(tower, rng, count, rows, inner)
        b = _mixed_stack(tower, rng, count, inner, cols)
        assert np.array_equal(tower.blow_up(b), two_step_blow_up(b, tower))
        assert np.array_equal(tower.matmul(a, b), two_step_matmul(a, b, tower))
        assert np.array_equal(tower.matmul(a, b[0]), two_step_matmul(a, b[0], tower))  # one right factor for the stack
        ranks = ext_rank(a, tower)
        assert ranks.dtype == np.int64 and ranks.tolist() == two_step_ext_rank(a, tower).tolist()
        square = _mixed_stack(tower, rng, count, rows, rows)
        for member in square:
            try:
                expected = two_step_ext_inv(member, tower)
            except ValueError:
                singular += 1
                with pytest.raises(ValueError):
                    ext_inv_matrix(member, tower)
            else:
                assert np.array_equal(ext_inv_matrix(member, tower), expected)
    assert singular >= TWO_STEP_STACKS // 4


# -- differential tests on the F_p blow-ups of proper subfields ---------------------

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


@pytest.mark.parametrize("fq", TABLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_blow_up_routing_matches_table_arithmetic(fq):
    """fq_rank and fq_inv_matrix against loop_echelon on the product blow-up, Fq.vmul against the table of
    digit-polynomial products, and fq_deletion_ranks against the numpy chains; a seeded 120 of the
    matrices, 20 of each kind, also against naive_rank_fq, deletions included."""
    rng = np.random.default_rng(0x7AB1E + fq.q)
    products = np.array([[fq_poly_mul(fq, a, b) for b in range(fq.q)] for a in range(fq.q)])
    singular = 0
    for t in range(DIFF_MATRICES):
        arr = _hard_fq_matrix(fq, rng, t % 6)
        rows = len(arr)
        naive = t % 50 < 6
        singular += _check_on_the_blow_up(arr, fq, naive)
        other = fq.rand(rng, arr.shape)
        assert np.array_equal(fq.vmul(arr, other), products[arr, other])
        assert np.array_equal(fq.vmul(arr[:1], other), products[arr[:1], other])  # broadcast
        block = int(rng.choice([d for d in range(1, rows + 1) if rows % d == 0]))
        ranks = fq_deletion_ranks(arr, block, fq)
        assert ranks == chain_deletion_ranks(arr, block, fq)
        if naive:
            deleted = [np.delete(arr, slice(lo, lo + block), axis=0) for lo in range(0, rows, block)]
            assert ranks == [naive_rank_fq(matrix, fq) for matrix in deleted]
    assert singular >= DIFF_MATRICES // 6


# -- differential tests against the replaced products and the scalar loops --------

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
    """Fq.matmul, FieldTower.matmul and scalar_matmul against the paths they replaced and the scalar loops.

    The replaced paths check every product in full: the two-step route by
    the power table for the tower's products, and the int64 product on the
    product blow-up for F_q's.  The ext_mul/ext_add loops check every entry
    of the small products and two rows of the respond-shaped ones.
    Subfield operands enter the two-step route and the loops embedded as
    (x, 0, ..., 0).
    """
    rng = np.random.default_rng(0x9D0D + tower.order)
    fq = tower.fq
    for t in range(DIFF_MATRICES):
        a, b, x, y = _product_operands(tower, rng, t)
        products = tower.matmul(a, b), tower.scalar_matmul(x, b), fq.matmul(x, y)
        assert products[0].shape == (len(a), b.shape[1], tower.s)
        assert np.array_equal(products[0], two_step_matmul(a, b, tower))
        assert np.array_equal(products[1], two_step_matmul(embed_subfield(x, tower), b, tower))
        assert np.array_equal(products[2], product_matmul(x, y, fq))
        rows = np.arange(len(a)) if len(a) <= 4 else rng.choice(len(a), 2, replace=False)
        assert np.array_equal(products[0][rows], scalar_ext_matmul(a[rows], b, tower))
        assert np.array_equal(products[1][rows], scalar_ext_matmul(embed_subfield(x[rows], tower), b, tower))
        loops = scalar_ext_matmul(embed_subfield(x[rows], tower), embed_subfield(y, tower), tower)
        assert not loops[..., 1:].any()
        assert np.array_equal(products[2][rows], loops[..., 0])
