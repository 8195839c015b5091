"""Exact linear algebra over small fields."""

import random
import time
from math import lcm

import pytest

from conftest import count_products, random_invertible, ref_product
from flagcodes import (Matrix, block_diag, hstack, make_field, matrix_order,
                       singer_group, vstack)
from flagcodes.errors import FieldConstructionError, ShapeError, SingularMatrixError
from flagcodes.matrices import kernel_code_rows, rref_code_rows
from flagcodes.singer import companion_matrix


def _kernel(F, rows, n):
    """A basis of {x : M x^T = 0} for the matrix M of rows, read off its
    canonical rows, as Subspace.dual reads it."""
    return kernel_code_rows(F, rref_code_rows(F, rows)[0], n)


def test_rref_frozen():
    # rref_code_rows gives the nonzero canonical rows, pivot (leading 1) order
    F2 = make_field(2, 1)
    I3 = Matrix.identity(F2, 3)
    assert rref_code_rows(F2, I3.rows) == [I3.rows]
    assert rref_code_rows(F2, Matrix.zero(F2, 2, 3).rows) == [()]

    M = Matrix(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    assert rref_code_rows(F2, M.rows) == [((1, 0, 1), (0, 1, 1))]
    assert M.rank() == 2

    F3 = make_field(3, 1)
    M = Matrix(F3, [(2, 1, 0), (1, 2, 0)], 3)
    assert rref_code_rows(F3, M.rows) == [((1, 2, 0),)] and M.rank() == 1


def test_inverse_and_kernel():
    F3 = make_field(3, 1)
    A = Matrix(F3, [(1, 2), (0, 1)], 2)
    assert A.inverse().rows == ((1, 1), (0, 1))
    assert (A.inverse() @ A).is_identity()
    assert Matrix.identity(F3, 4).inverse() == Matrix.identity(F3, 4)

    F2 = make_field(2, 1)
    assert _kernel(F2, [(1, 1)], 2) == ((1, 1),)
    assert _kernel(F2, [(1, 0, 1), (0, 1, 1)], 3) == ((1, 1, 1),)
    # full column rank: kernel has zero rows
    assert _kernel(F2, Matrix.identity(F2, 3).rows, 3) == ()

    try:
        Matrix(F2, [(1, 1), (1, 1)], 2).inverse()
    except SingularMatrixError:
        pass
    else:
        raise AssertionError("singular matrix inverted")


def test_kernel_annihilates_seeded():
    rng = random.Random(271)
    F4 = make_field(2, 2)
    for _ in range(40):
        rows = [[rng.randrange(4) for _ in range(5)] for _ in range(3)]
        K = _kernel(F4, rows, 5)
        assert Matrix(F4, rows, 5).rank() + Matrix(F4, K, 5).rank() == 5
        for v in K:  # M v^T = 0, v written as a 5 x 1 column
            assert ref_product(F4, rows, [(x,) for x in v]) == [(0,)] * 3


def test_matrix_order_of_companions():
    F2 = make_field(2, 1)
    F3 = make_field(3, 1)
    C4 = companion_matrix(make_field(2, 2).modulus, F2)
    assert C4.rows == ((0, 1), (1, 1))
    assert matrix_order(C4, 3) == 3
    C8 = companion_matrix(make_field(2, 3).modulus, F2)
    assert C8.rows == ((0, 1, 0), (0, 0, 1), (1, 0, 1))
    assert matrix_order(C8, 7) == 7
    C27 = companion_matrix(make_field(3, 3).modulus, F3)
    assert C27.rows == ((0, 1, 0), (0, 0, 1), (2, 0, 1))
    assert matrix_order(C27, 26) == 26
    assert matrix_order(Matrix.identity(F3, 3), 26) == 1
    # hints that are proper multiples of the order are divided down to it
    g = singer_group(F2, 4).generator
    assert matrix_order(g, order_hint=60) == 15
    assert matrix_order(g ** 3, order_hint=15) == 5


def test_pow_matches_repeated_product():
    F3 = make_field(3, 1)
    A = Matrix(F3, [(1, 2), (0, 1)], 2)
    assert (A ** 3).is_identity()
    assert (A ** 4) == A
    assert (A ** 0).is_identity()
    acc = Matrix.identity(F3, 2)
    for i in range(7):
        assert acc == A ** i
        acc = acc @ A
    assert (A ** -1) == A.inverse()
    # a 3 x 3 over GF(16) over GF(4), up to n = 40 and down to n = -40
    F = make_field(2, 2, base=make_field(2, 2))
    B = random_invertible(random.Random(14), F, 3)
    B_inv = B.inverse()
    up = down = Matrix.identity(F, 3)
    for i in range(41):
        assert B ** i == up and B ** -i == down
        up, down = up @ B, down @ B_inv


def test_matrix_order_refuses_a_singular_matrix_at_once(monkeypatch):
    # no power of a singular matrix is the identity, whatever the hint: one
    # power by the hint refuses it, where a walk would take q^n - 1 steps.
    # The count bound holds however slow the machine is
    F2 = make_field(2, 1)
    calls = count_products(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="does not divide hint"):
        matrix_order(Matrix.zero(F2, 18, 18), 2 ** 18 - 1)
    assert time.perf_counter() - t0 < 1
    assert len(calls) <= 2 * 18  # one square and multiply of an 18-bit hint
    with pytest.raises(ValueError, match="does not divide hint"):
        matrix_order(Matrix(F2, [(1, 1), (1, 1)]), 3)
    # so is a hint the order does not divide, and a hint below 1
    with pytest.raises(ValueError, match="does not divide hint"):
        matrix_order(singer_group(F2, 4).generator, 5)
    with pytest.raises(ValueError, match="must be positive"):
        matrix_order(Matrix.identity(F2, 2), 0)
    with pytest.raises(ShapeError):
        matrix_order(Matrix(F2, [(1, 0, 0), (0, 1, 0)]), 1)


def _walked_order(A):
    """The order of an invertible A by walking its powers."""
    i, P = 1, A
    while not P.is_identity():
        i, P = i + 1, P @ A
    return i


def _gl_exponent(q, p, n):
    """A multiple of the order of every element of GL(n, q): lcm(q^d - 1 :
    d <= n) times the least power of p at least n.  The semisimple part of
    A has the order of a unit of some GF(q^d), d <= n, and its unipotent
    part U has (U - I)^(p^j) = 0 once p^j >= n."""
    return lcm(*(q ** d - 1 for d in range(1, n + 1))) * min(
        p ** j for j in range(n + 1) if p ** j >= n)


def test_matrix_order_matches_walked_powers():
    rng = random.Random(16)
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)]:
        F = make_field(p, e)
        for n in (1, 2, 3, 4):
            for _ in range(4):
                A = random_invertible(rng, F, n)
                assert matrix_order(A, _gl_exponent(F.order, p, n)) == _walked_order(A)
        # non-semisimple: a unipotent Jordan block, whose order is the least
        # p^j >= its size, beside a Singer cycle, moved by a random basis change
        for size in (2, 3, 4, 5):
            J = Matrix(F, [[int(j in (i, i + 1)) for j in range(size)]
                           for i in range(size)], size)
            assert matrix_order(J, _gl_exponent(F.order, p, size)) == _walked_order(J) == min(
                p ** j for j in range(size) if p ** j >= size)
            A = block_diag(J, singer_group(F, 2).generator)
            P = random_invertible(rng, F, size + 2)
            B = P.inverse() @ A @ P
            assert matrix_order(B, _gl_exponent(F.order, p, size + 2)) == _walked_order(B)


def test_matrix_order_is_bounded(monkeypatch):
    # walking its powers took about 6 s: 2^16 - 1 products; the Singer
    # group checks its generator's order through the hint instead.  Its
    # generator keeps its 16 squares (15 products), and each power it reads
    # from them takes at most 15 more: the hint 3 * 5 * 17 * 257 and its
    # four quotients, once in the group's check and once here
    calls = count_products(monkeypatch)
    t0 = time.perf_counter()
    g = singer_group(make_field(2, 1), 16).generator
    assert matrix_order(g, 2 ** 16 - 1) == 2 ** 16 - 1
    assert time.perf_counter() - t0 < 1
    assert len(calls) <= 15 + 2 * 5 * 15
    # p^2 - 1 has a 43-bit prime cofactor, which trial division cannot split:
    # the order is refused, not walked
    p = 163 * 2 ** 44 + 1
    with pytest.raises(FieldConstructionError):
        matrix_order(Matrix.identity(make_field(p, 1), 2), p ** 2 - 1)


def test_block_operations():
    F3 = make_field(3, 1)
    A = Matrix(F3, [(1, 2), (0, 1)], 2)
    B = Matrix(F3, [(1, 0), (1, 1)], 2)
    assert hstack(A, B).rows == ((1, 2, 1, 0), (0, 1, 1, 1))
    assert vstack(A, B).rows == ((1, 2), (0, 1), (1, 0), (1, 1))
    assert block_diag(A, B).rows == ((1, 2, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 1, 1))
    assert (A @ B).rows == ((0, 2), (1, 1))


def test_shape_checks():
    F2 = make_field(2, 1)
    A = Matrix(F2, [(1, 0)], 2)
    B = Matrix(F2, [(1, 0, 1)], 3)
    try:
        A @ B
    except ShapeError:
        pass
    else:
        raise AssertionError("2 cols times 1x3 must fail")


def test_zero_row_matrices():
    # kernels of injective maps are 0 x n; they must survive round trips
    F2 = make_field(2, 1)
    K = Matrix(F2, _kernel(F2, Matrix.identity(F2, 2).rows, 2), 2)
    assert K.rows == () and K.ncols == 2
    assert K.rank() == 0
    assert vstack(K, Matrix.identity(F2, 2)) == Matrix.identity(F2, 2)


def test_rref_idempotent_seeded():
    rng = random.Random(99)
    F3 = make_field(3, 1)
    for _ in range(50):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        M = Matrix(F3, rows, 4)
        R = rref_code_rows(F3, M.rows)[0]
        assert rref_code_rows(F3, R) == [R]
        # row rank is column rank
        assert len(R) == M.rank() == Matrix(F3, zip(*rows), 3).rank()


def test_matrices_hash_by_value_and_print():
    F3 = make_field(3, 1)
    a = Matrix(F3, [(1, 2), (0, 1)])
    b = Matrix(F3, [[1, 2], [0, 1]])
    assert a == b and a is not b and hash(a) == hash(b)
    table = {a: "a"}
    assert table[b] == "a"
    assert len({a, b, Matrix.identity(F3, 2), a @ a.inverse()}) == 2
    assert repr(Matrix(F3, [], 3)) == f"Matrix({F3!r}, 0x3)"
    assert repr(a) == "[1 2; 0 1]"
