"""Companion matrices, the two field-reduction maps, Singer cyclic groups."""

import random

import pytest

from conftest import count_products, random_invertible, ref_add, ref_mul, ref_order
from flagcodes import singer
from flagcodes import (CyclicMatrixGroup, Matrix, Subspace,
                       is_spread, make_field, matrix_order,
                       orbit_subspace, singer_group,
                       subspace_distance)
from flagcodes.errors import (AmbientMismatchError, MixedFieldsError,
                              NotADivisorError, NotExtendingError, ShapeError)
from flagcodes.constructions import (SpreadContext, admissible_subgroup_orders,
                                     conjugate_spread)
from flagcodes.singer import companion_matrix, field_reduction, phi, psi


def test_companion_matrices_frozen():
    F2 = make_field(2, 1)
    F3 = make_field(3, 1)
    assert companion_matrix(make_field(2, 2).modulus, F2).rows == ((0, 1), (1, 1))
    assert companion_matrix(make_field(3, 3).modulus, F3).rows == (
        (0, 1, 0), (0, 0, 1), (2, 0, 1))
    C8 = companion_matrix(make_field(2, 3).modulus, F2)
    assert matrix_order(C8, 7) == 7


def test_phi_frozen_on_gf4():
    F4 = make_field(2, 2)
    imgs = [phi(F4, a).rows for a in range(4)]
    assert imgs == [((0, 0), (0, 0)),
                    ((1, 0), (0, 1)),
                    ((0, 1), (1, 1)),
                    ((1, 1), (1, 0))]


def test_phi_is_a_ring_homomorphism():
    # exhaustive on GF(4), GF(8), GF(16) over GF(4) and GF(9), against the
    # reference arithmetic, which reads no table
    F4 = make_field(2, 2)
    for F in [F4, make_field(2, 3), make_field(2, 2, base=F4), make_field(3, 2)]:
        B, k = F.base, F.degree
        for a in range(F.order):
            for b in range(F.order):
                pa, pb, ps = (phi(F, c).rows for c in (a, b, ref_add(F, a, b)))
                assert all(ref_add(B, x, y) == z for ra, rb, rs in zip(pa, pb, ps)
                           for x, y, z in zip(ra, rb, rs))
                assert phi(F, ref_mul(F, a, b)) == phi(F, a) @ phi(F, b)
        for a in range(1, F.order):
            assert matrix_order(phi(F, a), F.order - 1) == ref_order(F, a)
        # base scalars go to scalar matrices and x to the companion matrix,
        # so with the above phi(a) = sum_i a_i M^i
        for c in range(B.order):
            assert phi(F, c).rows == tuple(
                tuple(c if i == j else 0 for j in range(k)) for i in range(k))
        assert phi(F, B.order) == companion_matrix(F.modulus, B)
    with pytest.raises(NotExtendingError):
        phi(make_field(3, 1), 1)


def test_field_reduction_scales_dim_and_distance():
    F4 = make_field(2, 2)
    lines = [Subspace(F4, 2, [v])
             for v in [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]]
    reduced = [field_reduction(L) for L in lines]
    assert len(set(reduced)) == 5
    for R in reduced:
        assert R.n == 4 and R.dim == 2
    for i in range(5):
        for j in range(5):
            assert (subspace_distance(reduced[i], reduced[j])
                    == 2 * subspace_distance(lines[i], lines[j]))
    full = Subspace.standard(F4, 2, 2)
    assert field_reduction(full).dim == 4


def test_psi_is_multiplicative():
    rng = random.Random(515)
    F4 = make_field(2, 2)
    assert psi(Matrix.identity(F4, 2)).is_identity()
    for _ in range(25):
        A = random_invertible(rng, F4, 2)
        B = random_invertible(rng, F4, 2)
        assert psi(A @ B) == psi(A) @ psi(B)
        assert psi(A).is_invertible()


def test_reduction_equivariance():
    """Reducing then acting by psi(A) equals acting by A then reducing."""
    rng = random.Random(909)
    F4 = make_field(2, 2)
    lines = [Subspace(F4, 2, [v])
             for v in [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)]]
    for _ in range(20):
        A = random_invertible(rng, F4, 2)
        PA = psi(A)
        for L in lines:
            assert field_reduction(L.apply(A)) == field_reduction(L).apply(PA)


def test_singer_group_frozen():
    F2 = make_field(2, 1)
    G = singer_group(F2, 4)
    assert G.order == 15
    assert G.generator.rows == ((0, 1, 0, 0), (0, 0, 1, 0),
                                (0, 0, 0, 1), (1, 0, 0, 1))
    assert matrix_order(G.generator, 15) == 15
    G9 = singer_group(make_field(3, 1), 2)
    assert G9.order == 8
    assert G9.generator.rows == ((0, 1), (1, 2))


def test_singer_transitive_on_lines_and_hyperplanes():
    F2 = make_field(2, 1)
    G = singer_group(F2, 4)
    line_orbit, stab = orbit_subspace(G, Subspace.standard(F2, 4, 1))
    assert len(line_orbit) == 15 and stab == 1
    hyp_orbit, stab = orbit_subspace(G, Subspace.standard(F2, 4, 3))
    assert len(hyp_orbit) == 15 and stab == 1
    # dim-2 standard plane: also a regular orbit for this generator
    plane_orbit, stab = orbit_subspace(G, Subspace.standard(F2, 4, 2))
    assert len(plane_orbit) == 15 and stab == 1


def test_subgroup_of_order():
    G = singer_group(make_field(2, 1), 4)
    H = G.subgroup_of_order(5)
    assert H.order == 5
    assert H.generator == G.generator ** 3
    assert matrix_order(H.generator, 15) == 5
    assert G.subgroup_of_order(1).generator.is_identity()
    assert G.subgroup_of_order(15).generator == G.generator
    try:
        G.subgroup_of_order(4)
    except NotADivisorError:
        pass
    else:
        raise AssertionError("4 does not divide 15")


def test_group_powers_read_the_squares(ctx_q4k3s3):
    # a checked group's generator reads g^d from its squares g^(2^i) for d
    # below 2^L, L = order.bit_length(), and runs square and multiply past
    # them (d up to 2N): both equal square and multiply on a plain copy
    for F, n in [(make_field(2, 1), 4), (make_field(3, 1), 3), (make_field(2, 2), 3)]:
        G = singer_group(F, n)
        g, plain = G.generator, Matrix(F, G.generator.rows)
        for d in range(2 * G.order + 1):
            assert g ** d == plain ** d, (F, n, d)
    G = ctx_q4k3s3.group
    g, plain = G.generator, Matrix(G.field, G.generator.rows)
    rng = random.Random(31)
    for d in (rng.randrange(2 * G.order) for _ in range(200)):
        assert g ** d == plain ** d, d
    assert plain._squares is None


def test_subgroups_match_plain_powers(ctx_q3k3s2, ctx_q4k3s3):
    # every admissible t of both paper tables
    for ctx in (ctx_q3k3s2, ctx_q4k3s3):
        G = ctx.group
        plain = Matrix(G.field, G.generator.rows)
        for t in admissible_subgroup_orders(ctx):
            assert G.subgroup_of_order(t).generator == plain ** (G.order // t), t


def test_only_a_checked_generator_keeps_squares(ctx_q4k3s3):
    G = ctx_q4k3s3.group
    assert len(G.generator._squares) == (4 ** 9 - 1).bit_length() == 18
    assert G.subgroup_of_order(19).generator._squares is None
    # the group's generator is a copy: the matrix handed in keeps none
    g = Matrix(G.field, G.generator.rows)
    assert CyclicMatrixGroup(g, G.order).generator == g
    assert g._squares is None
    # nor does a plain matrix, whatever the exponent
    A = random_invertible(random.Random(31), make_field(2, 2), 3)
    P = A ** (2 ** 300 + 1)
    assert A._squares is None and P._squares is None


def test_spread_context_set_up_products(monkeypatch):
    # the 18 squares of g (17 products) serve the order check and both seed
    # checks; a fresh square and multiply for every power costs 228 products
    calls = count_products(monkeypatch)
    SpreadContext(make_field(2, 2), 3, 3)
    assert len(calls) == 92


def test_orbit_under_subgroup():
    F2 = make_field(2, 1)
    G = singer_group(F2, 4)
    H = G.subgroup_of_order(5)
    orbit, stab = orbit_subspace(H, Subspace.standard(F2, 4, 1))
    assert len(orbit) == 5 and stab == 1


def test_psi_image_of_singer_yields_spread_orbit():
    # the plane orbit of the reduced line under psi(Singer of GL(2, GF(4)))
    # is the 5-member plane spread of GF(2)^4, stabilizer GF(4)* of order 3
    F4 = make_field(2, 2)
    GE = singer_group(F4, 2)
    Gpsi = CyclicMatrixGroup(psi(GE.generator), GE.order)
    red = field_reduction(Subspace(F4, 2, [(1, 0)]))
    orbit, stab = orbit_subspace(Gpsi, red)
    assert len(orbit) == 5 and stab == 3
    assert is_spread(orbit)
    assert sorted(m.rows for m in orbit) == [
        ((0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((1, 0, 0, 1), (0, 1, 1, 1)),
        ((1, 0, 1, 0), (0, 1, 0, 1)),
        ((1, 0, 1, 1), (0, 1, 1, 0))]


def test_orbit_input_checks():
    F2 = make_field(2, 1)
    F3 = make_field(3, 1)
    G = singer_group(F2, 4)
    try:
        orbit_subspace(G, Subspace.standard(F2, 3, 1))
    except AmbientMismatchError:
        pass
    else:
        raise AssertionError("ambient 3 against degree 4")
    try:
        orbit_subspace(G, Subspace.standard(F3, 4, 1))
    except MixedFieldsError:
        pass
    else:
        raise AssertionError("GF(3) subspace under GF(2) group")


def test_group_order_is_always_checked(ctx_q2k2s2, monkeypatch):
    # a singular generator has no order: the constructor refuses it, and
    # no switch skips that check (an unchecked one made orbit walks endless)
    F2 = make_field(2, 1)
    singular = Matrix(F2, [(1, 1), (0, 0)])
    with pytest.raises(ValueError):
        CyclicMatrixGroup(singular, 3)
    with pytest.raises(TypeError):
        CyclicMatrixGroup(singular, 3, verify=False)
    with pytest.raises(ShapeError):  # a ValueError, so the CLI exits 2
        CyclicMatrixGroup(Matrix(F2, [(0, 1, 0), (0, 0, 1)]), 3)
    # subgroups and conjugates take their order from a checked group
    calls = []
    order = singer.matrix_order
    monkeypatch.setattr(singer, "matrix_order",
                        lambda *a, **k: calls.append(1) or order(*a, **k))
    H = ctx_q2k2s2.group.subgroup_of_order(5)
    B = random_invertible(random.Random(5), F2, 4)
    _, C = conjugate_spread(ctx_q2k2s2, B)
    assert calls == []
    assert (matrix_order(H.generator, 15), H.order) == (5, 5)
    assert (matrix_order(C.generator, order_hint=15), C.order) == (15, 15)
