"""Companion matrices, field reduction, and Singer cyclic groups.

Let E = GF(q^k) be built over B = GF(q) with modulus p(x) and companion
matrix M.  Writing elements of E in the power basis, a |-> sum a_i M^i is a
ring isomorphism onto B[M] (phi).  Replacing every entry of a
vector or matrix over E by its k x k image yields

  * field_reduction:  subspaces of E^s  ->  subspaces of B^(ks),
    multiplying dimensions and subspace distances by k, and
  * psi:  GL(s, E) -> GL(ks, B),  a group embedding
    compatible with the right action on row spaces.

The companion matrix of a degree-n extension of B generates a Singer cyclic
subgroup of GL(n, B) of order q^n - 1, transitive on lines and hyperplanes
with scalar one-space stabilizers of order q - 1.
"""

from .errors import NotADivisorError, NotExtendingError
from .fields import FiniteField, extend_field
from .matrices import Matrix, matrix_order
from .subspaces import Subspace, SubspaceCode, group_orbit


def companion_matrix(lower, field: FiniteField) -> Matrix:
    """Companion of the monic polynomial x^k + sum lower[i] x^i over field.

    lower holds element codes.  Ones on the superdiagonal, negated lower
    coefficients in the last row.
    """
    k = len(lower)
    if k < 1:
        raise ValueError("companion matrix needs degree >= 1")
    neg = field.neg_code
    rows = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        rows[i][i + 1] = 1
    rows[k - 1] = [neg(c) for c in lower]
    return Matrix(field, rows, k)


def phi(E: FiniteField, code: int) -> Matrix:
    """The k x k matrix over E.base representing code under E's power basis.

    Row i holds the digits of x^i * code: x^i has code b^i over a base of
    order b, and right multiplication by the companion matrix M is
    multiplication by x, so this is sum_i code_i M^i.
    """
    if E.base is None:
        raise NotExtendingError("need an extension field, got a prime field")
    b, k = E.base.order, E.degree
    return Matrix._trusted(
        E.base, tuple(E.decode(E.mul_codes(b ** i, code)) for i in range(k)), k)


def _expanded_rows(E: FiniteField, rows):
    """Code rows over E -> blockwise-expanded code rows over E.base."""
    k = E.degree
    out = []
    for row in rows:
        blocks = [phi(E, c).rows for c in row]
        for i in range(k):
            new = []
            for blk in blocks:
                new.extend(blk[i])
            out.append(new)
    return out


def field_reduction(U: Subspace) -> Subspace:
    """Subspace of E^s -> subspace of B^(ks); dimension scales by k."""
    E = U.field
    if E.base is None:
        raise NotExtendingError("field reduction needs an extension field")
    k = E.degree
    out = Subspace(E.base, k * U.n, _expanded_rows(E, U.rows))
    if out.dim != k * U.dim:
        raise AssertionError("field reduction must be injective")
    return out


def psi(A: Matrix) -> Matrix:
    """GL(s, E) -> GL(ks, B), entrywise expansion into k x k blocks."""
    E = A.field
    if E.base is None:
        raise NotExtendingError("field reduction needs an extension field")
    return Matrix(E.base, _expanded_rows(E, A.rows), E.degree * A.ncols)


class CyclicMatrixGroup:
    """The cyclic group generated by one invertible matrix of known order.

    The constructor checks the declared order, which also refuses a
    singular generator: no power of it is the identity.  Its generator is
    a copy of the given matrix that keeps the squares g^(2^i), i <
    order.bit_length(), so the order check, the seed checks of the
    constructions and subgroup_of_order read every power g^d, d <= order,
    from one set of squarings.  Subgroups and conjugates (_trusted) keep
    none.
    """

    __slots__ = ("field", "degree", "generator", "order")

    def __init__(self, generator: Matrix, order: int):
        generator = generator._with_squares(order.bit_length())
        if matrix_order(generator, order_hint=order) != order:
            raise ValueError(f"generator order differs from declared {order}")
        self.field = generator.field
        self.degree = generator.nrows
        self.generator = generator
        self.order = order

    @classmethod
    def _trusted(cls, generator: Matrix, order: int) -> "CyclicMatrixGroup":
        """Wrap a generator whose order follows from a checked group."""
        self = cls.__new__(cls)
        self.field = generator.field
        self.degree = generator.nrows
        self.generator = generator
        self.order = order
        return self

    def subgroup_of_order(self, t: int) -> "CyclicMatrixGroup":
        """The unique subgroup of order t of a cyclic group, generated by
        g^(N/t), which a checked group reads from its generator's squares."""
        if t < 1 or self.order % t:
            raise NotADivisorError(f"{t} does not divide group order {self.order}")
        # g of order N makes g^(N/t) of order t
        return CyclicMatrixGroup._trusted(self.generator ** (self.order // t), t)

    def __repr__(self):
        return (f"CyclicMatrixGroup(order {self.order} in "
                f"GL({self.degree}, GF({self.field.order})))")


def singer_group(field: FiniteField, n: int) -> CyclicMatrixGroup:
    """A Singer cyclic subgroup of GL(n, field) of order q^n - 1.

    Generated by the companion matrix of the pinned degree-n modulus.  It
    states Singer's theorem, which the paper's orbits rest on: GL(n, q)
    has a cyclic subgroup of order q^n - 1, regular on the nonzero vectors
    and so transitive on the points and on the hyperplanes of GF(q)^n.
    """
    if n < 1:
        raise ValueError("Singer group needs n >= 1")
    E = extend_field(field, n)
    gen = companion_matrix(E.modulus, field)
    return CyclicMatrixGroup(gen, field.order ** n - 1)


def orbit_subspace(group: CyclicMatrixGroup, U: Subspace):
    """(orbit SubspaceCode, stabilizer order) under repeated generator action.

    The code carries no generator: a subspace code at its maximum distance
    is decided by its cover scan (see SubspaceCode)."""
    members, stab = group_orbit(group, U)
    return SubspaceCode(members), stab
