"""Subspaces of GF(q)^n and constant-dimension subspace codes.

A subspace is identified with the reduced row echelon form of any generator
matrix, so equality, hashing and membership are exact.  The subspace metric
is d(U, V) = dim(U + V) - dim(U \\cap V) = 2 rank(stacked bases) - dim U -
dim V.  A code's distance is one cover scan at the maximum, else a scan of
every pair; only a flag code carries a generator (see flags.scan_pairs).
"""

import operator
from itertools import combinations

from .errors import (AmbientMismatchError, BadDimensionsError,
                     MixedFieldsError, ShapeError, SingularMatrixError)
from .fields import FiniteField
from .matrices import (Matrix, act_code_rows, kernel_code_rows, lane_width,
                       packed_rows, rank_code_rows, rref_code_rows)


def max_distance_bound(n: int, k: int) -> int:
    """Largest possible distance between two k-dim subspaces of GF(q)^n."""
    if not 1 <= k <= n - 1:
        raise BadDimensionsError("need 1 <= k <= n-1, got k=%d, n=%d" % (k, n))
    return 2 * min(k, n - k)


def partial_spread_size_bound(n: int, k: int, q: int) -> int:
    """Upper bound (q^n - q^r) / (q^k - 1), r = n mod k, on partial spread size."""
    if not 1 <= k <= n - 1:
        raise BadDimensionsError("need 1 <= k <= n-1, got k=%d, n=%d" % (k, n))
    r = n % k
    return (q ** n - q ** r) // (q ** k - 1)


class Subspace:
    """A subspace of GF(q)^n, stored by its canonical RREF rows (code tuples)."""

    __slots__ = ("field", "n", "dim", "rows")

    def __init__(self, field: FiniteField, n: int, rows):
        """rows: generator vectors of element codes; dependent rows are fine."""
        if n < 1:
            raise BadDimensionsError("ambient dimension must be positive")
        reduced = rref_code_rows(field, Matrix(field, rows, n).rows)[0]
        self.field = field
        self.n = n
        self.dim = len(reduced)
        self.rows = reduced

    @classmethod
    def _from_rref(cls, field: FiniteField, n: int, rref_rows: tuple) -> "Subspace":
        """Trusted constructor: rows already reduced, nonzero, echelon."""
        self = cls.__new__(cls)
        self.field = field
        self.n = n
        self.dim = len(rref_rows)
        self.rows = rref_rows
        return self

    @classmethod
    def standard(cls, field: FiniteField, n: int, k: int) -> "Subspace":
        """Span of the first k standard basis vectors."""
        if not 0 <= k <= n:
            raise BadDimensionsError(f"k={k} outside [0, {n}]")
        return cls._from_rref(field, n,
                              tuple(tuple(1 if j == i else 0 for j in range(n))
                                    for i in range(k)))

    def _check_mate(self, other: "Subspace"):
        if self.field is not other.field:
            raise MixedFieldsError("subspaces over different fields")
        if self.n != other.n:
            raise AmbientMismatchError(f"ambient dimensions {self.n} and {other.n}")

    def apply(self, A: Matrix) -> "Subspace":
        """Image under the right action U -> U A; A must be invertible n x n.

        Raises SingularMatrixError when the image loses dimension.
        """
        check_acting_matrix(self.field, self.n, A)
        F, n = self.field, self.n
        key, (dim,), _ = act_code_rows(F, self.rows, A)
        if dim != self.dim:
            raise SingularMatrixError(
                f"a dim {self.dim} subspace maps onto dim {dim}")
        return Subspace._from_rref(
            F, n, tuple(map(tuple, packed_rows(key, n, lane_width(F)))))

    def contains(self, other: "Subspace") -> bool:
        """Whether other lies in this subspace, by reduction, no elimination.

        The canonical rows r_i are 1 at their own pivot p_i and 0 at the
        others, so sum(v[p_i] r_i) is the one combination of them that
        agrees with v at every pivot: v lies in the row space exactly when
        it equals that sum."""
        self._check_mate(other)
        add, mul = self.field.tables()[:2]
        pivots = [(r.index(1), r) for r in self.rows]
        for v in other.rows:
            acc = None  # the sum so far, None before its first term
            for c, r in pivots:
                x = v[c]
                if x:
                    mrow = mul[x]
                    acc = ([mrow[b] for b in r] if acc is None
                           else [add[a][mrow[b]] for a, b in zip(acc, r)])
            if acc is None or tuple(acc) != v:
                return False
        return True

    def dual(self) -> "Subspace":
        """Orthogonal complement under the standard dot product (see dual_code).

        The rows are canonical already, so the kernel basis is read straight
        off them (see matrices.kernel_code_rows) and reduced once; its entries
        are codes of the field, so none is checked again."""
        F, n = self.field, self.n
        basis = kernel_code_rows(F, self.rows, n)
        return Subspace._from_rref(F, n, rref_code_rows(F, basis)[0])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field is other.field and self.n == other.n
                and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.field), self.n, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of GF({self.field.order})^{self.n})"


def check_acting_matrix(field: FiniteField, n: int, A: Matrix):
    """Raise unless A is an n x n matrix over field, fit to act on GF(q)^n."""
    if A.field is not field:
        raise MixedFieldsError(f"matrix over {A.field} acting on a space over {field}")
    if A.nrows != n:
        raise AmbientMismatchError(f"{A.nrows}x{A.ncols} matrix on ambient {n}")
    if A.ncols != n:
        raise ShapeError(f"{A.nrows}x{A.ncols} matrix is not square")


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """dim(U + V) - dim(U meet V), via one rank computation."""
    U._check_mate(V)
    return 2 * rank_code_rows(U.field, U.rows + V.rows)[0] - U.dim - V.dim


class Code:
    """A nonempty set of members of one shape on a common GF(q)^n.

    The members are subspaces (SubspaceCode) or flags (FlagCode), kept
    sorted by `key`, their canonical rows.  Each kind's `_scan()` computes
    the kept min_distance of that code alone, naming its pair distance at
    call time, so a wrapper of that module global sees every pair.  Two
    codes are equal when they are of one kind and hold the same members.
    """

    __slots__ = ("field", "n", "members", "_set", "_min_distance")

    def __init__(self, members, key):
        members = list(members)
        if not members:
            raise BadDimensionsError("a code needs at least one member")
        first = members[0]
        for m in members:
            first._check_mate(m)
        self.field = first.field
        self.n = first.n
        self._set = frozenset(members)
        self.members = tuple(sorted(self._set, key=key))
        self._min_distance = None

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, member):
        return member in self._set

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        return type(self) is type(other) and self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def min_distance(self) -> int:
        """Minimum pairwise distance; 0 for singleton codes.

        A code never changes, so the answer is computed once, by `_scan`,
        and kept; the test suite checks it against a pair scan of its own.
        """
        if self._min_distance is None:
            self._min_distance = self._scan()
        return self._min_distance


class SubspaceCode(Code):
    """A nonempty set of equal-dimensional subspaces of a common GF(q)^n."""

    __slots__ = ("dim",)

    def __init__(self, members):
        super().__init__(members, lambda s: s.rows)
        self.dim = self.members[0].dim
        for m in self.members:
            if m.dim != self.dim:
                raise BadDimensionsError(
                    f"mixed dimensions {m.dim} and {self.dim} in one code")
        if not 0 < self.dim < self.n:
            raise BadDimensionsError(
                f"code members must have 0 < dim < {self.n}, got {self.dim}")

    def _scan(self) -> int:
        """The maximum distance when the cover scan certifies it, else pairs.

        Two or more members reach 2 min(k, n - k) exactly when they form a
        partial spread (2k <= n) or their duals do (2k > n, see dual_code),
        which one _cover_scan decides.  Above _COVER_LIMIT_BITS points, a
        limit no other function reads, the pair scan runs alone.  The
        spread predicates read this answer, kept by min_distance, and never
        scan themselves.
        """
        q = self.field.order
        if len(self) > 1 and (q ** self.n - 1) // (q - 1) <= _COVER_LIMIT_BITS:
            if _cover_scan(self):
                return max_distance_bound(self.n, self.dim)
        return min((subspace_distance(u, v)
                    for u, v in combinations(self.members, 2)), default=0)

    def attains_max_distance(self) -> bool:
        return (len(self.members) > 1
                and self.min_distance() == max_distance_bound(self.n, self.dim))

    def __repr__(self):
        return (f"SubspaceCode({len(self.members)} subspaces of dim {self.dim} "
                f"in GF({self.field.order})^{self.n})")


def orbit_walk(start, g: Matrix) -> list:
    """[start, start g, start g^2, ...] up to the first image back at start.

    Works for subspaces and flags.
    """
    walk = [start]
    cur = start.apply(g)
    while cur != start:
        walk.append(cur)
        cur = cur.apply(g)
    return walk


def group_orbit(group, seed):
    """(orbit members from seed, stabilizer order) under a cyclic group."""
    if seed.field is not group.field:
        raise MixedFieldsError("seed and group over different fields")
    if seed.n != group.degree:
        raise AmbientMismatchError(
            f"seed ambient {seed.n}, group degree {group.degree}")
    members = orbit_walk(seed, group.generator)
    if group.order % len(members):
        raise AssertionError("orbit length does not divide the group order")
    return members, group.order // len(members)


def member_vectors(sub: Subspace) -> list:
    """All nonzero vectors of a subspace, as code tuples."""
    F = sub.field
    n = sub.n
    combos = [(0,) * n]
    add, mul = F.tables()[:2]
    for row in sub.rows:
        scaled = [tuple(mul[c][x] for x in row) for c in range(F.order)]
        combos = [tuple(add[a][b] for a, b in zip(base, s))
                  for s in scaled for base in combos]
    return combos[1:]  # ordering keeps the zero vector first


def member_points(F: FiniteField, n: int, rows: tuple) -> list:
    """The projective points of the row space of canonical rows in GF(q)^n,
    as ranks in [0, (q^n - 1)/(q - 1)).

    A point is written as its vector with leading entry 1.  For canonical
    rows r_1, ..., r_k those are the vectors r_i + span(r_(i+1), ..., r_k),
    (q^k - 1)/(q - 1) in all, with no normalizing.  A point with its leading
    1 in column j and digits v after it has rank (q^(n-1-j) - 1)/(q - 1) + v
    read in base q, so the ranks of GF(q)^n's points fill the range once.
    """
    q = F.order
    add, mul = F.tables()[:2]
    weights = [q ** (n - 1 - c) for c in range(n)]
    points = []
    span = [(0,) * n]  # span(r_(i+1), ..., r_k)
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        w = weights[row.index(1)]
        offset = (w - 1) // (q - 1) - w  # the leading 1 counts w in the value
        lifted = [tuple([add[a][b] for a, b in zip(row, v)]) for v in span]
        points += [offset + sum(map(operator.mul, v, weights)) for v in lifted]
        if i:
            span += lifted + [tuple([add[a][mrow[b]] for a, b in zip(v, row)])
                              for mrow in map(mul.__getitem__, range(2, q))
                              for v in span]
    return points


def _dual_rows(F: FiniteField, n: int, rows: tuple) -> tuple:
    """The canonical rows of the dual of the row space of canonical rows,
    in mirrored coordinates (column j read as column n - 1 - j).

    kernel_code_rows gives one row per column f that is no pivot: 1 at f,
    and nonzero elsewhere only at pivots, all left of f, where no other
    kernel row is nonzero.  Mirrored, f is its leading 1, so the kernel
    rows, mirrored and in reverse order, are canonical as they stand.
    Mirroring permutes the points of GF(q)^n, so two duals share a point
    exactly when their mirrored rows do.
    """
    return tuple(v[::-1] for v in reversed(kernel_code_rows(F, rows, n)))


# above a bitmap of this many points SubspaceCode._scan scans pairs alone
_COVER_LIMIT_BITS = 1 << 25


def _cover_scan(code: SubspaceCode) -> bool:
    """Whether no point lies in two members (2k <= n), or in the duals of
    two members (2k > n, the duals' points listed from _dual_rows, with no
    dual Subspace built).

    Two subspaces meet trivially iff they share no point, so the whole
    check is one scan over the members' points (member_points), each marked
    in a bitmap of the (q^n - 1)/(q - 1) points of the ambient space; the
    first point marked twice ends it.  A member has (q^k - 1)/(q - 1)
    points, about the square root of the bitmap's size.
    """
    F, n = code.field, code.n
    q = F.order
    bases = (m.rows for m in code.members)
    if 2 * code.dim > n:
        bases = (_dual_rows(F, n, rows) for rows in bases)
    seen = bytearray(((q ** n - 1) // (q - 1) + 7) >> 3)
    for rows in bases:
        for x in member_points(F, n, rows):
            byte, bit = x >> 3, 1 << (x & 7)
            if seen[byte] & bit:
                return False
            seen[byte] |= bit
    return True


def is_partial_spread(code: SubspaceCode) -> bool:
    """Whether members pairwise intersect trivially.

    Singleton codes pass vacuously, and distinct k-subspaces with 2k > n
    always meet.  Otherwise distinct k-subspaces meet trivially iff their
    distance is 2k, so the verdict reads the code's kept min_distance,
    which one cover scan certifies (SubspaceCode._scan).
    """
    return len(code) == 1 or (2 * code.dim <= code.n
                              and code.min_distance() == 2 * code.dim)


def is_spread(code: SubspaceCode) -> bool:
    """Partial spread that also covers every nonzero vector of the ambient:
    the size identity, then is_partial_spread's reading of min_distance."""
    q = code.field.order
    covered = len(code) * (q ** code.dim - 1)
    if covered != q ** code.n - 1:
        return False
    return is_partial_spread(code)


def dual_code(code: SubspaceCode) -> SubspaceCode:
    """Member-wise orthogonal complement; preserves size and distance.

    d(U^perp, V^perp) = d(U, V), so duality carries a level with
    2 t_i > n to one below n/2: that level reaches its maximum distance
    2 (n - t_i) exactly when its duals form a partial spread.
    """
    return SubspaceCode(m.dual() for m in code.members)
