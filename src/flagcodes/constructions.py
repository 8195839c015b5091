"""Orbital constructions of optimum distance flag codes.

Two families are built here, both as orbits of cyclic matrix groups.

Spread type: with n = k s, the Desarguesian spread S and the hyperplane code
H of GF(q)^n (the field-reduced lines and hyperplanes of GF(q^k)^s) are
single orbits of the embedded Singer group ⟨psi(M_s)⟩ of one seed each.
Set-up certifies each seed's stabilizer order q^k - 1 with a few matrix
powers; an orbit is walked only when it is read.  For k = 1 there is
nothing to reduce: the group is the Singer group of GF(q)^s itself, S
holds every point and H every hyperplane.  The flag
E_1 < ... < E_k < E_(n-k) < ... < E_(n-1) of standard coordinate subspaces
has its two critical levels in S and H; its orbit under the subgroup T of
order t is an optimum distance flag code exactly when
gcd(t, q^k - 1) = gcd(t, q - 1) != t, and unions of such orbits with fresh
critical levels grow the code to size (q^n - 1)/(q^k - 1).  Over a field
of order q <= 16 every flag here past the first few is made in byte lanes,
one elimination per step for a batch of flags (see flags.walk and
flags.translates): an orbit walks as a batch that doubles and ends only at
a divisor of the group order, the chain of the translates' first members
is the same walk with a known count, and the translates step a whole orbit,
or that chain, as one batch (see spread_type_max_odfc).

Full type: with n = 2k + 1 and k >= 2, the group generated by
g = diag(I_k, M) (M the companion matrix of the pinned degree-(k+1)
modulus) has order q^(k+1) - 1.  For a full flag through
U = rowspace(U1 | U2) and V = U + <(v1 | v2)>, the orbit is optimum
distance iff U1 and V2 = (U2 over v2) are invertible, and appending the two
completion flags through (U1 | 0) and (0 | U2) gives q^(k+1) + 1 members,
whatever v1; the union is optimum distance exactly when v1 = 0.  All three
complete with the lowest-index standard vectors, every level a snapshot of
one elimination of their rows and I_n.  The orbit is walked as doubling
byte lanes, as the spread type's are.
"""

from math import gcd
from typing import NamedTuple

from .errors import (AmbientMismatchError, BadDimensionsError,
                     GcdConditionFailedError, NotADivisorError,
                     NotExtendingError, RankDeficientError, TypeMismatchError)
from .fields import FiniteField, divisors, extend_field, order_dividing
from .matrices import (Matrix, block_diag, hstack, lane_width, pack_rows,
                       rref_code_rows, vstack)
from .singer import (CyclicMatrixGroup, companion_matrix, field_reduction,
                     psi, orbit_subspace)
from .subspaces import Subspace, SubspaceCode
from .flags import (Flag, FlagCode, critical_indices, orbit_flag, translates,
                    union_flag_codes, walk)


class SpreadContext:
    """A Desarguesian spread S and hyperplane code H of GF(q)^(ks), the
    orbits of the reductions of <e_1> and <e_1, ..., e_(s-1)> under the
    embedded Singer group.

    Attributes: base_field, k, s, n, extension (GF(q^k)), group, spread,
    hyperplanes (SubspaceCodes, each decided by one cover scan),
    member_stabilizer_order (q^k - 1).  For k = 1 the extension is the base
    field, g is the companion matrix itself and the seeds are not reduced.
    Set-up certifies the two seeds; spread and hyperplanes walk their orbit
    on first read and keep it.

    Certificate: g = psi(M_s) is checked to have order q^n - 1, so GF(q)[g]
    has q^n - 1 units among at most q^n elements: it is a field L = GF(q^n),
    the centralizer of g, and GF(q)^n is a one-dimensional L-space.  The
    elements of L mapping U into itself form a subfield K, and the
    stabilizer of U in <g> is K^*.  Each seed is checked to have orbit
    length exactly m = (q^n - 1)/(q^k - 1): g^m fixes it and no g^(m/l)
    does, for l a prime divisor of m.  So its stabilizer has order q^k - 1,
    which makes the seed, and with it every member of its orbit, a subspace
    over K = GF(q^k), which is psi(E) (its block scalars commute with g).
    An orbit of m such members is the whole K-Grassmannian: all K-lines
    (the Desarguesian spread) for a dim-k seed, all K-hyperplanes for a
    dim-(n-k) seed.  Two K-hyperplanes meet in K-dimension s - 2, so H has
    distance 2k.
    """

    __slots__ = ("base_field", "k", "s", "n", "extension", "group",
                 "member_stabilizer_order", "_seeds", "_orbits")

    def __init__(self, base_field: FiniteField, k: int, s: int):
        if k < 1 or s < 2:
            raise BadDimensionsError(
                f"spread context needs k >= 1 and s >= 2, got k={k}, s={s}")
        q = base_field.order
        n = k * s
        E = extend_field(base_field, k)
        g = companion_matrix(extend_field(E, s).modulus, E)
        line, hyperplane = (Subspace.standard(E, s, d) for d in (1, s - 1))
        if k > 1:  # reduce from GF(q^k)^s; for k = 1, E is the base field
            g = psi(g)
            line, hyperplane = field_reduction(line), field_reduction(hyperplane)
        group = CyclicMatrixGroup(g, q ** n - 1)
        for seed in (line, hyperplane):
            _certify_seed(group, seed, k)

        self.base_field = base_field
        self.k = k
        self.s = s
        self.n = n
        self.extension = E
        self.group = group
        self.member_stabilizer_order = q ** k - 1
        self._seeds = (line, hyperplane)
        self._orbits = [None, None]

    def _orbit(self, i: int) -> SubspaceCode:
        """The orbit of seed i, walked on first use and kept."""
        if self._orbits[i] is None:
            code, _ = orbit_subspace(self.group, self._seeds[i])
            if len(code) != self.group.order // self.member_stabilizer_order:
                raise AssertionError(
                    f"orbit of {len(code)} members contradicts its certificate")
            self._orbits[i] = code
        return self._orbits[i]

    @property
    def spread(self) -> SubspaceCode:
        """S, the orbit of the reduced line <e_1>."""
        return self._orbit(0)

    @property
    def hyperplanes(self) -> SubspaceCode:
        """H, the orbit of the reduced hyperplane <e_1, ..., e_(s-1)>."""
        return self._orbit(1)

    def __repr__(self):
        return (f"SpreadContext(q={self.base_field.order}, k={self.k}, "
                f"s={self.s}, n={self.n})")


def _certify_seed(group: CyclicMatrixGroup, seed: Subspace, k: int):
    """Raise unless the orbit of seed has exactly m = (q^n - 1)/(q^k - 1)
    members, i.e. its stabilizer order is q^k - 1 (see SpreadContext).
    Each power g^d, d dividing m, is read from the squares the checked
    group's generator keeps, popcount(d) - 1 products."""
    q = group.field.order
    m = (q ** group.degree - 1) // (q ** k - 1)
    g = group.generator

    def fixes(d):
        return seed.apply(g ** d) == seed

    uncertified = f"so it is not certified as a member of a GF({q}^{k})-Grassmannian"
    if not fixes(m):
        raise AssertionError(
            f"g^{m} moves the seed: its orbit length does not divide {m}, {uncertified}")
    length = order_dividing(m, fixes)  # the orbit length, as g^m fixes the seed
    if length != m:
        raise AssertionError(
            f"g^{length} fixes the seed: its orbit has {length} members, not {m}, "
            f"{uncertified}")


def build_spread_context(base_field: FiniteField, k: int, s: int) -> SpreadContext:
    return SpreadContext(base_field, k, s)


def conjugate_spread(ctx: SpreadContext, B: Matrix):
    """(S·B, B^(-1) <g> B): the spread's image under B and the conjugate
    Singer group it is an orbit of.

    It states the paper's remark that every Desarguesian spread is an orbit
    of a conjugate Singer group: the Desarguesian spreads of GF(q)^n are
    one GL(n, q) class, so each is S·B for some invertible B, and
    (U g^i) B = (U B)(B^(-1) g B)^i.
    """
    if B.nrows != ctx.n or B.ncols != ctx.n:
        raise AmbientMismatchError(f"conjugating matrix must be {ctx.n}x{ctx.n}")
    B_inv = B.inverse()  # raises SingularMatrixError when not invertible
    # a conjugate has the order of the checked Singer generator
    group = CyclicMatrixGroup._trusted(B_inv @ ctx.group.generator @ B, ctx.group.order)
    code = SubspaceCode(m.apply(B) for m in ctx.spread.members)
    return code, group


def admissible_flag_dims(ctx: SpreadContext) -> tuple:
    """Type vector (1, ..., k, n-k, ..., n-1): all proper dims reachable by
    nesting inside a spread member below and a hyperplane-code member above."""
    dims = list(range(1, ctx.k + 1))
    dims += [d for d in range(ctx.n - ctx.k, ctx.n) if d > ctx.k]
    return tuple(dims)


def canonical_admissible_flag(ctx: SpreadContext) -> Flag:
    """Standard coordinate flag with level k in S and level n-k in H."""
    dims = admissible_flag_dims(ctx)
    subs = [Subspace.standard(ctx.base_field, ctx.n, d) for d in dims]
    # each orbit holds its seed, so this is membership in S and H
    if tuple(subs[i - 1] for i in critical_indices(ctx.n, dims)) != ctx._seeds:
        raise AssertionError("canonical flag misses the spread or hyperplane code")
    return Flag(subs)


def _check_subgroup_order(ctx: SpreadContext, t: int):
    """Divisor plus gcd admissibility; gcd(t, q-1) = t (singleton orbits)
    stays legal, only a mismatch of the two gcds is rejected."""
    q = ctx.base_field.order
    N = q ** ctx.n - 1
    if t < 1 or N % t:
        raise NotADivisorError(f"t={t} does not divide q^n - 1 = {N}")
    if gcd(t, q ** ctx.k - 1) != gcd(t, q - 1):
        raise GcdConditionFailedError(
            f"t={t} needs gcd(t, q^k - 1) = gcd(t, q - 1), got "
            f"gcd(t, {q ** ctx.k - 1}) = {gcd(t, q ** ctx.k - 1)} but "
            f"gcd(t, {q - 1}) = {gcd(t, q - 1)}")


def spread_type_orbit_odfc(ctx: SpreadContext, t: int) -> FlagCode:
    """Orbit of the canonical flag under the subgroup of order t.

    t must divide q^n - 1 with gcd(t, q^k - 1) = gcd(t, q - 1); the orbit
    has size t / gcd(t, q - 1) and is an optimum distance code exactly when
    that gcd differs from t (otherwise it is a singleton).
    """
    _check_subgroup_order(ctx, t)
    T = ctx.group.subgroup_of_order(t)
    code, _ = orbit_flag(T, canonical_admissible_flag(ctx))
    if len(code) != t // gcd(t, ctx.base_field.order - 1):
        raise AssertionError("orbit size differs from t / gcd(t, q - 1)")
    return code


def spread_type_max_odfc(ctx: SpreadContext, t: int) -> FlagCode:
    """Union of orbits under the order-t subgroup T reaching size
    M = (q^n - 1)/(q^k - 1), the largest any optimum distance code of this
    type built from t-orbits can have: the m = M / |O_0| orbits O_j of
    F g^j, j < m, with O_0 the T-orbit of the canonical flag F and g the
    Singer generator.  M is read from the context, the group order over
    the member stabilizer order, and |O_0| from the built orbit.

    O_0 comes from spread_type_orbit_odfc, walked as doubling byte lanes
    (see flags.walk) with its meet and size checks.  The rest steps as one
    batch of byte lanes (see flags.translates), and the batch is the larger
    side.  When m > |O_0|, the chain F' g^j, j < m, from the first member
    F' of O_0, is the same walk, with m as its only end, and is then
    stepped |O_0| - 1 times by T's generator h; otherwise O_0 is stepped
    m - 1 times by g.  As g and h
    commute, lane j after i steps is F' g^j h^i = (F' h^i) g^j, member i
    of O_j, so both give the union of the O_j.  The levels at each
    critical index are checked distinct over the whole union, so a repeat
    inside one orbit is caught too, and the size of the union is checked.
    The code carries g when m > |O_0| and h, O_0's generator, otherwise,
    whichever leaves min_distance fewer representatives: |O_0| g-chains or
    m T-orbits.

    Why F g^j: g has period M on the spread S, as g^M lies in the
    scalars GF(q^k)^* that fix every member, and <g> is transitive on S,
    so level k of F g^i is class i of Z_M.  T = <g^(N/t)>, N = q^n - 1,
    so the level-k classes of the T-orbit of F g^j are the coset
    j + (N/t) Z_M.  That subgroup of Z_M has |O_0| = t / gcd(t, q - 1)
    elements (the level-k stabilizer in T has order
    gcd(t, q^k - 1) = gcd(t, q - 1), the flag's), so index m: it is m Z_M,
    and j < m gives m disjoint cosets covering Z_M.  The hyperplane code H
    has the same period M and the same argument.  So F g^j, j < m, are
    exactly the first powers of g whose critical levels are both unseen.
    As g commutes with T, the T-orbit of F g^j is O_0 g^j.
    """
    orbit = spread_type_orbit_odfc(ctx, t)
    size = ctx.group.order // ctx.member_stabilizer_order
    m = size // len(orbit)
    g, h = ctx.group.generator, orbit.generator
    if m > len(orbit):
        chain = walk(orbit.members[0], g, m)
        members = chain + translates(chain, h, len(orbit) - 1)
    else:
        members = [*orbit.members, *translates(orbit.members, g, m - 1)]
    _check_critical_levels(members)
    out = FlagCode(members, generator=g if m > len(orbit) else h)
    if len(out) != size:
        raise AssertionError("union missed the maximum size")
    return out


def _check_critical_levels(members):
    """Raise unless the flags' levels at each critical index are all
    distinct, so no two of them share a spread or hyperplane level."""
    n, dims = members[0].n, members[0].dims
    for i in dict.fromkeys(critical_indices(n, dims)):
        span = members[0]._level_slice(i - 1)
        if len({f.key[span] for f in members}) != len(members):
            raise AssertionError(f"two members share their level of dimension {dims[i - 1]}")


class TableRow(NamedTuple):
    t: int
    orbit_size: int
    num_orbits: int
    is_odfc: bool


def table_row(ctx: SpreadContext, t: int) -> TableRow:
    """One row of the spread-type summary: the orbit of
    spread_type_orbit_odfc (size t / gcd(t, q - 1), checked there), the
    orbit count m = M / |orbit| of spread_type_max_odfc, and is_odfc when
    the orbit has more than one member, i.e. gcd(t, q - 1) != t."""
    code = spread_type_orbit_odfc(ctx, t)
    size = ctx.group.order // ctx.member_stabilizer_order
    return TableRow(t, len(code), size // len(code), len(code) > 1)


def admissible_subgroup_orders(ctx: SpreadContext) -> list:
    """Divisors t of q^n - 1 with gcd(t, q^k - 1) = gcd(t, q - 1); the
    ones with gcd != t yield optimum distance orbits."""
    q = ctx.base_field.order
    return [t for t in divisors(q ** ctx.n - 1)
            if gcd(t, q ** ctx.k - 1) == gcd(t, q - 1)]


class FullTypeContext:
    """The cyclic group ⟨diag(I_k, M)⟩ of order q^(k+1) - 1 on GF(q)^(2k+1).

    M is the companion matrix of the pinned degree-(k+1) modulus.  k >= 2;
    the excluded k = 1 plane case is the spread-type construction with s = 3.
    """

    def __init__(self, base_field: FiniteField, k: int):
        if k < 2:
            raise BadDimensionsError(
                "full-type context needs k >= 2 (for n = 3 use the spread "
                "type with k = 1, s = 3)")
        q = base_field.order
        E = extend_field(base_field, k + 1)
        M = companion_matrix(E.modulus, base_field)
        g = block_diag(Matrix.identity(base_field, k), M)
        self.base_field = base_field
        self.k = k
        self.n = 2 * k + 1
        self.group = CyclicMatrixGroup(g, q ** (k + 1) - 1)

    def __repr__(self):
        return f"FullTypeContext(q={self.base_field.order}, k={self.k})"


def build_full_type_context(base_field: FiniteField, k: int) -> FullTypeContext:
    return FullTypeContext(base_field, k)


def _blocks(ctx: FullTypeContext, U1, U2, v1, v2) -> tuple:
    """(U1, U2, v1, v2) checked for shape and field, None replaced by the
    defaults U1 = I_k, U2 = the last k rows of I_(k+1), v1 = 0, v2 = e_1."""
    F, k = ctx.base_field, ctx.k
    out = []
    for M, nrows, ncols, name, default in [
            (U1, k, k, "U1", Matrix.identity(F, k)),
            (U2, k, k + 1, "U2", Matrix.identity(F, k + 1).take_rows(1, k + 1)),
            (v1, 1, k, "v1", Matrix.zero(F, 1, k)),
            (v2, 1, k + 1, "v2", Matrix(F, [[1] + [0] * k]))]:
        if M is None:
            M = default
        elif not isinstance(M, Matrix):
            M = Matrix(F, M)
        if M.field is not F or (M.nrows, M.ncols) != (nrows, ncols):
            raise BadDimensionsError(f"{name} must be {nrows}x{ncols} over GF({F.order})")
        out.append(M)
    return tuple(out)


def full_type_generator_flag(ctx: FullTypeContext, U1=None, U2=None,
                             v1=None, v2=None) -> Flag:
    """Full flag through U = rowspace(U1 | U2) and V = U + <(v1 | v2)>.

    Levels below k are the spans of the leading rows of (U1 | U2); levels
    above k + 1 complete with the lowest-index standard vectors.  Defaults:
    U1 = I_k, U2 = the last k rows of I_(k+1), v1 = 0, v2 = e_1.  U1 and U2
    need rank k; the appended row must leave the row space of (U1 | U2).
    """
    U1, U2, v1, v2 = _blocks(ctx, U1, U2, v1, v2)
    if U1.rank() != ctx.k:
        raise RankDeficientError("U1 must have rank k")
    if U2.rank() != ctx.k:
        raise RankDeficientError("U2 must have rank k")
    return _completion_flag(ctx, hstack(U1, U2), hstack(v1, v2))


def full_type_orbit_odfc(ctx: FullTypeContext, flag: Flag) -> FlagCode:
    """Orbit of a full flag under the context group.

    Optimum distance exactly when the k-level's left block and the
    (k+1)-level's right block have full rank (checked by the test suite,
    not gated here, so the degenerate branches stay reachable)."""
    if flag.dims != tuple(range(1, ctx.n)):
        raise TypeMismatchError(f"need a full flag on GF(q)^{ctx.n}, got {flag.dims}")
    if flag.n != ctx.n or flag.field is not ctx.base_field:
        raise AmbientMismatchError("flag does not live on the context space")
    code, _ = orbit_flag(ctx.group, flag)
    return code


def _completion_flag(ctx, U, v_row):
    """Full flag through the leading rows of U (of rank k), then U + <v_row>,
    then upward each level the one below plus the lowest-index standard
    vector outside it.

    Level d is a snapshot of rank d of one elimination of U, v_row and I_n:
    snapshots of prefixes of one row list nest, so those of one rank are
    one subspace.
    """
    F, n, k = ctx.base_field, ctx.n, U.nrows
    rows = U.rows + v_row.rows + Matrix.identity(F, n).rows
    snapshots = rref_code_rows(F, rows, range(1, len(rows) + 1))
    if [len(snap) for snap in snapshots[:k + 1]] != list(range(1, k + 2)):
        raise NotExtendingError("(v1 | v2) lies in the row space of (U1 | U2)")
    by_rank = {len(snap): snap for snap in snapshots}
    dims = tuple(range(1, n))
    return Flag._trusted(F, n, pack_rows([r for d in dims for r in by_rank[d]],
                                         lane_width(F)), dims)


def _max_code_with_hook(ctx: FullTypeContext, U1, U2, v1, v2) -> FlagCode:
    """Orbit plus the two one-sided completions; v1 is a test hook, nonzero
    values break optimality while keeping the size."""
    F = ctx.base_field
    k = ctx.k
    flag = full_type_generator_flag(ctx, U1, U2, v1, v2)  # U1 and U2 of rank k
    if vstack(U2, v2).rank() != k + 1:
        raise NotExtendingError("v2 lies in the row space of U2, so "
                                "V2 = (U2 over v2) is singular")
    orbit = full_type_orbit_odfc(ctx, flag)
    zero_right = Matrix.zero(F, k, k + 1)
    zero_left = Matrix.zero(F, k, k)
    v_row = hstack(v1, v2)
    primed = _completion_flag(ctx, hstack(U1, zero_right), v_row)
    doubled = _completion_flag(ctx, hstack(zero_left, U2), v_row)
    extra = FlagCode([primed, doubled])
    out = union_flag_codes([orbit, extra], require_additive=True)
    if len(out) != F.order ** (k + 1) + 1:
        raise AssertionError("maximum-size union has the wrong cardinality")
    return out


def full_type_max_odfc(ctx: FullTypeContext, U1=None, U2=None, v2=None) -> FlagCode:
    """Optimum distance full-type code of the largest orbit-reachable size
    q^(k+1) + 1: the generator flag's orbit together with its completions
    through (U1 | 0) and (0 | U2)."""
    return _max_code_with_hook(ctx, *_blocks(ctx, U1, U2, None, v2))
