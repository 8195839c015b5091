"""Flags (nested subspace chains) on GF(q)^n and flag codes.

A flag of type (t_1 < ... < t_r) is a strictly nested chain of subspaces
with those dimensions; the flag distance is the sum of the subspace
distances taken level by level.  A flag code is optimum distance when its
minimum distance attains the type's upper bound

    2 (sum of t_i with 2 t_i <= n  +  sum of (n - t_i) with 2 t_i > n).

Whether a code attains that bound is decided by its projections at the two
critical levels a = max{i : 2 t_i <= n} and b = min{i : 2 t_i >= n}: the
code is optimum distance iff both projected codes carry the full cardinality
and attain the maximum subspace distance of their dimension.  Both routes
are implemented as independent computations: the definition by the flag
pair scan, the characterization by each critical projection's own
min_distance, which a cover scan decides at the maximum (see
SubspaceCode).  The tests keep them in agreement.

A Flag is one bytes string, its key: the canonical RREF rows of its
levels, level after level, each code in w big-endian bytes, as
matrices.pack_rows writes them (w = matrices.lane_width, 1 up to order
256).  Equality, hashing, the FlagCode sort order (within one type, the
order of the levels' rows), the writer, orbit_flag's meet check and a
construction's seen sets read the key.  `levels`, the rows as tuples, and
`subspaces`, the levels as Subspace objects, are views built on read, and
projected_code unpacks each member's key once.

Beside its key a flag keeps a record of its adapted basis: the indices of
the rows whose pivots are new at their level, so the first t_i rows it
names span level i.  An apply's packed reduction writes the image's key
and names those rows itself (see matrices.act_code_rows), as an orbit
walk's lane step does, so a walk makes no row tuple and scans no row.  A
flag made by Flag(...), parsed, unpickled or applied over a field without
packed rows finds its adapted rows by one scan of its key on first read
and keeps them, so a parsed code's pair scan slices each member's rows
once, not once a pair; a translate keeps only the indices it finds.

translates steps a batch of flags by one matrix together, over a field of
order q <= 16: entry (i, c) of every member's adapted rows is one int of
one byte per flag, flag b in byte b, so one product and one elimination per
step serve the whole batch (see matrices.act_lanes).  The keys of a step
come out as extended slices of its snapshot rows, one per flag.  Over a
larger field translates maps Flag.apply.

walk lists an orbit under a cyclic group, or a chain of a known count, as
such a batch that doubles: the J flags found so far step once by g^J to
the next J, the two batches' lanes join as x | y << 8J, and g^2J is the
square of g^J, so L flags take about log2(L) eliminations, not L applies.
An orbit's length L divides the group order N, as g^N = I, and a flag is
back at the start exactly at the multiples of L, so the walk looks for its
end only at the divisors of N, trimming a step to end at one; a return
anywhere else means g^N != I and fails.  Batches and steps narrower than
_LANE_HEAD flags, which a step costs more than, walk flag by flag.

A pair of flags costs one elimination, and a distance is a rank, so it is
the forward-only rank_code_rows, not the canonical rref_code_rows:
level_distances feeds both adapted bases in level by level, over one-byte
codes slices of the keys, and reads every level's distance from the rank
after it.  An orbit code carries its group generator, and so does a union
with it first; it is refused unless invertible, and min_distance applies
it once to each member before it skips any pair (see scan_pairs).  A code
with no generator scans every pair, and a projection carries none: a level
at its maximum is decided by its cover scan.
"""

from bisect import bisect_left
from itertools import combinations, compress, islice, takewhile
from math import gcd

from .errors import (AmbientMismatchError, BadDimensionsError,
                     MixedFieldsError, NotNestedError, SingularMatrixError,
                     TypeMismatchError, AdditivityViolatedError)
from .matrices import (Matrix, act_code_rows, act_lanes, lane_width, pack_rows,
                       packed_rows, rank_code_rows)
from .fields import divisors
from .subspaces import (Code, Subspace, SubspaceCode, check_acting_matrix,
                        max_distance_bound)


class Flag:
    """A strictly nested chain of proper nonzero subspaces.

    `key` packs each level's canonical RREF rows, level by level; it is
    all that equality, hashing, sorting and writing read.  `levels` and
    `subspaces` are views of it built on read.
    """

    # _adapted: the adapted basis record: the tuple of its rows' indices in
    # key that the kernel making the flag named (an apply or a walk's lane
    # step), or, for a translate, () until its first read finds them; else
    # None until the first read, then the list of the rows it found;
    # _subspaces: the view, once read
    __slots__ = ("field", "n", "dims", "key", "_adapted", "_subspaces")

    def __init__(self, subspaces):
        subspaces = tuple(subspaces)
        if not subspaces:
            raise BadDimensionsError("a flag needs at least one subspace")
        first = subspaces[0]
        for s in subspaces:
            first._check_mate(s)
            if not 0 < s.dim < s.n:
                raise BadDimensionsError(
                    f"flag subspaces must be proper and nonzero, got dim {s.dim}")
        for lo, hi in zip(subspaces, subspaces[1:]):
            if not (lo.dim < hi.dim and hi.contains(lo)):
                raise NotNestedError(
                    f"chain breaks between dims {lo.dim} and {hi.dim}")
        F = first.field
        self._init(F, first.n, pack_rows([r for s in subspaces for r in s.rows],
                                         lane_width(F)),
                   tuple(s.dim for s in subspaces), None)

    def _init(self, field, n, key, dims, adapted):
        self.field = field
        self.n = n
        self.key = key
        self.dims = dims
        self._adapted = adapted
        self._subspaces = None

    @classmethod
    def _trusted(cls, field, n, key, dims, adapted=None) -> "Flag":
        """Wrap kernel output: key packs the canonical RREF rows of a chain,
        and adapted names its adapted basis rows, or is None."""
        self = cls.__new__(cls)
        self._init(field, n, key, dims, adapted)
        return self

    def _level_slice(self, i: int) -> slice:
        """Where level i, counted from 0, lies in the key."""
        step = self.n * lane_width(self.field)
        start = sum(self.dims[:i]) * step
        return slice(start, start + self.dims[i] * step)

    def _levels(self, shared: dict) -> tuple:
        """Each level's canonical rows as tuples of codes; shared maps a
        packed row to its tuple, and a row not in it is added."""
        rows = iter([shared.get(r) or shared.setdefault(r, tuple(r))
                     for r in packed_rows(self.key, self.n, lane_width(self.field))])
        return tuple(tuple(islice(rows, t)) for t in self.dims)

    @property
    def levels(self) -> tuple:
        """Each level's canonical rows, as tuples of codes, built on read."""
        return self._levels({})

    @property
    def subspaces(self) -> tuple:
        """The levels as Subspace objects, built on first read."""
        if self._subspaces is None:
            F, n = self.field, self.n
            self._subspaces = tuple(Subspace._from_rref(F, n, rows)
                                    for rows in self.levels)
        return self._subspaces

    def _check_mate(self, other: "Flag"):
        if self.field is not other.field:
            raise MixedFieldsError("flags over different fields")
        if self.n != other.n:
            raise AmbientMismatchError(f"ambient dimensions {self.n} and {other.n}")
        if self.dims != other.dims:
            raise TypeMismatchError(f"flag types {self.dims} and {other.dims}")

    def apply(self, A: Matrix) -> "Flag":
        """Right action by an invertible matrix.

        One act_code_rows step on an adapted basis of the top level, whose
        first t_i rows span level i: the product by A, then one elimination
        pass that snapshots the canonical basis of every level, packed into
        the image's key.  Over GF(2^e), e <= 8, and GF(p), p <= 127, the
        products stay packed, read from the table of scaled rows that A
        keeps, so a walk by one generator fills it once, and the reduction
        names the image's adapted basis rows as it writes them.
        Raises SingularMatrixError when a level loses dimension; a level
        that loses dimension takes the top level with it, so the top level
        alone tells.
        """
        F, n, dims = self.field, self.n, self.dims
        check_acting_matrix(F, n, A)
        key, ranks, adapted = act_code_rows(F, self._adapted_rows(), A, dims)
        if ranks[-1] != dims[-1]:
            raise SingularMatrixError(
                f"flag of type {dims} maps onto dims {tuple(ranks)}")
        return Flag._trusted(F, n, key, dims, adapted)

    def _adapted_rows(self) -> list:
        """Basis rows of the top level whose first t_i rows span level i:
        the key's rows the record names, slices of it over one-byte codes.

        Nested subspaces have nested pivot sets, so the rows of each level
        whose pivots are new at that level extend the rows below.  A flag
        no kernel named them for finds them by one scan on first read, a
        canonical row's first byte 1 lying in its leading code, the code 1.
        A flag made by Flag(...), parsed or unpickled keeps the rows it
        found as its record, so a pair scan slices them once; a translate
        keeps only their indices, the tuple an apply names.
        """
        key, n, record = self.key, self.n, self._adapted
        if type(record) is list:
            return record
        step = len(key) // sum(self.dims)  # n codes of w bytes
        keep = record is None
        if not record:  # None, or () from a lane step
            found, pivots = [], set()
            for i in range(0, len(key), step):
                lead = key.index(1, i, i + step) - i
                if lead not in pivots:
                    pivots.add(lead)
                    found.append(i // step)
            record = tuple(found)
            if not keep:
                self._adapted = record
        rows = [key[i * step:i * step + step] for i in record]
        if step != n:
            rows = [packed_rows(row, n, step // n)[0] for row in rows]
        if keep:
            self._adapted = rows
        return rows

    def __eq__(self, other):
        if not isinstance(other, Flag):
            return NotImplemented
        return (self.key == other.key and self.field is other.field
                and self.n == other.n and self.dims == other.dims)

    def __hash__(self):
        return hash(self.key)  # a bytes object keeps its hash

    def __reduce__(self):
        return Flag._trusted, (self.field, self.n, self.key, self.dims)

    def __repr__(self):
        return f"Flag(type {self.dims} on GF({self.field.order})^{self.n})"


# A lane step costs as much as 5-9 applies at width 1, plus a twentieth to
# a tenth of one a lane, and a walk's first step also computes g^J, about
# five matrix products, so narrower batches and steps walk flag by flag.
# At 20 the dearest case, a 41-flag orbit over GF(3)^8 of 7 levels, breaks
# even with the per-flag walk, and orbits of 73 over GF(2)^9 and GF(4)^9
# walk about 10% faster (Python 3.11 on a shared Xeon VM, best of 15
# interleaved runs).
_LANE_HEAD = 20


def _lanes(flags) -> list:
    """The adapted rows of flags in lane form: entry (i, c) is one int whose
    byte b, read little-endian, is entry (i, c) of flag b's rows, each
    flag's rows joined and read by extended slices."""
    n, stride = flags[0].n, flags[0].n * flags[0].dims[-1]
    rows = b"".join([row for f in flags for row in f._adapted_rows()])
    return [[int.from_bytes(rows[o + c::stride], "little") for c in range(n)]
            for o in range(0, stride, n)]


def _lane_step(like: Flag, rows, A: Matrix, width: int, named: bool = False) -> tuple:
    """(flags, rows): the images under A of the width flags of type like
    whose adapted rows are rows in lane form, each key one extended slice of
    the step's snapshot rows, and their adapted rows in lane form.  A named
    image keeps the tuple of its adapted rows' indices, as an apply's does,
    read from the step's marks by one extended slice; any other names none
    until its first read scans its key."""
    F, n, dims = like.field, like.n, like.dims
    snaps, rows, fresh = act_lanes(F, rows, A, dims, width, named)
    if not named:
        return [Flag._trusted(F, n, snaps[b::width], dims, ()) for b in range(width)], rows
    index = range(len(fresh) // width)
    return [Flag._trusted(F, n, snaps[b::width], dims,
                          tuple(compress(index, fresh[b::width])))
            for b in range(width)], rows


def translates(flags, A: Matrix, steps: int) -> list:
    """The flags f A^i of each f in flags, for i = 1, ..., steps, step by
    step: all of flags A, then all of flags A^2, and so on.

    Over a field of order q <= 16 the flags step together, one lane each
    (see matrices.act_lanes): their adapted rows go into lanes once, each
    step's adapted rows feed the next in lane form, and the keys of a step
    come out of its snapshot rows by one extended slice each.  A flag made
    so names no adapted rows until its first read scans its key.  Over a
    larger field each step maps Flag.apply.  Raises SingularMatrixError
    when a flag loses dimension.
    """
    flags = list(flags)
    first = flags[0]
    for f in flags:
        first._check_mate(f)
    check_acting_matrix(first.field, first.n, A)
    out = []
    if first.field.order > 16 or not steps:  # step by step, flag by flag
        for _ in range(steps):
            flags = [f.apply(A) for f in flags]
            out += flags
        return out
    rows = _lanes(flags)
    for _ in range(steps):
        flags, rows = _lane_step(first, rows, A, len(flags))
        out += flags
    return out


def walk(start: Flag, g: Matrix, count: int, closing: bool = False) -> list:
    """[start, start g, start g^2, ...] in order: the first count flags, a
    chain, or, when closing, the flags up to the first return to start,
    an orbit under a cyclic group of order count generated by g.

    Over a field of order q <= 16 the J members found so far step as lanes
    by g^J (see the module docstring).  The walk can end only at count for
    a chain, and at a divisor d of the group order N for an orbit: when
    the next such d lies before 2J, the step is trimmed to the lanes J..d,
    or J..d-1 for a chain, and an orbit ends there when member d is start.
    A member equal to start at any other position, or none by position N,
    means g^N != I and raises AssertionError.  Batches and trimmed steps
    narrower than _LANE_HEAD walk by Flag.apply, as does every step over a
    larger field, so an orbit closing inside the head costs its L applies
    and no lane set-up.
    """
    check_acting_matrix(start.field, start.n, g)
    key, last = start.key, count + closing  # the walk stays below position last
    head = _LANE_HEAD if start.field.order <= 16 else last
    members = [start]
    ends = A = None  # set up at the first lane step
    rows = [[0] * start.n] * start.dims[-1]  # members[:lanes] in lane form
    lanes = power = 0  # A is g^power
    while True:
        J = len(members)
        if J == last:
            if closing:
                raise AssertionError("orbit length does not divide the group order")
            return members
        if J < head:
            width = min(head, last) - J
        else:
            ends = ends or (divisors(count) if closing else [count])
            width = min(J, ends[bisect_left(ends, J)] + closing - J)
        if width < head:  # flag by flag
            made, f = [], members[-1]
            for _ in range(width):
                f = f.apply(g)
                if closing and f.key == key:
                    break
                made.append(f)
        else:
            if lanes < J:  # the members walked flag by flag go into lanes
                rows, lanes = _join(rows, _lanes(members[lanes:]), lanes), J
            if power != J:
                A = A @ A if 2 * power == J else g ** J
                power = J
            mask = (1 << 8 * width) - 1
            made, out = _lane_step(start, [[x & mask for x in row] for row in rows]
                                   if width < J else rows, A, width, named=True)
            if closing:
                made = list(takewhile(lambda f: f.key != key, made))
            if len(made) == width:
                rows, lanes = _join(rows, out, J), J + width
        members += made
        if len(made) < width:  # member len(members) is start
            if count % len(members):
                raise AssertionError("orbit length does not divide the group order")
            return members


def _join(rows, more, width: int) -> list:
    """Two batches of rows in lane form as one, the lanes of more after the
    width lanes of rows."""
    shift = 8 * width
    return [[x | y << shift for x, y in zip(r, s)] for r, s in zip(rows, more)]


def level_distances(F: Flag, G: Flag) -> tuple:
    """(d(F_1, G_1), ..., d(F_r, G_r)) from one rank elimination.

    The adapted rows of both go in level by level, so the first 2 t_i rows
    span F_i + G_i, and the rank after them is its dimension:
    d_i = 2 dim(F_i + G_i) - 2 t_i.
    """
    F._check_mate(G)
    dims, a, b = F.dims, F._adapted_rows(), G._adapted_rows()
    rows = []
    lo = 0
    for t in dims:
        rows += a[lo:t] + b[lo:t]
        lo = t
    ranks = rank_code_rows(F.field, rows, [2 * t for t in dims])
    return tuple(2 * (r - t) for r, t in zip(ranks, dims))


def flag_distance(F: Flag, G: Flag) -> int:
    return sum(level_distances(F, G))


def flag_distance_bound(n: int, dims) -> int:
    """Largest possible distance between two flags of the given type: the
    sum of each level's maximum."""
    return sum(max_distance_bound(n, t) for t in dims)


def critical_indices(n: int, dims):
    """(a, b): positions (1-based) of max{2 t_i <= n} and min{2 t_i >= n}.

    One of them can be None when every dimension sits on the same side of
    n/2; they coincide exactly when n is even and n/2 is a dimension.
    """
    a = b = None
    for i, t in enumerate(dims, start=1):
        if 2 * t <= n:
            a = i
        if 2 * t >= n and b is None:
            b = i
    return a, b


class FlagCode(Code):
    """A nonempty set of flags of one type on a common ambient space.

    `generator`, when given, is an invertible n x n matrix over the field
    whose chains min_distance may use once it has applied it to every
    member (see scan_pairs); it is checked to act on the code, never trusted.
    """

    __slots__ = ("dims", "generator", "_projections")

    def __init__(self, members, *, generator=None):
        super().__init__(members, lambda f: f.key)
        if generator is not None:
            check_acting_matrix(self.field, self.n, generator)
            if not generator.is_invertible():
                raise SingularMatrixError("a flag code's generator must be invertible")
        self.dims = self.members[0].dims
        self.generator = generator
        self._projections = None

    def _scan(self) -> int:
        pairs = (combinations(self.members, 2) if self.generator is None
                 else scan_pairs(self.members, self.generator))
        return min((flag_distance(u, v) for u, v in pairs), default=0)

    def __repr__(self):
        return (f"FlagCode({len(self.members)} flags of type {self.dims} "
                f"on GF({self.field.order})^{self.n})")


def scan_pairs(members, g: Matrix):
    """The pairs of a code's sorted members that min_distance scans under
    an invertible generator g, each once.

    g splits the members into g-chains, each kept as one representative.
    One pass applies g to each member and looks the image up among the
    members, so each member knows its successor in the code, if any.  A
    chain start, a member that no member maps to, is the representative of
    the chain s, s g, ..., walked by successors until it leaves the code;
    the members no walk reaches lie on closed orbits inside the code, and
    the first of each (in member order) is its representative.  The pairs
    are (representative, member), each unordered pair once.  That is exact:
    every member is s g^i for the representative s of its chain or orbit,
    and members s g^i and t g^j, with m = min(i, j), are the image under
    g^m of s g^(i-m) and t g^(j-m): one of them is a representative, the
    other is still in the code, and g^m keeps every distance.
    """
    index = {m: i for i, m in enumerate(members)}
    succ = [index.get(m.apply(g)) for m in members]
    hit = set(succ)
    placed = [False] * len(members)
    reps = []
    starts = [i for i in range(len(members)) if i not in hit]
    for i in starts + list(range(len(members))):  # then the closed orbits
        if not placed[i]:
            reps.append(members[i])
            while i is not None and not placed[i]:
                placed[i] = True
                i = succ[i]
    chosen = set(reps)
    order = reps + [m for m in members if m not in chosen]
    return ((r, m) for i, r in enumerate(reps) for m in order[i + 1:])


def projected_code(code: FlagCode, index: int) -> SubspaceCode:
    """The subspace code of all members' subspaces at one chain position.

    Every level is built on first use and kept on the code, so each
    projection, and with it its min_distance, exists once per code.  Each
    member's key is unpacked once, each distinct row to one tuple.
    """
    if not 1 <= index <= len(code.dims):
        raise IndexError(f"index {index} outside type {code.dims}")
    if code._projections is None:
        F, n, shared = code.field, code.n, {}
        levels = [f._levels(shared) for f in code.members]
        code._projections = tuple(
            SubspaceCode(Subspace._from_rref(F, n, lv[i]) for lv in levels)
            for i in range(len(code.dims)))
    return code._projections[index - 1]


def is_disjoint(code: FlagCode) -> bool:
    """Whether every projection keeps the full cardinality."""
    return all(len(projected_code(code, i)) == len(code)
               for i in range(1, len(code.dims) + 1))


def is_odfc_by_definition(code: FlagCode) -> bool:
    """At least two flags and minimum distance at the type bound."""
    return (len(code) > 1
            and code.min_distance() == flag_distance_bound(code.n, code.dims))


def is_odfc_by_characterization(code: FlagCode) -> bool:
    """Optimum distance decided at the critical levels only.

    On an orbit code Stab(F) <= Stab(F_i), so full cardinality at level i
    is the paper's orbit condition |Stab(F_i)| = |Stab(F)|.  Each critical
    projection's distance is its own min_distance, not the flag scan's.
    """
    if len(code) < 2:
        return False
    a, b = critical_indices(code.n, code.dims)
    for idx in dict.fromkeys(i for i in (a, b) if i is not None):
        proj = projected_code(code, idx)
        if len(proj) != len(code) or not proj.attains_max_distance():
            return False
    return True


def union_flag_codes(codes, require_additive: bool = False) -> FlagCode:
    """Union of flag codes of one type, with the first part's generator;
    optionally insist nothing collapses.  Parts of other types fail the
    members' type check in FlagCode."""
    codes = list(codes)
    if not codes:
        raise BadDimensionsError("nothing to unite")
    out = FlagCode((m for c in codes for m in c.members),
                   generator=codes[0].generator)
    if require_additive and len(out) != sum(len(c) for c in codes):
        raise AdditivityViolatedError(
            f"union has {len(out)} members, parts have {sum(len(c) for c in codes)}")
    return out


def orbit_flag(group, flag: Flag):
    """(orbit FlagCode, stabilizer order) under a cyclic matrix group.

    The orbit is walked by walk, whose length must divide the group order.
    Also verifies that the flag stabilizer is the meet of the level
    stabilizers: in a cyclic group, |Stab(F)| = gcd_i |Stab(F_i)|, i.e. the
    orbit length is the lcm of the level orbit lengths.  Level i's orbit
    length is the first j > 0 with level i of the j-th member back at the
    seed's.
    """
    N = group.order
    members = walk(flag, group.generator, N, closing=True)
    size = len(members)
    stab = N // size
    meet = 0
    for i in range(len(flag.dims)):
        span = flag._level_slice(i)
        seed_level = flag.key[span]
        level_size = next((j for j in range(1, size)
                           if members[j].key[span] == seed_level), size)
        meet = gcd(meet, N // level_size)
    if meet != stab:
        raise AssertionError("flag stabilizer is not the meet of level stabilizers")
    return FlagCode(members, generator=group.generator), stab
