"""Flags, the flag metric, projections, ODFC verdicts, orbit flag codes."""

import random
from functools import cache
from itertools import combinations

import pytest

from conftest import (enumerate_grassmannian, pair_scan_distance,
                      random_invertible, ref_rref)
from flagcodes import (Flag, FlagCode, Matrix, Subspace, critical_indices,
                       flag_distance, flag_distance_bound,
                       is_disjoint, is_odfc_by_characterization,
                       is_odfc_by_definition, level_distances, make_field,
                       max_distance_bound, orbit_flag, projected_code,
                       singer_group, union_flag_codes)
from flagcodes.codefiles import MAX_FIELD_ORDER, format_flag_code
from flagcodes.errors import (AdditivityViolatedError, BadDimensionsError,
                              NotNestedError, TypeMismatchError)


def std(field, n, rows):
    return Subspace(field, n, rows)


def example_code():
    """Three flags of type (2, 3) on GF(2)^6; a small non-disjoint code."""
    F2 = make_field(2, 1)
    e = Matrix.identity(F2, 6).rows
    f1 = Flag([std(F2, 6, [e[0], e[1]]), std(F2, 6, [e[0], e[1], e[2]])])
    f2 = Flag([std(F2, 6, [e[0], e[2]]), std(F2, 6, [e[0], e[1], e[2]])])
    f3 = Flag([std(F2, 6, [e[3], e[4]]), std(F2, 6, [e[3], e[4], e[5]])])
    return FlagCode([f1, f2, f3]), (f1, f2, f3)


def test_make_flag_validation():
    F2 = make_field(2, 1)
    e = Matrix.identity(F2, 3).rows
    f = Flag([std(F2, 3, [e[0]]), std(F2, 3, [e[0], e[1]])])
    assert f.dims == (1, 2) and f.n == 3
    try:
        Flag([std(F2, 3, [e[0]]), std(F2, 3, [e[1], e[2]])])
    except NotNestedError:
        pass
    else:
        raise AssertionError("non-nested chain accepted")
    with pytest.raises(NotNestedError):
        Flag([std(F2, 3, [e[0]]), std(F2, 3, [e[0]])])
    with pytest.raises(BadDimensionsError):
        Flag([Subspace.standard(F2, 3, 3)])
    with pytest.raises(BadDimensionsError):
        Flag([])


def test_flag_distance_on_example():
    code, (f1, f2, f3) = example_code()
    assert flag_distance(f1, f1) == 0
    assert flag_distance(f1, f2) == 2
    assert flag_distance(f1, f3) == 10
    assert flag_distance(f2, f3) == 10
    assert code.min_distance() == 2
    F2 = make_field(2, 1)
    e = Matrix.identity(F2, 6).rows
    other = Flag([std(F2, 6, [e[0]]), std(F2, 6, [e[0], e[1], e[2]])])
    try:
        flag_distance(f1, other)
    except TypeMismatchError:
        pass
    else:
        raise AssertionError("types (2,3) vs (1,3) compared")


def test_flag_distance_bound_frozen():
    assert flag_distance_bound(5, (1, 2, 3, 4)) == 12
    assert flag_distance_bound(6, (1, 2, 3, 4, 5)) == 18
    assert flag_distance_bound(9, (1, 2, 3, 6, 7, 8)) == 24
    assert flag_distance_bound(4, (1, 2, 3)) == 8
    assert flag_distance_bound(6, (2, 3)) == 10


def test_critical_indices():
    assert critical_indices(5, (1, 2, 3, 4)) == (2, 3)
    assert critical_indices(6, (1, 2, 3, 4, 5)) == (3, 3)
    assert critical_indices(6, (4, 5)) == (None, 1)
    assert critical_indices(6, (1, 2)) == (2, None)
    assert critical_indices(9, (1, 2, 3, 6, 7, 8)) == (3, 4)


def _every_flag_by_type(F, n):
    """{type: every flag of that type on GF(q)^n}: chains of
    enumerate_grassmannian subspaces, nested by reference rank."""
    pools = {d: list(enumerate_grassmannian(F, d, n)) for d in range(1, n)}

    @cache
    def nested(lo, hi):
        return len(ref_rref(F, hi + lo)) == len(hi)

    out = {}
    for r in range(1, n):
        for dims in combinations(range(1, n), r):
            chains = [[U] for U in pools[dims[0]]]
            for d in dims[1:]:
                chains = [c + [V] for c in chains for V in pools[d]
                          if nested(c[-1].rows, V.rows)]
            out[dims] = [Flag(c) for c in chains]
    return out


def test_characterization_holds_on_every_flag_pair():
    """Every pair of distinct flags of every type of GF(2)^4 and GF(3)^3,
    with level distances from reference ranks: the library's
    level_distances agree, and a pair is at the type's bound exactly when
    every level critical_indices names is at its maximum.  No named level
    can be left out: where some pair falls below the bound, for each named
    level some pair does with the others at their maximum."""
    pairs = 0
    for F, n in [(make_field(2, 1), 4), (make_field(3, 1), 3)]:
        @cache
        def distance(a, b):  # canonical rows of two subspaces of one dim
            return 2 * (len(ref_rref(F, a + b)) - len(a))

        for dims, flags in _every_flag_by_type(F, n).items():
            bound = flag_distance_bound(n, dims)
            crit = [i - 1 for i in dict.fromkeys(critical_indices(n, dims))
                    if i is not None]
            needed = [False] * len(crit)
            some_below = False
            for A, B in combinations(flags, 2):
                ref = tuple(map(distance, A.levels, B.levels))
                assert level_distances(A, B) == ref, (dims, A.levels, B.levels)
                at_max = [ref[i] == max_distance_bound(n, dims[i]) for i in crit]
                below = sum(ref) < bound
                assert below != all(at_max), (dims, A.levels, B.levels)
                some_below |= below
                for j in range(len(crit)):
                    needed[j] |= below and all(at_max[:j] + at_max[j + 1:])
            assert all(needed) or not some_below, (n, dims, crit)
            pairs += len(flags) * (len(flags) - 1) // 2
    assert pairs == 68122


def test_projections_and_disjointness():
    code, (f1, f2, f3) = example_code()
    assert len(projected_code(code, 1)) == 3
    assert len(projected_code(code, 2)) == 2
    assert projected_code(code, 2).min_distance() == 6
    assert projected_code(code, 2) is projected_code(code, 2)
    assert not is_disjoint(code)
    assert is_disjoint(FlagCode([f1]))
    try:
        projected_code(code, 0)
    except IndexError:
        pass
    else:
        raise AssertionError("positions count from 1")
    with pytest.raises(IndexError):
        projected_code(code, 3)


def test_example_code_is_not_odfc():
    code, _ = example_code()
    assert not is_odfc_by_definition(code)
    assert not is_odfc_by_characterization(code)
    singleton = FlagCode([code.members[0]])
    assert not is_odfc_by_definition(singleton)
    assert not is_odfc_by_characterization(singleton)


def test_identical_first_subspace_blocks_odfc():
    code, (f1, f2, _) = example_code()
    F2 = make_field(2, 1)
    e = Matrix.identity(F2, 6).rows
    g1 = Flag([std(F2, 6, [e[0], e[1]]), std(F2, 6, [e[0], e[1], e[2]])])
    g2 = Flag([std(F2, 6, [e[0], e[1]]), std(F2, 6, [e[0], e[1], e[3]])])
    pair = FlagCode([g1, g2])
    assert not is_odfc_by_definition(pair)
    assert not is_odfc_by_characterization(pair)


def test_verdicts_agree_on_seeded_codes():
    rng = random.Random(31337)
    F2 = make_field(2, 1)
    for _ in range(60):
        flags = []
        for _ in range(rng.randint(2, 5)):
            while True:
                M = Matrix(F2, [[rng.randrange(2) for _ in range(4)]
                                for _ in range(4)], 4)
                if M.is_invertible():
                    break
            flags.append(Flag([
                Subspace(F2, 4, M.rows[:k]) for k in (1, 2, 3)]))
        code = FlagCode(flags)
        assert is_odfc_by_definition(code) == is_odfc_by_characterization(code)


def test_orbit_flag_frozen():
    F2 = make_field(2, 1)
    G = singer_group(F2, 4)
    flag = Flag([Subspace.standard(F2, 4, k) for k in (1, 2, 3)])
    code, stab = orbit_flag(G, flag)
    assert len(code) == 15 and stab == 1
    assert code.min_distance() == 6
    assert flag_distance_bound(4, (1, 2, 3)) == 8
    assert not is_odfc_by_definition(code)
    assert critical_indices(4, code.dims) == (2, 2)
    assert not is_odfc_by_characterization(code)
    # the generator certificate agrees with the full pair scan
    assert code.min_distance() == pair_scan_distance(code)

    trivial = G.subgroup_of_order(1)
    single, stab = orbit_flag(trivial, flag)
    assert len(single) == 1 and stab == 1


def test_union_flag_codes():
    code, (f1, f2, f3) = example_code()
    assert union_flag_codes([code]) == code
    a = FlagCode([f1])
    b = FlagCode([f2, f3])
    u = union_flag_codes([a, b])
    assert len(u) == 3 and u == code
    # overlap: plain union deduplicates, the additive claim raises
    assert len(union_flag_codes([code, a])) == 3
    try:
        union_flag_codes([code, a], require_additive=True)
    except AdditivityViolatedError:
        pass
    else:
        raise AssertionError("overlapping union claimed additive")


def test_flag_code_deduplicates():
    _, (f1, f2, _) = example_code()
    F2 = make_field(2, 1)
    e = Matrix.identity(F2, 6).rows
    same_as_f1 = Flag([std(F2, 6, [e[1], e[0] ]),
                            std(F2, 6, [e[2], e[0], e[1]])])
    code = FlagCode([f1, same_as_f1, f2])
    assert len(code) == 2


def test_flag_identity_reads_field_and_ambient():
    # levels alone would call these equal: the same 0/1 codes over GF(2)
    # and GF(4), where the codes 0 and 1 name the same two elements
    F2, F4 = make_field(2, 1), make_field(2, 2)
    over2 = Flag([Subspace.standard(F2, 3, t) for t in (1, 2)])
    over4 = Flag([Subspace.standard(F4, 3, t) for t in (1, 2)])
    assert over2.levels == over4.levels
    assert over2 != over4 and over4 != over2
    assert len({over2, over4}) == 2


# lane widths 1 and 2: GF(2048) codes take two bytes each
_KEY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (5, 2), (2, 11)]
_KEY_TYPES = [(1, 4), (2, 3), (5,), (1, 2, 4, 5)]  # n = 6; three of Σ = 5


@pytest.mark.parametrize("p, e", _KEY_FIELDS)
def test_key_orders_and_identifies_as_levels(p, e):
    """Within a type, sorting by key sorts by levels, keys (and so flags)
    are equal exactly when levels are, and equal flags hash equal, for
    flags made by Flag(...) and by apply, with repeats; flags of different
    types with keys of one length never compare equal; and a FlagCode's
    file is the text of its levels, sorted, but for a field too large for
    the format, whose file the writer refuses."""
    F = make_field(p, e)
    rng = random.Random(f"keys:{p}^{e}")
    n = 6
    by_type = {}
    for dims in _KEY_TYPES:
        made = [Flag([Subspace(F, n, M.rows[:t]) for t in dims])
                for M in (random_invertible(rng, F, n) for _ in range(4))]
        walked = [f.apply(random_invertible(rng, F, n)) for f in made]
        again = [f.apply(Matrix.identity(F, n)) for f in made + walked]
        flags = made + walked + again
        assert len({f.key for f in flags}) < len(flags)
        for a, b in combinations(flags, 2):
            same = a.levels == b.levels
            assert (a == b) == (a.key == b.key) == same
            assert not same or hash(a) == hash(b)
        assert ([f.levels for f in sorted(flags, key=lambda f: f.key)]
                == sorted(f.levels for f in flags))
        by_type[dims] = flags
        code = FlagCode(flags)
        if F.order > MAX_FIELD_ORDER:  # a file cannot read GF(2048) back
            with pytest.raises(ValueError, match="exceeds the limit"):
                format_flag_code(code)
            continue
        lines = ["FLAGCODE v1", f"field p={p} e={e}", f"ambient n={n}",
                 "type " + ",".join(map(str, dims)), f"count {len(code)}"]
        for levels in sorted({f.levels for f in flags}):
            lines.append("flag")
            for t, rows in zip(dims, levels):
                lines += [f"subspace k={t}"] + [" ".join(map(str, r)) for r in rows]
        assert format_flag_code(code) == "\n".join(lines) + "\n"
    same_length = [f for dims in _KEY_TYPES[:3] for f in by_type[dims]]
    assert len({len(f.key) for f in same_length}) == 1
    for a, b in combinations(same_length, 2):
        assert a.dims == b.dims or (a != b and b != a)


def test_flag_made_and_flag_reached_by_apply_are_one_flag():
    F3 = make_field(3, 1)
    G = singer_group(F3, 4)
    flag = Flag([Subspace.standard(F3, 4, t) for t in (1, 2, 3)])
    image = flag.apply(G.generator)
    made = Flag([s.apply(G.generator) for s in flag.subspaces])
    assert image == made and made == image
    assert hash(image) == hash(made)
    assert image.subspaces == made.subspaces
    assert image.levels == tuple(s.rows for s in made.subspaces)
    assert image.dims == made.dims == (1, 2, 3)
    # back at the start after a walk of the whole orbit
    cur, steps = image, 1
    while cur != flag:
        cur = cur.apply(G.generator)
        steps += 1
    assert hash(cur) == hash(flag) and cur.subspaces == flag.subspaces
    assert G.order % steps == 0
    # subspaces is read only: a flag is its levels
    with pytest.raises(AttributeError):
        flag.subspaces = made.subspaces
