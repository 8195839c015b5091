"""Minimum distance with a generator that min_distance checks, never trusts.

A flag code's generator only decides which pairs the scan may skip: one
pass applies it to each member and finds each member's successor in the
code, so each g-chain is kept as its start, a member no member maps to, and
each closed orbit as one of its members.  The result must equal the plain
pair scan, conftest's pair_scan_distance, for any invertible generator; a
flag code refuses a singular one where it enters.  A subspace code carries
none, so subspace orbits are checked here as one-level flag codes.
"""

import random
from itertools import combinations

import pytest

from conftest import (enumerate_grassmannian, pair_scan_distance,
                      random_invertible)
from flagcodes import (Flag, FlagCode, Matrix, Subspace, SubspaceCode,
                       canonical_admissible_flag, flag_distance,
                       flag_distance_bound, full_type_generator_flag,
                       is_odfc_by_characterization, is_odfc_by_definition,
                       is_partial_spread, max_distance_bound, orbit_flag,
                       orbit_subspace, projected_code, singer_group,
                       spread_type_max_odfc, subspace_distance, union_flag_codes)
from flagcodes import flags, subspaces
from flagcodes.flags import scan_pairs
from flagcodes.subspaces import Code, orbit_walk
from flagcodes.errors import (AmbientMismatchError, MixedFieldsError, ShapeError,
                              SingularMatrixError, TypeMismatchError)


def _one_level(levels, g=None) -> FlagCode:
    """The flag code of the one-level flags [U], U in levels, carrying g."""
    return FlagCode((Flag([U]) for U in levels), generator=g)


def test_union_with_a_foreign_flag_is_not_odfc(ctx_q2k2s2, F2):
    # the 5-flag orbit is an ODFC of distance 8; the extra flag sits at
    # distance 4 from one of its members
    T = ctx_q2k2s2.group.subgroup_of_order(5)
    orbit, _ = orbit_flag(T, canonical_admissible_flag(ctx_q2k2s2))
    f = Flag([Subspace(F2, 4, [(1, 0, 0, 1)]),
              Subspace(F2, 4, [(1, 0, 0, 1), (0, 1, 1, 0)]),
              Subspace(F2, 4, [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)])])
    code = union_flag_codes([orbit, FlagCode([f])])
    assert len(code) == 6 and code.generator == T.generator
    assert orbit.min_distance() == 8
    assert code.min_distance() == pair_scan_distance(code) == 4
    assert not is_odfc_by_definition(code)
    assert not is_odfc_by_characterization(code)


def test_generator_the_code_leaves_gives_the_true_distance(F2):
    # a plane a and the 16 planes of GF(2)^4 meeting it trivially: one
    # pair of those 16 meets in a line, so the distance is 2
    planes = list(enumerate_grassmannian(F2, 2, 4))
    a = planes[0]
    c = [U for U in planes if subspace_distance(a, U) in (0, 4)]
    assert len(c) == 17
    g = singer_group(F2, 4).generator
    code = _one_level(c, g)
    assert code.min_distance() == pair_scan_distance(code) == 2
    assert not is_odfc_by_definition(code)
    sub_code = SubspaceCode(c)
    assert sub_code.min_distance() == 2
    assert not sub_code.attains_max_distance()
    assert not is_partial_spread(sub_code)


def test_singular_generator_certifies_nothing(F2):
    # g kills e3 and e4: walking it would lose dimension, and no orbit
    # argument holds, so the code refuses it where it enters; without it
    # min_distance is the pair scan
    g = Matrix(F2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)])
    members = [Subspace(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
               Subspace(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)]),
               Subspace(F2, 4, [(1, 0, 1, 0), (0, 0, 0, 1)])]
    with pytest.raises(SingularMatrixError):
        _one_level(members, g)
    code = _one_level(members)
    assert code.min_distance() == pair_scan_distance(code) == 2


def test_generator_must_act_on_the_code(F2, F3):
    U = Subspace.standard(F2, 3, 1)
    with pytest.raises(ShapeError):
        FlagCode([Flag([U])], generator=Matrix(F2, [(1, 0), (0, 1), (1, 1)]))
    with pytest.raises(AmbientMismatchError):
        FlagCode([Flag([U])], generator=Matrix.identity(F2, 4))
    with pytest.raises(MixedFieldsError):
        FlagCode([Flag([U])], generator=Matrix.identity(F3, 3))
    # the generator is a flag-code certificate: no subspace code takes or
    # keeps one, and the common base holds none
    with pytest.raises(TypeError):
        SubspaceCode([U], generator=Matrix.identity(F2, 3))
    assert not hasattr(SubspaceCode([U]), "generator")
    assert "generator" not in Code.__slots__


def test_certified_orbits_save_pairs_and_applies(ctx_q3k3s2, monkeypatch):
    T = ctx_q3k3s2.group.subgroup_of_order(56)
    flag_code, _ = orbit_flag(T, canonical_admissible_flag(ctx_q3k3s2))
    # a subspace orbit below its maximum 6, so no cover scan decides it
    e = Matrix.identity(ctx_q3k3s2.base_field, 6).rows
    sub_code, _ = orbit_subspace(T, Subspace(ctx_q3k3s2.base_field, 6,
                                             [e[0], e[1], e[3]]))
    level_code = _one_level(sub_code, T.generator)
    assert len(flag_code) == len(sub_code) == len(level_code) == 28
    pairs = []
    applies = []
    for module, name, member in ((flags, "flag_distance", Flag),
                                 (subspaces, "subspace_distance", Subspace)):
        distance, apply = getattr(module, name), member.apply
        monkeypatch.setattr(module, name, lambda *args, d=distance:
                            pairs.append(1) or d(*args))
        monkeypatch.setattr(member, "apply", lambda x, A, a=apply:
                            applies.append(1) or a(x, A))
    # the subspace orbit carries no generator: after its cover scan it
    # scans every pair, with no apply
    assert sub_code.min_distance() == 2
    assert (len(pairs), len(applies)) == (28 * 27 // 2, 0)
    for code, d in ((flag_code, 18), (level_code, 2)):
        pairs.clear()
        applies.clear()
        assert code.min_distance() == d
        assert (len(pairs), len(applies)) == (27, 28)
        # a code never changes: the answer is kept
        pairs.clear()
        applies.clear()
        assert code.min_distance() == d
        assert (len(pairs), len(applies)) == (0, 0)
        assert pair_scan_distance(code) == d


def test_codes_equal_by_kind_and_members(ctx_q2k2s2):
    flag_code, _ = orbit_flag(ctx_q2k2s2.group.subgroup_of_order(5),
                              canonical_admissible_flag(ctx_q2k2s2))
    spread = ctx_q2k2s2.spread
    for code in (flag_code, spread):
        members = list(code)
        rebuilt = type(code)(reversed(members))
        assert list(rebuilt) == members
        assert rebuilt == code and hash(rebuilt) == hash(code)
        assert rebuilt != type(code)(members[1:])
    lines = FlagCode(Flag([m]) for m in spread)
    assert len(lines) == len(spread)
    assert lines != spread and spread != lines
    assert len({lines, spread}) == 2
    # the code's member check refuses a second flag type, also in a union
    with pytest.raises(TypeMismatchError):
        union_flag_codes([flag_code, lines])


@pytest.fixture
def scan_counts(monkeypatch):
    """Calls of Subspace.apply and Flag.apply (applies) and of
    Matrix.inverse (inverses), counted from here on."""
    counts = {"applies": 0, "inverses": 0}
    for owner, name, key in ((Subspace, "apply", "applies"),
                             (Flag, "apply", "applies"),
                             (Matrix, "inverse", "inverses")):
        def counted(*args, f=getattr(owner, name), key=key):
            counts[key] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, counted)
    return counts


def _level_scan(code, counts):
    """(distance, pairs, applies, inverses) of one scan of a one-level flag
    code over the pairs flags.scan_pairs gives under its generator."""
    counts.update(applies=0, inverses=0)
    pairs = []
    d = min((pairs.append(1) or flag_distance(u, v)
             for u, v in scan_pairs(code.members, code.generator)), default=0)
    return d, len(pairs), counts["applies"], counts["inverses"]


def test_one_representative_per_walk(F2, scan_counts):
    # m consecutive members of a 15-member Singer orbit are one g-chain,
    # or for m = 15 one closed orbit: one representative, found with one
    # apply per member and no g^(-1)
    g = singer_group(F2, 4).generator
    orbit = orbit_walk(Subspace(F2, 4, [(1, 0, 0, 0), (0, 0, 1, 0)]), g)
    assert len(orbit) == 15
    for m in range(1, 16):
        code = _one_level(orbit[:m], g)
        d, pairs, applies, inverses = _level_scan(code, scan_counts)
        assert d == pair_scan_distance(code)
        assert (pairs, applies, inverses) == (m - 1, m, 0)


def test_closed_orbit_and_open_chain_under_one_generator(F2, scan_counts):
    # the closed 15-plane Singer orbit of <e1, e3> and a chain of 1 to 14
    # members of the other 15-plane orbit: two representatives, so
    # 2 |C| - 3 pairs
    g = singer_group(F2, 4).generator
    closed = orbit_walk(Subspace(F2, 4, [(1, 0, 0, 0), (0, 0, 1, 0)]), g)
    other = next(o for o in (orbit_walk(U, g)
                             for U in enumerate_grassmannian(F2, 2, 4)
                             if U not in closed)
                 if len(o) == 15)
    for m in range(1, 15):
        code = _one_level(closed + other[:m], g)
        d, pairs, applies, inverses = _level_scan(code, scan_counts)
        assert d == pair_scan_distance(code) == 2
        assert (pairs, applies, inverses) == (2 * len(code) - 3, len(code), 0)


@pytest.mark.parametrize("name, t, count", [
    ("ctx_q2k2s4", 1, 84), ("ctx_q2k2s4", 5, 410), ("ctx_q2k2s4", 17, 410),
    ("ctx_q2k2s4", 85, 84), ("ctx_q4k3s2", 1, 64), ("ctx_q4k3s2", 13, 310),
    ("ctx_q4k3s2", 39, 310), ("ctx_q3k3s2", 1, 27), ("ctx_q3k3s2", 4, 53),
    ("ctx_q3k3s2", 28, 53), ("ctx_q3k3s2", 56, 27)])
def test_max_code_scans_one_representative_per_chain(name, t, count, request,
                                                     monkeypatch, scan_counts):
    # a maximum spread-type code of M members keeps r = min(m, |O_0|)
    # representatives, |O_0| g-chains or m T-orbits, and scans
    # r M - r (r + 1) / 2 pairs, each one flag_distance, after one apply
    # per member and no g^(-1)
    code = spread_type_max_odfc(request.getfixturevalue(name), t)
    pairs = []
    distance = flags.flag_distance
    monkeypatch.setattr(flags, "flag_distance",
                        lambda *args: pairs.append(1) or distance(*args))
    scan_counts.update(applies=0, inverses=0)
    d = code.min_distance()
    assert len(pairs) == count
    assert scan_counts == {"applies": len(code), "inverses": 0}
    assert d == pair_scan_distance(code) == flag_distance_bound(code.n, code.dims)


def _assert_exact(code):
    assert code.min_distance() == pair_scan_distance(code), code
    _assert_pairs_covered(code)
    for i in range(1, len(getattr(code, "dims", ())) + 1):
        proj = projected_code(code, i)
        assert proj.min_distance() == pair_scan_distance(proj), (code, i)


def _assert_pairs_covered(code):
    """Every pair of members of a code that carries a generator g, shifted
    back by g until it is a pair that flags.scan_pairs gives, stays in the
    code on the way: the argument that makes the representative scan
    exact, checked pair by pair."""
    g = code.generator
    scanned = {frozenset(p) for p in scan_pairs(code.members, g)}
    back = g.inverse()
    preimage = {}

    def shifted(u):
        if u not in preimage:
            preimage[u] = u.apply(back)
        return preimage[u]

    for pair in combinations(code.members, 2):
        for _ in range(len(code)):
            if frozenset(pair) in scanned:
                break
            pair = [shifted(u) for u in pair]
            assert all(u in code for u in pair), (code, pair)
        else:
            pytest.fail(f"no shift of a pair of {code} is scanned")


@pytest.mark.parametrize("name", ["ctx_q2k2s2", "ctx_q2k3s2", "ftx_q2k2"])
def test_certificate_matches_full_scan_seeded(name, request):
    ctx = request.getfixturevalue(name)
    rng = random.Random(f"certificate:{name}")
    F, n = ctx.base_field, ctx.n
    if name.startswith("ftx"):
        seed = full_type_generator_flag(ctx)
    else:
        seed = canonical_admissible_flag(ctx)
    N = ctx.group.order
    orders = [t for t in range(2, 22) if N % t == 0]  # keeps the full scans small
    for _ in range(4):
        T = ctx.group.subgroup_of_order(rng.choice(orders))
        start = seed.apply(random_invertible(rng, F, n))
        orbit, _ = orbit_flag(T, start)
        _assert_exact(orbit)
        extras = FlagCode(seed.apply(random_invertible(rng, F, n))
                          for _ in range(rng.randrange(1, 4)))
        _assert_exact(union_flag_codes([orbit, extras]))
        # another orbit of the same group and a random generator
        second, _ = orbit_flag(T, seed.apply(random_invertible(rng, F, n)))
        _assert_exact(union_flag_codes([orbit, second, extras]))
        _assert_exact(FlagCode(list(orbit) + list(extras),
                               generator=random_invertible(rng, F, n)))
        # subspace orbits, as one-level flag codes under T's generator
        level = rng.choice(seed.subspaces)
        sub_orbit, _ = orbit_subspace(T, level.apply(random_invertible(rng, F, n)))
        _assert_exact(_one_level(sub_orbit, T.generator))
        _assert_exact(_one_level(list(sub_orbit) + [
            level.apply(random_invertible(rng, F, n)) for _ in range(2)],
            T.generator))
        # segments of g-chains from random starts, in sorted member order
        g = ctx.group.generator
        chains = []
        for _ in range(rng.randrange(2, 5)):
            f = seed.apply(random_invertible(rng, F, n))
            for _ in range(rng.randrange(1, 7)):
                chains.append(f)
                f = f.apply(g)
        _assert_exact(FlagCode(chains, generator=g))
        _assert_exact(_one_level((f.subspaces[0] for f in chains), g))


def _sharing(rng, flag, j):
    """A random flag of flag's type whose first j levels are flag's."""
    F, n = flag.field, flag.n
    rows = list(flag._adapted_rows()[:flag.dims[j - 1]])
    while len(rows) < flag.dims[-1]:
        v = tuple(rng.randrange(F.order) for _ in range(n))
        if Subspace(F, n, rows + [v]).dim > len(rows):
            rows.append(v)
    return Flag([Subspace(F, n, rows[:t]) for t in flag.dims])


@pytest.mark.parametrize("name, t", [("ctx_q2k2s2", 5), ("ctx_q3k3s2", 56)])
def test_every_level_minimum_is_exact(name, t, request):
    """Each projection computes its own min_distance, exactly, and the
    flag scan keeps none of them."""
    ctx = request.getfixturevalue(name)
    rng = random.Random(f"levels:{name}")
    base = canonical_admissible_flag(ctx)
    T = ctx.group.subgroup_of_order(t)
    orbit, _ = orbit_flag(T, base)
    # another line of level 2 under the same upper levels: every level
    # above the first repeats in the union of the two orbits
    line = next(s for s in (Subspace(ctx.base_field, ctx.n, [r])
                            for r in base.subspaces[1].rows)
                if s != base.subspaces[0])
    shared, _ = orbit_flag(T, Flag((line,) + base.subspaces[1:]))
    # flags that share level 1 with orbit members: level 1 repeats
    first = FlagCode(_sharing(rng, m, 1) for m in orbit.members[:3])
    codes = [orbit, union_flag_codes([orbit, shared]),
             union_flag_codes([orbit, first]),
             FlagCode(list(orbit) + list(first)),  # no generator
             FlagCode([base]),
             # level 1 has one distinct member, level 2 two
             FlagCode([base, _sharing(rng, base, 1), _sharing(rng, base, 2)])]
    below = 0
    for code in codes:
        assert code.min_distance() == pair_scan_distance(code)
        levels = [projected_code(code, i) for i in range(1, len(code.dims) + 1)]
        assert all(proj._min_distance is None for proj in levels)
        kept = [proj.min_distance() for proj in levels]
        assert kept == [pair_scan_distance(proj) for proj in levels], code
        below += sum(0 < d < max_distance_bound(code.n, proj.dim)
                     for d, proj in zip(kept, levels))
    assert below  # some levels miss their maximum and fall to pairs
    assert [len(projected_code(codes[1], i)) for i in (1, 2)] == \
           [2 * len(orbit), len(orbit)]
    assert len(projected_code(codes[2], 1)) == len(orbit)
    assert kept[0] == 0 and kept[1] > 0
    assert codes[4].min_distance() == 0
    # a projection asked before the flag scan agrees with one asked after
    code = FlagCode(list(codes[2]), generator=T.generator)
    before = projected_code(code, 2).min_distance()
    assert code.min_distance() == codes[2].min_distance()
    assert projected_code(code, 2).min_distance() == before
