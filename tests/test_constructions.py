"""Spread contexts and the two orbital ODFC constructions."""

import gc
import pickle
import random
import tracemalloc
from math import gcd

import pytest

from conftest import enumerate_grassmannian, pair_scan_distance, ref_rref
from flagcodes import (Flag, Matrix, Subspace,
                       SubspaceCode, admissible_flag_dims, admissible_subgroup_orders,
                       build_full_type_context, build_spread_context,
                       canonical_admissible_flag, conjugate_spread, dual_code,
                       field_reduction,
                       flag_distance_bound, full_type_generator_flag,
                       full_type_max_odfc, full_type_orbit_odfc,
                       is_odfc_by_characterization, is_odfc_by_definition,
                       is_partial_spread, is_spread, make_field,
                       max_distance_bound, orbit_flag,
                       orbit_subspace, projected_code, spread_type_max_odfc,
                       spread_type_orbit_odfc, table_row, union_flag_codes)
from flagcodes import constructions, flags, singer, subspaces
from flagcodes.codefiles import format_flag_code, parse_code_file
from flagcodes.constructions import (_certify_seed, _check_critical_levels,
                                    _max_code_with_hook)
from flagcodes.errors import (AmbientMismatchError, BadDimensionsError,
                              GcdConditionFailedError, NotADivisorError,
                              NotExtendingError, RankDeficientError,
                              SingularMatrixError, TypeMismatchError)

TABLE1 = [(1, 1, 28), (2, 1, 28), (4, 2, 14), (7, 7, 4),
          (8, 4, 7), (14, 7, 4), (28, 14, 2), (56, 28, 1)]


def test_spread_context_q2k2s2(ctx_q2k2s2):
    ctx = ctx_q2k2s2
    assert ctx.n == 4
    assert len(ctx.spread) == 5
    assert is_spread(ctx.spread)
    assert ctx.member_stabilizer_order == 3
    assert len(ctx.hyperplanes) == 5
    assert ctx.group.order == 15
    orbit, stab = orbit_subspace(ctx.group, ctx.spread.members[0])
    assert orbit == ctx.spread and stab == 3


def test_spread_context_q2k3s2(ctx_q2k3s2):
    ctx = ctx_q2k3s2
    assert len(ctx.spread) == 9
    assert is_spread(ctx.spread)
    assert ctx.member_stabilizer_order == 7
    assert ctx.hyperplanes.min_distance() == 6


@pytest.mark.parametrize("name, distance_route", [
    ("ctx_q2k2s2", "pairs"), ("ctx_q2k3s2", "pairs"), ("ctx_q3k3s2", "pairs"),
    ("ctx_q4k3s3", "dual cover")])
def test_certified_orbits_match_brute_force(name, distance_route, request):
    # independent oracles for the orbit certificate: the Desarguesian
    # identity by enumeration, the cover scan, and the hyperplane distance
    ctx = request.getfixturevalue(name)
    E, k, s = ctx.extension, ctx.k, ctx.s
    for code, d in ((ctx.spread, 1), (ctx.hyperplanes, s - 1)):
        oracle = SubspaceCode(field_reduction(U)
                              for U in enumerate_grassmannian(E, d, s))
        assert code == oracle
        assert code.members == oracle.members
        assert field_reduction(Subspace.standard(E, s, d)) in code
        # an orbit of subspaces carries no generator: its cover scan decides it
        assert not hasattr(code, "generator")
    assert is_spread(ctx.spread)
    if distance_route == "pairs":
        assert pair_scan_distance(ctx.hyperplanes) == 2 * k
    else:
        assert is_partial_spread(dual_code(ctx.hyperplanes))


def test_certificate_rejects_a_non_spread_seed(ctx_q2k2s2, F2):
    seed = Subspace(F2, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert seed not in ctx_q2k2s2.spread
    orbit, stab = orbit_subspace(ctx_q2k2s2.group, seed)
    assert (len(orbit), stab) == (15, 1)
    with pytest.raises(AssertionError, match=r"g\^5 moves the seed"):
        _certify_seed(ctx_q2k2s2.group, seed, 2)


def test_certificate_rejects_an_orbit_shorter_than_m(F2):
    # e_1 GF(16) in GF(256) = GF(2)^8: stabilizer GF(16)^* of order 15, so
    # 17 members where the (q=2, k=2, s=4) certificate wants m = 85; g^85
    # fixes it, and so does g^17 = g^(85/5)
    ctx = build_spread_context(F2, 2, 4)
    g = ctx.group.generator
    e1 = Matrix(F2, [[1] + [0] * 7])
    seed = Subspace(F2, 8, [(e1 @ g ** (17 * j)).rows[0] for j in range(4)])
    assert seed.dim == 4
    orbit, stab = orbit_subspace(ctx.group, seed)
    assert (len(orbit), stab) == (17, 15)
    with pytest.raises(AssertionError, match=r"g\^17 fixes the seed"):
        _certify_seed(ctx.group, seed, 2)


@pytest.mark.parametrize("name", [
    "ctx_q2k2s2", "ctx_q2k3s2", "ctx_q3k3s2", "ctx_q4k3s3"])
def test_certificate_accepts_both_context_seeds(name, request):
    ctx = request.getfixturevalue(name)
    for seed in ctx._seeds:
        _certify_seed(ctx.group, seed, ctx.k)
        _, stab = orbit_subspace(ctx.group, seed)
        assert stab == ctx.member_stabilizer_order


def test_orbits_are_walked_only_when_read(monkeypatch, F2):
    # op counts, not timings: constructing codes walks no Singer orbit, and
    # the first read of spread walks its orbit once and keeps it
    calls = []

    def counting(group, seed):
        calls.append(seed)
        return orbit_subspace(group, seed)

    monkeypatch.setattr(constructions, "orbit_subspace", counting)
    ctx = build_spread_context(F2, 2, 4)
    assert len(spread_type_orbit_odfc(ctx, 85)) == 85
    assert len(spread_type_max_odfc(ctx, 17)) == 85
    assert calls == []
    spread = ctx.spread
    assert ctx.spread is spread and len(calls) == 1
    assert spread == SubspaceCode(field_reduction(U) for U in
                                  enumerate_grassmannian(ctx.extension, 1, 4))
    assert is_spread(spread)
    assert len(ctx.hyperplanes) == 85 and len(calls) == 2


def test_q7_scale_rung_builds_without_walking_orbits():
    # (q=7, k=3, s=3): S and H have 117,993 members each, so this must not
    # read ctx.spread or ctx.hyperplanes
    ctx = build_spread_context(make_field(7, 1), 3, 3)
    code = spread_type_orbit_odfc(ctx, 37)
    assert len(code) == 37  # t / gcd(t, q - 1)
    assert code.dims == (1, 2, 3, 6, 7, 8)
    assert is_odfc_by_definition(code) and is_odfc_by_characterization(code)
    assert ctx._orbits == [None, None]


def test_spread_context_setup_skips_full_code_checks(monkeypatch, F2):
    # op counts, not timings: two seed reductions, no cover scan, no duals
    calls = {"field_reduction": 0, "member_points": 0, "dual": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    reduce = counting("field_reduction", singer.field_reduction)
    for module in (constructions, singer):
        monkeypatch.setattr(module, "field_reduction", reduce)
    monkeypatch.setattr(subspaces, "member_points",
                        counting("member_points", subspaces.member_points))
    monkeypatch.setattr(Subspace, "dual", counting("dual", Subspace.dual))
    ctx = build_spread_context(F2, 2, 4)
    assert len(ctx.spread) == len(ctx.hyperplanes) == 85
    assert calls == {"field_reduction": 2, "member_points": 0, "dual": 0}


def test_spread_context_rejects_bad_shapes(F2):
    try:
        build_spread_context(F2, 2, 1)
    except BadDimensionsError:
        pass
    else:
        raise AssertionError("s = 1 has no proper lines to reduce")
    with pytest.raises(BadDimensionsError):
        build_spread_context(F2, 0, 2)


@pytest.mark.parametrize("e, size", [(1, 7), (2, 21)])
def test_k1_spread_context_holds_every_point(e, size):
    # n = 3: the Singer group of GF(q)^3 itself, no field reduction
    F = make_field(2, e)
    ctx = build_spread_context(F, 1, 3)
    assert ctx.extension is F and ctx.member_stabilizer_order == F.order - 1
    assert len(ctx.spread) == len(ctx.hyperplanes) == size
    assert ctx.spread == SubspaceCode(enumerate_grassmannian(F, 1, 3))
    assert ctx.hyperplanes == SubspaceCode(enumerate_grassmannian(F, 2, 3))
    assert is_spread(ctx.spread)
    code = spread_type_max_odfc(ctx, size)
    assert len(code) == size and code.dims == (1, 2)
    assert is_odfc_by_definition(code) and is_odfc_by_characterization(code)


def test_conjugate_spread(ctx_q2k2s2, F2):
    ctx = ctx_q2k2s2
    same, group = conjugate_spread(ctx, Matrix.identity(F2, 4))
    assert same == ctx.spread
    assert group.generator == ctx.group.generator

    rng = random.Random(642)
    for _ in range(5):
        while True:
            B = Matrix(F2, [[rng.randrange(2) for _ in range(4)]
                            for _ in range(4)], 4)
            if B.is_invertible():
                break
        moved, conj = conjugate_spread(ctx, B)
        assert len(moved) == 5 and is_spread(moved)
        orbit, stab = orbit_subspace(conj, ctx.spread.members[0].apply(B))
        assert orbit == moved and stab == 3

    try:
        conjugate_spread(ctx, Matrix.identity(F2, 3))
    except AmbientMismatchError:
        pass
    else:
        raise AssertionError("3x3 conjugator on a 4-dim context")
    with pytest.raises(SingularMatrixError):
        conjugate_spread(ctx, Matrix.zero(F2, 4, 4))


def test_admissible_dims_and_canonical_flag(ctx_q2k2s2, ctx_q3k3s2, ctx_q4k3s3):
    assert admissible_flag_dims(ctx_q2k2s2) == (1, 2, 3)
    assert admissible_flag_dims(ctx_q3k3s2) == (1, 2, 3, 4, 5)
    assert admissible_flag_dims(ctx_q4k3s3) == (1, 2, 3, 6, 7, 8)
    for ctx in [ctx_q2k2s2, ctx_q3k3s2]:
        flag = canonical_admissible_flag(ctx)
        assert flag.dims == admissible_flag_dims(ctx)
        assert flag.subspaces[ctx.k - 1] in ctx.spread
        assert flag.subspaces[list(flag.dims).index(ctx.n - ctx.k)] in ctx.hyperplanes


def test_spread_type_orbit_q2(ctx_q2k2s2):
    assert admissible_subgroup_orders(ctx_q2k2s2) == [1, 5]
    code = spread_type_orbit_odfc(ctx_q2k2s2, 5)
    assert len(code) == 5
    assert code.min_distance() == 8 == flag_distance_bound(4, (1, 2, 3))
    assert is_odfc_by_definition(code)
    assert is_odfc_by_characterization(code)
    single = spread_type_orbit_odfc(ctx_q2k2s2, 1)
    assert len(single) == 1 and not is_odfc_by_definition(single)


def test_spread_type_gate(ctx_q3k3s2, ctx_q2k2s2):
    # q=3, k=3: q^k - 1 = 26, q - 1 = 2
    try:
        spread_type_orbit_odfc(ctx_q3k3s2, 13)
    except GcdConditionFailedError as e:
        assert "gcd" in str(e) and "13" in str(e)
    else:
        raise AssertionError("gcd(13, 26) = 13 but gcd(13, 2) = 1")
    try:
        spread_type_orbit_odfc(ctx_q3k3s2, 26)
    except GcdConditionFailedError:
        pass
    else:
        raise AssertionError("gcd(26, 26) = 26 but gcd(26, 2) = 2")
    try:
        spread_type_orbit_odfc(ctx_q3k3s2, 5)
    except NotADivisorError:
        pass
    else:
        raise AssertionError("5 does not divide 728")
    with pytest.raises(NotADivisorError):
        table_row(ctx_q3k3s2, 0)
    try:
        spread_type_orbit_odfc(ctx_q2k2s2, 3)
    except GcdConditionFailedError:
        pass
    else:
        raise AssertionError("gcd(3, 3) = 3 but gcd(3, 1) = 1")


def test_spread_type_singleton_rows(ctx_q3k3s2):
    # gcd(t, q - 1) = t gives a singleton orbit: legal input, never optimum
    code = spread_type_orbit_odfc(ctx_q3k3s2, 2)
    assert len(code) == 1
    assert not is_odfc_by_definition(code)
    assert table_row(ctx_q3k3s2, 2) == (2, 1, 28, False)


def test_table1_rows_frozen(ctx_q3k3s2):
    ctx = ctx_q3k3s2
    assert admissible_subgroup_orders(ctx) == [t for t, _, _ in TABLE1]
    for t, size, m in TABLE1:
        row = table_row(ctx, t)
        assert (row.t, row.orbit_size, row.num_orbits) == (t, size, m)
        code = spread_type_orbit_odfc(ctx, t)
        assert len(code) == size
        assert row.is_odfc == is_odfc_by_definition(code)
        assert row.is_odfc == (size > 1)


def test_spread_type_max_q3(ctx_q3k3s2):
    code = spread_type_max_odfc(ctx_q3k3s2, 28)
    assert len(code) == 28
    assert code.min_distance() == 18
    assert is_odfc_by_definition(code)
    proj = projected_code(code, 3)
    assert set(proj.members) == set(ctx_q3k3s2.spread.members)


@pytest.mark.parametrize("name, t", [
    ("ctx_q2k2s4", 1), ("ctx_q2k2s4", 5), ("ctx_q2k2s4", 17), ("ctx_q2k2s4", 85),
    ("ctx_q4k3s2", 1), ("ctx_q4k3s2", 13), ("ctx_q4k3s2", 39),
    ("ctx_q3k3s2", 1), ("ctx_q3k3s2", 4), ("ctx_q3k3s2", 28), ("ctx_q3k3s2", 56),
    ("ctx_q7k2s2", 25), ("ctx_q7k2s2", 5), ("ctx_q25k2s2", 313)])
def test_spread_type_max_is_the_orbits_of_translates(name, t, request):
    """The maximum code is the union of the T-orbits of F g^j, j < m, each
    walked here by orbit_flag, and carries g exactly when m > |O_0|.  The
    build steps byte lanes: over GF(7), t=25 steps O_0 (25 lanes) once by
    g and t=5 steps the chain F g^j, j < 10, four times by T's generator;
    over GF(25), t=313 maps Flag.apply instead."""
    ctx = request.getfixturevalue(name)
    q = ctx.base_field.order
    m = (q ** ctx.n - 1) * gcd(t, q - 1) // ((q ** ctx.k - 1) * t)
    T = ctx.group.subgroup_of_order(t)
    g = ctx.group.generator
    rep = canonical_admissible_flag(ctx)
    orbits = []
    for _ in range(m):
        orbits.append(orbit_flag(T, rep)[0])
        rep = rep.apply(g)
    reference = union_flag_codes(orbits, require_additive=True)
    code = spread_type_max_odfc(ctx, t)
    assert code.members == reference.members
    assert len(code) == (q ** ctx.n - 1) // (q ** ctx.k - 1)
    assert code.generator == (g if m > len(orbits[0]) else T.generator)
    assert is_odfc_by_characterization(code)


def test_critical_levels_are_checked_over_the_whole_union(ctx_q2k2s4, F2):
    """_check_critical_levels reads every member's level at each critical
    index (dims 2 and 6 of the type (1, 2, 6, 7) on GF(2)^8), so it refuses
    a union in which one flag repeats another's level 2 only, whichever
    orbit or translate the two come from, though no flag repeats."""
    members = list(spread_type_max_odfc(ctx_q2k2s4, 17).members)
    _check_critical_levels(members)
    f = members[0]
    line, plane = f.subspaces[:2]
    other = next(Subspace(F2, 8, [v]) for v in plane.rows
                 if Subspace(F2, 8, [v]) != line)  # another point of f's plane
    # the union holds every hyperplane of GF(4)^4, so level 6 is none of them
    hyperplanes = {m.subspaces[2] for m in members}
    rng = random.Random(6)
    rows = list(plane.rows)
    while len(rows) < 7 or Subspace(F2, 8, rows[:6]) in hyperplanes:
        rows = list(plane.rows)
        while len(rows) < 7:
            v = tuple(rng.randrange(2) for _ in range(8))
            if Subspace(F2, 8, rows + [v]).dim > len(rows):
                rows.append(v)
    twin = Flag([other, plane, Subspace(F2, 8, rows[:6]), Subspace(F2, 8, rows)])
    assert twin not in members
    _check_critical_levels(members[1:] + [twin])
    with pytest.raises(AssertionError, match="level of dimension 2"):
        _check_critical_levels(members + [twin])


def test_spread_type_max_q2(ctx_q2k3s2):
    ctx = ctx_q2k3s2
    assert admissible_subgroup_orders(ctx) == [1, 3, 9]
    code = spread_type_max_odfc(ctx, 3)
    assert len(code) == 9
    assert code.min_distance() == 18 == flag_distance_bound(6, code.dims)
    assert is_odfc_by_definition(code)
    assert set(projected_code(code, 3).members) == set(ctx.spread.members)
    # s = 2 collapses the two sides: lines of GF(q^k)^2 are its hyperplanes
    assert set(ctx.hyperplanes.members) == set(ctx.spread.members)


def test_spread_type_orbit_levels_stay_in_context_codes(ctx_q4k3s3):
    ctx = ctx_q4k3s3
    code = spread_type_orbit_odfc(ctx, 57)
    assert len(code) == 19
    proj_k = projected_code(code, 3)
    proj_h = projected_code(code, 4)
    assert set(proj_k.members) <= set(ctx.spread.members)
    assert set(proj_h.members) <= set(ctx.hyperplanes.members)


def test_full_type_context(ftx_q2k2, F2):
    assert ftx_q2k2.n == 5
    assert ftx_q2k2.group.order == 7
    try:
        build_full_type_context(F2, 1)
    except BadDimensionsError:
        pass
    else:
        raise AssertionError("k = 1 is the spread type with s = 3")


def test_full_type_generator_flag_frozen(ftx_q2k2):
    flag = full_type_generator_flag(ftx_q2k2)
    assert flag.dims == (1, 2, 3, 4)
    assert [s.rows for s in flag.subspaces] == [
        ((1, 0, 0, 1, 0),),
        ((1, 0, 0, 1, 0), (0, 1, 0, 0, 1)),
        ((1, 0, 0, 1, 0), (0, 1, 0, 0, 1), (0, 0, 1, 0, 0)),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))]


def test_full_type_orbit_and_max(ftx_q2k2, ftx_q3k2):
    orbit = full_type_orbit_odfc(ftx_q2k2, full_type_generator_flag(ftx_q2k2))
    assert len(orbit) == 7
    assert orbit.min_distance() == 12 == flag_distance_bound(5, orbit.dims)
    assert is_odfc_by_definition(orbit)

    mx = full_type_max_odfc(ftx_q2k2)
    assert len(mx) == 9
    assert mx.min_distance() == 12
    assert is_odfc_by_definition(mx)
    assert is_odfc_by_characterization(mx)
    for idx in (2, 3):
        proj = projected_code(mx, idx)
        assert len(proj) == 9 and proj.min_distance() == 4
    assert is_partial_spread(projected_code(mx, 2))

    o3 = full_type_orbit_odfc(ftx_q3k2, full_type_generator_flag(ftx_q3k2))
    m3 = full_type_max_odfc(ftx_q3k2)
    assert (len(o3), o3.min_distance()) == (26, 12)
    assert (len(m3), m3.min_distance()) == (28, 12)
    assert is_odfc_by_definition(o3) and is_odfc_by_definition(m3)


def test_every_projection_of_a_built_code_is_at_its_maximum(
        ctx_q2k2s2, ctx_q3k3s2, ftx_q2k2, ftx_q3k2, monkeypatch):
    """Every level of every orbit and maximum code the two constructions
    build reaches its maximum distance, so the cover scan decides each
    projection with no subspace_distance pair: a subspace code has no use
    for a generator."""
    codes = []
    for ctx in (ctx_q2k2s2, ctx_q3k3s2):
        for t in admissible_subgroup_orders(ctx):
            codes += [spread_type_orbit_odfc(ctx, t), spread_type_max_odfc(ctx, t)]
    for ctx in (ftx_q2k2, ftx_q3k2):
        codes += [full_type_orbit_odfc(ctx, full_type_generator_flag(ctx)),
                  full_type_max_odfc(ctx)]
    codes = [code for code in codes if len(code) > 1]
    assert len(codes) == 21
    pairs = []
    distance = subspaces.subspace_distance
    monkeypatch.setattr(subspaces, "subspace_distance",
                        lambda *args: pairs.append(1) or distance(*args))
    for code in codes:
        for i, t in enumerate(code.dims, start=1):
            proj = projected_code(code, i)
            assert proj.min_distance() == max_distance_bound(code.n, t), (code, i)
    assert pairs == []


def test_full_type_input_gates(ftx_q2k2, F2):
    try:
        full_type_generator_flag(ftx_q2k2, U1=[[1, 0], [1, 0]])
    except RankDeficientError:
        pass
    else:
        raise AssertionError("rank-1 U1 accepted")
    with pytest.raises(RankDeficientError):
        full_type_generator_flag(ftx_q2k2, U2=[[0, 0, 0], [0, 0, 0]])
    # default v1 = 0, v2 = e1: forcing (v1 | v2) into rowsp(U1 | U2)
    try:
        full_type_generator_flag(ftx_q2k2, v1=[[1, 0]], v2=[[0, 1, 0]])
    except NotExtendingError:
        pass
    else:
        raise AssertionError("(v1 | v2) equal to row 1 of (U1 | U2)")
    try:
        full_type_max_odfc(ftx_q2k2, v2=[[0, 1, 0]])
    except NotExtendingError:
        pass
    else:
        raise AssertionError("v2 inside rowsp(U2) makes V2 singular")
    with pytest.raises(BadDimensionsError):
        full_type_generator_flag(ftx_q2k2, U1=[[1, 0, 0], [0, 1, 0]])

    flag = full_type_generator_flag(ftx_q2k2)
    partial = [s for s in flag.subspaces if s.dim != 2]
    try:
        full_type_orbit_odfc(ftx_q2k2, Flag(partial))
    except TypeMismatchError:
        pass
    else:
        raise AssertionError("non-full flag in the full-type construction")


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2)])
def test_completion_flags_adjoin_the_lowest_standard_vectors(p, e):
    """The generator flag and the two one-sided completions for random
    admissible (U1, U2, v1, v2), U1 and V2 = (U2 over v2) invertible: level
    i <= k spans the first i rows, level k + 1 adds (v1 | v2), and each
    level above is the level below plus the lowest-index standard vector
    outside it, all checked by reference row reduction."""
    F = make_field(p, e)
    q = F.order
    rng = random.Random(f"completion:{p}^{e}")
    for k in (2, 3):
        ctx = build_full_type_context(F, k)
        n = ctx.n
        standard = [tuple(int(i == j) for j in range(n)) for i in range(n)]

        def draw(nrows, ncols):
            return [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        checked = 0
        while checked < 5:
            U1, U2, v1, v2 = draw(k, k), draw(k, k + 1), draw(1, k), draw(1, k + 1)
            if len(ref_rref(F, U1)) < k or len(ref_rref(F, U2 + v2)) < k + 1:
                continue
            checked += 1
            v = v1[0] + v2[0]
            flags = [(full_type_generator_flag(ctx, U1, U2, v1, v2),
                      [a + b for a, b in zip(U1, U2)])]
            for U in ([a + [0] * (k + 1) for a in U1], [[0] * k + b for b in U2]):
                flags.append((constructions._completion_flag(
                    ctx, Matrix(F, U), Matrix(F, [v])), U))
            for flag, U in flags:
                assert flag.dims == tuple(range(1, n))
                for i in range(1, k + 1):
                    assert flag.levels[i - 1] == ref_rref(F, U[:i])
                assert flag.levels[k] == ref_rref(F, U + [v])
                for d in range(k + 1, n - 1):
                    below = flag.levels[d - 1]
                    lowest = next(x for x in standard
                                  if len(ref_rref(F, below + (x,))) > d)
                    assert flag.levels[d] == ref_rref(F, below + (lowest,))
        # (v1 | v2) the first row of (U1 | U2): no level k + 1
        with pytest.raises(NotExtendingError):
            full_type_generator_flag(ctx, U1, U2, U1[:1], U2[:1])
        with pytest.raises(NotExtendingError):
            constructions._completion_flag(ctx, Matrix(F, U), Matrix(F, U[:1]))


def test_full_type_degenerate_but_valid_flag(ftx_q2k2):
    # v2 inside rowsp(U2) is legal for the plain orbit when v1 keeps the
    # chain growing; the orbit then misses the bound at the (k+1) level
    deg = full_type_generator_flag(ftx_q2k2, v1=[[0, 1]], v2=[[0, 1, 0]])
    orbit = full_type_orbit_odfc(ftx_q2k2, deg)
    assert len(orbit) == 7
    assert orbit.min_distance() == 10 < 12
    assert not is_odfc_by_definition(orbit)
    assert not is_odfc_by_characterization(orbit)


def test_full_type_nonzero_v1_hook_breaks_optimality(ftx_q2k2, F2):
    hooked = _max_code_with_hook(
        ftx_q2k2, Matrix.identity(F2, 2),
        Matrix.identity(F2, 3).take_rows(1, 3),
        Matrix(F2, [[1, 0]], 2), Matrix(F2, [[1, 0, 0]], 3))
    assert len(hooked) == 9
    assert hooked.min_distance() == 10 < 12
    assert not is_odfc_by_definition(hooked)


def test_orbit_walk_builds_no_subspaces(F4, monkeypatch):
    """A walk keeps each flag as the key the kernel writes: while the
    65-flag maximum code for q=4, k=3, s=2 is built, Flag.apply runs 13
    times, once per step of the walk of O_0, and makes no Subspace; the 52
    translates step as byte lanes and read no row.  Only the seed, made by
    Flag(...), scans its key for its adapted rows: each walked image's are
    named by the apply that made it."""
    ctx = build_spread_context(F4, 3, 2)
    applying = []
    applied = []
    made = []
    scanned = []
    apply, from_rref = Flag.apply, Subspace._from_rref.__func__
    adapted = Flag._adapted_rows

    def counted_apply(flag, A):
        applying.append(flag)
        applied.append(flag)
        try:
            return apply(flag, A)
        finally:
            applying.pop()

    def counted_from_rref(cls, *args):
        if applying:
            made.append(args)
        return from_rref(cls, *args)

    def counted_adapted(flag):
        if flag._adapted is None:
            scanned.append(flag)
        return adapted(flag)
    monkeypatch.setattr(Flag, "apply", counted_apply)
    monkeypatch.setattr(Subspace, "_from_rref", classmethod(counted_from_rref))
    monkeypatch.setattr(Flag, "_adapted_rows", counted_adapted)
    code = spread_type_max_odfc(ctx, 13)
    assert len(code) == 65 and made == []
    assert len(applied) == 13
    assert scanned == [canonical_admissible_flag(ctx)]


def test_long_orbit_walks_its_head_flag_by_flag(ctx_q4k3s3, monkeypatch):
    """O_0 for q=4, k=3, s=3, t=1387 is 1,387 flags, but its walk applies
    Flag.apply only to make members 1..19 of its head: the rest come from
    lane steps, each of all members found so far, trimmed where 73 or
    1,387, divisors of the group order, may end the orbit, so no lane
    passes position 1,387.  Its maximum code steps its translates as lanes
    too.  The members are the per-flag walk's, each named by a tuple
    record, as an apply names them."""
    ctx = ctx_q4k3s3
    T = ctx.group.subgroup_of_order(1387)
    seed = canonical_admissible_flag(ctx)
    ref = subspaces.orbit_walk(seed, T.generator)
    apply, step = Flag.apply, flags._lane_step
    applied, widths = [], []
    monkeypatch.setattr(Flag, "apply", lambda f, A: applied.append(f) or apply(f, A))
    monkeypatch.setattr(flags, "_lane_step",
                        lambda *a, **k: widths.append(a[3]) or step(*a, **k))
    orbit = spread_type_orbit_odfc(ctx, 1387)
    assert len(applied) == flags._LANE_HEAD - 1 == 19
    # positions 20..1387, each once: trimmed at 73 and at 1,387
    assert widths == [20, 34, 74, 148, 296, 592, 204]
    assert orbit.members == tuple(sorted(ref, key=lambda f: f.key))
    assert all(type(f._adapted) is tuple and len(f._adapted) == f.dims[-1]
               for f in orbit if f != seed)
    applied.clear()
    assert len(spread_type_max_odfc(ctx, 1387)) == 4161
    assert len(applied) == 19


def _check_one_bytes_string(F, t, size):
    """Each member of the maximum code for k=3, s=2 over F is one bytes
    string of its n * sum(dims) codes, one byte each: no row tuple or list,
    and no Subspace.  Beside it, a member of O_0 but the seed keeps a tuple
    naming its adapted rows (O_0 closes inside the walk's head, so an apply
    made each), and a translate stepped as a byte lane keeps the empty
    tuple until its first read, which scans its key and keeps the indices
    it finds, no rows.  Its levels view is canonical, the reference
    reduction of the first t_i named rows at each level, and the named
    rows are those a scan of its key finds.  A pickled or parsed copy
    keeps equality, hash and apply."""
    ctx = build_spread_context(F, 3, 2)
    seed = canonical_admissible_flag(ctx)
    code = spread_type_max_odfc(ctx, t)
    assert len(code) == size and seed in code
    orbit = set(spread_type_orbit_odfc(ctx, t))
    g = ctx.group.generator
    for f in code:
        assert type(f.key) is bytes and len(f.key) == f.n * sum(f.dims)
        assert f._subspaces is None or f == seed
        if f not in orbit:  # a lane: no record until read
            assert f._adapted == ()
        elif f != seed:  # the seed found its rows by a scan, and keeps them
            assert type(f._adapted) is tuple and len(f._adapted) == f.dims[-1]
            assert all(type(i) is int for i in f._adapted)
        named = f._adapted_rows()
        if f != seed:
            assert type(f._adapted) is tuple and len(f._adapted) == f.dims[-1]
            assert [f.key[i * f.n:i * f.n + f.n] for i in f._adapted] == named
        assert all(type(row) is bytes for row in named)
        for t_i, level in zip(f.dims, f.levels):
            assert level == ref_rref(F, level) == ref_rref(F, named[:t_i])
        scanned = Flag._trusted(F, f.n, f.key, f.dims)._adapted_rows()
        assert sorted(named) == sorted(scanned)
    for f in code.members[::7]:
        back = pickle.loads(pickle.dumps(f))
        assert back == f and hash(back) == hash(f) and back.apply(g) == f.apply(g)
    parsed = parse_code_file(format_flag_code(code)).code
    assert parsed == code
    assert [f.key for f in parsed] == [f.key for f in code]


def test_a_flag_is_one_bytes_string(F4):
    """The 65-flag maximum code for q=4: rows packed by XOR lanes."""
    _check_one_bytes_string(F4, 13, 65)


def test_an_odd_flag_is_one_bytes_string(F3):
    """The 28-flag maximum code for q=3: rows packed in lanes added
    modulo 3."""
    _check_one_bytes_string(F3, 14, 28)


def test_maximum_code_retains_one_key_per_flag(F4):
    """The 4,161-flag (q=4, k=3, s=3, t=57) maximum code, built from a
    fresh context, retains about 1.6 MiB under tracemalloc: per flag one
    243-byte key and the Flag.  The translates step as byte lanes and keep
    no adapted record; with a record tuple per flag it retained about
    2.0 MiB, and flags of row tuples sharing a lineage pool about 6.8 MiB.
    The bound is 1.6 MiB plus 25%."""
    ctx = build_spread_context(F4, 3, 3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = spread_type_max_odfc(ctx, 57)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(code) == 4161
    assert kept < 2.0 * 2 ** 20, kept
