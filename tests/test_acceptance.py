"""Release gate: one test per numbered acceptance criterion.

Every criterion re-derives its numbers from scratch inside a wall-clock
budget; the expected values are frozen by hand.  The summary hook in
conftest prints one PASS/FAIL line per criterion at the end of the run.
"""

import random
import time

from conftest import (enumerate_grassmannian, pair_scan_distance, ref_add,
                      ref_mul)
from flagcodes import (Flag, FlagCode, Matrix, Subspace,
                       SubspaceCode, dual_code,
                       field_reduction, flag_distance, flag_distance_bound,
                       full_type_generator_flag, full_type_max_odfc,
                       full_type_orbit_odfc, is_disjoint,
                       is_odfc_by_characterization, is_odfc_by_definition,
                       is_spread, orbit_subspace, phi,
                       projected_code, psi, spread_type_max_odfc,
                       spread_type_orbit_odfc, subspace_distance, table_row)
from flagcodes.constructions import _max_code_with_hook


class budget:
    """Context manager that fails the test when the block runs too long."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            assert time.monotonic() - self.t0 < self.seconds


TABLE_Q3 = (
    (1, 1, 28),
    (2, 1, 28),
    (4, 2, 14),
    (7, 7, 4),
    (8, 4, 7),
    (14, 7, 4),
    (28, 14, 2),
    (56, 28, 1),
)

TABLE_Q4 = (
    (1, 1, 4161),
    (3, 1, 4161),
    (19, 19, 219),
    (57, 19, 219),
    (73, 73, 57),
    (219, 73, 57),
    (1387, 1387, 3),
    (4161, 1387, 3),
)


def test_criterion_01_table_q3_rows(ctx_q3k3s2):
    with budget(10):
        for t, size, m in TABLE_Q3:
            row = table_row(ctx_q3k3s2, t)
            assert row.t == t
            assert row.orbit_size == size
            assert row.num_orbits == m
            assert row.is_odfc == (size > 1)
            # counted from a materialized orbit, not read off a formula
            assert len(spread_type_orbit_odfc(ctx_q3k3s2, t)) == size


def test_criterion_02_table_q4_rows(ctx_q4k3s3):
    with budget(120):
        for t, size, m in TABLE_Q4:
            row = table_row(ctx_q4k3s3, t)
            assert row.orbit_size == size
            assert row.num_orbits == m
            assert row.is_odfc == (size > 1)
        orbit = spread_type_orbit_odfc(ctx_q4k3s3, 1387)
        assert len(orbit.members) == 1387


def test_criterion_03_spread_contexts(ctx_q2k2s2, ctx_q2k3s2):
    with budget(1):
        for ctx, size, stab in ((ctx_q2k2s2, 5, 3), (ctx_q2k3s2, 9, 7)):
            assert len(ctx.spread) == size
            assert is_spread(ctx.spread)
            orbit, got = orbit_subspace(ctx.group, ctx.spread.members[0])
            assert orbit == ctx.spread
            assert got == stab
            assert ctx.member_stabilizer_order == stab


def test_criterion_04_spread_type_max_q3(ctx_q3k3s2):
    with budget(5):
        code = spread_type_max_odfc(ctx_q3k3s2, 28)
        assert len(code) == 28
        pair_dists = [flag_distance(code.members[i], code.members[j])
                      for i in range(28) for j in range(i + 1, 28)]
        assert len(pair_dists) == 378
        assert min(pair_dists) == 18
        assert flag_distance_bound(6, code.dims) == 18
        assert is_odfc_by_definition(code)


def test_criterion_05_full_type_sizes(ftx_q2k2, ftx_q3k2):
    with budget(1):
        orb = full_type_orbit_odfc(ftx_q2k2, full_type_generator_flag(ftx_q2k2))
        assert len(orb) == 7
        dists = [flag_distance(orb.members[i], orb.members[j])
                 for i in range(7) for j in range(i + 1, 7)]
        assert len(dists) == 21
        assert min(dists) == 12
        assert flag_distance_bound(5, orb.dims) == 12

        mx = full_type_max_odfc(ftx_q2k2)
        assert len(mx) == 9
        assert len(mx) == 2 ** 3 + 1
        dists = [flag_distance(mx.members[i], mx.members[j])
                 for i in range(9) for j in range(i + 1, 9)]
        assert len(dists) == 36
        assert min(dists) == 12

        orb3 = full_type_orbit_odfc(ftx_q3k2, full_type_generator_flag(ftx_q3k2))
        mx3 = full_type_max_odfc(ftx_q3k2)
        assert len(orb3) == 26
        assert len(mx3) == 28
        assert len(mx3) == 3 ** 3 + 1
        assert is_odfc_by_definition(orb3)
        assert is_odfc_by_definition(mx3)


def random_chain_code(rng, F, want):
    # distinct full-rank 4x4 matrices, flags from their leading rows
    flags = set()
    while len(flags) < want:
        M = Matrix(F, [[rng.randrange(F.order) for _ in range(4)]
                       for _ in range(4)])
        if M.rank() != 4:
            continue
        flags.add(Flag([Subspace(F, 4, M.rows[:d]) for d in (1, 2, 3)]))
    return FlagCode(flags)


def test_criterion_06_verdicts_agree(ctx_q3k3s2, ctx_q4k3s3, ftx_q2k2,
                                     ftx_q3k2, F2):
    with budget(30):
        built = [spread_type_orbit_odfc(ctx_q3k3s2, t) for t, _, _ in TABLE_Q3]
        built.append(spread_type_max_odfc(ctx_q3k3s2, 28))
        built.append(spread_type_orbit_odfc(ctx_q4k3s3, 1387))
        built.append(full_type_orbit_odfc(
            ftx_q2k2, full_type_generator_flag(ftx_q2k2)))
        built.append(full_type_max_odfc(ftx_q2k2))
        built.append(full_type_orbit_odfc(
            ftx_q3k2, full_type_generator_flag(ftx_q3k2)))
        built.append(full_type_max_odfc(ftx_q3k2))
        for code in built:
            assert is_odfc_by_definition(code) == is_odfc_by_characterization(code)

        rng = random.Random(424242)
        for _ in range(500):
            code = random_chain_code(rng, F2, rng.randint(2, 5))
            assert is_odfc_by_definition(code) == is_odfc_by_characterization(code)


def exact_rank_matrix(rng, F, rows, cols, r):
    for _ in range(500):
        M = Matrix(F, [[rng.randrange(F.order) for _ in range(cols)]
                       for _ in range(rows)])
        if M.rank() == r:
            return M
    raise AssertionError(f"no rank-{r} sample in 500 draws")


def test_criterion_07_rank_condition_oracle(ftx_q2k2, F2):
    # orbits of rowspace(U1 | U2) at dimensions k and k+1 reach the distance
    # ceiling exactly when both blocks have full rank
    with budget(60):
        G = ftx_q2k2.group
        rng = random.Random(9091)
        cases = (
            (2, 2, 3, ((0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)), (2, 2)),
            (3, 2, 3, ((0, 3), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)), (2, 3)),
        )
        for dim, c1, c2, combos, full in cases:
            seen = 0
            for r1, r2 in combos:
                hits = 0
                while hits < 17:
                    left = exact_rank_matrix(rng, F2, dim, c1, r1)
                    right = exact_rank_matrix(rng, F2, dim, c2, r2)
                    stacked = Matrix(F2, [lr + rr for lr, rr in
                                          zip(left.rows, right.rows)])
                    if stacked.rank() != dim:
                        continue
                    hits += 1
                    seen += 1
                    orbit, _ = orbit_subspace(G, Subspace(F2, 5, stacked.rows))
                    attains = (len(orbit) > 1
                               and pair_scan_distance(orbit) == 4)
                    assert attains == ((r1, r2) == full)
            assert seen >= 100


def test_criterion_08_nonzero_hook_breaks_middle_level(ftx_q2k2, F2):
    with budget(10):
        U1 = Matrix.identity(F2, 2)
        U2 = Matrix.identity(F2, 3).take_rows(1, 3)
        v2 = Matrix(F2, [[1, 0, 0]])
        for v1 in ((1, 0), (0, 1), (1, 1)):
            code = _max_code_with_hook(ftx_q2k2, U1, U2,
                                       Matrix(F2, [list(v1)]), v2)
            assert len(code) == 9
            level = [f.subspaces[2] for f in code.members]
            clash = min(subspace_distance(level[i], level[j])
                        for i in range(9) for j in range(i + 1, 9))
            assert clash < 4
            assert pair_scan_distance(code) < 12
            if v1 == (1, 0):
                assert pair_scan_distance(code) == 10


def test_criterion_09_reduction_and_metric_suites(F2, F4):
    with budget(30):
        for a in range(4):
            for b in range(4):
                pa, pb, ps = (phi(F4, c).rows for c in (a, b, ref_add(F4, a, b)))
                assert all(ref_add(F2, x, y) == z for ra, rb, rs in zip(pa, pb, ps)
                           for x, y, z in zip(ra, rb, rs))
                assert phi(F4, ref_mul(F4, a, b)) == phi(F4, a) @ phi(F4, b)

        lines = list(enumerate_grassmannian(F4, 1, 2))
        assert len(lines) == 5
        units = [Matrix(F4, [[a, b], [c, d]])
                 for a in range(4) for b in range(4)
                 for c in range(4) for d in range(4)]
        units = [A for A in units if A.rank() == 2]
        assert len(units) == 180
        for A in units:
            pA = psi(A)
            for L in lines:
                assert field_reduction(L.apply(A)) == field_reduction(L).apply(pA)

        planes = list(enumerate_grassmannian(F2, 2, 4))
        assert len(planes) == 35
        D = [[subspace_distance(planes[i], planes[j]) for j in range(35)]
             for i in range(35)]
        for i in range(35):
            for j in range(35):
                assert D[i][j] == D[j][i]
                assert (D[i][j] == 0) == (i == j)
                for m in range(35):
                    assert D[i][j] <= D[i][m] + D[m][j]

        rng = random.Random(8128)
        pool = {d: list(enumerate_grassmannian(F2, d, 4)) for d in (1, 2, 3)}
        for _ in range(100):
            d = rng.choice((1, 2, 3))
            C = SubspaceCode(rng.sample(pool[d], rng.randint(2, 4)))
            DC = dual_code(C)
            assert len(DC) == len(C)
            assert all(m.dim == 4 - d for m in DC)
            assert pair_scan_distance(DC) == pair_scan_distance(C)


def test_criterion_10_worked_example_code(F2):
    with budget(1):
        def span(*vecs):
            return Subspace(F2, 6, tuple(tuple(1 if j == i else 0 for j in range(6))
                                         for i in vecs))

        f1 = Flag([span(0, 1), span(0, 1, 2)])
        f2 = Flag([span(0, 2), span(0, 1, 2)])
        f3 = Flag([span(3, 4), span(3, 4, 5)])
        code = FlagCode([f1, f2, f3])

        c1 = projected_code(code, 1)
        c2 = projected_code(code, 2)
        assert len(c1) == 3
        assert pair_scan_distance(c1) == 2
        assert len(c2) == 2
        assert pair_scan_distance(c2) == 6
        assert not is_disjoint(code)
        assert not is_odfc_by_definition(code)
        assert not is_odfc_by_characterization(code)
