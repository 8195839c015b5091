"""Right actions of matrices on subspaces and flags.

Subspace.apply and Flag.apply run on trusted kernel output; these tests hold
them to the public, validated constructors and to the reference field
arithmetic of conftest, and check that a bad matrix is refused rather than
producing an invalid subspace or flag.  Every row reduction runs through one
kernel, `matrices.rref_code_rows`, or, where only a rank is read, its
forward half `matrices.rank_code_rows`; a Gauss-Jordan on the reference
arithmetic, which never reads the field tables, is the independent check of
both and of each of their callers.  Both applies run `act_code_rows`, the
product by the acting matrix followed by `rref_code_rows`, which over
GF(2^e), e <= 8, and GF(p), p <= 127, reads the matrix's kept table of
scaled rows.
"""

import pickle
import random
from math import gcd

import pytest

from conftest import random_invertible, ref_add, ref_mul, ref_product, ref_rref
from flagcodes import (CyclicMatrixGroup, Flag, Matrix, Subspace,
                       build_full_type_context, build_spread_context,
                       canonical_admissible_flag, extend_field, flag_distance,
                       full_type_generator_flag, level_distances, make_field,
                       orbit_flag, subspace_distance)
from flagcodes.errors import (AmbientMismatchError, MixedFieldsError,
                              ShapeError, SingularMatrixError)
from flagcodes.fields import divisors
from flagcodes.flags import translates, walk
from flagcodes.matrices import (_packed_bodies, act_code_rows, kernel_code_rows,
                                mul_code_rows, rank_code_rows, rref_code_rows)
from flagcodes.subspaces import orbit_walk


def random_flag(rng, F, n, dims):
    M = random_invertible(rng, F, n)
    return Flag([Subspace(F, n, M.rows[:t]) for t in dims])


def test_flag_apply_matches_validated_rebuild():
    rng = random.Random(2024)
    # full, spread-admissible and gapped types
    types = [(5, (1, 2, 3, 4)), (6, (1, 2, 4, 5)), (6, (1, 2, 3)), (7, (2, 5))]
    for q_args in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        F = make_field(*q_args)
        for n, dims in types:
            for _ in range(6):
                flag = random_flag(rng, F, n, dims)
                A = random_invertible(rng, F, n)
                image = flag.apply(A)
                rebuilt = Flag([Subspace(F, n, (Matrix(F, s.rows, n) @ A).rows)
                                for s in flag.subspaces])
                assert image == rebuilt
                assert image.dims == rebuilt.dims == dims
                assert [s.rows for s in image.subspaces] == \
                       [s.rows for s in rebuilt.subspaces]
                assert [s.apply(A) for s in flag.subspaces] == list(image.subspaces)


def sharing_flag(rng, F, flag, j):
    """A random flag of flag's type whose first j levels are flag's."""
    n, dims = flag.n, flag.dims
    rows = list(flag._adapted_rows()[:dims[j - 1]] if j else ())
    while len(rows) < dims[-1]:
        v = tuple(rng.randrange(F.order) for _ in range(n))
        if len(rref_code_rows(F, rows + [v])[0]) > len(rows):
            rows.append(v)
    return Flag([Subspace(F, n, rows[:t]) for t in dims])


def test_level_distances_match_per_level_distances():
    """One elimination per pair against one subspace_distance per level."""
    rng = random.Random(909)
    # full, spread-admissible and gapped types
    types = [(5, (1, 2, 3, 4)), (6, (1, 2, 4, 5)), (6, (1, 2, 3)), (7, (2, 5))]
    early_full = 0  # pairs whose sum is the whole space below the top level
    for q_args in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        F = make_field(*q_args)
        for n, dims in types:
            for _ in range(4):
                f = random_flag(rng, F, n, dims)
                others = [f, random_flag(rng, F, n, dims)]
                others += [sharing_flag(rng, F, f, j) for j in range(1, len(dims))]
                for g in others:
                    ds = level_distances(f, g)
                    assert ds == tuple(subspace_distance(u, v) for u, v in
                                       zip(f.subspaces, g.subspaces))
                    assert ds == level_distances(g, f)
                    assert flag_distance(f, g) == sum(ds)
                    early_full += any(d == 2 * (n - t)
                                      for d, t in zip(ds[:-1], dims) if 2 * t >= n)
                assert level_distances(f, f) == (0,) * len(dims)
                j = rng.randrange(1, len(dims))
                assert level_distances(f, sharing_flag(rng, F, f, j))[:j] == (0,) * j
    assert early_full


def test_singular_matrix_is_refused():
    F2 = make_field(2, 1)
    flag = Flag([Subspace.standard(F2, 4, 1), Subspace.standard(F2, 4, 2)])
    A = Matrix(F2, [(1, 0, 1, 0), (1, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 4)
    with pytest.raises(SingularMatrixError):
        flag.apply(A)
    with pytest.raises(SingularMatrixError):
        Subspace.standard(F2, 4, 2).apply(A)
    # the line alone keeps its dimension, so acting on it is still fine
    assert Subspace.standard(F2, 4, 1).apply(A).dim == 1


def test_misfit_matrices_are_refused():
    F2, F3 = make_field(2, 1), make_field(3, 1)
    sub = Subspace.standard(F2, 4, 2)
    flag = Flag([Subspace.standard(F2, 4, 1), sub])
    cases = [(Matrix(F2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]), ShapeError),
             (Matrix(F2, [(1, 0, 0, 0, 0)] * 4, 5), ShapeError),
             (Matrix.identity(F2, 3), AmbientMismatchError),
             (Matrix.identity(F3, 4), MixedFieldsError)]
    for A, error in cases:
        for target in (sub, flag):
            with pytest.raises(error):
                target.apply(A)


def _ref_inverse(F, rows):
    n = len(rows)
    aug = [r + tuple(int(i == j) for j in range(n)) for i, r in enumerate(rows)]
    return [r[n:] for r in ref_rref(F, aug)]


def test_kernels_above_the_table_limit():
    F = make_field(2, 11)  # order 2048: the tables are computed views
    assert F.order > 1024
    rng = random.Random(11)
    n = 4
    for _ in range(3):
        A = random_invertible(rng, F, n)
        B = Matrix(F, [[rng.randrange(F.order) for _ in range(n)]
                       for _ in range(3)], n)
        assert (B @ A).rows == tuple(ref_product(F, B.rows, A.rows))
        low = Matrix(F, B.rows + (tuple(rng.randrange(F.order) for _ in range(n)),
                                  B.rows[0]), n)
        ref = ref_rref(F, low.rows)
        assert rref_code_rows(F, low.rows) == [ref] and low.rank() == len(ref)

        flag = random_flag(rng, F, n, (1, 3))
        image = flag.apply(A)
        for s, t in zip(image.subspaces, flag.subspaces):
            assert s.rows == ref_rref(F, ref_product(F, t.rows, A.rows))


def _random_rows(rng, F, count, n):
    """count rows of length n, some zero and some combinations of earlier rows."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append((0,) * n)
        elif kind < 0.45 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.randrange(F.order)
            rows.append(tuple(ref_add(F, x, ref_mul(F, c, y)) for x, y in zip(a, b)))
        else:
            rows.append(tuple(rng.randrange(F.order) for _ in range(n)))
    return rows


def _field(p, e):
    """GF(p^e); e = (a, b) is the tower GF((p^a)^b) over GF(p^a)."""
    if isinstance(e, tuple):
        return extend_field(make_field(p, e[0]), e[1])
    return make_field(p, e)


@pytest.mark.parametrize("p, e", [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (2, 8), (127, 1), (131, 1),
    (3, 2), pytest.param(2, (2, 2), id="2-2x2"), (2, 11)])
def test_row_reduction_kernel_matches_reference(p, e):
    """Every reduction runs through rref_code_rows, or rank_code_rows where
    only a rank is read; check both, every prefix rank of the second,
    mul_code_rows, and each caller against Gauss-Jordan in the reference
    arithmetic.  Characteristic 2 up to order 256 (GF(16) over GF(4)
    included) runs the packed rows added by XOR, and GF(p), p <= 127, the
    packed rows added modulo p, one byte per code; GF(2^11), GF(9) and
    GF(131) run the tables."""
    F = _field(p, e)
    assert (F.byte_scalers() is not None) == (
        p == 2 and F.order <= 256 or F.order == p <= 127)
    rng = random.Random(f"rref:{p}^{e}")
    assert rref_code_rows(F, []) == [()]
    assert rref_code_rows(F, [], ()) == []
    assert rank_code_rows(F, []) == [0]
    assert rank_code_rows(F, [], ()) == []
    for n in (1, 2, 4):
        # full rank inside the first block, then more rows: every later
        # snapshot is the identity, whatever the rows after it
        basis = random_invertible(rng, F, n).rows
        rows = _random_rows(rng, F, 2, n) + list(basis) + _random_rows(rng, F, 3, n)
        sizes = list(range(len(rows) + 1))
        snaps = rref_code_rows(F, rows, sizes)
        assert snaps == [ref_rref(F, rows[:t]) for t in sizes]
        assert snaps[-1] == tuple(tuple(int(i == j) for j in range(n))
                                  for i in range(n))
        assert rref_code_rows(F, rows) == [snaps[-1]]
        assert rank_code_rows(F, rows, sizes) == [len(ref) for ref in snaps]
        assert rank_code_rows(F, rows) == [n]
        assert mul_code_rows(F, rows, basis, n) == ref_product(F, rows, basis)
    for n in (9, 12):
        # packed rows of 72 and 96 bits: past one machine word
        rows = _random_rows(rng, F, n + 3, n)
        sizes = sorted(rng.sample(range(len(rows) + 1), 3))
        refs = [ref_rref(F, rows[:t]) for t in sizes]
        assert rref_code_rows(F, rows, sizes) == refs
        assert rank_code_rows(F, rows, sizes) == [len(ref) for ref in refs]
        B = _random_rows(rng, F, n, n)
        assert mul_code_rows(F, rows, B, n) == ref_product(F, rows, B)
    assert rref_code_rows(F, Matrix(F, [], 3).rows) == [()]
    # the scalar q - 1 times rows of ones: over GF(127) three lanes of 126
    # pass 255, so a product that added them unreduced would carry into
    # the next code
    for n in (3, 5, 12):
        rows = [(F.order - 1,) * n, (1,) * n]
        B = [(1,) * n] * n
        assert mul_code_rows(F, rows, B, n) == ref_product(F, rows, B)
    rank = lambda rows: len(ref_rref(F, rows))
    for n in (1, 3, 5):
        for _ in range(5 if F.order < 1024 else 2):
            rows = _random_rows(rng, F, rng.randrange(n + 4), n)
            sizes = sorted(rng.sample(range(len(rows) + 1), min(3, len(rows) + 1)))
            assert rref_code_rows(F, rows, sizes) == [ref_rref(F, rows[:t]) for t in sizes]
            ref = ref_rref(F, rows)
            assert rref_code_rows(F, rows) == [ref]
            prefixes = range(len(rows) + 1)
            assert rank_code_rows(F, rows, prefixes) == [rank(rows[:t]) for t in prefixes]
            assert rank_code_rows(F, rows, sizes) == [rank(rows[:t]) for t in sizes]
            assert rank_code_rows(F, rows) == [len(ref)]
            B = _random_rows(rng, F, n, n)
            assert mul_code_rows(F, rows, B, n) == ref_product(F, rows, B)
            if not rows:
                continue
            M = Matrix(F, rows, n)
            r = M.rank()
            assert r == len(ref)
            K = kernel_code_rows(F, rref_code_rows(F, rows)[0], n)
            assert len(K) == rank(K) == n - r
            for v in K:  # M v^T = 0, v written as an n x 1 column
                assert ref_product(F, rows, [(x,) for x in v]) == [(0,)] * len(rows)
            if len(rows) == n:
                if r == n:
                    assert M.inverse().rows == tuple(map(tuple, _ref_inverse(F, rows)))
                else:
                    with pytest.raises(SingularMatrixError):
                        M.inverse()
            half = rng.randrange(len(rows) + 1)
            U, V = Subspace(F, n, rows[:half]), Subspace(F, n, rows[half:])
            joint = rank(rows)
            assert subspace_distance(U, V) == 2 * joint - U.dim - V.dim
            assert U.contains(V) == (joint == U.dim)
            assert [U.contains(Subspace(F, n, [v])) for v in rows[half:]] == \
                   [rank(U.rows + (v,)) == U.dim for v in rows[half:]]


def _scalar_rows(rng, F, count, n):
    """_random_rows, plus rows that hold every scalar of F between them."""
    codes = list(range(F.order))
    rng.shuffle(codes)
    codes += [0] * (-F.order % n)
    return _random_rows(rng, F, count, n) + [
        tuple(codes[i:i + n]) for i in range(0, len(codes), n)]


@pytest.mark.parametrize("p, e", [
    (2, 1), (2, 2), (2, 3), (2, 8), pytest.param(2, (2, 2), id="2-2x2"), (3, 1),
    (5, 1), (7, 1), (127, 1), (131, 1), (3, 2)])
def test_action_kernel_matches_reference(p, e):
    """act_code_rows is rref_code_rows after mul_code_rows, packed, and the
    packed product read from a matrix's table of scaled rows is the
    product, on rows with zero and dependent members and every scalar of
    the field, at every prefix size."""
    F = _field(p, e)
    scale = F.byte_scalers()
    rng = random.Random(f"act:{p}^{e}")
    for n in (9, 12):
        rows = _scalar_rows(rng, F, n + 3, n)
        sizes = range(len(rows) + 1)
        for A in (Matrix(F, _random_rows(rng, F, n, n), n), random_invertible(rng, F, n)):
            product = ref_product(F, rows, A.rows)
            assert mul_code_rows(F, rows, A.rows, n) == product
            if scale is not None:
                packed = [int.from_bytes(bytes(r), "big") for r in product]
                products = _packed_bodies(F)[0]
                assert products(F, A._scaled_rows(scale), rows, n) == packed
                # a second pass reads the filled table
                assert products(F, A._scaled_rows(scale), rows, n) == packed
            snaps = rref_code_rows(F, product, sizes)
            key, ranks, adapted = act_code_rows(F, rows, A, sizes)
            assert (key, ranks) == (_ref_key(snaps), [len(snap) for snap in snaps])
            assert snaps[-1] == ref_rref(F, product)
            assert act_code_rows(F, rows, A)[:2] == (_ref_key(snaps[-1:]), ranks[-1:])
            assert adapted is None if scale is None else \
                sorted(adapted) == _new_pivot_rows(key, ranks, n)
            # canonical rows come back as the caller's own tuples
            assert all(a is b for a, b in zip(rref_code_rows(F, snaps[-1])[0], snaps[-1]))
    assert act_code_rows(F, [], Matrix.identity(F, 3))[:2] == (b"", [0])
    # a walk of 200 applies by a matrix of order 6, B^-1 P B for the cyclic
    # shift P, each to the rows the apply before named, as Flag.apply does:
    # each key packs the reference snapshots, and over packed rows the
    # reduction names each block's new-pivot rows itself, so the walk reads
    # rows straight from the keys and unpacks none
    n, sizes = 6, (1, 2, 4)
    B = random_invertible(rng, F, n).rows
    shift = [tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n)]
    A = Matrix(F, ref_product(F, _ref_inverse(F, B), ref_product(F, shift, B)), n)
    rows = random_invertible(rng, F, n).rows[:4]
    ref = {}  # the walk is periodic: reference snapshots by input rows
    for _ in range(200):
        key, ranks, adapted = act_code_rows(F, rows, A, sizes)
        if rows not in ref:
            product = ref_product(F, rows, A.rows)
            ref[rows] = [ref_rref(F, product[:t]) for t in sizes]
        assert (key, ranks) == (_ref_key(ref[rows]), list(sizes))
        named = _new_pivot_rows(key, ranks, n)
        assert adapted is None if scale is None else sorted(adapted) == named
        rows = tuple(key[i * n:(i + 1) * n] for i in named)
    assert len(ref) <= n + 1


def _ref_key(snaps) -> bytes:
    """The snapshots' rows, one byte per code, as act_code_rows packs them
    over fields of order at most 256."""
    return bytes(x for snap in snaps for row in snap for x in row)


def _new_pivot_rows(key, ranks, n) -> list:
    """The indices in a key of each snapshot's rows whose pivots the
    snapshot before lacks, block by block, each block ascending."""
    rows = [key[o:o + n] for o in range(0, len(key), n)]
    out, base, pivots = [], 0, set()
    for r in ranks:
        for i in range(base, base + r):
            lead = next(c for c, x in enumerate(rows[i]) if x)
            if lead not in pivots:
                pivots.add(lead)
                out.append(i)
        base += r
    return out


@pytest.mark.parametrize("p, e", [(2, 1), (2, 2), (2, 8), (3, 1)])
def test_singular_matrix_is_refused_by_both_applies(p, e):
    F = make_field(p, e)
    rng = random.Random(f"singular:{p}^{e}")
    n, dims = 5, (1, 2, 4)
    for _ in range(4):
        # e_0 - c e_1 maps to zero, so level 2 and every level above it
        # lose a dimension
        rows = list(random_invertible(rng, F, n).rows)
        c = rng.randrange(1, F.order)
        rows[0] = tuple(ref_mul(F, c, y) for y in rows[1])
        A = Matrix(F, rows, n)
        flag = Flag([Subspace.standard(F, n, t) for t in dims])
        with pytest.raises(SingularMatrixError):
            flag.apply(A)
        with pytest.raises(SingularMatrixError):
            flag.subspaces[-1].apply(A)


def _walk_flag_by_flag(flags, A, steps):
    out = []
    for _ in range(steps):
        flags = [f.apply(A) for f in flags]
        out += flags
    return out


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                  (3, 2), (11, 1), (13, 1), (2, 4)])
def test_lane_walk_is_the_per_flag_walk(p, e, monkeypatch):
    """translates steps a batch of flags as byte lanes over every field of
    order q <= 16, with no Flag.apply: for full, spread-admissible, gapped
    and one-level types and batches of 1, 2 and 37 flags, each lane's key
    after each of 3 steps of a random invertible A is the key of the chain
    of Flag.apply, and its flag names no adapted rows until read.  A
    singular A that drops one lane's rank raises SingularMatrixError."""
    F = make_field(p, e)
    rng = random.Random(f"lanes:{p}^{e}")
    apply = Flag.apply
    applied = []
    monkeypatch.setattr(Flag, "apply", lambda f, A: applied.append(f) or apply(f, A))
    for n, dims in [(5, (1, 2, 3, 4)), (6, (1, 2, 4, 5)), (7, (2, 5)), (5, (2,))]:
        A = random_invertible(rng, F, n)
        for size in (1, 2, 37):
            flags = [random_flag(rng, F, n, dims) for _ in range(size)]
            walked = translates(flags, A, 3)
            assert applied == [] and all(f._adapted == () for f in walked)
            expected = _walk_flag_by_flag(flags, A, 3)
            assert [f.key for f in walked] == [f.key for f in expected]
            assert walked[-1].apply(A) == expected[-1].apply(A)
            applied.clear()
    # e_0 - c e_1 maps to zero, so the standard flag's levels 2 and 4 lose a
    # dimension, in one lane of 37
    n, dims = 5, (1, 2, 4)
    rows = list(random_invertible(rng, F, n).rows)
    c = rng.randrange(1, F.order)
    rows[0] = tuple(ref_mul(F, c, y) for y in rows[1])
    flags = [random_flag(rng, F, n, dims) for _ in range(36)]
    flags.insert(17, Flag([Subspace.standard(F, n, t) for t in dims]))
    with pytest.raises(SingularMatrixError):
        translates(flags, Matrix(F, rows, n), 1)


def test_lane_walk_above_order_16_maps_flag_apply(monkeypatch):
    """Over GF(25) translates maps Flag.apply, one call per flag and step,
    and gives the keys of the lanes' chain."""
    F = make_field(5, 2)
    rng = random.Random("lanes:25")
    apply = Flag.apply
    applied = []
    monkeypatch.setattr(Flag, "apply", lambda f, A: applied.append(f) or apply(f, A))
    n, dims = 6, (1, 2, 4, 5)
    A = random_invertible(rng, F, n)
    flags = [random_flag(rng, F, n, dims) for _ in range(5)]
    walked = translates(flags, A, 3)
    assert len(applied) == 15
    assert [f.key for f in walked] == [f.key for f in _walk_flag_by_flag(flags, A, 3)]


# (p, e, k): the full-type group <diag(I_k, M)> of order N = q^(k+1) - 1 on
# GF(q)^(2k+1), whose subgroup of order t, for each divisor t of N up to
# 400 and N itself when it is at most 728, walks an orbit of t flags.  The
# orders cover orbits inside the walk's head of 20, equal to it (GF(3)) and
# one past it (21), just past a doubling of 16 (17, 65), the primes 19, 61
# and 73, and the whole group of 342, 511, 624 = 2^4 3 13 and 728 flags
_ORBIT_GROUPS = [(2, 1, 5), (3, 1, 3), (2, 2, 3), (5, 1, 3), (7, 1, 2),
                 (2, 3, 2), (3, 2, 2), (11, 1, 2), (13, 1, 2), (2, 4, 2)]


@pytest.mark.parametrize("p, e, k", _ORBIT_GROUPS)
def test_lane_orbit_walk_is_the_per_flag_walk(p, e, k):
    """orbit_flag walks an orbit as doubling byte lanes, ending only at a
    divisor of the group order: for the generator flag and a random flag
    of a gapped type, under every subgroup above, its members are the keys
    of subspaces.orbit_walk in walk order, its stabilizer is the group
    order over their count, each names its adapted rows as a scan of its
    key finds them, and each level's stabilizer, read from that level's
    own Subspace orbit, has the meet the walk checks.  The first
    flags of the chain of a count that is no power of two, past the orbit's
    end where it is shorter, are those flags.walk gives."""
    F = make_field(p, e)
    ctx = build_full_type_context(F, k)
    N, n = ctx.group.order, ctx.n
    rng = random.Random(f"orbits:{p}^{e}")
    seeds = [full_type_generator_flag(ctx), random_flag(rng, F, n, (1, 3, n - 1))]
    orders = [t for t in divisors(N) if t <= 400 or t == N <= 728]
    for t in orders:
        T = ctx.group.subgroup_of_order(t)
        for seed in seeds:
            code, stab = orbit_flag(T, seed)
            ref = orbit_walk(seed, T.generator)
            walked = walk(seed, T.generator, t, closing=True)
            assert [f.key for f in walked] == [f.key for f in ref]
            for f in walked[1:]:  # named as a scan of the key names them
                scan = Flag._trusted(F, n, f.key, f.dims)._adapted_rows()
                assert sorted(f._adapted_rows()) == sorted(scan)
            assert code.members == tuple(sorted(ref, key=lambda f: f.key))
            assert stab == t // len(ref)
            meet = 0
            for level in seed.subspaces:
                meet = gcd(meet, t // len(orbit_walk(level, T.generator)))
            assert meet == stab
    g, chain = ctx.group.generator, [seeds[1]]
    while len(chain) < 100:  # past the orbit's end when it is shorter
        chain.append(chain[-1].apply(g))
    for m in (1, 2, 19, 20, 21, 40, 41, 57, 100):
        assert [f.key for f in walk(seeds[1], g, m)] == [f.key for f in chain[:m]]


@pytest.mark.parametrize("t", [82, 219])
def test_lane_orbit_walk_closes_at_a_proper_divisor(t, ctx_q3k4s2, ctx_q4k3s3):
    """The canonical flag's orbit under the Singer subgroup of order t is
    t / gcd(t, q - 1) flags: 41 of 82 over GF(3), 73 of 219 over GF(4), so
    the walk passes divisors of t where the orbit does not close and ends
    at the keys of the per-flag walk: at 73 inside a lane step trimmed to
    end there, at 41 in the two applies after a step of 20 lanes."""
    ctx = ctx_q3k4s2 if t == 82 else ctx_q4k3s3
    T = ctx.group.subgroup_of_order(t)
    seed = canonical_admissible_flag(ctx)
    ref = orbit_walk(seed, T.generator)
    assert len(ref) == t // gcd(t, ctx.base_field.order - 1)
    assert [f.key for f in walk(seed, T.generator, t, closing=True)] == \
        [f.key for f in ref]
    assert orbit_flag(T, seed)[1] == t // len(ref)


@pytest.mark.parametrize("declared", [80, 30, 14])
def test_orbit_closing_off_the_divisors_is_refused(declared, ctx_q3k4s2):
    """A group declared with an order its orbit's length does not divide
    raises AssertionError: the 41-flag orbit over GF(3)^8 returns at 41,
    which is no divisor of 80 (in a lane step) and lies past 30, and the
    13 points of GF(3)^3 under its Singer group return at 13, no divisor
    of 14, inside the walk's head."""
    if declared == 14:
        ctx = build_spread_context(make_field(3, 1), 1, 3)
        g, seed = ctx.group.generator, Flag([Subspace.standard(ctx.base_field, 3, 1)])
    else:
        g = ctx_q3k4s2.group.subgroup_of_order(41).generator
        seed = canonical_admissible_flag(ctx_q3k4s2)
    with pytest.raises(AssertionError, match="does not divide"):
        orbit_flag(CyclicMatrixGroup._trusted(g, declared), seed)


def test_orbit_walk_above_order_16_applies_once_per_member(monkeypatch):
    """Over GF(25) the walk maps Flag.apply: the orbit of 124 flags under the
    full-type subgroup of that order costs 124 applies, the last one back
    at the seed, and gives the per-flag walk's keys."""
    ctx = build_full_type_context(make_field(5, 2), 2)
    T = ctx.group.subgroup_of_order(124)
    seed = full_type_generator_flag(ctx)
    ref = orbit_walk(seed, T.generator)
    apply = Flag.apply
    applied = []
    monkeypatch.setattr(Flag, "apply", lambda f, A: applied.append(f) or apply(f, A))
    walked = walk(seed, T.generator, 124, closing=True)
    assert len(applied) == len(walked) == 124
    assert [f.key for f in walked] == [f.key for f in ref]


def test_reused_matrix_acts_like_a_fresh_one():
    """A matrix keeps its table of scaled rows across applies; 200 steps of
    one walk by it give the flags and subspaces a fresh equal matrix gives."""
    rng = random.Random(200)
    for q_args in [(2, 2), (2, 8), (3, 1)]:
        F = make_field(*q_args)
        n, dims = 6, (1, 3, 5)
        A = random_invertible(rng, F, n)
        flag = random_flag(rng, F, n, dims)
        for _ in range(200):
            fresh = Matrix(F, A.rows, n)
            image = flag.apply(A)
            assert image == flag.apply(fresh)
            assert flag.subspaces[1].apply(A) == flag.subspaces[1].apply(fresh)
            flag = image


def test_matrix_with_a_table_pickles_by_its_rows():
    F = make_field(2, 2)
    A = random_invertible(random.Random(5), F, 4)
    Subspace.standard(F, 4, 2).apply(A)
    assert A._scaled is not None
    B = pickle.loads(pickle.dumps(A))
    assert B == A and hash(B) == hash(A)
    assert B._scaled is None
    assert Subspace.standard(F, 4, 2).apply(B) == Subspace.standard(F, 4, 2).apply(A)


def test_walked_flag_pickles_by_its_key():
    """A flag pickles as (field, n, key, dims): the copy of a walked flag
    is equal, hashes equal, keeps the key's bytes and carries no adapted
    record or subspaces, and applies as the flag does."""
    rng = random.Random(6)
    F = make_field(2, 2)
    A = random_invertible(rng, F, 6)
    flag = random_flag(rng, F, 6, (1, 3, 5))
    for _ in range(5):
        flag = flag.apply(A)
    flag.subspaces
    assert flag._adapted is not None
    back = pickle.loads(pickle.dumps(flag))
    assert back == flag and hash(back) == hash(flag) and back.field is F
    assert back.key == flag.key and type(back.key) is bytes
    assert back._adapted is None and back._subspaces is None
    assert back.apply(A) == flag.apply(A)
