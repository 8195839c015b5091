"""Subspace canonical forms, the Grassmann metric, codes, spreads, duality."""

import random
from itertools import combinations, permutations

import pytest

from conftest import (enumerate_grassmannian, gaussian_binomial, ref_product,
                      ref_rref)
from flagcodes import (Flag, Matrix, Subspace, SubspaceCode,
                       build_spread_context, dual_code, flags,
                       is_partial_spread, is_spread, make_field, matrices,
                       max_distance_bound, partial_spread_size_bound,
                       subspace_distance, subspaces)
from flagcodes.errors import (AmbientMismatchError, BadDimensionsError,
                              NotNestedError)
from flagcodes.subspaces import member_vectors


def lines(field, n):
    return list(enumerate_grassmannian(field, 1, n))


def test_gaussian_binomial_frozen():
    assert gaussian_binomial(1, 1, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 1, 4) == 21
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 3, 3) == 33880
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(4, 0, 2) == 1


def test_distance_bounds_frozen():
    assert max_distance_bound(6, 3) == 6
    assert max_distance_bound(5, 2) == 4
    assert max_distance_bound(5, 3) == 4
    assert partial_spread_size_bound(4, 2, 2) == 5
    assert partial_spread_size_bound(5, 2, 2) == 10
    assert partial_spread_size_bound(8, 3, 3) == 252
    for bad in [(3, 0), (3, 3), (2, 5)]:
        try:
            max_distance_bound(*bad)
        except BadDimensionsError:
            pass
        else:
            raise AssertionError(f"accepted {bad}")
    with pytest.raises(BadDimensionsError):
        partial_spread_size_bound(4, 4, 2)


def test_canonical_form_identifies_equal_spans():
    F2 = make_field(2, 1)
    a = Subspace(F2, 3, [(1, 0, 1), (0, 1, 1)])
    b = Subspace(F2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    assert a.contains(Subspace(F2, 3, [(1, 1, 0)]))
    assert not a.contains(Subspace(F2, 3, [(1, 1, 1)]))
    assert a.contains(Subspace(F2, 3, [(1, 0, 1)]))


def test_subspace_distance_examples():
    F2 = make_field(2, 1)
    U = Subspace(F2, 2, [(1, 0)])
    V = Subspace(F2, 2, [(0, 1)])
    assert subspace_distance(U, U) == 0
    assert subspace_distance(U, V) == 2

    e = Matrix.identity(F2, 6).rows
    U = Subspace(F2, 6, [e[0], e[1]])
    V = Subspace(F2, 6, [e[0], e[2]])
    assert subspace_distance(U, V) == 2

    W = Subspace(F2, 6, [e[0], e[1], e[2]])
    assert subspace_distance(U, W) == 1  # unequal dims: 2*rank - dimU - dimV

    try:
        subspace_distance(U, Subspace(F2, 2, [(1, 0)]))
    except AmbientMismatchError:
        pass
    else:
        raise AssertionError("mixed ambients compared")


def test_metric_axioms_exhaustive_g24():
    F2 = make_field(2, 1)
    planes = list(enumerate_grassmannian(F2, 2, 4))
    assert len(planes) == 35
    for U in planes:
        assert subspace_distance(U, U) == 0
    for U, V in combinations(planes, 2):
        d = subspace_distance(U, V)
        assert d == subspace_distance(V, U)
        assert 0 < d <= 4 and d % 2 == 0
    # triangle inequality on all ordered triples
    dist = {(i, j): subspace_distance(planes[i], planes[j])
            for i in range(35) for j in range(35)}
    for i in range(35):
        for j in range(35):
            for k in range(35):
                assert dist[i, j] <= dist[i, k] + dist[k, j]


def test_dual_subspace_involution():
    F2 = make_field(2, 1)
    line = Subspace(F2, 2, [(1, 0)])
    assert line.dual() == Subspace(F2, 2, [(0, 1)])
    for U in enumerate_grassmannian(F2, 2, 4):
        assert U.dual().dim == 2
        assert U.dual().dual() == U
    zero, full = Subspace(F2, 4, []), Subspace.standard(F2, 4, 4)
    assert (zero.dim, full.dim) == (0, 4)
    assert zero.dual() == full and full.dual() == zero
    A = Matrix(F2, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)])
    assert zero.apply(A) == zero and full.apply(A) == full


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (131, 1)],
                         ids=["GF2", "GF3", "GF4", "GF5", "GF9-table", "GF131-table"])
def test_dual_matches_the_reference_kernel(p, e, monkeypatch):
    # the kernel comes straight from the canonical rows; the reference
    # arithmetic checks that every row of D is orthogonal to every row of U
    # and that D's rows span n - k dimensions
    F = make_field(p, e)
    rng = random.Random(1000 * p + e)
    for n in range(1, 7):
        zero, full = Subspace.standard(F, n, 0), Subspace.standard(F, n, n)
        assert zero.dual() == full and full.dual() == zero
        for k in range(n + 1):
            for _ in range(3):
                U = Subspace(F, n, [])
                while U.dim < k:
                    U = Subspace(F, n, U.rows + (tuple(rng.randrange(F.order)
                                                       for _ in range(n)),))
                D = U.dual()
                columns = list(zip(*D.rows))  # D's rows, transposed
                assert ref_product(F, U.rows, columns) == [(0,) * (n - k)] * k
                assert len(ref_rref(F, D.rows)) == n - k
                assert D.dim == n - k and D.dual() == U
    # one reduction of the kernel basis, and no entry checked again
    calls = {"rref": 0, "Matrix": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    rref = counted("rref", matrices.rref_code_rows)
    monkeypatch.setattr(matrices, "rref_code_rows", rref)
    monkeypatch.setattr(subspaces, "rref_code_rows", rref)
    monkeypatch.setattr(Matrix, "__init__", counted("Matrix", Matrix.__init__))
    for k in range(5):
        U = Subspace.standard(F, 4, k)
        calls.update(rref=0, Matrix=0)
        U.dual()
        assert calls == {"rref": 1, "Matrix": 0}, (k, calls)


def test_code_distance_examples():
    F2 = make_field(2, 1)
    e = Matrix.identity(F2, 6).rows
    single = SubspaceCode([Subspace(F2, 6, [e[0]])])
    assert single.min_distance() == 0
    pair = SubspaceCode([Subspace(F2, 6, e[:3]),
                         Subspace(F2, 6, e[3:])])
    assert pair.min_distance() == 6
    assert SubspaceCode(lines(F2, 2)).min_distance() == 2


def test_dual_code_preserves_size_and_distance():
    rng = random.Random(77)
    F2 = make_field(2, 1)
    planes = list(enumerate_grassmannian(F2, 2, 4))
    for _ in range(30):
        members = rng.sample(planes, rng.randint(2, 6))
        C = SubspaceCode(members)
        D = dual_code(C)
        assert len(D) == len(C)
        assert D.min_distance() == C.min_distance()
        assert dual_code(D) == C


def test_spread_recognition():
    F2 = make_field(2, 1)
    rows = [((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((1, 0, 0, 1), (0, 1, 1, 1)),
            ((1, 0, 1, 0), (0, 1, 0, 1)),
            ((1, 0, 1, 1), (0, 1, 1, 0))]
    members = [Subspace(F2, 4, r) for r in rows]
    spread = SubspaceCode(members)
    assert is_partial_spread(spread)
    assert is_spread(spread)
    assert spread.min_distance() == 4
    smaller = SubspaceCode(members[:4])
    assert is_partial_spread(smaller) and not is_spread(smaller)

    e = Matrix.identity(F2, 4).rows
    overlapping = SubspaceCode([Subspace(F2, 4, [e[0], e[1]]),
                                Subspace(F2, 4, [e[0], e[2]])])
    assert not is_partial_spread(overlapping)
    assert not is_spread(overlapping)


@pytest.mark.parametrize("cover_limit", [subspaces._COVER_LIMIT_BITS, 0])
def test_spread_predicates_agree_on_both_routes(cover_limit, monkeypatch):
    """The cover scan, and above _COVER_LIMIT_BITS one pair scan, for the
    spread predicates and for min_distance() alike."""
    monkeypatch.setattr(subspaces, "_COVER_LIMIT_BITS", cover_limit)
    pairs = []
    distance = subspaces.subspace_distance
    monkeypatch.setattr(subspaces, "subspace_distance",
                        lambda u, v: pairs.append(1) or distance(u, v))
    F2 = make_field(2, 1)
    ctx = build_spread_context(F2, 2, 3)
    S, H = ctx.spread, ctx.hyperplanes
    cases = [(S, (True, True), 4),
             (H, (False, False), 4),
             (SubspaceCode(S.members[:3]), (True, False), 4),
             (SubspaceCode(S.members[:1]), (True, False), 0),
             (SubspaceCode(list(enumerate_grassmannian(F2, 2, 4))[:3]), (False, False), 2),
             (dual_code(H), (True, True), 4)]
    for code, expected, d in cases:
        assert (is_partial_spread(code), is_spread(code)) == expected, code
        # a fresh copy, without a generator: every pair or none is scanned,
        # once, by the one min_distance() the predicates read too
        pairs.clear()
        fresh = SubspaceCode(code.members)
        assert (is_partial_spread(fresh), is_spread(fresh)) == expected, code
        assert fresh.min_distance() == d, code
        m = len(fresh)
        at_max = m > 1 and d == max_distance_bound(fresh.n, fresh.dim)
        assert len(pairs) == (0 if cover_limit and at_max else m * (m - 1) // 2)


def test_one_cover_scan_answers_every_spread_verdict(ctx_q2k2s4, monkeypatch):
    """The 85 lines S of GF(2)^8 and the 85 hyperplanes H: on a fresh copy,
    is_partial_spread, is_spread and min_distance(), asked in any order,
    read one cover scan, one member_points call per member.  H's is the
    scan of its duals, lines again, since 2 * 6 > 8 answers both of its
    predicates before any point is built: each hyperplane's dual points are
    listed from its kernel rows, with no dual code or dual subspace."""
    dims = []
    dual_lists = []
    dual_codes = []
    points, dual_rows = subspaces.member_points, subspaces._dual_rows
    monkeypatch.setattr(subspaces, "member_points",
                        lambda F, n, rows: dims.append(len(rows)) or points(F, n, rows))
    monkeypatch.setattr(subspaces, "_dual_rows",
                        lambda *args: dual_lists.append(1) or dual_rows(*args))
    dual_code, dual = subspaces.dual_code, Subspace.dual
    monkeypatch.setattr(subspaces, "dual_code",
                        lambda code: dual_codes.append(1) or dual_code(code))
    monkeypatch.setattr(Subspace, "dual",
                        lambda sub: dual_codes.append(1) or dual(sub))
    verdicts = {"partial": is_partial_spread, "spread": is_spread,
                "distance": SubspaceCode.min_distance}
    S, H = ctx_q2k2s4.spread, ctx_q2k2s4.hyperplanes
    assert (len(S), S.dim, len(H), H.dim) == (85, 2, 85, 6)
    for code, expected, dual_scans in (
            (S, {"partial": True, "spread": True, "distance": 4}, 0),
            (H, {"partial": False, "spread": False, "distance": 4}, 85)):
        for order in permutations(verdicts):
            fresh = SubspaceCode(code.members)
            dims.clear()
            dual_lists.clear()
            assert {v: verdicts[v](fresh) for v in order} == expected, order
            assert dims == [2] * 85, (code, order)
            assert len(dual_lists) == dual_scans, (code, order)
            assert dual_codes == [], (code, order)


def test_nesting_by_reduction_matches_reference_rank(monkeypatch):
    # every pair lo, hi of proper subspaces of GF(2)^4 and of GF(3)^3 with
    # lo.dim < hi.dim: Flag([lo, hi]) is refused exactly when the stacked
    # rows have reference rank above hi.dim, and no flag runs a rank
    ranks = []
    for module in (subspaces, flags):
        rank = module.rank_code_rows
        monkeypatch.setattr(module, "rank_code_rows",
                            lambda *args, f=rank: ranks.append(1) or f(*args))
    for q, n in ((2, 4), (3, 3)):
        F = make_field(q, 1)
        subs = [U for k in range(1, n) for U in enumerate_grassmannian(F, k, n)]
        for lo in subs:
            for hi in subs:
                if lo.dim < hi.dim:
                    nested = len(ref_rref(F, hi.rows + lo.rows)) == hi.dim
                    try:
                        Flag([lo, hi])
                    except NotNestedError:
                        assert not nested, (lo.rows, hi.rows)
                    else:
                        assert nested, (lo.rows, hi.rows)
    assert ranks == []


def test_dual_points_match_reference_rank():
    # every U of GF(2)^5, GF(3)^4 and GF(4)^3 with 2 dim U > n: the points
    # the cover scan lists for its dual are (q^(n-k) - 1)/(q - 1) distinct
    # ranks in range, and two such U, V share one exactly when the stacked
    # rows have reference rank below n, since U^perp meet V^perp = (U + V)^perp
    for p, e, n in ((2, 1, 5), (3, 1, 4), (2, 2, 3)):
        F = make_field(p, e)
        q = F.order
        points = {}
        for k in range(n // 2 + 1, n):
            for U in enumerate_grassmannian(F, k, n):
                listed = subspaces.member_points(F, n, subspaces._dual_rows(F, n, U.rows))
                assert len(set(listed)) == len(listed) == (q ** (n - k) - 1) // (q - 1)
                assert all(0 <= x < (q ** n - 1) // (q - 1) for x in listed)
                points[U] = set(listed)
        for U, V in combinations(points, 2):
            meet = not points[U].isdisjoint(points[V])
            assert meet == (len(ref_rref(F, U.rows + V.rows)) < n), (U.rows, V.rows)


def test_spread_covers_every_vector_once():
    F2 = make_field(2, 1)
    rows = [((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((1, 0, 0, 1), (0, 1, 1, 1)),
            ((1, 0, 1, 0), (0, 1, 0, 1)),
            ((1, 0, 1, 1), (0, 1, 1, 0))]
    seen = []
    for r in rows:
        vecs = member_vectors(Subspace(F2, 4, r))
        assert len(vecs) == 3  # q^k - 1 nonzero vectors each
        seen.extend(vecs)
    assert len(seen) == len(set(seen)) == 15


def test_enumerate_grassmannian_counts():
    F2 = make_field(2, 1)
    F3 = make_field(3, 1)
    assert len(lines(F2, 2)) == 3
    assert len(lines(F3, 3)) == 13
    subs = list(enumerate_grassmannian(F2, 2, 4))
    assert len(subs) == len(set(subs)) == 35 == gaussian_binomial(4, 2, 2)
    for U in subs:
        # canonical: the public constructor reduces the rows to themselves
        assert U.dim == 2 and U.n == 4 and Subspace(F2, 4, U.rows).rows == U.rows
