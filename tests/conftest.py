"""Shared fixtures: fields and the construction contexts used across files.

Contexts are session-scoped because several files share them; each
certifies its two Singer seeds when built and walks the 4,161-member
orbits of the largest, (q=4, k=3, s=3), only when a test reads them.
random_invertible is shared by the test files that draw random bases,
count_products by those that bound the matrix products of a step, and
the ref_* functions are the field oracle: arithmetic by the definition
(polynomials over the base modulo the pinned modulus), reading only a
field's base, characteristic, order, modulus and digit encoding, never the
tables or code methods under test; ref_rref and ref_product are row
reduction and the matrix product on that arithmetic.
enumerate_grassmannian lists every k-subspace of GF(q)^n by its canonical
rows, written down pivot set by pivot set with no elimination, and
gaussian_binomial counts them: the brute-force pools the spread, dual and
metric tests compare the library against.  pair_scan_distance is the
minimum distance oracle: the plain scan over every pair of members, which
shares no code with the library's min_distance.
The terminal-summary hook at the bottom turns the test_acceptance results
into one PASS/FAIL line per criterion.
"""

import re
from functools import partial, reduce
from itertools import combinations, product

import pytest

from flagcodes import matrices
from flagcodes import (FlagCode, Matrix, Subspace, build_full_type_context,
                       build_spread_context, extend_field, flag_distance,
                       make_field, subspace_distance)

# An n x n matrix over GF(q) is invertible with probability above 0.28, so
# 200 draws all singular is a broken kernel, not bad luck (below 1e-28).
_INVERTIBLE_DRAWS = 200


def random_invertible(rng, F, n):
    """A random invertible n x n matrix over F; fails the test after a fixed
    number of singular draws instead of looping forever."""
    for _ in range(_INVERTIBLE_DRAWS):
        M = Matrix(F, [[rng.randrange(F.order) for _ in range(n)]
                       for _ in range(n)], n)
        if M.is_invertible():
            return M
    pytest.fail(f"{_INVERTIBLE_DRAWS} random {n}x{n} matrices over "
                f"GF({F.order}) were all singular")


def count_products(monkeypatch):
    """A list that grows by one at each matrices.mul_code_rows call, the
    one matrix product body, for the rest of the test."""
    calls = []
    mul = matrices.mul_code_rows
    monkeypatch.setattr(matrices, "mul_code_rows",
                        lambda *a: calls.append(1) or mul(*a))
    return calls


def ref_add(F, a, b):
    if F.base is None:
        return (a + b) % F.characteristic
    return F.encode([ref_add(F.base, x, y) for x, y in zip(F.decode(a), F.decode(b))])


def ref_neg(F, a):
    if F.base is None:
        return -a % F.characteristic
    return F.encode([ref_neg(F.base, x) for x in F.decode(a)])


def ref_mul(F, a, b):
    """Product by the definition: polynomials over the base modulo F's modulus."""
    if F.base is None:
        return a * b % F.characteristic
    B, e = F.base, len(F.modulus)
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(F.decode(a)):
        for j, y in enumerate(F.decode(b)):
            prod[i + j] = ref_add(B, prod[i + j], ref_mul(B, x, y))
    for i in range(2 * e - 2, e - 1, -1):  # x^e = -(sum of modulus[k] x^k)
        c = ref_neg(B, prod[i])
        for k, m in enumerate(F.modulus):
            prod[i - e + k] = ref_add(B, prod[i - e + k], ref_mul(B, c, m))
    return F.encode(prod[:e])


def ref_pow(F, a, n):
    out = 1
    while n:
        if n & 1:
            out = ref_mul(F, out, a)
        a = ref_mul(F, a, a)
        n >>= 1
    return out


def ref_inv(F, a):
    """a^(q - 2), the inverse of a nonzero a."""
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    return ref_pow(F, a, F.order - 2)


def ref_order(F, a):
    """Multiplicative order of a nonzero a: the least d with a^d = 1."""
    return next(d for d in range(1, F.order) if ref_pow(F, a, d) == 1)


def ref_rref(F, rows):
    """Gauss-Jordan with the reference arithmetic; nonzero rows only."""
    def eliminate(r, c, piv):  # r - r[c] * piv
        m = ref_neg(F, r[c])
        return [ref_add(F, x, ref_mul(F, m, y)) for x, y in zip(r, piv)]

    rows = [list(r) for r in rows]
    out = []
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = ref_inv(F, piv[c])
        piv = [ref_mul(F, inv, x) for x in piv]
        rows = [eliminate(r, c, piv) for r in rows]
        out = [eliminate(r, c, piv) for r in out]
        out.append(piv)
    return tuple(map(tuple, out))


def ref_product(F, arows, brows):
    """Row tuples of the matrix product, as mul_code_rows returns them."""
    add = partial(ref_add, F)
    return [tuple(reduce(add, (ref_mul(F, a, b) for a, b in zip(r, c)), 0)
                  for c in zip(*brows)) for r in arows]


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def enumerate_grassmannian(field, k, n):
    """Every k-dim subspace of GF(q)^n, pivot set by pivot set: its
    canonical rows have 1 at the pivots, 0 in every other pivot column and
    left of the row's pivot, and any entry in each remaining place."""
    q = field.order
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(k)
                for j in range(pivots[i] + 1, n) if j not in pivot_set]
        base = [[0] * n for _ in range(k)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for values in product(range(q), repeat=len(free)):
            rows = [r[:] for r in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield Subspace._from_rref(field, n, tuple(tuple(r) for r in rows))


def pair_scan_distance(code):
    """Minimum distance over every pair of members; 0 for a singleton."""
    distance = flag_distance if isinstance(code, FlagCode) else subspace_distance
    return min((distance(u, v) for u, v in combinations(code.members, 2)),
               default=0)


@pytest.fixture(scope="session")
def F2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def F4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def F8(F2):
    return extend_field(F2, 3)


@pytest.fixture(scope="session")
def F27(F3):
    return extend_field(F3, 3)


@pytest.fixture(scope="session")
def ctx_q2k2s2(F2):
    return build_spread_context(F2, 2, 2)


@pytest.fixture(scope="session")
def ctx_q2k2s4(F2):
    return build_spread_context(F2, 2, 4)


@pytest.fixture(scope="session")
def ctx_q2k3s2(F2):
    return build_spread_context(F2, 3, 2)


@pytest.fixture(scope="session")
def ctx_q3k3s2(F3):
    return build_spread_context(F3, 3, 2)


@pytest.fixture(scope="session")
def ctx_q4k3s2(F4):
    return build_spread_context(F4, 3, 2)


@pytest.fixture(scope="session")
def ctx_q4k3s3(F4):
    return build_spread_context(F4, 3, 3)


@pytest.fixture(scope="session")
def ctx_q7k2s2():
    return build_spread_context(make_field(7, 1), 2, 2)


@pytest.fixture(scope="session")
def ctx_q25k2s2():
    return build_spread_context(make_field(5, 2), 2, 2)


@pytest.fixture(scope="session")
def ftx_q2k2(F2):
    return build_full_type_context(F2, 2)


@pytest.fixture(scope="session")
def ftx_q3k2(F3):
    return build_full_type_context(F3, 2)


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_criterion_results = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num, label = int(m.group(1)), m.group(2)
    if report.when == "call":
        _criterion_results[num] = (label, report.outcome == "passed")
    elif report.outcome != "passed":
        # setup or teardown crash counts as a failure of the criterion
        _criterion_results[num] = (label, False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_results):
        label, ok = _criterion_results[num]
        terminalreporter.write_line(
            "criterion %2d  %-40s %s" % (num, label.replace("_", " "),
                                         "PASS" if ok else "FAIL"))
