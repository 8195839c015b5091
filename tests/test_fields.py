"""Field construction, pinned moduli, tower consistency, arithmetic laws."""

import random

import pytest

from flagcodes import FieldElement, extend_field, make_field
from flagcodes.errors import FieldConstructionError, MixedFieldsError
from flagcodes.fields import factorize, is_prime


def brute_first_primitive_modulus(base, e):
    """Reference search, no shortcuts: first monic degree-e polynomial over
    the base (lex order of the coefficient vector, constant term first)
    whose residue class of x has multiplicative order exactly |base|^e - 1.
    """
    b = base.order
    n = b ** e - 1

    def mul_mod(u, v, lower):
        out = [0] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    out[i + j] = base.add_codes(out[i + j], base.mul_codes(ui, vj))
        while len(out) > e:
            top = out.pop()
            if top:
                for i in range(e):
                    out[-e + i] = base.add_codes(
                        out[-e + i], base.neg_code(base.mul_codes(top, lower[i])))
        return out

    for idx in range(b ** e):
        # constant term is the slowest digit: lex order on (p0, p1, ...)
        lower = tuple(idx // b ** (e - 1 - i) % b for i in range(e))
        if lower[0] == 0:
            continue
        x = [0, 1] if e > 1 else [base.neg_code(lower[0])]
        acc = [1]
        m = 0
        cur = list(x) + [0] * (e - len(x))
        seen_one_at = None
        for m in range(1, n + 1):
            acc = mul_mod(acc, x, lower)
            acc += [0] * (e - len(acc))
            if acc[0] == 1 and not any(acc[1:]):
                seen_one_at = m
                break
        if seen_one_at == n:
            return lower
    raise AssertionError("unreachable")


def test_pinned_moduli():
    assert make_field(2, 1).modulus == (1,)
    assert make_field(3, 1).modulus == (1,)
    assert make_field(5, 1).modulus == (2,)
    assert make_field(2, 2).modulus == (1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1)
    assert make_field(2, 4).modulus == (1, 0, 0, 1)
    assert make_field(3, 2).modulus == (2, 1)
    assert make_field(3, 3).modulus == (1, 0, 2)
    assert make_field(5, 2).modulus == (2, 1)
    F4 = make_field(2, 2)
    assert extend_field(F4, 2).modulus == (2, 1)
    assert extend_field(F4, 3).modulus == (2, 1, 1)


def test_modulus_search_matches_reference_search():
    # the production search skips whole constant-term rows; the reference
    # search scans every candidate
    for base, e in [(make_field(2, 1), 2), (make_field(2, 1), 3),
                    (make_field(3, 1), 2), (make_field(3, 1), 3),
                    (make_field(2, 2), 2), (make_field(2, 2), 3),
                    (make_field(5, 1), 2)]:
        F = make_field(base.characteristic, e, base=base)
        assert F.modulus == tuple(brute_first_primitive_modulus(base, e))


def test_construction_is_cached_and_deterministic():
    a = make_field(2, 3)
    b = make_field(2, 3)
    assert a is b
    assert make_field(3, 2).modulus == make_field(3, 2).modulus


def test_non_prime_characteristic_rejected():
    try:
        make_field(4, 1)
    except FieldConstructionError:
        pass
    else:
        raise AssertionError("4 is not prime")
    try:
        make_field(1, 1)
    except FieldConstructionError:
        pass


def test_primitive_element_orders():
    assert make_field(2, 1).primitive_element.order() == 1
    F4 = make_field(2, 2)
    w = F4.primitive_element
    assert w.code == 2
    assert (w * w).code == 3  # w^2 = w + 1 under modulus x^2 + x + 1
    assert w.order() == 3
    F27 = make_field(3, 3)
    assert F27.primitive_element.order() == 26
    F9 = make_field(3, 2)
    assert (F9.primitive_element ** 2).order() == 4


def test_every_primitive_element_generates():
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        F = make_field(p, e)
        w = F.primitive_element
        seen = set()
        x = F.one
        for _ in range(F.order - 1):
            seen.add(x.code)
            x = x * w
        assert len(seen) == F.order - 1


def test_gf4_tables():
    F4 = make_field(2, 2)
    assert [F4.mul_codes(2, c) for c in range(4)] == [0, 2, 3, 1]
    assert [F4.add_codes(2, c) for c in range(4)] == [2, 3, 0, 1]
    w = FieldElement(F4, 2)
    assert (w + w).code == 0
    assert (w * w).code == 3
    two = FieldElement(make_field(3, 1), 2)
    assert two.inverse().code == 2


def test_field_axioms_seeded():
    rng = random.Random(1009)
    for F in [make_field(3, 2), make_field(2, 3), extend_field(make_field(2, 2), 2)]:
        codes = range(F.order)
        for _ in range(200):
            a = FieldElement(F, rng.choice(codes))
            b = FieldElement(F, rng.choice(codes))
            c = FieldElement(F, rng.choice(codes))
            assert (a + b).code == (b + a).code
            assert (a * b).code == (b * a).code
            assert ((a + b) + c).code == (a + (b + c)).code
            assert ((a * b) * c).code == (a * (b * c)).code
            assert (a * (b + c)).code == (a * b + a * c).code
            if a.code:
                assert (a * a.inverse()).code == 1
            assert (a - a).code == 0


def test_tower_and_direct_gf16_are_isomorphic():
    """GF(16) over GF(4) multiplies like GF(16) over GF(2) after mapping
    generator to generator's image; checked on all 256 pairs."""
    F4 = make_field(2, 2)
    T = extend_field(F4, 2)
    D = make_field(2, 4)
    wt = T.primitive_element
    wd = D.primitive_element
    # an isomorphism must send wt to another generator; scan the candidates
    # for images preserving both tables
    images = []
    for i in range(1, 16):
        cand = wd if i == 1 else wd ** i
        if cand.order() != 15:
            continue
        table = {0: 0}
        x = T.one
        y = D.one
        ok = True
        for _ in range(15):
            if x.code in table:
                ok = table[x.code] == y.code
                break
            table[x.code] = y.code
            x = x * wt
            y = y * cand
        if not ok or len(table) != 16:
            continue
        good = all(
            table[T.add_codes(a, b)] == D.add_codes(table[a], table[b])
            for a in range(16) for b in range(16))
        if good:
            images.append(table)
    assert images, "no additive isomorphism found"
    table = images[0]
    for a in range(16):
        for b in range(16):
            assert table[T.mul_codes(a, b)] == D.mul_codes(table[a], table[b])


def test_encoding_positional():
    # enc(sum a_i w^i) = sum enc(a_i) qbase^i, constant digit least significant
    F4 = make_field(2, 2)
    T = extend_field(F4, 2)
    a = FieldElement(T, 9)  # 9 = 1 + 2*4: coefficient vector (1, w)
    assert a.vector == (1, 2)
    assert T.decode(9) == (1, 2)
    assert T.encode((1, 2)) == 9
    F8 = make_field(2, 3)
    assert F8.decode(5) == (1, 0, 1)


def test_frobenius_is_additive():
    F9 = make_field(3, 2)
    for a in range(9):
        for b in range(9):
            x = FieldElement(F9, a)
            y = FieldElement(F9, b)
            assert ((x + y) ** 3).code == (x ** 3 + y ** 3).code


def test_mixed_fields_rejected():
    a = FieldElement(make_field(2, 2), 1)
    b = FieldElement(make_field(2, 3), 1)
    try:
        a + b
    except MixedFieldsError:
        pass
    else:
        raise AssertionError("cross-field add must fail")


def test_small_number_theory_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(91) and not is_prime(1)
    assert factorize(26) == {2: 1, 13: 1}
    assert factorize(4160) == {2: 6, 5: 1, 13: 1}


def _ref_add(F, a, b):
    if F.base is None:
        return (a + b) % F.characteristic
    return F.encode([_ref_add(F.base, x, y) for x, y in zip(F.decode(a), F.decode(b))])


def _ref_neg(F, a):
    if F.base is None:
        return -a % F.characteristic
    return F.encode([_ref_neg(F.base, x) for x in F.decode(a)])


def _ref_mul(F, a, b):
    """Product by the definition: polynomials over the base modulo F's modulus."""
    if F.base is None:
        return a * b % F.characteristic
    B, e = F.base, F.degree
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(F.decode(a)):
        for j, y in enumerate(F.decode(b)):
            prod[i + j] = _ref_add(B, prod[i + j], _ref_mul(B, x, y))
    for i in range(2 * e - 2, e - 1, -1):  # x^e = -(sum of modulus[k] x^k)
        c = _ref_neg(B, prod[i])
        for k, m in enumerate(F.modulus):
            prod[i - e + k] = _ref_add(B, prod[i - e + k], _ref_mul(B, c, m))
    return F.encode(prod[:e])


def test_tables_match_polynomial_arithmetic():
    F4 = make_field(2, 2)
    rng = random.Random(8)
    for F in (F4, make_field(2, 3), make_field(3, 2), extend_field(F4, 2),
              make_field(3, 3), make_field(2, 8)):
        add, mul, neg, inv = F.tables()
        q = F.order
        rows = range(q) if q < 256 else [0, 1] + rng.sample(range(2, q), 14)
        for a in rows:
            assert add[a] == [_ref_add(F, a, b) for b in range(q)], (F, a)
            assert mul[a] == [_ref_mul(F, a, b) for b in range(q)], (F, a)
        assert neg == [_ref_neg(F, a) for a in range(q)]
        assert all(_ref_mul(F, a, inv[a]) == 1 for a in range(1, q))


def test_int_operands_are_codes_of_the_field():
    F4 = make_field(2, 2)
    add, mul, neg, inv = F4.tables()
    for a in range(4):
        x = F4.element(a)
        for b in range(4):
            assert (b - x).code == add[b][neg[a]]
            assert (x - b).code == add[a][neg[b]]
            assert (b + x).code == (x + b).code == add[a][b]
            assert (b * x).code == (x * b).code == mul[a][b]
            if a:
                assert (b / x).code == mul[b][inv[a]]
            if b:
                assert (x / b).code == mul[a][inv[b]]
    with pytest.raises(ZeroDivisionError):
        1 / F4.zero
    with pytest.raises(ValueError):
        4 - F4.element(1)
