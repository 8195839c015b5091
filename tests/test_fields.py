"""Field construction, pinned moduli, tower consistency, arithmetic laws."""

import pickle
import random

import pytest

from conftest import ref_add, ref_mul, ref_neg
from flagcodes import Matrix, Subspace, extend_field, make_field
from flagcodes.errors import FieldConstructionError
from flagcodes.fields import factorize, is_prime, order_dividing, power, power_from_squares


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
    with pytest.raises(FieldConstructionError):
        make_field(1, 1)


def test_primitive_element_orders():
    # the residue of x has code b over a base of order b, -p_0 modulo x + p_0
    assert make_field(2, 1).order_of_code(1) == 1
    F4 = make_field(2, 2)
    assert F4.mul_codes(2, 2) == 3  # w^2 = w + 1 under modulus x^2 + x + 1
    assert F4.order_of_code(2) == 3
    assert make_field(3, 3).order_of_code(3) == 26
    F9 = make_field(3, 2)
    assert F9.order_of_code(F9.pow_code(3, 2)) == 4
    assert make_field(5, 1).order_of_code(3) == 4
    # no power of zero is 1: its order is refused, as its inverse is, not
    # read as q - 1, which would call it primitive
    for F in (F4, make_field(5, 1)):
        with pytest.raises(ZeroDivisionError):
            F.order_of_code(0)


def test_every_primitive_element_generates():
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        F = make_field(p, e)
        w = F.base.order if F.base else -F.modulus[0] % p
        seen = set()
        x = 1
        for _ in range(F.order - 1):
            seen.add(x)
            x = F.mul_codes(x, w)
        assert len(seen) == F.order - 1


def test_gf4_tables():
    F4 = make_field(2, 2)
    assert [F4.mul_codes(2, c) for c in range(4)] == [0, 2, 3, 1]
    assert [F4.add_codes(2, c) for c in range(4)] == [2, 3, 0, 1]
    assert make_field(3, 1).inv_code(2) == 2


def test_field_axioms_seeded():
    rng = random.Random(1009)
    for F in [make_field(3, 2), make_field(2, 3), extend_field(make_field(2, 2), 2)]:
        add, mul = F.add_codes, F.mul_codes
        for _ in range(200):
            a, b, c = (rng.randrange(F.order) for _ in range(3))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            if a:
                assert mul(a, F.inv_code(a)) == 1
            assert add(a, F.neg_code(a)) == 0


def test_tower_and_direct_gf16_are_isomorphic():
    """GF(16) over GF(4) multiplies like GF(16) over GF(2) after mapping
    generator to generator's image; checked on all 256 pairs."""
    F4 = make_field(2, 2)
    T = extend_field(F4, 2)
    D = make_field(2, 4)
    wt, wd = 4, 2  # the residues of x over GF(4) and over GF(2)
    # an isomorphism must send wt to another generator; scan the candidates
    # for images preserving both tables
    images = []
    for i in range(1, 16):
        cand = D.pow_code(wd, i)
        if D.order_of_code(cand) != 15:
            continue
        table = {0: 0}
        x = y = 1
        for _ in range(15):
            table[x] = y
            x, y = T.mul_codes(x, wt), D.mul_codes(y, cand)
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
    T = extend_field(make_field(2, 2), 2)
    assert T.decode(9) == (1, 2)  # 9 = 1 + 2*4: coefficient vector (1, w)
    assert T.encode((1, 2)) == 9
    F8 = make_field(2, 3)
    assert F8.decode(5) == (1, 0, 1)


def test_frobenius_is_additive():
    F9 = make_field(3, 2)
    for a in range(9):
        for b in range(9):
            assert F9.pow_code(F9.add_codes(a, b), 3) == \
                   F9.add_codes(F9.pow_code(a, 3), F9.pow_code(b, 3))


def test_small_number_theory_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(91) and not is_prime(1)
    assert factorize(26) == {2: 1, 13: 1}
    assert factorize(4160) == {2: 6, 5: 1, 13: 1}


def test_power_by_square_and_multiply():
    assert power(object(), 0, None, "one") == "one"  # n = 0 takes no product
    for n in range(40):
        assert power(3, n, lambda a, b: a * b % 101, 1) == pow(3, n, 101)
    # -1 >> 1 is -1, so a negative n once shifted forever
    with pytest.raises(ValueError, match="negative"):
        power(3, -1, lambda a, b: a * b % 101, 1)


def test_power_from_squares():
    mul = lambda a, b: a * b % 101
    squares = [pow(3, 2 ** i, 101) for i in range(6)]
    for n in range(64):  # every n below 2^6
        assert power_from_squares(squares, n, mul, 1) == pow(3, n, 101)
    assert power_from_squares([], 0, None, "one") == "one"
    for n in (-1, 64):  # a negative n, and one past the squares
        with pytest.raises(ValueError):
            power_from_squares(squares, n, mul, 1)


def test_negative_code_powers():
    # a^-n is the n-th power of a's inverse, as for matrices; zero has none
    for F in (make_field(2, 2), make_field(5, 1), make_field(3, 2)):
        for a in range(1, F.order):
            for n in range(1, 2 * F.order):
                assert F.mul_codes(F.pow_code(a, -n), F.pow_code(a, n)) == 1
            assert F.pow_code(a, -1) == F.inv_code(a)
        with pytest.raises(ZeroDivisionError):
            F.pow_code(0, -1)


def test_order_dividing_matches_brute_force_orders():
    # every unit modulo every prime below 200, against walking its powers
    for p in filter(is_prime, range(200)):
        for a in range(1, p):
            brute, x = 1, a
            while x != 1:
                brute, x = brute + 1, x * a % p
            assert order_dividing(p - 1, lambda d: pow(a, d, p) == 1) == brute, (p, a)


def test_pickle_round_trips_keep_interning():
    F4 = make_field(2, 2)
    F64 = extend_field(F4, 3)
    tower = extend_field(F64, 2)  # GF(4096) over GF(64) over GF(4)
    for F in (make_field(7, 1), make_field(3, 2), F64, tower):
        assert pickle.loads(pickle.dumps(F)) is F
    M = Matrix(tower, [(1, 4095, 0), (64, 2, 777)], 3)
    U = Subspace(tower, 3, M.rows)
    for obj in (M, U):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and back.field is tower


def test_factorize_is_bounded():
    # trial division stops below 2^20; a cofactor left below 2^40 is prime,
    # a larger one is refused by name rather than divided for hours
    assert factorize(2 ** 64 - 1) == {3: 1, 5: 1, 17: 1, 257: 1, 641: 1,
                                      65537: 1, 6700417: 1}
    assert factorize(12 * 1048583) == {2: 2, 3: 1, 1048583: 1}
    for n in (1048583 * 1048589, 2 ** 127 - 1):
        with pytest.raises(FieldConstructionError, match=f"cannot factor {n}:"):
            factorize(n)
    with pytest.raises(FieldConstructionError, match=f"cannot factor {2 ** 127 - 1}:"):
        make_field(2, 127)


def test_tables_match_polynomial_arithmetic():
    F4 = make_field(2, 2)
    rng = random.Random(8)
    for F in (make_field(2, 1), make_field(3, 1), make_field(5, 1),
              make_field(7, 1), F4, make_field(2, 3), make_field(3, 2),
              extend_field(F4, 2), make_field(3, 3), make_field(2, 8)):
        add, mul, neg, inv = F.tables()
        q = F.order
        rows = range(q) if q < 256 else [0, 1] + rng.sample(range(2, q), 14)
        for a in rows:
            assert add[a] == [ref_add(F, a, b) for b in range(q)], (F, a)
            assert mul[a] == [ref_mul(F, a, b) for b in range(q)], (F, a)
        assert neg == [ref_neg(F, a) for a in range(q)]
        assert all(ref_mul(F, a, inv[a]) == 1 for a in range(1, q))
