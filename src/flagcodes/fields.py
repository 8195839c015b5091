"""Finite fields GF(p^e), including towers GF(q^k) built over a smaller field.

Elements are integer codes in [0, q) and nothing else: there is no element
type, and the arithmetic (add_codes, mul_codes, neg_code, inv_code, pow_code,
order_of_code) takes and returns codes.  For a prime field the code is the
residue itself; for an extension of degree e over a base of order b,
the code is the base-b positional value of the coefficient vector
(c_0, ..., c_{e-1}) with respect to the power basis of the residue x, the
constant coefficient c_0 being the least significant digit.  The encoding
nests: an element of GF(64) built over GF(4) has three GF(4) digits, each of
which is itself a 2-digit GF(2) code.

The modulus of every extension is pinned deterministically: the first monic
primitive polynomial of the right degree, candidates ordered
lexicographically by coefficient vector (constant term first, coefficients
compared by their integer codes).  Primitivity is certified by checking that
the residue of x has multiplicative order exactly q - 1 in F[x]/(f); a
reducible f cannot pass this check because its quotient's unit group is too
small to contain an element of that order.

Fields are interned: make_field with equal arguments returns the same
object, so field identity doubles as field equality.  Instances never mutate
after construction apart from idempotent lazy caches (the arithmetic
tables), which makes them safe to share across threads.
"""

from functools import partial, reduce

from .errors import FieldConstructionError

# full add/mul tables are built for fields up to this order
_TABLE_LIMIT = 1024

_FIELD_CACHE: dict = {}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the sizes used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# trial division stops below this bound, so a factorization ends in bounded time
_TRIAL_DIVISION_BOUND = 1 << 20


def factorize(n: int) -> dict:
    """Prime factorization {p: multiplicity} by trial division below
    _TRIAL_DIVISION_BOUND = B.

    What is left has no prime factor below B, so it is 1 or prime when it
    is below B^2.  A larger cofactor raises FieldConstructionError naming
    n, where dividing on could take hours (2^127 - 1 is one such n).
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    m = n
    out: dict = {}
    d = 2
    while d * d <= m and d < _TRIAL_DIVISION_BOUND:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m >= _TRIAL_DIVISION_BOUND ** 2:
        raise FieldConstructionError(
            f"cannot factor {n}: trial division below {_TRIAL_DIVISION_BOUND} "
            f"leaves a cofactor of {m.bit_length()} bits")
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def prime_factors(n: int) -> list:
    return sorted(factorize(n))


def power(x, n: int, mul, one):
    """x^n for n >= 0 by square and multiply, in the monoid (mul, one):
    about 2 log2(n) products.  A negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def power_from_squares(squares, n: int, mul, one):
    """x^n from squares[i] = x^(2^i), for 0 <= n < 2^len(squares): the
    product of the squares at the set bits of n, popcount(n) - 1 products.
    A negative n, or one past the squares, raises ValueError."""
    if n < 0 or n >> len(squares):
        raise ValueError(f"exponent {n} is not read from {len(squares)} squares")
    picked = [x for i, x in enumerate(squares) if n >> i & 1]
    return reduce(mul, picked) if picked else one


def order_dividing(n: int, is_one) -> int:
    """The order of an x with x^n = 1: the least d dividing n with
    is_one(d), where is_one(m) tells whether x^m = 1.  Costs one is_one
    call per prime factor of n, plus one per prime divided out."""
    d = n
    for ell in prime_factors(n):
        while d % ell == 0 and is_one(d // ell):
            d //= ell
    return d


class _CodeTable:
    """Read-only table whose entry t[a] is fn(a), computed on access."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return self.fn(a)


class FiniteField:
    """GF(p^e), possibly an extension tower over another FiniteField.

    Not constructed directly; use make_field / extend_field so instances
    are interned and moduli stay pinned.
    """

    def __init__(self, p: int, e: int, base, modulus: tuple):
        self.characteristic = p
        self.degree = e
        self.base = base  # None for prime fields
        self.order = p if base is None else base.order ** e
        # lower coefficients (p_0, ..., p_{e-1}) of the monic modulus, as
        # base-field codes; for a prime field the single coefficient of x + p_0
        self.modulus = modulus
        self._add = None
        self._mul = None
        self._neg = None
        self._inv = None
        self._tables = None
        self._byte_scalers = None
        self._lane_tables = None

    # -- code arithmetic ----------------------------------------------------

    def decode(self, code: int) -> tuple:
        """Base-field digit tuple (c_0, ..., c_{e-1}) of an element code."""
        b = self.base.order
        return tuple(code // b ** i % b for i in range(self.degree))

    def encode(self, digits) -> int:
        b = self.base.order
        code = 0
        for i, d in enumerate(digits):
            code += d * b ** i
        return code

    def add_codes(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        if self.base is None:
            return (a + b) % self.characteristic
        bb = self.base
        return self.encode(bb.add_codes(x, y) for x, y in zip(self.decode(a), self.decode(b)))

    def neg_code(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        if self.base is None:
            return (-a) % self.characteristic
        bb = self.base
        return self.encode(bb.neg_code(x) for x in self.decode(a))

    def mul_codes(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        if self.base is None:
            return a * b % self.characteristic
        prod = _poly_mul(self.base, self.decode(a), self.decode(b))
        return self.encode(_poly_rem(self.base, prod, self.modulus))

    def pow_code(self, a: int, n: int) -> int:
        """a^n; a negative n is the power of a's inverse, none for a = 0."""
        if n < 0:
            return power(self.inv_code(a), -n, self.mul_codes, 1)
        return power(a, n, self.mul_codes, 1)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._inv is not None:
            return self._inv[a]
        return self.pow_code(a, self.order - 2)

    def order_of_code(self, a: int) -> int:
        if a == 0:  # no power of zero is 1
            raise ZeroDivisionError("order of zero")
        return order_dividing(self.order - 1, lambda d: self.pow_code(a, d) == 1)

    # -- lazy tables ---------------------------------------------------------

    def tables(self):
        """(add, mul, neg, inv), indexed as add[a][b], mul[a][b], neg[a], inv[a].

        Up to the size cap these are lookup lists; above it they are views
        that compute each entry with the code methods, so the row kernels
        have one body for every field.  Built once on demand; rebuilding is
        idempotent, so the benign race under free threading costs only
        duplicated work.
        """
        if self._tables is None:
            if self.order > _TABLE_LIMIT:
                self._tables = (
                    _CodeTable(lambda a: _CodeTable(partial(self.add_codes, a))),
                    _CodeTable(lambda a: _CodeTable(partial(self.mul_codes, a))),
                    _CodeTable(self.neg_code), _CodeTable(self.inv_code))
            else:
                # x^i x^j = x^(i+j) and x^i + x^j = x^i (1 + x^(j-i)), so the
                # powers of x and the Zech table 1 + x^d (as codes) give every
                # entry: 2 (q - 1) field operations instead of q^2.  A negative
                # list index below is the exponent mod q - 1.
                q = self.order
                exp, logs = self._log_tables()
                zech = [self.add_codes(1, c) for c in exp]
                mul = [[0] * q] + [[0] + [exp[i + j - q + 1] for j in logs] for i in logs]
                add = [list(range(q))] + [
                    [a] + [mul[a][zech[j - i]] for j in logs]
                    for a, i in zip(range(1, q), logs)]
                half = 0 if self.characteristic == 2 else (q - 1) // 2  # -1 = x^half
                neg = [0] + [exp[i + half - q + 1] for i in logs]
                inv = [0] + [exp[-i] for i in logs]
                self._add, self._neg, self._inv = add, neg, inv
                self._mul = mul  # set after the others: mul_codes keys off _mul
                self._tables = (add, mul, neg, inv)
        return self._tables

    def byte_scalers(self):
        """The bytes.translate tables of products by each code, scale[c],
        256 bytes each, for the fields whose rows the row kernels pack one
        byte per code: GF(2^e) up to order 256 and GF(p) for p <= 127.
        None for every other field.

        The code of an element of characteristic 2 is a bit vector over
        GF(2) (the digits nest, each a bit vector), so adding codes is XOR,
        and a row of codes packs into one int: adding rows is one XOR,
        scaling one translate.  Over GF(p), p <= 127, two codes add below
        256 without a carry into the next byte, so a packed row adds lane by
        lane and then takes p off each lane past it (see matrices).  There
        scale[c][v] is c v mod p for every byte v, so scale[1] folds a lane
        sum modulo p; above the order of GF(2^e) the table bytes never occur.
        """
        p, q = self.characteristic, self.order
        if self._byte_scalers is None and (p == 2 and q <= 256 or q == p <= 127):
            pad = bytes(256 - q)
            scale = [bytes(row) + pad for row in self.tables()[1]]
            if p != 2:  # c v for every byte v, so scale[1] folds a lane modulo p
                fold = bytes(v % p for v in range(256))
                scale = [fold.translate(row) for row in scale]
            self._byte_scalers = scale
        return self._byte_scalers

    def lane_tables(self):
        """(mul, sub, nonzero, inv): the bytes.translate tables of the lane
        kernel (see matrices.act_lanes) over a field of order q <= 16, 256
        bytes each; None above.  A lane byte holds one code, below 16, so a
        pair of codes x, y is the one byte x << 4 | y: mul maps it to x y
        and sub to x - y, while nonzero maps a code to 255 when it is not
        zero and inv maps it to its inverse (0 to 0).
        """
        q = self.order
        if self._lane_tables is None and q <= 16:
            add, mul, neg, inv = self.tables()
            pairs = [(x, y) for x in range(16) for y in range(16)]
            self._lane_tables = (
                bytes(mul[x][y] if x < q > y else 0 for x, y in pairs),
                bytes(add[x][neg[y]] if x < q > y else 0 for x, y in pairs),
                bytes(255 if 0 < v < q else 0 for v in range(256)),
                bytes(inv[v] if 0 < v < q else 0 for v in range(256)))
        return self._lane_tables

    def _log_tables(self):
        """(exp, log[1:]): exp[i] is the code of x^i, log[c] its exponent."""
        # the residue of x: code b over a base of order b, -p_0 modulo x + p_0
        g = self.base.order if self.base else -self.modulus[0] % self.characteristic
        exp = []
        log = [0] * self.order
        c = 1
        for i in range(self.order - 1):
            exp.append(c)
            log[c] = i
            c = self.mul_codes(c, g)
        if c != 1:
            raise AssertionError("primitive element order check failed")
        return exp, log[1:]

    def __repr__(self):
        if self.base is None or self.base.base is None:
            return f"GF({self.order})"
        return f"GF({self.order}) over {self.base!r}"

    def __reduce__(self):
        # preserve interning across pickling
        chain = []
        F = self
        while F.base is not None:
            chain.append(F.degree)
            F = F.base
        return (_rebuild_field, (F.characteristic, tuple(reversed(chain))))


def _rebuild_field(p, degrees):
    F = make_field(p, 1)
    for e in degrees:
        F = make_field(p, e, base=F)
    return F


# -- polynomial helpers over a field, coefficients as codes, low-order first --

def _poly_mul(F: FiniteField, a, b):
    out = [0] * (len(a) + len(b) - 1)
    add, mul = F.add_codes, F.mul_codes
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def _poly_rem(F: FiniteField, a, lower):
    """Remainder of a (at least e coefficients) modulo x^e + sum lower[i] x^i."""
    e = len(lower)
    a = list(a)
    add, mul, neg = F.add_codes, F.mul_codes, F.neg_code
    for i in range(len(a) - 1, e - 1, -1):
        c = a[i]
        if c == 0:
            continue
        a[i] = 0
        nc = neg(c)
        for j, m in enumerate(lower):
            if m:
                a[i - e + j] = add(a[i - e + j], mul(nc, m))
    del a[e:]
    return a


def _residue_order_is(F: FiniteField, lower, n: int) -> bool:
    """Whether x has multiplicative order exactly n in F[x]/(x^e + ...), e >= 2."""
    one = [1] + [0] * (len(lower) - 1)
    x = [0, 1] + one[2:]

    def mul(a, b):
        return _poly_rem(F, _poly_mul(F, a, b), lower)

    def is_one(m):
        return power(x, m, mul, one) == one

    # stops at the first failure: the search rejects most candidates
    return is_one(n) and not any(is_one(n // ell) for ell in prime_factors(n))


def _search_modulus(base: FiniteField, e: int) -> tuple:
    """First monic primitive degree-e polynomial over base, by lex order of
    (p_0, ..., p_{e-1})."""
    b = base.order
    n = b ** e - 1
    if b <= _TABLE_LIMIT:
        base.tables()  # the scan below is multiplication-heavy
    # The residue of x is a unit-group generator only if its norm, which is
    # (-1)^e times the constant term, generates the base units.  Whole rows
    # failing that are skipped; survivors are untouched, so the first hit
    # (and with it the pinned modulus) is the same as a full scan's.
    flip = e % 2 == 1
    good = [c for c in range(1, b)
            if base.order_of_code(base.neg_code(c) if flip else c) == b - 1]
    inner = b ** (e - 1)
    weights = [b ** (e - 2 - j) for j in range(e - 1)]
    for p0 in good:
        for idx in range(inner):
            lower = (p0,) + tuple(idx // w % b for w in weights)
            if _residue_order_is(base, lower, n):
                return lower
    raise AssertionError("no primitive polynomial found")  # unreachable


def _search_prime_modulus(p: int) -> tuple:
    """First c such that x + c has a primitive residue -c mod p."""
    for c in range(1, p):  # the residue p - c has (p - c)^(p - 1) = 1 (Fermat)
        if order_dividing(p - 1, lambda d: pow(p - c, d, p) == 1) == p - 1:
            return (c,)
    raise AssertionError("no primitive root found")  # unreachable


def make_field(p: int, e: int, base: FiniteField = None) -> FiniteField:
    """GF(p^e) as a degree-e extension of base (or of the prime field).

    Interned: equal arguments return the identical object, and with it the
    identical pinned modulus.
    """
    if not is_prime(p):
        raise FieldConstructionError(f"characteristic {p} is not prime")
    if e < 1:
        raise FieldConstructionError(f"extension degree {e} < 1")
    if base is not None and base.characteristic != p:
        raise FieldConstructionError(
            f"base characteristic {base.characteristic} differs from {p}")

    if base is None and e > 1:
        # GF(p^e) with no explicit base: extension over GF(p)
        return make_field(p, e, base=make_field(p, 1))

    key = (p, e, id(base))
    F = _FIELD_CACHE.get(key)
    if F is not None:
        return F
    if base is None:
        F = FiniteField(p, 1, None, _search_prime_modulus(p))
    elif e == 1:
        F = base  # a degree-1 extension adds nothing
    else:
        F = FiniteField(p, e, base, tuple(_search_modulus(base, e)))
    _FIELD_CACHE[key] = F
    return F


def extend_field(base: FiniteField, k: int) -> FiniteField:
    """Degree-k extension tower over an existing field."""
    return make_field(base.characteristic, k, base=base)
