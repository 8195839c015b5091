"""Exact matrices over a FiniteField.

Rows are tuples of integer element codes; instances are immutable and
hashable.  The hot paths (multiplication, row reduction) run on the field's
tables: lookup lists for every field up to order 1024 and computed views
above that.  Over GF(2^e), e <= 8, and GF(p), p <= 127, multiplication
and canonical row reduction run on packed rows instead, one int per row
and one byte per code (see FiniteField.byte_scalers); rank_code_rows keeps
the tables.  Each family of packed rows has one product body and one
reduction body: over GF(2^e) rows add by XOR (_xor_products, _xor_rref),
over GF(p) lane by lane modulo p (_modp_products, _modp_rref).

A packed product by B sums entries of a table of B's scaled rows,
table[j][c] the packed c B_j, each filled on first use (see _ScaledRow).
A Matrix keeps the table of its own rows once it is made, so an orbit walk
by one generator scales each row of it at most once per scalar.
act_code_rows, the right action of a matrix on rows, is the product
followed by the canonical reduction, and it returns the snapshots packed:
one bytes string of their rows, each code in lane_width(F) big-endian
bytes (see pack_rows).  Over a field with packed rows the products go
straight to the packed reduction, which writes each snapshot row into
that string and names the rows whose pivots are new at each block, so a
Flag keeps the string as its key and the names as its adapted basis; no
row becomes a tuple.

act_lanes is act_code_rows for a batch of row lists over a field of order
q <= 16, one list per byte lane of each int: one product and one
elimination per step for the whole batch, with every pivot choice a mask
over the lanes.

Validation happens where entries enter from outside: the public
`Matrix(...)` constructor checks every entry and the shape.  Results
computed from matrices that were already checked are wrapped with
`Matrix._trusted`, without the per-entry check.
"""

from bisect import bisect_left, insort
from itertools import islice

from .errors import MixedFieldsError, ShapeError, SingularMatrixError
from .fields import FiniteField, order_dividing, power, power_from_squares


class Matrix:
    # _scaled: the _ScaledRow table of the rows, set by the first act_code_rows
    # over a field with packed rows; _squares: the rows of A, A^2, A^4, ...,
    # kept by a cyclic group's generator only (see _with_squares); equality,
    # hashing and pickling read rows only
    __slots__ = ("field", "rows", "nrows", "ncols", "_hash", "_scaled", "_squares")

    def __init__(self, field: FiniteField, rows, ncols: int = None):
        """rows: iterable of iterables of element codes in [0, q).

        ncols is required when rows is empty (0-row matrices arise as
        kernels of injective maps and bases of the zero subspace).
        """
        q = field.order
        out = []
        for row in rows:
            r = []
            for x in row:
                if not (isinstance(x, int) and 0 <= x < q):
                    raise ValueError(f"bad entry {x!r} for {field}")
                r.append(x)
            out.append(tuple(r))
        if out:
            ncols_seen = len(out[0])
            if any(len(r) != ncols_seen for r in out):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != ncols_seen:
                raise ShapeError(f"rows have {ncols_seen} columns, expected {ncols}")
            ncols = ncols_seen
        elif ncols is None:
            raise ShapeError("empty matrix needs an explicit column count")
        if ncols < 1:
            raise ShapeError("column count must be positive")
        self.field = field
        self.rows = tuple(out)
        self.nrows = len(out)
        self.ncols = ncols
        self._hash = None
        self._scaled = None
        self._squares = None

    @classmethod
    def _trusted(cls, field: FiniteField, rows: tuple, ncols: int) -> "Matrix":
        """Wrap kernel output: rows is a tuple of ncols-long tuples of codes."""
        self = cls.__new__(cls)
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._hash = None
        self._scaled = None
        self._squares = None
        return self

    def _with_squares(self, count: int) -> "Matrix":
        """A copy of this square matrix that keeps its count squares A,
        A^2, ..., A^(2^(count-1)), count - 1 products, so that A^n for
        n < 2^count is read from them (see __pow__)."""
        if self.nrows != self.ncols:
            raise ShapeError("powers need a square matrix")
        F, nc = self.field, self.ncols
        squares = [self.rows]
        for _ in range(count - 1):
            squares.append(tuple(mul_code_rows(F, squares[-1], squares[-1], nc)))
        out = Matrix._trusted(F, self.rows, nc)
        out._squares = squares
        return out

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "Matrix":
        return cls(field, _identity_rows(n))

    @classmethod
    def zero(cls, field: FiniteField, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols)

    # -- shape slicing --------------------------------------------------------

    def take_rows(self, i0: int, i1: int) -> "Matrix":
        return Matrix._trusted(self.field, self.rows[i0:i1], self.ncols)

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field is not other.field:
            raise MixedFieldsError(f"matrices over {self.field} and {other.field}")
        if self.ncols != other.nrows:
            raise ShapeError(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return Matrix._trusted(
            self.field, tuple(mul_code_rows(self.field, self.rows, other.rows, other.ncols)),
            other.ncols)

    def __pow__(self, n: int):
        if self.nrows != self.ncols:
            raise ShapeError("powers need a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        F, nc = self.field, self.ncols

        def mul(a, b):
            return mul_code_rows(F, a, b, nc)

        if self._squares is not None and n >> len(self._squares) == 0:
            out = power_from_squares(self._squares, n, mul, _identity_rows(nc))
        else:
            out = power(self.rows, n, mul, _identity_rows(nc))
        return Matrix._trusted(F, tuple(out), nc)

    # -- reduction ------------------------------------------------------------

    def rank(self) -> int:
        return rank_code_rows(self.field, self.rows)[0]

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ShapeError("inverse needs a square matrix")
        n = self.nrows
        aug = [r + e for r, e in zip(self.rows, _identity_rows(n))]
        reduced = rref_code_rows(self.field, aug)[0]
        # [A | I] has rank n; A is invertible iff every pivot lies in A's block
        if reduced[-1].index(1) >= n:
            raise SingularMatrixError("matrix is singular")
        return Matrix._trusted(self.field, tuple(r[n:] for r in reduced), n)

    def is_identity(self) -> bool:
        return (self.nrows == self.ncols and
                all(x == (1 if i == j else 0)
                    for i, r in enumerate(self.rows) for j, x in enumerate(r)))

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field is other.field and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.ncols, self.rows))
        return self._hash

    def __reduce__(self):
        return Matrix, (self.field, self.rows, self.ncols)

    def _scaled_rows(self, scale) -> list:
        """The _ScaledRow table of this matrix's rows, made on first use."""
        if self._scaled is None:
            self._scaled = [_ScaledRow(scale, row) for row in self.rows]
        return self._scaled

    def __repr__(self):
        if not self.rows:
            return f"Matrix({self.field!r}, 0x{self.ncols})"
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.rows) + "]"


def vstack(upper: Matrix, lower: Matrix) -> Matrix:
    if upper.field is not lower.field:
        raise MixedFieldsError("stacking matrices over different fields")
    if upper.ncols != lower.ncols:
        raise ShapeError("stacking needs equal column counts")
    return Matrix._trusted(upper.field, upper.rows + lower.rows, upper.ncols)


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.field is not right.field:
        raise MixedFieldsError("stacking matrices over different fields")
    if left.nrows != right.nrows:
        raise ShapeError("side-by-side stacking needs equal row counts")
    return Matrix._trusted(left.field, tuple(a + b for a, b in zip(left.rows, right.rows)),
                           left.ncols + right.ncols)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    if a.field is not b.field:
        raise MixedFieldsError("blocks over different fields")
    zl = (0,) * a.ncols
    zr = (0,) * b.ncols
    rows = tuple(r + zr for r in a.rows) + tuple(zl + r for r in b.rows)
    return Matrix._trusted(a.field, rows, a.ncols + b.ncols)


def kernel_code_rows(F: FiniteField, reduced: tuple, ncols: int) -> tuple:
    """A basis of {x : r x^T = 0 for every r in reduced}, where reduced are
    canonical RREF rows: for each column f that is no pivot, e_f minus the
    sum of r[f] e_(pivot of r) over the rows r.  Each is orthogonal to every
    r, since r is 1 at its own pivot and 0 at the others."""
    neg = F.neg_code
    piv_of_col = {r.index(1): r for r in reduced}
    out = []
    for f in range(ncols):
        if f in piv_of_col:
            continue
        v = [0] * ncols
        v[f] = 1
        for c, r in piv_of_col.items():
            v[c] = neg(r[f])
        out.append(tuple(v))
    return tuple(out)


def _identity_rows(n: int) -> list:
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def mul_code_rows(F: FiniteField, arows, brows, ncols):
    """Row-major code-level product; returns a list of tuples."""
    scale = F.byte_scalers()
    if scale is not None:
        table = [_ScaledRow(scale, b) for b in brows]
        products = _packed_bodies(F)[0](F, table, arows, ncols)
        return [tuple(r.to_bytes(ncols, "big")) for r in products]
    add, mul = F.tables()[:2]
    out = []
    for arow in arows:
        acc = [0] * ncols
        for aik, brow in zip(arow, brows):
            if aik:
                mrow = mul[aik]
                acc = [add[x][mrow[y]] for x, y in zip(acc, brow)]
        out.append(tuple(acc))
    return out


def lane_width(F: FiniteField) -> int:
    """Bytes per code in a packed key: 1 up to order 256."""
    return (F.order - 1).bit_length() + 7 >> 3


def pack_rows(rows, w: int) -> bytes:
    """Rows of codes as one bytes string, each code in w big-endian bytes."""
    if w == 1:
        return b"".join(map(bytes, rows))
    return b"".join([x.to_bytes(w, "big") for row in rows for x in row])


def packed_rows(key: bytes, n: int, w: int) -> list:
    """The rows of n codes in key: slices of it over one-byte codes, whose
    items are the codes, and tuples of codes otherwise."""
    step = n * w
    rows = [key[o:o + step] for o in range(0, len(key), step)]
    if w == 1:
        return rows
    return [tuple(int.from_bytes(r[c:c + w], "big") for c in range(0, step, w))
            for r in rows]


def act_code_rows(F: FiniteField, rows, A: Matrix, sizes=None) -> tuple:
    """rref_code_rows(F, mul_code_rows(F, rows, A.rows, A.ncols), sizes)
    as (key, ranks, adapted): the snapshots' rows packed one after another
    by pack_rows(..., lane_width(F)), and their counts.

    The right action of A on the row space of each leading block of rows.
    Over a field with packed rows (see FiniteField.byte_scalers) the
    products stay packed from A's kept table of scaled rows into the packed
    reduction, which writes key itself; adapted then names, block by block,
    the rows whose pivots are new at that block, by their index in key, so
    when no block loses rank the first t it names span rows[:t], t in
    sizes.  Other fields pack the tuples of rref_code_rows: adapted is None.
    """
    scale = F.byte_scalers()
    if scale is None:
        snaps = rref_code_rows(F, mul_code_rows(F, rows, A.rows, A.ncols), sizes)
        return (pack_rows([row for snap in snaps for row in snap], lane_width(F)),
                [len(snap) for snap in snaps], None)
    products, rref = _packed_bodies(F)
    return rref(F, scale, products(F, A._scaled_rows(scale), rows, A.ncols),
                sizes, A.ncols)


def rref_code_rows(F: FiniteField, rows, sizes=None) -> list:
    """Canonical RREF rows of each leading block rows[:t], t in sizes.

    The one Gauss-Jordan body of the library: an incremental pass that
    reduces each row against the rows kept so far, keeps it when it is not
    zero and clears its pivot column from the others.  After the t-th row it
    takes a snapshot, the nonzero rows in pivot order as a tuple of tuples;
    the pivot of a snapshot row is the index of its leading 1.  sizes must be
    increasing and defaults to (len(rows),); a dependent or zero row adds
    nothing, so a block of rank r yields r rows.  Once every column has a
    pivot, every later row reduces to zero and is skipped.  rows is not
    modified.  Fields with packed rows run the same pass on them (see
    _xor_rref and _modp_rref) and unpack its key; a snapshot row equal to a
    given row (a row kept as given, as a parsed basis is) is the caller's
    tuple.
    """
    scale = F.byte_scalers()
    if scale is not None and rows:
        raw = [bytes(row) for row in rows]
        key, ranks, _ = _packed_bodies(F)[1](
            F, scale, [int.from_bytes(b, "big") for b in raw], sizes, len(raw[0]))
        given = dict(zip(raw, map(tuple, rows))).get
        out = iter([given(r) or tuple(r) for r in packed_rows(key, len(raw[0]), 1)])
        return [tuple(islice(out, r)) for r in ranks]
    add, mul, neg, inv = F.tables()
    reduced = {}  # pivot column -> row, zero at every other pivot column
    ncols = len(rows[0]) if rows else 0
    snapshots = []
    done = 0
    for t in (len(rows),) if sizes is None else sizes:
        for row in rows[done:t]:
            if len(reduced) == ncols:
                break
            for c, b in reduced.items():
                x = row[c]
                if x:
                    mrow = mul[neg[x]]
                    row = [add[y][mrow[z]] for y, z in zip(row, b)]
            pv = next(filter(None, row), 0)  # leading entry, 0 for a zero row
            if pv:
                lead = row.index(pv)
                if pv != 1:
                    mrow = mul[inv[pv]]
                    row = [mrow[x] for x in row]
                row = tuple(row)
                for c, b in reduced.items():
                    x = b[lead]
                    if x:
                        mrow = mul[neg[x]]
                        reduced[c] = tuple([add[y][mrow[z]] for y, z in zip(b, row)])
                reduced[lead] = row
        done = t
        snapshots.append(tuple(reduced[c] for c in sorted(reduced)))
    return snapshots


class _ScaledRow(dict):
    """c -> the packed int of c times one row, rows packed one byte per
    code (see FiniteField.byte_scalers); an entry is computed, one
    translate, on its first lookup and kept."""

    __slots__ = ("packed", "scale")

    def __init__(self, scale, row):
        self.packed = bytes(row)
        self.scale = scale

    def __missing__(self, c):
        value = self[c] = int.from_bytes(self.packed.translate(self.scale[c]), "big")
        return value


def _packed_bodies(F: FiniteField) -> tuple:
    """The product and reduction bodies of F's packed rows: XOR lanes over
    characteristic 2, lanes added modulo p over a prime field."""
    if F.characteristic == 2:
        return _xor_products, _xor_rref
    return _modp_products, _modp_rref


def _xor_products(F, table, arows, ncols) -> list:
    """The packed rows of arows times B over GF(2^e), e <= 8, from the
    _ScaledRow table of B's rows: row a of the product is the XOR of
    table[j][a_j], a_j nonzero."""
    out = []
    for arow in arows:
        acc = 0
        for a, scaled in zip(arow, table):
            if a:
                acc ^= scaled[a]
        out.append(acc)
    return out


def _modp_products(F, table, arows, ncols) -> list:
    """_xor_products over GF(p), p <= 127: a product row sums the scaled
    rows lane by lane and folds every lane modulo p, one translate through
    the table of products by 1, before any lane could pass 255."""
    fold = F.byte_scalers()[1]
    step = 255 // (F.characteristic - 1) - 1  # terms a lane below p takes within 255
    parts = [(j, table[j:j + step]) for j in range(0, len(table), step)]
    from_bytes = int.from_bytes
    out = []
    for arow in arows:
        acc = 0
        for j, part in parts:
            for a, scaled in zip(arow[j:], part):
                if a:
                    acc += scaled[a]
            acc = from_bytes(acc.to_bytes(ncols, "big").translate(fold), "big")
        out.append(acc)
    return out


def _xor_rref(F, scale, rows, sizes, ncols) -> tuple:
    """rref_code_rows over GF(2^e), e <= 8, on rows packed into ints, one
    byte per code, the first of ncols codes in the top byte, returned as
    act_code_rows returns it; -x is x and x - y is x ^ y.

    A kept row is keyed by the shift of its pivot byte, read from
    bit_length(), so the byte at a pivot is r >> shift & 255, and the
    shifts are kept sorted, so the rows in pivot order are the shifts read
    down, each written into the key, and the row of shift s is row
    len(shifts) - 1 - bisect_left(shifts, s) of its snapshot.
    """
    inv = F.tables()[3]
    from_bytes = int.from_bytes
    reduced = {}  # pivot shift -> packed row, zero at every other pivot
    shifts = []  # the keys of reduced, ascending
    key = bytearray()
    ranks, adapted = [], []
    done = 0
    for t in (len(rows),) if sizes is None else sizes:
        new = []  # the shifts this block kept
        for r in rows[done:t]:
            if len(reduced) == ncols:
                break
            for s, b in reduced.items():
                x = r >> s & 255
                if x == 1:
                    r ^= b
                elif x:
                    r ^= from_bytes(b.to_bytes(ncols, "big").translate(scale[x]), "big")
            if r:
                lead = r.bit_length() - 1 & -8
                pv = r >> lead
                if pv == 1:
                    rb = r.to_bytes(ncols, "big")
                else:  # scale to a leading 1
                    rb = r.to_bytes(ncols, "big").translate(scale[inv[pv]])
                    r = from_bytes(rb, "big")
                for s, b in reduced.items():
                    x = b >> lead & 255
                    if x == 1:
                        reduced[s] = b ^ r
                    elif x:
                        reduced[s] = b ^ from_bytes(rb.translate(scale[x]), "big")
                reduced[lead] = r
                insort(shifts, lead)
                new.append(lead)
        done = t
        last = len(key) // ncols + len(shifts) - 1  # the snapshot's last row
        adapted += [last - bisect_left(shifts, s) for s in new]
        for s in reversed(shifts):
            key += reduced[s].to_bytes(ncols, "big")
        ranks.append(len(shifts))
    return bytes(key), ranks, tuple(adapted)


def _modp_rref(F, scale, rows, sizes, ncols) -> tuple:
    """_xor_rref over GF(p), p <= 127: x - c y is x + (p - c) y, one
    translate, then p is taken off every lane that reached p, the lanes
    where adding 128 - p sets the top bit.  Both lanes are below p, so
    their sum stays below 2p - 1 <= 252 and one subtraction reduces it.
    """
    p = F.characteristic
    inv = F.tables()[3]
    from_bytes = int.from_bytes
    top = from_bytes(b"\x80" * ncols, "big")  # the top bit of every lane
    lift = from_bytes(bytes([128 - p]) * ncols, "big")
    reduced = {}  # pivot shift -> packed row, zero at every other pivot
    shifts = []  # the keys of reduced, ascending
    key = bytearray()
    ranks, adapted = [], []
    done = 0
    for t in (len(rows),) if sizes is None else sizes:
        new = []  # the shifts this block kept
        for r in rows[done:t]:
            if len(reduced) == ncols:
                break
            for s, b in reduced.items():
                x = r >> s & 255
                if x:
                    if x == p - 1:
                        r += b
                    else:
                        r += from_bytes(b.to_bytes(ncols, "big").translate(scale[p - x]), "big")
                    r -= ((r + lift & top) >> 7) * p
            if r:
                lead = r.bit_length() - 1 & -8
                pv = r >> lead
                if pv == 1:
                    rb = r.to_bytes(ncols, "big")
                else:  # scale to a leading 1
                    rb = r.to_bytes(ncols, "big").translate(scale[inv[pv]])
                    r = from_bytes(rb, "big")
                for s, b in reduced.items():
                    x = b >> lead & 255
                    if x:
                        if x == p - 1:
                            b += r
                        else:
                            b += from_bytes(rb.translate(scale[p - x]), "big")
                        reduced[s] = b - ((b + lift & top) >> 7) * p
                reduced[lead] = r
                insort(shifts, lead)
                new.append(lead)
        done = t
        last = len(key) // ncols + len(shifts) - 1  # the snapshot's last row
        adapted += [last - bisect_left(shifts, s) for s in new]
        for s in reversed(shifts):
            key += reduced[s].to_bytes(ncols, "big")
        ranks.append(len(shifts))
    return bytes(key), ranks, tuple(adapted)


def act_lanes(F: FiniteField, rows, A: Matrix, sizes, width: int) -> tuple:
    """act_code_rows for width lists of rows at once, over a field of order
    q <= 16, as (snaps, adapted).

    Lane layout: rows[i][c] is one int of width bytes whose byte b, read
    little-endian, is entry (i, c) of list b, so one int operation acts on
    every list: the byte lanes of Boothby and Bradshaw's bitslicing, taken
    across lists instead of along a row.  A product, difference, nonzero
    mask or inverse of codes, lane by lane, is one translate through a
    table of FiniteField.lane_tables, a pair of codes x, y read as the byte
    x << 4 | y; over characteristic 2 a difference is XOR, and over GF(2) a
    product is AND.  Every list must keep its rank, as the adapted basis of
    a flag under an invertible A does: a lane that loses rank raises
    SingularMatrixError.

    The pass is rref_code_rows with the kept rows filed by pivot column:
    slot c holds, in each lane whose pivots include c, the row with its
    leading 1 at c, and 0 in the other lanes.  A new row is reduced against
    every slot, scaled to a leading 1 lane by lane, cleared from the slots
    at its leading column and filed there.  After each block rows[:t], t in
    sizes, row p of the snapshot is, lane by lane, the slot of the p-th
    pivot, compacted by masks over the pairs (p, c) with
    c - (n - t) <= p <= c, the only columns where the p-th of t pivots
    among n columns can lie.  snaps is the snapshots' rows, entry after
    entry, width bytes each, so list b's key is snaps[b::width].  adapted is
    the rows for the next step in lane form: each row as it was filed,
    reduced against the rows before it, so its first t rows span what
    rows[:t] spans.
    """
    mul, sub, nonzero, inv = F.lane_tables()
    n = A.ncols
    xor = F.characteristic == 2
    binary = F.order == 2  # a product is AND, a nonzero mask 255 x, 1 its inverse
    from_bytes = int.from_bytes

    def lookup(x, table):
        return from_bytes(x.to_bytes(width, "little").translate(table), "little")

    ones = from_bytes(b"\x01" * width, "little")
    full = 255 * ones
    scale = [mul[a << 4:a + 1 << 4] + bytes(240) for a in range(F.order)]
    cols = [[(j, a) for j, a in enumerate(col) if a] for col in zip(*A.rows)]

    def product(row):
        """row A, negated over odd characteristic: -XA has the snapshots of XA."""
        scaled = {}
        out = []
        for col in cols:
            acc = 0
            for j, a in col:
                x = row[j]
                if x:
                    if a != 1:
                        y = scaled.get((j, a))
                        if y is None:
                            y = scaled[j, a] = lookup(x, scale[a])
                        x = y
                    acc = acc ^ x if xor else lookup(acc << 4 | x, sub)
            out.append(acc)
        return out

    def clear(r, x, b):
        """r - x b lane by lane."""
        if binary:
            return [y ^ x & z for y, z in zip(r, b)]
        x <<= 4
        if xor:
            return [y ^ lookup(x | z, mul) if z else y for y, z in zip(r, b)]
        return [lookup(y << 4 | lookup(x | z, mul), sub) if z else y
                for y, z in zip(r, b)]

    slots = [None] * n  # column -> rows with their leading 1 there, 0 in other lanes
    pivots = [0] * n  # column -> 255 in each lane whose pivot set has it
    snaps, adapted = [], []
    done = 0
    for t in sizes:
        for r in map(product, rows[done:t]):
            for c, b in enumerate(slots):
                if b is not None and r[c]:
                    r = clear(r, r[c], b)
            lead, found = [], 0
            for j, y in enumerate(r):
                if y:
                    m = (255 * y if binary else lookup(y, nonzero)) & ~found
                    if m:
                        lead.append((j, m))
                        found |= m
                        if found == full:
                            break
            if found != full:
                raise SingularMatrixError("a lane loses rank")
            pv = 0
            for j, m in lead:
                pv |= r[j] & m
            if pv != ones:  # scale to a leading 1
                pv = lookup(pv, inv) << 4
                r = [lookup(pv | y, mul) if y else 0 for y in r]
            for c, b in enumerate(slots):
                if b is not None:
                    x = 0
                    for j, m in lead:
                        x |= b[j] & m
                    if x:
                        slots[c] = clear(b, x, r)
            for j, m in lead:
                pivots[j] |= m
                b = slots[j]
                slots[j] = ([y & m for y in r] if b is None
                            else [z | y & m for z, y in zip(b, r)])
            adapted.append(r)
        done = t
        snap = [[0] * n for _ in range(t)]
        left = [full] + [0] * t  # left[p]: the lanes with p pivots left of c
        for c, P in enumerate(pivots):
            if P:
                b = slots[c]
                for p in range(min(c, t - 1), max(0, c - n + t) - 1, -1):
                    m = left[p] & P
                    if m:
                        left[p] ^= m
                        left[p + 1] |= m
                        snap[p] = b if m == full else [o | z & m for o, z in zip(snap[p], b)]
        snaps += [x.to_bytes(width, "little") for row in snap for x in row]
    return b"".join(snaps), adapted


def rank_code_rows(F: FiniteField, rows, sizes=None) -> list:
    """Rank of each leading block rows[:t], t in sizes.

    The forward half of rref_code_rows, for callers that read only a rank:
    each new row is reduced against the rows kept so far, in the order they
    were kept, and kept scaled to a leading 1 when it is not zero.  A kept
    row is zero at the pivots of the rows kept before it, so each step
    clears its pivot column for good and a row that ends nonzero is
    independent of them.  No back-substitution, no snapshot rows.  sizes
    is as in rref_code_rows, and so is the stop at full rank.  rows is not
    modified.
    """
    add, mul, neg, inv = F.tables()
    kept = []  # (pivot column, row) in the order kept
    ncols = len(rows[0]) if rows else 0
    ranks = []
    done = 0
    for t in (len(rows),) if sizes is None else sizes:
        for row in rows[done:t]:
            if len(kept) == ncols:
                break
            for c, b in kept:
                x = row[c]
                if x:
                    mrow = mul[neg[x]]
                    row = [add[y][mrow[z]] for y, z in zip(row, b)]
            pv = next(filter(None, row), 0)  # leading entry, 0 for a zero row
            if pv:
                lead = row.index(pv)
                if pv != 1:
                    mrow = mul[inv[pv]]
                    row = [mrow[x] for x in row]
                kept.append((lead, row))
        done = t
        ranks.append(len(kept))
    return ranks


def matrix_order(A: Matrix, order_hint: int) -> int:
    """Multiplicative order of a square matrix A with A^order_hint = I.

    order_hint is a known multiple of the order, such as the order of a
    group A lies in; the order is found by dividing out the primes of the
    hint, one power A^d per test (see order_dividing) after A^order_hint.
    Each power is a square and multiply, about 2 log2(d) products, unless
    A keeps its squares (a CyclicMatrixGroup's generator): then it is
    popcount(d) - 1 products.  A singular matrix, or one whose order does
    not divide the hint, raises ValueError.
    """
    if A.nrows != A.ncols:
        raise ShapeError("order needs a square matrix")
    if order_hint < 1:
        raise ValueError("order hint must be positive")
    if not (A ** order_hint).is_identity():
        raise ValueError(f"matrix order does not divide hint {order_hint}")
    return order_dividing(order_hint, lambda d: (A ** d).is_identity())
