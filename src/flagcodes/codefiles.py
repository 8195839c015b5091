"""Line-oriented text files for flag codes and subspace codes.

    FLAGCODE v1
    field p=3 e=1 tower=3,2
    ambient n=6
    type 1,2,3,4,5
    count 28
    flag
    subspace k=1
    1 0 0 0 0 0
    subspace k=2
    ...

`tower=k,s` is optional provenance for spread-type constructions: it must
describe the ambient space as a spread context does (k >= 1, s >= 2,
k s = n), and has no other effect on parsing.  The ambient field is
reconstructed as make_field(p, e), so only codes over fields built that way
can be written: the element codes of a tower over an intermediate field
name other elements of GF(p^e).  format_* and write_* refuse such a code,
a field of order above MAX_FIELD_ORDER, which the parser refuses, or a
tower that does not describe n, with ValueError, write_* before it opens
the path.  A SUBCODE v1 file is identical except the type line holds
a single dimension and the body is `count` subspace blocks with no `flag`
separators.  Entries are integer element codes of GF(p^e); members are
written sorted by canonical basis, so serialization is deterministic.

write_* stream a file to disk one member block at a time, so the file's
text is never held whole in memory; format_* join the same blocks into one
string.  Each block is a member's packed key, one byte per code, laid into
one template of the file by a translate per digit place of a code; no text
of a row is kept from one block to the next.
"""

import io
import re
from itertools import chain
from typing import Iterator, NamedTuple

from .errors import CodeFileError
from .fields import FiniteField, make_field
from .flags import Flag, FlagCode
from .matrices import pack_rows, rref_code_rows
from .subspaces import Subspace, SubspaceCode

_FLAG_MAGIC = "FLAGCODE v1"
_SUB_MAGIC = "SUBCODE v1"

# Header limits, checked before a field is built or a member is read.  make_field
# factors p^e - 1 by trial division, and row reduction builds q x q tables from
# the field's log tables: 30 ms for GF(2^8), 0.32 s for GF(2^10) on one core of
# a shared Xeon VM.  Fields above order 1024 get no tables at all.
MAX_FIELD_ORDER = 256
MAX_AMBIENT_DIM = 1024
MAX_COUNT = 1 << 20


def check_field_order(p: int, e: int):
    """ValueError above MAX_FIELD_ORDER; p and e are bounded before p ** e."""
    if p > MAX_FIELD_ORDER or e > MAX_FIELD_ORDER or (p > 1 and p ** e > MAX_FIELD_ORDER):
        raise ValueError(f"field order {p}^{e} exceeds the limit {MAX_FIELD_ORDER}")


def _check_tower(tower: tuple, n: int):
    """ValueError unless tower = (k, s) has k >= 1, s >= 2 and k s = n, the
    towers a spread context accepts."""
    k, s = tower
    if k < 1 or s < 2 or k * s != n:
        raise ValueError(f"tower={k},{s} does not describe ambient n={n}: "
                         "it needs k >= 1, s >= 2 and k*s = n")


class CodeFileData(NamedTuple):
    kind: str                 # "flag" or "subspace"
    tower: tuple              # (k, s) or None
    code: object              # FlagCode or SubspaceCode


def _field_line(field: FiniteField, n: int, tower) -> str:
    q = field.order
    p = field.characteristic
    e = 0
    while p ** e < q:
        e += 1
    check_field_order(p, e)
    if field is not make_field(p, e):
        raise ValueError(f"{field!r} is not make_field({p}, {e}), the field "
                         f"a file with p={p} e={e} reads back over")
    line = f"field p={p} e={e}"
    if tower is not None:
        _check_tower(tower, n)
        line += f" tower={tower[0]},{tower[1]}"
    return line


def _file_text(magic: str, code, dims: tuple, separator: str, keys,
               tower) -> Iterator[str]:
    """The text of a code file, one string at a time: the header block, then
    one block per key of keys, each member's canonical rows as pack_rows
    writes them, started by separator.  The header, and the field and tower
    checks in it, is built by this call, before the first string is read."""
    header = "\n".join([magic, _field_line(code.field, code.n, tower),
                        f"ambient n={code.n}",
                        "type " + ",".join(str(t) for t in dims),
                        f"count {len(code)}", ""])
    return chain([header], _member_blocks(code.field, code.n, dims, separator, keys))


def _member_blocks(field: FiniteField, n: int, dims: tuple, separator: str,
                   keys) -> Iterator[str]:
    """Each member's block from one template of the file: the separator,
    each `subspace k=t` line and views of one bytes string of the rows, D =
    len(str(q - 1)) digit places per code with spaces and newlines in place.
    A key has one byte per code (q <= MAX_FIELD_ORDER): one translate per
    digit place writes it (a NUL for a leading zero) into its places by an
    extended-slice assignment, and for D > 1 a replace drops the NULs."""
    D = len(str(field.order - 1))
    digits = [str(x).rjust(D, "\0") for x in range(field.order)]
    tables = [bytes(ord(c[d]) for c in digits).ljust(256, b"\0") for d in range(D)]
    row = (b"\0" * D + b" ") * (n - 1) + b"\0" * D + b"\n"
    rows = bytearray(row * sum(dims))
    template, start = [separator.encode()], 0
    for t in dims:
        view = memoryview(rows)[start:start + t * len(row)]
        template += (f"subspace k={t}\n".encode(), view)
        start += t * len(row)
    places = [slice(d, None, D + 1) for d in range(D)]
    for key in keys:
        for at, table in zip(places, tables):
            rows[at] = key.translate(table)
        block = b"".join(template)
        yield (block.replace(b"\0", b"") if D > 1 else block).decode()


def _flag_text(code: FlagCode, tower) -> Iterator[str]:
    return _file_text(_FLAG_MAGIC, code, code.dims, "flag\n",
                      (flag.key for flag in code.members), tower)


def _subspace_text(code: SubspaceCode, tower) -> Iterator[str]:
    return _file_text(_SUB_MAGIC, code, (code.dim,), "",
                      (pack_rows(sub.rows, 1) for sub in code.members), tower)


def format_flag_code(code: FlagCode, tower=None) -> str:
    return "".join(_flag_text(code, tower))


def format_subspace_code(code: SubspaceCode, tower=None) -> str:
    return "".join(_subspace_text(code, tower))


def write_flag_code(code: FlagCode, path, tower=None):
    """Write the file member by member; a code the format cannot hold is
    refused before path is opened, so an existing file keeps its bytes."""
    blocks = _flag_text(code, tower)
    with open(path, "w") as fh:
        fh.writelines(blocks)


def write_subspace_code(code: SubspaceCode, path, tower=None):
    """As write_flag_code, for a SUBCODE file."""
    blocks = _subspace_text(code, tower)
    with open(path, "w") as fh:
        fh.writelines(blocks)


class _Cursor:
    """The nonblank lines of a file's text, stripped, read one at a time with
    the numbers str.splitlines() gives them; no list of the lines is kept.
    last_line is the number of the last line read, 1 before the first.

    rows is the parse's memo of basis rows, from a row's stripped text to
    its checked tuple (see _parse_subspace): it lives as long as the cursor.
    """

    def __init__(self, text: str):
        self._lines = _numbered_lines(text)
        self.last_line = 1
        self.rows = {}

    def next(self, what: str) -> tuple:
        item = next(self._lines, None)
        if item is None:
            raise CodeFileError(self.last_line, f"unexpected end of file, wanted {what}")
        self.last_line = item[0]
        return item

    def done(self):
        item = next(self._lines, None)
        if item is not None:
            raise CodeFileError(item[0], f"trailing content: {item[1]!r}")


def _numbered_lines(text: str) -> Iterator[tuple]:
    """(number, stripped line) for each nonblank line of text.  A physical
    line ends at \\n, \\r or \\r\\n, and splitlines() splits it at the rarer
    boundaries, so the numbers are those of text.splitlines()."""
    no = 0
    for physical in io.StringIO(text, newline=""):
        for ln in physical.splitlines():
            no += 1
            ln = ln.strip()
            if ln:
                yield no, ln


def _expect(cur: _Cursor, pattern: str, what: str):
    no, ln = cur.next(what)
    m = re.fullmatch(pattern, ln)
    if m is None:
        raise CodeFileError(no, f"expected {what}, got {ln!r}")
    return no, m


def _number(no: int, digits: str, limit: int, what: str) -> int:
    """A header value of ASCII digits, refused above limit.  The digits are
    bounded as written, leading zeros included, before int() reads them."""
    if len(digits) > len(str(limit)):
        raise CodeFileError(no, f"{what} has {len(digits)} digits, "
                                f"its limit {limit} has {len(str(limit))}")
    if int(digits) > limit:
        raise CodeFileError(no, f"{what} exceeds the limit {limit}")
    return int(digits)


def _row(no: int, ln: str, n: int, q: int) -> tuple:
    """The codes of a basis row's text, refused unless they are n codes
    below q written in ASCII digits."""
    if ln.strip("0123456789 \t"):  # int() would also read +0, 0_0 and other scripts
        raise CodeFileError(no, f"row entries are ASCII digits, got {ln!r}")
    toks = ln.split()
    if len(toks) != n:
        raise CodeFileError(no, f"row has {len(toks)} entries, ambient is {n}")
    try:
        row = tuple(map(int, toks))
    except ValueError:  # more digits than int() reads
        raise CodeFileError(no, f"entry too long in {ln!r}") from None
    if max(row) >= q:  # no sign, so no entry is negative
        raise CodeFileError(no, f"entry out of range [0, {q})")
    return row


def _canonical(rows: tuple) -> bool:
    """Whether rows are canonical RREF, as the writers leave them: each
    row's first nonzero entry is a 1, those leading columns increase, and
    every other row is 0 at each of them."""
    leads = []
    for row in rows:
        if next(filter(None, row), 0) != 1:
            return False
        lead = row.index(1)
        if leads and lead <= leads[-1]:
            return False
        leads.append(lead)
    others = len(rows) - 1
    for c in leads:
        if [r[c] for r in rows].count(0) != others:
            return False
    return True


def _parse_subspace(cur: _Cursor, field, n, expect_dim: int) -> Subspace:
    no, m = _expect(cur, r"subspace k=([0-9]+)", f"subspace k={expect_dim}")
    k = _number(no, m.group(1), n, "subspace k")
    if k != expect_dim:
        raise CodeFileError(no, f"subspace declares k={k}, type wants {expect_dim}")
    rows = []
    memo = cur.rows
    for _ in range(k):
        rno, ln = cur.next("a basis row")
        row = memo.get(ln)
        if row is None:
            row = memo[ln] = _row(rno, ln, n, field.order)
        rows.append(row)
    rows = tuple(rows)
    if not _canonical(rows):
        rows = rref_code_rows(field, rows)[0]
    sub = Subspace._from_rref(field, n, rows)
    if sub.dim != k:
        raise CodeFileError(no, f"rows span dimension {sub.dim}, declared k={k}")
    return sub


def parse_code_file(text: str) -> CodeFileData:
    cur = _Cursor(text)
    no, ln = cur.next("a header")
    if ln == _FLAG_MAGIC:
        kind = "flag"
    elif ln == _SUB_MAGIC:
        kind = "subspace"
    else:
        raise CodeFileError(no, f"unknown header {ln!r}")

    no, m = _expect(cur, r"field p=([0-9]+) e=([0-9]+)(?: tower=([0-9]+),([0-9]+))?",
                    "a field line")
    p, e = (_number(no, d, MAX_FIELD_ORDER, "field order") for d in m.group(1, 2))
    tower = (tuple(_number(no, d, MAX_AMBIENT_DIM, "tower") for d in m.group(3, 4))
             if m.group(3) else None)
    try:
        check_field_order(p, e)
        field = make_field(p, e)
    except ValueError as exc:
        raise CodeFileError(no, str(exc)) from None
    field_no = no

    no, m = _expect(cur, r"ambient n=([0-9]+)", "an ambient line")
    n = _number(no, m.group(1), MAX_AMBIENT_DIM, "ambient n")
    if tower is not None:
        try:
            _check_tower(tower, n)
        except ValueError as exc:
            raise CodeFileError(field_no, str(exc)) from None

    no, m = _expect(cur, r"type ([0-9]+(?:,[0-9]+)*)", "a type line")
    dims = tuple(_number(no, t, n, "a type dimension")
                 for t in m.group(1).split(","))
    if kind == "subspace" and len(dims) != 1:
        raise CodeFileError(no, "subspace codes take a single type dimension")
    if any(not 0 < t < n for t in dims) or list(dims) != sorted(set(dims)):
        raise CodeFileError(no, f"type must be strictly increasing within (0, {n})")

    no, m = _expect(cur, r"count ([0-9]+)", "a count line")
    count = _number(no, m.group(1), MAX_COUNT, "count")
    if count < 1:
        raise CodeFileError(no, "count must be at least 1")

    if kind == "flag":
        members = []
        for _ in range(count):
            fno, _ = _expect(cur, r"flag", "a flag separator")
            subs = [_parse_subspace(cur, field, n, t) for t in dims]
            try:
                members.append(Flag(subs))
            except ValueError as exc:
                raise CodeFileError(fno, f"invalid flag: {exc}") from None
        cur.done()
        code = FlagCode(members)
    else:
        members = [_parse_subspace(cur, field, n, dims[0]) for _ in range(count)]
        cur.done()
        code = SubspaceCode(members)
    if len(code) != count:
        raise CodeFileError(cur.last_line, f"duplicate {kind}s in file")
    return CodeFileData(kind=kind, tower=tower, code=code)


def read_code_file(path) -> CodeFileData:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the valid prefix plus one character ends on the bad byte's line
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise CodeFileError(line, "not valid UTF-8") from None
    del raw  # the parse holds the text alone
    return parse_code_file(text)
