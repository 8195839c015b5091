"""The line-oriented code file format: round trips and parse errors."""

import hashlib
import json
import os
import random
import tracemalloc

import pytest

from conftest import random_invertible, ref_add, ref_mul
from flagcodes import (Flag, FlagCode, Subspace, SubspaceCode,
                       build_full_type_context, build_spread_context, cli,
                       codefiles, extend_field, flags, full_type_max_odfc,
                       make_field, projected_code, spread_type_max_odfc,
                       spread_type_orbit_odfc, subspaces)
from flagcodes.codefiles import (format_flag_code, format_subspace_code,
                                 parse_code_file, read_code_file,
                                 write_flag_code, write_subspace_code)
from flagcodes.errors import CodeFileError


def small_flag_code():
    F2 = make_field(2, 1)
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    f1 = Flag([Subspace(F2, 3, [e[0]]), Subspace(F2, 3, [e[0], e[1]])])
    f2 = Flag([Subspace(F2, 3, [e[2]]), Subspace(F2, 3, [e[1], e[2]])])
    return FlagCode([f1, f2])


def test_flag_round_trip(tmp_path):
    code = small_flag_code()
    path = os.path.join(tmp_path, "pair.flagcode")
    write_flag_code(code, path)
    data = read_code_file(path)
    assert data.kind == "flag"
    assert data.code.n == 3 and data.code.dims == (1, 2)
    assert data.code == code
    # serialization is canonical: format(parse(format(c))) = format(c)
    assert format_flag_code(data.code) == format_flag_code(code)


def test_subspace_round_trip(tmp_path):
    F3 = make_field(3, 1)
    code = SubspaceCode([Subspace(F3, 3, [(1, 0, 2)]),
                         Subspace(F3, 3, [(0, 1, 1)])])
    path = os.path.join(tmp_path, "pair.subcode")
    write_subspace_code(code, path)
    data = read_code_file(path)
    assert data.kind == "subspace"
    assert data.code.dim == 1
    assert data.code == code


def test_spread_file_golden(ctx_q2k2s2, tmp_path):
    text = format_subspace_code(ctx_q2k2s2.spread)
    lines = text.splitlines()
    assert lines[0] == "SUBCODE v1"
    assert lines[1] == "field p=2 e=1"
    assert lines[2] == "ambient n=4"
    assert lines[3] == "type 2"
    assert lines[4] == "count 5"
    assert lines[5] == "subspace k=2"
    assert lines[6] == "0 0 1 0"
    # writing twice gives identical bytes
    assert text == format_subspace_code(ctx_q2k2s2.spread)


@pytest.mark.parametrize("which", ["spread", "hyperplanes"])
def test_written_subcode_is_the_formatted_text(ctx_q4k3s3, which, tmp_path):
    # the 4,161 members of S or H of the (q=4, k=3, s=3) context, streamed
    code = getattr(ctx_q4k3s3, which)
    path = tmp_path / "s.subcode"
    write_subspace_code(code, path, tower=(3, 3))
    text = format_subspace_code(code, tower=(3, 3))
    assert text.count("subspace k=") == len(code) == 4161
    assert path.read_bytes() == text.encode()


# SHA-256 of the FLAGCODE text of maximum codes over characteristic 2; the
# first three were recorded from the table kernels before rows were packed,
# the GF(8) one, whose scalars reach past 1 and 2, from the packed kernels
# before products were read from a table of scaled rows; every later kernel
# must write the same bytes
_CHAR2_DIGESTS = [
    ("spread", (2, 3, 2, 13), 65,
     "6e4a73a50ea831c4bc2a01ca82f66ef06b9ee53c57ea192641ab598ad5301287"),
    ("spread", (1, 2, 4, 85), 85,
     "ee65de4260a9ca7e8a7de45dd1d9a12c00f7abe93b9ee9f8c727bdc625f38ca8"),
    ("full", (2, 2), 65,
     "329c267aa18f2e330163d149b53aa9d7dc620aa89bbb183cb2c2541f5420d3aa"),
    ("spread", (3, 2, 2, 13), 65,
     "2bb15623d77387c80d89ec7c5a72cbb287add12fbdaaf409d8bb29c5bd77fcbd"),
]


@pytest.mark.parametrize("family, params, size, digest", _CHAR2_DIGESTS,
                         ids=["q4k3s2t13-max", "q2k2s4t85-max", "full-q4k2-max",
                              "q8k2s2t13-max"])
def test_char2_maximum_codes_keep_their_bytes(family, params, size, digest,
                                              tmp_path):
    e, *rest = params
    check_maximum_code_bytes(family, make_field(2, e), rest, size, digest,
                             tmp_path)


def check_maximum_code_bytes(family, field, params, size, digest, tmp_path):
    """The FLAGCODE text of a maximum code, formatted and written: (k, s, t)
    of a spread-type code or k of a full-type one over field."""
    if family == "spread":
        k, s, t = params
        ctx = build_spread_context(field, k, s)
        code, tower = spread_type_max_odfc(ctx, t), (k, s)
    else:
        ctx = build_full_type_context(field, *params)
        code, tower = full_type_max_odfc(ctx), None
    text = format_flag_code(code, tower=tower)
    assert text.count("\nflag\n") == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    path = tmp_path / "max.flagcode"
    write_flag_code(code, path, tower=tower)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# SHA-256 of the FLAGCODE text of maximum codes over odd prime fields, which
# run the table kernels; recorded while a flag still kept its levels as
# Subspace objects, before it kept only their rows
_ODD_DIGESTS = [
    ("spread", (3, 3, 2, 56), 28,
     "56bd23c0e6e419a255f1d0f3e11e816c558f0e23ccd6dcff1f0b2b271d47a43a"),
    ("spread", (3, 4, 2, 82), 82,
     "4d714571dbe0ad2af7c86f277c512c542fb5a05accb47a196b773457117e8a9a"),
    ("full", (3, 3), 82,
     "70b5e2ea96d37929e8f3964a9f2720404718bf11a1f1d3f3a98c01737f6760cd"),
    ("full", (5, 2), 126,
     "cc65acd84457c5fb7bc0c97f03c5394e774aeed6657983ff10d87954d1c6f91f"),
]


@pytest.mark.parametrize("family, params, size, digest", _ODD_DIGESTS,
                         ids=["q3k3s2t56-max", "q3k4s2t82-max", "full-q3k3-max",
                              "full-q5k2-max"])
def test_odd_maximum_codes_keep_their_bytes(family, params, size, digest,
                                            tmp_path):
    p, *rest = params
    check_maximum_code_bytes(family, make_field(p, 1), rest, size, digest,
                             tmp_path)


def test_write_holds_no_whole_file_text(ctx_q4k3s3, tmp_path):
    # the 4,161-flag (q=4, k=3, s=3) maximum code; joining its whole text
    # before writing held about 4x the file's size on top of the code
    code = spread_type_max_odfc(ctx_q4k3s3, 57)
    path = tmp_path / "q57.flagcode"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_flag_code(code, path, tower=(3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_000_000
    assert peak - before < 1.5 * size, (peak - before, size)


def test_write_keeps_no_row_text(ctx_q4k3s3, tmp_path):
    # a memo of each distinct row's text held 2.72 MiB over this code; the
    # template of one member block is all a write keeps
    code = spread_type_max_odfc(ctx_q4k3s3, 57)
    path = tmp_path / "q57.flagcode"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_flag_code(code, path, tower=(3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 0.25 * 2 ** 20, peak - before


# one-, two- and three-digit codes, over prime and extension fields
_DIGIT_FIELDS = [(7, 1), (2, 3), (3, 2), (11, 1), (2, 4), (5, 2), (101, 1),
                 (2, 8)]


@pytest.mark.parametrize("p, e", _DIGIT_FIELDS)
def test_every_digit_count_is_the_text_of_the_rows(p, e):
    """Both formats equal a text joined from each member's rows, with one
    member whose codes have every count of digits the field's codes take,
    and each file reads back as its code and its text."""
    F = make_field(p, e)
    q, n = F.order, 6
    rng = random.Random(f"digits:{p}^{e}")
    row = (1, 0, 9 % q, min(10, q - 1), min(100, q - 1), q - 1)
    flags = [Flag([Subspace(F, n, [row]),
                   Subspace(F, n, [row, (0, 1, 0, 0, 0, 0)])])]
    for _ in range(5):
        rows = random_invertible(rng, F, n).rows
        flags.append(Flag([Subspace(F, n, rows[:t]) for t in (1, 2)]))
    flag_code = FlagCode(flags)
    sub_code = SubspaceCode(f.subspaces[1] for f in flags)

    def reference(magic, dims, members, separator):
        lines = [magic, f"field p={p} e={e}", f"ambient n={n}",
                 "type " + ",".join(map(str, dims)), f"count {len(members)}"]
        for levels in members:
            lines += separator
            for t, rows in zip(dims, levels):
                lines += [f"subspace k={t}"] + [" ".join(map(str, r)) for r in rows]
        return "\n".join(lines) + "\n"

    for fmt, code, text in [
            (format_flag_code, flag_code,
             reference("FLAGCODE v1", (1, 2),
                       [f.levels for f in flag_code.members], ["flag"])),
            (format_subspace_code, sub_code,
             reference("SUBCODE v1", (2,),
                       [(s.rows,) for s in sub_code.members], []))]:
        assert " ".join(map(str, row)) in text
        assert fmt(code) == text
        back = parse_code_file(text).code
        assert back == code and fmt(back) == text


def test_code_over_a_field_the_reader_refuses_is_refused(tmp_path):
    # a file reads back fields up to order MAX_FIELD_ORDER, so the writers
    # refuse GF(2048) and GF(257) before the path is opened
    path = os.path.join(tmp_path, "kept.code")
    for F in (make_field(2, 11), make_field(257, 1)):
        sub = Subspace(F, 2, [(1, F.order - 1)])
        for fmt, write, code in [
                (format_subspace_code, write_subspace_code, SubspaceCode([sub])),
                (format_flag_code, write_flag_code, FlagCode([Flag([sub])]))]:
            with pytest.raises(ValueError, match="exceeds the limit"):
                fmt(code)
            with open(path, "w") as fh:
                fh.write("precious\n")
            with pytest.raises(ValueError, match="exceeds the limit"):
                write(code, path)
            with open(path) as fh:
                assert fh.read() == "precious\n"


def test_flag_file_header(ctx_q2k2s2):
    code = spread_type_orbit_odfc(ctx_q2k2s2, 5)
    lines = format_flag_code(code).splitlines()
    assert lines[:6] == ["FLAGCODE v1", "field p=2 e=1", "ambient n=4",
                         "type 1,2,3", "count 5", "flag"]


def test_tower_field_round_trip(tmp_path):
    F4 = make_field(2, 2)
    code = SubspaceCode([Subspace(F4, 2, [(1, 2)]),
                         Subspace(F4, 2, [(1, 3)])])
    text = format_subspace_code(code)
    assert "field p=2 e=2" in text.splitlines()[1]
    path = os.path.join(tmp_path, "gf4.subcode")
    write_subspace_code(code, path)
    data = read_code_file(path)
    assert data.code.field.order == 4
    assert data.code == code


def test_code_over_an_intermediate_tower_is_refused(tmp_path):
    # a file records only p and e, so it reads back over make_field(2, 4):
    # another GF(16), where the same element codes multiply differently
    tower = extend_field(make_field(2, 2), 2)
    F16 = make_field(2, 4)
    assert tower.mul_codes(5, 5) == 7 and F16.mul_codes(5, 5) == 8
    rows = [[(1, 5)], [(1, 7)]]
    path = os.path.join(tmp_path, "kept.code")
    for fmt, write, code in [
            (format_subspace_code, write_subspace_code,
             SubspaceCode(Subspace(tower, 2, r) for r in rows)),
            (format_flag_code, write_flag_code,
             FlagCode([Flag([Subspace(tower, 2, rows[0])])]))]:
        with pytest.raises(ValueError):
            fmt(code)
        # the refusal comes before the path is opened, so a file there stays
        with open(path, "w") as fh:
            fh.write("precious\n")
        with pytest.raises(ValueError):
            write(code, path)
        with open(path) as fh:
            assert fh.read() == "precious\n"
    code = SubspaceCode(Subspace(F16, 2, r) for r in rows)
    path = os.path.join(tmp_path, "gf16.subcode")
    write_subspace_code(code, path)
    assert read_code_file(path).code == code


def test_tower_that_does_not_describe_the_ambient_is_refused(tmp_path):
    # a tower is (k, s) with k >= 1, s >= 2 and k s = n, as a spread context
    # takes it; the writers refuse any other before the path is opened, and
    # the parser names the field line
    code = small_flag_code()  # n = 3
    sub_code = SubspaceCode(f.subspaces[0] for f in code)
    path = os.path.join(tmp_path, "kept.code")
    for tower in [(5, 5), (3, 1), (0, 3), (1, 2)]:
        for fmt, write, c in [(format_flag_code, write_flag_code, code),
                              (format_subspace_code, write_subspace_code,
                               sub_code)]:
            with pytest.raises(ValueError, match="does not describe"):
                fmt(c, tower=tower)
            with open(path, "w") as fh:
                fh.write("precious\n")
            with pytest.raises(ValueError, match="does not describe"):
                write(c, path, tower=tower)
            with open(path) as fh:
                assert fh.read() == "precious\n"
        text = format_flag_code(code).replace(
            "field p=2 e=1", "field p=2 e=1 tower=%d,%d" % tower)
        with pytest.raises(CodeFileError) as info:
            parse_code_file(text)
        assert info.value.line == 2
    write_flag_code(code, path, tower=(1, 3))
    data = read_code_file(path)
    assert data.tower == (1, 3) and data.code == code


_GOOD = ["FLAGCODE v1", "field p=2 e=1", "ambient n=3", "type 1,2",
         "count 1", "flag", "subspace k=1", "1 0 0",
         "subspace k=2", "1 0 0", "0 1 0"]


def _malformed():
    """(lines, line): a malformed file, one line each, and the line its error
    names when the lines are joined by "\\n"."""
    good = _GOOD
    padded = "0" * 5000
    # duplicate members, reported once the second copy is complete
    dup = good[:4] + ["count 2"] + good[5:] + good[5:]
    return [
        (["NOPE v1"] + good[1:], 1),
        (good[:1] + ["field p=4 e=1"] + good[2:], 2),
        (good[:3] + ["type 2,1"] + good[4:], 4),
        (good[:4] + ["count 0"] + good[5:], 5),
        (good[:7] + ["1 0"] + good[8:], 8),        # short row
        (good[:7] + ["1 0 2"] + good[8:], 8),      # entry out of range
        (good[:7] + ["1 x 0"] + good[8:], 8),      # non-integer entry
        (good[:10], 10),                           # truncated block
        (good + ["flag"], 12),                     # trailing content
        (good[:6] + ["subspace k=2"] + good[7:], 7),  # k off the type
        (good[:10] + ["1 0 0"], 9),                # rows span dim 1
        (["SUBCODE v1"] + good[1:], 4),            # two type dims
        # header numbers are ASCII digits, bounded as written: zero padding
        # past the 4,300 digits int() reads from a string is refused with
        # its line, and so is a digit of another script, which int() would
        # read
        (good[:4] + [f"count {padded}1"] + good[5:], 5),
        (good[:1] + [f"field p={padded}2 e=1"] + good[2:], 2),
        (good[:6] + [f"subspace k={padded}1"] + good[7:], 7),
        (good[:4] + ["count \u0661"] + good[5:], 5),  # ARABIC-INDIC ONE
        (good[:2] + ["ambient n=\u0663"] + good[3:], 3),
        (good[:3] + ["type 1,\u0662"] + good[4:], 4),
        (good[:6] + ["subspace k=\u0661"] + good[7:], 7),
        # so are row entries: int() would read each of these as a code
        (good[:7] + ["1 0 +0"] + good[8:], 8),
        (good[:9] + ["1 0_0 0"] + good[10:], 10),
        (good[:10] + ["0 \u0661 0"] + good[11:], 11),
        (good[:7] + [f"1 0 {padded}0"] + good[8:], 8),  # past int()'s digits
        (dup, 17),
    ]


def _error_line(text) -> int:
    try:
        parse_code_file(text)
    except CodeFileError as e:
        return e.line
    raise AssertionError("bad file parsed")


def test_parse_rejects_with_line_numbers():
    for lines, line in _malformed():
        assert _error_line("\n".join(lines) + "\n") == line, lines


# every line boundary str.splitlines() knows
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _SEPARATORS,
                         ids=[f"U+{ord(s[0]):04X}" + ("+LF" if len(s) > 1 else "")
                              for s in _SEPARATORS])
def test_line_numbers_under_every_separator(sep):
    # each malformed file again, its lines ended by sep, with blank and
    # whitespace-only lines before, between and after them; the error names
    # the line str.splitlines() numbers, the same nonblank line as with "\n"
    fillers = ["", " \t", "", "   "]
    for lines, line in _malformed():
        padded = [fillers[0]]
        for i, ln in enumerate(lines):
            padded += [ln] + [fillers[i % len(fillers)]] * (i % 3)
        padded += fillers[1:]
        text = sep.join(padded) + sep
        nonblank = [i + 1 for i, ln in enumerate(text.splitlines()) if ln.strip()]
        assert len(nonblank) == len(lines)
        assert _error_line(text) == nonblank[line - 1], (sep, lines)


def test_non_utf8_line_after_a_carriage_return(tmp_path):
    # the bad byte sits on the line after a "\r"-ended one; the line named
    # is the one str.splitlines() gives the text around it
    lines = _GOOD[:9] + ["1 0 \ufffd"] + _GOOD[10:]
    text = "\r".join(lines) + "\r"
    line = next(i + 1 for i, ln in enumerate(text.splitlines()) if "\ufffd" in ln)
    path = tmp_path / "bad.flagcode"
    path.write_bytes(text.encode().replace("\ufffd".encode(), b"\xff"))
    with pytest.raises(CodeFileError) as err:
        read_code_file(path)
    assert err.value.line == line == 10


def test_nested_violation_reported_at_flag_line():
    lines = _GOOD[:9] + ["0 1 0", "0 0 1"]
    try:
        parse_code_file("\n".join(lines) + "\n")
    except CodeFileError as e:
        assert e.line == 6
    else:
        raise AssertionError("non-nested flag parsed")


def test_reduced_rows_out_of_order_or_unreduced_are_reduced():
    # canonical rows in the wrong order, or rows with leading 1s in
    # increasing columns and a nonzero entry above a later pivot, are no
    # canonical basis: the parse reduces them, and the file reads as the
    # one that writes the canonical rows
    good = parse_code_file("\n".join(_GOOD) + "\n").code
    for rows in (["0 1 0", "1 0 0"], ["1 1 0", "0 1 0"]):
        lines = _GOOD[:9] + rows
        parsed = parse_code_file("\n".join(lines) + "\n").code
        assert _levels(parsed) == _levels(good), rows


def test_read_missing_file(tmp_path):
    try:
        read_code_file(os.path.join(tmp_path, "absent.flagcode"))
    except OSError:
        pass
    else:
        raise AssertionError("missing file read")


def test_parse_shares_rows_and_checks_each(ctx_q4k3s3):
    # the 4,161-flag (q=4, k=3, s=3) maximum code holds 20,511 distinct rows
    # among about 112,000 row lines: a parse checks each distinct row text
    # once and keeps no list of the lines, and a parsed flag is its key, so
    # its projections, built from the keys, give each distinct row one tuple
    code = spread_type_max_odfc(ctx_q4k3s3, 57)
    text = format_flag_code(code, tower=(3, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = parse_code_file(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = len(text)
    assert data.code == code
    rows = [row for i in range(1, len(code.dims) + 1)
            for sub in projected_code(data.code, i) for row in sub.rows]
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows) // 4
    assert kept - before < 3 * size, (kept - before, size)
    assert peak - before < 10 * size, (peak - before, size)
    # a malformed row after tens of thousands of good ones is still refused,
    # at its own line: a new text, with an entry out of range or one entry
    # too many, or a repeat of the row before it, which leaves its block a
    # dimension short, named at the block's `subspace` line
    lines = text.splitlines()
    mid = next(i for i in range(len(lines) // 2, len(lines))
               if lines[i - 1][0].isdigit() and lines[i][0].isdigit())
    head = max(i for i in range(mid) if lines[i].startswith("subspace"))
    for i, bad, line in [(len(lines) - 1, lines[-1][:-1] + "4", len(lines)),
                         (mid, lines[mid] + " 0", mid + 1),
                         (mid, lines[mid - 1], head + 1)]:
        broken = "\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n"
        assert _error_line(broken) == line, (i, bad)


def _levels(code) -> list:
    """Each member's canonical rows, level by level, in the code's order."""
    if isinstance(code, FlagCode):
        return [f.levels for f in code]
    return [(sub.rows,) for sub in code]


def _rewrite_bases(F, text: str, rng) -> tuple:
    """(text, bases): text with every basis replaced by a non-canonical
    basis of the same subspace, by the reference arithmetic, and those
    bases.  Each row is scaled by a nonzero constant (one other than 1 for a
    one-row basis), two rows are swapped, then each row is added to the
    next, so with two or more rows the first two share a leading column or
    lead out of order."""
    lines = text.splitlines()
    out, bases = [], []
    i = 0
    while i < len(lines):
        out.append(lines[i])
        i += 1
        if not out[-1].startswith("subspace k="):
            continue
        k = int(out[-1][len("subspace k="):])
        rows = [[int(x) for x in ln.split()] for ln in lines[i:i + k]]
        i += k
        low = 2 if k == 1 else 1
        scales = [rng.randrange(low, F.order) for _ in rows]
        rows = [[ref_mul(F, c, x) for x in r] for r, c in zip(rows, scales)]
        if k > 1:
            a, b = rng.sample(range(k), 2)
            rows[a], rows[b] = rows[b], rows[a]
            for j in range(1, k):
                rows[j] = [ref_add(F, x, y) for x, y in zip(rows[j], rows[j - 1])]
        bases.append(tuple(map(tuple, rows)))
        out += [" ".join(map(str, r)) for r in rows]
    return "\n".join(out) + "\n", bases


def _verify_report(capsys, path) -> str:
    """The verify report of path, its file field taken out."""
    assert cli.main(["verify", path]) == 0
    return capsys.readouterr().out.replace(f'"file": {json.dumps(path)}, ', "")


@pytest.mark.parametrize("which", ["t56", "q4_max", "q2_spread"])
def test_non_canonical_bases_read_as_the_canonical_file(
        which, ctx_q3k3s2, ctx_q4k3s2, ctx_q2k2s4, tmp_path, capsys, monkeypatch):
    # the 28-flag GF(3) t=56 orbit code, the 65-flag GF(4) (k=3, s=2)
    # maximum code and the 85-line spread of GF(2)^8: a canonical file
    # parses with no elimination at all, its bases kept as read and each
    # flag's nesting checked by reduction; the same file with every basis
    # non-canonical reduces each basis once and reads as the same code,
    # and verify writes the same report apart from its file field
    code, size, q = {
        "t56": lambda: (spread_type_orbit_odfc(ctx_q3k3s2, 56), 28, 3),
        "q4_max": lambda: (spread_type_max_odfc(ctx_q4k3s2, 13), 65, 4),
        "q2_spread": lambda: (ctx_q2k2s4.spread, 85, 2)}[which]()
    assert (len(code), code.field.order) == (size, q)
    text = (format_flag_code(code) if isinstance(code, FlagCode)
            else format_subspace_code(code))
    rewritten, bases = _rewrite_bases(code.field, text, random.Random(26))
    assert not any(map(codefiles._canonical, bases))
    calls = []
    for module, name in ((codefiles, "rref_code_rows"), (subspaces, "rank_code_rows"),
                         (flags, "rank_code_rows")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original, name=name:
                            calls.append(name) or f(*args))
    canonical = parse_code_file(text).code
    assert calls == []
    parsed = parse_code_file(rewritten).code
    assert calls == ["rref_code_rows"] * len(bases)
    assert parsed == canonical == code
    assert _levels(parsed) == _levels(canonical) == _levels(code)
    paths = [os.path.join(tmp_path, name) for name in ("canonical.code", "rewritten.code")]
    for path, body in zip(paths, (text, rewritten)):
        with open(path, "w") as fh:
            fh.write(body)
    assert _verify_report(capsys, paths[0]) == _verify_report(capsys, paths[1])
