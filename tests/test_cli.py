"""Command line surface: JSON summaries, golden table text, exit codes."""

import json
import os
import random
import subprocess
import sys

import pytest

from flagcodes import (cli, flags, make_field, matrices,
                       spread_type_orbit_odfc, subspaces, write_flag_code)
from flagcodes.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

TABLE1_TEXT = """\
     t  orbit orbits_max   odfc
     1      1         28     no
     2      1         28     no
     4      2         14    yes
     7      7          4    yes
     8      4          7    yes
    14      7          4    yes
    28     14          2    yes
    56     28          1    yes
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_spread_type(tmp_path, capsys):
    out = os.path.join(tmp_path, "t56.flagcode")
    rc, stdout, _ = run(capsys, "construct", "spread-type", "--p", "3",
                        "--e", "1", "--k", "3", "--s", "2", "--t", "56",
                        "--out", out)
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["size"] == 28
    assert rep["distance"] == 18
    assert rep["bound"] == 18
    assert rep["is_odfc"] is True
    assert rep["runtime_ms"] >= 0
    assert os.path.exists(out)


def test_construct_full_type_max(tmp_path, capsys):
    out = os.path.join(tmp_path, "ft.flagcode")
    rc, stdout, _ = run(capsys, "construct", "full-type", "--p", "2",
                        "--e", "1", "--k", "2", "--max-size", "--out", out)
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["size"] == 9 and rep["distance"] == 12 and rep["is_odfc"]

    rc, stdout, _ = run(capsys, "verify", out)
    assert rc == 0
    report = json.loads(stdout)
    assert report["odfc_by_definition"] and report["odfc_by_characterization"]
    assert report["verdicts_agree"]
    assert report["critical"] == [2, 3]
    assert [lv["projected_size"] for lv in report["levels"]] == [9, 9, 9, 9]


def test_construct_full_type_orbit(tmp_path, capsys):
    out = os.path.join(tmp_path, "ft.flagcode")
    rc, stdout, _ = run(capsys, "construct", "full-type", "--p", "2",
                        "--k", "2", "--out", out)
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["size"] == 7 and rep["is_odfc"] is True

    rc, stdout, _ = run(capsys, "verify", out)
    assert rc == 0
    report = json.loads(stdout)
    assert report["size"] == 7
    assert report["verdicts_agree"] is True
    assert report["odfc_by_definition"] is True


def test_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, stdout, _ = run(capsys, "construct", "spread-type", "--p", "2",
                        "--e", "1", "--k", "2", "--s", "2", "--t", "5")
    assert rc == 0
    name = json.loads(stdout)["file"]
    assert name == "spread_type_p2e1_k2s2_t5.flagcode"
    assert os.path.exists(name)


def test_construct_then_verify_agree(tmp_path, capsys):
    out = os.path.join(tmp_path, "t8.flagcode")
    rc, stdout, _ = run(capsys, "construct", "spread-type", "--p", "3",
                        "--e", "1", "--k", "3", "--s", "2", "--t", "8",
                        "--out", out)
    assert rc == 0
    rc, stdout, _ = run(capsys, "verify", out)
    assert rc == 0
    report = json.loads(stdout)
    assert report["size"] == 4
    assert report["verdicts_agree"] is True
    assert report["odfc_by_definition"] is True


def test_verify_runs_each_scan_once(ctx_q3k3s2, tmp_path, capsys, monkeypatch):
    # 28 flags of type (1, 2, 3, 4, 5) on GF(3)^6: the definition verdict
    # runs one flag pair scan, one rank elimination per pair and no
    # canonical one, building each flag's adapted rows once; each level
    # runs its own cover scan, which lists each member's points once (its
    # dual's where 2t > n, read from its kernel rows, with no dual code or
    # dual subspace built) and certifies its maximum, so no level scans a
    # pair
    path = os.path.join(tmp_path, "t56.flagcode")
    write_flag_code(spread_type_orbit_odfc(ctx_q3k3s2, 56), path)
    calls = dict.fromkeys(("flag scans", "pairs", "ranks", "rrefs", "adapted",
                           "level scans", "cover scans", "point lists",
                           "dual point lists", "dual codes",
                           "subspace pairs"), 0)
    scanning = []

    def counted(owner, name, key, scan_only=True):
        original = getattr(owner, name)

        def wrapper(*args):
            if scanning or not scan_only:
                calls[key] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(flags, "flag_distance", "pairs")
    counted(flags, "rank_code_rows", "ranks")
    # a canonical elimination is rref_code_rows, or act_code_rows, the
    # product by a matrix followed by it
    for module, name in ((flags, "act_code_rows"), (subspaces, "act_code_rows"),
                         (subspaces, "rref_code_rows"), (matrices, "rref_code_rows")):
        counted(module, name, "rrefs")
    adapted = flags.Flag._adapted_rows

    def counted_adapted(f):
        calls["adapted"] += f._adapted is None  # a build, not a kept read
        return adapted(f)
    monkeypatch.setattr(flags.Flag, "_adapted_rows", counted_adapted)
    counted(subspaces.SubspaceCode, "_scan", "level scans", scan_only=False)
    counted(subspaces, "_cover_scan", "cover scans", scan_only=False)
    counted(subspaces, "member_points", "point lists", scan_only=False)
    counted(subspaces, "_dual_rows", "dual point lists", scan_only=False)
    counted(subspaces, "dual_code", "dual codes", scan_only=False)
    counted(subspaces.Subspace, "dual", "dual codes", scan_only=False)
    counted(subspaces, "subspace_distance", "subspace pairs", scan_only=False)
    scan = flags.FlagCode._scan

    def counted_scan(code):
        calls["flag scans"] += 1
        scanning.append(code)
        try:
            return scan(code)
        finally:
            scanning.pop()
    monkeypatch.setattr(flags.FlagCode, "_scan", counted_scan)
    rc, stdout, _ = run(capsys, "verify", path)
    assert rc == 0
    report = json.loads(stdout)
    assert report["size"] == 28 and report["verdicts_agree"] is True
    assert [lv["dim"] for lv in report["levels"]] == [1, 2, 3, 4, 5]
    pairs = 28 * 27 // 2
    assert calls == {"flag scans": 1, "pairs": pairs, "ranks": pairs, "rrefs": 0,
                     "adapted": 28, "level scans": 5, "cover scans": 5,
                     "point lists": 5 * 28, "dual point lists": 2 * 28,
                     "dual codes": 0, "subspace pairs": 0}


def test_verdicts_are_independent(ctx_q3k3s2, tmp_path, capsys, monkeypatch):
    # a flag rank kernel that reads every rank one short fails the
    # definition verdict alone: the characterization reads its critical
    # level from that projection's own cover scan, not from the flag scan
    code = spread_type_orbit_odfc(ctx_q3k3s2, 56)
    path = os.path.join(tmp_path, "t56.flagcode")
    write_flag_code(code, path)
    rank = flags.rank_code_rows
    monkeypatch.setattr(flags, "rank_code_rows",
                        lambda *args: [r - 1 for r in rank(*args)])
    assert not flags.is_odfc_by_definition(code)
    assert flags.is_odfc_by_characterization(code)
    rc, stdout, _ = run(capsys, "verify", path)
    assert rc == 0
    report = json.loads(stdout)
    assert report["odfc_by_definition"] is False
    assert report["odfc_by_characterization"] is True
    assert report["verdicts_agree"] is False


def test_verify_spread_runs_one_cover_scan(tmp_path, capsys, monkeypatch):
    # the 85 lines of GF(2)^8: one member_points call per member answers
    # both the spread and the partial spread verdict
    path = os.path.join(tmp_path, "s.subcode")
    rc, _, _ = run(capsys, "spread", "--p", "2", "--k", "2", "--s", "4",
                   "--out", path)
    assert rc == 0
    calls = []
    points = subspaces.member_points
    monkeypatch.setattr(subspaces, "member_points",
                        lambda *args: calls.append(1) or points(*args))
    rc, stdout, _ = run(capsys, "verify", path)
    assert rc == 0
    report = json.loads(stdout)
    assert report["size"] == 85
    assert report["spread"] is True and report["partial_spread"] is True
    assert len(calls) == 85


def test_verify_large_field_partial_spread_scans_points(tmp_path, capsys, monkeypatch):
    # 76 lines {(x, y, c x, c y)} of GF(256)^4, c = 0..75: a partial spread
    # whose cover scan marks 76 x 257 points in a bitmap of the 16,843,009
    # points of the space, not 76 x 65,535 vectors in a set
    path = os.path.join(tmp_path, "ps.subcode")
    lines = ["SUBCODE v1", "field p=2 e=8", "ambient n=4", "type 2", "count 76"]
    for c in range(76):
        lines += ["subspace k=2", f"1 0 {c} 0", f"0 1 0 {c}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    marked = []
    points = subspaces.member_points

    def counted(*args):
        out = points(*args)
        marked.append(len(out))
        return out
    monkeypatch.setattr(subspaces, "member_points", counted)
    rc, stdout, _ = run(capsys, "verify", path)
    assert rc == 0
    report = json.loads(stdout)
    assert (report["q"], report["n"], report["dim"], report["size"]) == (256, 4, 2, 76)
    assert report["partial_spread"] is True and report["spread"] is False
    assert report["distance"] == report["max_distance"] == 4
    assert marked == [257] * 76


@pytest.mark.parametrize("members", [1, 2], ids=["one-member", "two-members"])
def test_verify_wide_members_answers_spread_in_bounded_time(tmp_path, members):
    # hyperplanes of GF(2)^25 have 2^24 - 1 points each; a singleton passes
    # vacuously and two of them must meet (2k > n), so no point is built
    # and the subprocess timeout turns a blow-up into a failure
    n, k = 25, 24
    path = os.path.join(tmp_path, "wide.subcode")
    lines = ["SUBCODE v1", "field p=2 e=1", f"ambient n={n}", f"type {k}",
             f"count {members}"]
    for shift in range(members):
        lines.append(f"subspace k={k}")
        lines += [" ".join("1" if c == r + shift else "0" for c in range(n))
                  for r in range(k)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    proc = subprocess.run([sys.executable, "-m", "flagcodes.cli", "verify", path],
                          capture_output=True, text=True, timeout=15,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["n"], report["dim"], report["size"]) == (n, k, members)
    assert report["partial_spread"] is (members == 1)
    assert report["spread"] is False


@pytest.mark.parametrize("argv, size", [
    (("construct", "spread-type", "--p", "3", "--e", "2", "--k", "2", "--s", "2",
      "--t", "41", "--max-size"), 82),
    (("construct", "spread-type", "--p", "5", "--e", "2", "--k", "1", "--s", "3",
      "--t", "31"), 31),
    (("spread", "--p", "3", "--e", "2", "--k", "2", "--s", "2"), 82),
], ids=["q9-max", "q25-orbit", "q9-spread"])
def test_table_fields_round_trip(tmp_path, capsys, argv, size):
    # GF(9) and GF(25) have no packed rows, so these builds and verifies run
    # the table bodies of mul_code_rows, act_code_rows and rref_code_rows
    p, e = (int(argv[argv.index(flag) + 1]) for flag in ("--p", "--e"))
    assert make_field(p, e).byte_scalers() is None
    path = os.path.join(tmp_path, "table.code")
    rc, stdout, _ = run(capsys, *argv, "--out", path)
    assert rc == 0 and json.loads(stdout)["size"] == size
    rc, stdout, _ = run(capsys, "verify", path)
    assert rc == 0
    report = json.loads(stdout)
    assert report["size"] == size
    if argv[0] == "spread":
        assert report["spread"] is True
        assert report["distance"] == report["max_distance"]
    else:
        assert report["verdicts_agree"] is True
        assert report["distance"] == report["bound"]


def test_table1_golden(capsys):
    rc, stdout, _ = run(capsys, "table", "1")
    assert rc == 0
    text, json_line = stdout.rsplit("\n", 2)[0], stdout.splitlines()[-1]
    assert stdout.startswith(TABLE1_TEXT)
    payload = json.loads(json_line)
    assert payload["table"] == 1
    assert payload["q"] == 3 and payload["n"] == 6
    rows = payload["rows"]
    assert [r["t"] for r in rows] == [1, 2, 4, 7, 8, 14, 28, 56]
    assert [r["orbit_size"] for r in rows] == [1, 1, 2, 7, 4, 7, 14, 28]
    assert [r["num_orbits"] for r in rows] == [28, 28, 14, 4, 7, 4, 2, 1]
    assert [r["is_odfc"] for r in rows] == [False, False] + [True] * 6


def test_spread_command(tmp_path, capsys):
    out = os.path.join(tmp_path, "s.subcode")
    rc, stdout, _ = run(capsys, "spread", "--p", "2", "--e", "1",
                        "--k", "2", "--s", "2", "--out", out,
                        "--hyperplanes")
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["size"] == 5 and rep["is_spread"] is True
    assert rep["stabilizer_order"] == 3
    assert os.path.exists(out)
    sibling = out.replace(".subcode", "_hyperplanes.subcode")
    assert os.path.exists(sibling)

    rc, stdout, _ = run(capsys, "verify", out)
    assert rc == 0
    report = json.loads(stdout)
    assert report["kind"] == "subspace-code"
    assert report["spread"] is True
    assert report["partial_spread_bound"] == 5


def test_k1_spread_and_spread_type_commands(tmp_path, capsys):
    # n = 3 is the k = 1 spread type, the case the full-type error points to
    out = os.path.join(tmp_path, "k1.flagcode")
    rc, stdout, _ = run(capsys, "construct", "spread-type", "--p", "2",
                        "--k", "1", "--s", "3", "--t", "7", "--max-size",
                        "--out", out)
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["size"] == 7 and rep["type"] == [1, 2]
    assert rep["distance"] == rep["bound"] == 4 and rep["is_odfc"] is True
    rc, stdout, _ = run(capsys, "verify", out)
    assert rc == 0 and json.loads(stdout)["verdicts_agree"] is True
    rc, stdout, _ = run(capsys, "spread", "--p", "2", "--e", "2", "--k", "1",
                        "--s", "3", "--out", os.path.join(tmp_path, "k1.subcode"))
    assert rc == 0
    rep = json.loads(stdout)
    assert rep["size"] == 21 and rep["stabilizer_order"] == 3


def test_identical_invocations_identical_bytes(tmp_path, capsys):
    a = os.path.join(tmp_path, "a.flagcode")
    b = os.path.join(tmp_path, "b.flagcode")
    for out in (a, b):
        rc, _, _ = run(capsys, "construct", "spread-type", "--p", "3",
                       "--e", "1", "--k", "3", "--s", "2", "--t", "14",
                       "--out", out)
        assert rc == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_exit_code_2_on_parameter_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "construct", "spread-type", "--p", "3", "--e", "1",
                     "--k", "3", "--s", "2", "--t", "13",
                     "--out", os.path.join(tmp_path, "x"))
    assert rc == 2
    assert "gcd" in err
    rc, _, err = run(capsys, "construct", "spread-type", "--p", "3", "--e", "1",
                     "--k", "3", "--s", "2", "--t", "26",
                     "--out", os.path.join(tmp_path, "x"))
    assert rc == 2
    rc, _, err = run(capsys, "spread", "--p", "2", "--e", "1", "--k", "2",
                     "--s", "1", "--out", os.path.join(tmp_path, "x"))
    assert rc == 2
    rc, _, err = run(capsys, "construct", "full-type", "--p", "2", "--e", "1",
                     "--k", "1", "--out", os.path.join(tmp_path, "x"))
    assert rc == 2


def test_exit_code_1_on_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "verify", os.path.join(tmp_path, "absent.flagcode"))
    assert rc == 1
    assert "error" in err


def test_exit_code_3_on_parse_error(tmp_path, capsys):
    bad = os.path.join(tmp_path, "bad.flagcode")
    with open(bad, "w") as fh:
        fh.write("FLAGCODE v1\nfield p=2 e=1\nambient n=3\ntype 1,2\ncount 1\n")
    rc, _, err = run(capsys, "verify", bad)
    assert rc == 3
    assert "line" in err
    for header, type_line in [("FLAGCODE v1", "type 1,,2"), ("FLAGCODE v1", "type ,"),
                              ("SUBCODE v1", "type 1,,2"), ("SUBCODE v1", "type ,")]:
        with open(bad, "w") as fh:
            fh.write(f"{header}\nfield p=2 e=1\nambient n=3\n{type_line}\ncount 1\n")
        rc, _, err = run(capsys, "verify", bad)
        assert rc == 3
        assert "line 4" in err and "type line" in err
    for raw, line in [(b"\xff\xfeFLAGCODE v1\n", 1),
                      (b"FLAGCODE v1\r\nfield p=2 e=1\n\xff\n", 3)]:
        with open(bad, "wb") as fh:
            fh.write(raw)
        rc, _, err = run(capsys, "verify", bad)
        assert rc == 3
        assert err == f"error: line {line}: not valid UTF-8\n"


def test_tower_must_describe_the_ambient(tmp_path, capsys):
    # k >= 1, s >= 2 and k s = n, or the field line is refused; k = 0 can
    # only meet k s = n over n = 0, and the tower is checked before the type
    path = os.path.join(tmp_path, "tower.flagcode")
    for tower, n, want in [("1,3", 3, 0), ("5,5", 3, 3), ("3,1", 3, 3),
                           ("0,2", 0, 3)]:
        with open(path, "w") as fh:
            fh.write(f"FLAGCODE v1\nfield p=2 e=1 tower={tower}\nambient n={n}\n"
                     "type 1,2\ncount 1\nflag\nsubspace k=1\n1 0 0\n"
                     "subspace k=2\n1 0 0\n0 1 0\n")
        rc, stdout, err = run(capsys, "verify", path)
        assert rc == want, (tower, n, err)
        if want:
            assert stdout == ""
            assert err.startswith(f"error: line 2: tower={tower} does not "
                                  f"describe ambient n={n}")
        else:
            assert json.loads(stdout)["tower"] == [1, 3]


# p - 1 = 2r with r a 101-bit prime: trial division of p - 1 never finishes
_SAFE_PRIME = "2535301200456458802993406412663"
_LONG = "9" * 5000  # longer than int() converts from a string
_PADDED = "0" * 5000  # leading zeros count against that length too


@pytest.mark.parametrize("field_line, ambient, type_line, line_no", [
    ("field p=2 e=200", "ambient n=4", "type 2", 2),
    (f"field p={_SAFE_PRIME} e=1", "ambient n=4", "type 2", 2),
    ("field p=17 e=2", "ambient n=4", "type 2", 2),
    (f"field p=2 e={_LONG}", "ambient n=4", "type 2", 2),
    (f"field p=2 e=1 tower=2,{_LONG}", "ambient n=4", "type 2", 2),
    ("field p=2 e=1", "ambient n=99999", "type 2", 3),
    ("field p=2 e=1", "ambient n=4", f"type {_LONG}", 4),
    (f"field p=2 e={_PADDED}1", "ambient n=4", "type 2", 2),
    ("field p=2 e=1", f"ambient n={_PADDED}4", "type 2", 3),
    ("field p=2 e=1", "ambient n=\u0664", "type 2", 3),
], ids=["e=200", "huge-prime-p", "q=289", "long-e", "long-tower",
        "huge-n", "long-type", "padded-e", "padded-n", "non-ascii-n"])
def test_hostile_header_exits_3_in_bounded_time(tmp_path, field_line, ambient,
                                                 type_line, line_no):
    # header values are checked against named limits before any field is
    # built; the subprocess timeout turns a hang into a failure
    bad = os.path.join(tmp_path, "hostile.subcode")
    with open(bad, "w") as fh:
        fh.write("\n".join(["SUBCODE v1", field_line, ambient, type_line,
                            "count 1", "subspace k=2", "1 0 0 0", "0 1 0 0"])
                 + "\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "flagcodes.cli", "verify", bad],
                          capture_output=True, text=True, timeout=15, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: line {line_no}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("construct", "spread-type", "--p", "1000000007", "--k", "2", "--s", "2", "--t", "1"),
    ("construct", "full-type", "--p", "17", "--e", "2", "--k", "2"),
    ("spread", "--p", "2", "--e", "9" * 20, "--k", "2", "--s", "2"),
], ids=["huge-prime-p", "q=289", "huge-e"])
def test_field_above_the_file_limit_exits_2_in_bounded_time(tmp_path, argv):
    # the CLI refuses a field that verify would refuse, before building it
    out = os.path.join(tmp_path, "x")
    proc = subprocess.run([sys.executable, "-m", "flagcodes.cli", *argv, "--out", out],
                          capture_output=True, text=True, timeout=15,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.endswith("exceeds the limit 256\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, limit", [
    (("construct", "spread-type", "--p", "2", "--k", "1", "--s", "21",
      "--t", str(2 ** 21 - 1), "--max-size"), 1 << 20),
    (("construct", "spread-type", "--p", "2", "--k", "1", "--s", "100000000",
      "--t", "3"), 1024),
    (("construct", "spread-type", "--p", "2", "--k", "1", "--s", "21",
      "--t", str(2 ** 21 - 1)), 1 << 20),
    (("construct", "full-type", "--p", "2", "--e", "8", "--k", "3", "--max-size"), 1 << 20),
    (("construct", "full-type", "--p", "3", "--k", "600"), 1024),
    (("spread", "--p", "2", "--k", "1", "--s", "127"), 1 << 20),
    (("spread", "--p", "2", "--k", "9" * 20, "--s", "2"), 1024),
], ids=["max-count", "spread-type-n", "orbit-count", "full-type-count",
        "full-type-n", "spread-count", "spread-n"])
def test_code_above_the_file_limits_exits_2_in_bounded_time(tmp_path, argv, limit):
    # the CLI refuses an ambient n or a code size that verify would refuse,
    # before any extension field is built and before q^n is computed
    out = os.path.join(tmp_path, "x")
    proc = subprocess.run([sys.executable, "-m", "flagcodes.cli", *argv, "--out", out],
                          capture_output=True, text=True, timeout=15,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.endswith(f"exceeds the limit {limit}\n")
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def test_unfactorable_group_order_exits_2_in_bounded_time(tmp_path):
    # GF(2) and a one-flag orbit pass the file limits, but GF(2^127) needs
    # 2^127 - 1 factored; trial division is bounded, so the CLI names the
    # number and stops
    out = os.path.join(tmp_path, "x")
    proc = subprocess.run([sys.executable, "-m", "flagcodes.cli", "construct",
                           "spread-type", "--p", "2", "--k", "1", "--s", "127",
                           "--t", "1", "--out", out],
                          capture_output=True, text=True, timeout=15,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: cannot factor {2 ** 127 - 1}: ")
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def test_header_limits_are_inclusive(capsys, tmp_path):
    good = os.path.join(tmp_path, "edge.subcode")
    with open(good, "w") as fh:
        fh.write("SUBCODE v1\nfield p=2 e=8\nambient n=2\ntype 1\ncount 1\n"
                 "subspace k=1\n1 7\n")
    rc, stdout, _ = run(capsys, "verify", good)
    assert rc == 0
    assert json.loads(stdout)["q"] == 256


@pytest.mark.parametrize("exc", [AssertionError("orbit is not certified"),
                                 ZeroDivisionError("inverse of zero")])
def test_exit_code_4_on_internal_error(tmp_path, capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "build_spread_context", broken)
    rc, stdout, err = run(capsys, "spread", "--p", "2", "--k", "2", "--s", "2",
                          "--out", os.path.join(tmp_path, "s.subcode"))
    assert rc == 4
    assert stdout == ""
    assert err.startswith(f"internal error: {type(exc).__name__}: {exc} (")
    assert "test_cli.py:" in err and "Traceback" not in err


# inserted by the fuzzer below: digits, header and block words, a stray
# carriage return and a byte that is never UTF-8
_FUZZ_TOKENS = [b"0", b"7", b"13", b"99999", b"k=", b"flag", b"count 0", b"\r", b"\xff"]


def _mutate(rng, data: bytes) -> bytes:
    """data with 1-3 edits: a byte overwritten, a token inserted, a span
    deleted, or a line duplicated or swapped with another."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        i = rng.randrange(len(data))
        if edit == 0:
            data = data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
        elif edit == 1:
            data = data[:i] + rng.choice(_FUZZ_TOKENS) + data[i:]
        elif edit == 2:
            data = data[:i] + data[i + rng.randint(1, 16):]
        else:
            lines = data.split(b"\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            if rng.randrange(2):
                lines.insert(a, lines[b])
            else:
                lines[a], lines[b] = lines[b], lines[a]
            data = b"\n".join(lines)
    return data


def test_mutated_files_exit_0_or_3_without_traceback(tmp_path, capsys):
    # base files written by the CLI: an orbit code, a maximum full-type
    # code, and a spread with its hyperplanes; each mutant is verified in a
    # subprocess of its own, one at a time, whose timeout turns a hang
    # into a failure
    out = lambda name: os.path.join(tmp_path, name)
    for argv in [("construct", "spread-type", "--p", "3", "--k", "3", "--s", "2",
                  "--t", "56", "--out", out("orbit.flagcode")),
                 ("construct", "full-type", "--p", "2", "--k", "2", "--max-size",
                  "--out", out("full.flagcode")),
                 ("spread", "--p", "2", "--k", "2", "--s", "3", "--hyperplanes",
                  "--out", out("s.subcode"))]:
        assert run(capsys, *argv)[0] == 0
    bases = []
    for name in ("orbit.flagcode", "full.flagcode", "s.subcode",
                 "s_hyperplanes.subcode"):
        with open(out(name), "rb") as fh:
            bases.append((name, fh.read()))
    rng = random.Random(1)
    codes = []
    for i in range(24):
        name, data = bases[i % len(bases)]
        path = out(f"mutant{i}_{name}")
        with open(path, "wb") as fh:
            fh.write(_mutate(rng, data))
        proc = subprocess.run([sys.executable, "-m", "flagcodes.cli", "verify", path],
                              capture_output=True, text=True, timeout=15,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode in (0, 3), (path, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, (path, proc.stderr)
        if proc.returncode == 0:
            json.loads(proc.stdout)
        else:
            assert proc.stderr.startswith("error: line "), (path, proc.stderr)
        codes.append(proc.returncode)
    # the edits reach the parser: most mutants are malformed
    assert codes.count(3) > codes.count(0), codes
