"""Command line front end.

Subcommands:

    construct spread-type   orbit code (or maximum code) for admissible t
    construct full-type     orbit code (or maximum code) on full flags
    verify PATH             re-check a code file and report its invariants
    table {1,2}             reproduce the two parameter tables
    spread                  write a spread (optionally its hyperplanes)

Every command prints a single JSON summary on stdout; `construct` and
`spread` also write code files.  Exit codes: 0 success, 1 I/O failure,
2 invalid parameters, 3 malformed code file, 4 internal error (a failed
self-check or any other unexpected exception).
"""

import argparse
import json
import os
import sys
import time
from math import gcd

from .codefiles import (MAX_AMBIENT_DIM, MAX_COUNT, CodeFileData,
                        check_field_order, read_code_file, write_flag_code,
                        write_subspace_code)
from .constructions import (admissible_subgroup_orders, build_full_type_context,
                            build_spread_context, full_type_max_odfc,
                            full_type_orbit_odfc, full_type_generator_flag,
                            spread_type_max_odfc, spread_type_orbit_odfc,
                            table_row)
from .errors import CodeFileError
from .fields import make_field
from .flags import (critical_indices, flag_distance_bound, is_disjoint,
                    is_odfc_by_definition, is_odfc_by_characterization,
                    projected_code)
from .subspaces import (is_partial_spread, is_spread, max_distance_bound,
                        partial_spread_size_bound)


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def _flag_summary(code, runtime_ms=None, extra=None) -> dict:
    out = {
        "kind": "flag-code",
        "q": code.field.order,
        "n": code.n,
        "type": list(code.dims),
        "size": len(code),
        "distance": code.min_distance(),
        "bound": flag_distance_bound(code.n, code.dims),
        "is_odfc": is_odfc_by_definition(code),
    }
    if extra:
        out.update(extra)
    if runtime_ms is not None:
        out["runtime_ms"] = runtime_ms
    return out


def _field(args, n: int, size):
    """GF(p^e) from --p/--e, for a code of size(q) members on GF(q)^n.

    A code whose file verify would refuse is refused first: a field, an
    ambient n or a size above the code-file limits exits 2 before any field
    is built, and n is checked before q^n is computed.  Parameters that
    make_field or the constructions reject (q < 2, k < 1, n < 1) are left
    to them.
    """
    check_field_order(args.p, args.e)
    q = args.p ** args.e
    if q >= 2 and args.k >= 1 and n >= 1:
        if n > MAX_AMBIENT_DIM:
            raise ValueError(f"ambient dimension {n} exceeds the limit {MAX_AMBIENT_DIM}")
        count = size(q)
        if count > MAX_COUNT:
            raise ValueError(f"code size {count} exceeds the limit {MAX_COUNT}")
    return make_field(args.p, args.e)


def _spread_size(args):
    """(q^n - 1)/(q^k - 1) as a function of q: a spread, H, a maximum code."""
    return lambda q: (q ** (args.k * args.s) - 1) // (q ** args.k - 1)


def cmd_spread_type(args) -> int:
    t0 = time.monotonic()
    size = _spread_size(args) if args.max_size else lambda q: args.t // gcd(args.t, q - 1)
    ctx = build_spread_context(_field(args, args.k * args.s, size), args.k, args.s)
    if args.max_size:
        code = spread_type_max_odfc(ctx, args.t)
    else:
        code = spread_type_orbit_odfc(ctx, args.t)
    ms = round(1000 * (time.monotonic() - t0), 1)
    stem = f"spread_type_p{args.p}e{args.e}_k{args.k}s{args.s}_t{args.t}"
    if args.max_size:
        stem += "_max"
    path = args.out if args.out else stem + ".flagcode"
    write_flag_code(code, path, tower=(args.k, args.s))
    _emit(_flag_summary(code, ms, {"t": args.t, "file": path}))
    return 0


def cmd_full_type(args) -> int:
    t0 = time.monotonic()
    size = lambda q: q ** (args.k + 1) + (1 if args.max_size else -1)
    ctx = build_full_type_context(_field(args, 2 * args.k + 1, size), args.k)
    if args.max_size:
        code = full_type_max_odfc(ctx)
    else:
        code = full_type_orbit_odfc(ctx, full_type_generator_flag(ctx))
    ms = round(1000 * (time.monotonic() - t0), 1)
    stem = f"full_type_p{args.p}e{args.e}_k{args.k}"
    if args.max_size:
        stem += "_max"
    path = args.out if args.out else stem + ".flagcode"
    write_flag_code(code, path)
    _emit(_flag_summary(code, ms, {"file": path}))
    return 0


def _verify_flag(data: CodeFileData) -> dict:
    code = data.code
    report = _flag_summary(code)
    crit = critical_indices(code.n, code.dims)
    levels = []
    for i, t in enumerate(code.dims, start=1):
        proj = projected_code(code, i)
        levels.append({
            "dim": t,
            "projected_size": len(proj),
            "projected_distance": proj.min_distance(),
            "projected_max": max_distance_bound(code.n, t),
        })
    report["levels"] = levels
    report["critical"] = list(crit)
    report["disjoint"] = is_disjoint(code)
    report["odfc_by_definition"] = report["is_odfc"]
    report["odfc_by_characterization"] = is_odfc_by_characterization(code)
    report["verdicts_agree"] = (
        report["odfc_by_definition"] == report["odfc_by_characterization"])
    return report


def _verify_subspace(data: CodeFileData) -> dict:
    code = data.code
    q, k = code.field.order, code.dim
    return {
        "kind": "subspace-code",
        "q": q,
        "n": code.n,
        "dim": k,
        "size": len(code),
        "distance": code.min_distance(),
        "max_distance": max_distance_bound(code.n, k),
        "partial_spread": is_partial_spread(code),
        "spread": is_spread(code),
        "partial_spread_bound": partial_spread_size_bound(code.n, k, q),
    }


def cmd_verify(args) -> int:
    data = read_code_file(args.path)
    if data.kind == "flag":
        report = _verify_flag(data)
    else:
        report = _verify_subspace(data)
    report["file"] = args.path
    if data.tower is not None:
        report["tower"] = list(data.tower)
    _emit(report)
    return 0


_TABLE_PARAMS = {1: (3, 1, 3, 2), 2: (2, 2, 3, 3)}


def cmd_table(args) -> int:
    p, e, k, s = _TABLE_PARAMS[args.number]
    t0 = time.monotonic()
    ctx = build_spread_context(make_field(p, e), k, s)
    rows = [table_row(ctx, t) for t in admissible_subgroup_orders(ctx)]
    ms = round(1000 * (time.monotonic() - t0), 1)
    header = f"{'t':>6} {'orbit':>6} {'orbits_max':>10} {'odfc':>6}"
    print(header)
    for r in rows:
        print(f"{r.t:>6} {r.orbit_size:>6} {r.num_orbits:>10} "
              f"{'yes' if r.is_odfc else 'no':>6}")
    _emit({
        "table": args.number,
        "q": ctx.base_field.order, "k": k, "s": s, "n": ctx.n,
        "rows": [{"t": r.t, "orbit_size": r.orbit_size,
                  "num_orbits": r.num_orbits, "is_odfc": r.is_odfc}
                 for r in rows],
        "runtime_ms": ms,
    })
    return 0


def cmd_spread(args) -> int:
    t0 = time.monotonic()
    ctx = build_spread_context(_field(args, args.k * args.s, _spread_size(args)),
                               args.k, args.s)
    # the orbits are walked on first read, so read them inside the timing
    spread = ctx.spread
    hyperplanes = ctx.hyperplanes if args.hyperplanes else None
    ms = round(1000 * (time.monotonic() - t0), 1)
    stem = f"spread_p{args.p}e{args.e}_k{args.k}s{args.s}"
    path = args.out if args.out else stem + ".subcode"
    write_subspace_code(spread, path, tower=(args.k, args.s))
    files = [path]
    if hyperplanes is not None:
        root = path[:-len(".subcode")] if path.endswith(".subcode") else path
        hpath = root + "_hyperplanes.subcode"
        write_subspace_code(hyperplanes, hpath, tower=(args.k, args.s))
        files.append(hpath)
    _emit({
        "kind": "spread",
        "q": ctx.base_field.order, "k": args.k, "s": args.s, "n": ctx.n,
        "size": len(spread),
        "is_spread": True,
        "stabilizer_order": ctx.member_stabilizer_order,
        "files": files,
        "runtime_ms": ms,
    })
    return 0


def _add_field_args(p: argparse.ArgumentParser):
    p.add_argument("--p", type=int, required=True, help="field characteristic")
    p.add_argument("--e", type=int, default=1,
                   help="extension degree, base field has p^e elements")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flagcodes",
        description="construct and verify orbital flag codes")
    subs = top.add_subparsers(dest="command", required=True)

    con = subs.add_parser("construct", help="build a flag code")
    consubs = con.add_subparsers(dest="family", required=True)

    st = consubs.add_parser("spread-type",
                            help="orbit code on spread-admissible flags")
    _add_field_args(st)
    st.add_argument("--k", type=int, required=True, help="spread block dimension")
    st.add_argument("--s", type=int, required=True, help="ambient n = k*s")
    st.add_argument("--t", type=int, required=True, help="cyclic subgroup order")
    st.add_argument("--max-size", action="store_true",
                    help="grow the orbit to the maximum-size code")
    st.add_argument("--out", help="output path for the code file")
    st.set_defaults(func=cmd_spread_type)

    ft = consubs.add_parser("full-type", help="orbit code on full flags")
    _add_field_args(ft)
    ft.add_argument("--k", type=int, required=True, help="ambient n = 2k+1")
    ft.add_argument("--max-size", action="store_true",
                    help="extend the orbit to size q^(k+1)+1")
    ft.add_argument("--out", help="output path for the code file")
    ft.set_defaults(func=cmd_full_type)

    ver = subs.add_parser("verify", help="re-check a code file")
    ver.add_argument("path")
    ver.set_defaults(func=cmd_verify)

    tab = subs.add_parser("table", help="reproduce a parameter table")
    tab.add_argument("number", type=int, choices=(1, 2))
    tab.set_defaults(func=cmd_table)

    sp = subs.add_parser("spread", help="write a spread as a subspace code")
    _add_field_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--out", help="output path for the spread file")
    sp.add_argument("--hyperplanes", action="store_true",
                    help="also write the hyperplane code")
    sp.set_defaults(func=cmd_spread)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CodeFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a library fault: report it and where it arose
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        print(f"internal error: {type(exc).__name__}: {exc} ({where})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
