"""One benchmark process: writes verify inputs, times set-up, or runs jobs.

    worker.py gen   --workload verify --seed N --dir D [--small]
    worker.py setup --workload W --seed N [--small] --result R
    worker.py run   --workload W --seed N --seconds S --dir D --result R
                    [--small] [--probes K] [--trace --spans P]

`run` is the measured process.  It builds every context the jobs need
(timed as set-up, from before the library import), then runs the job list
in a closed loop, one job at a time, pass after pass until the passes have
taken S seconds.  A reference.Sampler samples the machine's speed all
the while, and every job and set-up time is reported both as measured
(sampler time excluded) and normalized.  Between passes, spread over the
loop, it starts --probes fresh `setup` processes, so the set-up samples
and the passes cover the same stretch of time.  With --trace it wraps the library
first and runs one pass.  Answers go to the result file unchecked;
run.py checks them against the oracle.
"""

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_TIMEOUT_S = 60


def import_library():
    sys.path.insert(0, str(SRC))
    import flagcodes
    import flagcodes.cli
    if not Path(flagcodes.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"flagcodes imported from {flagcodes.__file__}, not {SRC}")
    return flagcodes


def build_contexts(fc, needed) -> dict:
    built = {}
    for ctx in needed:
        kind, p, e = ctx[:3]
        field = fc.make_field(p, e)
        if kind == "spread":
            built[ctx] = fc.build_spread_context(field, ctx[3], ctx[4])
        elif kind == "full":
            built[ctx] = fc.build_full_type_context(field, ctx[3])
        else:
            built[ctx] = field
    return built


def _build_code(fc, ctx, job):
    """The code a construct or verify job is about, and its file tower."""
    kind, t = job["kind"], job["t"]
    if kind == "full_type_orbit_odfc":
        return fc.full_type_orbit_odfc(ctx, fc.full_type_generator_flag(ctx)), None
    if kind == "full_type_max_odfc":
        return fc.full_type_max_odfc(ctx), None
    tower = (job["k"], job["s"])
    if kind == "spread_type_orbit_odfc":
        return fc.spread_type_orbit_odfc(ctx, t), tower
    if kind == "spread_type_max_odfc":
        return fc.spread_type_max_odfc(ctx, t), tower
    if kind == "union_shared":
        group = ctx.group.subgroup_of_order(t)
        base = fc.canonical_admissible_flag(ctx)
        e2 = [0] * ctx.n
        e2[1] = 1
        other = fc.Flag((fc.Subspace(ctx.base_field, ctx.n, [e2]),)
                        + base.subspaces[1:])
        orbits = [fc.orbit_flag(group, f)[0] for f in (base, other)]
        return fc.union_flag_codes(orbits, require_additive=True), tower
    if kind == "spread":
        return ctx.spread, None
    if kind == "hyperplanes":
        return ctx.hyperplanes, None
    if kind == "partial_spread":
        group = ctx.group.subgroup_of_order(t)
        return fc.orbit_subspace(group, ctx.spread.members[0])[0], None
    raise ValueError(f"unknown job kind {kind}")


def _shuffle_members(path: Path, seed: int):
    """Rewrite a code file with its members in seeded order."""
    lines = path.read_text().splitlines()
    header, body = lines[:5], lines[5:]
    start = "flag" if header[0].startswith("FLAGCODE") else "subspace"
    blocks = []
    for ln in body:
        if ln.startswith(start):
            blocks.append([])
        blocks[-1].append(ln)
    random.Random(seed).shuffle(blocks)
    path.write_text("\n".join(header + [ln for b in blocks for ln in b]) + "\n")


def verify_path(workdir: Path, job) -> Path:
    return workdir / f"{job['id']}.code"


def generate(fc, jobs, workdir: Path):
    contexts = {}
    for job in jobs:
        key = workloads.code_context(job)
        if key not in contexts:
            contexts.update(build_contexts(fc, [key]))
        code, tower = _build_code(fc, contexts[key], job)
        path = verify_path(workdir, job)
        if isinstance(code, fc.FlagCode):
            fc.write_flag_code(code, str(path), tower=tower)
        else:
            fc.write_subspace_code(code, str(path), tower=tower)
        _shuffle_members(path, job["shuffle"])


def run_job(fc, ctxs, workload, job, workdir: Path):
    """Run one job; returns its raw answer."""
    if workload == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = fc.cli.main(["verify", str(verify_path(workdir, job))])
        return {"rc": rc, "stdout": out.getvalue()}
    code, tower = _build_code(fc, ctxs[workloads.code_context(job)], job)
    fc.write_flag_code(code, str(workdir / f"{job['id']}.flagcode"), tower=tower)
    return {"size": len(code), "n": code.n, "q": code.field.order,
            "type": list(code.dims)}


def _finish_answer(raw: dict) -> dict:
    """Decode a verify job's stdout after its timing has stopped."""
    if "stdout" in raw:
        lines = raw.pop("stdout").strip().splitlines()
        raw["report"] = json.loads(lines[-1]) if lines else {}
    return raw


def run(args):
    jobs = workloads.draw_jobs(args.workload, args.seed, args.small)
    sampler = reference.Sampler()
    sampler.start()
    try:
        fc, ctxs, tracer, setup_span = timed_setup(args, jobs)
        job_spans, answers, probe_s = [], [], []
        looped_s = 0.0      # wall time of the passes, sampler included
        while True:
            gc.collect()
            spans, raws = [], []
            start = time.perf_counter()
            for job in jobs:
                if tracer:
                    tracer.start_job(job["id"])
                j0 = time.perf_counter()
                try:
                    raw = run_job(fc, ctxs, args.workload, job, args.dir)
                except Exception as exc:  # a failed job is counted, not fatal
                    raw = {"error": f"{type(exc).__name__}: {exc}"}
                spans.append((j0, time.perf_counter()))
                raws.append(raw)
            looped_s += time.perf_counter() - start
            job_spans.append(spans)
            answers.append([_finish_answer(raw) for raw in raws])
            done = tracer or looped_s >= args.seconds
            # probe k of K goes after the pass that reaches k/(K+1) of the loop
            due = (args.probes if done
                   else min(args.probes, int(looped_s / args.seconds * (args.probes + 1))))
            while len(probe_s) < due:
                probe_s.append(probe(args))
            if done:
                break
    finally:
        sampler.stop()

    times = [[sampler.times(*span) for span in spans] for spans in job_spans]
    result = {
        "setup": [setup_times(sampler, setup_span)] + probe_s,
        "job_ms": [[1000 * wall for wall, _ in p] for p in times],
        "norm_ms": [[1000 * norm for _, norm in p] for p in times],
        "sample_ms": [1000 * d for d in sampler.durations],
        "answers": answers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        members = sum(a["report"].get("size", 0) for a in answers[0]
                      if a.get("report", {}).get("kind") == "flag-code")
        result["layers"] = tracer.metrics(members)
        tracer.write_spans(args.spans)
    return result


def timed_setup(args, jobs):
    """Import the library (wrapped, with --trace) and build the contexts
    the jobs need.  Returns the library, the contexts, the tracer or None,
    and the (start, end) of the set-up."""
    t0 = time.perf_counter()
    fc = import_library()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(fc)
        t0 = time.perf_counter()
    ctxs = build_contexts(fc, workloads.contexts_for(args.workload, jobs))
    return fc, ctxs, tracer, (t0, time.perf_counter())


def setup_times(sampler, span) -> dict:
    wall, norm = sampler.times(*span)
    return {"s": wall, "norm_s": norm}


def probe(args) -> dict:
    """Set-up sample of a fresh `setup` process."""
    result = args.dir / f"probe-{time.monotonic_ns()}.json"
    argv = [sys.executable, __file__, "setup", "--workload", args.workload,
            "--seed", str(args.seed), "--result", str(result)]
    if args.small:
        argv.append("--small")
    subprocess.run(argv, check=True, timeout=PROBE_TIMEOUT_S)
    return json.loads(result.read_text())


def setup(args):
    jobs = workloads.draw_jobs(args.workload, args.seed, args.small)
    sampler = reference.Sampler()
    sampler.start()
    try:
        span = timed_setup(args, jobs)[3]
    finally:
        sampler.stop()
    return setup_times(sampler, span)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("gen", "setup", "run"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--probes", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--dir", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    if args.mode == "gen":
        generate(import_library(),
                 workloads.draw_jobs(args.workload, args.seed, args.small),
                 args.dir)
        return
    result = run(args) if args.mode == "run" else setup(args)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
