"""Benchmark of the flagcodes library: construct and verify workloads.

    python3 perfbench/run.py --workload {construct,verify} --seed N
                             --seconds S --trace {0,1} [--small]

Run from the root of a checkout; the library is imported from its `src/`.
Every workload is a closed loop with one client: one process, one thread,
each job starts when the previous one has finished.  The seed draws the
jobs (see workloads.py); the measured process receives only those jobs and,
for `verify`, the files written from the seed by an earlier process.  Every
answer is checked against oracle.py, which uses the paper's formulas only.

--trace 0 prints the end-to-end metrics:
  setup_s          median over fresh processes (3 for construct, 7 for
                   verify) of the normalized time of the library import
                   plus the cold build of every field tower and context
                   the workload needs
  wall_norm_s      median over the passes of a pass's normalized time
  job_p50_norm_ms  median over the jobs of each job's median normalized
                   latency
  peak_rss_mb      peak resident memory of the measured process
and, on the summary lines only, wall_s and job_p50_ms (the same as
measured), the set-up times as measured and error_rate (failed /
attempted).  Passes repeat until they have taken --seconds.  A normalized
time is a wall time scaled by the machine's speed sampled during it
(reference.py): other tenants of a shared machine slow whole stretches of
a run, by up to 2x on a fixed pure-Python loop, and the sampled reference
job slows with the library.

--trace 1 runs the untraced process as above (without set-up samples) and
then two traced processes of one pass each, and prints the per-layer
metrics of tracing.py.  It checks that both traced processes give the same
counts and the same answers as the untraced one; tracing.overhead_s is the
median normalized traced pass minus the median normalized untraced pass.
Spans go to perfbench/_out/spans-<workload>.tsv.gz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --small runs a minimal job list with one
set-up sample, for the self-test.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170          # the whole run, every child process included
# fresh set-up processes per run: construct's set-up takes about 4 s,
# verify's (import and field towers) about 30 ms
SETUP_SAMPLES = {"construct": 3, "verify": 7}


def pass_seconds(times_ms):
    """Sum of every pass of job times in milliseconds, in seconds."""
    return [sum(p) / 1000 for p in times_ms]


class WorkerFailed(RuntimeError):
    pass


class Run:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.jobs = workloads.draw_jobs(args.workload, args.seed, args.small)

    def worker(self, mode, *extra):
        """Run worker.py in a fresh process; returns its result file."""
        result = self.workdir / f"{mode}-{time.monotonic_ns()}.json"
        argv = [sys.executable, str(HERE / "worker.py"), mode,
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--dir", str(self.workdir), "--result", str(result), *extra]
        if self.args.small:
            argv.append("--small")
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise WorkerFailed(f"no time left for the {mode} process")
        # own process group, so a timeout also ends the set-up probes the
        # worker may have started
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                _, err = proc.communicate(timeout=left)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise WorkerFailed(f"{mode} process ran out of time") from None
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} process exited {proc.returncode}:\n"
                               + err[-4000:])
        return json.loads(result.read_text()) if result.exists() else None

    def problems(self, answers) -> list:
        """(pass, job id, problem) for every wrong or failed answer."""
        out = []
        texts = {}
        for i, one_pass in enumerate(answers):
            for job, ans in zip(self.jobs, one_pass):
                if "error" in ans:
                    bad = [ans["error"]]
                elif self.args.workload == "verify":
                    bad = oracle.check_verify(job, ans)
                else:
                    if job["id"] not in texts:
                        path = self.workdir / f"{job['id']}.flagcode"
                        texts[job["id"]] = path.read_text()
                    bad = oracle.check_construct(job, ans, texts[job["id"]])
                out += [(i, job["id"], b) for b in bad]
        return out

    def untraced(self):
        probes = 0 if self.args.small else SETUP_SAMPLES[self.args.workload] - 1
        res = self.worker("run", "--seconds", str(self.args.seconds),
                          "--probes", str(probes))
        setup_s = [sample["s"] for sample in res["setup"]]
        problems = self.problems(res["answers"])
        median = statistics.median
        metrics = {
            "setup_s": (median(sample["norm_s"] for sample in res["setup"]), "s"),
            "wall_norm_s": (median(pass_seconds(res["norm_ms"])), "s"),
            "job_p50_norm_ms": (median(map(median, zip(*res["norm_ms"]))), "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        passes = len(res["job_ms"])
        attempted = passes * len(self.jobs)
        failed = len({p[:2] for p in problems})
        raw_pass_s = pass_seconds(res["job_ms"])
        samples = res["sample_ms"]
        notes = [
            f"{'wall_s':40s} {median(raw_pass_s):14.6f} s"
            f"   (as wall_norm_s, not normalized; fastest pass "
            f"{min(raw_pass_s):.6f} s)",
            f"{'job_p50_ms':40s} {median(map(median, zip(*res['job_ms']))):14.6f} ms"
            f"   (as job_p50_norm_ms, not normalized)",
            f"setup_s: median of {len(setup_s)} fresh processes, normalized; "
            f"as measured, median {median(setup_s):.6f} s, range "
            f"{min(setup_s):.6f}-{max(setup_s):.6f} s",
            f"wall_norm_s: median of {passes} passes over {len(self.jobs)} jobs",
            f"job_p50_norm_ms: median over {len(self.jobs)} jobs of each "
            f"job's median over {passes} passes",
            f"speed samples: {len(samples)}, median {median(samples):.4f} ms "
            f"(nominal {reference.NOMINAL_S * 1000:g} ms), range "
            f"{min(samples):.4f}-{max(samples):.4f} ms",
        ]
        return metrics, attempted, failed, problems, notes

    def traced(self):
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{self.args.workload}.tsv.gz"
        plain = self.worker("run", "--seconds", str(self.args.seconds))
        runs = [self.worker("run", "--trace", "--spans", str(spans))
                for _ in range(2)]
        problems = self.problems(plain["answers"])
        for n, res in enumerate(runs, start=1):
            if res["answers"] != plain["answers"][:1]:
                problems.append((0, "-", f"traced run {n} answered differently"))
        counts = [{k: v for k, v in res["layers"].items() if tracing.is_count(k)}
                  for res in runs]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append((0, "-", f"traced counts differ: {diff}"))
        plain_s = statistics.median(pass_seconds(plain["norm_ms"]))
        traced_s = statistics.median(pass_seconds(res["norm_ms"])[0] for res in runs)
        layers = dict(runs[0]["layers"])
        layers["tracing.overhead_s"] = traced_s - plain_s
        metrics = {k: (v, tracing.LAYER_METRICS[k][0]) for k, v in layers.items()}
        attempted = (len(plain["job_ms"]) + 2) * len(self.jobs)
        failed = len({p[:2] for p in problems})
        notes = [f"tracing.overhead_s: median normalized traced pass "
                 f"{traced_s:.4f} s (of 2) minus median normalized untraced "
                 f"pass {plain_s:.4f} s "
                 f"(of {len(plain['job_ms'])})",
                 f"spans: {spans.relative_to(ROOT)}"]
        return metrics, attempted, failed, problems, notes

    def execute(self):
        if self.args.workload == "verify":
            self.worker("gen")
        return self.traced() if self.args.trace else self.untraced()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="minimal job list and one set-up sample")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flagcodes" / "__init__.py").is_file():
        print(f"error: no flagcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, attempted, failed, problems, notes = Run(args, workdir).execute()
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          "closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:40s} {shown} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted:14.6f} 1"
          f"   ({failed} of {attempted} jobs failed or answered wrong)")
    for note in notes:
        print(f"  {note}")
    for pass_no, job_id, problem in problems[:20]:
        print(f"  WRONG pass {pass_no} job {job_id}: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
