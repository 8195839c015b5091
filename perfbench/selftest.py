"""Minimal-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload with --small, untraced and traced (twice).  Asserts
that every metric named in BENCHMARK.json, and the raw wall_s and
job_p50_ms, is printed with its unit, that error_rate is 0 and every answer is right, and that two
traced runs with the same seed give identical per-layer counts.  Exits 0
when all hold.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(lines, result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["metrics"].keys() == {s["name"] for s in specs}, result["metrics"]
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], (spec, got)
        assert any(re.match(rf"\s*{re.escape(spec['name'])}\s+\S+ {re.escape(spec['unit'])}$", ln)
                   for ln in lines), f"{spec['name']} not printed with its unit"
    rate = [ln for ln in lines if ln.split()[:1] == ["error_rate"]]
    assert len(rate) == 1 and float(rate[0].split()[1]) == 0, rate
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.LAYER_METRICS)
    for workload in workloads.WORKLOADS:
        lines, result = bench(workload, 0)
        check_printed(lines, result, spec["end_to_end"])
        for name, unit in (("wall_s", "s"), ("job_p50_ms", "ms")):
            assert any(ln.split()[:1] == [name] and ln.split()[2] == unit
                       for ln in lines), f"{name} not printed with its unit"
        counts = []
        for _ in range(2):
            lines, result = bench(workload, 1)
            check_printed(lines, result, spec["per_layer"])
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if tracing.is_count(k)})
        assert counts[0] == counts[1], f"{workload}: traced counts differ"
        print(f"{workload}: ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
