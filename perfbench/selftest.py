#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at toy size, untraced and traced,
through perfbench/run.py, and checks that:
  * the printed metric names are exactly the end-to-end metrics
    (untraced) or the per-layer metrics (traced) of BENCHMARK.json, with
    the same units, every end-to-end value finite and above 0;
  * no operation failed and no output mismatched its oracle
    (error_rate 0, correct true, exit code 0);
  * the result record carries the host fingerprint and configuration;
  * the traced run's span self times add up to the wall time of the
    traced phases within SELF_TIME_RESIDUAL_PCT.
Exits 1 on the first failed check.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Spans nest strictly, so their self times partition the traced phases;
# the residual is clock-read granularity and the few instructions
# between a phase's outer timer and its root span.
SELF_TIME_RESIDUAL_PCT = 1.0

FINGERPRINT = ("nproc", "isa", "lanes", "threads", "jit_mode",
               "jit_toolchain", "jit_cxx", "jit_cxx_version", "jit_dir",
               "jit_dir_empty_at_start",
               "scale", "dim", "seed", "workload", "error_rate")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--toy"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{p.returncode}, {len(lines)} output lines")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def check(ok, what):
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, want in ((0, e2e), (1, layer)):
            res, rec = run(w, trace)
            tag = f"{w} trace={trace}"
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: metric names and units match "
                  "BENCHMARK.json")
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1 and rec["error_rate"] == 0,
                  f"{tag}: error_rate 0 over {res['attempted']} operations")
            check(all(k in rec for k in FINGERPRINT),
                  f"{tag}: record has the fingerprint")
            if trace == 0:
                check(all(math.isfinite(v["value"]) and v["value"] > 0
                          for v in res["metrics"].values()),
                      f"{tag}: end-to-end values finite and > 0")
            else:
                resid = abs(rec["self_time_residual_pct"])
                check(resid <= SELF_TIME_RESIDUAL_PCT,
                      f"{tag}: self times sum to traced wall time "
                      f"(residual {resid:.4f}% <= "
                      f"{SELF_TIME_RESIDUAL_PCT}%)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
