#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <fullgraph|serve-small|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1> [--toy]

Builds the benchmark binary hbench (perfbench/CMakeLists.txt, which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), gives the run an empty JIT artifact directory of
its own, runs the workload and passes its output through. The last line
of standard output is the result object; the line before it is the
result record with the host fingerprint and configuration. Traces of
traced runs are written to <build dir>/traces/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fullgraph", "serve-small", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out, env):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            return False
    return True


def run(cmd, env):
    """Run hbench in its own process group. On timeout, or when this
    script is terminated, kill the group (hbench may be running the JIT
    compiler) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 3, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--toy", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        return fail(f"no library sources next to {HERE.name}/; run from a "
                    "checkout of the repository")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    out = build_dir()
    # Compiler temporaries (the build's and the JIT's) stay in the
    # checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(out, env):
        return fail("build failed")

    run_dir = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    jit_dir = run_dir / "jit"
    trace_dir = out / "traces"
    shutil.rmtree(run_dir, ignore_errors=True)
    jit_dir.mkdir(parents=True)
    trace_dir.mkdir(parents=True, exist_ok=True)

    env["HECTOR_JIT_DIR"] = str(jit_dir)
    cmd = [str(out / "hbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(trace_dir)]
    if args.toy:
        cmd.append("--toy")
    try:
        code, stdout = run(cmd, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
