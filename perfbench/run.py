#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the inputs, generated from the seed before
any timing, go to a per-run directory beside it and are deleted afterwards.
The result object is the last line of standard output; build logs go to
standard error. Exits non-zero, printing no result, when the sources are
missing, the build fails or the run overruns its deadline.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_txt", "stream_pdf_socket", "serve_mix", "paper_sim")
BUILD_TYPE = "RelWithDebInfo"
# A run (input generation plus measurement) must end within 180 s.
RUN_BUDGET_S = 170.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(root):
        root = os.path.join(os.getcwd(), root)
    return root


def build(out):
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "tvsbench")


def run_step(cmd, deadline):
    """Runs `cmd` until it ends or `deadline` (monotonic) passes."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {ROOT}/src; nothing to measure")
        return 2
    root = build_dir()
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    inputs = os.path.join(root, "inputs", f"{args.workload}-{args.seed}")
    scratch = os.path.join(root, "scratch")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)
    # A traced run covers the ledgers of every workload.
    gen = "all" if args.trace == "1" else args.workload
    try:
        code, _ = run_step([binary, "gen", "--workload", gen, "--seed",
                            str(args.seed), "--dir", inputs], deadline)
        if code != 0:
            log(f"input generation failed with code {code}")
            return 1
        code, out = run_step([binary, "run", "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds",
                              f"{args.seconds:g}", "--trace", args.trace,
                              "--inputs", inputs, "--scratch", scratch],
                             deadline)
    except subprocess.TimeoutExpired:
        log("the run overran its deadline and was stopped")
        return 3
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
