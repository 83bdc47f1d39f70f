#!/usr/bin/env python3
"""Build and run the simulator-speed benchmark.

Usage (from the repository root):

    python3 simbench/run.py --workload eci_stream|serving_net|rack_kv \
        --seed N --seconds S --trace 0|1 [--threads T] [--scale X] [--rounds N]

The first call configures and builds simbench/ (which compiles the
simulator from src/) into .bench_build/simbench; later calls only let
the build tool confirm it is up to date. The benchmark binary's output
is passed through: '#' lines describe the host, the rounds, the
simulation fingerprint and the operation counts, and the last line is
one JSON object with the metrics. With --trace 1 the host-time spans
are also written to .bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD, "simbench")
# A run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see " + log_path + ")")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["eci_stream", "serving_net", "rack_kv"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--threads", type=int)
    ap.add_argument("--scale", type=float)
    ap.add_argument("--rounds", type=int)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git", git_sha()]
    for opt in ("threads", "scale", "rounds"):
        if getattr(args, opt) is not None:
            cmd += ["--" + opt, str(getattr(args, opt))]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
