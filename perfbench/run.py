#!/usr/bin/env python3
"""Build the benchmark from source on first use, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of synth64, gen_batch, kernels, serve (see perfbench/README.md).
The compiler library, the chf_serve daemon and the perfbench binary are
built with CMake under <build root>/perfbench, where the build root is
$CARGO_TARGET_DIR if set and .bench_build otherwise, relative to the
checkout root. The binary then runs from the checkout root; the last
line it prints is the JSON result. Traced runs (--trace 1) also write
<build root>/perfbench/run/trace_<W>.json (Chrome trace-event format).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build into build_dir; False (log on stderr) on error."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [configure, ["cmake", "--build", build_dir, "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(cmd))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["synth64", "gen_batch", "kernels", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not build(build_dir):
        return 1

    # Paths relative to the checkout root keep the daemon's socket path
    # short (sun_path holds 108 bytes).
    run_dir = os.path.relpath(os.path.join(build_dir, "run"), ROOT)
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "chf_serve"),
           "--out-dir", run_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
