#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 slbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (Release) into $CARGO_TARGET_DIR or .bench_build; later runs
only rebuild what changed. Every argument is passed to the benchmark
binary, which parses them strictly (exit 2 with a usage line on any bad
value). Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. A traced run (--trace 1) also writes its spans
under <build dir>/traces/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "slbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "slbench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"slbench: build failed: {err}", file=sys.stderr)
        return 1
    traces = os.path.join(build_dir(), "traces")
    return subprocess.run([binary, *argv, "--trace-dir", traces]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
