#!/usr/bin/env python3
"""Build and run the wrlbench trace-pipeline benchmark.

    python3 wrlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
benchmark (the repository's libraries plus the wrlbench program) under
the build directory: $CARGO_TARGET_DIR when set, else .bench_build.  Later
calls rebuild only what changed.  Build output goes to stderr; the program's
stdout, whose last line is the JSON result, passes through unchanged, and
its exit code is this script's.  Extra arguments (--scale, --out) go to the
program as given.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message):
    print(f"wrlbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tree = out / "wrlbench"
    if not (tree / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(tree), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return tree / "wrlbench"


def main():
    out = build_dir()
    binary = build(out)
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", str(out / "wrlbench-out")]
    return subprocess.run([str(binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
