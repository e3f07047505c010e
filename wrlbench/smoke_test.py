#!/usr/bin/env python3
"""Tiny-scale smoke test of the wrlbench benchmark.

    python3 wrlbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny scale, one pass each, in
both modes, and checks:
  * every run exits 0 and ends with a result line naming exactly the
    BENCHMARK.json metrics of its mode, with no failed operation;
  * two plain runs, and a plain run and a span run, print the same digest
    of the simulated statistics;
  * another seed changes the inputs (and so the digest);
  * a directory holding only BENCHMARK.json and the benchmark's own files
    makes the benchmark exit nonzero without a result line.
Exits nonzero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.01"


def run(workload, trace, seed=0, cwd=ROOT):
    cmd = ["python3", str(Path(cwd) / "wrlbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def result(proc, workload, trace):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"], where
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, where
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == wanted, f"{where}: metrics {sorted(set(got) ^ set(wanted))} differ"
    digest = [l for l in lines if l.startswith("digest ")]
    assert len(digest) == 1, where
    return digest[0]


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        plain = result(run(workload, 0), workload, 0)
        again = result(run(workload, 0), workload, 0)
        spans = result(run(workload, 1), workload, 1)
        assert plain == again, f"{workload}: two plain runs disagree ({plain} vs {again})"
        assert plain == spans, f"{workload}: span run disagrees ({plain} vs {spans})"
        other = result(run(workload, 0, seed=7), workload, 0)
        assert other != plain, f"{workload}: seed 7 gave the seed-0 digest"
        print(f"ok {workload}: {plain}")

    # Benchmark files alone, without the program's sources.
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bare = (build if build.is_absolute() else ROOT / build) / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "wrlbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    proc = subprocess.run(["python3", "wrlbench/run.py", "--workload", "table2-live",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, env=env, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare benchmark directory exited 0"
    assert '"metrics"' not in proc.stdout, "bare benchmark directory printed a result"
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAILED: {e}", file=sys.stderr)
        sys.exit(1)
