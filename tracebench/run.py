#!/usr/bin/env python3
"""Builds and runs the trace-path benchmark from the repository's sources.

    python3 tracebench/run.py --workload state_trace --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run builds the `tracebench`
package (this directory's CMakeLists.txt, which compiles the repository's
src/ layers) into $CARGO_TARGET_DIR/tracebench, default
.bench_build/tracebench; later runs rebuild incrementally. Each run first
executes the benchmark's self-tests, then the workload, then checks that
the result names exactly the metrics and units BENCHMARK.json lists for
the mode (--trace 0: end_to_end, --trace 1: per_layer). The result object
is the last line of standard output. Any failure exits non-zero without a
result.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("state_trace", "trace_flood", "host_fleet")
RUN_TIMEOUT_S = 170  # the benchmark binary; the build is not counted


def fail(message):
    print(f"tracebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "tracebench"


def run_logged(cmd, log, what):
    with open(log, "a") as out:
        result = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{what} failed (log: {log})")


def build(bdir):
    if not (ROOT / "src" / "tracing" / "CMakeLists.txt").is_file():
        fail(f"no entitytrace sources under {ROOT / 'src'}; run from a full checkout")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        log.write_text("")
        if not (bdir / "CMakeCache.txt").is_file():
            run_logged(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, "configure")
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", str(bdir), "-j", jobs], log, "build")


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, traced):
    """Exits when the result line breaks the output contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not a JSON result: {line[:200]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    want = expected_metrics(traced)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    traced = args.trace == "1"

    bdir = build_dir()
    t0 = time.monotonic()
    build(bdir)
    print(f"build: {time.monotonic() - t0:.1f} s", flush=True)

    selftest = subprocess.run([str(bdir / "tracebench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        print(selftest.stdout, file=sys.stderr)
        fail("self-tests failed")

    run_dir = bdir / f"run-{args.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [str(bdir / "tracebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--run-dir", str(run_dir)]
    if traced:
        cmd += ["--spans-out", str(bdir / f"spans-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with {proc.returncode}")
    check_result(lines[-1], traced)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
