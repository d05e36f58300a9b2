#!/usr/bin/env python3
"""A/B protocol for tracebench: alternating parent/change pairs.

    python3 scripts/bench_ab.py --base HEAD~1 --pairs 10 --seeds 9001 \\
        --workloads host_fleet --out BENCH_tracebench.json

Materializes the base revision (`git archive`, so the repository's own git
metadata is left alone) and the change — a revision, or by default the
live checkout with its uncommitted edits — into two source trees under
--workdir, each built by its own `tracebench/run.py` into its own build
tree. For every workload it then runs `--pairs` untraced pairs on seeds
--seeds, --seeds+1, ...: pair i runs base then change for even i and
change then base for odd i, so slow drifts of the host hit both sides
alike. One traced run per side follows (--traced 0 skips it).

Per metric it prints both medians, the base's interquartile range, the
change's win count over the pairs (ties count for neither side), "gain"
when the change wins at least nine tenths of the pairs and the medians
differ by more than the base's interquartile range, and, for the
BENCHMARK.json end-to-end metrics, whether the change's median stays
within the metric's bound of the base's median. A workload also fails
its check when the change fails a larger share of its operations than
the base. --out writes the change's figures as {commit, date, host:
{cpu, nproc}, <workload>: {<metric>: {unit, n, median, p25, p75}}}: the
untraced pairs' end-to-end metrics and the traced run's per-layer
metrics. The exit status is 1 when any bound check failed.
"""
import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("state_trace", "trace_flood", "host_fleet")
WORKTREE = "WORKTREE"  # --change value meaning the live checkout


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def materialize(rev, dest):
    """Writes `rev`'s tree (or the live checkout's files) to `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        files = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split("\0")
        for name in filter(None, files):
            src = ROOT / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return git("rev-parse", "HEAD") + "+worktree"
    commit = git("rev-parse", rev)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                       check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest)
    return commit


def run(tree, workload, seed, seconds, traced):
    """One tracebench run in `tree`; returns its result object."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "tracebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if traced else "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"bench_ab: {workload} seed {seed} failed in {tree}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary(values, unit):
    p25, p75 = quartiles(values)
    return {"unit": unit, "n": len(values),
            "median": statistics.median(values), "p25": p25, "p75": p75}


def compare(workload, base_runs, change_runs, spec):
    """Prints the pair table; returns (metric summaries, bound failures)."""
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = []
    out = {}
    print(f"\n== {workload}: {len(base_runs)} pairs")
    print(f"{'metric':<40} {'base':>12} {'change':>12} {'base IQR':>25}"
          f" {'wins':>6} {'':>4}  bound")
    for name, metric in change_runs[0]["metrics"].items():
        b = [r["metrics"][name]["value"] for r in base_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(b, c))
        bm, cm = statistics.median(b), statistics.median(c)
        p25, p75 = quartiles(b)
        gain = (10 * wins >= 9 * len(b) and abs(cm - bm) > p75 - p25 and
                ((cm < bm) if lower else (cm > bm)))
        verdict = ""
        if name in bounds:
            worse = (cm - bm) if lower else (bm - cm)
            ok = worse <= bounds[name] * abs(bm)
            verdict = f"{'ok' if ok else 'OUT'} (±{bounds[name]:.0%})"
            if not ok:
                failures.append(f"{workload} {name}: {bm:.4g} -> {cm:.4g}")
        print(f"{name:<40} {bm:>12.4g} {cm:>12.4g} "
              f"{f'[{p25:.4g}, {p75:.4g}]':>25} {wins:>3}/{len(b):<2} "
              f"{'gain' if gain else '':>4}  {verdict}")
        out[name] = summary(c, metric["unit"])
    share = [r["failed"] / r["attempted"] for r in base_runs]
    cshare = [r["failed"] / r["attempted"] for r in change_runs]
    if max(cshare) > max(share):
        failures.append(f"{workload}: failed share {max(share):.3g} -> "
                        f"{max(cshare):.3g}")
    if not all(r["correct"] for r in base_runs + change_runs):
        failures.append(f"{workload}: a run reported correct=false")
    return out, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--change", default=WORKTREE,
                        help=f"change revision; {WORKTREE} (default) is the "
                             "live checkout")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, default=9001,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--traced", type=int, default=1, choices=(0, 1),
                        help="one traced run per side and workload")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_ab")
    parser.add_argument("--out", type=Path,
                        help="write the change's figures here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"base": args.workdir / "base", "change": args.workdir / "change"}
    commits = {side: materialize(rev, trees[side])
               for side, rev in (("base", args.base), ("change", args.change))}
    print(f"base {commits['base']}, change {commits['change']}", flush=True)

    report = {"commit": commits["change"],
              "date": datetime.date.today().isoformat(),
              "host": {"cpu": cpu_model(), "nproc": os.cpu_count()}}
    failures = []
    for workload in args.workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seeds + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run(trees[side], workload, seed,
                                      args.seconds, traced=False))
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                  flush=True)
        metrics, failed = compare(workload, runs["base"], runs["change"], spec)
        failures += failed
        if args.traced:
            seed = args.seeds + args.pairs
            traced = {side: [run(trees[side], workload, seed, args.seconds,
                                 traced=True)] for side in ("base", "change")}
            traced_metrics, failed = compare(workload + " (traced)",
                                             traced["base"], traced["change"],
                                             spec)
            failures += failed
            metrics.update(traced_metrics)
        report[workload] = metrics

    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                            + "\n")
    if failures:
        print("\nOUT OF BOUNDS:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("\nevery bounded metric inside its bound")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    main()
