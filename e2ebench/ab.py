#!/usr/bin/env python3
"""Same-machine A/B of two commits with identical benchmark code.

    python3 e2ebench/ab.py --base HEAD~1 [--change HEAD] [--seed 2004]

Each commit other than the working tree is checked out with
`git worktree add` under a gitignored build-ab-<sha> directory of this
repository (no network). This checkout's e2ebench/ is copied over the
worktree's, so both sides run the same benchmark code and differ only in
the program. For every workload in BENCHMARK.json it runs PAIRS pairs of
runs of BENCHMARK.json's run_seconds, alternating which side runs first,
and for every end-to-end metric prints each side's median and quartiles,
how many pairs the change won, and the verdict of the rule in
e2ebench/README.md: a gain needs at least nine tenths of the pairs and a
median difference larger than the base's own quartile spread. Modelled
outcomes must be identical on both sides for a speed-only change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import DEFAULT_SEED, MODELLED  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
LOWER_IS_BETTER = {m["name"] for m in BENCH["end_to_end"]
                   if m["better"] == "lower"}
PAIRS = 10


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def checkout(rev):
    """Root of a checkout of `rev`; "WORKTREE" is this working tree."""
    if rev == "WORKTREE":
        return ROOT
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, f"build-ab-{sha[:12]}")
    if not os.path.isdir(path):
        git("worktree", "add", "--detach", path, sha)
    bench = os.path.join(path, "e2ebench")
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    return path


def run_side(root, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds in its own tree
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab: benchmark failed in {root} ({workload})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"ab: output check failed in {root} ({workload})")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(workload, base_runs, change_runs):
    print(f"\n{workload}: {len(base_runs)} pairs")
    print(f"  {'metric':18s} {'base median [q1, q3]':38s} "
          f"{'change median [q1, q3]':38s} {'wins':>6s}  verdict")
    for name in base_runs[0]:
        b = [r[name] for r in base_runs]
        c = [r[name] for r in change_runs]
        lower = name in LOWER_IS_BETTER
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(b, c))
        bq, cq = quartiles(b), quartiles(c)
        bm, cm = statistics.median(b), statistics.median(c)
        resolved = abs(cm - bm) > bq[1] - bq[0]
        if name in MODELLED:
            verdict = "identical" if b == c else "CHANGED"
        elif wins >= 0.9 * len(b) and resolved:
            verdict = "gain"
        elif losses >= 0.9 * len(b) and resolved:
            verdict = "loss"
        else:
            verdict = "no resolved change"
        side = [f"{m:.6g} [{q[0]:.6g}, {q[1]:.6g}]" for m, q in ((bm, bq), (cm, cq))]
        print(f"  {name:18s} {side[0]:38s} {side[1]:38s} "
              f"{wins:>3d}/{len(b):<2d}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--change", default="WORKTREE",
                        help="commit under test (default: this working tree)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    base_root = checkout(args.base)
    change_root = checkout(args.change)
    for workload in (w["name"] for w in BENCH["workloads"]):
        base_runs, change_runs = [], []
        for i in range(PAIRS):
            sides = [("base", base_root), ("change", change_root)]
            if i % 2 == 1:
                sides.reverse()
            for side, root in sides:
                values = run_side(root, workload, args.seed, BENCH["run_seconds"])
                (base_runs if side == "base" else change_runs).append(values)
            print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
        report(workload, base_runs, change_runs)


if __name__ == "__main__":
    main()
