#!/usr/bin/env python3
"""End-to-end benchmark of the Faucets grid simulator.

    python3 e2ebench/run.py --workload market_brokered --seed 2004 --seconds 45 --trace 0
    python3 e2ebench/run.py --self-test

Builds the simulator from this checkout's sources (e2ebench/CMakeLists.txt,
build tree under $CARGO_TARGET_DIR or .bench_build/), then runs repetitions
of one workload, each in its own process (e2e_bench), until --seconds have
passed and every instance ran twice. The seed names INSTANCES[workload]
workload instances; repetitions cycle through them, and every metric is
the mean over instances of the median over that instance's repetitions
(setup_s: the median over all repetitions). Every repetition's output is
checked; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
untraced repetitions and reports the per-layer split of the traced ones.
A result file with the machine, build and seed lands in <build>/results/.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 2004
HELD_OUT_SEED = 7331

# A run must end within 180 s of its first repetition; a repetition still
# running at this many seconds is killed and counted as failed.
RUN_DEADLINE_S = 170
# Workload instances per seed: instance k of seed s runs scenario seed
# s * n + k. Averaging over instances keeps the modelled outcomes of one
# seed close to those of another. The trace replay's outcomes vary little
# from seed to seed, so three instances suffice; as each instance runs at
# least twice, fewer instances keep a slow host period from stretching a
# replay_swf run far past --seconds.
INSTANCES = {"market_brokered": 6, "grid_1000": 6, "replay_swf": 3}
WORKLOADS = tuple(INSTANCES)

UNITS = {
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "unplaced_frac": "ratio",
    "grid_utilization": "ratio",
    "award_latency_s": "sim_s",
    "payoff_per_dollar": "ratio",
}
# Modelled outcomes: functions of the seed alone, identical in every run.
MODELLED = ("unplaced_frac", "grid_utilization", "award_latency_s",
            "payoff_per_dollar")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build():
    """Configure and (re)build; returns the e2e_bench path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"e2ebench: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "e2e_bench")


def sub_seeds(workload, seed):
    n = INSTANCES[workload]
    return [seed * n + k for k in range(n)]


def run_rep(binary, workload, seed, traced, timeout, scale=1.0, spans=None):
    """One repetition in its own process; returns its parsed record, with
    an "errors" list that is empty when the output check passed."""
    work = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--root", ROOT, "--work", work, "--traced", "1" if traced else "0",
           "--scale", repr(scale)]
    if spans:
        cmd += ["--spans", spans]
    failed = {"seed": seed, "traced": traced}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**failed, "errors": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {**failed, "errors": [f"exit {proc.returncode}, no result: "
                                     f"{proc.stderr.strip()[-300:]}"]}
    if proc.returncode != 0 and not rec.get("errors"):
        rec["errors"] = [f"exit {proc.returncode}"]
    return rec


def mark_digest_mismatches(reps):
    """Report JSON and trace JSONL must be byte-identical across every
    repetition of one scenario seed, traced or not; repetitions off the
    majority digests fail."""
    def key(r):
        return r["report_digest"], r["trace_digest"]
    by_seed = {}
    for r in reps:
        if "report_digest" in r:
            by_seed.setdefault(r["seed"], []).append(key(r))
    for r in reps:
        if "report_digest" not in r:
            continue
        keys = by_seed[r["seed"]]
        majority = max(set(keys), key=keys.count)
        if key(r) != majority:
            r["errors"].append(f"report/trace digests {key(r)} != {majority} "
                               "of the other repetitions")


def per_instance(reps, seeds, value):
    """Median of value(rep) over each instance's repetitions, per instance;
    None when an instance has no passing repetition."""
    out = []
    for seed in seeds:
        values = [value(r) for r in reps if r["seed"] == seed]
        if not values:
            return None
        out.append(statistics.median(values))
    return out


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.strip().partition("=")
                if sep and not line.startswith(("#", "//")):
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
        version = version.splitlines()[0] if version else compiler
    except OSError:
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True).stdout.strip() or "unknown"
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])),
        "git_sha": sha,
    }


def measure(binary, workload, seed, seconds, trace):
    """Repetitions until `seconds` have passed and every instance ran twice,
    so each instance's digests are compared; returns (reps, result)."""
    seeds = sub_seeds(workload, seed)
    # --trace 1 alternates traced and untraced repetitions of each instance,
    # so both sides of the tracing-overhead ratio see the same conditions.
    modes = (True, False) if trace else (False,)
    plan = [(s, traced) for s in seeds for traced in modes]
    min_reps = 2 * len(seeds)
    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= RUN_DEADLINE_S or (len(reps) >= min_reps and
                                         elapsed >= seconds):
            break
        sub, traced = plan[len(reps) % len(plan)]
        spans = None
        if traced and not reps:
            spans = os.path.join(results_dir, f"spans-{workload}-seed{sub}.jsonl")
        timeout = RUN_DEADLINE_S - elapsed
        rec = run_rep(binary, workload, sub, traced, timeout, spans=spans)
        rec.setdefault("errors", [])
        rec["seed"], rec["traced"] = sub, traced
        reps.append(rec)
    mark_digest_mismatches(reps)
    ok = [r for r in reps if not r["errors"]]
    plain_reps = [r for r in ok if not r["traced"]]
    traced_reps = [r for r in ok if r["traced"]]
    metrics = {}
    plain_run = per_instance(plain_reps, seeds, lambda r: r["run_s"])
    if trace == 0 and plain_run:
        jobs = per_instance(plain_reps, seeds, lambda r: r["jobs_submitted"])
        for name, unit in UNITS.items():
            per = per_instance(plain_reps, seeds, lambda r: r["end_to_end"][name])
            metrics[name] = {"value": statistics.fmean(per), "unit": unit}
        # Throughput over all instances: total jobs over total median time.
        metrics["jobs_per_s"]["value"] = sum(jobs) / sum(plain_run)
        # Set-up does not depend on the instance; the median over all
        # repetitions sheds the slow ones that a mean would carry.
        metrics["setup_s"]["value"] = statistics.median(
            r["end_to_end"]["setup_s"] for r in plain_reps)
        metrics["runs_ok_frac"] = {"value": len(ok) / len(reps), "unit": "ratio"}
    traced_run = per_instance(traced_reps, seeds, lambda r: r["run_s"])
    if trace and plain_run and traced_run:
        for name in traced_reps[0]["layers"]:
            per = per_instance(traced_reps, seeds, lambda r: r["layers"][name])
            metrics[name] = {"value": statistics.fmean(per),
                             "unit": layer_unit(name)}
        metrics["obs.trace_overhead_frac"] = {
            "value": sum(traced_run) / sum(plain_run) - 1.0, "unit": "ratio"}
    failed = len(reps) - len(ok)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    return reps, result


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us_p50", "_us_p99")):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith(("_ratio", "per_select", "_frac")):
        return "ratio"
    return "count"


def write_result_file(workload, seed, trace, seconds, reps, result):
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    doc = {"workload": workload, "seed": seed, "trace": bool(trace),
           "seconds": seconds, "machine": machine_info(),
           "repetitions": reps, "result": result}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def print_summary(workload, seed, reps, result):
    print(f"{workload} seed {seed}: {result['attempted']} repetitions, "
          f"{result['failed']} failed")
    for sub in sub_seeds(workload, seed):
        mine = [r for r in reps if r["seed"] == sub]
        digests = sorted({r["report_digest"] for r in mine if "report_digest" in r})
        print(f"  instance seed {sub}: {len(mine)} repetitions, report digest "
              f"{', '.join(digests) or '-'}")
    for r in reps:
        for e in r["errors"]:
            mode = "traced" if r["traced"] else "untraced"
            print(f"  FAILED (seed {r['seed']}, {mode}): {e}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def self_test(binary):
    """Every workload at a tiny size on the default and held-out seeds:
    output checks pass, and traced and untraced report JSON match byte for
    byte (the decorators and the profiler are inert)."""
    failures = 0
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for sub in sub_seeds(workload, seed):
                reps = [run_rep(binary, workload, sub, traced, RUN_DEADLINE_S,
                                scale=0.02) for traced in (False, True)]
                errors = [e for r in reps for e in r.get("errors", [])]
                for field in ("report_digest", "trace_digest"):
                    if reps[0].get(field) != reps[1].get(field):
                        errors.append(f"traced and untraced {field} differ")
                status = "ok" if not errors else "FAIL: " + "; ".join(errors)
                print(f"self-test {workload} seed {seed} instance {sub}: "
                      f"digest {reps[0].get('report_digest', '-')} {status}")
                failures += bool(errors)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the repetition in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    binary = build()
    work = os.path.join(build_dir(), "work")
    try:
        if args.self_test:
            return 1 if self_test(binary) else 0
        reps, result = measure(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        path = write_result_file(args.workload, args.seed, args.trace,
                                 args.seconds, reps, result)
        print_summary(args.workload, args.seed, reps, result)
        print(f"result file: {os.path.relpath(path, ROOT)}")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
