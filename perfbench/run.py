#!/usr/bin/env python3
"""Campaign benchmark for alperf.

Builds perfbench/ (and with it the alperf libraries from src/) into
.bench_build/perfbench, then runs whole active-learning campaigns of one
workload for a fixed time and prints its metrics. Every campaign is a fresh
campaign_bench process; inputs come from --seed, one sub-seed per campaign.

    python3 perfbench/run.py --workload pool-refit --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

--trace 0 reports the end-to-end metrics from untraced campaigns.
--trace 1 alternates untraced and traced campaigns on the same sub-seeds
and reports the per-layer metrics of the traced ones, plus the tracing
overhead. The last line of stdout is one JSON object; see README.md.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ["pool-refit", "pool-incremental", "async-latency", "continuous"]
# Set-ups per campaign: the pool set-up generates a 3246-job database
# (about 1 s); the continuous one builds a model and a truth grid in a few
# ms, so it is repeated to get a steady median.
SETUPS = {"continuous": 25}
MIN_CAMPAIGNS = 3
CAMPAIGN_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("decide_p50_ms", "ms"),
    ("decide_p90_ms", "ms"),
    ("final_rmse", "log10_s"),
    ("experiment_cost", "core_s"),
    ("peak_rss_mb", "MB"),
]
# Reported on the summary lines only: it is 0 whenever nothing is
# quarantined, and its count is the result's "failed" field.
SUMMARY_ONLY = [("ops_failed_frac", "ratio")]

PER_LAYER = [
    ("cluster.generate_s", "s"), ("data.make_problem_s", "s"),
    ("opt.hyperfit.self_s", "s"), ("opt.start.self_s", "s"),
    ("opt.multistart.starts", "count"), ("gp.fit.self_s", "s"),
    ("gp.lml.self_s", "s"), ("gp.lml_per_fit", "count"),
    ("la.chol.factor.self_s", "s"), ("la.cholesky", "count"),
    ("gp.predict.self_s", "s"), ("gp.poolcache.self_s", "s"),
    ("gp.posterior.self_s", "s"), ("gp.addObservation.self_s", "s"),
    ("la.chol.extend.self_s", "s"), ("la.trsm", "count"),
    ("gp.gram.hit_ratio", "ratio"), ("gp.poolcache.rebuild_per_iter", "ratio"),
    ("core.select.calls", "count"), ("core.select.busy_s", "s"),
    ("al.iteration.self_s", "s"), ("al.fit.self_s", "s"),
    ("al.score.self_s", "s"), ("al.select.self_s", "s"),
    ("al.commit.self_s", "s"), ("al.round.self_s", "s"),
    ("al.fit.full", "count"), ("al.fit.incremental", "count"),
    ("opt.acquire.self_s", "s"),
    ("exec.oracle.calls", "count"), ("exec.oracle.busy_s", "s"),
    ("exec.oracle.failed", "count"), ("exec.slot_util", "ratio"),
    ("exec.retry_ratio", "ratio"), ("exec.commitwait_s", "s"),
    ("exec.dispatch.self_s", "s"), ("exec.inflight.self_s", "s"),
    ("exec.measure.self_s", "s"), ("mem.alloc_mb", "MB"),
    ("trace.overhead_frac", "ratio"), ("trace.dropped", "count"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no alperf sources under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(BUILD_DIR), "--parallel", "4"],
                [str(BUILD_DIR / "selftime_test")]):
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            fail(f"'{' '.join(cmd)}' failed with code {p.returncode}")


def campaign(workload, seed, traced):
    cmd = [str(BUILD_DIR / "campaign_bench"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0",
           "--setups", str(SETUPS.get(workload, 1))]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=CAMPAIGN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} exceeded {CAMPAIGN_TIMEOUT_S} s")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"campaign_bench exited with code {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list, q in (0, 1]."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def measure(workload, seed, seconds, traced):
    """Runs campaigns for about `seconds`: at least MIN_CAMPAIGNS untraced
    ones, and in traced mode a traced one on each untraced one's sub-seed,
    alternating which of the pair runs first."""
    plain, traced_runs = [], []
    start = time.monotonic()
    i = 0
    while True:
        sub_seed = seed * 1000 + i
        order = (False, True) if i % 2 == 0 else (True, False)
        for kind in order if traced else (False,):
            (traced_runs if kind else plain).append(
                campaign(workload, sub_seed, kind))
        i += 1
        elapsed = time.monotonic() - start
        if i >= MIN_CAMPAIGNS and elapsed * (i + 1) / i > seconds:
            return plain, traced_runs


def end_to_end(runs):
    """Medians over campaigns. The decision-latency percentiles are taken
    per campaign (at least 100 picks each) and then their median, so one
    campaign with slow fits cannot dominate the tail."""
    med = lambda key: statistics.median(r[key] for r in runs)
    decide = lambda q: statistics.median(percentile(r["decide_ms"], q)
                                         for r in runs)
    attempted = sum(r["picks"] for r in runs)
    failed = sum(r["quarantined"] for r in runs)
    return {
        "setup_s": med("setup_s"),
        "campaign_s": med("campaign_s"),
        "decide_p50_ms": decide(0.5),
        "decide_p90_ms": decide(0.9),
        "final_rmse": med("final_rmse"),
        "experiment_cost": med("experiment_cost"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ops_failed_frac": failed / attempted,
    }, sum(len(r["decide_ms"]) for r in runs)


def per_layer(plain, traced_runs):
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            out[name] = (statistics.median(r["campaign_s"] for r in traced_runs)
                         / statistics.median(r["campaign_s"] for r in plain)
                         - 1.0)
        elif name == "mem.alloc_mb":
            # From untraced campaigns: the tracer's own buffers allocate.
            out[name] = statistics.median(r["alloc_mb"] for r in plain)
        else:
            out[name] = statistics.median(r["layers"][name]
                                          for r in traced_runs)
    return out


def report(workload, seed, seconds, traced):
    plain, traced_runs = measure(workload, seed, seconds, traced)
    runs = plain + traced_runs
    errors = [f"{r['workload']} ({'traced' if r['traced'] else 'untraced'}):"
              f" {e}" for r in runs for e in r["errors"]]
    e2e, samples = end_to_end(plain)
    ctx = plain[0]["context"]
    print(f"perfbench {workload}: seed {seed}, {len(plain)} untraced + "
          f"{len(traced_runs)} traced campaigns, nproc {ctx['nproc']}, pool "
          f"threads {ctx['pool_threads']}, in-flight {ctx['max_in_flight']}, "
          f"build {ctx['build_type']}, allocator pinned "
          f"{ctx['allocator_pinned']}")
    for name, unit in END_TO_END + SUMMARY_ONLY:
        print(f"  {name:<34} {e2e[name]:>14.6g} {unit}")
    print(f"  {'decide samples':<34} {samples:>14d} picks in "
          f"{len(plain)} campaigns")
    if traced:
        layers = per_layer(plain, traced_runs)
        attributed = statistics.median(r["layers"]["trace.attributed_frac"]
                                       for r in traced_runs)
        print(f"  per layer (median of {len(traced_runs)} traced campaigns; "
              f"main-lane self time / campaign span = {attributed:.4f}):")
        for name, unit in PER_LAYER:
            print(f"  {name:<34} {layers[name]:>14.6g} {unit}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    for e in errors:
        print(f"  GATE FAILED {e}")
    return {
        "correct": not errors,
        "attempted": sum(r["picks"] for r in plain),
        "failed": sum(r["quarantined"] for r in plain),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = [report(w, args.seed, args.seconds, args.trace == 1)
               for w in names]
    for r in results:
        print(json.dumps(r))
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
