#!/usr/bin/env python3
"""Host-time benchmark of the STeLLAR simulator.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds `perfbench/` (a Cargo package of its
own that links the repository's crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload in fresh processes, one
after another, for about `--seconds` seconds: a fresh process per run keeps
`VmHWM`, a per-process high-water mark, honest. `wall_s` and `req_per_s`
are means over those processes and every other metric a median. The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced processes and reports the per-layer
metrics: the traced process times the benchmark's calls into each crate and
reads the counters and event profile the simulator exposes; the untraced
one gives the trace overhead. See perfbench/README.md.

Every run checks the simulated outputs: conservation and drain checks and
the paper bands inside each process, and here that every process of a seed
produced the same output digest, traced or not, and that the traced spans
cover at least 95% of the process wall time. A failed check makes
`correct` false and counts that process's requests as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["open-1m", "hedge-p95", "scatter-gather", "paper-sweep"]
# The held-out seed, never used while tuning, is in perfbench/README.md.
DEFAULT_SEED = 1
MIN_RUNS = 3
COVERAGE_FLOOR = 0.95
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; exits non-zero without a result if the
    repository's crates are missing or do not compile."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr, env=env, cwd=ROOT).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(ROOT, target, "release", "perfbench")


def run_process(binary, workload, seed, traced):
    """One workload in one fresh process: its report plus the wall and CPU
    time of the whole process, measured from outside."""
    cmd = [binary, workload, "--seed", str(seed)] + (["--trace"] if traced else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if proc.returncode == 0:
        try:
            report = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            report = None
    if report is None:
        return {"ok": False, "wall_s": wall, "error": f"exit {proc.returncode}", "logical": 1}
    report["wall_s"] = wall
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["ok"] = not report["failures"]
    if traced:
        report["coverage"] = report["top_level_s"] / wall
        if report["coverage"] < COVERAGE_FLOOR:
            report["ok"] = False
            report["failures"].append(f"trace coverage {report['coverage']:.3f} < {COVERAGE_FLOOR}")
    return report


def run_workload(binary, workload, seed, seconds, trace):
    """Runs `workload` in fresh processes for about `seconds` seconds (at
    least MIN_RUNS times); with `trace`, each step is an untraced and a
    traced process."""
    modes = [False, True] if trace else [False]
    runs = {False: [], True: []}
    start = time.perf_counter()
    step_s = []
    while len(step_s) < MIN_RUNS or time.perf_counter() - start + statistics.median(step_s) <= seconds:
        step_start = time.perf_counter()
        for traced in modes:
            r = run_process(binary, workload, seed, traced)
            runs[traced].append(r)
            log(
                f"  {workload} seed {seed}{' traced' if traced else ''}: "
                + (f"wall {r['wall_s']:.3f} s, run {r['run_s']:.3f} s, digest {r['digest']}"
                   if "digest" in r else r["error"])
                + ("" if r["ok"] else f"  FAILED {r.get('failures', '')}")
            )
        step_s.append(time.perf_counter() - step_start)
    return runs


def median_of(reports, key):
    return statistics.median(r[key] for r in reports)


def end_to_end(untraced):
    # On a shared host, speed switches between fast and slow phases lasting
    # 10-30 s. Over one run a median of the process times jumps from one
    # phase to the other, while the mean weighs them by their share of the
    # run, so the times are means and the rest medians.
    setups = [s for r in untraced for s in r["setup_s"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(r["wall_s"] for r in untraced),
        "req_per_s": sum(r["logical"] for r in untraced) / sum(r["run_s"] for r in untraced),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "ok_frac": sum(r["measured_ok"] for r in untraced) / sum(r["measured"] for r in untraced),
    }


def per_layer(untraced, traced):
    values = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    values["process.cpu_s"] = median_of(untraced, "cpu_s")
    values["process.coverage"] = median_of(traced, "coverage")
    values["process.trace_overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    return values


def result(workload, seed, seconds, trace, binary, spec):
    runs = run_workload(binary, workload, seed, seconds, trace)
    everything = runs[False] + runs[True]
    digests = {r.get("digest") for r in everything}
    consistent = len(digests) == 1
    if not consistent:
        log(f"perfbench: {workload} digests differ across processes of seed {seed}: {digests}")
    correct = consistent and all(r["ok"] for r in everything)
    attempted = sum(r["logical"] for r in everything)
    failed = sum(r["logical"] for r in everything if not r["ok"] or not consistent)
    if any("digest" not in r for r in everything):
        values = {}
    elif trace:
        values = per_layer(runs[False], runs[True])
    else:
        values = end_to_end(runs[False])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            correct = False
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        out = result(workload, args.seed, args.seconds, bool(args.trace), binary, spec)
        if len(workloads) > 1:
            print(json.dumps({"workload": workload, **out}), flush=True)
        else:
            print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
