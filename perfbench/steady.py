#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed on each workload and
reports, per metric, the median, the quartiles and the run-to-run spread
(interquartile range as a share of the median), beside each end-to-end
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --seeds 10 [--workloads ilp_busy,...]
        [--first-seed 1] [--seconds N]

Run it from the repository root. Diagnostics (demoted metrics and the
host-speed probe) are summarised the same way. A failed operation in any
run stops the check.
"""
import argparse
import json
import statistics
import subprocess
import sys

DIAG_KEYS = ["wall_s", "sim_kips", "slice_p10_us", "slice_p50_us", "slice_tail_us",
             "host_probe_s_median"]
# Per-job parts of the bounded host times, one row per job.
PER_JOB_KEYS = ["setup_s_per_job", "slice_p1_us_per_job"]


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    return result, diagnostics


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in a.workloads.split(","):
        runs = []
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            result, diag = run(bench["command"], workload, seed, a.seconds)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed: {diag['failures']}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values.update({k: diag[k] for k in DIAG_KEYS if isinstance(diag.get(k), (int, float))})
            for k in PER_JOB_KEYS:
                for job, v in zip(diag["jobs"], diag.get(k, [])):
                    values[f"{k}[{job['job']}]"] = v
            runs.append({"seed": seed, "values": values, "digest": diag.get("digest")})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  file=sys.stderr, flush=True)
        print(f"\n### {workload} ({len(runs)} runs, seeds {a.first_seed}-{a.first_seed + a.seeds - 1})\n")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name in runs[0]["values"]:
            med, q1, q3, spread = summary([r["values"][name] for r in runs])
            bound = bounds.get(name)
            shown = f"{bound:.2f}" if bound is not None else "diagnostic"
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.2%} | {shown} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
