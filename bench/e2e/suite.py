#!/usr/bin/env python3
"""Run the benchmark's workloads, each run in its own process, and write one
result file for compare.py. Called by run.sh, which builds the binary first.

Every run's own output (each metric by name, with its unit) is passed
through; a summary with the median and the run-to-run spread of every
end-to-end metric follows.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["tpch_cbo", "tpch_post", "tpch_nobf", "plan_cold", "serve_mix"]


def spread(values):
    """Run-to-run spread as a share of the median: the distance between the
    quartiles from four runs on, the whole range below that."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def output_of(command):
    try:
        return subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(args, workload, seed, trace, detail_path):
    command = [
        args.bin,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--clients", str(args.clients),
        "--expected", os.path.join(HERE, "expected"),
        "--out-dir", os.path.join(HERE, "out"),
        "--out", detail_path,
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    # The last line is the machine-readable object; the rest is for people.
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload} (seed {seed}, trace {trace}) exited {done.returncode}")
    with open(detail_path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", required=True, help="the built bfq-e2e binary")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: SF 0.01, one short cycle; never comparable")
    parser.add_argument("--runs", type=int, default=None,
                        help="untraced runs per workload (default 3; 1 with --quick)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i, as the acceptance spread check does")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--clients", type=int, default=min(2, os.cpu_count() or 1))
    parser.add_argument("--label", default=None)
    args = parser.parse_args()  # fmt: skip

    nproc = os.cpu_count() or 1
    if args.clients > nproc:
        sys.exit(f"--clients {args.clients} refused: this box has {nproc} core(s)")
    if args.runs is None:
        args.runs = 1 if args.quick else 3
    if args.runs < 1:
        sys.exit("--runs must be at least 1")

    label = args.label or datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    detail_path = os.path.join(out_dir, f".run-{label}.json")

    result = {
        "stamp": {
            "commit": output_of(["git", "rev-parse", "HEAD"]),
            "nproc": nproc,
            "rustc": output_of(["rustc", "--version"]),
            "seed": args.seed,
            "vary_seed": args.vary_seed,
            "seconds": args.seconds,
            "clients": args.clients,
            "date": datetime.datetime.now().isoformat(timespec="seconds"),
        },
        "mode": "quick" if args.quick else "full",
        # This benchmark measures; a change that claims a gain says so itself.
        "claim": None,
        "workloads": {},
    }

    for workload in args.workload or WORKLOADS:
        runs = []
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seed else args.seed
            runs.append(run_once(args, workload, seed, 0, detail_path))
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]][:10],
            "statement_median_ms": runs[-1]["statement_median_ms"],
            "end_to_end": {},
        }
        for name, metric in runs[0]["end_to_end"].items():
            values = [r["end_to_end"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "unit": metric["unit"],
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
            }
        if args.traced:
            traced = run_once(args, workload, args.seed, 1, detail_path)
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["per_layer"] = traced["per_layer"]
            entry["exact_counts"] = traced["exact_counts"]
            entry["unsteady_counts"] = traced["unsteady_counts"]
        result["stamp"]["calibration"] = runs[-1]["calibration"]
        result["workloads"][workload] = entry
    os.remove(detail_path)

    print(f"\n# summary ({result['mode']} mode, {args.runs} run(s) per workload)")
    if args.quick:
        print("# QUICK MODE: smoke numbers, never to be compared with a full run")
    print(f"{'workload':<12} {'metric':<18} {'median':>14} {'unit':<5} {'spread':>8}")
    failed = 0
    for workload, entry in result["workloads"].items():
        for name, metric in entry["end_to_end"].items():
            shown = "-" if metric["spread"] is None else f"{100 * metric['spread']:.1f}%"
            print(f"{workload:<12} {name:<18} {metric['median']:>14.4f} "
                  f"{metric['unit']:<5} {shown:>8}")  # fmt: skip
        share = entry["failed"] / max(entry["attempted"], 1)
        print(f"{workload:<12} {'failed_share':<18} {share:>14.4f} ratio "
              f"({entry['failed']} of {entry['attempted']})")  # fmt: skip
        failed += entry["failed"]

    path = os.path.join(out_dir, f"result-{label}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"# wrote {os.path.relpath(path, ROOT)}")
    if failed:
        sys.exit(f"{failed} statement(s) failed or returned a wrong result")


if __name__ == "__main__":
    main()
