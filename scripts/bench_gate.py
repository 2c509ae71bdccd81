#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh BENCH_<name>.json against the
committed baseline in bench/baselines/.

Structural metrics (chunk counts, skip fractions, filters placed) are
deterministic for a fixed generator seed, so they gate at a tight relative
tolerance. `*_checksum` metrics are result-correctness checks and gate
EXACTLY (zero tolerance). `*_ms` and `*_ns` timing metrics are reported for
trending but never gated — shared CI runners are too noisy for a hard
latency bar. Every baseline key must be in the fresh report, timings
included: a metric leaves the gate only by leaving the baseline.

Usage: scripts/bench_gate.py <fresh.json> <baseline.json> [rel_tol]
Exit code 0 = pass, 1 = regression / metric drift.
"""

import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("metrics", {})


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 1
    fresh = load(sys.argv[1])
    base = load(sys.argv[2])
    rel_tol = float(sys.argv[3]) if len(sys.argv) > 3 else 0.10
    abs_tol = 1e-9
    failures = []
    for key, expected in sorted(base.items()):
        got = fresh.get(key)
        if got is None:
            failures.append(f"{key}: missing from fresh run (baseline {expected})")
            continue
        if key.endswith(("_ms", "_ns")):
            print(f"  (trend) {key}: baseline {expected:.3f} -> {got:.3f}")
            continue
        if key.endswith("_checksum"):
            # Result checksums are correctness, not perf: exact match only.
            if got != expected:
                failures.append(f"{key}: {got} != baseline {expected} (exact-match metric)")
            else:
                print(f"  ok      {key}: {got} (exact)")
            continue
        limit = max(abs(expected) * rel_tol, abs_tol)
        if abs(got - expected) > limit:
            failures.append(f"{key}: {got} vs baseline {expected} (tolerance ±{limit:.4g})")
        else:
            print(f"  ok      {key}: {got} (baseline {expected})")
    if failures:
        print("\nPERF GATE FAILED:")
        for f in failures:
            print(f"  {f}")
        print("\nIf the change is intentional, refresh the baseline (see DESIGN.md).")
        return 1
    print("\nperf gate: all structural metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
