#!/usr/bin/env python3
"""Compare two result files written by run.sh: A is the base, B the candidate.

For every (end-to-end metric, workload) prints both medians, the ratio B/A,
the bound from BENCHMARK.json and a verdict:

  ok          B is no worse than A by more than the bound
  worse       B is worse than A by more than the bound
  unresolved  the run-to-run spread of A or B is wider than the bound, so
              the pair cannot say "unchanged"

Failed statements and exact per-layer counts that differ are reported too.
Exits 1 on any `worse`, any failed statement in B, or any differing exact
count; `unresolved` alone exits 0.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def verdict(a, b, bound, better):
    """(relative worsening of b against a, verdict) for two metric entries."""
    base, new = a["median"], b["median"]
    if base == 0:
        return 0.0, "ok" if new == 0 else "worse"
    worsening = (new - base) / abs(base)
    if better == "higher":
        worsening = -worsening
    spreads = [s for s in (a.get("spread"), b.get("spread")) if s is not None]
    if spreads and max(spreads) > bound:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "ok"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        a = json.load(f)
    with open(sys.argv[2]) as f:
        b = json.load(f)
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        contract = {m["name"]: m for m in json.load(f)["end_to_end"]}
    if a["mode"] != b["mode"]:
        sys.exit(f"refusing to compare a {a['mode']} run with a {b['mode']} run")
    if a["mode"] == "quick":
        print("# QUICK MODE results: a smoke comparison, not a measurement")
    for side, result in (("A", a), ("B", b)):
        stamp = result["stamp"]
        print(f"# {side}: commit {stamp['commit'][:12]} seed {stamp['seed']} "
              f"nproc {stamp['nproc']} {stamp['rustc']} "
              f"bloom probe {stamp['calibration']['bloom.probe_ns_per_key']:.2f} ns/key")  # fmt: skip

    bad = 0
    print(f"{'workload':<12} {'metric':<16} {'A':>12} {'B':>12} {'B/A':>7} "
          f"{'spread':>7} {'bound':>6}  verdict")  # fmt: skip
    for workload, base in a["workloads"].items():
        new = b["workloads"].get(workload)
        if new is None:
            print(f"{workload:<12} missing from B")
            bad += 1
            continue
        for name, metric in base["end_to_end"].items():
            rule = contract[name]
            worsening, word = verdict(metric, new["end_to_end"][name], rule["bound"], rule["better"])
            spreads = [s for s in (metric.get("spread"), new["end_to_end"][name].get("spread"))
                       if s is not None]  # fmt: skip
            shown = f"{100 * max(spreads):.1f}%" if spreads else "-"
            ratio = new["end_to_end"][name]["median"] / metric["median"] if metric["median"] else 0
            print(f"{workload:<12} {name:<16} {metric['median']:>12.4f} "
                  f"{new['end_to_end'][name]['median']:>12.4f} {ratio:>7.3f} "
                  f"{shown:>7} {100 * rule['bound']:>5.0f}%  {word}")  # fmt: skip
            bad += word == "worse"
        share_a = base["failed"] / max(base["attempted"], 1)
        share_b = new["failed"] / max(new["attempted"], 1)
        word = "ok" if new["failed"] == 0 else "worse"
        print(f"{workload:<12} {'failed_share':<16} {share_a:>12.4f} {share_b:>12.4f} "
              f"{'':>7} {'':>7} {'0%':>6}  {word}")  # fmt: skip
        bad += word == "worse"
        if "per_layer" in base and "per_layer" in new:
            for name in base["exact_counts"]:
                left = base["per_layer"][name]["value"]
                right = new["per_layer"][name]["value"]
                if left != right:
                    print(f"{workload:<12} {name:<28} exact count differs: {left:.0f} vs {right:.0f}")
                    bad += 1
    print("# exact per-layer counts: " +
          ("compared" if all("per_layer" in w for r in (a, b) for w in r["workloads"].values())
           else "not compared (needs --traced on both sides)"))  # fmt: skip
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
