#!/usr/bin/env python3
"""Benchmark ratchet: fail CI on a >10% median regression.

Compares a freshly emitted BENCH_*.json against its committed baseline
(bench/baselines/). Absolute MB/s is machine-dependent, so each entry is
first normalized by a reference entry measured in the *same* run — a
compiled-in legacy implementation — which cancels the host's
single-thread speed. What the ratchet then compares across commits is
"speedup over the legacy reference", a machine-portable number.

Two trajectories are ratcheted in CI:
  decode: BENCH_decode.json, ref pipeline/bit/DE/legacy-v0 (the default)
  encode: BENCH_encode.json, ref compress/bit/legacy-v0

A single entry can still be noisy on shared runners, so the gate is the
*median* relative change across all baseline entries (the
">10% median regression" rule): half the suite has to get slower before
the ratchet trips. Failures name the per-entry offenders, worst first.

Normalization cancels single-thread speed, not parallelism or
optimization level, so the two reports must carry the same `threads` and
`build_type` stamps; a missing or differing stamp fails the ratchet and
names both stamps instead of comparing across machines silently.

Usage: bench_ratchet.py <baseline.json> <current.json>
           [--threshold 0.10] [--ref pipeline/bit/DE/legacy-v0]
"""

import argparse
import json
import statistics
import sys


STAMPS = ("threads", "build_type")


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    entries = {e["name"]: float(e["mb_per_s"]) for e in doc["entries"]}
    if not entries:
        sys.exit(f"ratchet: {path} contains no entries")
    return doc, entries


def check_stamps(base_doc, base_path, cur_doc, cur_path):
    """Exits nonzero unless both reports carry equal threads/build_type."""
    base_stamp = {k: base_doc.get(k) for k in STAMPS}
    cur_stamp = {k: cur_doc.get(k) for k in STAMPS}
    missing = [k for k in STAMPS if base_stamp[k] is None or cur_stamp[k] is None]
    if missing or base_stamp != cur_stamp:
        why = (f"missing {', '.join(missing)}" if missing
               else "stamps differ")
        sys.exit(f"ratchet: cannot compare across machines ({why}): "
                 f"{base_path} has {base_stamp}, {cur_path} has {cur_stamp}; "
                 "re-capture the baseline at the runner's thread count and "
                 "build type")


def normalized(entries, ref_name, path):
    ref = entries.get(ref_name)
    if ref is None or ref <= 0:
        sys.exit(f"ratchet: reference entry '{ref_name}' missing from {path}")
    return {name: mbps / ref for name, mbps in entries.items() if name != ref_name}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="median relative regression that fails the gate")
    parser.add_argument("--ref", default="pipeline/bit/DE/legacy-v0",
                        help="reference entry used to normalize out machine speed")
    args = parser.parse_args()

    base_doc, base_entries = load_report(args.baseline)
    cur_doc, cur_entries = load_report(args.current)
    check_stamps(base_doc, args.baseline, cur_doc, args.current)
    base = normalized(base_entries, args.ref, args.baseline)
    cur = normalized(cur_entries, args.ref, args.current)

    missing = sorted(set(base) - set(cur))
    if missing:
        sys.exit(f"ratchet: entries missing from {args.current}: {missing}")

    changes = {}
    print(f"{'entry':<32} {'baseline':>10} {'current':>10} {'change':>8}")
    for name in sorted(base):
        # change > 0 is an improvement relative to the in-run reference.
        change = cur[name] / base[name] - 1.0
        changes[name] = change
        print(f"{name:<32} {base[name]:>9.3f}x {cur[name]:>9.3f}x {change:>+7.1%}")

    median_change = statistics.median(changes.values())
    print(f"\nmedian change vs baseline: {median_change:+.1%} "
          f"(gate: > -{args.threshold:.0%})")
    if median_change < -args.threshold:
        # Spell out exactly which entries dragged the median down, worst
        # first, so a CI failure names the regressing configurations
        # instead of only the verdict.
        print("\nper-entry regressions beyond the threshold (worst first):")
        offenders = sorted((c, n) for n, c in changes.items()
                           if c < -args.threshold)
        for change, name in offenders:
            print(f"  {name:<32} {change:+.1%} "
                  f"({base[name]:.3f}x -> {cur[name]:.3f}x vs {args.ref})")
        if not offenders:
            print("  (none individually below the threshold — "
                  "a broad small slowdown moved the median)")
        sys.exit("ratchet: median regression exceeds the threshold — "
                 "either fix the regression or (for an intentional trade-off) "
                 "re-baseline bench/baselines/ with a fresh run and justify it "
                 "in the PR")
    print("ratchet: OK")


if __name__ == "__main__":
    main()
