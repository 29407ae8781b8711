#!/usr/bin/env python3
"""Gate an Obs_bench JSON artifact against the committed wall-time floors.

Usage: bench_diff.py BASELINE.json CURRENT.json

BASELINE (bench/baseline.json) lists the gated sections, each with a
committed wall time and its own floor:

    { "sections": [ { "name": "kernel", "wall_s": 1.71, "floor": 0.2 }, ... ] }

CURRENT is the artifact `bench/main.exe ... --json CURRENT.json` wrote.
Prints a Markdown table (suitable for $GITHUB_STEP_SUMMARY) of every
gated section and exits 1 unless each one is present in CURRENT and
runs at a speed ratio baseline_wall / current_wall of at least its
floor.  An unreadable or malformed file also exits 1: the gate fails
closed.  Sections that CURRENT holds but BASELINE does not gate are
ignored.

The floors are deep (0.2 for the single-core kernel loops, 0.1 for the
noisier serve sections) so shared-runner noise stays quiet, while a
return to boxed kernels or per-request blocking writes, which cost
5-10x, fails the build.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print("usage: bench_diff.py BASELINE.json CURRENT.json", file=sys.stderr)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    try:
        with open(baseline_path) as f:
            gated = json.load(f)["sections"]
        with open(current_path) as f:
            cur = {r["name"]: r["wall_s"] for r in json.load(f)["results"]}
        rows = [(g["name"], float(g["wall_s"]), float(g["floor"])) for g in gated]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_diff: cannot read artifacts: {type(e).__name__}: {e}")
        return 1
    if not rows:
        print(f"bench_diff: {baseline_path} gates no section")
        return 1

    print("### Benchmark wall-clock vs committed floors")
    print()
    print(f"baseline `{baseline_path}` vs current `{current_path}`")
    print()
    print("| section | baseline (s) | current (s) | speed ratio | floor | |")
    print("|---|---:|---:|---:|---:|---|")
    failed = []
    for name, bw, floor in rows:
        cw = cur.get(name)
        if cw is None:
            print(f"| {name} | {bw:.4f} | — | — | {floor:g} | ❌ missing |")
            failed.append(f"{name} is missing from {current_path}")
            continue
        ratio = bw / cw if cw > 0.0 else float("inf")
        ok = bw > 0.0 and ratio >= floor
        mark = "" if ok else "❌ below floor"
        print(f"| {name} | {bw:.4f} | {cw:.4f} | {ratio:.2f}x | {floor:g}x | {mark} |")
        if not ok:
            failed.append(f"{name} runs at {ratio:.2f}x the baseline (floor {floor:g}x)")

    print()
    for msg in failed:
        print(f"FAIL: {msg}")
    if failed:
        return 1
    print(f"All {len(rows)} gated sections at or above their floors.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
