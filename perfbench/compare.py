#!/usr/bin/env python3
"""Compares two sets of benchmark run outputs metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds one file per run: the standard output of
`perfbench/run.py`, named after its workload, e.g. cq-bs-seed3.json (see
README.md). For every workload and metric it prints both sets' median and
quartiles, the spread (quartile distance over the median) and the change
of the median. An end-to-end metric whose new median is worse than the base
median by more than its bound from BENCHMARK.json is marked WORSE; the exit
code is then 1. Per-layer metrics (traced runs) have no bound and are only
reported.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory, workloads):
    """workload -> list of result objects, and the count of unusable files."""
    runs, bad = {}, 0
    for name in sorted(os.listdir(directory)):
        workload = next((w for w in sorted(workloads, key=len, reverse=True)
                         if name.startswith(w + "-") or name == w + ".json"),
                        None)
        if workload is None or not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name)) as f:
                lines = f.read().strip().splitlines()
            runs.setdefault(workload, []).append(json.loads(lines[-1]))
        except (OSError, ValueError, IndexError):
            bad += 1
    return runs, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, base_bad = load_set(sys.argv[1], workloads)
    new, new_bad = load_set(sys.argv[2], workloads)
    if base_bad or new_bad:
        print(f"unreadable run files: {base_bad} in base, {new_bad} in new")

    regressions = 0
    header = (f"{'workload':12} {'metric':30} {'base median [q1, q3]':>30} "
              f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    print(header)
    for workload in workloads:
        a, b = base.get(workload, []), new.get(workload, [])
        if not a or not b:
            print(f"{workload:12} (runs: {len(a)} base, {len(b)} new)")
            continue
        for label, runs in (("base", a), ("new", b)):
            wrong = sum(1 for r in runs if not r.get("correct"))
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"{workload:12} {label}: {len(runs)} runs, {wrong} incorrect, "
                  f"{failed}/{attempted} operations failed")
        names = [n for n in specs if any(n in r["metrics"] for r in a + b)]
        for name in names:
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spec = specs[name]
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if spec["better"] == "lower" else -change
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "WORSE" if worse > bound else "ok"
                regressions += worse > bound
            spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0,
                         (qb[2] - qb[0]) / qb[1] if qb[1] else 0)
            print(f"{workload:12} {name:30} "
                  f"{qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(75) +
                  f"{qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(31) +
                  f"{change:>+8.1%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6}  "
                  f"{verdict} (spread {spread:.1%})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
