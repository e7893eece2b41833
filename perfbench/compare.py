#!/usr/bin/env python3
"""Compares two sets of untraced perfbench runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by run.py (.bench_out/results.jsonl from
two checkouts, say). For every workload and end-to-end metric it prints
each side's median and quartile spread, the change of the median, and
whether that change is a regression beyond the metric's bound in
BENCHMARK.json. A change whose own run-to-run spread exceeds the bound is
reported as unresolved, not as unchanged. It refuses (exit 2) to compare
records made at different nproc, since the serving numbers depend on how
many cores the generator and server share. Exit 1 means a regression.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if r.get("trace") == 0 and r.get("correct")]


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    nprocs = {r.get("nproc") for r in base + new}
    if len(nprocs) != 1:
        print("refusing to compare runs recorded at different nproc: %s"
              % sorted(str(n) for n in nprocs))
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        print("== %s" % workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                regressed = True
            print("  %-18s %12.5g (%.3f) -> %12.5g (%.3f)  %+7.1f%%  %s"
                  % (name, ma, spread(a), mb, spread(b), 100 * change,
                     verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
