#!/usr/bin/env python3
"""Summarise benchmark runs: median, quartiles and spread of every metric.

Usage: python3 perfbench/spread.py [DIR]   (default: perfbench/out)

Reads every `<workload>-seed<seed>-trace<t>.json` the benchmark wrote to
DIR and prints, per workload and trace mode, each metric's median, first
and third quartile (`statistics.quantiles(values, n=4)`) and spread, the
quartile distance as a share of the median.
"""

import glob
import json
import os
import statistics
import sys


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "perfbench/out"
    groups = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*-trace[01].json"))):
        with open(path) as f:
            run = json.load(f)
        key = (run["record"]["workload"], run["record"]["trace"])
        for name, m in run["result"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    for (workload, trace), metrics in sorted(groups.items()):
        runs = len(next(iter(metrics.values())))
        print(f"{workload} trace={int(trace)} runs={runs}")
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) < 2:
                print(f"  {name:28s} median {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")


if __name__ == "__main__":
    main()
