"""Spread of each end-to-end metric over a set of benchmark runs.

Usage: python3 perfbench/steadiness/spread.py RUNS.jsonl [BENCHMARK.json]

RUNS.jsonl holds one object per run: {"workload", "seed", "detail", "result"},
where "detail" and "result" are the run's last two stdout lines, parsed. For
every workload and metric it prints the median, the spread (distance between
the first and third quartile, as `statistics.quantiles(values, n=4)` gives
them, over the median) and the metric's bound from BENCHMARK.json.
"""

import json
import statistics
import sys


def main():
    runs_path = sys.argv[1]
    bench_path = sys.argv[2] if len(sys.argv) > 2 else "BENCHMARK.json"
    with open(bench_path) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    by_workload = {}
    with open(runs_path) as f:
        for line in f:
            run = json.loads(line)
            result = run["result"]
            if not result["correct"] or result["failed"]:
                sys.exit(f"run {run['workload']} seed {run['seed']} failed")
            values = by_workload.setdefault(run["workload"], {})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            steal = run["detail"]["provenance"]["host_steal_frac"]
            values.setdefault("host_steal_frac", []).append(steal)
    print("| workload | metric | runs | median | spread | bound | spread / bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, values in by_workload.items():
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            share = f"{spread / bound:.2f}" if bound else "-"
            print(
                f"| {workload} | {name} | {len(vals)} | {med:.6g} | {spread:.4f} "
                f"| {bound if bound is not None else '-'} | {share} |"
            )


if __name__ == "__main__":
    main()
