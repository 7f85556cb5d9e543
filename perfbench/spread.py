"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workloads scan cli --seeds 1 2 3 4 5 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed) with the ``run_seconds``
of ``BENCHMARK.json``, one run at a time, from the current directory (a
checkout root).  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound.  ``--out`` also writes the
runs (with each run's ``notes:`` line, which holds the raw, unscaled figures)
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repeat the benchmark over seeds.")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            last["seed"] = seed
            last["notes"] = next((line[len("notes: "):] for line in lines
                                  if line.startswith("notes: ")), None)
            runs.append(last)
            print(f"{workload} seed {seed}: correct {last['correct']}, "
                  f"{last['failed']}/{last['attempted']} failed", flush=True)
        names = list(runs[0]["metrics"])
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in names}
        report[workload] = {"runs": runs, "summary": summary}
        print(f"{workload}: {len(runs)} runs")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:g}" + (
                "  SPREAD ABOVE BOUND/3" if s["spread"] > bound / 3 else "")
            print(f"  {name:<58} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
