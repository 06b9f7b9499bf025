"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads run_long,daily_ops --seeds 1-10 \
        [--trace 0] [--out perfbench/results/NAME.json]

Runs one seed at a time from the checkout root with `run_seconds` from
BENCHMARK.json. For each metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median ("spread"), next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            env, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
            runs.append({**env["env"], **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **summarise([r["metrics"][name]["value"] for r in runs])}
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, m in metrics.items():
            third = f"{bounds[name] / 3:.3f}" if name in bounds else "-"
            print(f"  {name:34s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f} (bound/3 {third})", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
