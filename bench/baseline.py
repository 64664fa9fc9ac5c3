"""Measure the benchmark's baseline and write bench/baseline.json.

    python3 bench/baseline.py [--seeds N]

Runs bench/run.py for `run_seconds` (from BENCHMARK.json) on each workload
with seeds 1..N and tracing off, then once with tracing on.  For each
end-to-end metric it records the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median; it also records
the traced run's per-layer metrics.  Takes about N + 1 times 30 seconds
per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    path = BENCH / "baseline.json"
    baseline = {"run_seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = [run(name, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        traced = run(name, 1, seconds, 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [r["result"]["metrics"][key]["value"] for r in runs]
            end_to_end[key] = {"unit": metric["unit"], **summary(values),
                               "values": values}
        baseline["environment"] = runs[0]["detail"]["environment"]
        baseline["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "seeds": list(range(1, args.seeds + 1)),
            "all_correct": all(r["result"]["correct"] for r in runs + [traced]),
            "passes_per_run": [len(r["detail"]["pass_wall_s"]) for r in runs],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"]
                          for k, v in traced["result"]["metrics"].items()},
        }
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        spreads = ", ".join(f"{k} {v['median']:.4g} {v['unit']} spread {v['spread']:.3f}"
                            for k, v in end_to_end.items())
        print(f"{name}: {spreads}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
