"""Benchmark of trotter-lab's CLI experiments, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts child interpreters (bench/child.py) with the package
sources on PYTHONPATH, BLAS pinned to one thread and TROTTER_LAB_THREADS
unset.  Four children only import `trotter_lab.cli`; a fifth imports it and
then runs the workload's experiments in a closed loop for S seconds.  The
median of the five import times is `setup_s`.  Every row of every pass is
checked against bench/reference.json (see check.py), which
bench/record_reference.py writes.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the child spends half the time on
untraced and half on traced passes and the object holds the per-layer
metrics (tracer.py).  The lines before it record the environment, the
samples behind each median and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_experiment, compact_rows, self_check
from tracer import PER_LAYER_METRICS
from workloads import (WORKLOADS, experiment_argv, experiment_seed,
                       reference_key)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env.pop("TROTTER_LAB_THREADS", None)
    return env


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run bench/child.py; returns its result and its set-up time."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("benchmark child did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark child exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - start


def load_references(keys: list[str]) -> list[list[list]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    missing = [k for k in keys if k not in table]
    if missing:
        raise SystemExit(f"no reference rows for {missing}")
    return [table[k] for k in keys]


def check_passes(passes: list[dict], references) -> tuple[int, int, list[float], list[str]]:
    attempted = failed = 0
    ratios: list[float] = []
    problems: list[str] = []
    for record in passes:
        for exp, reference in zip(record["experiments"], references):
            rows = None if exp["rows"] is None else compact_rows(exp["rows"])
            found, exp_ratios = check_experiment(exp["rc"], rows, reference)
            attempted += 1
            ratios += exp_ratios
            if found:
                failed += 1
                problems += [f"{' '.join(exp['argv'])}: {p}" for p in found]
    return attempted, failed, ratios, problems


def median_metrics(records: list[dict]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in records) for key in records[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    workload = WORKLOADS[args.workload]
    exp_seed = experiment_seed(args.seed)
    references = load_references(
        [reference_key(e, exp_seed) for e in workload.experiments])
    self_check(references)

    setup = [run_child(["--setup-only"], deadline)[1]
             for _ in range(SETUP_SAMPLES - 1)]
    argvs = [experiment_argv(e, exp_seed) for e in workload.experiments]
    result, worker_setup = run_child(
        ["--experiments", json.dumps(argvs), "--seconds", str(args.seconds),
         "--trace", str(args.trace)], deadline)
    setup.append(worker_setup)

    passes = result["passes"]
    traced = result.get("traced_passes", [])
    attempted, failed, ratios, problems = check_passes(passes + traced, references)
    walls = [p["wall_s"] for p in passes]
    detail = {"workload": workload.name, "seed": args.seed,
              "experiment_seed": exp_seed, "pass_wall_s": walls,
              "setup_samples_s": setup, "attempted": attempted,
              "failed": failed, "failed_share": failed / attempted,
              "problems": problems[:20], "environment": result["environment"]}

    if args.trace:
        for record in traced:
            idle = [layer for layer in workload.active_layers
                    if record["layer_calls"][layer] == 0]
            if idle:
                raise SystemExit(f"tracer recorded no calls into {idle} "
                                 f"on {workload.name}")
        traced_walls = [p["wall_s"] for p in traced]
        values = median_metrics([p["metrics"] for p in traced])
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        detail["traced_pass_wall_s"] = traced_walls
        detail["layer_calls"] = traced[-1]["layer_calls"]
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in PER_LAYER_METRICS.items()}
    else:
        # matrix_lie has no searched rows, so it cannot lose any sup value
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
                  "sup_found_ratio": min(ratios, default=1.0)}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                 "sup_found_ratio": "ratio"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        print(f"{workload.name} seed={args.seed}: "
              f"wall_s={values['wall_s']:.4f} s (median of {len(walls)} passes), "
              f"setup_s={values['setup_s']:.4f} s (median of {len(setup)}), "
              f"peak_rss_mb={values['peak_rss_mb']:.1f} MiB, "
              f"failed_share={failed / attempted:.4g} ratio ({failed}/{attempted}), "
              f"sup_found_ratio={values['sup_found_ratio']:.6f} ratio")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
