"""Child interpreter of the benchmark: imports trotter_lab and runs passes.

Usage (from bench/run.py, with PYTHONPATH pointing at the package sources):

    python3 bench/child.py --setup-only
    python3 bench/child.py --experiments JSON --seed N --seconds S --trace 0|1

Both forms first import `trotter_lab.cli` and note the system-wide
monotonic clock when the import returns, so the parent can time set-up from
its own clock.  A pass runs the experiments one after another in this
process (a closed loop with one client); passes repeat until `--seconds`
have elapsed, always at least one.  With `--trace 1` the first half of the
time runs untraced passes and the second half traced ones.  The result is
one JSON object on the last line of standard output.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import trotter_lab.cli as cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)



def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.machine(),
            **{var: val for var, val in os.environ.items()
               if var.endswith("_NUM_THREADS")},
            "TROTTER_LAB_THREADS": os.environ.get("TROTTER_LAB_THREADS")}


def run_pass(experiments: list[list[str]]) -> tuple[float, list[dict]]:
    """Run every experiment once; returns the pass wall time and raw outputs."""
    outputs = []
    start = time.perf_counter()
    for argv in experiments:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except Exception:  # an experiment that crashes counts as failed
                traceback.print_exc()
                rc = None
        outputs.append((rc, buf.getvalue()))
    wall = time.perf_counter() - start
    results = []
    for argv, (rc, text) in zip(experiments, outputs):
        try:
            rows = json.loads(text)["rows"] if text else None
        except (ValueError, KeyError):
            rows = None
        results.append({"argv": argv, "rc": rc, "rows": rows,
                        "output_bytes": len(text.encode())})
    return wall, results


def run_passes(experiments, deadline, tracer=None) -> list[dict]:
    passes = []
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        wall, results = run_pass(experiments)
        record = {"wall_s": wall, "experiments": results}
        if tracer is not None:
            record["metrics"] = tracer.metrics(
                sum(r["output_bytes"] for r in results))
            record["layer_calls"] = tracer.layer_calls()
        passes.append(record)
    return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--experiments")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = {"ready": READY}
    if not args.setup_only:
        experiments = json.loads(args.experiments)
        start = time.perf_counter()
        if args.trace:
            import tracer
            result["passes"] = run_passes(experiments, start + args.seconds / 2)
            t = tracer.Tracer()
            t.install()
            result["traced_passes"] = run_passes(
                experiments, start + args.seconds, t)
        else:
            result["passes"] = run_passes(experiments, start + args.seconds)
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["environment"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
