"""Write bench/reference.json: every experiment's rows at the current commit.

    python3 bench/record_reference.py

Experiments whose command reads the seed are recorded once per experiment
seed; the others are run under two seeds, must give identical rows, and
are recorded once.  Run it only when the program's correct output changes
on purpose: the reference defines what the benchmark accepts.
"""

from __future__ import annotations

import json
import sys
import time

from check import compact_rows
from run import REFERENCE, run_child
from workloads import (EXPERIMENT_SEEDS, SEED_COMMANDS, WORKLOADS,
                       experiment_argv, reference_key)


def rows_of(experiments: list[tuple[str, ...]], exp_seed: int) -> list[list[list]]:
    argvs = [experiment_argv(e, exp_seed) for e in experiments]
    result, _ = run_child(["--experiments", json.dumps(argvs), "--seconds", "0"],
                          time.monotonic() + 3600.0)
    out = []
    for exp in result["passes"][0]["experiments"]:
        if exp["rc"] != 0 or exp["rows"] is None:
            raise SystemExit(f"{' '.join(exp['argv'])} failed: exit {exp['rc']}")
        out.append(compact_rows(exp["rows"]))
    return out


def main() -> int:
    experiments = [e for w in WORKLOADS.values() for e in w.experiments]
    seeded = [e for e in experiments if e[0] in SEED_COMMANDS]
    fixed = [e for e in experiments if e[0] not in SEED_COMMANDS]
    table = {}
    first, second = (rows_of(fixed, s) for s in EXPERIMENT_SEEDS[:2])
    for exp, a, b in zip(fixed, first, second):
        if a != b:
            raise SystemExit(f"{' '.join(exp)} depends on the seed")
        table[reference_key(exp, EXPERIMENT_SEEDS[0])] = a
    for seed in EXPERIMENT_SEEDS:
        for exp, rows in zip(seeded, rows_of(seeded, seed)):
            table[reference_key(exp, seed)] = rows
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(table.items())) + "\n}\n")
    print(f"wrote {len(table)} experiments to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
