"""The benchmark's workloads: fixed `trotter-lab` experiment argument lists.

Each experiment is the argument list of one `trotter_lab.cli.main` call.
The benchmark appends `--seed <experiment seed> --format json` to it.  Only
`oracle` (random test functions) and `lie` (random matrix pairs) read the
seed; every other experiment gives the same rows under any seed, which
`record_reference.py` checks when it records the reference rows.
"""

from __future__ import annotations

from dataclasses import dataclass

# The benchmark's --seed selects one of these experiment seeds (seed mod 16),
# so that every seed the benchmark passes on has recorded reference rows.
EXPERIMENT_SEEDS = tuple(range(16))

SEED_COMMANDS = frozenset({"oracle", "lie"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple[tuple[str, ...], ...]
    # layers that must report calls in a traced pass; a zero here means a
    # wrapper missed an import and the per-layer table would be silently wrong
    active_layers: tuple[str, ...]


def _exp(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep_holder",
        "Holder rate sweeps: the sampled left-sum kernel under sup_search on "
        "Weierstrass and tent potentials, where potential evaluation is ~95% "
        "of the time",
        (_exp("rates --potential weier:beta=0.5,levels=10 --n 8..512"),
         _exp("rates --potential tent:harmonic=12 --n 8..256")),
        ("cli", "potentials", "quadrature", "sup_search", "rates")),
    Workload(
        "step_cantor",
        "Step potentials: the same kernel and search, but searchsorted "
        "evaluation and the exact per-tau event decomposition; bypasses "
        "transcendental and grid per-tau changes",
        (_exp("cantor --depth 10 --m 1..10"),
         _exp("rates --potential cantor:depth=6 --n 8..1024"),
         _exp("rates --potential pw:breakpoints=0+1/3+1/2+1,values=1+0+2 "
              "--n 8..1024"),
         _exp("oracle --potential cantor:depth=4 --n 4,16,64 --m 65536 "
              "--tau-grid 256"),
         _exp("strong --potential cantor:depth=4 --n 2..256 --tau 0.5 "
              "--m 16384")),
        ("cli", "potentials", "quadrature", "sup_search", "semigroup", "rates")),
    Workload(
        "operator_grid",
        "Operational layer: per-tau grid symbol search with thousands of "
        "small left sums, and apply_trotter/apply_exact on 2^16-cell grids; "
        "only a few sup searches",
        (_exp("oracle --potential linear --n 4,16,64 --m 65536 --tau-grid 256"),
         _exp("oracle --potential tent:harmonic=6 --n 4,16,64 --m 65536 "
              "--tau-grid 128"),
         _exp("strong --potential linear --n 2..256 --tau 0.5 --m 65536")),
        ("cli", "potentials", "quadrature", "sup_search", "semigroup")),
    Workload(
        "matrix_lie",
        "Matrix Lie splitting at three dimensions: expm and the power-"
        "iteration spectral_norm, which no other workload exercises",
        (_exp("lie --n 16..4096 --trials 400 --dim 16"),
         _exp("lie --n 16..2048 --trials 100 --dim 48"),
         _exp("lie --n 16..1024 --trials 40 --dim 96")),
        ("cli", "matrix_lie", "rates")),
)}


def experiment_seed(seed: int) -> int:
    return EXPERIMENT_SEEDS[seed % len(EXPERIMENT_SEEDS)]


def experiment_argv(experiment: tuple[str, ...], exp_seed: int) -> list[str]:
    return [*experiment, "--seed", str(exp_seed), "--format", "json"]


def reference_key(experiment: tuple[str, ...], exp_seed: int) -> str:
    """Key of an experiment's reference rows; seed-free when the seed is unused."""
    key = " ".join(experiment)
    return f"{key} --seed {exp_seed}" if experiment[0] in SEED_COMMANDS else key
