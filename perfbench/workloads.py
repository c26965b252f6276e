"""Workloads of the sweep benchmark and the tolerance of its field check.

Each workload is a whole `qresp.sweep` run over a fixed grid.  The grid
shapes and metrics come from the benchmark's definition; sequence lengths
are cut from the `SweepConfig` defaults so that one sweep takes seconds.
The IPC budget and surrogate count stay at the sweep defaults.
"""

from __future__ import annotations

# Workload -> SweepConfig fields that differ from the defaults (seed,
# workers and out_path are filled in per run).
WORKLOADS = {
    # 12x6 rotation-axis grid with both poles (the `inf` sentinel) and the
    # ESP indicators at their defaults: 864 short trajectories of 200 steps.
    "axis_esp_field": {
        "experiment": "ns_esp_axis_grid",
        "metrics": ["esp", "ns_esp"],
        "azimuth_count": 12,
        "polar_count": 6,
    },
    # Same grid and Hamiltonian, NARMA2 only: 144 trajectories of 1200 steps,
    # so the per-step cost dominates and the indicator code does not run.
    "axis_narma2": {
        "experiment": "ns_esp_axis_grid",
        "metrics": ["narma2"],
        "azimuth_count": 12,
        "polar_count": 6,
        "narma_len": 1200,
        "narma_sequences": 2,
    },
    # 3x3 (gamma, p) grid on the damping/entangling model with the capacity
    # code: one 5000-step run for mc and ipc, one 4000-step run for rank.
    "subset_capacity": {
        "experiment": "subset_gamma_p_grid",
        "metrics": ["mc", "ipc", "rank"],
        "gamma_count": 3,
        "p_count": 3,
        "mc_len": 5000,
        "mc_washout": 1000,
        "rank_len": 3000,
        "rank_washout": 1000,
    },
}

# `--seed n` selects the sweep seed REFERENCE_SEEDS[n % len(REFERENCE_SEEDS)],
# so every run is checked against a committed reference field.  Seed 0 is
# the default seed a change is tuned on; seed 1 is the held-out seed its
# claim must also hold on.
REFERENCE_SEEDS = tuple(range(10))
DEFAULT_SEED = 0

# A field cell matches its reference when |x - ref| <= ATOL + RTOL * |ref|,
# or both are the same infinity, or both are nan.  A faithful rewrite of the
# state update changes each step by rounding only.  Perturbing every
# evolution unitary by 1e-12 moved esp/ns_esp cells by at most 1.1e-9, mc
# and ipc by 2e-10 and rank not at all, but narma2 at the poles by up to
# 1.4e-5: there the readout features are degenerate, rnmse is about 1 and
# the minimum-norm fit amplifies rounding.  RTOL sits 7x above that and
# 10x below the smallest change a different input makes: the fields of
# seeds 0 and 1 differ by more than 1e-3 in every esp, ns_esp and narma2 cell.
RTOL = 1e-4
ATOL = 1e-9


def sweep_config(workload: str, seed: int, workers: int, out_path: str) -> dict:
    """The SweepConfig fields for one sweep, as JSON-ready values."""
    fields = dict(WORKLOADS[workload])
    fields.update(seed=seed, workers=workers, out_path=out_path)
    return fields


def reference_path(root, workload: str, sweep_seed: int):
    return root / "perfbench" / "reference" / f"{workload}-seed{sweep_seed}.csv"
