"""Regenerate the committed reference fields of the sweep benchmark.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the repository root.  Writes perfbench/reference/<workload>-seed<k>.csv
for every reference seed, from a parallel sweep at the current code, and
refuses to write a field in which any grid point failed.  Regenerate only
when a change is meant to alter the physics, and say so in the change.
"""

from __future__ import annotations

import sys

import workloads
from run import ROOT, Runner, machine_workers


def main(argv) -> int:
    _, workers, blas_threads = machine_workers()
    for workload in argv or sorted(workloads.WORKLOADS):
        for seed in workloads.REFERENCE_SEEDS:
            (report,) = Runner(workload, seed, workers, blas_threads).sweeps((workers, False, None))
            if report["failed"] or not report["checkpoint_ok"]:
                raise SystemExit(f"{workload} seed {seed}: {report['failed']} grid points failed")
            path = workloads.reference_path(ROOT, workload, seed)
            path.write_bytes(report["csv"])
            print(f"{path.relative_to(ROOT)}: {report['points']} points in {report['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
