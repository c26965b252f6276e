"""One benchmark process: set up a sweep and, unless asked only for set-up, run it.

    python3 perfbench/child.py {setup|sweep|traced} '<SweepConfig fields as JSON>' [spans.npz]

Run from the repository root.  It imports qresp from ./src, builds the
SweepConfig and the grid, and prints one JSON line.  `ready` is
time.monotonic() at the moment run_sweep is called, so the parent can time
set-up from the moment it started this process.  `sweep` times run_sweep plus
emit_field; `traced` does the same with every layer wrapped by the tracer and
adds the per-layer figures.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import asdict

sys.path.insert(0, "src")

import numpy  # noqa: E402,F401  (importing numpy is part of the timed set-up)
from qresp import benchmarks, espmetrics, qmat, reservoir, sweep  # noqa: E402


def _config(fields: dict) -> sweep.SweepConfig:
    fields = dict(fields)
    fields["metrics"] = tuple(fields["metrics"])
    if "ipc_budget" in fields:
        fields["ipc_budget"] = tuple(tuple(p) for p in fields["ipc_budget"])
    return sweep.SweepConfig(**fields)


def _checkpoint_report(path: str, n_points: int) -> dict:
    """Checkpoint lines that record a grid point, and whether they are one per point."""
    indices = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line) if line.strip() else {}
            if "index" in row:
                indices.append(row["index"])
    return {
        "checkpoint_lines": len(indices),
        "checkpoint_ok": sorted(indices) == list(range(n_points)),
        "checkpoint_bytes": os.path.getsize(path),
    }


def main(argv) -> int:
    mode, fields = argv[0], json.loads(argv[1])
    cfg = _config(fields)
    n_points = len(sweep.grid_coordinates(cfg))
    report = {"config": asdict(cfg), "points": n_points}
    if mode == "setup":
        report["ready"] = time.monotonic()
        print(json.dumps(report))
        return 0

    ckpt = sweep.checkpoint_path(cfg.out_path)
    if os.path.exists(ckpt) or os.path.exists(cfg.out_path):
        raise RuntimeError(f"output directory of {cfg.out_path} is not fresh")
    if mode == "traced":
        import tracer as tracing  # after set-up: the tracer is not part of it

        spans = tracing.Tracer()
        tracing.install(spans, reservoir, espmetrics, benchmarks, qmat, sweep)

    report["ready"] = t0 = time.monotonic()
    result = sweep.run_sweep(cfg)
    sweep.emit_field(result, cfg.out_path)
    report["wall_s"] = time.monotonic() - t0

    report["failed"] = sum(1 for e in result.errors if e)
    report.update(_checkpoint_report(ckpt, n_points))
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report["peak_rss_mb"] = rss_kb / 1024.0
    if mode == "traced":
        report["layers"] = tracing.layer_metrics(spans)
        report["absent"] = spans.absent
        report["spans"] = len(spans.start)
        spans.save(argv[2])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
