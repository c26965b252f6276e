"""Sweep benchmark of qresp: whole grid sweeps through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; qresp is imported from ./src.  Every
sweep runs in a fresh interpreter (perfbench/child.py) with a fresh output
directory under .bench_out/, as SweepConfig -> run_sweep -> emit_field.  The
sweep is a batch job run as a closed loop: `workers` is the number of usable
cores, and a pool worker takes the next grid point as soon as it is free.

--trace 0 repeats untraced sweeps until S seconds are used and reports the
end-to-end metrics of BENCHMARK.json.  --trace 1 runs one parallel sweep and
two pairs of an untraced and a traced serial sweep, requires all fields to be
byte-identical, and reports the per-layer metrics.  Every field is compared
cell by cell with the committed reference for its seed.

The last line of standard output is the result; the line before it records
the machine, the code and the exact SweepConfig.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
RUN_BUDGET_S = 170.0
SETUPS_PER_SWEEP = 3  # set-up-only processes before each sweep, spread over the run
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class Runner:
    """Starts benchmark processes and keeps the whole run inside its time budget."""

    def __init__(self, workload: str, sweep_seed: int, workers: int, blas_threads: int):
        self.workload = workload
        self.sweep_seed = sweep_seed
        self.workers = workers
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)
        self.env.update({name: str(blas_threads) for name in BLAS_ENV})
        self.log: list[dict] = []

    def _start(self, mode: str, fields: dict, *extra: str, cpu: int | None = None):
        if time.monotonic() >= self.deadline:
            raise TimeoutError("run exceeded its time budget")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "perfbench/child.py", mode, json.dumps(fields), *extra],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        return mode, proc, t_spawn

    def _finish(self, mode: str, proc: subprocess.Popen, t_spawn: float) -> dict:
        try:
            out, err = proc.communicate(timeout=max(self.deadline - time.monotonic(), 0.1))
        finally:
            _stop_group(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process failed ({proc.returncode}):\n{err[-4000:]}")
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t_spawn
        self.log.append({k: report.get(k) for k in ("setup_s", "wall_s", "peak_rss_mb")} | {"mode": mode})
        return report

    def setup(self) -> dict:
        fields = workloads.sweep_config(self.workload, self.sweep_seed, self.workers, "unused.csv")
        return self._finish(*self._start("setup", fields))

    def sweeps(self, *kinds: tuple[int, bool, int | None]) -> list[dict]:
        """Sweeps run at the same time, one per (workers, traced, pinned cpu or None).

        Each has a fresh output directory; its report carries the CSV bytes.
        """
        OUT.mkdir(exist_ok=True)
        dirs = [Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT)) for _ in kinds]
        started = []
        try:
            for (workers, traced, cpu), run_dir in zip(kinds, dirs):
                fields = workloads.sweep_config(self.workload, self.sweep_seed, workers, str(run_dir / "field.csv"))
                if traced:
                    started.append(self._start("traced", fields, str(OUT / f"trace-{self.workload}.npz"), cpu=cpu))
                else:
                    started.append(self._start("sweep", fields, cpu=cpu))
            reports = [self._finish(*s) for s in started]
            for report, run_dir in zip(reports, dirs):
                report["csv"] = (run_dir / "field.csv").read_bytes()
        finally:
            for _, proc, _ in started:
                _stop_group(proc)
            for run_dir in dirs:
                shutil.rmtree(run_dir)
        return reports

    def checked_sweeps(self, *kinds: tuple[int, bool, int | None]) -> list[dict]:
        """Sweeps whose fields are compared cell by cell with the committed reference."""
        reference = workloads.reference_path(ROOT, self.workload, self.sweep_seed).read_bytes()
        reports = self.sweeps(*kinds)
        for report in reports:
            report["cells"], report["mismatched"] = compare_fields(report["csv"], reference)
        return reports


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever the process left in its session and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _cells_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= workloads.ATOL + workloads.RTOL * abs(b)


def _parse_csv(data: bytes):
    lines = data.decode().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_fields(data: bytes, reference: bytes) -> tuple[int, int]:
    """(metric cells in the reference, cells of data outside tolerance of it)."""
    ref_header, ref_rows = _parse_csv(reference)
    header, rows = _parse_csv(data)
    n_metrics = len(ref_header) - 3  # two coordinates, the metrics, the error column
    cells = n_metrics * len(ref_rows)
    if header != ref_header or len(rows) != len(ref_rows):
        return cells, cells
    mismatched = 0
    for row, ref in zip(rows, ref_rows):
        if row[:2] != ref[:2] or len(row) != len(ref):
            mismatched += n_metrics
            continue
        mismatched += sum(
            not _cells_close(float(a), float(b)) for a, b in zip(row[2:-1], ref[2:-1])
        )
    return cells, mismatched


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def _code_identity() -> dict:
    """Git commit when the checkout has one, and a hash of the source files always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _numpy_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def _host_probe() -> float:
    """Seconds a fixed single-threaded numpy loop takes: the host's speed at this moment.

    The host may be shared; comparing this figure across runs shows whether
    runs that differ were taken while the host ran faster or slower.
    """
    import numpy

    a = numpy.full((4, 4), 0.5 + 0.5j)
    for _ in range(2_000):  # warm-up, not timed
        a @ a @ a.conj().T
    t0 = time.perf_counter()
    for _ in range(20_000):
        a @ a @ a.conj().T
    return time.perf_counter() - t0


def machine_workers() -> tuple[int, int, int]:
    """(usable cores, pool workers, BLAS threads per process): workers x threads <= cores."""
    n_cpus = len(os.sched_getaffinity(0))
    return n_cpus, n_cpus, 1


def measure_untraced(runner: Runner, seconds: float):
    setups: list[float] = []
    sweeps: list[dict] = []
    t_start = time.monotonic()
    while not sweeps or time.monotonic() - t_start < seconds:
        setups += [runner.setup()["setup_s"] for _ in range(SETUPS_PER_SWEEP)]
        sweeps += runner.checked_sweeps((runner.workers, False, None))
    setups += [s["setup_s"] for s in sweeps]
    attempted = sum(s["points"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    cells = sum(s["cells"] for s in sweeps)
    mismatched = sum(s["mismatched"] for s in sweeps)
    metrics = {
        "points_per_s": statistics.median(s["points"] / s["wall_s"] for s in sweeps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        "point_ok_frac": 1.0 - failed / attempted,
        "field_match_frac": 1.0 - mismatched / cells,
    }
    checks = {
        "no_failed_points": failed == 0,
        "fields_match_reference": mismatched == 0,
        "one_checkpoint_line_per_point": all(s["checkpoint_ok"] for s in sweeps),
    }
    return metrics, checks, attempted, failed


def measure_traced(runner: Runner):
    (parallel,) = runner.checked_sweeps((runner.workers, False, None))
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        # The untraced and traced serial sweeps run side by side, pinned to two
        # cores, then again with the cores swapped: the cores of a shared host
        # run at different speeds, and so does one core from minute to minute.
        a, b = cpus[:2]
        pairs = [runner.checked_sweeps((1, False, a), (1, True, b)),
                 runner.checked_sweeps((1, False, b), (1, True, a))]
    else:
        pairs = [runner.checked_sweeps((1, False, None)) + runner.checked_sweeps((1, True, None))]
    serials = [serial for serial, _ in pairs]
    traceds = [traced for _, traced in pairs]
    runs = [parallel, *serials, *traceds]
    metrics = {  # counts are equal in both traced sweeps; times are averaged
        k: v if isinstance(v, int) else statistics.fmean(t["layers"][k] for t in traceds)
        for k, v in traceds[0]["layers"].items()
    }
    metrics["sweep.checkpoint_bytes"] = traceds[0]["checkpoint_bytes"]
    metrics["sweep.parallel_efficiency"] = (
        statistics.fmean(s["wall_s"] for s in serials) / (runner.workers * parallel["wall_s"])
    )
    # With the cores swapped, the geometric mean of the two ratios cancels a
    # constant speed difference between the cores.
    metrics["trace.overhead_frac"] = statistics.geometric_mean(
        t["wall_s"] / s["wall_s"] for s, t in pairs
    ) - 1.0
    checks = {
        "no_failed_points": all(r["failed"] == 0 for r in runs),
        "fields_match_reference": all(r["mismatched"] == 0 for r in runs),
        "one_checkpoint_line_per_point": all(r["checkpoint_ok"] for r in runs),
        "serial_parallel_traced_fields_identical": len({r["csv"] for r in runs}) == 1,
    }
    if traceds[0]["absent"]:
        print(f"not traced (absent from qresp): {', '.join(traceds[0]['absent'])}", file=sys.stderr)
    return metrics, checks, sum(r["points"] for r in runs), sum(r["failed"] for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that every started process group is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "qresp" / "sweep.py").is_file():
        print(f"no qresp source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    n_cpus, workers, blas_threads = machine_workers()
    sweep_seed = workloads.REFERENCE_SEEDS[args.seed % len(workloads.REFERENCE_SEEDS)]
    load_start, probe_start = _loadavg(), _host_probe()
    runner = Runner(args.workload, sweep_seed, workers, blas_threads)
    # Not counted: fills the file cache, writes bytecode, records the config.
    config = runner.setup()["config"]
    if args.trace:
        measured, checks, attempted, failed = measure_traced(runner)
    else:
        measured, checks, attempted, failed = measure_untraced(runner, args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "sweep_seed": sweep_seed,
        "trace": args.trace,
        "nproc": n_cpus,
        "workers": workers,
        "blas_threads": blas_threads,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "host_probe_s": [probe_start, _host_probe()],
        "python": platform.python_version(),
        **_numpy_facts(),
        **_code_identity(),
        "sweep_config": config,
        "checks": checks,
        "processes": runner.log,
    }
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in measured
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
