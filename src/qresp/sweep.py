"""Parameter-field sweeps and the command-line entry point.

Two grid experiments are provided:

* ``ns_esp_axis_grid`` -- sweep the Bloch-sphere input-rotation axis of the
  SK-Hamiltonian reset-encoding reservoir on an azimuth x polar grid.
* ``subset_gamma_p_grid`` -- sweep the (damping rate, CNOT exponent) plane
  of the two-qubit damping/entangling reservoir.

Each grid point draws from a seed derived from (master seed, point index),
and the pool runs chunks of consecutive axis-grid points, sized by the config
alone, each point bit for bit as alone: results are deterministic for a given
config regardless of worker count, and adding points never reshuffles
existing ones.  Completed points are appended to a JSONL checkpoint next to
the output file, after a first line holding the config; re-running the same
config resumes from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import benchmarks, espmetrics, qmat
from .reservoir import (
    AxisConfig,
    NsModelConfig,
    NsReservoir,
    SkHamiltonianConfig,
    SubsetModelConfig,
    SubsetReservoir,
    TRANSFER_BLOCK,
    run_reservoir,
)

EXPERIMENTS = ("ns_esp_axis_grid", "subset_gamma_p_grid")

METRICS = (
    "esp",
    "ns_esp",
    "narma2",
    "narma10",
    "mc",
    "ipc",
    "rank",
    "ns_esp_damping",
    "ns_esp_nondamping",
)

NS_METRICS = {"ns_esp", "ns_esp_damping", "ns_esp_nondamping"}
INDICATOR_METRICS = {"esp"} | NS_METRICS
# per axis-grid task (see chunk_size): every task pays a near-fixed cost per batched rho step, NARMA
# recurrence step and block encode/readout, whatever its row count (an axis_narma2 sweep's CPU read 575,
# 356, 281 and 261 ms at 9, 18, 36 and 72 points a task, in process, BLAS at 1 thread), so tasks carry
# eleven points of the default indicator ensemble, thirty-six of 2 x 1,200-step NARMA runs; the
# memory is what workers save by inheriting numpy.random from the parent (see run_sweep)
CHUNK_BYTES = 8 << 20

HAMILTONIAN_PRESETS = {
    "H1": {"j_scale": 1.0, "field_width": 0.312, "global_field": 0.013},
    "H2": {"j_scale": 1.0, "field_width": 1.05, "global_field": 0.013},
    "H3": {"j_scale": 1.0, "field_width": 24.8, "global_field": 0.377},
    "H4": {"j_scale": 1.0, "field_width": 47.5, "global_field": 57.2},
    "H5": {"j_scale": 1.0, "field_width": 0.0305, "global_field": 48.3},
}

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_PARTIAL_FAILURE = 2


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: experiment grid, metric set and per-metric sequence lengths.

    `rank_threshold` is the relative singular-value cut of
    `benchmarks.trajectory_rank`. Being far above round-off, it counts
    weakly excited directions as absent: at 1e-6, 4 of the 20 generic axes
    of acceptance criterion 4 read rank 7 or 11, although their exact rank
    is 12.
    """

    experiment: str = "ns_esp_axis_grid"
    metrics: tuple[str, ...] = ("esp", "ns_esp")
    preset: str = "H1"
    azimuth_count: int = 60
    polar_count: int = 30
    gamma_count: int = 21
    p_count: int = 21
    seed: int = 0
    workers: int = 1
    out_path: str = "field.csv"
    # desk-scale sequence lengths
    indicator_len: int = 200
    indicator_window: int = 10
    indicator_inputs: int = 4
    indicator_states: int = 3
    narma_len: int = 20_000
    narma_sequences: int = 5
    mc_len: int = 100_000
    mc_washout: int = 30_000
    mc_max_delay: int = 50
    rank_len: int = 10_000
    rank_washout: int = 3_000
    rank_threshold: float = 1e-6
    ipc_budget: tuple[tuple[int, int], ...] = ((1, 50), (2, 20), (3, 10))
    ipc_surrogates: int = 20

    def __post_init__(self):
        if isinstance(self.metrics, str):  # tuple() would split it into letters
            raise ValueError(f"metrics must be a sequence of names, got the string {self.metrics!r}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "ipc_budget", tuple(tuple(pair) for pair in self.ipc_budget))
        # a float or bool in an integer field would fail at every grid point, a non-string path when the field is written
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int) and not qmat.is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type in ("str", str) and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, got {value!r}")
        if not self.out_path:
            raise ValueError("out_path must be nonempty")
        # for every metric set, as the integer fields: the one check of the IPC budget and surrogate count
        benchmarks.IpcConfig(budget=self.ipc_budget, surrogate_count=self.ipc_surrogates)
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.metrics:
            raise ValueError("metric set must be nonempty")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}")
        if len(set(self.metrics)) != len(self.metrics):  # the field would repeat a column
            raise ValueError(f"metrics repeat a name: {list(self.metrics)}")
        if self.preset not in HAMILTONIAN_PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if min(self.azimuth_count, self.polar_count, self.gamma_count, self.p_count) < 2:
            raise ValueError("grid resolutions must be at least 2")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        # refuse up front what would fail at every grid point
        if INDICATOR_METRICS & set(self.metrics):
            if self.indicator_inputs < 1:
                raise ValueError(f"indicator_inputs {self.indicator_inputs} must be at least 1")
            if self.indicator_states < 2:
                raise ValueError("indicator_states must be at least 2 (the indicators compare state pairs)")
            if not 1 <= self.indicator_window <= self.indicator_len:
                raise ValueError(f"indicator_window {self.indicator_window} must lie between 1 "
                                 f"and indicator_len {self.indicator_len}")
            if self.indicator_window == 1 and NS_METRICS & set(self.metrics):
                raise ValueError("indicator_window 1 has zero variance in every window, "
                                 "so the NS indicators read inf; use at least 2")
        orders = [order for order in (2, 10) if f"narma{order}" in self.metrics]
        if orders:
            if self.narma_sequences < 1:
                raise ValueError(f"narma_sequences {self.narma_sequences} must be at least 1")
            if self.narma_len <= max(orders):
                raise ValueError(f"narma_len {self.narma_len} must exceed the NARMA order {max(orders)}")
            _, test_start = benchmarks.SplitSpec().boundaries(self.narma_len)
            if self.narma_len - test_start < 2:  # the RNMSE of one test row is undefined
                raise ValueError(f"narma_len {self.narma_len} leaves one test row; RNMSE needs two")
        if "rank" in self.metrics:
            if self.rank_len < 1:
                raise ValueError(f"rank_len {self.rank_len} must be at least 1")
            if self.rank_washout < 0:
                raise ValueError(f"rank_washout {self.rank_washout} must be nonnegative")
            if not 0.0 <= self.rank_threshold < 1.0:
                raise ValueError(f"rank_threshold {self.rank_threshold} outside [0, 1)")
        if {"mc", "ipc"} & set(self.metrics) and self.mc_len <= self.mc_washout:
            raise ValueError(f"mc_len {self.mc_len} must exceed mc_washout {self.mc_washout}")
        if "mc" in self.metrics and self.mc_max_delay < 1:
            raise ValueError(f"mc_max_delay {self.mc_max_delay} must be at least 1")
        if "mc" in self.metrics and self.mc_washout < self.mc_max_delay:
            raise ValueError(f"mc_washout {self.mc_washout} must cover the largest delay, "
                             f"mc_max_delay {self.mc_max_delay}")
        if "ipc" in self.metrics:
            max_delay = max(m for _, m in self.ipc_budget)
            if self.mc_washout < max_delay:
                raise ValueError(f"mc_washout {self.mc_washout} must cover the largest delay "
                                 f"in ipc_budget, {max_delay}")


@dataclass
class FieldResult:
    coord_names: tuple[str, str]
    coords: list  # (u, v) per point, grid order
    metrics: tuple[str, ...]
    values: list  # dict per point
    errors: list  # error string or None per point
    config: dict


def flatten_sphere(azimuth_count: int, polar_count: int) -> list[tuple[float, float]]:
    """Row-major (azimuth, polar) grid: polar 0 (north) to pi (south) inclusive,
    azimuth 0 to 2pi exclusive."""
    if azimuth_count < 2 or polar_count < 2:
        raise ValueError("grid resolutions must be at least 2")
    polars = np.linspace(0.0, np.pi, polar_count)
    azimuths = np.linspace(0.0, 2 * np.pi, azimuth_count, endpoint=False)
    return [(float(u), float(v)) for v in polars for u in azimuths]


def gamma_p_grid(gamma_count: int, p_count: int) -> list[tuple[float, float]]:
    """Row-major (p, gamma) grid over [0, 1]^2, gamma varying across rows."""
    if gamma_count < 2 or p_count < 2:
        raise ValueError("grid resolutions must be at least 2")
    gammas = np.linspace(0.0, 1.0, gamma_count)
    ps = np.linspace(0.0, 1.0, p_count)
    return [(float(p), float(g)) for g in gammas for p in ps]


def grid_coordinates(cfg: SweepConfig) -> list[tuple[float, float]]:
    if cfg.experiment == "subset_gamma_p_grid":
        return gamma_p_grid(cfg.gamma_count, cfg.p_count)
    return flatten_sphere(cfg.azimuth_count, cfg.polar_count)


def point_seed_sequence(master_seed: int, index: int) -> np.random.SeedSequence:
    """Stable per-point randomness root; independent of grid resolution changes."""
    return np.random.SeedSequence(entropy=(master_seed, index))


def point_rng(master_seed: int, index: int, stream: str) -> np.random.Generator:
    """Point `index`'s generator of the named stream: child METRICS.index(stream) of its
    `point_seed_sequence`, built alone, without spawning the other children.  Appending to
    METRICS moves no existing stream."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(master_seed, index), spawn_key=(METRICS.index(stream),)))


def _build_model(cfg: SweepConfig, coord: tuple[float, float]):
    if cfg.experiment == "subset_gamma_p_grid":
        p, gamma = coord
        return SubsetReservoir(
            SubsetModelConfig(
                damping_rate=gamma,
                cnot_exponent=p,
                u0_seed=cfg.seed * 2 + 1,
                u1_seed=cfg.seed * 2 + 2,
            )
        )
    azimuth, polar = coord
    ham = SkHamiltonianConfig(seed=cfg.seed, **HAMILTONIAN_PRESETS[cfg.preset])
    return NsReservoir(NsModelConfig(hamiltonian=ham, axis=AxisConfig(azimuth=azimuth, polar=polar)))


def _drawn(model, rng: np.random.Generator, length: int, low: float, high: float):
    """Uniform[low, high] inputs, then the Haar-random state they drive from."""
    u = rng.uniform(low, high, size=length)
    return u, qmat.haar_random_pure_state(model.n_qubits, rng)


def _capacity_runs(cfg: SweepConfig) -> dict:
    """The stream and length of each row of a point's capacity batch: the mc run, which mc and ipc read, then
    the rank run."""
    runs = {}
    if {"mc", "ipc"} & set(cfg.metrics):
        runs["mc"] = cfg.mc_len
    if "rank" in cfg.metrics:
        runs["rank"] = cfg.rank_len + cfg.rank_washout
    return runs


def evaluate_chunk(cfg: SweepConfig, points) -> list[dict]:
    """Every requested metric at each of `points`, (index, coord) pairs of the grid.

    Each point draws from its own streams, a generator (`point_rng`) built only when a metric draws from
    it.  Each kind of run drives the rows of all points in one `run_reservoir` call of a `stack`, bit for
    bit each point's own run, and each point finishes its metrics on its own rows.  The indicator cells are
    `espmetrics.indicator_ensemble` of the chunk's models; the NARMA and capacity runs step the models.

    A point's capacity run (`_capacity_runs`) holds its mc run, which mc and ipc read, and its
    rank run as two rows of one batch, each drawn from its own stream.  The shorter row is
    zero-padded to the longer, and its padded steps are read out and range-checked, then dropped;
    the mc rows are copied out, so that the batch is freed before IPC.  Each point's metrics are
    filled in one order, whatever order the config names them in: esp, ns_esp, ns_esp_damping,
    ns_esp_nondamping, narma2, narma10, mc, ipc, rank."""
    models = [_build_model(cfg, coord) for _, coord in points]
    values: list[dict] = [{} for _ in points]

    def drive(streams, draw, washout=0):
        """Each point's draw(model, *rngs), one generator of each named stream, stacked, and one run of them."""
        inputs, rho0 = map(np.stack, zip(*(draw(model, *(point_rng(cfg.seed, index, s) for s in streams))
                                           for (index, _), model in zip(points, models))))
        return inputs, rho0, run_reservoir(models[0].stack(models), inputs, rho0, washout=washout)

    ensemble = (cfg.indicator_inputs, cfg.indicator_states, cfg.indicator_len, cfg.indicator_window)
    for stream, selector in (("esp", None), ("ns_esp_damping", espmetrics.damping_subsystem_selection),
                             ("ns_esp_nondamping", espmetrics.non_damping_subsystem_selection)):
        names = [name for name in (("esp", "ns_esp") if stream == "esp" else (stream,)) if name in cfg.metrics]
        if names:
            columns = selector and selector(qmat.all_pauli_strings(models[0].n_qubits))
            traces = espmetrics.indicator_ensemble(
                models, *ensemble, [point_rng(cfg.seed, index, stream) for index, _ in points], columns)
            for point, trace in zip(values, traces):
                point.update((name, trace.final_esp if name == "esp" else trace.final_ns) for name in names)
    # raw NARMA inputs u in [0, 0.5]: criterion 5's 4u - 1 moves every narma cell and waits for new references;
    # the run keeps the rows the fit reads, from the washout's end on
    split = benchmarks.SplitSpec()
    for name, order in (("narma2", 2), ("narma10", 10)):
        if name in cfg.metrics:
            inputs, _, trajs = drive([name], lambda m, rng: map(np.stack, zip(
                *[_drawn(m, rng, cfg.narma_len, 0.0, 0.5) for _ in range(cfg.narma_sequences)])),
                washout=split.boundaries(cfg.narma_len)[0])
            for point, targets, features in zip(values, benchmarks.narma_generate(inputs, order), trajs):
                fits = [benchmarks.train_linear_readout(x, y, split) for x, y in zip(features, targets)]
                point[name] = float(np.mean([benchmarks.rnmse(fit.test_target, fit.predictions) for fit in fits]))
    runs = _capacity_runs(cfg)
    if runs:
        steps = max(runs.values())

        def padded(model, *rngs):
            inputs, rho0 = np.zeros((len(runs), steps)), []
            for row, length, rng in zip(inputs, runs.values(), rngs):
                u, rho = _drawn(model, rng, length, -1.0, 1.0)
                row[:length] = u
                rho0.append(rho)
            return inputs, np.stack(rho0)

        inputs, _, trajs = drive(runs, padded)
        ranks = [{"rank": float(benchmarks.trajectory_rank(traj[-1, :runs["rank"]], cfg.rank_threshold,
                                                           cfg.rank_washout))} if "rank" in runs else {}
                 for traj in trajs]
        if "mc" in runs:  # the mc rows copied out, so that the batch is freed before IPC
            inputs, trajs = inputs[:, 0, :cfg.mc_len].copy(), trajs[:, 0, :cfg.mc_len].copy()
        ipc_cfg = benchmarks.IpcConfig(budget=cfg.ipc_budget, surrogate_count=cfg.ipc_surrogates)
        for (index, _), point, u, traj, rank in zip(points, values, inputs, trajs, ranks):
            if "mc" in cfg.metrics:
                point["mc"] = benchmarks.mc_report(u, traj, cfg.mc_max_delay, cfg.mc_washout).total
            if "ipc" in cfg.metrics:
                point["ipc"] = benchmarks.ipc_report(u, traj, ipc_cfg, cfg.mc_washout,
                                                     point_rng(cfg.seed, index, "ipc")).total
            point.update(rank)
    return values


def evaluate_point(cfg: SweepConfig, index: int, coord: tuple[float, float]) -> dict:
    """Compute every requested metric at one grid point."""
    return evaluate_chunk(cfg, [(index, coord)])[0]


def chunk_size(cfg: SweepConfig) -> int:
    """Grid points per pool task, fixed by the config alone, never by the worker count: on the
    axis grid, as many as fit CHUNK_BYTES with the kept readout rows (4**n floats, 128 bytes, a
    step) and the 64-step block buffers (state, inputs, readout and their temporaries, about 576
    bytes a step on either path, measured) of each row of their largest run.  A NARMA run keeps
    its rows from the washout's end on, and a capacity run is charged as its rows, mc and rank, at
    the longer of their lengths.  The budget pays each call's near-fixed cost over more rows: eleven
    points a task at the indicator defaults, thirty-six for 2 x 1,200-step NARMA runs, and one for
    the default 5 x 20,000-step runs, whose 6.6 MB exceed it.  It is 8 MiB because forked workers
    no longer import numpy.random each (see run_sweep): on the axis_narma2 benchmark that cut the
    largest worker's peak RSS from 41.0 to 36.4 MB, and the doubled tasks spend it.

    One point a task on the gamma-p grid: its maps stack bit for bit, but a row-step there holds a
    16 x 16 transfer map (2 KB, not the 576 bytes charged above), and tasks of two points measured
    no wall-time gain for 1.7 MB more peak RSS."""
    if cfg.experiment == "subset_gamma_p_grid":
        return 1
    metrics, runs = set(cfg.metrics), []  # (rows, kept steps) of each run
    if INDICATOR_METRICS & metrics:
        runs.append((cfg.indicator_inputs * cfg.indicator_states, cfg.indicator_len))
    if {"narma2", "narma10"} & metrics:
        runs.append((cfg.narma_sequences, cfg.narma_len - benchmarks.SplitSpec().boundaries(cfg.narma_len)[0]))
    capacity = _capacity_runs(cfg)
    if capacity:
        runs.append((len(capacity), max(capacity.values())))
    largest = max(rows * (128 * steps + 576 * TRANSFER_BLOCK) for rows, steps in runs)
    return max(1, CHUNK_BYTES // largest)


def _chunk_task(args):
    """The points of a chunk, evaluated together, or one at a time when that fails: each records its own error."""
    cfg, points = args
    try:
        done = evaluate_chunk(cfg, points) if len(points) > 1 else [evaluate_point(cfg, *points[0])]
        return [(index, values, None) for (index, _), values in zip(points, done)]
    except Exception as exc:  # recorded in-field, the sweep continues
        if len(points) > 1:
            return [row for point in points for row in _chunk_task((cfg, [point]))]
        return [(points[0][0], {}, f"{type(exc).__name__}: {exc}")]


def checkpoint_path(out_path: str) -> str:
    return out_path + ".checkpoint.jsonl"


def _load_checkpoint(path: str) -> list:
    """The decoded checkpoint lines, or [] when there is no checkpoint.

    Text after the last newline is a record torn by a crash mid-write: it
    is cut from the file, so that appending resumes on a line boundary, and
    its point runs again.  A complete line that does not decode raises, and
    so does a header or point record of the wrong shape, naming the line.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    lines = [(number, json.loads(line)) for number, line in enumerate(data[:end].splitlines(), 1) if line.strip()]
    for position, (number, row) in enumerate(lines):
        if position == 0 and not (isinstance(row, dict) and isinstance(row.get("config", {}), dict)):
            raise ValueError(f"checkpoint {path} line {number}: the header is not an object with a config object")
        if position > 0 and not (isinstance(row, dict) and qmat.is_int(row.get("index"))
                                 and isinstance(row.get("values"), dict)
                                 and isinstance(row.get("error"), (str, type(None)))):
            raise ValueError(f"checkpoint {path} line {number}: a point record needs an integer index, "
                             "a values object and an error string or null")
    return [row for _, row in lines]


def run_sweep(cfg: SweepConfig, resume: bool = True) -> FieldResult:
    """Evaluate every grid point, resuming from the checkpoint unless `resume` is false.

    The checkpoint's first line holds the config; resuming a checkpoint
    written with another config raises, naming the fields that differ.

    A pool forks after numpy.random is loaded, so its workers inherit its pages (OpenSSL among
    them) instead of each importing it; importing qresp itself still leaves it unloaded.  This
    relies on the fork start method, Linux's default through Python 3.13: under spawn or
    forkserver each worker loads it again, with the same fields but without the memory saving.
    """
    coords = grid_coordinates(cfg)
    ckpt = checkpoint_path(cfg.out_path)
    fields = asdict(cfg)
    del fields["workers"], fields["out_path"]  # the points do not depend on these
    header = json.loads(json.dumps({"config": fields}))  # as it reads back
    rows = _load_checkpoint(ckpt) if resume else []
    if rows:
        expected, found = header["config"], rows[0].get("config", {})
        differ = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
        if differ:
            raise ValueError(f"checkpoint {ckpt} was written with a different {', '.join(differ)}")
    else:
        with open(ckpt, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
    results = {row["index"]: (row["values"], row.get("error")) for row in rows[1:]}

    pending = [(i, coords[i]) for i in range(len(coords)) if i not in results]
    size = chunk_size(cfg)
    tasks = [(cfg, pending[start : start + size]) for start in range(0, len(pending), size)]
    if tasks:
        import numpy.random  # noqa: F401  (every point draws from it: loaded before the fork, workers inherit it)
        # a forking pool starts all its workers at the first submit: no more than there are tasks
        pool = None if cfg.workers == 1 else ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks)))
        try:
            with open(ckpt, "a", encoding="utf-8") as fh:
                for chunk in map(_chunk_task, tasks) if pool is None else pool.map(_chunk_task, tasks):
                    for index, values, error in chunk:
                        results[index] = (values, error)
                        fh.write(json.dumps({"index": index, "values": values, "error": error}) + "\n")
                        fh.flush()
        finally:
            if pool is not None:  # joins the workers; after an error, queued points do not run
                pool.shutdown(cancel_futures=True)

    coord_names = ("p", "gamma") if cfg.experiment == "subset_gamma_p_grid" else ("azimuth", "polar")
    ordered = [results[i] for i in range(len(coords))]
    return FieldResult(
        coord_names=coord_names,
        coords=coords,
        metrics=cfg.metrics,
        values=[v for v, _ in ordered],
        errors=[e for _, e in ordered],
        config=asdict(cfg),
    )


# ---------------------------------------------------------------------------
# emission

def _fmt(x: float) -> str:
    return f"{x:.17g}"  # "nan", "inf" and "-inf" for the non-finite values


def emit_field(result: FieldResult, path: str, fmt: str = "csv") -> None:
    """Write the field as CSV (one row per grid point) or JSON with metadata.

    A CSV error cell has its commas written as semicolons and its line
    breaks as spaces, so each row keeps the header's columns.  JSON stays
    standard: non-finite values are written as the strings "inf", "-inf"
    and "nan", the CSV spellings.
    """
    if not result.values or not result.metrics:
        raise ValueError("refusing to write an empty field")
    if fmt == "csv":
        lines = [",".join(result.coord_names + result.metrics + ("error",))]
        for (u, v), values, error in zip(result.coords, result.values, result.errors):
            cells = [_fmt(u), _fmt(v)]
            cells += [_fmt(values[m]) if m in values else "nan" for m in result.metrics]
            cells.append(" ".join((error or "").replace(",", ";").splitlines()))  # one cell, one line
            lines.append(",".join(cells))
        body = "\n".join(lines) + "\n"
    elif fmt == "json":
        points = [
            {
                result.coord_names[0]: u,
                result.coord_names[1]: v,
                "metrics": {m: x if np.isfinite(x) else _fmt(x) for m, x in values.items()},
                "error": error,
            }
            for (u, v), values, error in zip(result.coords, result.values, result.errors)
        ]
        body = json.dumps({"config": result.config, "points": points}, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
    except OSError as exc:
        raise OSError(f"cannot write field to {path}: {exc}") from exc


def parse_field_csv(path: str):
    """Read back an emitted CSV as (header, rows of floats, error column)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows, errors = [], []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append([float(c) for c in cells[:-1]])
        errors.append(cells[-1] or None)
    return header, rows, errors


# ---------------------------------------------------------------------------
# CLI

def main(argv=None) -> int:
    """`qresp-sweep`: a flag given, but --config and --format, is stored as the `SweepConfig` field it sets and
    overrides that field of the --config JSON; one `SweepConfig` checks the merged fields.  A refused flag or
    config, or a checkpoint or output path that cannot be used, returns EXIT_CONFIG_ERROR."""
    parser = argparse.ArgumentParser(
        prog="qresp-sweep",
        description="Grid sweeps of quantum-reservoir ESP indicators and benchmarks.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="JSON config file with SweepConfig fields")
    parser.add_argument("--experiment", help=f"one of {', '.join(EXPERIMENTS)}")
    parser.add_argument("--metrics", type=lambda names: names.split(","), help="comma-separated metric names")
    parser.add_argument("--out", dest="out_path", help="output file path")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    try:
        flags = vars(parser.parse_args(argv))
    except SystemExit as exc:  # argparse has printed the help (code 0) or why it refused a flag
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK
    fmt = flags.pop("format")

    try:
        json_fields = {}
        if "config" in flags:
            with open(flags.pop("config"), encoding="utf-8") as fh:
                json_fields = json.load(fh)
        cfg = SweepConfig(**{**json_fields, **flags})
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:  # a checkpoint of another config or a malformed one, or an output path that cannot be written
        result = run_sweep(cfg)
        emit_field(result, cfg.out_path, fmt=fmt)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    failures = sum(1 for e in result.errors if e)
    if failures:
        print(f"{failures} of {len(result.errors)} grid points failed", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
