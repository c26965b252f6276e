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

NARMA_ORDERS = {"narma2": 2, "narma10": 10}
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


def _is_number(value) -> bool:
    """A JSON number as `json` reads it back, NaN and Infinity included: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        try:
            object.__setattr__(self, "ipc_budget", tuple(tuple(pair) for pair in self.ipc_budget))
        except TypeError:  # a number, or a number among the pairs
            raise ValueError(f"ipc_budget must be a sequence of (degree, max_delay) pairs, "
                             f"got {self.ipc_budget!r}") from None
        # a float or bool in an integer field would fail at every grid point, a string or None in a float field
        # where a metric compares it (but pass into the checkpoint header where none does), a non-string path
        # when the field is written
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", int) and not qmat.is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type in ("float", float) and not _is_number(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
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
        orders = [order for name, order in NARMA_ORDERS.items() if name in self.metrics]
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


def _runs(cfg: SweepConfig) -> dict:
    """The table of a point's trajectory runs: for each run, its rows as (stream, length) pairs, its input
    range and its washout.  A NARMA run holds `narma_sequences` rows of its own stream; the capacity run holds
    the mc row, which mc and ipc read, then the rank row, each of its own stream."""
    runs = {name: ([(name, cfg.narma_len)] * cfg.narma_sequences, (0.0, 0.5),
                   benchmarks.SplitSpec().boundaries(cfg.narma_len)[0])
            for name in NARMA_ORDERS if name in cfg.metrics}
    capacity = [(stream, length) for stream, length, readers in (
        ("mc", cfg.mc_len, {"mc", "ipc"}), ("rank", cfg.rank_len + cfg.rank_washout, {"rank"}))
        if readers & set(cfg.metrics)]
    return {**runs, "capacity": (capacity, (-1.0, 1.0), 0)} if capacity else runs


def evaluate_chunk(cfg: SweepConfig, points) -> list[dict]:
    """Every requested metric at each of `points`, (index, coord) pairs of the grid.

    Each point draws from its own streams, a generator (`point_rng`) built only when a metric draws from
    it.  The indicator cells are `espmetrics.indicator_ensemble` of the chunk's models.  Each run of the
    `_runs` table steps the chunk's `stack` in one `run_reservoir` call, bit for bit each point's own run,
    and each point finishes its metrics on its own rows.  `drive` draws every row by one rule: one
    generator per stream, the rows in order, each `uniform(low, high, length)` and then the Haar state it
    drives from.  A row shorter than its run's longest is zero-padded, and its padded steps are read out and
    range-checked, then dropped; the mc rows are copied out, so that the capacity batch is freed before IPC.
    Each point's metrics are filled in one order, whatever order the config names them in: esp, ns_esp,
    ns_esp_damping, ns_esp_nondamping, narma2, narma10, mc, ipc, rank."""
    models = [_build_model(cfg, coord) for _, coord in points]
    values: list[dict] = [{} for _ in points]
    runs = _runs(cfg)
    stacked = models[0].stack(models) if runs else None

    def drive(rows, bounds, washout):
        """Every point's rows, drawn into one array, and one run of them."""
        inputs = np.zeros((len(points), len(rows), max(length for _, length in rows)))
        rho0 = np.empty(inputs.shape[:2] + (2 ** models[0].n_qubits,) * 2, dtype=complex)
        for (index, _), point_inputs, point_rho0 in zip(points, inputs, rho0):
            rngs = {stream: point_rng(cfg.seed, index, stream) for stream in dict(rows)}
            for (stream, length), row, rho in zip(rows, point_inputs, point_rho0):
                row[:length] = rngs[stream].uniform(*bounds, size=length)
                rho[:] = qmat.haar_random_pure_state(models[0].n_qubits, rngs[stream])
        return inputs, run_reservoir(stacked, inputs, rho0, washout=washout)

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
    for name, order in NARMA_ORDERS.items():
        if name in runs:
            inputs, trajs = drive(*runs[name])
            for point, targets, features in zip(values, benchmarks.narma_generate(inputs, order), trajs):
                fits = [benchmarks.train_linear_readout(x, y, split) for x, y in zip(features, targets)]
                point[name] = float(np.mean([benchmarks.rnmse(fit.test_target, fit.predictions) for fit in fits]))
    if "capacity" in runs:
        rows = dict(runs["capacity"][0])
        inputs, trajs = drive(*runs["capacity"])
        ranks = [{"rank": float(benchmarks.trajectory_rank(traj[-1, :rows["rank"]], cfg.rank_threshold,
                                                           cfg.rank_washout))} if "rank" in rows else {}
                 for traj in trajs]
        if "mc" in rows:  # the mc rows copied out, so that the batch is freed before IPC
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
    bytes a step on either path, measured) of each row of their largest run.  The runs charged are
    the indicator ensemble's and those of the `_runs` table, each as its rows at its longest row's
    length less its washout.  The budget pays each call's near-fixed cost over more rows: eleven
    points a task at the indicator defaults, thirty-six for 2 x 1,200-step NARMA runs, and one for
    the default 5 x 20,000-step runs, whose 6.6 MB exceed it.  It is 8 MiB because forked workers
    no longer import numpy.random each (see run_sweep): on the axis_narma2 benchmark that cut the
    largest worker's peak RSS from 41.0 to 36.4 MB, and the doubled tasks spend it.

    One point a task on the gamma-p grid: its maps stack bit for bit, but a row-step there holds a
    16 x 16 transfer map (2 KB, not the 576 bytes charged above), and tasks of two points measured
    no wall-time gain for 1.7 MB more peak RSS."""
    if cfg.experiment == "subset_gamma_p_grid":
        return 1
    runs = [(len(rows), max(length for _, length in rows) - washout) for rows, _, washout in _runs(cfg).values()]
    if INDICATOR_METRICS & set(cfg.metrics):
        runs.append((cfg.indicator_inputs * cfg.indicator_states, cfg.indicator_len))
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


def _load_checkpoint(path: str, header: dict, metrics: tuple, count: int) -> dict | None:
    """The checkpoint's points as {index: (values, error)}, or None when it holds no complete line.

    Text after the last newline is a record torn by a crash mid-write: it
    is cut from the file, so that appending resumes on a line boundary, and
    its point runs again.  Every complete line is checked, and the first
    that fails raises a ValueError naming the checkpoint and the line: one
    that is not JSON (a `json.JSONDecodeError` at its line and column in
    the file), a first line that is not a header object whose config
    equals `header`'s (naming the fields that differ instead), and a point
    record of the wrong shape.  A record holds an integer index inside the
    `count`-point grid, and either a null error and a number for each of
    `metrics`, no more, or an error string and no values.
    """
    if not os.path.exists(path):
        return None
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    text, results, offset = data[:end].decode("utf-8", "replace"), None, 0  # json writes ASCII
    for number, line in enumerate(text.split("\n"), 1):
        start, offset = offset, offset + len(line) + 1
        if not line.strip():
            continue
        where = f"checkpoint {path} line {number}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:  # placed in the file, not in its line
            raise json.JSONDecodeError(f"checkpoint {path}: {exc.msg}", text, start + exc.pos) from None
        if results is None:
            if not (isinstance(row, dict) and isinstance(row.get("config", {}), dict)):
                raise ValueError(f"{where}: the header is not an object with a config object")
            expected, found = header["config"], row.get("config", {})
            differ = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
            if differ:
                raise ValueError(f"checkpoint {path} was written with a different {', '.join(differ)}")
            results = {}
            continue
        if not (isinstance(row, dict) and qmat.is_int(row.get("index")) and isinstance(row.get("values"), dict)
                and isinstance(row.get("error"), (str, type(None)))):
            raise ValueError(f"{where}: a point record needs an integer index, "
                             "a values object and an error string or null")
        index, values, error = row["index"], row["values"], row.get("error")
        if not 0 <= index < count:
            raise ValueError(f"{where}: index {index} lies outside the {count}-point grid")
        if error is None and not (set(values) == set(metrics) and all(map(_is_number, values.values()))):
            raise ValueError(f"{where}: a point without an error needs a number for each of "
                             f"{', '.join(metrics)} and nothing else, got {json.dumps(values)}")
        if error is not None and values:
            raise ValueError(f"{where}: a point with an error holds no values")
        results[index] = (values, error)
    return results


def run_sweep(cfg: SweepConfig, resume: bool = True) -> FieldResult:
    """Evaluate every grid point, resuming from the checkpoint unless `resume` is false.

    The checkpoint's first line holds the config; resuming a checkpoint
    written with another config raises, naming the fields that differ, and
    so does a checkpoint line that `_load_checkpoint` refuses, before any
    point runs.

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
    results = _load_checkpoint(ckpt, header, cfg.metrics, len(coords)) if resume else None
    if results is None:
        with open(ckpt, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
        results = {}

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
