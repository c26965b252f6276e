import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qresp import benchmarks, espmetrics, qmat, sweep
from qresp.reservoir import run_reservoir


def small_config(tmp_path, **overrides):
    base = dict(
        experiment="ns_esp_axis_grid",
        metrics=("esp", "ns_esp"),
        azimuth_count=3,
        polar_count=2,
        indicator_len=60,
        indicator_window=10,
        indicator_inputs=2,
        indicator_states=2,
        out_path=str(tmp_path / "field.csv"),
    )
    base.update(overrides)
    return sweep.SweepConfig(**base)


def test_grid_coordinates_shapes():
    coords = sweep.flatten_sphere(4, 3)
    assert len(coords) == 12
    polars = sorted({c[1] for c in coords})
    assert polars[0] == 0.0 and abs(polars[-1] - np.pi) < 1e-12
    azims = sorted({c[0] for c in coords})
    assert 2 * np.pi not in azims  # endpoint excluded


def test_gamma_p_grid_covers_unit_square():
    coords = sweep.gamma_p_grid(3, 5)
    assert len(coords) == 15
    ps = {c[0] for c in coords}
    gs = {c[1] for c in coords}
    assert min(gs) == 0.0 and max(gs) == 1.0
    assert min(ps) == 0.0 and max(ps) == 1.0


def test_point_seed_sequence_stable_and_distinct():
    a = sweep.point_seed_sequence(3, 7).generate_state(4)
    b = sweep.point_seed_sequence(3, 7).generate_state(4)
    c = sweep.point_seed_sequence(3, 8).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed, index", [(0, 0), (3, 7), (9, 71)])
def test_point_rng_is_the_streams_spawned_child(seed, index):
    # each stream's generator is child k of the point's seed sequence, as when all children were spawned
    children = sweep.point_seed_sequence(seed, index).spawn(len(sweep.METRICS))
    for k, stream in enumerate(sweep.METRICS):
        expected = np.random.default_rng(children[k]).random(8)
        assert np.array_equal(sweep.point_rng(seed, index, stream).random(8), expected), stream


def test_config_validation():
    with pytest.raises(ValueError):
        sweep.SweepConfig(experiment="unknown")
    with pytest.raises(ValueError):
        sweep.SweepConfig(experiment="classical_reference")  # removed: it ran the axis grid
    with pytest.raises(ValueError):
        sweep.SweepConfig(metrics=())
    with pytest.raises(ValueError):
        sweep.SweepConfig(metrics=("esp", "bogus"))
    with pytest.raises(ValueError, match="metrics repeat a name"):  # would write two esp columns
        sweep.SweepConfig(metrics=("esp", "ns_esp", "esp"))
    with pytest.raises(ValueError, match="metrics must be a sequence of names"):  # not the letters e, s, p
        sweep.SweepConfig(metrics="esp")
    with pytest.raises(ValueError):
        sweep.SweepConfig(preset="H9")
    with pytest.raises(ValueError):
        sweep.SweepConfig(workers=0)
    # a path or name that is not a string would fail only once the sweep is done
    for name, value in (("out_path", 5), ("experiment", None), ("preset", 1)):
        with pytest.raises(ValueError, match=f"{name} must be a string"):
            sweep.SweepConfig(**{name: value})
    with pytest.raises(ValueError, match="out_path must be nonempty"):
        sweep.SweepConfig(out_path="")
    # a negative seed or a non-integer count would fail at every grid point
    with pytest.raises(ValueError, match="seed -1 must be nonnegative"):
        sweep.SweepConfig(seed=-1)
    for name, value in (("seed", 1.0), ("indicator_len", 20.0), ("mc_max_delay", 5.5), ("workers", True),
                        ("azimuth_count", np.int64(4))):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sweep.SweepConfig(**{name: value})
    # the IPC budget and surrogate count are IpcConfig's one check, for every metric set
    for budget in (((1.0, 5),), ((1, 5.0),)):
        with pytest.raises(ValueError, match="budget degrees and delays must be integers"):
            sweep.SweepConfig(metrics=("esp",), ipc_budget=budget)
    for budget in (((1,),), ((1, 5, 2),)):
        with pytest.raises(ValueError, match=r"budget entries must be \(degree, max_delay\) pairs"):
            sweep.SweepConfig(metrics=("esp",), ipc_budget=budget)
    with pytest.raises(ValueError, match="surrogate_count must be nonnegative"):
        sweep.SweepConfig(metrics=("esp",), ipc_surrogates=-3)
    for name in ("azimuth_count", "polar_count", "gamma_count", "p_count"):
        with pytest.raises(ValueError, match="grid resolutions must be at least 2"):
            sweep.SweepConfig(**{name: 1})
    for grid in (sweep.flatten_sphere, sweep.gamma_p_grid):
        for counts in ((1, 3), (3, 1)):
            with pytest.raises(ValueError, match="grid resolutions must be at least 2"):
                grid(*counts)
    # configs that would fail at every grid point, refused only where a metric reads the field
    with pytest.raises(ValueError, match="mc_washout 20 .* mc_max_delay 50"):
        sweep.SweepConfig(metrics=("mc",), mc_washout=20, mc_max_delay=50)
    sweep.SweepConfig(metrics=("esp",), mc_washout=20, mc_max_delay=50)
    for delay in (0, -3):  # mc_report refuses a largest delay below 1 at every point
        with pytest.raises(ValueError, match=f"mc_max_delay {delay} must be at least 1"):
            sweep.SweepConfig(metrics=("mc",), mc_len=300, mc_washout=100, mc_max_delay=delay)
    sweep.SweepConfig(metrics=("ipc",), mc_len=300, mc_washout=100, mc_max_delay=0)
    for metric in ("esp", "ns_esp", "ns_esp_damping", "ns_esp_nondamping"):
        with pytest.raises(ValueError, match="indicator_states"):
            sweep.SweepConfig(metrics=(metric,), indicator_states=1)
        with pytest.raises(ValueError, match="indicator_window 300 .* indicator_len 200"):
            sweep.SweepConfig(metrics=(metric,), indicator_window=300, indicator_len=200)
        with pytest.raises(ValueError, match="indicator_window 0"):  # read nan ns_esp at every point
            sweep.SweepConfig(metrics=(metric,), indicator_window=0)
    sweep.SweepConfig(metrics=("mc",), indicator_states=1, indicator_window=300)
    for metric in ("esp", "ns_esp", "ns_esp_damping", "ns_esp_nondamping"):
        with pytest.raises(ValueError, match="indicator_inputs 0"):  # an empty batch fails every point
            sweep.SweepConfig(metrics=(metric,), indicator_inputs=0)
    for metric in ("ns_esp", "ns_esp_damping", "ns_esp_nondamping"):
        with pytest.raises(ValueError, match="indicator_window 1"):  # reads inf ns_esp at every point
            sweep.SweepConfig(metrics=(metric,), indicator_window=1)
    sweep.SweepConfig(metrics=("esp",), indicator_window=1)  # esp reads no windowed variance
    sweep.SweepConfig(metrics=("mc",), indicator_inputs=0)
    for metric in ("narma2", "narma10"):
        with pytest.raises(ValueError, match="narma_sequences 0"):
            sweep.SweepConfig(metrics=(metric,), narma_sequences=0)
    sweep.SweepConfig(metrics=("esp",), narma_sequences=0)
    with pytest.raises(ValueError, match="rank_len 0"):
        sweep.SweepConfig(metrics=("rank",), rank_len=0)
    for threshold in (-1.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="rank_threshold .* outside"):
            sweep.SweepConfig(metrics=("rank",), rank_threshold=threshold)
    sweep.SweepConfig(metrics=("rank",), rank_threshold=0.0)
    sweep.SweepConfig(metrics=("esp",), rank_len=0, rank_threshold=1.0)
    with pytest.raises(ValueError, match="mc_washout 40 .* ipc_budget, 50"):
        sweep.SweepConfig(metrics=("ipc",), mc_washout=40, ipc_budget=((1, 50), (2, 20)))
    for budget in ((), ((0, 5),), ((1, -1),)):
        with pytest.raises(ValueError, match="budget|degrees"):
            sweep.SweepConfig(metrics=("ipc",), ipc_budget=budget)
    with pytest.raises(ValueError, match="surrogate_count"):
        sweep.SweepConfig(metrics=("ipc",), ipc_surrogates=-1)
    for fields in (dict(ipc_budget=()), dict(ipc_surrogates=-1)):  # refused whatever the metrics
        with pytest.raises(ValueError, match="budget|surrogate_count"):
            sweep.SweepConfig(metrics=("mc",), mc_washout=40, mc_max_delay=10, **fields)
    # sequence lengths that leave a metric no data at any point
    for metric in ("mc", "ipc"):
        with pytest.raises(ValueError, match="mc_len 100 must exceed mc_washout 200"):
            sweep.SweepConfig(metrics=(metric,), mc_len=100, mc_washout=200)
    sweep.SweepConfig(metrics=("rank",), mc_len=100, mc_washout=200)
    with pytest.raises(ValueError, match="narma_len 2 must exceed the NARMA order 2"):
        sweep.SweepConfig(metrics=("narma2",), narma_len=2)
    with pytest.raises(ValueError, match="narma_len 10 must exceed the NARMA order 10"):
        sweep.SweepConfig(metrics=("narma2", "narma10"), narma_len=10)
    with pytest.raises(ValueError, match="narma_len 10 leaves one test row"):  # its RNMSE divides by 0
        sweep.SweepConfig(metrics=("narma2",), narma_len=10)
    sweep.SweepConfig(metrics=("narma2",), narma_len=11)
    sweep.SweepConfig(metrics=("esp",), narma_len=2)
    with pytest.raises(ValueError, match="rank_washout -48 must be nonnegative"):
        sweep.SweepConfig(metrics=("rank",), rank_len=50, rank_washout=-48)
    sweep.SweepConfig(metrics=("esp",), rank_washout=-48)


def test_config_takes_json_lists_as_tuples():
    listed = sweep.SweepConfig(metrics=["mc", "ipc"], ipc_budget=[[1, 5], [2, 3]])
    tupled = sweep.SweepConfig(metrics=("mc", "ipc"), ipc_budget=((1, 5), (2, 3)))
    assert listed == tupled and hash(listed) == hash(tupled)


def test_presets_present():
    assert set(sweep.HAMILTONIAN_PRESETS) == {"H1", "H2", "H3", "H4", "H5"}
    h1 = sweep.HAMILTONIAN_PRESETS["H1"]
    assert h1 == {"j_scale": 1.0, "field_width": 0.312, "global_field": 0.013}


def test_run_sweep_serial_and_parallel_identical(tmp_path):
    cfg1 = small_config(tmp_path, workers=1, out_path=str(tmp_path / "a.csv"))
    cfg8 = small_config(tmp_path, workers=8, out_path=str(tmp_path / "b.csv"))
    r1 = sweep.run_sweep(cfg1, resume=False)
    r8 = sweep.run_sweep(cfg8, resume=False)
    sweep.emit_field(r1, cfg1.out_path)
    sweep.emit_field(r8, cfg8.out_path)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_sweep_resume_from_checkpoint(tmp_path):
    cfg = small_config(tmp_path)
    full = sweep.run_sweep(cfg, resume=False)
    ckpt = sweep.checkpoint_path(cfg.out_path)
    # rerunning with the checkpoint intact must not recompute, and must agree
    resumed = sweep.run_sweep(cfg, resume=True)
    assert resumed.values == full.values
    with open(ckpt) as fh:
        assert len(fh.readlines()) == 1 + len(full.values)  # config header, one line per point


def test_run_sweep_checkpoint_bound_to_config(tmp_path):
    cfg = small_config(tmp_path)
    ckpt = tmp_path / sweep.checkpoint_path("field.csv")
    full = sweep.run_sweep(cfg, resume=False)
    sweep.run_sweep(cfg, resume=False)  # starts the checkpoint afresh
    lines = ckpt.read_text().splitlines(keepends=True)
    assert len(lines) == 1 + len(full.values)
    header = json.loads(lines[0])["config"]
    assert header["seed"] == 0 and "workers" not in header and "out_path" not in header
    # the worker count does not change the points, so the checkpoint still holds
    assert sweep.run_sweep(replace(cfg, workers=2), resume=True).values == full.values
    with pytest.raises(ValueError, match="different seed"):
        sweep.run_sweep(replace(cfg, seed=2), resume=True)
    with pytest.raises(ValueError, match="different indicator_len, seed"):
        sweep.run_sweep(replace(cfg, seed=2, indicator_len=50), resume=True)
    ckpt.write_text("".join(lines[1:]))  # no header: every field differs
    with pytest.raises(ValueError, match="different azimuth_count"):
        sweep.run_sweep(cfg, resume=True)


def test_run_sweep_resumes_after_torn_last_line(tmp_path):
    cfg = small_config(tmp_path)
    full = sweep.run_sweep(cfg, resume=False)
    ckpt = tmp_path / sweep.checkpoint_path("field.csv")
    lines = ckpt.read_text().splitlines(keepends=True)
    # a crash while writing the fourth record leaves half of it, no newline
    ckpt.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
    resumed = sweep.run_sweep(cfg, resume=True)
    assert resumed.values == full.values
    rows = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert sorted(row["index"] for row in rows[1:]) == list(range(len(full.values)))
    # a header torn mid-write leaves nothing to resume: the sweep starts afresh
    ckpt.write_text(lines[0][:10])
    assert sweep.run_sweep(cfg, resume=True).values == full.values
    assert ckpt.read_text().splitlines(keepends=True)[0] == lines[0]
    # a bad record before the last one is corruption, not a torn write
    ckpt.write_text("".join(lines[:2]) + "{broken\n" + "".join(lines[2:]))
    with pytest.raises(json.JSONDecodeError):
        sweep.run_sweep(cfg, resume=True)


def test_run_sweep_closes_pool_on_error(tmp_path, monkeypatch):
    dumps = json.dumps

    def fail(obj, **kwargs):
        if "index" in obj:  # the first point record, written while the pool runs
            raise RuntimeError("checkpoint write failed")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(sweep, "json", SimpleNamespace(dumps=fail, loads=json.loads))
    with pytest.raises(RuntimeError, match="checkpoint write failed"):
        sweep.run_sweep(small_config(tmp_path, workers=2), resume=False)
    assert multiprocessing.active_children() == []


def test_emit_and_parse_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    result = sweep.run_sweep(cfg, resume=False)
    sweep.emit_field(result, cfg.out_path)
    header, rows, errors = sweep.parse_field_csv(cfg.out_path)
    assert header == ["azimuth", "polar", "esp", "ns_esp", "error"]
    assert len(rows) == 6
    assert all(e is None for e in errors)
    # 17-significant-digit formatting must round-trip exactly
    for (coord, values), row in zip(zip(result.coords, result.values), rows):
        assert row[0] == coord[0] and row[1] == coord[1]
        assert row[2] == values["esp"]


def test_emit_field_keeps_one_cell_per_error(tmp_path):
    errors = [
        "ValueError: input 2.0 outside [-1, 1]",
        "ValueError: shapes (3,4) and (5,) not aligned\r\nsecond line",
        None,
    ]
    result = sweep.FieldResult(
        config={}, coord_names=("p", "gamma"), coords=[(0.0, 0.0), (0.5, 0.0), (1.0, 0.5)], metrics=("mc", "ipc"),
        values=[{}, {}, {"mc": 1.5, "ipc": 2.25}], errors=errors,
    )
    out = tmp_path / "field.csv"
    sweep.emit_field(result, str(out))
    header, rows, read = sweep.parse_field_csv(str(out))
    assert header == ["p", "gamma", "mc", "ipc", "error"]
    assert [len(row) + 1 for row in rows] == [len(header)] * 3
    assert read == [
        "ValueError: input 2.0 outside [-1; 1]",
        "ValueError: shapes (3;4) and (5;) not aligned second line",
        None,
    ]
    assert rows[2] == [1.0, 0.5, 1.5, 2.25]
    assert out.read_text().endswith("\n1,0.5,1.5,2.25,\n")  # a clean row as before


def test_emit_field_json(tmp_path):
    cfg = small_config(tmp_path)
    result = sweep.run_sweep(cfg, resume=False)
    result.values[0] = {"esp": float("nan"), "ns_esp": float("inf")}
    result.values[1] = {"esp": 0.5, "ns_esp": float("-inf")}
    out = tmp_path / "field.json"
    sweep.emit_field(result, str(out), fmt="json")

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert len(payload["points"]) == 6
    assert payload["config"]["experiment"] == "ns_esp_axis_grid"
    assert payload["points"][0]["metrics"] == {"esp": "nan", "ns_esp": "inf"}
    assert payload["points"][1]["metrics"] == {"esp": 0.5, "ns_esp": "-inf"}


def test_emit_field_rejects_empty():
    empty = sweep.FieldResult(
        config={}, coord_names=("a", "b"), coords=[], metrics=("esp",), values=[], errors=[]
    )
    with pytest.raises(ValueError):
        sweep.emit_field(empty, "/tmp/never-written.csv")
    one = replace(empty, coords=[(0.0, 0.0)], values=[{"esp": 0.5}], errors=[None])
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        sweep.emit_field(one, "/tmp/never-written.xml", fmt="xml")


def test_fmt_specials():
    assert sweep._fmt(float("nan")) == "nan"
    assert sweep._fmt(float("inf")) == "inf"
    assert sweep._fmt(float("-inf")) == "-inf"
    assert float(sweep._fmt(0.1)) == 0.1


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "nope"}))
    assert sweep.main(["--config", str(bad)]) == sweep.EXIT_CONFIG_ERROR
    # a small grid, so that accepting a bad config would fail fast
    small = dict(metrics=["esp"], azimuth_count=2, polar_count=2, indicator_len=20,
                 out_path=str(tmp_path / "x.csv"))
    bad.write_text(json.dumps(dict(small, experiment="classical_reference")))  # removed
    assert sweep.main(["--config", str(bad)]) == sweep.EXIT_CONFIG_ERROR
    # configs that fail at every point are refused before the sweep starts
    for fields in (
        dict(metrics=["mc"], mc_len=100, mc_washout=20, mc_max_delay=50),
        dict(metrics=["mc"], mc_len=300, mc_washout=100, mc_max_delay=0),
        dict(indicator_states=1),
        dict(indicator_window=30),
        dict(metrics=["ipc"], mc_len=100, mc_washout=20, ipc_budget=[[1, 50]]),
        dict(metrics=["ipc"], mc_len=100, mc_washout=20, ipc_budget=[]),
        dict(metrics=["ipc"], mc_len=100, mc_washout=20, ipc_budget=[[0, 5]]),
        dict(metrics=["ipc"], mc_len=100, mc_washout=20, ipc_budget=[[1, 5]], ipc_surrogates=-1),
        dict(metrics=["ns_esp"], indicator_window=1),
        dict(indicator_inputs=0),
        dict(metrics=["narma2"], narma_len=100, narma_sequences=0),
        dict(metrics=["rank"], rank_len=0, rank_washout=20),
        dict(metrics=["rank"], rank_len=50, rank_washout=20, rank_threshold=-1.0),
        dict(metrics=["rank"], rank_len=50, rank_washout=20, rank_threshold=1.0),
        dict(metrics=["rank"], rank_len=50, rank_washout=-48),
        dict(metrics=["mc"], mc_len=100, mc_washout=200, mc_max_delay=50),
        dict(metrics=["ipc"], mc_len=100, mc_washout=200, ipc_budget=[[1, 5]]),
        dict(metrics=["narma2"], narma_len=2),
        dict(metrics=["narma10"], narma_len=10),
        dict(metrics=["narma2"], narma_len=10),
        dict(seed=-1),
        dict(seed=1.0),
        dict(indicator_len=20.0),
        dict(metrics=["mc"], mc_len=300, mc_washout=100, mc_max_delay=5.5),
        dict(metrics=["ipc"], mc_len=100, mc_washout=20, ipc_budget=[[1.0, 5]]),
        dict(metrics=["ipc"], mc_len=100, mc_washout=20, ipc_budget=[[1, 5], [1, 3]]),
        dict(metrics=["ipc"], mc_len=100, mc_washout=20, ipc_budget=[[1, 5, 2]]),
        dict(ipc_budget=[[1]]),
        dict(ipc_surrogates=-3),
        dict(metrics=["esp", "esp"]),
        dict(metrics="esp"),
    ):
        bad.write_text(json.dumps(dict(small, out_path=str(tmp_path / "y.csv"), **fields)))
        assert sweep.main(["--config", str(bad)]) == sweep.EXIT_CONFIG_ERROR
    bad.write_text(json.dumps(dict(small, out_path=str(tmp_path / "y.csv"))))
    assert sweep.main(["--config", str(bad), "--seed", "-1"]) == sweep.EXIT_CONFIG_ERROR
    for flags in (["--metrics", ""], ["--out", ""]):  # refused, not dropped for the config's values
        assert sweep.main(["--config", str(bad), *flags]) == sweep.EXIT_CONFIG_ERROR
    # flags that argparse itself refuses: a config error, not the exit code of failed grid points
    for flags in (["--workers", "x"], ["--experiment", "nope"], ["--format", "xml"], ["--bogus"]):
        assert sweep.main(["--config", str(bad), *flags]) == sweep.EXIT_CONFIG_ERROR
    for out_path in (5, ""):  # a number failed in checkpoint_path with a TypeError
        bad.write_text(json.dumps(dict(small, out_path=out_path)))
        assert sweep.main(["--config", str(bad)]) == sweep.EXIT_CONFIG_ERROR
    bad.write_text(json.dumps(dict(small, out_path=str(tmp_path / "y.csv"))))
    assert sweep.main(["--config", ""]) == sweep.EXIT_CONFIG_ERROR
    assert not (tmp_path / "y.csv").exists()
    # resuming a checkpoint written with another seed
    bad.write_text(json.dumps(small))
    assert sweep.main(["--config", str(bad), "--seed", "1"]) == sweep.EXIT_OK
    capsys.readouterr()
    assert sweep.main(["--config", str(bad), "--seed", "2"]) == sweep.EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err
    # an output path that cannot be written: no traceback, and nothing written
    missing = tmp_path / "missing" / "z.csv"
    bad.write_text(json.dumps(dict(small, out_path=str(missing))))
    assert sweep.main(["--config", str(bad)]) == sweep.EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err
    assert not missing.parent.exists()
    # a field that cannot be written after the sweep: the checkpoint keeps the points for a rerun
    taken = tmp_path / "taken.csv"
    taken.mkdir()
    bad.write_text(json.dumps(dict(small, out_path=str(taken))))
    assert sweep.main(["--config", str(bad)]) == sweep.EXIT_CONFIG_ERROR
    assert "config error: cannot write field" in capsys.readouterr().err
    with open(sweep.checkpoint_path(str(taken)), encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1 + 4  # the config and the 2 x 2 grid points


def test_cli_checks_the_json_config_once_with_its_flags(tmp_path, capsys):
    # a JSON field refused alone runs when a flag replaces it: flags override the file before the one check
    small = dict(metrics=["esp"], azimuth_count=2, polar_count=2, indicator_len=20)
    cfgfile = tmp_path / "cfg.json"
    for fields, flags in ((dict(metrics=["bogus"]), ["--metrics", "esp"]),
                          (dict(experiment="nope"), ["--experiment", "ns_esp_axis_grid"])):
        cfgfile.write_text(json.dumps(dict(small, **fields)))
        out = tmp_path / f"{flags[0][2:]}.csv"
        assert sweep.main(["--config", str(cfgfile), *flags, "--out", str(out)]) == sweep.EXIT_OK
        assert len(sweep.parse_field_csv(str(out))[1]) == 4
    assert sweep.main(["--help"]) == sweep.EXIT_OK
    assert "--experiment" in capsys.readouterr().out


def test_cli_refuses_malformed_checkpoint_lines(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(dict(metrics=["esp"], azimuth_count=2, polar_count=2, indicator_len=20,
                                       out_path=str(tmp_path / "field.csv"))))
    assert sweep.main(["--config", str(cfgfile)]) == sweep.EXIT_OK
    ckpt = tmp_path / sweep.checkpoint_path("field.csv")
    header, record = ckpt.read_text().splitlines(keepends=True)[:2]
    for text, line, message in (
        ("[1, 2]\n", 1, "the header is not an object"),
        ('{"config": [1]}\n', 1, "the header is not an object"),
        (header + '{"index": 0}\n', 2, "a point record needs an integer index, a values object"),
        (header + record + "\n" + '{"index": "1", "values": {}}\n', 4, "a point record needs"),
        (header + '{"index": 1, "values": [0.5]}\n', 2, "a point record needs"),
        (header + "[0]\n", 2, "a point record needs"),
        (header + '{"index": 1, "values": {}, "error": 5}\n', 2, "a point record needs"),
    ):
        ckpt.write_text(text)
        assert sweep.main(["--config", str(cfgfile)]) == sweep.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"config error: checkpoint {ckpt} line {line}: {message}")


def test_cli_runs_and_writes(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            dict(
                experiment="ns_esp_axis_grid",
                metrics=["esp"],
                azimuth_count=2,
                polar_count=2,
                indicator_len=40,
                indicator_window=10,
                indicator_inputs=1,
                indicator_states=2,
            )
        )
    )
    out = tmp_path / "cli.csv"
    code = sweep.main(["--config", str(cfgfile), "--out", str(out), "--workers", "1"])
    assert code == sweep.EXIT_OK
    header, rows, errors = sweep.parse_field_csv(str(out))
    assert len(rows) == 4


def test_cli_overrides_experiment_and_metrics_and_reports_failed_points(tmp_path, capsys):
    # the file asks for the gamma-p grid and mc; --experiment and --metrics replace both. On the axis grid
    # of chunked_config, NARMA10 diverges at grid point 5 of seed 0 alone: the sweep goes on and exits 2
    cfg = chunked_config(tmp_path)
    fields = dict(experiment="subset_gamma_p_grid", metrics=["mc"], mc_len=300, mc_washout=100, mc_max_delay=5,
                  azimuth_count=cfg.azimuth_count, polar_count=cfg.polar_count, narma_len=cfg.narma_len,
                  narma_sequences=cfg.narma_sequences)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(fields))
    out = tmp_path / "field.csv"
    code = sweep.main(["--config", str(cfgfile), "--experiment", "ns_esp_axis_grid", "--metrics", "narma2,narma10",
                       "--out", str(out)])
    assert code == sweep.EXIT_PARTIAL_FAILURE
    assert capsys.readouterr().err == "1 of 9 grid points failed\n"
    header, rows, errors = sweep.parse_field_csv(str(out))
    assert header == ["azimuth", "polar", "narma2", "narma10", "error"]
    assert len(rows) == 9
    assert [i for i, e in enumerate(errors) if e] == [5]
    assert errors[5].startswith("ValueError: NARMA10 diverged at step")
    assert np.isnan(rows[5][2:]).all() and np.isfinite(np.delete(rows, 5, axis=0)).all()


def test_cli_module_entry_point_runs_without_warning():
    # `python -m qresp.sweep` must not find the module already imported by the package
    src = str(Path(sweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qresp.sweep", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "qresp-sweep" in proc.stdout


def test_evaluate_point_reports_metric_set(tmp_path):
    cfg = small_config(tmp_path, metrics=("esp", "ns_esp"))
    values = sweep.evaluate_point(cfg, 0, (0.0, 1.2))
    assert set(values) == {"esp", "ns_esp"}
    assert all(np.isfinite(v) or np.isinf(v) for v in values.values())


@pytest.mark.parametrize("experiment", ["ns_esp_axis_grid", "subset_gamma_p_grid"])
def test_rank_path_takes_one_svd_per_point(tmp_path, monkeypatch, experiment):
    # the sweep's rank cell and a trajectory_rank call each take one SVD
    cfg = small_config(tmp_path, experiment=experiment, metrics=("rank",), rank_len=200, rank_washout=50)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    coord = sweep.grid_coordinates(cfg)[1]
    values = sweep.evaluate_point(cfg, 1, coord)
    assert len(calls) == 1
    assert (benchmarks.trajectory_rank(np.ones((50, 4))), len(calls)) == (1, 2)
    assert set(values) == {"rank"}


def test_narma_rnmse_matches_sequential_drive_and_fit(tmp_path):
    # one sequence at a time from the point's narma2 stream: draw u, then the initial state, drive, fit
    cfg = small_config(tmp_path, metrics=("narma2",), narma_len=300, narma_sequences=3)
    coord = (0.7, 1.9)
    model = sweep._build_model(cfg, coord)
    children = sweep.point_seed_sequence(cfg.seed, 4).spawn(len(sweep.METRICS))
    rng = np.random.default_rng(children[sweep.METRICS.index("narma2")])
    scores = []
    for _ in range(cfg.narma_sequences):
        u = rng.uniform(0.0, 0.5, size=cfg.narma_len)
        traj = run_reservoir(model, u, qmat.haar_random_pure_state(model.n_qubits, rng))
        fit = benchmarks.train_linear_readout(traj, benchmarks.narma_generate(u, 2), benchmarks.SplitSpec())
        scores.append(benchmarks.rnmse(fit.test_target, fit.predictions))
    assert sweep.evaluate_point(cfg, 4, coord) == {"narma2": float(np.mean(scores))}


def test_axis_chunk_rows_are_each_points_own_run(tmp_path, monkeypatch):
    # points on different axes share evolve; each gets its own encode on its rows: the esp run
    # steps each point's kept map, the narma2 run its density matrix
    runs = []

    def recorded(model, inputs, rho0, washout=0):  # records every row; returns those from the washout on
        runs.append((inputs, rho0, run_reservoir(model, inputs, rho0)))
        return runs[-1][-1][..., washout:, :]

    monkeypatch.setattr(sweep, "run_reservoir", recorded)
    monkeypatch.setattr(espmetrics, "run_reservoir", recorded)
    cfg = small_config(tmp_path, metrics=("esp", "narma2"), indicator_len=2 * 64 + 7, narma_len=300, narma_sequences=2)
    points = [(0, (0.0, 0.0)), (7, (1.3, 0.9)), (3, (4.0, np.pi)), (5, (2.2, 2.5))]
    sweep.evaluate_chunk(cfg, points)
    assert [run[0].shape for run in runs] == [(4, 4, 2 * 64 + 7), (4, 2, 300)]  # esp, then narma2
    for (inputs, rho0, readout), stepper in zip(runs, (espmetrics.stepped, lambda model: model)):
        for (_, coord), u, states, rows in zip(points, inputs, rho0, readout):
            assert np.array_equal(rows, run_reservoir(stepper(sweep._build_model(cfg, coord)), u, states))  # bit for bit


def test_indicator_cells_are_the_library_ensembles(tmp_path):
    # every indicator cell is indicator_ensemble of its point's own model, stream and column selection:
    # on the axis grid from one chunk of several points, on the gamma-p grid a point at a time, as the sweep runs
    basis = qmat.all_pauli_strings(2)
    axis = small_config(tmp_path, metrics=("esp", "ns_esp"))
    gamma_p = small_config(tmp_path, experiment="subset_gamma_p_grid", metrics=("ns_esp_damping", "ns_esp_nondamping"),
                           gamma_count=2, p_count=2)
    selections = {"esp": ("esp", None), "ns_esp": ("esp", None),
                  "ns_esp_damping": ("ns_esp_damping", espmetrics.damping_subsystem_selection(basis)),
                  "ns_esp_nondamping": ("ns_esp_nondamping", espmetrics.non_damping_subsystem_selection(basis))}
    for cfg in (axis, gamma_p):
        points = list(enumerate(sweep.grid_coordinates(cfg)))
        if cfg is axis:
            assert sweep.chunk_size(cfg) >= len(points) > 1
            cells = sweep.evaluate_chunk(cfg, points)
        else:
            cells = [sweep.evaluate_point(cfg, *point) for point in points]
        for (index, coord), values in zip(points, cells):
            assert list(values) == list(cfg.metrics)
            for name, value in values.items():
                stream, columns = selections[name]
                [trace] = espmetrics.indicator_ensemble(
                    [sweep._build_model(cfg, coord)], cfg.indicator_inputs, cfg.indicator_states, cfg.indicator_len,
                    cfg.indicator_window, [sweep.point_rng(cfg.seed, index, stream)], columns)
                expected = trace.final_esp if name == "esp" else trace.final_ns
                assert value.hex() == expected.hex(), (cfg.experiment, index, name)


# the order in which evaluate_chunk fills a point's metrics, whatever order the config names them in: the
# checkpoint lines and the JSON output carry it
FILL_ORDER = ("esp", "ns_esp", "ns_esp_damping", "ns_esp_nondamping", "narma2", "narma10", "mc", "ipc", "rank")


@pytest.mark.parametrize("rank_len", [200, 500], ids=["rank-run-shorter", "rank-run-longer"])  # mc run: 400 steps
@pytest.mark.parametrize(
    "experiment, metrics",
    [("ns_esp_axis_grid", ("rank", "ipc", "narma2", "mc", "esp", "ns_esp")),
     ("subset_gamma_p_grid", ("rank", "ipc", "mc", "ns_esp_nondamping", "ns_esp_damping"))],
    ids=["axis", "gamma-p"],
)
def test_cells_equal_whether_requested_together_or_apart(tmp_path, experiment, metrics, rank_len):
    # together, the mc and rank runs are two rows of one batch, the shorter zero-padded
    cfg = small_config(
        tmp_path, experiment=experiment, metrics=metrics, gamma_count=2, p_count=2, narma_len=300,
        narma_sequences=2, mc_len=400, mc_washout=100, mc_max_delay=10, ipc_budget=((1, 10), (2, 4)),
        ipc_surrogates=5, rank_len=rank_len, rank_washout=50, rank_threshold=0.05,  # a cut the drawn inputs move
    )
    coords = sweep.grid_coordinates(cfg)
    chunks = [list(enumerate(coords))] if experiment == "ns_esp_axis_grid" else [[p] for p in enumerate(coords)]
    together = [values for chunk in chunks for values in sweep.evaluate_chunk(cfg, chunk)]
    for values in together:
        assert list(values) == [m for m in FILL_ORDER if m in metrics]
    for metric in ("mc", "ipc", "rank") + (("narma2",) if experiment == "ns_esp_axis_grid" else ()):
        alone = replace(cfg, metrics=(metric,))
        apart = [values for chunk in chunks for values in sweep.evaluate_chunk(alone, chunk)]
        assert [v[metric].hex() for v in apart] == [v[metric].hex() for v in together], metric  # bit for bit


def test_gamma_p_chunks_equal_single_points(tmp_path):
    # the sweep runs one gamma-p point a task for its memory, not its bits: stacked, their maps give each
    # point's own cells
    cfg = small_config(
        tmp_path, experiment="subset_gamma_p_grid", metrics=("ns_esp_damping", "ns_esp_nondamping", "mc", "ipc", "rank"),
        gamma_count=3, p_count=2, mc_len=400, mc_washout=100, mc_max_delay=10, ipc_budget=((1, 10), (2, 4)),
        ipc_surrogates=5, rank_len=200, rank_washout=50, rank_threshold=0.05,
    )
    points = list(enumerate(sweep.grid_coordinates(cfg)))
    alone = [sweep.evaluate_point(cfg, *point) for point in points]
    together = sweep.evaluate_chunk(cfg, points[:2]) + sweep.evaluate_chunk(cfg, points[2:5])
    assert [{m: v.hex() for m, v in values.items()} for values in together] == \
        [{m: v.hex() for m, v in values.items()} for values in alone[:5]]


def _emitted(result, path):
    sweep.emit_field(result, str(path))
    return path.read_bytes()


def _point_loop(cfg):
    """The field of a loop over evaluate_point, as run_sweep reports it."""
    coords = sweep.grid_coordinates(cfg)
    done = [row for i, c in enumerate(coords) for row in sweep._chunk_task((cfg, [(i, c)]))]
    return sweep.FieldResult(
        coord_names=("p", "gamma") if cfg.experiment == "subset_gamma_p_grid" else ("azimuth", "polar"),
        coords=coords, metrics=cfg.metrics, values=[v for _, v, _ in done], errors=[e for _, _, e in done],
        config={},
    )


def chunked_config(tmp_path, **overrides):
    # 9 points in chunks of 4, 4 and 1, each chunk evaluated as one (NARMA10 diverges on one of these
    # points, which would send its chunk back to single points: test_axis_chunks_never_fall_back_* runs it)
    fields = dict(metrics=("esp", "ns_esp", "narma2"), azimuth_count=3, polar_count=3,
                  indicator_len=3200, narma_len=1000, narma_sequences=2)
    return small_config(tmp_path, **{**fields, **overrides})


@pytest.mark.parametrize("fields, size", [
    (dict(experiment="ns_esp_axis_grid", metrics=("esp", "ns_esp"), azimuth_count=12, polar_count=6), 11),
    (dict(experiment="ns_esp_axis_grid", metrics=("narma2",), azimuth_count=12, polar_count=6, narma_len=1200,
          narma_sequences=2), 36),
    (dict(experiment="ns_esp_axis_grid", metrics=("narma2",)), 1),  # 5 x 20,000 steps: 6.6 MB alone
    (dict(experiment="subset_gamma_p_grid", metrics=("mc", "ipc", "rank"), gamma_count=3, p_count=3, mc_len=5000,
          mc_washout=1000, rank_len=3000, rank_washout=1000), 1),
])
def test_chunk_size_at_the_benchmark_shapes(fields, size):
    assert sweep.chunk_size(sweep.SweepConfig(**fields)) == size


def test_pool_forks_after_numpy_random_is_loaded(tmp_path):
    # in a fresh interpreter: this one loaded numpy.random long ago
    script = textwrap.dedent("""\
        import json, sys
        from qresp import sweep
        imported = "numpy.random" in sys.modules
        at_fork = []

        class Pool(sweep.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                at_fork.append("numpy.random" in sys.modules)
                super().__init__(*args, **kwargs)

        sweep.ProcessPoolExecutor = Pool
        cfg = sweep.SweepConfig(metrics=("esp",), azimuth_count=2, polar_count=2, indicator_len=20,
                                indicator_window=5, indicator_inputs=1, indicator_states=2, workers=2,
                                out_path=sys.argv[1])
        errors = sweep.run_sweep(cfg).errors
        print(json.dumps({"imported": imported, "at_fork": at_fork, "errors": errors}))
    """)
    src = str(Path(sweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "field.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"imported": False, "at_fork": [True], "errors": [None] * 4}


def test_pool_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # a forking pool starts all max_workers processes at its first submit
    sizes = []

    class Pool(sweep.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", Pool)
    cfg = chunked_config(tmp_path, workers=8)
    assert sweep.run_sweep(cfg, resume=False).errors == [None] * 9
    assert sizes == [3]  # chunks of 4, 4 and 1 points


def test_run_sweep_fields_equal_a_loop_over_evaluate_point(tmp_path, monkeypatch):
    cfg = chunked_config(tmp_path)
    assert sweep.chunk_size(cfg) == 4
    expected = _emitted(_point_loop(cfg), tmp_path / "loop.csv")
    evaluate_point = sweep.evaluate_point

    def alone(cfg, index, coord):  # only point 8 is a chunk of its own; any other point here fell back
        assert index == 8, f"the chunk of point {index} fell back to evaluate_point"
        return evaluate_point(cfg, index, coord)

    with monkeypatch.context() as patched:
        patched.setattr(sweep, "evaluate_point", alone)
        for workers in (1, 2):
            result = sweep.run_sweep(replace(cfg, workers=workers, out_path=str(tmp_path / f"w{workers}.csv")))
            assert result.errors == [None] * 9
            assert _emitted(result, tmp_path / f"w{workers}.csv") == expected
    # a gamma-p row-step holds a whole transfer map: one point per task
    cfg = small_config(
        tmp_path, experiment="subset_gamma_p_grid", metrics=("mc", "ipc", "rank", "ns_esp_damping"),
        gamma_count=2, p_count=2, mc_len=400, mc_washout=100, mc_max_delay=10, ipc_budget=((1, 10), (2, 4)),
        ipc_surrogates=5, rank_len=200, rank_washout=50,
    )
    assert sweep.chunk_size(cfg) == 1
    assert _emitted(sweep.run_sweep(cfg), tmp_path / "gp.csv") == _emitted(_point_loop(cfg), tmp_path / "loop.csv")


def test_axis_chunks_never_fall_back_to_single_points(tmp_path, monkeypatch):
    # a failing chunk reruns point by point, which would hide a fault of the chunk path behind equal
    # fields: here every metric of the axis grid runs in chunks of 3 points and none falls back
    cfg = small_config(
        tmp_path, metrics=("esp", "ns_esp", "narma2", "narma10", "mc", "rank"), indicator_len=4200, narma_len=300,
        narma_sequences=2, mc_len=400, mc_washout=100, mc_max_delay=10, rank_len=200, rank_washout=50,
    )
    assert sweep.chunk_size(cfg) == 3 and len(sweep.grid_coordinates(cfg)) == 6
    expected = _emitted(_point_loop(cfg), tmp_path / "loop.csv")

    def refuse(*args):
        raise AssertionError("a chunk fell back to evaluate_point")

    monkeypatch.setattr(sweep, "evaluate_point", refuse)
    result = sweep.run_sweep(cfg, resume=False)
    assert result.errors == [None] * 6
    assert _emitted(result, tmp_path / "chunked.csv") == expected


def test_run_sweep_resumes_points_inside_chunks(tmp_path):
    cfg = chunked_config(tmp_path)
    full = _emitted(sweep.run_sweep(cfg, resume=False), tmp_path / "full.csv")
    ckpt = tmp_path / sweep.checkpoint_path("field.csv")
    lines = ckpt.read_text().splitlines(keepends=True)
    kept = [line for line in lines if json.loads(line).get("index") not in (1, 5, 6)]
    ckpt.write_text("".join(kept))  # points 1, 5 and 6 lie inside the chunks 0-3 and 4-7
    assert _emitted(sweep.run_sweep(cfg, resume=True), tmp_path / "resumed.csv") == full
    assert len(ckpt.read_text().splitlines()) == len(lines)


def test_failing_point_reruns_its_chunk_one_point_at_a_time(tmp_path, monkeypatch):
    cfg = chunked_config(tmp_path)
    clean = sweep.run_sweep(cfg, resume=False)
    build = sweep._build_model
    bad = sweep.grid_coordinates(cfg)[5]

    def build_failing(cfg, coord):
        model = build(cfg, coord)
        if coord == bad:  # its encode gives nan: its first readout, inside the run of its chunk, is out of range
            model.frame = np.full((2, 2), np.nan)
        return model

    monkeypatch.setattr(sweep, "_build_model", build_failing)
    with pytest.raises(RuntimeError) as alone:
        sweep.evaluate_point(cfg, 5, bad)
    result = sweep.run_sweep(cfg, resume=False)
    assert result.errors[5] == f"RuntimeError: {alone.value}"
    assert result.values[5] == {}
    for i in range(len(clean.values)):
        if i != 5:
            assert result.errors[i] is None and result.values[i] == clean.values[i]
