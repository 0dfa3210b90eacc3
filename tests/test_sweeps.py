import errno
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cvqkd_ps.channel as channel_mod
import cvqkd_ps.keyrate as keyrate_mod
import cvqkd_ps.sweeps as sweeps_mod
from cvqkd_ps import (
    ExperimentConfig,
    NumericalDomainError,
    QuadratureSpec,
    SchemeConfig,
    emit_csv,
    key_rate,
    key_rates,
    run_experiment,
)
from cvqkd_ps import cli
from cvqkd_ps.cli import main as cli_main

from csv_reader import parse_csv


def small_base(**kw):
    kw.setdefault("trunc_n", 10)
    return SchemeConfig("nops", **kw)


def small_config(experiment, **kw):
    kw.setdefault("base", small_base())
    kw.setdefault("schemes", ("nops", "tps"))
    if experiment.startswith("satellite"):
        kw.setdefault("quad", QuadratureSpec(node_count=24))
        kw.setdefault("points", 3)
    else:
        kw.setdefault("points", 5)
    return ExperimentConfig(experiment=experiment, **kw)


# ---------------------------------------------------------------- experiments

def test_single_point_transmissivity_row():
    config = ExperimentConfig(
        experiment="transmissivity_sweep",
        schemes=("nops",),
        base=SchemeConfig("nops", trunc_n=40),
        start=1.0,
        stop=1.0,
        points=1,
    )
    result = run_experiment(config)
    assert len(result.rows) == 1
    row = dict(zip(result.columns, result.rows[0]))
    assert row["t_e"] == 1.0
    assert row["scheme"] == "nops"
    assert row["rate"] == pytest.approx(0.95 * math.log2(3.6), abs=1e-4)


def test_distance_sweep_maps_distances():
    config = small_config("distance_sweep", schemes=("nops",), start=0.0, stop=100.0,
                          points=3)
    result = run_experiment(config)
    rows = [dict(zip(result.columns, r)) for r in result.rows]
    assert [r["distance_km"] for r in rows] == [0.0, 50.0, 100.0]
    assert rows[1]["t_e"] == pytest.approx(0.1, rel=1e-12)
    assert rows[2]["t_e"] == pytest.approx(0.01, rel=1e-12)


def test_rows_match_direct_evaluation():
    config = small_config("transmissivity_sweep", start=0.2, stop=0.8, points=3)
    result = run_experiment(config)
    for row in result.rows:
        d = dict(zip(result.columns, row))
        kr = key_rate(SchemeConfig(d["scheme"], trunc_n=10), d["t_e"])
        assert d["rate"] == kr.rate
        assert d["i_g"] == kr.i_g


def test_grid_experiments_cover_layers():
    config = small_config(
        "noise_grid", schemes=("nops",), points=2, beta_sq_values=(0.001, 0.01)
    )
    result = run_experiment(config)
    assert len(result.rows) == 4
    layers = [row[0] for row in result.rows]
    assert layers == [0.001, 0.001, 0.01, 0.01]

    config = small_config(
        "photon_grid", schemes=("rps",), points=2, alpha_sq_values=(0.8, 1.3)
    )
    result = run_experiment(config)
    assert [row[0] for row in result.rows] == [0.8, 0.8, 1.3, 1.3]
    assert result.columns[0] == "alpha_sq"


def test_satellite_sweep_emits_both_averages():
    config = small_config("satellite_sweep", schemes=("nops",), start=0.5, stop=1.5)
    result = run_experiment(config)
    assert result.columns == ("sigma_b", "scheme", "k_avg", "k_avg_normalized")
    assert len(result.rows) == 3
    for row in result.rows:
        assert row[2] <= row[3] + 1e-12  # p_sub <= 1 makes the normalized one larger


def test_empty_scheme_set_rejected_before_output(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="transmissivity_sweep", schemes=())
    assert list(tmp_path.iterdir()) == []


def test_invalid_experiment_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="bogus")


# ------------------------------------------------------------------ emit/parse

def test_csv_round_trip(tmp_path):
    config = small_config("transmissivity_sweep", start=0.3, stop=0.9, points=3)
    result = run_experiment(config)
    path = tmp_path / "out.csv"
    emit_csv(result, path)
    text = path.read_text()
    assert text.startswith("# experiment=transmissivity_sweep\n")
    assert text.endswith("\n")

    back = parse_csv(path)
    assert back.columns == result.columns
    assert len(back.rows) == len(result.rows)
    for got, want in zip(back.rows, result.rows):
        for g, w in zip(got, want):
            if isinstance(w, str):
                assert g == w
            else:
                assert g == pytest.approx(w, rel=5e-12)

    # emitting the parsed result reproduces the file byte for byte
    path2 = tmp_path / "out2.csv"
    emit_csv(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_emit_deterministic(tmp_path):
    config = small_config("transmissivity_sweep")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(config), a)
    emit_csv(run_experiment(config), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("experiment", ["transmissivity_sweep", "satellite_sweep"])
def test_worker_count_does_not_change_bytes(tmp_path, experiment):
    # --threads is accepted and ignored: no value of it changes a byte
    blobs = []
    for threads in ([], ["--threads", "1"], ["--threads", "8"]):
        out = tmp_path / f"out-{len(blobs)}.csv"
        cli_main([experiment.replace("_", "-"), "--points", "3", *threads, "--out", str(out)])
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_a_shorter_result_overwrites_a_longer_csv_exactly(tmp_path):
    path, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    emit_csv(run_experiment(small_config("noise_grid", points=9)), path)
    longer = path.stat().st_size
    short = run_experiment(small_config("transmissivity_sweep", points=1))
    emit_csv(short, path)
    emit_csv(short, fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_size < longer


def test_emit_csv_writes_into_a_pipe(tmp_path):
    result = run_experiment(small_config("transmissivity_sweep", points=2))
    emit_csv(result, tmp_path / "want.csv")
    read_end, write_end = os.pipe()
    try:  # the CSV is far below a pipe's 64 kB buffer
        emit_csv(result, f"/dev/fd/{write_end}")
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        assert fh.read() == (tmp_path / "want.csv").read_bytes()


def test_cli_out_dev_stdout_writes_the_csv_to_stdout(tmp_path):
    argv = ["transmissivity-sweep", "--points", "2"]
    cli_main(argv + ["--out", str(tmp_path / "want.csv")])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))  # this package
    run = subprocess.run([sys.executable, "-m", "cvqkd_ps.cli"] + argv + ["--out", "/dev/stdout"],
                         stdout=subprocess.PIPE, env=env, check=True)
    assert run.stdout == ((tmp_path / "want.csv").read_bytes()
                          + b"wrote 6 rows to /dev/stdout\n")


def _text_mode_csv(result, path):
    """The reference writer: one text-mode file, line by line."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"# {k}={sweeps_mod._fmt(v)}\n" for k, v in result.metadata.items())
        fh.write(",".join(result.columns) + "\n")
        fh.writelines(",".join(map(sweeps_mod._fmt, row)) + "\n" for row in result.rows)


# emit_csv writes these with %.12g, the reference writer with _fmt's f"{x:.12g}"
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e16, sys.float_info.max,
                math.inf, -math.inf, math.nan, np.float64(0.1))


@pytest.fixture(scope="module")
def csv_results():
    """The six default results, a one-point satellite request, a two-layer grid
    and a result of edge floats."""
    results = {name: run_experiment(ExperimentConfig(name)) for name in sweeps_mod.EXPERIMENTS}
    results["one_point_satellite"] = run_experiment(ExperimentConfig(
        "satellite_sweep", schemes=("tps",), start=5.2, stop=5.2, points=1))
    results["two_layer_grid"] = run_experiment(ExperimentConfig(
        "noise_grid", points=4, beta_sq_values=(0.0, 0.05)))
    results["edge_floats"] = sweeps_mod.SweepResult(
        {"experiment": "edges"}, ("x", "scheme", "y"),
        tuple((x, "tps", -x) for x in _EDGE_FLOATS))
    return results


@pytest.mark.parametrize("chunk", [1, 3, 7, None])
def test_emit_csv_writes_the_bytes_of_a_text_mode_writer(monkeypatch, tmp_path, csv_results,
                                                         chunk):
    if chunk:
        monkeypatch.setattr(sweeps_mod, "_CSV_CHUNK_ROWS", chunk)
    for name, result in csv_results.items():
        want, got = tmp_path / f"{name}-want.csv", tmp_path / f"{name}.csv"
        _text_mode_csv(result, want)
        got.write_bytes(b"x" * (want.stat().st_size + 100))  # a longer file is overwritten
        emit_csv(result, got)
        assert got.read_bytes() == want.read_bytes(), name
    header_only = sweeps_mod.SweepResult({"a": 1.5}, ("x", "y"), ())
    _text_mode_csv(header_only, tmp_path / "want.csv")
    emit_csv(header_only, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_emit_csv_writes_into_a_fifo(monkeypatch, tmp_path, csv_results):
    monkeypatch.setattr(sweeps_mod, "_CSV_CHUNK_ROWS", 7)
    result = csv_results["satellite_sweep"]
    _text_mode_csv(result, tmp_path / "want.csv")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    emit_csv(result, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [(tmp_path / "want.csv").read_bytes()]


def test_a_failed_write_leaves_no_bytes_of_the_previous_csv(tmp_path):
    class Unprintable:
        def __float__(self):
            raise RuntimeError("cannot format")

    path, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    emit_csv(run_experiment(small_config("noise_grid", points=9)), path)
    longer = path.stat().st_size
    result = run_experiment(small_config("transmissivity_sweep", points=2))
    emit_csv(result, fresh)
    bad_row = result.rows[1][:-1] + (Unprintable(),)  # a full-width row
    bad = sweeps_mod.SweepResult(result.metadata, result.columns, result.rows[:1] + (bad_row,))
    with pytest.raises(RuntimeError, match="cannot format"):
        emit_csv(bad, path)
    left = path.read_bytes()  # at most a prefix of the new CSV, never the old tail
    assert len(left) < longer and fresh.read_bytes().startswith(left)


def test_an_empty_result_leaves_an_existing_file_untouched(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("earlier contents\n")
    with pytest.raises(ValueError, match="refusing to emit an empty result"):
        emit_csv(sweeps_mod.SweepResult(metadata={}, columns=(), rows=()), path)
    assert path.read_text() == "earlier contents\n"


def test_metadata_contents():
    config = small_config("satellite_closeup", schemes=("tps",))
    md = run_experiment(config).metadata
    assert md["experiment"] == "satellite_closeup"
    assert md["schemes"] == "tps"
    assert md["trunc_n"] == 10
    assert md["backend"] == "exact"
    assert md["nodes"] == 24
    assert "threads" not in md  # execution detail, not part of the result


# ------------------------------------------------------------------------ CLI

def _usage_error(capsys, argv):
    """The message of a settings error in argv, which the CLI must report as a
    usage error: exit status 2, the command's usage line, no traceback."""
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    err, prog = capsys.readouterr().err, f"cvqkd-ps {argv[0]}"
    assert err.startswith(f"usage: {prog} ") and "Traceback" not in err
    _, found, message = err.partition(f"\n{prog}: error: ")
    assert found and message.endswith("\n"), err
    return message[:-1]


def test_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli_main([
        "transmissivity-sweep",
        "--scheme", "nops",
        "--trunc", "8",
        "--start", "0.5", "--stop", "1.0", "--points", "3",
        "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    result = parse_csv(out)
    assert result.metadata["trunc_n"] == "8"
    assert len(result.rows) == 3


def test_cli_satellite_flags(tmp_path):
    out = tmp_path / "sat.csv"
    cli_main([
        "satellite-sweep",
        "--scheme", "nops",
        "--trunc", "8",
        "--start", "0.5", "--stop", "1.0", "--points", "2",
        "--nodes", "16",
        "--no-clamp-negative",
        "--out", str(out),
    ])
    md = parse_csv(out).metadata
    assert md["nodes"] == "16"
    assert md["clamp_negative"] == "false"


@pytest.mark.parametrize("clamp", ["--clamp-negative", "--no-clamp-negative"])
def test_the_least_node_budget_is_the_one_the_rule_uses(tmp_path, capsys, clamp):
    # each positive segment takes at least 16 nodes, so --nodes 15 is refused
    # rather than run as 16, and from 16 on each budget gives its own rows
    argv = ["satellite-closeup", clamp, "--nodes", "15", "--out", str(tmp_path / "x")]
    assert _usage_error(capsys, argv) == "--nodes must be >= 16, got 15"
    rows = []
    for nodes in ("16", "17"):
        out = tmp_path / f"closeup-{nodes}.csv"
        cli_main(["satellite-closeup", clamp, "--nodes", nodes, "--out", str(out)])
        result = parse_csv(out)
        assert result.metadata["nodes"] == nodes
        rows.append(result.rows)
    assert rows[0] != rows[1]


def test_a_node_budget_above_the_ceiling_is_refused_by_name(monkeypatch, tmp_path, capsys):
    # refused before any rule is built: a rule of n nodes is a dense n x n eigensolve
    monkeypatch.setattr(channel_mod, "_unit_interval_rule", None)
    out = str(tmp_path / "x.csv")
    message = "--nodes must be <= 2048, got 2049"
    assert _usage_error(capsys, ["satellite-sweep", "--nodes", "2049", "--out", out]) == message
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nodes = 2049\n")
    argv = ["satellite-closeup", "--config", str(cfg_file), "--out", out]
    assert _usage_error(capsys, argv) == message
    assert not (tmp_path / "x.csv").exists()


def test_cli_config_file_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# base setup\n"
        "scheme = nops,tps\n"
        "trunc = 8\n"
        "points = 3\n"
        "stop = 0.9\n"
    )
    out = tmp_path / "cfg.csv"
    cli_main([
        "transmissivity-sweep",
        "--config", str(cfg_file),
        "--points", "2",  # flag overrides the file
        "--start", "0.5",
        "--out", str(out),
    ])
    result = parse_csv(out)
    assert result.metadata["points"] == "2"
    assert result.metadata["schemes"] == "nops,tps"
    assert result.metadata["trunc_n"] == "8"
    assert len(result.rows) == 4  # 2 points x 2 schemes


def test_cli_config_file_does_not_leak_into_the_next_call(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("points = 3\nalpha_sq = 2.0\nscheme = tps\n")
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    cli_main(["transmissivity-sweep", "--config", str(cfg_file), "--out", str(first)])
    cli_main(["transmissivity-sweep", "--out", str(second)])
    md = parse_csv(first).metadata
    assert (md["points"], md["alpha_sq"], md["schemes"]) == ("3", "2", "tps")
    md = parse_csv(second).metadata
    assert (md["points"], md["alpha_sq"], md["schemes"]) == ("51", "1.3", "nops,tps,rps")


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    bad, out = tmp_path / "bad.cfg", tmp_path / "out.csv"
    bad.write_text("no_such_key = 1\n")
    argv = ["transmissivity-sweep", "--config", str(bad), "--out", str(out)]
    assert _usage_error(capsys, argv) == "unknown config key 'no_such_key'"
    assert not out.exists()


def _os_message(code, path=None):
    """str() of the OSError that the OS raises with `code` on `path`."""
    text = f"[Errno {code}] {os.strerror(code)}"
    return text if path is None else f"{text}: {str(path)!r}"


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
def test_cli_unreadable_config_file_is_a_usage_error(tmp_path, capsys, missing):
    path, out = tmp_path / ("missing.cfg" if missing else "adir"), tmp_path / "out.csv"
    if not missing:
        path.mkdir()
    argv = ["transmissivity-sweep", "--points", "2", "--config", str(path), "--out", str(out)]
    code = errno.ENOENT if missing else errno.EISDIR
    assert _usage_error(capsys, argv) == _os_message(code, path)
    assert not out.exists()


@pytest.mark.parametrize("missing", [True, False], ids=["no-parent", "directory"])
def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys, missing):
    out = tmp_path / "nodir" / "x.csv" if missing else tmp_path / "adir"
    if not missing:
        out.mkdir()
    argv = ["transmissivity-sweep", "--points", "2", "--out", str(out)]
    code = errno.ENOENT if missing else errno.EISDIR
    assert _usage_error(capsys, argv) == _os_message(code, out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if missing else ["adir"])


def test_cli_output_pipe_closed_early_is_a_usage_error(capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write fails with EPIPE
    try:
        argv = ["transmissivity-sweep", "--points", "2", "--out", f"/dev/fd/{write_end}"]
        assert _usage_error(capsys, argv) == _os_message(errno.EPIPE)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv,message", [
    (["transmissivity-sweep", "--start", "nan"], "--start must be finite, got nan"),
    (["transmissivity-sweep", "--stop", "inf"], "--stop must be finite, got inf"),
    (["transmissivity-sweep", "--stop", "2"],
     "--stop is a transmissivity outside [0, 1], got 2"),
    (["transmissivity-sweep", "--start", "-0.1"],
     "--start is a transmissivity outside [0, 1], got -0.1"),
    (["distance-sweep", "--start", "-5"], "--start is a distance and must be >= 0, got -5"),
    (["noise-grid", "--stop", "-1"], "--stop is a distance and must be >= 0, got -1"),
    (["distance-sweep", "--atten-db-per-km", "nan"],
     "--atten-db-per-km must be finite and >= 0, got nan"),
    (["photon-grid", "--atten-db-per-km", "-0.2"],
     "--atten-db-per-km must be finite and >= 0, got -0.2"),
    (["satellite-sweep", "--start", "0"], "--start is sigma_b and must be > 0, got 0"),
    (["satellite-closeup", "--stop", "-1"], "--stop is sigma_b and must be > 0, got -1"),
])
def test_cli_rejects_an_invalid_axis_by_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert _usage_error(capsys, argv + ["--out", str(out)]) == message
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,extra,message", [
    ("transmissivity-sweep", "points", "0", [], "--points must be >= 1, got 0"),
    ("satellite-sweep", "nodes", "1", [], "--nodes must be >= 16, got 1"),
    ("distance-sweep", "points", "-1", [], "--points must be >= 1, got -1"),
    ("transmissivity-sweep", "log_axis", "on", [], "--log-axis needs --start > 0, got 0"),
    ("distance-sweep", "log_axis", "on", [], "--log-axis needs --start > 0, got 0"),
    ("transmissivity-sweep", "log_axis", "on", ["--start", "0.5", "--stop", "0"],
     "--log-axis needs --stop > 0, got 0"),
    ("satellite-closeup", "nodes", "15", [], "--nodes must be >= 16, got 15"),
    ("satellite-sweep", "beam_w", "nan", [], "--beam-w must be finite and > 0, got nan"),
    ("satellite-closeup", "beam_w", "inf", [], "--beam-w must be finite and > 0, got inf"),
    ("satellite-sweep", "beta_r", "-1", [], "--beta-r must be finite and > 0, got -1"),
    ("satellite-closeup", "beta_r", "0", [], "--beta-r must be finite and > 0, got 0"),
])
def test_cli_rejects_an_out_of_range_setting_by_flag(tmp_path, capsys, command, key, value,
                                                    extra, message):
    flag = "--" + key.replace("_", "-")
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg_file.write_text(f"{key} = {value}\n")
    for argv in ([flag] if key == "log_axis" else [flag, value], ["--config", str(cfg_file)]):
        assert _usage_error(capsys, [command] + argv + extra + ["--out", str(out)]) == message
        assert not out.exists()


@pytest.mark.parametrize("points", [2.5, 2.0, np.float64(3.0), "3"])
@pytest.mark.parametrize("experiment", ["transmissivity_sweep", "noise_grid", "satellite_sweep"])
def test_a_non_integer_point_count_is_refused_by_name(experiment, points):
    with pytest.raises(ValueError) as err:
        ExperimentConfig(experiment, points=points)
    assert str(err.value) == f"--points must be an integer, got {points!r}"
    assert len(ExperimentConfig(experiment, points=np.int64(3)).axis()) == 3


def test_beam_settings_are_checked_only_where_a_fading_law_reads_them():
    for experiment in ("transmissivity_sweep", "distance_sweep", "noise_grid", "photon_grid"):
        ExperimentConfig(experiment, beta_r=math.nan, beam_w=-1.0)
    with pytest.raises(ValueError, match="--beta-r must be finite and > 0, got nan"):
        ExperimentConfig("satellite_sweep", beta_r=math.nan)


def test_a_one_point_log_axis_is_its_stop(tmp_path):
    out = tmp_path / "out.csv"
    cli_main(["transmissivity-sweep", "--log-axis", "--points", "1", "--out", str(out)])
    assert [row[0] for row in parse_csv(out).rows] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("text", ["scheme =\n", "scheme = ,\n", "scheme = , ,\n"])
def test_cli_config_file_rejects_an_empty_scheme_list(tmp_path, capsys, text):
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg_file.write_text(text)
    argv = ["transmissivity-sweep", "--config", str(cfg_file), "--out", str(out)]
    assert _usage_error(capsys, argv) == "config key 'scheme' names no scheme"
    assert not out.exists()


@pytest.mark.parametrize("second", ["alpha_sq = 2", "alpha-sq = 2", "alpha_sq = 1"])
def test_cli_config_file_rejects_a_repeated_key(tmp_path, capsys, second):
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg_file.write_text(f"alpha_sq = 1\n# comment\n{second}\n")
    argv = ["transmissivity-sweep", "--config", str(cfg_file), "--out", str(out)]
    assert _usage_error(capsys, argv) == "config key 'alpha_sq' is given twice"
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("points", ""), ("points", "2.5"), ("alpha_sq", "x"),
                                       ("beta_sq_values", "0.1,x"), ("t_s", "")])
def test_cli_config_file_names_a_value_its_flag_rejects(tmp_path, capsys, key, value):
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg_file.write_text(f"{key} = {value}\n")
    argv = ["noise-grid", "--config", str(cfg_file), "--out", str(out)]
    assert _usage_error(capsys, argv) == f"config key {key!r} has an invalid value {value!r}"
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("noise-grid", "--beta-sq-values"),
                                          ("photon-grid", "--alpha-sq-values")])
def test_cli_rejects_an_empty_layer_list(tmp_path, capsys, command, flag):
    out = tmp_path / "out.csv"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{flag[2:]} =\n")
    for argv in ([flag, ","], ["--config", str(cfg_file)]):
        message = _usage_error(capsys, [command] + argv + ["--out", str(out)])
        assert message == f"{flag} must name at least one layer"
        assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("noise-grid", "--beta-sq-values", "-1"),
    ("noise-grid", "--beta-sq-values", "0.01,nan"),
    ("photon-grid", "--alpha-sq-values", "nan"),
    ("photon-grid", "--alpha-sq-values", "1.3,-inf"),
])
def test_cli_rejects_an_invalid_layer_value(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.csv"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{flag[2:]} = {value}\n")
    bad = value.split(",")[-1]
    for argv in ([f"{flag}={value}"], ["--config", str(cfg_file)]):
        message = _usage_error(capsys, [command] + argv + ["--out", str(out)])
        assert message == f"{flag} must be finite and >= 0, got {bad}"
        assert not out.exists()


def test_cli_rejects_beta_sq_out_of_range_by_name(tmp_path, capsys):
    # nops and tps once wrote nan cells here and exited 0; key_rates_many refuses
    # it before its bound call, and the CLI reports that as a usage error
    out = tmp_path / "out.csv"
    for argv in (["distance-sweep", "--beta-sq", "1e200", "--points", "3"],
                 ["noise-grid", "--beta-sq-values", "0.001,1e3", "--points", "3"],
                 ["noise-grid", "--beta-sq-values", "0.0001,0.001,0.01,0.05,1e3"],
                 ["satellite-sweep", "--beta-sq", "1e3", "--points", "2"]):
        message = _usage_error(capsys, argv + ["--out", str(out)])
        assert re.match(r"^beta_sq=(1e\+200|1000) out of range: > 100, where the bound "
                        r"loses its precision next to T_E = 1$", message), message
        assert not out.exists()
    with pytest.raises(ValueError, match=r"^beta_sq=1000 out of range"):
        key_rates(SchemeConfig("nops", beta_sq=1e3), [0.5])  # library callers too


@pytest.mark.parametrize("argv", [
    ["transmissivity-sweep", "--alpha-sq", "1e9", "--points", "3"],
    ["photon-grid", "--alpha-sq-values", "1,1e9", "--points", "3"],
    ["satellite-sweep", "--scheme", "rps", "--alpha-sq", "1e9", "--points", "2"],
])
def test_cli_rejects_alpha_sq_out_of_range_by_name(tmp_path, capsys, argv):
    # V_A depends on the scheme, and for rps on T_E, so only the run can judge an
    # alpha_sq; its refusal is a usage error too, with key_rates_many's message
    out = tmp_path / "out.csv"
    message = _usage_error(capsys, argv + ["--out", str(out)])
    assert re.match(r"^alpha_sq=1e\+09 out of range: V_A = \S+ > 1e\+09, where the bound "
                    r"loses its precision$", message), message
    assert not out.exists()


def test_a_run_refuses_a_setting_past_its_physical_range(monkeypatch):
    # these configs construct: the run alone refuses each, before any bound call,
    # by the message of key_rates_many (beta_sq) or weibull_params (fading law)
    refused = [
        (ExperimentConfig("distance_sweep", base=SchemeConfig("nops", beta_sq=1e200), points=3),
         r"^beta_sq=1e\+200 out of range: > 100"),
        (ExperimentConfig("noise_grid", beta_sq_values=(0.1, 200.0)),
         r"^beta_sq=200 out of range: > 100"),
        (ExperimentConfig("satellite_closeup", points=1, beta_r=1e200, beam_w=1e-200),
         r"^degenerate beam geometry \(beta_r=1e\+200, w=1e-200"),
        (ExperimentConfig("satellite_sweep", start=1e-200, points=3),
         r"^sigma_b=1e-200 out of range"),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(keyrate_mod, "key_rate_from_summary", None)  # a call would raise TypeError
        for config, pattern in refused:
            with pytest.raises(ValueError, match=pattern):
                run_experiment(config)
    # the layers overwrite the base beta_sq, so they alone run
    config = ExperimentConfig("noise_grid", base=SchemeConfig("nops", beta_sq=1e200))
    rows = run_experiment(config).rows
    assert {row[0] for row in rows} == set(sweeps_mod.DEFAULT_BETA_SQ_VALUES)
    # one point is stop alone, as the axis has it
    rows = run_experiment(ExperimentConfig("satellite_sweep", start=1e-200, points=1)).rows
    assert [row[0] for row in rows] == [20.0, 20.0, 20.0]


@pytest.mark.parametrize("command", ["transmissivity-sweep", "distance-sweep", "noise-grid"])
def test_cli_strong_noise_reaching_full_transmission_gives_finite_cells(tmp_path, command):
    # each sweep holds T_E = 1, where Eve's block is a pure TMSV (nu+ = nu-)
    flag = ["--beta-sq-values", "0.001,10"] if command == "noise-grid" else ["--beta-sq", "10"]
    out = tmp_path / "out.csv"
    cli_main([command, *flag, "--points", "6", "--out", str(out)])
    rows = parse_csv(out).rows
    assert rows and all(math.isfinite(v) for row in rows for v in row if isinstance(v, float))


_SWITCH_RUNS = {"log_axis": ["transmissivity-sweep", "--start", "0.1", "--stop", "0.5",
                             "--points", "2"],
                "clamp_negative": ["satellite-closeup", "--scheme", "nops", "--points", "1",
                                   "--nodes", "16"]}


@pytest.mark.parametrize("key", sorted(_SWITCH_RUNS))
def test_cli_config_file_switch_words(tmp_path, capsys, key):
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    for word, on in (("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                     ("0", False), ("False", False), ("NO", False), ("off", False)):
        cfg_file.write_text(f"{key} = {word}\n")
        cli_main(_SWITCH_RUNS[key] + ["--config", str(cfg_file), "--out", str(out)])
        assert parse_csv(out).metadata[key] == ("true" if on else "false"), word
    out.unlink()
    cfg_file.write_text(f"{key} = ture\n")
    capsys.readouterr()  # the runs above print their row counts
    message = _usage_error(capsys, _SWITCH_RUNS[key] + ["--config", str(cfg_file),
                                                        "--out", str(out)])
    assert repr(key) in message and "'ture'" in message
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(e.replace("_", "-") for e in sweeps_mod.EXPERIMENTS))
def test_cli_defaults_are_the_dataclass_defaults(command):
    experiment = command.replace("-", "_")
    start, stop, points = sweeps_mod.EXPERIMENTS[experiment].default
    parser, _ = cli.build_parser()
    assert cli.config_from_args(parser.parse_args([command])) == ExperimentConfig(
        experiment, start=start, stop=stop, points=points)


@pytest.mark.parametrize("command,settings", [
    ("photon-grid", {"scheme": "tps,rps", "beta_sq": "0.01", "t_s": "0.8",
                     "recon_eff": "0.9", "trunc": "8", "start": "1", "stop": "50",
                     "points": "3", "log_axis": "true", "threads": "2",
                     "atten_db_per_km": "0.3", "alpha_sq_values": "0.5,1"}),
    ("satellite-closeup", {"scheme": "nops", "start": "0.2", "stop": "0.6", "points": "2",
                           "beta_r": "1.5", "beam_w": "0.8", "nodes": "16",
                           "clamp_negative": "off"}),
])
def test_cli_config_file_reads_like_the_flags(tmp_path, command, settings):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    flags = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if key == "scheme":
            flags += [a for s in value.split(",") for a in (flag, s)]
        elif value in ("true", "off"):
            flags.append(flag if value == "true" else "--no-" + flag[2:])
        else:
            flags += [flag, value]
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    cli_main([command, "--config", str(cfg_file), "--out", str(from_file)])
    cli_main([command] + flags + ["--out", str(from_flags)])
    assert from_file.read_bytes() == from_flags.read_bytes()
    assert parse_csv(from_file).metadata["schemes"] == settings["scheme"]


def test_satellite_rows_do_not_depend_on_the_node_call_size(monkeypatch):
    config = small_config("satellite_sweep", points=7)
    whole = run_experiment(config).rows
    monkeypatch.setattr(sweeps_mod, "_POINTS_PER_CALL", 3 * 24)  # 3 models per call
    assert run_experiment(config).rows == whole


_FIXED_LINK = ["transmissivity-sweep", "distance-sweep", "noise-grid", "photon-grid"]


@pytest.mark.parametrize("command", _FIXED_LINK)
def test_a_fixed_link_request_makes_one_bound_call(monkeypatch, tmp_path, command):
    sizes = []
    real = keyrate_mod.key_rate_from_summary
    monkeypatch.setattr(keyrate_mod, "key_rate_from_summary",
                        lambda s, f, t: sizes.append(len(s.v_a)) or real(s, f, t))
    out = tmp_path / "out.csv"
    cli_main([command, "--out", str(out)])
    assert sizes == [len(parse_csv(out).rows)]  # every layer and scheme in one call


@pytest.mark.parametrize("experiment,cap,calls", [
    ("noise_grid", 3, 10),  # a block above the cap is one call on its own
    ("noise_grid", 5, 10),
    ("noise_grid", 12, 5),
    ("photon_grid", 20, 3),
    ("transmissivity_sweep", 9, 2),
])
def test_fixed_link_rows_do_not_depend_on_the_point_cap(monkeypatch, tmp_path, experiment,
                                                         cap, calls):
    config = small_config(experiment)  # 5 points, nops and tps
    whole, capped = tmp_path / "whole.csv", tmp_path / "capped.csv"
    emit_csv(run_experiment(config), whole)
    sizes = []
    real = keyrate_mod.key_rate_from_summary
    monkeypatch.setattr(keyrate_mod, "key_rate_from_summary",
                        lambda s, f, t: sizes.append(len(s.v_a)) or real(s, f, t))
    monkeypatch.setattr(sweeps_mod, "_POINTS_PER_CALL", cap)
    emit_csv(run_experiment(config), capped)
    assert capped.read_bytes() == whole.read_bytes()
    assert len(sizes) == calls and max(sizes) <= max(cap, 5)


# A changed value for each flag; --start and --stop move inside the window
# below, and a switch flips.  A flag missing here fails the test below.
_CHANGED = {"scheme": "tps", "alpha_sq": "2", "beta_sq": "0.01", "t_s": "0.8",
            "recon_eff": "0.9", "points": "4", "atten_db_per_km": "0.3",
            "beta_sq_values": "0.01", "alpha_sq_values": "0.7", "beta_r": "1.5",
            "beam_w": "0.8", "nodes": "16"}
_WINDOW = {"t_e": (0.2, 0.8), "distance_km": (10.0, 100.0), "sigma_b": (0.2, 2.0)}
# --out and --config choose where the CSV goes and where flags come from;
# --trunc and --threads change no row and stay only because the benchmark
# harness still sends them (ROADMAP item 3)
_NO_ROW_EFFECT = {"help", "out", "config", "trunc", "threads"}


@pytest.mark.parametrize("experiment", sorted(sweeps_mod.EXPERIMENTS))
def test_every_flag_changes_the_rows(tmp_path, experiment):
    # a grid offers no flag for the field its layers overwrite
    command, out = experiment.replace("_", "-"), tmp_path / "out.csv"
    lo, hi = _WINDOW[sweeps_mod.EXPERIMENTS[experiment].axis]
    changed = {**_CHANGED, "start": repr(1.5 * lo), "stop": repr(0.9 * hi)}

    def rows(argv):
        cli_main([command, "--start", repr(lo), "--stop", repr(hi), "--points", "3", *argv,
                  "--out", str(out)])
        return parse_csv(out).rows

    base = rows([])
    _, commands = cli.build_parser()
    for action in commands[command]._actions:
        if action.dest in _NO_ROW_EFFECT:
            continue
        if action.nargs == 0:  # --log-axis, --clamp-negative/--no-clamp-negative
            argv = [action.option_strings[-1 if action.default else 0]]
        else:
            argv = [action.option_strings[0], changed[action.dest]]
        assert rows(argv) != base, argv


@pytest.mark.parametrize("command,key,value", [
    ("transmissivity-sweep", "scheme", "tps,nops,tps"),
    ("noise-grid", "beta_sq_values", "0.1,0.1"),
    ("photon-grid", "alpha_sq_values", "1.3,2,1.3"),
])
def test_cli_rejects_repeats_by_flag(tmp_path, capsys, command, key, value):
    # each repeat would write its rows twice under the same key
    flag, repeated = "--" + key.replace("_", "-"), value.split(",")[-1]
    cfg_file, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg_file.write_text(f"{key} = {value}\n")
    flags = ([a for s in value.split(",") for a in (flag, s)] if key == "scheme"
             else [flag, value])
    for argv in (flags, ["--config", str(cfg_file)]):
        message = _usage_error(capsys, [command] + argv + ["--out", str(out)])
        assert message == f"{flag} repeats {repeated}"
        assert not out.exists()


@pytest.mark.parametrize("argv,pattern", [
    (["transmissivity-sweep", "--scheme", "nops", "--alpha-sq", "1e8",
      "--start", "0.99999999", "--stop", "0.9999999999", "--points", "5"],
     r"Cauchy-Schwarz bound \(scheme=nops, t_e=0\.9999999999\)$"),
    (["satellite-sweep", "--scheme", "tps", "--alpha-sq", "1e8", "--t-s", "0.99999999",
      "--beta-r", "3"],
     r"^rate curve not resolved at eta0=1: eta in \[0\.9\d+, 0\.99999999\d+\], where the "
     r"bound's rounding noise is \d\.\de-0\d of the curve's scale$"),
], ids=["fixed", "fading"])
def test_cli_bound_failure_names_its_element(tmp_path, argv, pattern):
    # strong sources next to T_E = 1, inside the alpha_sq guard (V_A <= 1e9): the
    # bound fails at a point, and its rounding noise swamps the fading rate curve
    out = tmp_path / "out.csv"
    with pytest.raises(NumericalDomainError, match=pattern):
        cli_main(argv + ["--out", str(out)])
    assert not out.exists()


def test_a_fading_refusal_names_eta0_and_its_interval_once(tmp_path):
    # every sigma_b of the geometry reads one rate curve, refused once for all of
    # them: the message names eta0 and the eta interval, and no sigma_b or node
    out = tmp_path / "out.csv"
    with pytest.raises(NumericalDomainError) as err:
        cli_main(["satellite-sweep", "--scheme", "tps", "--alpha-sq", "1e8",
                  "--t-s", "0.99999999", "--beta-r", "3", "--out", str(out)])
    message = str(err.value)
    assert message.count("eta0=") == 1 and message.count("eta in [") == 1
    assert "sigma_b" not in message and "node" not in message and "T_E=" not in message
    assert not out.exists()


def test_a_grid_has_no_flag_for_its_layered_field(tmp_path, capsys):
    for command, flag in (("noise-grid", "--beta-sq"), ("photon-grid", "--alpha-sq")):
        _, commands = cli.build_parser()
        assert flag not in commands[command].format_help().split()
        with pytest.raises(SystemExit):  # not read as an abbreviation of --*-values
            cli_main([command, flag, "2", "--out", str(tmp_path / "out.csv")])
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_an_unknown_flag_exits_2_and_names_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["satellite-sweep", "--no-such-flag", "--out", str(tmp_path / "out.csv")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    # the command's own parser reports it, under its own name
    assert "cvqkd-ps satellite-sweep: error: unrecognized arguments: --no-such-flag" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [[], ["-h"], ["no-such-command"], ["--points", "2"]])
def test_no_known_command_first_exits_with_the_full_usage(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    out = capsys.readouterr()
    assert exit_.value.code == (0 if argv == ["-h"] else 2)
    assert (out.out + out.err).startswith("usage: cvqkd-ps [-h]")


def test_config_file_flags_before_and_after_the_command_options(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("scheme = tps\npoints = 3\nstop = 0.9\nalpha_sq = 2\n")
    flags = ["--points", "2", "--start", "0.5"]
    outs = []
    for i in (0, 2, 4):  # --config before, between and after the flags
        out = tmp_path / f"cfg-{i}.csv"
        cli_main(["transmissivity-sweep"] + flags[:i] + ["--config", str(cfg_file)]
                 + flags[i:] + ["--out", str(out)])
        outs.append(out.read_bytes())
    assert len(set(outs)) == 1
    md = parse_csv(tmp_path / "cfg-0.csv").metadata
    assert (md["points"], md["start"], md["stop"], md["alpha_sq"], md["schemes"]) == (
        "2", "0.5", "0.9", "2", "tps")
