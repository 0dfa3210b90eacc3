import math

import pytest

import cvqkd_ps.sweeps as sweeps_mod
from cvqkd_ps import (
    ExperimentConfig,
    QuadratureSpec,
    SchemeConfig,
    emit_csv,
    key_rate,
    parse_csv,
    run_experiment,
)
from cvqkd_ps import cli
from cvqkd_ps.cli import main as cli_main


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
    paths = []
    for threads in (1, 4):
        config = small_config(experiment, threads=threads)
        p = tmp_path / f"{experiment}-{threads}.csv"
        emit_csv(run_experiment(config), p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


def test_cli_rejects_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    with pytest.raises(ValueError):
        cli_main(["transmissivity-sweep", "--config", str(bad)])


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
def test_cli_rejects_an_invalid_axis_by_flag(tmp_path, argv, message):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError) as err:
        cli_main(argv + ["--out", str(out)])
    assert str(err.value) == message
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("noise-grid", "--beta-sq-values"),
                                          ("photon-grid", "--alpha-sq-values")])
def test_cli_rejects_an_empty_layer_list(tmp_path, command, flag):
    out = tmp_path / "out.csv"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{flag[2:]} =\n")
    for argv in ([flag, ","], ["--config", str(cfg_file)]):
        with pytest.raises(ValueError) as err:
            cli_main([command] + argv + ["--out", str(out)])
        assert str(err.value) == f"{flag} must name at least one layer"
        assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli._EXPERIMENT_FOR_COMMAND))
def test_cli_defaults_are_the_dataclass_defaults(command):
    experiment = cli._EXPERIMENT_FOR_COMMAND[command]
    start, stop, points = sweeps_mod.DEFAULT_AXES[experiment]
    parser, _ = cli.build_parser()
    assert cli.config_from_args(parser.parse_args([command])) == ExperimentConfig(
        experiment, start=start, stop=stop, points=points)


@pytest.mark.parametrize("command,settings", [
    ("photon-grid", {"scheme": "tps,rps", "alpha_sq": "2", "beta_sq": "0.01", "t_s": "0.8",
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
    monkeypatch.setattr(sweeps_mod, "_NODES_PER_CALL", 3 * 24)  # 3 models per call
    assert run_experiment(config).rows == whole
