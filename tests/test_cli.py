import numpy as np
import pytest

from qmfc.cli import (
    _OPTIONS,
    build_parser,
    format_value,
    load_config_file,
    main,
    manifest_path,
    resolve_args,
)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def read_manifest(path):
    entries = {}
    for line in path.read_text().strip().split("\n"):
        key, value = line.split(" = ", 1)
        entries[key] = value
    return entries


def test_format_value_full_precision():
    x = 0.8392857142857142
    assert float(format_value(x)) == x
    assert format_value(3) == "3"
    assert format_value("abc") == "abc"


def test_load_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "p = 0.2\n"
        "theta-points = 5   # inline comment\n"
        "\n"
        "seed=9\n"
    )
    values = load_config_file(cfg)
    assert values == {"p": "0.2", "theta_points": "5", "seed": "9"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        load_config_file(bad)


def test_resolve_args_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.3\nkappa = 0.6\n")
    parser = build_parser()
    args = resolve_args(
        parser.parse_args(["--experiment", "fig1", "--config", str(cfg), "--p", "0.2"])
    )
    assert args.p == 0.2          # flag beats config
    assert args.kappa == 0.6      # config beats default
    assert args.theta_points == 181  # built-in default
    assert args.seed == 0
    assert args.out == "fig1.csv"


def test_fig1_run(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(["--experiment", "fig1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["theta", "i_f_p", "n_e_p", "n_e_v"]
    assert rows.shape == (181, 4)
    assert rows[0, 1] == pytest.approx(0.8392857142857142, abs=1e-12)
    mid = rows[90]
    assert mid[0] == pytest.approx(np.pi / 2)
    assert mid[1] == pytest.approx(0.865, abs=1e-12)
    assert mid[2] == pytest.approx(0.08, abs=1e-12)
    manifest = read_manifest(tmp_path / "fig1.csv.manifest.txt")
    assert manifest["experiment"] == "fig1"
    assert float(manifest["max_i_f_p"]) == pytest.approx(0.865)
    assert float(manifest["argmax_theta"]) == pytest.approx(np.pi / 2)


def test_fig1_flags_change_output(tmp_path):
    out = tmp_path / "flat.csv"
    code = main([
        "--experiment", "fig1", "--out", str(out), "--kappa", "0.5",
        "--p", "0.3", "--theta-points", "7",
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert rows.shape == (7, 4)
    assert np.allclose(rows[:, 1], 0.58, atol=1e-12)  # uninformative: flat sweep


def test_zeno_run(tmp_path):
    out = tmp_path / "zeno.csv"
    code = main([
        "--experiment", "zeno", "--out", str(out), "--m-list", "2,10",
        "--runs", "2000", "--seed", "1",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["M", "empirical_rate", "ci95_low", "ci95_high", "analytic_rate"]
    assert rows[0, 4] == pytest.approx(0.25)
    assert rows[1, 4] == pytest.approx(0.7805460697811408)
    for row in rows:
        p = row[4]
        sigma = np.sqrt(p * (1 - p) / 2000)
        assert abs(row[1] - p) < 4 * sigma
        assert row[2] <= row[1] <= row[3]


def test_zeno_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main([
            "--experiment", "zeno", "--out", str(out), "--m-list", "5",
            "--runs", "500", "--seed", "3",
        ]) == 0
    assert a.read_text() == b.read_text()


def test_fig2_smoke(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main([
        "--experiment", "fig2", "--out", str(out), "--realizations", "4",
        "--t-end", "0.05", "--dt", "1e-3", "--theta-points", "3", "--seed", "5",
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["theta", "purity_mean", "purity_se", "overlap_mean", "overlap_se"]
    assert rows.shape == (3, 5)
    assert rows[0, 0] == 0.0
    assert rows[-1, 0] == pytest.approx(np.pi / 2)
    assert np.all(rows[:, 1] <= 1 + 1e-9)
    manifest = read_manifest(tmp_path / "fig2.csv.manifest.txt")
    assert manifest["experiment"] == "fig2"
    assert manifest["realizations"] == "4"


def test_rates_smoke(tmp_path):
    out = tmp_path / "rates.csv"
    code = main(["--experiment", "rates", "--out", str(out), "--k-list", "1"])
    assert code == 0
    header, rows = read_csv(out)
    assert header[0] == "k" and "ratio_p" in header
    k, rate_p = rows[0, 0], rows[0, 1]
    assert k == 1.0
    assert rows[0, 5] == pytest.approx(64.0)   # printed closed form
    assert abs(rate_p / 16.0 - 1.0) < 0.1      # numeric tracks the expansion value
    manifest = read_manifest(tmp_path / "rates.csv.manifest.txt")
    assert float(manifest["ito_oracle_rate_p_at_k1"]) == pytest.approx(16.0)


def test_exit_codes(tmp_path):
    # config error: unreadable config file
    assert main(["--experiment", "fig1", "--config", str(tmp_path / "missing.cfg")]) == 2
    # config error: invalid parameter value
    out = tmp_path / "x.csv"
    assert main(["--experiment", "fig1", "--out", str(out), "--p", "0.0"]) == 2
    assert main(["--experiment", "fig1", "--out", str(out), "--kappa", "1.5"]) == 2
    assert not out.exists()
    assert main(["--experiment", "fig2", "--out", str(out), "--mu", "-1"]) == 2
    # i/o error: unwritable output location
    assert main(["--experiment", "fig1", "--out", str(tmp_path / "no" / "dir.csv")]) == 4
    # numerical failure: absurd step size in the stochastic integrator
    with pytest.warns(UserWarning):
        code = main([
            "--experiment", "fig2", "--out", str(out), "--realizations", "2",
            "--dt", "0.04", "--t-end", "4.0", "--theta-points", "2", "--k", "1",
        ])
    assert code == 3


def test_manifest_path():
    assert manifest_path("runs/fig1.csv") == "runs/fig1.csv.manifest.txt"


def test_negative_seed_is_a_config_error(tmp_path):
    out = tmp_path / "x.csv"
    for argv in (
        ["--experiment", "fig2", "--realizations", "4", "--t-end", "0.002",
         "--theta-points", "2"],
        ["--experiment", "rates", "--k-list", "1"],
        ["--experiment", "zeno", "--m-list", "2", "--runs", "10"],
    ):
        assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--k", "--beta", "--mu", "--dt"])
def test_non_finite_physics_is_a_config_error(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    argv = ["--experiment", "fig2", "--realizations", "4", "--t-end", "0.002",
            "--theta-points", "2", "--out", str(out)]
    assert main(argv + [flag, "nan"]) == 2
    assert not out.exists()
    assert not (tmp_path / "x.csv.manifest.txt").exists()
    assert flag.lstrip("-") in capsys.readouterr().err


def test_t_end_off_the_step_grid_is_a_config_error(tmp_path, capsys):
    # 1e-5 is a tenth of the default dt, and 1.5e-4 one and a half steps
    out = tmp_path / "x.csv"
    for t_end in ("1e-5", "1.5e-4"):
        argv = ["--experiment", "fig2", "--realizations", "4", "--t-end", t_end,
                "--theta-points", "2", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest.txt").exists()
        assert "t_end" in capsys.readouterr().err


def test_counts_below_one_are_config_errors(tmp_path):
    out = tmp_path / "x.csv"
    for argv in (
        ["--experiment", "zeno", "--m-list", "2", "--runs", "0"],
        ["--experiment", "zeno", "--m-list", "2", "--runs", "-3"],
        ["--experiment", "fig1", "--theta-points", "0"],
        ["--experiment", "fig2", "--theta-points", "0", "--realizations", "4",
         "--t-end", "0.002"],
        ["--experiment", "fig2", "--theta-points", "2", "--realizations", "0",
         "--t-end", "0.002"],
    ):
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest.txt").exists()


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta_pionts = 5\nrealisations = 3\n")
    out = tmp_path / "x.csv"
    assert main(["--experiment", "fig1", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "x.csv.manifest.txt").exists()
    err = capsys.readouterr().err
    assert str(cfg) in err and "theta_pionts" in err


def test_threads_below_one_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for threads in ("0", "-5"):
        assert main(["--experiment", "fig1", "--theta-points", "3", "--threads", threads,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest.txt").exists()
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err


def test_config_key_set_twice_is_a_config_error(tmp_path, capsys):
    # theta-points and theta_points name the same key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.2\ntheta-points = 5\n# the same key again\ntheta_points = 7\n")
    out = tmp_path / "x.csv"
    assert main(["--experiment", "fig1", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "x.csv.manifest.txt").exists()
    assert f"{cfg}:4: key 'theta_points' is set twice" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["nan", "inf"])
def test_non_finite_rate_k_is_a_config_error(tmp_path, capsys, k):
    out = tmp_path / "x.csv"
    assert main(["--experiment", "rates", "--k-list", f"1,{k}", "--out", str(out)]) == 2
    assert not out.exists()
    assert not (tmp_path / "x.csv.manifest.txt").exists()
    assert f"k must be non-negative and finite, got {k}" in capsys.readouterr().err


def test_config_file_may_hold_another_experiments_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.3\ntheta_points = 7\nrealizations = 4\nmu = 5\n")
    out = tmp_path / "fig1.csv"
    assert main(["--experiment", "fig1", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows.shape == (7, 4)
    manifest = read_manifest(tmp_path / "fig1.csv.manifest.txt")
    assert manifest["p"] == "0.29999999999999999"
    assert "realizations" not in manifest and "mu" not in manifest


@pytest.mark.parametrize("argv", [
    ["--experiment", "fig1", "--theta-points", "5"],
    ["--experiment", "fig2", "--realizations", "4", "--t-end", "0.002", "--theta-points", "2"],
    ["--experiment", "zeno", "--m-list", "2,3", "--runs", "10"],
    ["--experiment", "rates", "--k-list", "0"],
], ids=lambda argv: argv[1])
def test_manifest_records_every_resolved_setting(tmp_path, argv):
    # seed from a config file, threads from a flag, the rest flags or defaults
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\n")
    out = tmp_path / "run.csv"
    argv = argv + ["--config", str(cfg), "--threads", "2", "--out", str(out)]
    assert main(argv) == 0
    manifest = read_manifest(tmp_path / "run.csv.manifest.txt")
    resolved = vars(resolve_args(build_parser().parse_args(argv)))
    assert resolved["seed"] == 4 and resolved["threads"] == 2
    settings = [*_OPTIONS[argv[1]], "seed", "threads"]
    keys = list(manifest)
    assert keys[:2] == ["experiment", "version"]
    assert keys[2:2 + len(settings)] == settings
    assert keys[2 + len(settings)] == "duration_s"
    assert {key: manifest[key] for key in settings} == {
        key: format_value(resolved[key]) for key in settings
    }
