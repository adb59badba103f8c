"""CLI subcommands: outputs, determinism, precedence and error handling."""

import warnings

import numpy as np
import pytest

import relkin.cli as cli
import relkin.config as config
import relkin.harness as harness
from relkin import (
    EstimationError,
    MeasurementSet,
    SimConfig,
    benchmark_trajectory,
    simulate_measurements,
)
from relkin.bundle_io import read_measurement_bundle, write_measurement_bundle
from relkin.cli import main
from relkin.config import load_scenario


def run_cli(args):
    return main(args)


class TestSimulate:
    def test_writes_bundle(self, tmp_path, capsys):
        assert run_cli(["simulate", "--output", str(tmp_path), "--set", "k_samples=6"]) == 0
        for name in ("timestamps.csv", "edms.csv", "accels.csv"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "timestamps.csv" in out

    def test_repeat_run_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--seed", "42", "--set", "k_samples=6"]
        assert run_cli(args + ["--output", str(dir_a)]) == 0
        assert run_cli(args + ["--output", str(dir_b)]) == 0
        for name in ("timestamps.csv", "edms.csv", "accels.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELKIN_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert run_cli(["simulate", "--set", "k_samples=6"]) == 0
        assert (tmp_path / "from_env" / "edms.csv").exists()


class TestEstimate:
    @pytest.fixture
    def bundle(self, tmp_path):
        out = tmp_path / "bundle"
        run_cli(
            [
                "simulate",
                "--output",
                str(out),
                "--set",
                "sigma_d=0.0",
                "--set",
                "sigma_a=0.0",
                "--set",
                "k_samples=20",
            ]
        )
        return out

    @pytest.mark.parametrize("method", ["distance", "accel"])
    def test_zero_noise_residuals_small(self, bundle, tmp_path, method):
        out = tmp_path / f"est_{method}"
        code = run_cli(
            ["estimate", "--bundle", str(bundle), "--method", method, "--output", str(out)]
        )
        assert code == 0
        diag = (out / "diagnostics.txt").read_text()
        residual_lines = [line for line in diag.splitlines() if line.startswith("residual")]
        assert residual_lines
        for line in residual_lines:
            assert float(line.split("=")[1]) <= 1e-6

    def test_estimate_csv_structure(self, bundle, tmp_path):
        out = tmp_path / "est"
        run_cli(["estimate", "--bundle", str(bundle), "--output", str(out)])
        lines = (out / "estimate.csv").read_text().strip().splitlines()
        assert lines[0] == "block,row,col,value"
        assert len(lines) == 1 + 3 * 20 + 4

    def test_missing_bundle_is_clean_error(self, tmp_path, capsys):
        code = run_cli(["estimate", "--bundle", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_accel_method_without_accel_file(self, bundle, tmp_path, capsys):
        (bundle / "accels.csv").unlink()
        code = run_cli(
            ["estimate", "--bundle", str(bundle), "--method", "accel",
             "--output", str(tmp_path / "est")]
        )
        assert code == 1
        assert "accelerometer" in capsys.readouterr().err

    def test_accel_axis_count_other_than_dim_is_clean_error(self, bundle, tmp_path, capsys):
        meas = read_measurement_bundle(bundle)
        meas.accels = np.concatenate([meas.accels, meas.accels[:, :1]], axis=1)
        write_measurement_bundle(meas, bundle)
        code = run_cli(
            ["estimate", "--bundle", str(bundle), "--method", "accel",
             "--output", str(tmp_path / "est")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "3 axes" in err
        assert "Traceback" not in err

    def test_negative_squared_distance_is_clean_error(self, bundle, tmp_path, capsys):
        path = bundle / "edms.csv"
        header, first, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, first.rsplit(",", 1)[0] + ",-5.0", *rows]) + "\n")
        out = tmp_path / "est"
        code = run_cli(["estimate", "--bundle", str(bundle), "--method", "distance",
                        "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nonnegative" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["distance", "accel"])
    def test_overflowing_bundle_is_one_clean_error(self, tmp_path, capsys, method):
        meas = simulate_measurements(SimConfig(k_samples=10, seed=1), benchmark_trajectory())
        bundle = tmp_path / "huge"
        write_measurement_bundle(
            MeasurementSet(meas.timestamps, meas.pairs * 1e301, meas.accels), bundle
        )
        out = tmp_path / "est"
        # a warning that reached the CLI would print its own lines to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                ["estimate", "--bundle", str(bundle), "--method", method, "--output", str(out)]
            )
        assert code == 1
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: stage 'coefficient-fit': ")
        assert not out.exists()

    @pytest.mark.parametrize("method,degree", [("distance", 4), ("accel", 3)])
    def test_too_short_time_grid_is_one_clean_error(self, tmp_path, capsys, method, degree):
        bundle = tmp_path / "short"
        grid = ["--set", "t_start=-1e-300", "--set", "t_end=1e-300"]
        assert run_cli(["simulate", "--output", str(bundle), *grid]) == 0
        capsys.readouterr()
        out = tmp_path / "est"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                ["estimate", "--bundle", str(bundle), "--method", method, "--output", str(out)]
            )
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: stage 'coefficient-fit': time grid too short for a degree-{degree} fit: "
            f"its largest |t| is 1e-300, whose power {degree} underflows float64"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "method,residuals,conditioning",
        [
            (
                "distance",
                ["edm_fit", "velocity_split", "acceleration_split", "basis"],
                ["position_mds", "acceleration_mds", "velocity_split", "acceleration_split",
                 "basis"],
            ),
            (
                "accel",
                ["accel_fit", "edm_fit", "velocity_split", "acceleration_split", "basis"],
                ["position_mds", "velocity_split", "acceleration_split", "basis"],
            ),
        ],
    )
    def test_diagnostics_keys_are_pinned(self, bundle, tmp_path, method, residuals, conditioning):
        # renaming, adding or reordering a diagnostic must be a deliberate edit here
        out = tmp_path / "est"
        code = run_cli(["estimate", "--bundle", str(bundle), "--method", method,
                        "--output", str(out)])
        assert code == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        keys = [line.split()[:2] for line in lines if not line.startswith("warning:")]
        assert keys == [["residual", k] for k in residuals] + [
            ["conditioning", k] for k in conditioning
        ]


def _existing_file_as_output(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["simulate", "--set", "k_samples=6", "--output", str(tmp_path / "taken")]


def _file_as_bundle(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["estimate", "--bundle", str(tmp_path / "taken"), "--output", str(tmp_path / "est")]


def _directory_as_config(tmp_path):
    return ["simulate", "--config", str(tmp_path), "--output", str(tmp_path / "out")]


def _undecodable_bundle(tmp_path):
    bundle = tmp_path / "bundle"
    assert run_cli(["simulate", "--set", "k_samples=6", "--output", str(bundle)]) == 0
    (bundle / "edms.csv").write_bytes(b"k,i,j,value\n0,0,1,\xff\n")
    return ["estimate", "--bundle", str(bundle), "--output", str(tmp_path / "est")]


def _undecodable_config(tmp_path):
    (tmp_path / "bad.cfg").write_bytes(b"seed = \xff\n")
    return ["simulate", "--config", str(tmp_path / "bad.cfg"), "--output", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "make_args",
    [
        _existing_file_as_output,
        _file_as_bundle,
        _directory_as_config,
        _undecodable_bundle,
        _undecodable_config,
    ],
)
def test_file_system_errors_are_clean(make_args, tmp_path, capsys):
    args = make_args(tmp_path)
    capsys.readouterr()
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


class TestBenchmark:
    def test_k_sweep_in_output(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            [
                "benchmark",
                "--output",
                str(out),
                "--trials",
                "2",
                "--k-sweep",
                "6,8",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        text = (out / "rmse.csv").read_text()
        ks = {int(line.split(",")[1]) for line in text.strip().splitlines()[1:]}
        assert ks == {6, 8}
        assert (out / "time_sweep.csv").exists()
        assert (out / "failures.csv").read_text() == "k,failures,n_trials\n6,0,2\n8,0,2\n"

    def test_failure_threshold_enforced(self, tmp_path, monkeypatch, capsys):
        def always_fails(meas, d=2):
            raise EstimationError("stage 'synthetic': injected failure")

        monkeypatch.setitem(harness._ESTIMATORS, "distance", always_fails)
        out = tmp_path / "bench"
        args = ["benchmark", "--trials", "5", "--k-sweep", "6", "--seed", "2", "--method"]
        code = run_cli(args + ["distance", "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "threshold" in err
        # no trial survived, so only the failure counts are written
        assert sorted(p.name for p in out.iterdir()) == ["failures.csv"]
        assert (out / "failures.csv").read_text() == "k,failures,n_trials\n6,5,5\n"

    def test_tables_written_before_threshold_error(self, tmp_path, monkeypatch, capsys):
        estimator = harness._ESTIMATORS["distance"]

        def fails_at_k6(meas, d=2):
            if meas.timestamps.size == 7:
                raise EstimationError("stage 'synthetic': injected failure")
            return estimator(meas, d)

        monkeypatch.setitem(harness._ESTIMATORS, "distance", fails_at_k6)
        out = tmp_path / "bench"
        args = ["benchmark", "--trials", "2", "--k-sweep", "6,8", "--method", "distance"]
        assert run_cli(args + ["--output", str(out)]) == 1
        assert "K=6 (threshold 1%)" in capsys.readouterr().err
        ks = {line.split(",")[1] for line in (out / "rmse.csv").read_text().splitlines()[1:]}
        assert ks == {"8"}
        assert (out / "time_sweep.csv").exists()
        assert (out / "failures.csv").read_text() == "k,failures,n_trials\n6,2,2\n8,0,2\n"

    def test_repeat_run_byte_identical(self, tmp_path):
        args = ["benchmark", "--trials", "2", "--k-sweep", "6", "--seed", "7"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--output", str(dir_a)]) == 0
        assert run_cli(args + ["--output", str(dir_b)]) == 0
        assert (dir_a / "rmse.csv").read_bytes() == (dir_b / "rmse.csv").read_bytes()
        assert (dir_a / "time_sweep.csv").read_bytes() == (dir_b / "time_sweep.csv").read_bytes()

    def test_single_method_restriction(self, tmp_path):
        out = tmp_path / "bench"
        run_cli(
            [
                "benchmark",
                "--output",
                str(out),
                "--trials",
                "2",
                "--k-sweep",
                "6",
                "--method",
                "distance",
            ]
        )
        methods = {
            line.split(",")[0]
            for line in (out / "rmse.csv").read_text().strip().splitlines()[1:]
        }
        assert methods == {"distance"}


    @pytest.mark.parametrize(
        "args,key",
        [
            (["benchmark", "--k-sweep", "-5"], "k_sweep"),
            (["benchmark", "--k-sweep", "3,10"], "k_sweep"),
            (["benchmark", "--k-sweep", "10,10"], "k_sweep"),
            (["benchmark", "--k-sweep", ""], "k_sweep"),
            (["benchmark", "--k-sweep", "6", "--seed", "-1"], "seed"),
            (["simulate", "--seed", "-1"], "seed"),
            (["simulate", "--set", "t_end=inf"], "t_end"),
            (["simulate", "--set", "sigma_d=nan"], "sigma_d"),
        ],
        ids=["k-negative", "k-below-4", "k-repeated", "k-empty", "bench-seed",
             "sim-seed", "t-end-inf", "sigma-nan"],
    )
    def test_bad_sweep_or_seed_is_clean_error(self, args, key, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(args + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()


class TestConfigHandling:
    def test_bundled_default_matches_builtin_trajectory(self):
        scenario = load_scenario(None)
        expected = benchmark_trajectory()
        for got, want in zip(scenario.trajectory.coeffs, expected.coeffs):
            assert np.array_equal(got, want)
        assert scenario.sim.seed == 42
        assert scenario.k_sweep == (10, 20, 30, 40, 50)

    def test_a_call_never_reaches_the_next_bundled_scenario(self, monkeypatch):
        parsed = []
        parse = config.parse_config_text
        monkeypatch.setattr(config, "parse_config_text", lambda *a: parsed.append(a) or parse(*a))
        fresh = load_scenario(None)
        changed = load_scenario(None, {"seed": "9", "k_sweep": "6,8", "Y0.0.0": "123.5"})
        assert (changed.sim.seed, changed.k_sweep) == (9, (6, 8))
        assert changed.trajectory.coeffs[0][0, 0] == 123.5
        # mutate everything the call returned
        changed.sim.seed = 11
        changed.trajectory.coeffs[1][:] = 0.0
        again = load_scenario(None)
        assert again.sim == fresh.sim and again.sim.seed == 42
        assert again.k_sweep == fresh.k_sweep == (10, 20, 30, 40, 50)
        for got, want in zip(again.trajectory.coeffs, benchmark_trajectory().coeffs):
            assert np.array_equal(got, want)
        assert again.trajectory is not fresh.trajectory and again.sim is not fresh.sim
        # the bundled file is parsed at most once per process, by the first of these calls
        assert len(parsed) <= 1

    def test_override_precedence(self, tmp_path):
        # defaults < file < CLI
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("seed = 7\nY0.0.0 = 1\nY0.0.1 = 2\nY0.1.0 = 0\nY0.1.1 = 0\n")
        file_only = load_scenario(str(cfg))
        assert file_only.sim.seed == 7  # file beats the default of 0
        overridden = load_scenario(str(cfg), {"seed": "9"})
        assert overridden.sim.seed == 9  # CLI beats the file

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma_q = 1.0\n")
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    @pytest.mark.parametrize("override", ["bogus=1", "n_nodes=5"])
    def test_unknown_override_key_is_one_clean_error(self, tmp_path, capsys, command, override):
        code = run_cli([command, "--output", str(tmp_path / "out"), "--set", override])
        assert code == 1
        key = override.split("=")[0]
        assert capsys.readouterr().err == f"error: unknown override key '{key}'\n"

    def test_matrix_override_via_set(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli(
            [
                "simulate",
                "--output",
                str(out),
                "--set",
                "k_samples=6",
                "--set",
                "Y0.0.0=123.0",
            ]
        )
        assert code == 0

    def test_incomplete_matrix_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("Y0.0.0 = 1\nY0.0.1 = 2\n")  # missing the second row
        code = run_cli(["simulate", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == 1
        assert "incomplete" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize(
        "sub,flags",
        [
            ("simulate", ["--config", "--seed", "--set", "--output"]),
            ("estimate", ["--bundle", "--method", "--output"]),
            ("benchmark", ["--config", "--seed", "--trials", "--k-sweep", "--method", "--output"]),
        ],
    )
    def test_flags_documented_in_help(self, sub, flags, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text


class TestParserReuse:
    """One parser serves every ``main`` call of a process; no call sees another's flags."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flags_do_not_carry_over(self, tmp_path):
        assert run_cli(["simulate", "--seed", "7", "--set", "k_samples=6",
                        "--output", str(tmp_path / "first")]) == 0
        assert run_cli(["simulate", "--output", str(tmp_path / "after")]) == 0
        cli._build_parser.cache_clear()  # the second call alone, on a parser of its own
        assert run_cli(["simulate", "--output", str(tmp_path / "alone")]) == 0
        for name in ("timestamps.csv", "edms.csv", "accels.csv"):
            after = (tmp_path / "after" / name).read_bytes()
            assert after == (tmp_path / "alone" / name).read_bytes(), name
            assert after != (tmp_path / "first" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "argv,status",
        [(["simulate", "--help"], 0), (["simulate", "--seed", "x"], 2), (["estimate"], 2)],
        ids=["help", "bad-seed", "missing-bundle"],
    )
    def test_next_call_succeeds_after_an_exit(self, argv, status, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        assert run_cli(["simulate", "--set", "k_samples=6", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "edms.csv").exists()
