"""Tests for the command-line interface: flags, configs, outputs, exit codes."""

import argparse
import json
import math

import numpy as np
import pytest

from randperiodic import analysis, cli, noise, pullback
from randperiodic.cli import main
from randperiodic.model import builtin_benchmark
from randperiodic.noise import NoiseLattice, derive_seeds
from randperiodic.pullback import random_periodic_path
from randperiodic.stepper import NonConvergenceError


# (command, key) of every config key read as one float
FLOAT_KEYS = [
    ("simulate", "h"), ("simulate", "t0"), ("simulate", "t1"),
    ("periodicity", "h"), ("periodicity", "threshold"),
    ("order", "h_ref"), ("order", "t_eval"),
    ("measure", "h"),
    ("check", "radius"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_flag(command, directory):
    """``--out directory`` for a subcommand that writes files, else nothing."""
    return ("--out", str(directory)) if command in ("simulate", "order", "measure") else ()


def read_csv(path):
    """(``#key=value`` metadata, header, data lines) of a CSV the CLI wrote."""
    lines = path.read_text().splitlines()
    meta = dict(line[1:].partition("=")[::2] for line in lines if line.startswith("#"))
    rest = [line for line in lines if not line.startswith("#")]
    return meta, rest[0], rest[1:]


# An order run whose explicit row at h = 0.125 diverges
DIVERGING_ORDER = ("order", "--paths", "20", "--h-ref", "0.015625",
                   "--h-list", "0.125,0.0625,0.03125", "--pullback-periods", "5")


class TestCheckCommand:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--samples", "200")
        assert code == 0
        assert "all checks passed" in out
        assert "[ok  ]" in out

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_radius_exits_two(self, capsys, radius):
        code, out, err = run(capsys, "check", "--samples", "50", "--radius", radius)
        assert code == 2 and out == ""
        assert err == f"configuration error: radius must be positive and finite, got {radius}\n"

    def test_violating_model_exits_one(self, capsys, tmp_path):
        cfg = {
            "lambda": [2.0],
            "drift": {"poly_coeffs": [0.0, 1.0]},
            "g": {"amp": 0.1},
            "tau": 1.0,
            "constants": {"C_f": 0.25},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "check", "--model", str(path), "--samples", "200")
        assert code == 1
        assert "FAIL" in out
        assert "failed" in err


class TestSimulateCommand:
    def test_writes_trajectory(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--h", "0.0078125",
                           "--out", str(tmp_path), "--seed", "9")
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "#scheme=bem"
        assert lines[1] == "#seed=9"
        assert "state at t=1.0" in out

    def test_runs_are_reproducible(self, capsys, tmp_path):
        run(capsys, "simulate", "--h", "0.015625", "--out", str(tmp_path / "a"))
        run(capsys, "simulate", "--h", "0.015625", "--out", str(tmp_path / "b"))
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_em_blowup_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--h", "0.125", "--scheme", "em",
                           "--out", str(tmp_path))
        assert code == 1
        assert "numerical failure" in err

    def test_misaligned_step_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--h", "0.3", "--out", str(tmp_path))
        assert code == 2
        assert "configuration error" in err


class TestConfigHandling:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"h": 0.03125, "out": str(tmp_path)}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert "h=0.03125" in out

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"h": 0.03125, "out": str(tmp_path)}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--h", "0.0625")
        assert code == 0
        assert "h=0.0625" in out

    def test_unknown_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"stepsize": 0.1, "workers": 2, "block_size": 7}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys: ['block_size', 'stepsize', 'workers']" in err

    def test_removed_residual_tol_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"residual_tol": 1e-10}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys: ['residual_tol']" in err

    def test_removed_residual_tol_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--residual-tol", "1e-10"])
        assert exc.value.code == 2
        assert "--residual-tol" in capsys.readouterr().err

    def test_config_keys_are_the_long_options(self):
        parser = cli._build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            action.dest
            for command in sub.choices.values()
            for action in command._actions
            if any(o.startswith("--") for o in action.option_strings)
        }
        assert cli._KNOWN_CONFIG_KEYS == options - {"help", "config"}

    def test_non_object_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps([{"h": 0.03125}]))
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert f"configuration error: config file {cfg} must hold a JSON object" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    def test_unknown_model_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--model", "no-such-model")
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("key, value", [("tau", math.inf), ("lambda", [math.inf])])
    def test_non_finite_model_constant_exits_two(self, capsys, tmp_path, command, key, value):
        model = {"lambda": [10.0], "drift": {"poly_coeffs": [0.0, -1.0]}, "g": {"amp": 0.1},
                 "tau": 1.0, "constants": {"C_f": 0.5}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(model, **{key: value})))  # writes Infinity
        code, _, err = run(capsys, command, "--model", str(path), *out_flag(command, tmp_path))
        assert code == 2
        assert "configuration error" in err and "finite" in err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("section, key, value", [
        ("constants", "sigma", math.inf),
        ("constants", "C_f", -math.inf),
        ("drift", "trig_amp", math.inf),
        ("drift", "trig_freq", math.inf),
        ("drift", "poly_coeffs", [0.0, math.nan]),
        ("g", "amp", math.inf),
    ])
    def test_non_finite_model_number_exits_two(self, capsys, tmp_path, command, section, key,
                                               value):
        model = {"lambda": [10.0], "drift": {"poly_coeffs": [0.0, -1.0]}, "g": {"amp": 0.1},
                 "tau": 1.0, "constants": {"C_f": 0.5}}
        model[section] = dict(model[section], **{key: value})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))  # writes Infinity and NaN
        code, _, err = run(capsys, command, "--model", str(path), *out_flag(command, tmp_path))
        assert code == 2
        assert "configuration error" in err and "finite" in err

    def test_no_subcommand_exits_two(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2
        assert "usage" in out.lower()

    def test_bad_choice_uses_argparse_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scheme", "heun"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["periodicity", "check"])
    def test_out_belongs_to_the_writers(self, capsys, tmp_path, command):
        # a subcommand that writes no file takes no --out and makes no directory
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "flag")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_out_in_a_config_makes_no_directory(self, capsys, tmp_path):
        # for a subcommand that writes no file, out is another subcommand's key
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "config")}))
        code, _, _ = run(capsys, "check", "--config", str(cfg), "--samples", "50")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


    @pytest.mark.parametrize("command, key", [
        ("simulate", "seed"),
        ("simulate", "pullback_periods"),
        ("order", "paths"),
        ("measure", "paths"),
        ("measure", "halvings"),
        ("measure", "bootstrap"),
        ("periodicity", "coalesce_periods"),
        ("check", "samples"),
    ])
    @pytest.mark.parametrize("value", [2.5, True, math.nan])
    def test_integer_keys_must_be_whole(self, capsys, tmp_path, command, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))  # writes NaN
        code, out, err = run(capsys, command, "--config", str(cfg), *out_flag(command, tmp_path))
        assert code == 2 and out == ""
        assert f"configuration error: {key} must be a whole number, got {value!r}" in err

    @pytest.mark.parametrize("command, key, value", [
        *[(command, key, value) for command, key in FLOAT_KEYS for value in (True, False)],
        ("order", "h_list", [0.25, True]),
        ("measure", "t", [0.25, True]),
    ])
    def test_float_keys_must_not_be_bools(self, capsys, tmp_path, command, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, command, "--config", str(cfg), *out_flag(command, tmp_path))
        bad = True if isinstance(value, list) else value
        assert code == 2 and out == ""
        assert err == f"configuration error: {key} must be a number, got {bad!r}\n"

    def test_whole_float_keys_run_as_ints(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"samples": 200.0, "seed": 3.0}))
        assert (run(capsys, "check", "--config", str(cfg))
                == run(capsys, "check", "--samples", "200", "--seed", "3"))

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--t1", "inf"), "(t_end - t_start) / h = inf is not finite"),
        (("measure", "--t", "inf"), "(t_end - t_start) / h = inf is not finite"),
        (("periodicity", "--h", "inf"), "step size h must be positive and finite, got inf"),
        (("order", "--h-ref", "inf"), "step size h must be positive and finite, got inf"),
        (("periodicity", "--h", "nan"), "step size h must be positive and finite, got nan"),
        (("order", "--h-ref", "nan"), "step size h must be positive and finite, got nan"),
    ], ids=["simulate", "measure", "periodicity", "order", "periodicity-nan", "order-nan"])
    def test_non_finite_grid_ratio_exits_two(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv, *out_flag(argv[0], tmp_path))
        assert code == 2 and out == ""
        assert err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("h", ["0", "-0.5"])
    @pytest.mark.parametrize("command, key", [("periodicity", "--h"), ("order", "--h-ref")])
    def test_non_positive_step_exits_two(self, capsys, tmp_path, command, key, h):
        # checked before any grid ratio is formed, which for 0 would divide by zero
        code, out, err = run(capsys, command, key, h, *out_flag(command, tmp_path))
        assert code == 2 and out == ""
        assert err == f"configuration error: step size h must be positive and finite, got {float(h)!r}\n"


class TestPeriodicityCommand:
    def test_passes_on_benchmark(self, capsys):
        code, out, _ = run(capsys, "periodicity", "--h", "0.0078125",
                           "--pullback-periods", "5")
        assert code == 0
        assert out.count("PASS") == 2
        assert "max discrepancy 0.000e+00" in out

    def test_coalescence_failure_exits_one(self, capsys):
        code, out, _ = run(capsys, "periodicity", "--threshold", "1e-300",
                           "--pullback-periods", "2", "--coalesce-periods", "1")
        assert code == 1
        assert "coalescence: gap stayed above 1e-300 over 1 period(s)" in out
        assert out.rstrip().endswith("-> FAIL")

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0"])
    def test_threshold_out_of_range_exits_two(self, capsys, threshold):
        code, _, err = run(capsys, "periodicity", "--h", "0.0078125",
                           "--pullback-periods", "2", "--threshold", threshold)
        assert code == 2
        assert "configuration error: threshold must be finite and positive" in err

    @pytest.mark.parametrize("args, message", [
        (("--threshold", "nan"), "threshold must be finite and positive, got nan"),
        (("--threshold", "0"), "threshold must be finite and positive, got 0.0"),
        (("--h", "0.3"), "period / h = 3.3333333333333335 is not a whole number"),
        (("--h", "1.0"), "step size h must lie in (0, 1), got 1.0"),
        (("--pullback-periods", "1"), "pullback_periods must be >= 2, got 1"),
        (("--coalesce-periods", "0"), "t_end must lie at least one step after t_start"),
    ])
    def test_bad_input_fails_before_simulating(self, capsys, monkeypatch, args, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(pullback, "simulate", no_simulation)
        code, out, err = run(capsys, "periodicity", *args)
        assert code == 2
        assert "PASS" not in out and "FAIL" not in out
        assert f"configuration error: {message}" in err


class TestOrderCommand:
    ARGS = ("order", "--h-ref", "0.001953125", "--h-list", "0.0625,0.03125,0.015625",
            "--paths", "24", "--pullback-periods", "2")

    def test_writes_tables_and_fits(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.ARGS, "--out", str(tmp_path))
        assert code == 0
        for scheme in ("bem", "em"):
            table = (tmp_path / f"error_table_{scheme}.csv").read_text().splitlines()
            assert table[0] == "h,rms_error,standard_error,num_paths,diverged"
            assert len(table) == 4
            fit = (tmp_path / f"order_{scheme}.csv").read_text().splitlines()
            assert fit[0] == "log2_h,log2_error"
        assert "fitted order" in out
        assert "em/bem rms ratio" in out

    def test_diverged_row_is_written(self, capsys, tmp_path):
        code, out, _ = run(capsys, *DIVERGING_ORDER, "--seed", "0", "--out", str(tmp_path))
        assert code == 0
        em = out[out.index("scheme=em"):]
        assert "  h=0.125  DIVERGED\n" in em
        assert "  fitted order: not available (fewer than 3 usable rows)\n" in em
        _, _, rows = read_csv(tmp_path / "error_table_em.csv")
        assert rows[0] == "0.125,nan,nan,20,true"
        assert [row.endswith(",20,false") for row in rows] == [False, True, True]
        _, _, fit = read_csv(tmp_path / "order_em.csv")
        assert len(fit) == 2

    def test_numerical_failure_exits_one(self, capsys, monkeypatch, tmp_path):
        def fails(*args, **kwargs):
            raise NonConvergenceError("no root after 50 iterations")

        monkeypatch.setattr(cli, "strong_error", fails)
        code, out, err = run(capsys, *self.ARGS, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == "numerical failure: no root after 50 iterations\n"

    def test_repeated_h_list_flags_accumulate(self, capsys, tmp_path):
        code, _, _ = run(capsys, "order", "--h-ref", "0.001953125",
                         "--h-list", "0.0625", "--h-list", "0.03125",
                         "--paths", "8", "--pullback-periods", "2",
                         "--scheme", "bem", "--out", str(tmp_path))
        assert code == 0
        table = (tmp_path / "error_table_bem.csv").read_text().splitlines()
        assert len(table) == 3

    def test_duplicate_step_sizes_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "order", "--h-ref", "0.001953125",
                           "--h-list", "0.0625,0.0625,0.03125",
                           "--paths", "8", "--pullback-periods", "2",
                           "--out", str(tmp_path))
        assert code == 2
        assert "configuration error: h_list contains duplicate step sizes" in err
        assert not list(tmp_path.glob("*.csv"))


class TestMeasureCommand:
    def test_samples_and_study(self, capsys, tmp_path):
        code, out, _ = run(capsys, "measure", "--h", "0.03125", "--paths", "40",
                           "--t", "0.0,0.5", "--halvings", "2",
                           "--bootstrap", "20", "--out", str(tmp_path))
        assert code == 0
        t0 = (tmp_path / "measure_t0p0.csv").read_text().splitlines()
        assert t0[0] == "t,sample_index,value"
        assert len(t0) == 41
        assert (tmp_path / "measure_t0p5.csv").exists()
        dist = (tmp_path / "measure_distances.csv").read_text().splitlines()
        assert dist[0] == "h,h_half,distance,ratio_to_sqrt_h"
        assert len(dist) == 3
        assert "bootstrap noise floor" in out

    def test_study_reuses_the_path_seeds(self, capsys, monkeypatch, tmp_path):
        # the samples and the halving study read one set of path seeds,
        # derived once
        calls = []

        def counting(*args):
            calls.append(args)
            return noise.derive_seeds(*args)

        for module in (cli, analysis):
            monkeypatch.setattr(module, "derive_seeds", counting)
        code, _, _ = run(capsys, "measure", "--h", "0.0625", "--paths", "8", "--halvings", "2",
                         "--bootstrap", "5", "--out", str(tmp_path))
        assert code == 0
        assert calls == [(0, 8)]

    @pytest.mark.parametrize("h", ["0", "-0.5", "nan"])
    def test_bad_step_exits_two(self, capsys, tmp_path, h):
        # the default depth checks the step before it forms any ratio
        code, out, err = run(capsys, "measure", "--h", h, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"configuration error: step size h must be positive and finite, got {float(h)!r}\n"

    @pytest.mark.parametrize("n_bootstrap", ["0", "-3"])
    def test_bootstrap_below_one_exits_two(self, capsys, tmp_path, n_bootstrap):
        code, _, err = run(capsys, "measure", "--h", "0.03125", "--paths", "8",
                           "--bootstrap", n_bootstrap, "--out", str(tmp_path))
        assert code == 2
        assert "configuration error" in err and "n_bootstrap" in err

    @pytest.mark.parametrize("n_bootstrap", ["0", "-3"])
    def test_bootstrap_below_one_fails_before_simulating(self, capsys, monkeypatch, tmp_path,
                                                         n_bootstrap):
        def no_simulation(*args, **kwargs):
            raise AssertionError("periodic_measure called")

        monkeypatch.setattr(cli, "periodic_measure", no_simulation)
        code, _, err = run(capsys, "measure", "--h", "0.03125", "--paths", "2000",
                           "--bootstrap", n_bootstrap, "--out", str(tmp_path))
        assert code == 2
        assert f"configuration error: n_bootstrap must be >= 1, got {n_bootstrap}" in err

    def test_negative_halvings_fail_before_simulating(self, capsys, monkeypatch, tmp_path):
        def no_simulation(*args, **kwargs):
            raise AssertionError("periodic_measure called")

        monkeypatch.setattr(cli, "periodic_measure", no_simulation)
        code, _, err = run(capsys, "measure", "--h", "0.03125", "--paths", "8",
                           "--halvings", "-2", "--out", str(tmp_path))
        assert code == 2
        assert "configuration error: halvings must be >= 0, got -2" in err

    def test_vector_model_fails_before_simulating(self, capsys, monkeypatch, tmp_path):
        def no_simulation(*args, **kwargs):
            raise AssertionError("periodic_measure called")

        model = {
            "lambda": [3.0, 5.0],
            "drift": {"poly_coeffs": [0, 0, 0, -1], "trig_amp": 1.0, "trig_freq": 2},
            "g": {"amp": 0.3},
            "tau": 1.0,
            "constants": {"C_f": 0.5},
        }
        path = tmp_path / "model2d.json"
        path.write_text(json.dumps(model))
        monkeypatch.setattr(cli, "periodic_measure", no_simulation)
        code, _, err = run(capsys, "measure", "--model", str(path), "--h", "0.03125",
                           "--paths", "8", "--out", str(tmp_path))
        assert code == 2
        assert "configuration error: measure supports scalar models only" in err
        assert not list(tmp_path.glob("measure_*.csv"))

    @pytest.mark.parametrize("paths", ["1", "-1"])
    def test_too_few_paths_exits_two(self, capsys, tmp_path, paths):
        code, _, err = run(capsys, "measure", "--paths", paths, "--out", str(tmp_path))
        assert code == 2
        assert "configuration error" in err

    def test_repeated_time_flags_accumulate(self, capsys, tmp_path):
        code, _, _ = run(capsys, "measure", "--h", "0.03125", "--paths", "20",
                         "--t", "0.25", "--t", "1.25", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "measure_t0p25.csv").exists()
        assert (tmp_path / "measure_t1p25.csv").exists()


class TestTrajectoryCsv:
    def test_round_trip(self, capsys, tmp_path):
        h = 2.0**-7
        code, _, _ = run(capsys, "simulate", "--h", repr(h), "--seed", "19",
                         "--pullback-periods", "2", "--t0", "0", "--t1", "1",
                         "--out", str(tmp_path))
        assert code == 0
        meta, header, rows = read_csv(tmp_path / "trajectory.csv")
        assert meta["scheme"] == "bem"
        assert meta["seed"] == "19"
        assert float(meta["h"]) == h
        assert meta["k"] == "2"
        assert header == "t,x_1"
        path = random_periodic_path(builtin_benchmark(), NoiseLattice(seed=19, base_step=h), h,
                                    pullback_periods=2, horizon=(0.0, 1.0))
        cells = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert cells[:, 0].tobytes() == path.times.tobytes()
        assert cells[:, 1:].tobytes() == path.states.tobytes()


class TestCsvWriters:
    """The rows of the order and measure files, as the CLI writes them."""

    def test_error_table_round_trip_text(self, capsys, tmp_path):
        code, _, _ = run(capsys, *DIVERGING_ORDER, "--scheme", "em", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "error_table_em.csv").read_text().strip().splitlines()
        assert lines[0] == "h,rms_error,standard_error,num_paths,diverged"
        assert lines[1].endswith("true") and "nan" in lines[1]
        assert lines[2].endswith("false")

    def test_order_csv_skips_diverged(self, capsys, tmp_path):
        code, _, _ = run(capsys, *DIVERGING_ORDER, "--scheme", "em", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "order_em.csv").read_text().strip().splitlines()
        assert lines[0] == "log2_h,log2_error"
        assert len(lines) == 3  # header + two valid rows

    def test_measure_csv(self, capsys, tmp_path):
        code, _, _ = run(capsys, "measure", "--h", "0.03125", "--paths", "8", "--t", "0.25",
                         "--pullback-periods", "2", "--bootstrap", "5", "--seed", "3",
                         "--out", str(tmp_path))
        assert code == 0
        [mu] = analysis.periodic_measure(builtin_benchmark(), derive_seeds(3, 8), 0.03125, 2,
                                         [0.25])
        lines = (tmp_path / "measure_t0p25.csv").read_text().strip().splitlines()
        assert lines[0] == "t,sample_index,value"
        assert lines[1] == f"0.25,0,{float(mu.samples[0, 0])!r}"


class TestNegativeSeeds:
    """A master seed is taken modulo 2**64 by every command, as the lattice takes it."""

    @pytest.mark.parametrize("argv", [
        ("order", "--h-ref", "0.001953125", "--h-list", "0.0625,0.03125", "--paths", "8",
         "--pullback-periods", "2"),
        ("measure", "--h", "0.03125", "--paths", "8", "--halvings", "1", "--bootstrap", "5"),
        ("check", "--samples", "200"),
    ], ids=["order", "measure", "check"])
    def test_minus_one_is_two_to_the_64_minus_one(self, capsys, tmp_path, argv):
        outputs = []
        for seed in ("-1", str(2**64 - 1)):
            out_dir = tmp_path / seed
            code, out, err = run(capsys, *argv, "--seed", seed, *out_flag(argv[0], out_dir))
            assert code == 0, err
            # check writes no file
            files = out_dir.exists() and {p.name: p.read_bytes()
                                          for p in sorted(out_dir.iterdir())}
            outputs.append((out.replace(str(out_dir), "<out>"), files))
        assert outputs[0] == outputs[1]

    def test_simulate_prints_the_seed_it_used(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--h", "0.015625", "--pullback-periods", "1",
                           "--seed", "-1", "--out", str(tmp_path))
        assert code == 0
        assert f"seed={2**64 - 1}\n" in out
        assert f"#seed={2**64 - 1}\n" in (tmp_path / "trajectory.csv").read_text()


# Every option's resolved value with no flag and no config: the defaults as
# documented (None where the model supplies the value).
DEFAULTS = {
    **{(command, key): value
       for command in ("simulate", "periodicity", "order", "measure", "check")
       for key, value in (("model", "builtin"), ("seed", 0))},
    **{(command, "out"): "." for command in ("simulate", "order", "measure")},
    ("simulate", "h"): 2.0**-7, ("simulate", "scheme"): "bem", ("simulate", "t0"): 0.0,
    ("simulate", "t1"): None, ("simulate", "pullback_periods"): None,
    ("periodicity", "h"): 2.0**-7, ("periodicity", "pullback_periods"): 30,
    ("periodicity", "threshold"): 1e-6, ("periodicity", "coalesce_periods"): 2,
    ("order", "h_ref"): 2.0**-12, ("order", "h_list"): [2.0**-i for i in range(4, 9)],
    ("order", "paths"): 1000, ("order", "t_eval"): 0.0, ("order", "pullback_periods"): 10,
    ("order", "scheme"): "both",
    ("measure", "h"): 2.0**-7, ("measure", "paths"): 2000, ("measure", "t"): [0.0],
    ("measure", "pullback_periods"): None, ("measure", "halvings"): 0,
    ("measure", "bootstrap"): 100,
    ("check", "samples"): 1000, ("check", "radius"): 5.0,
}


def _kind(command, key):
    [kind] = [k for name, k, _, _ in cli._COMMON + cli._COMMANDS[command][1] if name == key]
    return kind


def _samples(kind):
    """(config value, its resolved value, flag arguments, their resolved value)."""
    if kind is int:
        return 7.0, 7, ("9",), 9
    if kind is float:
        return 3, 3.0, ("0.375",), 0.375
    if kind is list:
        return [0.25, "0.5;0.75"], [0.25, 0.5, 0.75], ("1.5", "2.5,3.5"), [1.5, 2.5, 3.5]
    if kind is None:
        return "from-config", "from-config", ("from-flag",), "from-flag"
    return "heun", "heun", (kind[-1],), kind[-1]  # choices bind flags only


class TestOptionPrecedence:
    """Each option resolves to its flag, else its config value, else its default."""

    @staticmethod
    def resolved(monkeypatch, tmp_path, command, key, config=None, flags=()):
        seen = []
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: seen.append(args) or 0)
        argv = [command]
        for flag in flags:
            argv += ["--" + key.replace("_", "-"), flag]
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        [args] = seen
        return getattr(args, key)

    def test_every_option_is_covered(self):
        assert set(DEFAULTS) == {
            (command, opt[0])
            for command, (_, options) in cli._COMMANDS.items()
            for opt in cli._COMMON + options
        }

    def test_other_subcommands_keys_are_ignored(self, monkeypatch, tmp_path):
        # h_list belongs to order alone; as a bool it would fail its kind check
        value = self.resolved(monkeypatch, tmp_path, "check", "samples", config={"h_list": True})
        assert value == 1000

    @pytest.mark.parametrize("command, key", list(DEFAULTS))
    def test_default(self, monkeypatch, tmp_path, command, key):
        value = self.resolved(monkeypatch, tmp_path, command, key)
        expected = DEFAULTS[command, key]
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("command, key", list(DEFAULTS))
    def test_config_value(self, monkeypatch, tmp_path, command, key):
        given, expected, _, _ = _samples(_kind(command, key))
        value = self.resolved(monkeypatch, tmp_path, command, key, config={key: given})
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("command, key", list(DEFAULTS))
    def test_null_config_value_is_the_default(self, monkeypatch, tmp_path, command, key):
        value = self.resolved(monkeypatch, tmp_path, command, key, config={key: None})
        expected = DEFAULTS[command, key]
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("command, key", list(DEFAULTS))
    def test_flag_beats_config(self, monkeypatch, tmp_path, command, key):
        given, _, flags, expected = _samples(_kind(command, key))
        value = self.resolved(monkeypatch, tmp_path, command, key, config={key: given},
                              flags=flags)
        assert value == expected and type(value) is type(expected)
