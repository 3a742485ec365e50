import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from thresholdlab import FieldPair, IntegratorConfig, evolve, interval_grid
from thresholdlab.analysis import TrajectoryRecord
from thresholdlab.lab import (
    ConfigError,
    build_problem,
    parse_boundary,
    parse_config,
    spec_digest,
)
from thresholdlab.lab.cli import _build_parser, _parse, main
from thresholdlab.lab.config import COMMANDS, FLAGS, canonical_lines, finite, positive
from thresholdlab.lab.experiments import threshold_experiment
from thresholdlab.lab.io import (
    load_snapshot,
    result_json_text,
    save_snapshot,
    trajectory_csv_text,
)
from thresholdlab.problem import ExponentPair

from conftest import disk_operator, disk_spec

#: A value for each config key, none of them its flag's default.
FLAG_SAMPLES = {
    "p": "2.5", "q": "2", "dim": "3", "geometry": "rect", "radius": "2", "lx": "2",
    "ly": "0.5", "bc": "robin:1", "lambda": "0.5", "forcing": "bump", "out": "runs/x",
    "resolution": "32", "seed": "4", "dt0": "0.002", "t-max": "3", "method": "monotone",
    "initial": "state.snap", "alpha": "0.7", "format": "csv", "alphas": "0.4,1.6",
    "width": "0.1", "lambda-lo": "0.5", "lambda-hi": "9", "rel-tol": "0.1",
    "resolutions": "48,96",
}


class TestConfig:
    def test_parse_key_values(self):
        text = """
        # threshold study
        p = 3.0
        q = 3.0
        geometry = radial   # disk
        resolution = 128
        bc = robin:2.5
        """
        options = parse_config(text)
        assert options["p"] == "3.0"
        assert options["bc"] == "robin:2.5"
        assert "geometry" in options

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("frobnicate = 1\n")

    def test_config_file_cannot_name_another(self):
        with pytest.raises(ConfigError, match="another"):
            parse_config("config = other.cfg\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("p 3.0\n")

    def test_boundary_parsing(self):
        assert parse_boundary("dirichlet").kind == "dirichlet"
        robin = parse_boundary("robin:1.5")
        assert robin.kind == "robin" and robin.beta == 1.5
        with pytest.raises(ConfigError):
            parse_boundary("robin:zebra")
        with pytest.raises(ConfigError):
            parse_boundary("neumann")

    def test_build_problem(self):
        spec = build_problem(p=3, q=2, geometry="radial", dim=3, bc="dirichlet", lam=0.5)
        assert spec.p == 3 and spec.q == 2
        assert spec.dimension == 3
        assert spec.lam == 0.5

    def test_config_line_parses_like_its_flag(self, tmp_path):
        # every (subcommand, flag) pair of the table: `key = value` in a config
        # file and `--key value` on the command line give one namespace
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        assert set(FLAG_SAMPLES) == set(FLAGS) - {"config"}
        for key, value in FLAG_SAMPLES.items():
            for command in FLAGS[key][0]:
                config = tmp_path / "one.cfg"
                config.write_text(f"{key} = {value}\n")
                from_file = vars(_parse([command, "--config", str(config)]))
                from_flag = vars(_parse([command, "--config", str(empty), f"--{key}", value]))
                default = vars(_parse([command, "--config", str(empty)]))
                for ns in (from_file, from_flag, default):
                    del ns["config"]
                assert from_file == from_flag, (command, key)
                assert from_flag != default, (command, key)

    def test_digest_stable_and_sensitive(self):
        spec = disk_spec(3.0, 3.0)
        d1 = spec_digest(spec, 128)
        assert d1 == spec_digest(spec, 128)
        assert d1 != spec_digest(spec, 256)
        assert d1 != spec_digest(disk_spec(3.0, 2.0), 128)


class TestSerialisation:
    def test_csv_golden(self):
        record = TrajectoryRecord(exponents=ExponentPair(3.0, 3.0), volume=math.pi)
        record.append(0.0, 0.0, 1.0, -0.5, 0.25, 0.75, 2.0, 2.0)
        record.append(0.001, 0.001, 1.1, -0.6, 0.26, 0.76, 2.1, 2.1)
        text = trajectory_csv_text(record)
        lines = text.splitlines()
        assert lines[0] == "t,dt,phi,energy,bigT,sup_u,sup_v,dphi_lhs,dphi_rhs,bound_rhs"
        assert lines[1].startswith("0,0,1,-0.5,")
        assert lines[2].split(",")[7].startswith("100.0000000000000")  # dphi_lhs = 0.1/0.001

    def test_csv_17_digits(self):
        record = TrajectoryRecord(exponents=ExponentPair(3.0, 3.0), volume=math.pi)
        record.append(1 / 3, 0.0, math.pi, 0.0, 0.0, 0.0, 0.0, 0.0)
        text = trajectory_csv_text(record)
        assert "0.33333333333333331" in text
        assert "3.1415926535897931" in text

    def test_json_deterministic(self):
        payload = {"b": 1.0 / 3.0, "a": [1, 2], "nested": {"z": 0.1, "y": math.pi}}
        assert result_json_text(payload) == result_json_text(json.loads(result_json_text(payload)))

    def test_snapshot_roundtrip(self, tmp_path):
        A = disk_operator(64)
        rng = np.random.default_rng(7)
        pair = FieldPair(rng.uniform(0, 1, A.grid.size), rng.uniform(0, 1, A.grid.size), A.grid)
        path = tmp_path / "state.snap"
        save_snapshot(path, pair, {"geometry": "radial", "resolution": 64, "p": 3.0})
        header, u, v = load_snapshot(path)
        loaded = FieldPair(u, v, A.grid)
        np.testing.assert_array_equal(loaded.u, pair.u)
        np.testing.assert_array_equal(loaded.v, pair.v)
        assert header["geometry"] == "radial"


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0])
_HEADER_KEY = st.from_regex(r"[a-z][a-z0-9_-]{0,8}", fullmatch=True).filter(lambda k: k != "nodes")
_HEADER_VALUE = st.from_regex(r"[!-~]([ !-~]{0,10}[!-~])?", fullmatch=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), resolution=st.integers(4, 64),
       header=st.dictionaries(_HEADER_KEY, _HEADER_VALUE, max_size=6))
def test_snapshot_roundtrip_property(data, resolution, header, tmp_path_factory):
    """save_snapshot then load_snapshot gives back every bit of u, v and the header."""
    grid = interval_grid(1.0, resolution)
    values = st.lists(_FINITE, min_size=grid.size, max_size=grid.size)
    pair = FieldPair(np.array(data.draw(values)), np.array(data.draw(values)), grid)
    path = tmp_path_factory.mktemp("snap") / "state.snap"
    save_snapshot(path, pair, header)
    loaded = load_snapshot(path)
    assert isinstance(loaded, tuple) and len(loaded) == 3
    got_header, u, v = loaded
    assert got_header == {**header, "nodes": str(grid.size)}
    np.testing.assert_array_equal(u.view(np.int64), pair.u.view(np.int64))
    np.testing.assert_array_equal(v.view(np.int64), pair.v.view(np.int64))


class TestThresholdExperiment:
    def test_bisection_brackets_threshold(self, eq3_128, spec3):
        A, eq = eq3_128
        result = threshold_experiment(
            spec3, A, eq, IntegratorConfig(), alphas=(0.5, 1.5), bisect_width=0.1
        )
        lo, hi = result.derived["alpha_bracket"]
        assert hi - lo <= 0.1
        assert lo < 1.0 < hi  # continuum threshold is alpha = 1
        kinds = {run["value"]: run["outcome"] for run in result.runs}
        assert kinds[0.5] == "decay" and kinds[1.5] == "blowup"

    def test_bracket_backed_by_runs(self, eq3_128, spec3):
        A, eq = eq3_128
        result = threshold_experiment(
            spec3, A, eq, IntegratorConfig(), alphas=(0.5, 1.5), bisect_width=0.25
        )
        lo, hi = result.derived["alpha_bracket"]
        outcomes = {(r["value"], r["outcome"]) for r in result.runs}
        assert (lo, "decay") in outcomes
        assert (hi, "blowup") in outcomes

    def test_forced_spec_rejected(self, eq3_128):
        A, eq = eq3_128
        with pytest.raises(ValueError):
            threshold_experiment(disk_spec(3.0, 3.0, lam=1.0), A, eq, IntegratorConfig())

    def test_critical_alpha_recorded_without_breaking_bisection(self, eq3_128, spec3):
        # alpha = 1 parks at the metastable discrete equilibrium, classifying
        # neither way; the experiment keeps it in the run log and bisects on
        A, eq = eq3_128
        result = threshold_experiment(
            spec3, A, eq, IntegratorConfig(t_max=6.0), alphas=(0.5, 1.0, 1.5),
            bisect_width=0.3,
        )
        kinds = {run["value"]: run["outcome"] for run in result.runs}
        assert kinds[1.0] in ("steady", "undecided")
        lo, hi = result.derived["alpha_bracket"]
        assert lo < 1.0 < hi


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["steady", "--geometry", "hexagon"]) == 1
        assert main(["steady", "--nonsense-flag", "3"]) == 1

    @pytest.mark.parametrize("p", ["1", "nan", "0.5"])
    def test_invalid_problem_is_usage_error(self, p, tmp_path, capsys):
        code = main(["steady", "--p", p, "--resolution", "32", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "p>1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "result.json").exists()

    def test_bad_domain_is_usage_error(self, capsys):
        assert main(["steady", "--dim", "1"]) == 1
        assert "dimension" in capsys.readouterr().err

    def test_subcriticality_warning_on_stderr_only(self, tmp_path, capsys):
        code = main([
            "evolve", "--dim", "3", "--p", "5", "--q", "5", "--resolution", "16",
            "--t-max", "0.01", "--out", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "SUBCRITICALITY" in captured.err
        assert "SUBCRITICALITY" not in captured.out
        assert "SUBCRITICALITY" not in (tmp_path / "result.json").read_text()

    def test_steady_writes_outputs(self, tmp_path, capsys):
        code = main([
            "steady", "--p", "3", "--q", "3", "--resolution", "64",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "steady.snap").exists()
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["outcome"] == "steady"
        assert payload["residual_norm"] <= 1e-10

    def test_evolve_decay(self, tmp_path, capsys):
        code = main([
            "evolve", "--alpha", "0.5", "--resolution", "64",
            "--format", "csv", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["outcome"] == "decay"
        csv = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv[0].startswith("t,dt,phi")
        assert len(csv) > 100

    def test_evolve_undecided_exit_code(self, tmp_path, capsys):
        code = main([
            "evolve", "--alpha", "0.9", "--resolution", "32",
            "--t-max", "0.01", "--out", str(tmp_path),
        ])
        assert code == 3

    def test_config_file_roundtrip(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("p = 3\nq = 3\nresolution = 64\nalpha = 0.5\n")
        code = main(["evolve", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["outcome"] == "decay"

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("resolution = 64\nalpha = 0.5\n")
        code = main([
            "evolve", "--config", str(config), "--alpha", "1.5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["outcome"] == "blowup"

    def test_bad_config_key_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("zebra = 1\n")
        assert main(["evolve", "--config", str(config)]) == 1

    def test_rect_digest_same_for_evolve_and_threshold(self, tmp_path, capsys):
        shared = ["--geometry", "rect", "--resolution", "16"]
        assert main(["evolve", *shared, "--alpha", "0.5", "--t-max", "0.01",
                     "--out", str(tmp_path / "evolve")]) == 3
        assert main(["threshold", *shared, "--width", "1.5",
                     "--out", str(tmp_path / "threshold")]) == 0
        digests = {json.loads((tmp_path / name / "result.json").read_text())["digest"]
                   for name in ("evolve", "threshold")}
        assert len(digests) == 1
        spec = build_problem(p=3.0, q=3.0, geometry="rect", dim=2, bc="dirichlet", lam=0.0)
        assert parse_config("\n".join(canonical_lines(spec, (16, 16))))["resolution"] == "16"

    @pytest.mark.parametrize("flags, key", [
        (["--resolution", "32"], "nodes"),
        (["--resolution", "64", "--p", "2"], "p"),
    ])
    def test_mismatched_snapshot_is_usage_error(self, flags, key, tmp_path, capsys):
        pair = FieldPair.zeros(disk_operator(64).grid)
        header = {"geometry": "radial", "dim": 2, "resolution": 64, "p": 3.0, "q": 3.0,
                  "lambda": 0.0, "bc": "dirichlet"}
        save_snapshot(tmp_path / "state.snap", pair, header)
        code = main(["evolve", *flags, "--initial", str(tmp_path / "state.snap"),
                     "--t-max", "0.01", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{key} " in err and "Traceback" not in err
        assert not (tmp_path / "run" / "result.json").exists()

    @pytest.mark.parametrize("value", ["-1.0", "nan", "inf"])
    def test_snapshot_with_bad_values_is_refused(self, value, tmp_path, capsys):
        assert main(["steady", "--resolution", "16", "--out", str(tmp_path)]) == 0
        snap = tmp_path / "steady.snap"
        lines = snap.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[row] = f"{value} {lines[row].split()[1]}"
        snap.write_text("\n".join(lines) + "\n")
        code = main(["evolve", "--resolution", "16", "--initial", str(snap),
                     "--t-max", "0.01", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"snapshot {snap} holds negative or non-finite values" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "result.json").exists()

    def test_snapshot_of_another_radius_is_refused(self, tmp_path, capsys):
        assert main(["steady", "--radius", "2", "--resolution", "16",
                     "--out", str(tmp_path)]) == 0
        code = main(["evolve", "--resolution", "16", "--initial", str(tmp_path / "steady.snap"),
                     "--t-max", "0.01", "--out", str(tmp_path / "run")])
        assert code == 1
        assert "radius 2.0 (run has 1.0)" in capsys.readouterr().err

    @pytest.mark.parametrize("written, read", [
        (["--bc", "robin:1"], ["--bc", "robin:1.0"]),
        (["--geometry", "rect", "--dim", "3"], ["--geometry", "rect"]),
    ])
    def test_snapshot_of_the_same_problem_is_accepted(self, written, read, tmp_path, capsys):
        assert main(["steady", *written, "--resolution", "16", "--out", str(tmp_path)]) == 0
        code = main(["evolve", *read, "--resolution", "16", "--initial",
                     str(tmp_path / "steady.snap"), "--t-max", "0.01",
                     "--out", str(tmp_path / "run")])
        assert code in (0, 3), capsys.readouterr().err
        assert (tmp_path / "run" / "result.json").exists()

    def test_snapshot_header_is_the_canonical_problem(self, tmp_path, capsys):
        assert main(["steady", "--radius", "2", "--resolution", "16",
                     "--out", str(tmp_path)]) == 0
        header, _, _ = load_snapshot(tmp_path / "steady.snap")
        spec = build_problem(p=3.0, q=3.0, geometry="radial", dim=2, bc="dirichlet",
                             lam=0.0, radius=2.0)
        assert header == {**parse_config("\n".join(canonical_lines(spec, 16))), "nodes": "16"}

    def test_snapshot_feeds_evolve(self, tmp_path, capsys):
        assert main(["steady", "--resolution", "64", "--out", str(tmp_path)]) == 0
        code = main([
            "evolve", "--resolution", "64", "--initial", str(tmp_path / "steady.snap"),
            "--t-max", "5", "--out", str(tmp_path / "run"),
        ])
        assert code in (0, 3)
        payload = json.loads((tmp_path / "run" / "result.json").read_text())
        assert payload["outcome"] in ("steady", "undecided")  # metastable start


class TestFlagTable:
    def test_command_line_beats_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("resolution = 32\nlambda = 2\nbc = robin:3\n")
        for argv in (["--resolution", "64", "--bc", "dirichlet"],
                     ["--resolution=64", "--bc=dirichlet"]):
            args = _parse(["evolve", "--config", str(config), *argv])
            assert (args.resolution, args.bc, args.lam) == (64, "dirichlet", 2.0)
        args = _parse(["evolve", "--resolution", "64", "--config", str(config)])
        assert args.resolution == 64

    @pytest.mark.parametrize("argv", [
        ["evolve", "--res", "64"],
        ["threshold", "--alpha", "0.5"],
        ["robin", "--bc", "robin:1", "--width", "0.1"],
        ["steady", "--dt0", "0.002"],
        ["steady", "--seed", "1"],
        ["verify", "--resolution", "48"],
    ])
    def test_abbreviated_or_dropped_flag_is_usage_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-2]}" in err
        assert not list(tmp_path.iterdir())

    def test_abbreviated_flag_with_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("resolution = 32\n")
        assert main(["evolve", "--config", str(config), "--res", "64",
                     "--out", str(tmp_path / "run")]) == 1
        assert "--res" in capsys.readouterr().err

    def test_config_key_the_subcommand_does_not_read(self, tmp_path, capsys):
        config = tmp_path / "study.cfg"
        config.write_text("alphas = 0.5,1.5\nalpha = 0.5\n")
        assert main(["threshold", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --alpha=0.5" in err
        assert not (tmp_path / "run").exists()

    def test_flag_slots(self):
        # each flag sits only on the subcommands that read it
        parser = _build_parser()
        subs = parser._subparsers._group_actions[0].choices
        slots = {(command, opt) for command, sub in subs.items() for action in sub._actions
                 for opt in action.option_strings if action.dest != "help"}
        assert slots == {(command, f"--{key}") for key, (commands, _) in FLAGS.items()
                         for command in commands}
        assert len(slots) == 101


class TestCliErrorPaths:
    @pytest.mark.parametrize("argv, named", [
        (["evolve", "--dt0", "0.1"], "dt0"),
        (["evolve", "--t-max", "0"], "--t-max"),
        (["evolve", "--config", "missing.cfg"], "missing.cfg"),
        (["threshold", "--lambda", "1"], "unforced"),
        (["robin"], "robin:<beta>"),
        (["lambda-star", "--lambda", "1", "--lambda-lo", "5", "--lambda-hi", "1"], "bracket"),
        (["lambda-star"], "--lambda > 0"),
        (["threshold", "--alphas", "0.5,x"], "--alphas"),
        (["verify", "--resolutions", "48,abc"], "--resolutions"),
        (["verify", "--resolutions", "48,2"], "resolution 2"),
        (["steady", "--p", "inf"], "finite-exponents"),
        (["steady", "--lambda", "-1"], "lambda"),
        (["steady", "--bc", "robin:nan"], "robin:nan"),
        (["steady", "--p=--"], "argument p"),
        (["threshold", "--width", "0"], "--width"),
        (["steady", "--dim", "200", "--resolution", "16"], "dimension 200"),
        (["evolve", "--dim", "340", "--resolution", "16"], "dimension 340"),
        (["verify", "--dim", "341", "--resolutions", "16,32"], "dimension 341"),
        (["steady", "--dim", "400", "--resolution", "16"], "dimension 400"),
    ])
    def test_usage_error_before_any_solve(self, argv, named, tmp_path, capsys, monkeypatch):
        import thresholdlab.lab.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the input was checked")

        for name in ("solve_newton", "solve_monotone", "evolve", "verify_suite"):
            if not (name == "verify_suite" and argv[0] == "verify"):
                monkeypatch.setattr(cli, name, no_solve)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not any((tmp_path / "run").rglob("*"))

    def test_high_dimension_in_float_range_solves(self, tmp_path, capsys):
        assert main(["steady", "--dim", "100", "--resolution", "16",
                     "--out", str(tmp_path)]) == 0

    def test_bracket_failing_after_probes_is_usage_error(self, tmp_path, capsys):
        code = main(["lambda-star", "--lambda", "1", "--resolution", "32", "--lambda-lo", "100",
                     "--lambda-hi", "1000", "--out", str(tmp_path)])
        assert code == 1
        assert "does not converge at lam=100" in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()


#: Text with no digit and no letter of a flag value: never a number, a
#: choice, a boundary spec or an existing file.
_WORD = st.text("abxz,.:-", max_size=5) | st.just("--")
_NONPOSITIVE = st.floats(max_value=0.0).map(repr)
#: Values outside each flag's domain, with the flags that make them count.
_OUT_OF_RANGE = {
    "p": (st.floats(max_value=1.0).map(repr) | st.just("inf"), []),
    "q": (st.floats(max_value=1.0).map(repr) | st.just("inf"), []),
    "dim": (st.integers(max_value=1).map(str), []),
    "radius": (_NONPOSITIVE, []),
    "lx": (_NONPOSITIVE, ["--geometry", "rect"]),
    "ly": (_NONPOSITIVE, ["--geometry", "rect"]),
    "bc": (st.floats(max_value=0.0).map(lambda b: f"robin:{b!r}"), []),
    "lambda": (st.floats(max_value=0.0, exclude_max=True).map(repr), []),
    "resolution": (st.integers(max_value=3).map(str), []),
    "resolutions": (st.integers(max_value=3).map(lambda n: f"48,{n}"), []),
    "dt0": ((st.floats(max_value=1e-10, exclude_max=True)
             | st.floats(min_value=1e-2, exclude_min=True)).map(repr), []),
    "t-max": (_NONPOSITIVE, []),
    "alpha": (_NONPOSITIVE, []),
    "width": (_NONPOSITIVE, []),
    "rel-tol": (_NONPOSITIVE, []),
    "alphas": (st.sampled_from(["0.5,", ",1.5", "0.5,nan"]), []),
    "lambda-lo": (st.floats(max_value=0.0, exclude_max=True).map(repr), ["--lambda", "1"]),
    "lambda-hi": (st.floats(max_value=1e-3).map(repr), ["--lambda", "1"]),
}
#: Problems a subcommand cannot run.
_WRONG_PROBLEM = {
    "steady": [["--geometry", "rect", "--bc", "robin:1"]],
    "evolve": [["--geometry", "rect", "--bc", "robin:1"]],
    "threshold": [["--lambda", "0.5"], ["--lambda", "2", "--forcing", "bump"]],
    "lambda-star": [[], ["--lambda", "0"]],
    "robin": [[], ["--geometry", "rect", "--bc", "robin:1"]],
    "verify": [["--lambda", "1"], ["--bc", "robin:1"], ["--geometry", "rect"]],
}


# no shrinking: each example makes some 400 calls, and the assertion names the input
@settings(max_examples=5, deadline=None, derandomize=True, phases=[Phase.generate])
@given(data=st.data())
def test_bad_input_is_usage_error(data, tmp_path_factory):
    """Every bad flag value or combination exits 1 naming it, before any solve."""
    out = tmp_path_factory.mktemp("bad") / "run"
    for command in COMMANDS:
        for flags in _bad_flags(data, command):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, *flags, "--out", str(out)])
            assert code == 1, (command, flags)
            assert err.getvalue().startswith("usage error: "), (command, flags)
            assert not any(out.rglob("*")), (command, flags)


def _bad_flags(data, command):
    """One bad input of each kind for each flag ``command`` takes, and more."""
    takes = [key for key, (commands, _) in FLAGS.items() if command in commands]
    for key in takes:
        if key != "out":
            yield [f"--{key}={data.draw(_WORD)}"]
        if FLAGS[key][1].get("type") in (float, finite, positive):
            yield [f"--{key}=" + data.draw(st.sampled_from(["nan", "inf", "-inf"]))]
        if key in _OUT_OF_RANGE:
            values, companions = _OUT_OF_RANGE[key]
            yield [*companions, f"--{key}={data.draw(values)}"]
        prefix = key[:data.draw(st.integers(0, len(key) - 1))]
        if prefix not in FLAGS:
            yield [f"--{prefix}={FLAG_SAMPLES.get(key, '1')}"]
    for key in FLAGS:
        if key not in takes:
            yield [f"--{key}={FLAG_SAMPLES[key]}"]
    yield ["--zebra=1"]
    yield from _WRONG_PROBLEM[command]


class TestVerifySuite:
    def test_custom_problem(self, monkeypatch):
        # asymmetric exponents in three dimensions exercise the 2D shooting
        # route and the generalized stencil/poisson checks
        from thresholdlab import ExponentPair, ProblemSpec, RadialBall
        from thresholdlab.lab import verify_suite

        import thresholdlab.lab.verify as verify

        solves = []
        newton = verify.solve_newton
        monkeypatch.setattr(verify, "solve_newton",
                            lambda *a, **k: solves.append(1) or newton(*a, **k))
        spec = ProblemSpec(ExponentPair(4.0, 2.0), RadialBall(3, 1.0))
        report = verify_suite(resolutions=(48, 96), seed=1, spec=spec)
        assert report.passed
        # per resolution: the equilibrium and the three forced solves
        assert len(solves) == 8

    def test_rejects_unsuitable_problem(self):
        from thresholdlab.lab import verify_suite

        with pytest.raises(ValueError):
            verify_suite(resolutions=(48,), spec=disk_spec(3.0, 3.0, lam=1.0))


class TestVerifyCli:
    def test_failing_report_exit_code(self, monkeypatch, tmp_path, capsys):
        from thresholdlab.lab.verify import CheckResult, VerifyReport
        import thresholdlab.lab.cli as cli

        broken = VerifyReport(checks=[CheckResult("synthetic", False, 1.0, "forced failure")])
        monkeypatch.setattr(cli, "verify_suite", lambda **kwargs: broken)
        code = main(["verify", "--resolutions", "48", "--out", str(tmp_path)])
        assert code == 4
        assert "FAIL" in (tmp_path / "verify.txt").read_text()


class TestDeterminism:
    def test_evolve_csv_bytes_identical(self, tmp_path, capsys):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main([
                "evolve", "--alpha", "1.5", "--resolution", "64",
                "--format", "csv", "--out", str(out), "--seed", "11",
            ])
            texts.append((out / "trajectory.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_threshold_json_bytes_identical(self, tmp_path, capsys):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main([
                "threshold", "--resolution", "64", "--width", "0.25",
                "--out", str(out), "--seed", "3",
            ])
            texts.append((out / "result.json").read_bytes())
        assert texts[0] == texts[1]
