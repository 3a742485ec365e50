import contextlib
import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from thresholdlab import (
    BoundarySpec,
    DiscreteLaplacian,
    FieldPair,
    IntegratorConfig,
    Outcome,
    RadialBall,
    build_grid,
    evolve,
    solve_newton,
)
from thresholdlab.analysis import TrajectoryRecord
from thresholdlab.lab import (
    ConfigError,
    build_problem,
    parse_boundary,
    parse_config,
    spec_digest,
)
from thresholdlab.lab.cli import _build_parser, _parse, _problem_from_args, main
from thresholdlab.lab.config import COMMANDS, FLAGS, canonical_lines, finite, positive
import thresholdlab.lab.experiments as experiments
from thresholdlab.lab.experiments import threshold_experiment
from thresholdlab.lab.io import (
    load_snapshot,
    result_json_text,
    save_snapshot,
    snapshot_text,
    trajectory_csv_text,
)
from thresholdlab.lab.verify import (
    convergence_checks,
    decay_checks,
    duality_check,
    identity_scaling_check,
    ordering_check,
)
from thresholdlab.problem import ExponentPair

from conftest import disk_operator, disk_spec

#: A value for each config key, none of them its flag's default.
FLAG_SAMPLES = {
    "p": "2.5", "q": "2", "dim": "3", "geometry": "rect", "radius": "0.5", "lx": "2",
    "ly": "0.5", "bc": "robin:1", "lambda": "0.5", "forcing": "bump", "out": "runs/x",
    "resolution": "32", "seed": "4", "dt0": "0.002", "t-max": "0.2", "method": "monotone",
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

    def test_canonical_lines_round_trip_the_spec(self, tmp_path):
        # the lines name every field a run can set, so specs that differ differ in digest
        specs = [
            build_problem(p=3, q=3, geometry="radial", dim=2, bc="dirichlet", lam=0.0),
            build_problem(p=2.5, q=2, geometry="radial", dim=3, bc="robin:2.5", lam=0.0,
                          radius=2.0),
            build_problem(p=3, q=3, geometry="rect", dim=2, bc="dirichlet", lam=0.0,
                          lx=2.0, ly=0.5),
            build_problem(p=2, q=2, geometry="radial", dim=2, bc="dirichlet", lam=1.0,
                          forcing="constant"),
            build_problem(p=2, q=2, geometry="radial", dim=2, bc="dirichlet", lam=1.0,
                          forcing="bump"),
        ]
        config = tmp_path / "spec.cfg"
        for spec in specs:
            config.write_text("\n".join(canonical_lines(spec, 32)) + "\n")
            args = _parse(["steady", "--config", str(config)])
            assert _problem_from_args(args) == spec
            assert args.resolution == 32
        assert len({spec_digest(spec, 32) for spec in specs}) == len(specs)
        # unforced, the source kind is no part of the problem
        assert build_problem(p=3, q=3, geometry="radial", dim=2, bc="dirichlet", lam=0.0,
                             forcing="bump") == specs[0]


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

    def test_csv_and_snapshot_render_each_value_at_17_digits(self):
        # each line is one formatting operation; the text is that of
        # f"{x:.17g}" value by value, for signed zeros, subnormals, the
        # float range's ends, infinities and nan too
        specials = [0.0, -0.0, 5e-324, -2.2e-310, 2.2250738585072014e-308, 1e308, -1e308,
                    math.inf, -math.inf, math.nan, 1 / 3, -math.pi]
        record = TrajectoryRecord(exponents=ExponentPair(3.0, 3.0), volume=math.pi)
        for i in range(len(specials)):
            record.append(*np.roll(specials, i)[:8].tolist())
        with np.errstate(all="ignore"):     # the derived columns of inf and nan rows
            text = trajectory_csv_text(record)
            cols = record.arrays()
        rows = zip(*(cols[name].tolist() for name in text.splitlines()[0].split(",")))
        expected = [",".join(f"{x:.17g}" for x in row) for row in rows]
        assert text.splitlines()[1:] == expected
        assert {"0", "-0", "4.9406564584124654e-324", "1e+308", "inf", "-inf", "nan"} <= \
            set(text.replace("\n", ",").split(","))

        grid = build_grid(RadialBall(2, 1.0), BoundarySpec.dirichlet(), 16)
        u = np.resize(specials, grid.size)
        pair = FieldPair(u, -u[::-1], grid)
        lines = snapshot_text(pair, {"p": 3.0}).splitlines()
        assert lines[:2] == ["# p 3.0", f"# nodes {grid.size}"]
        assert lines[2:] == [f"{x:.17g} {y:.17g}" for x, y in zip(pair.u.tolist(), pair.v.tolist())]

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
    grid = build_grid(RadialBall(2, 1.0), BoundarySpec.dirichlet(), resolution)
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

    @pytest.mark.parametrize("problem", ["disk-3-3", "disk-3-2", "rect-3-3", "robin-disk-3-2"])
    def test_cone_certificate_keeps_every_outcome_and_the_bracket(self, problem, monkeypatch):
        """Replaying every probe with both certificates off gives the same kinds and bracket.

        Each certified run stops earlier, and Kaplan's bound on a blow-up
        time is no earlier than the time at which the plain run stopped.
        Replaying every probe with full diagnostic rows instead of the lean
        rows the driver asks for gives the same result.json.  The Robin disk
        keeps what both certificates need: a symmetric operator and a
        positive principal eigenvector.
        """
        import thresholdlab.lab.experiments as experiments
        from thresholdlab import ProblemSpec, Rectangle, build_grid, build_laplacian, solve_newton
        from thresholdlab.parabolic import CONE_THETA

        if problem == "rect-3-3":
            spec = ProblemSpec(ExponentPair(3.0, 3.0), Rectangle(1.0, 1.0))
            A = build_laplacian(build_grid(spec.domain, spec.boundary, 24))
        elif problem == "robin-disk-3-2":
            spec = disk_spec(3.0, 2.0, beta=1.0)
            A = disk_operator(128, beta=1.0)
        else:
            spec = disk_spec(3.0, 3.0 if problem == "disk-3-3" else 2.0)
            A = disk_operator(128)
        eq = solve_newton(spec, A)
        certified = threshold_experiment(spec, A, eq, IntegratorConfig())
        plain_evolve = experiments.evolve
        replays = {
            "plain": lambda *args, certs=None, **kwargs: plain_evolve(*args, **kwargs),
            # diagnostics is required here, so the driver must pass it
            "full rows": lambda *args, diagnostics, **kwargs: plain_evolve(*args, **kwargs),
        }
        results = {}
        for name, replay in replays.items():
            monkeypatch.setattr(experiments, "evolve", replay)
            results[name] = threshold_experiment(spec, A, eq, IntegratorConfig())
        assert (result_json_text(results["full rows"].to_payload())
                == result_json_text(certified.to_payload()))
        plain = results["plain"]

        kinds = lambda result: [(run["value"], run["outcome"]) for run in result.runs]
        assert kinds(certified) == kinds(plain)
        assert certified.derived["alpha_bracket"] == plain.derived["alpha_bracket"]
        assert {run.get("decay_rule", run.get("blowup_rule")) for run in plain.runs} == {"sup"}
        for cert_run, plain_run in zip(certified.runs, plain.runs):
            if cert_run["outcome"] == "decay":
                assert cert_run["decay_rule"] == "cone"
            else:
                assert cert_run["blowup_rule"] == "kaplan"
                assert cert_run["t_blowup_est"] >= plain_run["t_blowup_est"]
            assert cert_run["t_end"] < plain_run["t_end"]
        assert certified.derived["cone_theta"] == CONE_THETA
        assert certified.derived["kaplan_lambda"] >= certified.derived["cone_mu"] > 0

    def test_default_alphas_close_on_two_certifying_probes(self, eq3_128, spec3):
        A, eq = eq3_128
        alphas = (0.5, 1.5)
        result = threshold_experiment(spec3, A, eq, IntegratorConfig(), alphas=alphas)
        assert len(result.runs) == len(alphas) + 2
        low, high = result.runs[-2:]
        assert (low["outcome"], high["outcome"]) == ("decay", "blowup")
        assert result.derived["alpha_bracket"] == [low["value"], high["value"]]
        assert result.derived["alpha_predicted"] == 1.0

    @pytest.mark.parametrize("width", [0.02, 0.1, 0.25])
    def test_float_width_within_bisect_width(self, eq3_128, spec3, width):
        # 1.01 - 0.99 and 1.05 - 0.95 both exceed their width by rounding
        A, eq = eq3_128
        result = threshold_experiment(spec3, A, eq, IntegratorConfig(), bisect_width=width)
        lo, hi = result.derived["alpha_bracket"]
        assert lo < 1.0 < hi
        assert hi - lo <= width
        assert len(result.runs) == 4

    def test_contradicting_probe_falls_back_to_bisection(self, eq3_128, spec3, monkeypatch):
        # a family whose threshold lies at 0.9: the low probe at 0.99 blows up
        A, eq = eq3_128
        monkeypatch.setattr(experiments, "evolve",
                            _scripted_evolve(eq, lambda a: "decay" if a < 0.9 else "blowup"))
        result = threshold_experiment(spec3, A, eq, IntegratorConfig())
        lo, hi = result.derived["alpha_bracket"]
        outcomes = {(run["value"], run["outcome"]) for run in result.runs}
        assert (lo, "decay") in outcomes and (hi, "blowup") in outcomes
        assert lo < 0.9 < hi and hi - lo <= 0.02
        assert result.runs[2]["value"] == 0.99 and result.runs[2]["outcome"] == "blowup"
        assert len(result.runs) > 4
        assert "undecided_at" not in result.derived

    @pytest.mark.parametrize("alphas", [(0.5, 1.5), (0.5, 0.99, 1.5)])
    def test_unclassified_certifying_probe_is_reported(self, eq3_128, spec3, monkeypatch,
                                                       alphas):
        # with 0.99 requested, the probe there reads that run's outcome, not a new run
        A, eq = eq3_128
        kind_of = lambda a: "undecided" if 0.98 < a < 1.0 else ("decay" if a < 1.0 else "blowup")
        monkeypatch.setattr(experiments, "evolve", _scripted_evolve(eq, kind_of))
        result = threshold_experiment(spec3, A, eq, IntegratorConfig(), alphas=alphas)
        assert result.derived["undecided_at"] == 0.99
        assert result.derived["alpha_bracket"] == [0.5, 1.5]
        assert sorted(run["value"] for run in result.runs) == [0.5, 0.99, 1.5]

    def test_requested_bracket_narrower_than_width_adds_no_probe(self, eq3_128, spec3):
        A, eq = eq3_128
        result = threshold_experiment(spec3, A, eq, IntegratorConfig(), alphas=(0.995, 1.005))
        assert [(run["value"], run["outcome"]) for run in result.runs] == [
            (0.995, "decay"), (1.005, "blowup")]
        assert result.derived["alpha_bracket"] == [0.995, 1.005]

    def test_requested_alpha_next_to_prediction_is_not_run_again(self, eq3_128, spec3):
        A, eq = eq3_128
        result = threshold_experiment(spec3, A, eq, IntegratorConfig(), alphas=(0.995, 1.5))
        values = [run["value"] for run in result.runs]
        assert len(values) == len(set(values)) == 3
        lo, hi = result.derived["alpha_bracket"]
        assert lo == 0.995 and hi == values[-1] and hi - lo <= 0.02

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


def _scripted_evolve(eq, kind_of):
    """An evolve that classifies alpha*(U, V) by ``kind_of(alpha)`` without stepping."""
    def evolve(spec, A, initial, config, **kwargs):
        kind = kind_of(float(initial.u[0] / eq.pair.u[0]))
        if kind == "decay":
            return Outcome.decay(0.1, "cone"), None
        if kind == "blowup":
            return Outcome.blow_up(0.1, 1e3, "kaplan", 0.2), None
        return Outcome.undecided(config.t_max), None
    return evolve


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

    @pytest.mark.parametrize("p, q", [("3.3", "3.5"), ("3.5", "3.3"), ("3.5", "3.5")])
    def test_steady_large_exponents_on_the_ball(self, p, q, tmp_path, capsys):
        # corner pairs where a relative-residual merit stalls from the
        # eigenvector pre-scan at every resolution
        for n in ("32", "96", "512"):
            code = main(["steady", "--dim", "3", "--p", p, "--q", q, "--resolution", n,
                         "--out", str(tmp_path / n)])
            assert code == 0
            payload = json.loads((tmp_path / n / "result.json").read_text())
            assert payload["residual_norm"] <= 1e-10

    def test_steady_skewed_exponents_on_the_ball(self, tmp_path, capsys):
        # outside [1.5, 3.5]^2, where a relative-residual merit stalls too
        code = main(["steady", "--dim", "3", "--p", "8", "--q", "2", "--resolution", "64",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["residual_norm"] <= 1e-10

    def test_steady_large_exponents_on_a_coarse_square_name_the_grid(self, tmp_path, capsys):
        # GMRES stalls just above its tolerance here, where the solution is
        # under-resolved; the 48^2 square solves the same problem
        code = main(["steady", "--geometry", "rect", "--resolution", "24", "--p", "8", "--q", "8",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "24x24 grid" in err
        assert "under-resolved" in err and "--resolution" in err
        assert "Traceback" not in err

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

    def test_robin_runs_where_the_shooting_solve_misses(self, tmp_path, capsys):
        # the 3-ball at beta = 10, p = q = 1.5: the shooting defect misses
        # BC_TOL, but threshold's equilibrium is the grid Newton solve's
        code = main(["threshold", "--dim", "3", "--bc", "robin:10", "--p", "1.5", "--q", "1.5",
                     "--resolution", "64", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "result.json").read_text())
        assert "skipped" not in payload and "undecided_at" not in payload["derived"]
        assert [(r["value"], r["outcome"]) for r in payload["runs"]][:2] == [
            (0.5, "decay"), (1.5, "blowup")]
        lo, hi = payload["derived"]["alpha_bracket"]
        assert lo < 1.0 < hi and hi - lo <= 0.02 and len(payload["runs"]) == 4

    def test_threshold_with_unclassified_probe_exits_undecided(self, tmp_path, capsys,
                                                                monkeypatch):
        # the bracket is written, widened to the last classified runs
        spec = disk_spec(3.0, 3.0)
        eq = solve_newton(spec, disk_operator(64))
        kind_of = lambda a: "undecided" if 0.98 < a < 1.0 else ("decay" if a < 1.0 else "blowup")
        monkeypatch.setattr(experiments, "evolve", _scripted_evolve(eq, kind_of))
        code = main(["threshold", "--resolution", "64", "--out", str(tmp_path)])
        assert code == 3
        derived = json.loads((tmp_path / "result.json").read_text())["derived"]
        assert derived["undecided_at"] == 0.99
        assert derived["alpha_bracket"] == [0.5, 1.5]

    def test_lambda_star_with_undecided_run_exits_undecided(self, tmp_path, capsys):
        # the low run reaches --t-max unclassified: the bracket is written, and exit is 3
        code = main(["lambda-star", "--resolution", "16", "--lambda-lo", "0.01",
                     "--lambda-hi", "100", "--rel-tol", "0.3", "--t-max", "3",
                     "--out", str(tmp_path)])
        assert code == 3
        payload = json.loads((tmp_path / "result.json").read_text())
        assert [run["outcome"] for run in payload["runs"]] == ["undecided", "blowup"]
        assert payload["derived"]["dynamics_consistent"] is False

    def test_evolve_undecided_exit_code(self, tmp_path, capsys):
        code = main([
            "evolve", "--alpha", "0.9", "--resolution", "32",
            "--t-max", "0.01", "--out", str(tmp_path),
        ])
        assert code == 3

    def test_evolve_provenance_records_horizon_and_version(self, tmp_path, capsys):
        # --t-max decides "undecided", so the result must record it
        from thresholdlab import __version__

        code = main(["evolve", "--alpha", "0.5", "--resolution", "16", "--t-max", "0.5",
                     "--dt0", "5e-4", "--out", str(tmp_path)])
        assert code == 3
        provenance = json.loads((tmp_path / "result.json").read_text())["provenance"]
        assert provenance == {"resolution": 16, "dt0": 5e-4, "t_max": 0.5,
                              "version": __version__}

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

    def test_threshold_disk_brackets_in_four_runs(self, tmp_path, capsys):
        # perfbench's threshold-disk configuration: the prediction closes the
        # bracket with two certifying probes, and no bisection probe follows
        assert main(["threshold", "--geometry", "radial", "--dim", "2", "--p", "3",
                     "--q", "3", "--resolution", "512", "--width", "0.02",
                     "--alphas", "0.515,1.42", "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        lo, hi = result["derived"]["alpha_bracket"]
        assert len(result["runs"]) == 4
        assert lo < 1.0 < hi and hi - lo <= 0.02
        assert capsys.readouterr().out.rstrip().endswith("from 4 runs")

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

    @pytest.mark.parametrize("rows", [4, 18])
    def test_snapshot_with_a_wrong_row_count_is_refused(self, rows, tmp_path, capsys):
        # the "# nodes 16" header still matches the run: only the data rows do not
        assert main(["steady", "--resolution", "16", "--out", str(tmp_path)]) == 0
        snap = tmp_path / "steady.snap"
        lines = snap.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        data = [line for line in lines if not line.startswith("#")]
        assert "# nodes 16" in header and len(data) == 16
        snap.write_text("\n".join(header + (data * 2)[:rows]) + "\n")
        code = main(["evolve", "--resolution", "16", "--initial", str(snap),
                     "--t-max", "0.01", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage error" in err and f"snapshot {snap} has {rows} data rows for 16 nodes" in err
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
        (["--geometry", "rect", "--lx", "1"], ["--geometry", "rect"]),
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


#: Each subcommand's base run; a run with one flag's sample value must
#: change its result.
_BASE_RUNS = {
    "steady": ["--resolution", "16"],
    "evolve": ["--resolution", "16", "--alpha", "0.5"],
    "threshold": ["--resolution", "16"],
    "lambda-star": ["--resolution", "16", "--lambda-lo", "0.1", "--lambda-hi", "300",
                    "--rel-tol", "0.3"],
    "verify": [],
}
#: The flags a sample value needs beside it, on the subcommands that take them.
_NEEDS = {"method": {"lambda": "0.5"}, "forcing": {"lambda": "0.5"},
          "lx": {"geometry": "rect"}, "ly": {"geometry": "rect"}}


def _outputs(out):
    """Every file the run wrote under ``out``, result.json parsed and without its provenance."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "result.json":
            files[path.name] = json.loads(path.read_text())
            files[path.name].pop("provenance", None)
        else:
            files[path.name] = path.read_bytes()
    return files


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
        ["lambda-star", "--width", "0.1"],
        ["steady", "--dt0", "0.002"],
        ["steady", "--seed", "1"],
        ["verify", "--resolution", "48"],
        # a flag that changes no result of the subcommand is not one of its flags
        ["evolve", "--seed", "1"],
        ["threshold", "--forcing", "bump"],
        ["verify", "--lx", "2"],
        ["lambda-star", "--lambda", "1"],
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

    def test_config_key_the_problem_does_not_read(self, tmp_path, capsys, monkeypatch):
        # a config line becomes a flag ahead of argv, so the problem's rule refuses it too
        import thresholdlab.lab.cli as cli

        monkeypatch.setattr(cli, "solve_newton", lambda *a, **k: pytest.fail("solved"))
        config = tmp_path / "study.cfg"
        config.write_text("lx = 2\n")
        assert main(["steady", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: the problem does not read --lx")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("explicit, implicit", [
        (["--geometry", "radial", "--dim", "2", "--radius", "1"], []),
        (["--geometry", "rect", "--lx", "1", "--ly", "1"], ["--geometry", "rect"]),
    ])
    def test_explicit_problem_defaults_change_nothing(self, explicit, implicit, tmp_path,
                                                      capsys):
        # build_problem's signature is the one home of the problem defaults
        for name, flags in (("explicit", explicit), ("implicit", implicit)):
            assert main(["steady", *flags, "--resolution", "16",
                         "--out", str(tmp_path / name)]) == 0
        for name in ("result.json", "steady.snap"):
            assert (tmp_path / "explicit" / name).read_bytes() == \
                (tmp_path / "implicit" / name).read_bytes()

    def test_readme_flag_table_names_every_slot(self):
        # README's flag table and FLAGS give each flag the same subcommands
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| flags | subcommands |\n| --- | --- |\n", 1)[1].split("\n\n")[0]
        slots = set()
        for row in table.splitlines():
            flags, commands = row.strip("| ").split(" | ")
            named = re.findall(r"`([a-z-]+)`", commands)
            if commands.startswith("all"):
                named = [command for command in COMMANDS if command not in named]
            slots |= {(command, flag) for command in named
                      for flag in re.findall(r"--[a-z0-9-]+", flags)}
        assert slots == {(command, f"--{key}") for key, (commands, _) in FLAGS.items()
                         for command in commands}

    def test_flag_slots(self):
        # each flag sits only on the subcommands that read it
        parser = _build_parser()
        subs = parser._subparsers._group_actions[0].choices
        slots = {(command, opt) for command, sub in subs.items() for action in sub._actions
                 for opt in action.option_strings if action.dest != "help"}
        assert slots == {(command, f"--{key}") for key, (commands, _) in FLAGS.items()
                         for command in commands}
        assert len(slots) == 72

    @pytest.mark.parametrize("argv", [
        ["-h"], *([command, "-h"] for command in COMMANDS),
        [], ["bogus"], ["-1", "steady"], ["--p", "3", "evolve"], ["--", "evolve", "--p", "2"],
        ["evolve", "steady", "--alpha", "1"], ["evolve", "--res", "64"],
        ["threshold", "--alpha", "0.5"], ["steady", "--geometry", "hexagon"],
        ["steady", "--nonsense-flag", "3"], ["verify", "--resolution", "48"],
        ["threshold", "--alphas", "0.5,x"], ["evolve", "--dt0"], ["steady", "--p=--"],
        ["lambda-star", "--rel-tol", "0.1", "--resolution", "64"],
        ["robin", "--bc", "robin:1"],   # not a subcommand: refused, as by the full parser
    ])
    def test_parser_of_argv_acts_as_the_full_parser(self, argv, capsys):
        # the parser _parse builds gives flags only to the subcommand argv
        # names; its help texts, usage errors and parses are byte for byte
        # those of the parser with every flag on every subcommand
        def outcome(parser):
            try:
                return "parsed", vars(parser.parse_args(argv))
            except ConfigError as exc:
                return "error", str(exc)
            except SystemExit as exc:
                return "exit", exc.code, capsys.readouterr().out

        named = outcome(_build_parser(argv))
        assert named == outcome(_build_parser())
        if argv[-1:] == ["-h"] and argv[0] != "-h":
            assert "--resolution" in named[2]

    def test_every_flag_changes_the_result(self, tmp_path, monkeypatch, capsys):
        # each (subcommand, flag) slot of the table, with its sample value and
        # the flags that value needs, against the same run without the flag;
        # verify's slots by the arguments its suite receives, which runs up
        # to its first solve, so its own input checks still refuse
        import thresholdlab.lab.cli as cli
        import thresholdlab.lab.verify as verify

        class SolvesBegin(Exception):
            pass

        received = []

        def suite(**kwargs):
            try:
                verify.verify_suite(**kwargs)
            except SolvesBegin:
                received.append(kwargs)
            return verify.VerifyReport()

        def solves_begin(*args, **kwargs):
            raise SolvesBegin

        monkeypatch.setattr(verify, "shooting_oracle", solves_begin)
        monkeypatch.setattr(cli, "verify_suite", suite)
        monkeypatch.chdir(tmp_path)
        assert main(["steady", "--resolution", "16", "--out", "snap"]) == 0
        (tmp_path / "snap" / "steady.snap").rename(FLAG_SAMPLES["initial"])
        results = {}

        def result(argv):
            """The run's result, or None if it wrote none.  Exit 3 writes one:
            a shorter horizon changes a result only by leaving a run undecided."""
            if tuple(argv) not in results:
                out = tmp_path / f"run{len(results)}"
                code = main([*argv, "--out", str(out)])
                results[tuple(argv)] = None if code not in (0, 3) else (
                    received.pop() if argv[0] == "verify" else _outputs(out))
            return results[tuple(argv)]

        failing = []
        for key, (commands, _) in FLAGS.items():
            if key in ("config", "out"):
                continue
            for command in commands:
                # evolve takes --initial or --alpha, not both
                base = _BASE_RUNS[command][:2] if key == "initial" else _BASE_RUNS[command]
                needs = [f"--{k}={v}" for k, v in _NEEDS.get(key, {}).items()
                         if command in FLAGS[k][0]]
                argv = [command, *base, *needs]
                assert result(argv) is not None, (argv, capsys.readouterr().err)
                if result([*argv, f"--{key}={FLAG_SAMPLES[key]}"]) in (None, result(argv)):
                    failing.append((command, f"--{key}"))
        assert failing == []

    def test_lambda_star_digest_names_the_forcing(self, tmp_path, capsys):
        digests = set()
        for kind in ("constant", "bump"):
            assert main(["lambda-star", "--p", "2", "--q", "2", "--resolution", "16",
                         "--lambda-lo", "1", "--lambda-hi", "60", "--rel-tol", "0.3",
                         "--forcing", kind, "--out", str(tmp_path / kind)]) == 0
            digest = json.loads((tmp_path / kind / "result.json").read_text())["digest"]
            assert digest == spec_digest(build_problem(p=2.0, q=2.0, lam=1.0, forcing=kind), 16)
            digests.add(digest)
        assert len(digests) == 2


class TestCliErrorPaths:
    @pytest.mark.parametrize("argv, named", [
        (["evolve", "--dt0", "0.1"], "dt0"),
        (["evolve", "--t-max", "0"], "--t-max"),
        (["evolve", "--config", "missing.cfg"], "missing.cfg"),
        (["threshold", "--lambda", "1"], "unrecognized arguments"),
        (["robin", "--bc", "robin:1"], "invalid choice"),     # the Robin study is threshold's
        (["lambda-star", "--lambda-lo", "5", "--lambda-hi", "1"], "bracket"),
        (["steady", "--method", "monotone", "--lambda", "0"], "--lambda > 0"),
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
        (["verify", "--resolutions", "96,96"], "96"),
        (["steady", "--geometry", "rect", "--lx", "1e-300", "--resolution", "8"],
         "rectangle 1e-300"),
        (["threshold", "--alphas=-0.5,1.5"], "--alphas"),
        (["evolve", "--initial", "steady.snap", "--alpha", "0.5"], "--initial or --alpha"),
        # from (0, 0) the unforced monotone iteration finds only (0, 0)
        (["steady", "--method", "monotone"], "--lambda > 0"),
        # a problem flag that the problem's canonical lines do not name
        (["steady", "--lx", "-5"], "--lx"),
        (["evolve", "--geometry", "rect", "--dim", "3"], "--dim"),
        (["threshold", "--geometry", "rect", "--radius", "2"], "--radius"),
        (["lambda-star", "--geometry", "rect", "--dim", "3"], "--dim"),
        (["steady", "--forcing", "bump"], "--forcing"),
    ])
    def test_usage_error_before_any_solve(self, argv, named, tmp_path, capsys, monkeypatch):
        import thresholdlab.lab.cli as cli
        import thresholdlab.lab.verify as verify

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the input was checked")

        for name in ("solve_newton", "solve_monotone", "evolve", "verify_suite"):
            if not (name == "verify_suite" and argv[0] == "verify"):
                monkeypatch.setattr(cli, name, no_solve)
        for name in ("shooting_oracle", "solve_newton"):
            monkeypatch.setattr(verify, name, no_solve)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not any((tmp_path / "run").rglob("*"))

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    @pytest.mark.parametrize("argv", [["steady"], ["evolve"], ["threshold"],
                                      ["lambda-star"], ["verify"]],
                             ids=lambda argv: argv[0])
    def test_out_that_cannot_be_a_directory_is_usage_error(self, argv, out, tmp_path, capsys,
                                                          monkeypatch):
        # --out naming a file, or a path under one, is refused before any solve
        import thresholdlab.lab.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before --out was checked")

        for name in ("solve_newton", "solve_monotone", "evolve", "verify_suite",
                     "threshold_experiment", "lambda_star_experiment"):
            monkeypatch.setattr(cli, name, no_solve)
        (tmp_path / "taken").write_text("kept")
        assert main([*argv, "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(tmp_path / out) in err
        assert "Traceback" not in err
        assert (tmp_path / "taken").read_text() == "kept"

    def test_high_dimension_in_float_range_solves(self, tmp_path, capsys):
        assert main(["steady", "--dim", "100", "--resolution", "16",
                     "--out", str(tmp_path)]) == 0

    def test_unbuildable_shooting_seed_is_numerical_failure(self, tmp_path, capsys):
        # the grids build, but the shooting oracle's 96-node seed grid does not
        code = main(["verify", "--dim", "342", "--radius", "6", "--resolutions", "4,5",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "shooting root find failed" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv, code, named", [
        (["steady", "--lambda", "1e300", "--resolution", "16"], 2, "amplitude pre-scan"),
        (["steady", "--bc", "robin:1e-300", "--resolution", "16"], 2,
         "singular to float precision"),
        # dt * sup and EPS_DECAY * sup underflow to 0; the decay rule's floor still fires
        (["evolve", "--alpha", "1e-320", "--resolution", "16"], 0, ""),
        (["steady", "--p", "1.001", "--q", "1.001", "--resolution", "16"], 2,
         "overflows (pq = 1.002)"),
        # the probe's reaction and diagnostics overflow: refused before any
        # step, with no overflow warning (an error under this suite's filter)
        (["threshold", "--resolution", "16", "--alphas", "0.5,1e200"], 2,
         "non-finite diagnostic row at t=0"),
        # finite at t = 0: the first step's row overflows, or, for larger
        # data, the norms of the step's shifted solve
        (["threshold", "--resolution", "16", "--alphas", "0.5,1e30"], 2,
         "non-finite diagnostic row at t=1e-10"),
        (["threshold", "--resolution", "16", "--alphas", "0.5,1e70"], 2,
         "norms overflow on data near the float range"),
        # every monotone step solves with A itself, unshifted
        (["steady", "--method", "monotone", "--bc", "robin:1e-300", "--lambda", "1",
          "--p", "2", "--q", "2", "--resolution", "64"], 2,
         "operator singular to float precision"),
    ])
    def test_extreme_finite_input_ends_by_name(self, argv, code, named, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        if argv[0] == "evolve":
            assert json.loads((tmp_path / "result.json").read_text())["outcome"] == "decay"

    def test_robin_without_equilibrium_is_numerical_failure(self, tmp_path, capsys):
        # as for steady with the same flags: Newton's failure is exit 2, not undecided
        code = main(["threshold", "--dim", "3", "--bc", "robin:1", "--p", "6", "--q", "6",
                     "--resolution", "64", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure" in err and "Traceback" not in err
        assert not (tmp_path / "result.json").exists()

    def test_bracket_failing_after_probes_is_usage_error(self, tmp_path, capsys):
        code = main(["lambda-star", "--resolution", "32", "--lambda-lo", "100",
                     "--lambda-hi", "1000", "--out", str(tmp_path)])
        assert code == 1
        assert "not solvable at lam=100" in capsys.readouterr().err
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
    "alphas": (st.sampled_from(["0.5,", ",1.5", "0.5,nan", "-0.5,1.5"]), []),
    "lambda-lo": (st.floats(max_value=0.0).map(repr), []),
    "lambda-hi": (st.floats(max_value=1e-3).map(repr), []),
}
#: Problems a subcommand cannot run, and problem flags the problem does not read.
_WRONG_PROBLEM = {
    "steady": [["--geometry", "rect", "--bc", "robin:1"], ["--lx", "2"], ["--forcing", "bump"]],
    "evolve": [["--geometry", "rect", "--bc", "robin:1"], ["--geometry", "rect", "--dim", "3"]],
    "threshold": [["--geometry", "rect", "--radius", "2"]],
    "lambda-star": [["--geometry", "rect", "--dim", "3"]],
    "verify": [],
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


def _bumped_operator():
    A = disk_operator(32)
    K = sp.lil_matrix(A.K)
    K[0, 1] += 1e-3
    return DiscreteLaplacian(grid=A.grid, K=K.tocsr())


def _ordering_with_low_lifted():
    """ordering_check under a broken parabolic.step: in the first step of the
    first pair, node 0 of the low state ends 1e-6 * max(1, sup) above the
    high state.  The march steps low first, so the second call returns high
    and the first one's result, lifted in place, is low."""
    from thresholdlab import parabolic

    real, made = parabolic.step, []

    def step(*args, **kwargs):
        new = real(*args, **kwargs)
        made.append(new)
        if len(made) == 2:
            low, high = made
            low.u[0] = high.u[0] + 1e-6 * max(1.0, high.sup)
        return new

    spec, A = disk_spec(3.0, 3.0), disk_operator(16)
    eq = solve_newton(spec, A)
    with mock.patch.object(parabolic, "step", step):
        return ordering_check(spec, A, eq, np.random.default_rng(0))


def _decay_run(**extrema):
    return Outcome.decay(1.0), TrajectoryRecord(ExponentPair(3.0, 3.0), 1.0, **extrema)


#: A deliberately broken input for each check the acceptance gate shares with
#: verify, by the name of the one check that must fail on it.
_BROKEN = {
    "duality [x]": lambda: duality_check([_bumped_operator()], np.random.default_rng(0), 1, "x"),
    "squeeze [x]": lambda: decay_checks(*_decay_run(squeeze_high=2e-10), 1.0, "x"),
    "positivity [x]": lambda: decay_checks(*_decay_run(squeeze_low=-2e-12), 1.0, "x"),
    "equilibrium-convergence [128->256]":  # first order: error ratio 2, not 4
        lambda: convergence_checks("equilibrium", (128, 256), [2e-3, 1e-3]),
    "identity-residual-scaling":  # gap quadratic in the residual: slope 2
        lambda: identity_scaling_check([1e-4, 1e-6, 1e-8], [1e-8, 1e-12, 1e-16]),
    "ordering-preserved": _ordering_with_low_lifted,   # low state lifted above high once
}


@pytest.mark.parametrize("failing", list(_BROKEN))
def test_shared_check_fails_on_broken_input(failing):
    assert [c.name for c in _BROKEN[failing]() if not c.passed] == [failing]


class TestVerifyCli:
    def test_failing_report_exit_code(self, monkeypatch, tmp_path, capsys):
        from thresholdlab.lab.verify import CheckResult, VerifyReport
        import thresholdlab.lab.cli as cli

        broken = VerifyReport(checks=[CheckResult("synthetic", False, 1.0, "forced failure")])
        monkeypatch.setattr(cli, "verify_suite", lambda **kwargs: broken)
        code = main(["verify", "--resolutions", "48", "--out", str(tmp_path)])
        assert code == 4
        assert "FAIL" in (tmp_path / "verify.txt").read_text()
