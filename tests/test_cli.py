"""Command-line surface tests: exit codes, record shapes, file outputs."""

import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from qcflow import ConfigError, flowlines, gradientflow, maps, tensor, verify
from qcflow.cli import main

OPS_KEYS = {"K", "KSquared", "detJ", "normSqJ", "Sg", "SgNormSq",
            "conformal", "lp", "linfty"}


def run_cli(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def assert_usage_error(result, message):
    """Exit 2 with one error line naming message and nothing on stdout."""
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr


class TestVerifyCommand:
    def test_core_suite_passes(self):
        result = run_cli("verify", "core", "--seed", "7")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["summary"]["passed"] == payload["summary"]["total"]
        assert "core: " in result.stderr and " passed in " in result.stderr

    def test_report_bytes_reproducible(self):
        first = run_cli("verify", "core", "--seed", "7")
        second = run_cli("verify", "core", "--seed", "7")
        assert first.stdout == second.stdout

    def test_env_threads_ignored(self):
        # QCFLOW_THREADS=many used to exit 2; the variable is no longer read
        result = run_cli("verify", "core", "--seed", "5", env={"QCFLOW_THREADS": "many"})
        assert result.exit_code == 0
        assert result.stdout == run_cli("verify", "core", "--seed", "5").stdout

    def test_threads_option_exits_two(self):
        result = run_cli("verify", "core", "--threads", "2")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "No such option '--threads'" in result.stderr

    def test_out_writes_report_file(self, tmp_path):
        target = tmp_path / "report.json"
        result = run_cli("verify", "core", "--seed", "7", "--out", str(target))
        assert result.exit_code == 0
        assert result.stdout == ""
        plain = run_cli("verify", "core", "--seed", "7")
        assert target.read_text() == plain.stdout

    def test_unknown_suite_exits_two(self):
        result = run_cli("verify", "nonsense")
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_tiny_tolerance_fails(self):
        # squeezing every tolerance by 1e-9 pushes honest round-off over the line
        result = run_cli("verify", "core", "--tol", "1e-9")
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        assert payload["summary"]["failed"] > 0

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tolerance_scale_exits_two(self, tol):
        result = run_cli("verify", "core", "--tol", tol)
        assert result.exit_code == 2
        assert "tol_scale must be a finite number >= 0" in result.stderr

    def test_timing_adds_walltime(self):
        timed = run_cli("verify", "core", "--timing")
        payload = json.loads(timed.stdout)
        assert "wallTime" in payload
        assert "passed in" not in timed.stderr


    def test_unwritable_out_exits_two(self, tmp_path):
        # used to end in a FileNotFoundError traceback with exit 1
        result = run_cli("verify", "core", "--out", str(tmp_path / "missing" / "r.json"))
        assert_usage_error(result, "No such file or directory")

    def test_missing_out_dir_checked_before_the_suite(self, tmp_path, monkeypatch):
        # the suite used to run to the end before the write failed
        def run_suite(*args, **kwargs):
            raise ConfigError("suite ran")

        monkeypatch.setattr(verify, "run_suite", run_suite)
        result = run_cli("verify", "core", "--out", str(tmp_path / "missing" / "dir" / "r.json"))
        assert_usage_error(result, "No such file or directory")

class TestOpsCommand:
    def test_radial_stretch_record(self):
        result = run_cli("ops", "radial_stretch", "--param", "alpha=2",
                         "--param", "n=3", "--point", "1,0,0", "--p", "2")
        assert result.exit_code == 0
        rec = json.loads(result.stdout)
        assert rec["KSquared"] == pytest.approx(6.0 / 2.0 ** (2.0 / 3.0), rel=1e-12)
        assert rec["SgNormSq"] == pytest.approx(2.3811015779522995, rel=1e-12)
        assert rec["detJ"] == pytest.approx(2.0, abs=1e-12)
        assert rec["normSqJ"] == pytest.approx(6.0, abs=1e-12)
        assert rec["lp"] == pytest.approx([162.0, 0.0, 0.0], rel=1e-12, abs=1e-10)
        assert max(abs(v) for v in rec["linfty"]) <= 1e-8
        assert rec["conformal"] is False

    def test_record_has_expected_keys(self):
        result = run_cli("ops", "identity", "--param", "n=2", "--point", "0.3,0.4")
        rec = json.loads(result.stdout)
        assert OPS_KEYS <= rec.keys()

    def test_identity_is_conformal(self):
        result = run_cli("ops", "identity", "--param", "n=2", "--point", "0.3,0.4")
        rec = json.loads(result.stdout)
        assert rec["conformal"] is True
        assert rec["K"] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert all(v == 0.0 for v in rec["lp"])
        assert all(v == 0.0 for v in rec["linfty"])

    def test_wedge_sector_constants(self):
        c = math.cos(math.pi / 4.0)
        result = run_cli("ops", "wedge", "--param", f"alpha={math.pi / 2.0}",
                         "--param", "n=3", "--point", f"{c},{c},0")
        rec = json.loads(result.stdout)
        assert rec["detJ"] == pytest.approx(2.0, abs=1e-12)
        assert rec["normSqJ"] == pytest.approx(6.0, abs=1e-12)

    def test_det_and_norm_are_the_numbers_behind_k(self):
        # at this point LAPACK's det and np.sum's |J|^2 differ in the last
        # bits from tensor's kernel, whose det and |J|^2 give K and SgNormSq
        result = run_cli("ops", "teichmuller", "--param", "n=3", "--point", "0.1,0.2,0.1")
        rec = json.loads(result.stdout)
        _, n, det, nsq = tensor._checked(maps.make_map("teichmuller", n=3).jet([0.1, 0.2, 0.1]).J)
        assert (rec["detJ"], rec["normSqJ"]) == (float(det), float(nsq))
        assert rec["K"] == float(tensor._dilation(nsq, det, n))

    def test_out_writes_record_file(self, tmp_path):
        target = tmp_path / "record.json"
        result = run_cli("ops", "identity", "--param", "n=2",
                         "--point", "0.1,0.2", "--out", str(target))
        assert result.exit_code == 0
        assert result.stdout == ""
        assert json.loads(target.read_text())["conformal"] is True

    def test_unknown_map_exits_two(self):
        result = run_cli("ops", "squeeze", "--point", "0,0")
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_missing_param_exits_two(self):
        result = run_cli("ops", "radial_stretch", "--point", "1,0,0")
        assert result.exit_code == 2

    def test_guard_exits_two(self):
        result = run_cli("ops", "radial_stretch", "--param", "alpha=2",
                         "--param", "n=3", "--point", "0,0,0")
        assert result.exit_code == 2
        assert "origin" in result.stderr

    @pytest.mark.parametrize("args, message", [
        (("dilation", "--param", "n=2", "--param", "scale=nan", "--point", "1,1"),
         "scale must be a positive finite number"),
        (("radial_stretch", "--param", "alpha=nan", "--param", "n=2", "--point", "1,1"),
         "alpha must be a positive finite number"),
        (("polynomial", "--param", "n=2", "--param", "amplitude=5", "--point", "0.9,0.9"),
         "determinant must be positive"),
        (("rotation", "--param", "n=3", "--param", "axis=1,0", "--param", "angle=1",
          "--point", "0.1,0.1,0.1"),
         "rotation axis must be 3 numbers of a nonzero finite norm, got [1.0, 0.0]"),
        (("rotation", "--param", "n=3", "--param", "axis=0,0,0", "--param", "angle=1",
          "--point", "0.1,0.1,0.1"),
         "rotation axis must be 3 numbers of a nonzero finite norm"),
        (("rotation", "--param", "n=2", "--param", "angle=inf", "--point", "0.1,0.1"),
         "rotation angle must be a finite number, got inf"),
    ], ids=["dilation_nan", "alpha_nan", "folded_polynomial", "rotation_short_axis",
            "rotation_zero_axis", "rotation_infinite_angle"])
    def test_invalid_jet_exits_two_in_one_line(self, args, message):
        # each used to exit 1, the verification-failure code, with a traceback,
        # or exit 2 naming a value the caller never passed ("math domain error")
        result = run_cli("ops", *args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert message in result.stderr


    @pytest.mark.parametrize("power", ["nan", "-3", "0", "inf"])
    def test_bad_power_exits_two_in_one_line(self, power):
        # NaN used to print a record with bare NaN tokens, which is not JSON
        result = run_cli("ops", "identity", "--param", "n=2", "--point", "1,1", "--p", power)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "p must be a positive finite number" in result.stderr

    @pytest.mark.parametrize("args, message", [
        (("affine", "--param", "matrix=2"), "affine matrix must be a finite square matrix"),
        (("affine", "--param", "matrix=1,2"), "affine matrix must be a finite square matrix"),
        (("translation", "--param", "offset=nan,0"), "translation offset must be finite"),
        (("affine_bump", "--param", "n=2", "--param", "amplitude=abc"),
         "amplitude must be a finite number, got 'abc'"),
        (("polynomial", "--param", "n=2", "--param", "amplitude=abc"),
         "amplitude must be a finite number, got 'abc'"),
        (("radial_stretch", "--param", "n=2", "--param", "alpha=abc"),
         "radial_stretch alpha must be a positive finite number, got 'abc'"),
        (("wedge", "--param", "n=2", "--param", "alpha=abc"),
         "wedge alpha must be an angle in (0, 2*pi), got 'abc'"),
        (("polynomial", "--param", "n=2", "--param", "seed=1.5"),
         "polynomial seed must be an integral number >= 0, got 1.5"),
        (("polynomial", "--param", "n=2", "--param", "seed=-1"),
         "polynomial seed must be an integral number >= 0, got -1"),
    ], ids=["scalar_matrix", "vector_matrix", "nan_offset", "bump_text_amplitude",
            "polynomial_text_amplitude", "radial_text_alpha", "wedge_text_alpha",
            "polynomial_fractional_seed", "polynomial_negative_seed"])
    def test_bad_map_parameter_exits_two_in_one_line(self, args, message):
        # the scalar matrix and the text amplitudes used to end in a traceback
        # (exit 1) and the NaN offset in a record of NaN tokens (exit 0); the
        # text alphas and the seeds exited 2 with a message that named no parameter
        result = run_cli("ops", *args, "--point", "0.1,0.1")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert message in result.stderr


    def test_unwritable_out_exits_two(self, tmp_path):
        result = run_cli("ops", "identity", "--param", "n=2", "--point", "0.1,0.2",
                         "--out", str(tmp_path / "missing" / "r.json"))
        assert_usage_error(result, "No such file or directory")

    def test_missing_out_dir_checked_before_the_map(self, tmp_path, monkeypatch):
        # the map used to be built and sampled before the write failed
        def make_map(*args, **kwargs):
            raise ConfigError("map built")

        monkeypatch.setattr(maps, "make_map", make_map)
        result = run_cli("ops", "identity", "--param", "n=2", "--point", "0.1,0.2",
                         "--out", str(tmp_path / "missing" / "dir" / "r.json"))
        assert_usage_error(result, "No such file or directory")

    def test_unknown_generator_parameter_exits_two(self):
        # used to print a record and exit 0, ignoring the key
        result = run_cli("ops", "rotation", "--param", "n=2", "--param", "angle=1",
                         "--param", "bogus=7", "--point", "0.1,0.1")
        assert_usage_error(result, "rotation bogus must be left out, as rotation takes only "
                                   "n, angle, axis, matrix, got 7")

    @pytest.mark.parametrize("args, message", [
        (("polynomial", "--param", "n=3", "--point", "0.3,0.2,0.1", "--p", "800"),
         "non-finite lp at p=800"),
        (("identity", "--param", "n=2", "--point", "1,1", "--p", "5000"),
         "non-finite lp at p=5000"),
    ], ids=["polynomial_p800", "identity_p5000"])
    def test_overflowing_record_exits_two(self, args, message):
        # each used to print "lp": [NaN, ...] after two RuntimeWarnings and exit 0
        assert_usage_error(run_cli("ops", *args), message)

    def test_bracketed_matrix_parameter(self):
        result = run_cli("ops", "affine", "--param", "matrix=[[1.2,0.1],[0,0.9]]",
                         "--point", "0.1,0.2")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["detJ"] == pytest.approx(1.08, rel=1e-14)

    def test_bracketed_rotation_matrix(self):
        result = run_cli("ops", "rotation", "--param", "n=2",
                         "--param", "matrix=[[0,-1],[1,0]]", "--point", "0.1,0.2")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["conformal"] is True

    @pytest.mark.parametrize("args, message", [
        (("--param", "matrix=[[1.2,0.1],[0,0.9]"), "parameter 'matrix' is not valid JSON"),
        (("--param", "matrix"), "parameter 'matrix' is not of the form key=value"),
    ], ids=["malformed_json", "no_equals"])
    def test_bad_param_syntax_exits_two(self, args, message):
        assert_usage_error(run_cli("ops", "affine", *args, "--point", "0.1,0.2"), message)

    def test_non_numeric_point_exits_two(self):
        result = run_cli("ops", "identity", "--param", "n=2", "--point", "0.1,x")
        assert_usage_error(result, "point '0.1,x' is not a comma-separated float list")

def parse_status(stderr: str) -> dict:
    # the status value itself may contain spaces, so anchor on the known keys
    line = [ln for ln in stderr.splitlines() if ln.startswith("status=")][-1]
    match = re.fullmatch(
        r"status=(?P<status>.+) samples=(?P<samples>\d+)"
        r" Kdrift=(?P<Kdrift>\S+) rowSwitches=(?P<rowSwitches>\d+)", line)
    assert match is not None, line
    return match.groupdict()


class TestFlowlineCommand:
    def test_constant_dilation_composition_drift(self):
        result = run_cli("flowline", "teichmuller", "--param", "n=2",
                         "--x0", "0.3,0.1")
        assert result.exit_code == 0
        status = parse_status(result.stderr)
        assert float(status["Kdrift"]) <= 1e-6
        assert status["rowSwitches"] == "0"

    def test_csv_on_stdout(self):
        result = run_cli("flowline", "teichmuller", "--param", "n=2",
                         "--x0", "0.3,0.1")
        lines = result.stdout.splitlines()
        assert lines[0] == "s,x1,x2,K,row,speed"
        status = parse_status(result.stderr)
        assert len(lines) - 1 == int(status["samples"])

    def test_out_writes_csv_file(self, tmp_path):
        target = tmp_path / "line.csv"
        filed = run_cli("flowline", "teichmuller", "--param", "n=2",
                        "--x0", "0.3,0.1", "--out", str(target))
        assert filed.exit_code == 0
        piped = run_cli("flowline", "teichmuller", "--param", "n=2",
                        "--x0", "0.3,0.1")
        assert target.read_text() == piped.stdout

    def test_degenerate_at_start(self):
        # conformal map: the flow field vanishes identically
        result = run_cli("flowline", "inversion", "--param", "n=2",
                         "--x0", "0.3,0.1")
        assert result.exit_code == 0
        status = parse_status(result.stderr)
        assert status["samples"] == "1"
        assert "degenerate at start" in result.stderr

    def test_start_outside_domain_exits_two(self):
        result = run_cli("flowline", "teichmuller", "--param", "n=2",
                         "--x0", "2,0")
        assert result.exit_code == 2

    @pytest.mark.parametrize("x0, shown", [("nan,0.1", "[nan, 0.1]"), ("0.1", "[0.1]")],
                             ids=["nan", "short"])
    def test_bad_start_point_exits_two(self, x0, shown):
        # a NaN start used to reach the map and exit 3 as a halted line
        result = run_cli("flowline", "teichmuller", "--param", "n=2", "--x0", x0)
        assert_usage_error(result, f"x0 must be a finite point of shape (2,), got {shown}")

    def test_unknown_map_exits_two(self):
        result = run_cli("flowline", "squeeze", "--x0", "0,0")
        assert result.exit_code == 2

    def test_bad_map_parameter_exits_two_without_writes(self, tmp_path):
        target = tmp_path / "line.csv"
        result = run_cli("flowline", "affine", "--param", "matrix=2", "--x0", "0.1,0.1",
                         "--out", str(target))
        assert result.exit_code == 2
        assert "affine matrix must be a finite square matrix" in result.stderr
        assert not target.exists()

    def test_nan_amplitude_exits_two(self):
        # used to exit 3, a halted line, with "matrix entries must be finite"
        result = run_cli("flowline", "affine_bump", "--param", "n=2", "--param", "amplitude=nan",
                         "--x0", "0.4,0.3")
        assert_usage_error(result, "amplitude must be a finite number, got nan")

    @pytest.mark.parametrize("ds", ["0", "-1e-3"])
    def test_bad_step_exits_two(self, ds):
        result = run_cli("flowline", "teichmuller", "--param", "n=2",
                         "--x0", "0.3,0.1", "--ds", ds)
        assert result.exit_code == 2
        assert "ds must be a positive finite number" in result.stderr

    @pytest.mark.parametrize("option, value", [
        ("--max-len", "nan"), ("--max-len", "-1"), ("--max-len", "0"),
        ("--radius", "nan"), ("--radius", "0"),
    ])
    def test_bad_length_or_radius_exits_two(self, option, value):
        # a bad cap would report one maxLength sample; a NaN radius has no boundary
        result = run_cli("flowline", "teichmuller", "--param", "n=2",
                         "--x0", "0.3,0.1", option, value)
        assert result.exit_code == 2
        name = option[2:].replace("-", "_")
        assert f"{name} must be a positive finite number" in result.stderr


    def test_unwritable_out_exits_two(self, tmp_path):
        result = run_cli("flowline", "teichmuller", "--param", "n=2", "--x0", "0.3,0.1",
                         "--max-len", "0.01", "--out", str(tmp_path / "missing" / "l.csv"))
        assert_usage_error(result, "No such file or directory")

    def test_missing_out_dir_checked_before_the_line(self, tmp_path, monkeypatch):
        # the whole line used to be traced before the write failed
        def reached(*args, **kwargs):
            raise ConfigError("work started")

        monkeypatch.setattr(maps, "make_map", reached)
        monkeypatch.setattr(flowlines, "trace_flowline", reached)
        result = run_cli("flowline", "teichmuller", "--param", "n=2", "--x0", "0.3,0.1",
                         "--out", str(tmp_path / "missing" / "dir" / "l.csv"))
        assert_usage_error(result, "No such file or directory")

    def test_bracketed_affine_matrix(self):
        result = run_cli("flowline", "affine", "--param", "matrix=[[1.2,0.1],[0,0.9]]",
                         "--x0", "0.3,0.1", "--max-len", "0.01")
        assert result.exit_code == 0
        status = parse_status(result.stderr)
        assert status["status"] == "maxLength" and float(status["Kdrift"]) == 0.0

    def test_fold_mid_line_exits_three(self):
        # det J is 1.04 at the start; the line walks into the fold
        result = run_cli("flowline", "polynomial", "--param", "n=2",
                         "--param", "amplitude=0.3", "--x0", "0.3,-0.2",
                         "--ds", "0.01", "--max-len", "2")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "determinant must be positive" in result.stderr

def write_config(path, **overrides):
    cfg = {
        "map": {"id": "affine_bump", "params": {"n": 2}},
        "shape": [17, 17],
        "h": 1.0 / 16.0,
        "p": 2.0,
        "t_final": 5e-4,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


class TestFlowCommand:
    def test_affine_energy_constant(self, tmp_path):
        cfg = tmp_path / "affine.json"
        write_config(cfg, map={"id": "affine",
                               "params": {"matrix": [[2.0, 0.0], [0.0, 0.5]]}},
                     p=1.0)
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 0
        summary = json.loads(result.stdout)
        assert summary["energyFirst"] == pytest.approx(4.25, abs=1e-12)
        assert summary["energyLast"] == pytest.approx(4.25, abs=1e-11)
        assert summary["haltReason"] is None
        assert summary["steps"] >= 1

    def test_summary_keys(self, tmp_path):
        cfg = tmp_path / "flow.json"
        write_config(cfg)
        result = run_cli("flow", str(cfg))
        summary = json.loads(result.stdout)
        assert set(summary) == {"steps", "energyFirst", "energyLast",
                                "minDetLast", "haltReason", "violations",
                                "compatResidual"}

    def test_bump_stats_and_snapshots(self, tmp_path):
        cfg = tmp_path / "flow.json"
        stats = tmp_path / "stats.csv"
        snap0 = tmp_path / "initial.bin"
        snap1 = tmp_path / "final.bin"
        write_config(cfg, stats=str(stats),
                     snapshots={"initial": str(snap0), "final": str(snap1)})
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 0

        lines = stats.read_text().splitlines()
        assert lines[0] == "step,time,energy,min_det,dt"
        energies = [float(ln.split(",")[2]) for ln in lines[1:]]
        tol = 1e-12 * (1.0 + energies[0])
        assert all(b <= a + tol for a, b in zip(energies, energies[1:]))

        values0, h0 = gradientflow.read_snapshot(str(snap0))
        values1, h1 = gradientflow.read_snapshot(str(snap1))
        assert h0 == h1 == 1.0 / 16.0
        assert values0.shape == values1.shape == (17, 17, 2)
        assert not np.array_equal(values0, values1)

    def test_malformed_json_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_unknown_key_exits_two_without_writes(self, tmp_path):
        cfg = tmp_path / "flow.json"
        stats = tmp_path / "stats.csv"
        write_config(cfg, stats=str(stats), horizon=1.0)
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert not stats.exists()

    def test_missing_key_exits_two(self, tmp_path):
        cfg = tmp_path / "flow.json"
        payload = write_config(cfg)
        del payload["t_final"]
        cfg.write_text(json.dumps(payload))
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert "t_final" in result.stderr

    def test_bad_mode_exits_two(self, tmp_path):
        cfg = tmp_path / "flow.json"
        write_config(cfg, mode="rk4")
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2

    @pytest.mark.parametrize("safety", [0.0, -1.0, math.nan])
    def test_bad_safety_exits_two_without_writes(self, tmp_path, safety):
        cfg = tmp_path / "flow.json"
        stats = tmp_path / "stats.csv"
        snap = tmp_path / "initial.bin"
        write_config(cfg, safety=safety, stats=str(stats),
                     snapshots={"initial": str(snap)})
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert "safety must be a positive finite number" in result.stderr
        assert not stats.exists() and not snap.exists()

    @pytest.mark.parametrize("key, bad", [
        ("p", 0.0), ("p", -1.0), ("t_final", -1.0), ("outer", 0), ("outer", -2),
        ("outer", 2.5),
    ])
    def test_bad_run_argument_exits_two_without_writes(self, tmp_path, key, bad):
        # p = 0 used to exit 1 with a traceback after writing the initial
        # snapshot; the others ran and exited 0, outer = 2.5 with 2 passes
        cfg = tmp_path / "flow.json"
        stats = tmp_path / "stats.csv"
        snap = tmp_path / "initial.bin"
        write_config(cfg, mode="picard", stats=str(stats),
                     snapshots={"initial": str(snap)}, **{key: bad})
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert f"error: {key} must be" in result.stderr
        assert not stats.exists() and not snap.exists()

    @pytest.mark.parametrize("key, bad", [
        ("p", True), ("p", "2"), ("p", None), ("p", [2.0]), ("t_final", True),
        ("t_final", "5e-4"), ("safety", False), ("safety", "0.2"), ("h", True),
        ("h", "0.125"), ("p", 10**400),
    ], ids=["p_true", "p_text", "p_null", "p_list", "t_final_true", "t_final_text",
            "safety_false", "safety_text", "h_true", "h_text", "p_huge_int"])
    def test_run_value_not_a_number_exits_two_without_writes(self, tmp_path, key, bad):
        # "p": true ran as p = 1 and "h": "0.125" as h = 0.125, both exiting 0
        cfg = tmp_path / "flow.json"
        stats = tmp_path / "stats.csv"
        snap = tmp_path / "initial.bin"
        write_config(cfg, stats=str(stats), snapshots={"initial": str(snap)}, **{key: bad})
        result = run_cli("flow", str(cfg))
        assert_usage_error(result, f"error: {key} must be a number within the float range")
        assert not stats.exists() and not snap.exists()

    @pytest.mark.parametrize("shape", [[17.9, 17], [17, "17"]], ids=["fraction", "text"])
    def test_bad_node_count_exits_two_without_writes(self, tmp_path, shape):
        # [17.9, 17] used to run on a 17x17 grid and exit 0
        cfg = tmp_path / "flow.json"
        snap = tmp_path / "initial.bin"
        write_config(cfg, shape=shape, snapshots={"initial": str(snap)})
        result = run_cli("flow", str(cfg))
        assert_usage_error(result, "grid node counts must be integral numbers")
        assert not snap.exists()

    @pytest.mark.parametrize("h", [0.0, -0.0625])
    def test_bad_spacing_exits_two_without_writes(self, tmp_path, h):
        cfg = tmp_path / "flow.json"
        snap = tmp_path / "initial.bin"
        write_config(cfg, h=h, snapshots={"initial": str(snap)})
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert "h must be a positive finite number" in result.stderr
        assert not snap.exists()

    @pytest.mark.parametrize("origin", [[0.5], [math.nan, 0.0]])
    def test_bad_origin_exits_two_without_writes(self, tmp_path, origin):
        # [0.5] used to run and exit 0 on a broadcast origin
        cfg = tmp_path / "flow.json"
        snap = tmp_path / "initial.bin"
        write_config(cfg, origin=origin, snapshots={"initial": str(snap)})
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert "origin must be 2 finite numbers" in result.stderr
        assert not snap.exists()

    @pytest.mark.parametrize("params, message", [
        ({"matrix": 2}, "affine matrix must be a finite square matrix"),
        ({"matrix": [[1.0, 2.0]]}, "affine matrix must be a finite square matrix"),
        ({"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": [math.nan, 0.0]},
         "affine offset must be finite numbers, one or more in a flat vector, got [nan, 0.0]"),
    ], ids=["scalar_matrix", "one_by_two", "nan_offset"])
    def test_bad_map_parameter_exits_two_without_writes(self, tmp_path, params, message):
        # the NaN offset used to write its initial snapshot and then die
        # with a NonFiniteValue traceback
        cfg = tmp_path / "flow.json"
        stats = tmp_path / "stats.csv"
        snap = tmp_path / "initial.bin"
        write_config(cfg, map={"id": "affine", "params": params}, stats=str(stats),
                     snapshots={"initial": str(snap)})
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 2
        assert f"error: {message}" in result.stderr
        assert not stats.exists() and not snap.exists()

    @pytest.mark.parametrize("mapping, message", [
        ({"id": "affine_bump", "params": [1]}, "and map.params an object"),
        ({"id": "affine_bump", "params": {"n": True}},
         "affine_bump n must be an integral number >= 1, got True"),
        ({"id": "affine_bump", "params": {"n": 2, "amplitude": True}},
         "affine_bump amplitude must be a finite number, got True"),
    ], ids=["params_list", "bool_dimension", "bool_amplitude"])
    def test_bad_map_params_exit_two_in_one_line(self, tmp_path, mapping, message):
        # a list exited 2 with Python's "argument after ** must be a mapping"; a JSON
        # true built a 1-d map that failed on the grid rank, or an amplitude-1 bump
        # that failed on an unnamed determinant
        cfg = tmp_path / "flow.json"
        snap = tmp_path / "initial.bin"
        write_config(cfg, map=mapping, snapshots={"initial": str(snap)})
        result = run_cli("flow", str(cfg))
        assert_usage_error(result, message)
        assert not snap.exists()

    def test_node_outside_the_map_domain_exits_two(self, tmp_path):
        # node (4, 4) of the grid is the origin, where the radial stretch has no jet
        cfg = tmp_path / "flow.json"
        write_config(cfg, map={"id": "radial_stretch", "params": {"alpha": 2, "n": 2}},
                     shape=[9, 9], h=0.125, origin=[-0.5, -0.5])
        result = run_cli("flow", str(cfg))
        assert_usage_error(result, "radial stretch sampled at the origin")
        assert result.stderr == "error: radial stretch sampled at the origin\n"

    def test_halted_run_exits_three_with_partial_stats(self, tmp_path):
        # oversized steps blow through the determinant floor
        cfg = tmp_path / "flow.json"
        stats = tmp_path / "stats.csv"
        write_config(cfg, safety=50.0, t_final=1.0, stats=str(stats))
        result = run_cli("flow", str(cfg))
        assert result.exit_code == 3
        summary = json.loads(result.stdout)
        assert summary["haltReason"] == "determinant_collapse"
        assert stats.exists()
        assert len(stats.read_text().splitlines()) >= 2

    @pytest.mark.parametrize("key", ["stats", "initial", "final"])
    def test_unwritable_output_exits_two(self, tmp_path, key):
        # an unwritable stats path used to end in a traceback with exit 1
        cfg = tmp_path / "flow.json"
        target = str(tmp_path / "missing" / "out")
        if key == "stats":
            write_config(cfg, stats=target)
        else:
            write_config(cfg, snapshots={key: target})
        assert_usage_error(run_cli("flow", str(cfg)), "No such file or directory")

    def test_missing_out_dir_checked_before_the_grid(self, tmp_path, monkeypatch):
        # the initial snapshot used to be written and the whole flow run
        # before the stats write failed
        def make_grid(*args, **kwargs):
            raise ConfigError("grid built")

        monkeypatch.setattr(gradientflow, "make_grid", make_grid)
        cfg = tmp_path / "flow.json"
        initial = tmp_path / "initial.bin"
        write_config(cfg, stats=str(tmp_path / "missing" / "stats.csv"),
                     snapshots={"initial": str(initial)})
        assert_usage_error(run_cli("flow", str(cfg)), "No such file or directory")
        assert not initial.exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"),
        ([1, 2], "config root must be a JSON object"),
        ({"map": {"params": {"n": 2}}}, "config map must be an object with an id"),
        ({"snapshots": {"middle": "m.bin"}},
         "snapshots must be an object with keys initial and/or final"),
    ], ids=["unreadable", "list_root", "map_without_id", "unknown_snapshot_key"])
    def test_bad_config_exits_two(self, tmp_path, content, message):
        cfg = tmp_path / "flow.json"
        if isinstance(content, dict):
            write_config(cfg, **content)
        elif content is not None:
            cfg.write_text(json.dumps(content))
        assert_usage_error(run_cli("flow", str(cfg)), message)
