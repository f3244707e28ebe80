"""The deterministic verification suites behind the CLI."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import jet_draws_one_at_a_time, pathwise_derivative_pairs, skipped_draws_one_at_a_time

from qcflow import UnknownSuite, maps, operators, traces, verify
from qcflow.flowlines import FlowTrajectory, trace_flowline
from qcflow.verify import SuiteCase, run_suite, suite_names


EXPECTED_SUITES = ["core", "examples", "flow", "flowlines", "operators", "traces"]


class TestSuiteNames:
    def test_names_sorted_and_complete(self):
        assert suite_names() == EXPECTED_SUITES


class TestRunSuite:
    @pytest.mark.parametrize("name", EXPECTED_SUITES)
    def test_all_suites_pass_default_seed(self, name):
        report = run_suite(name, seed=0)
        assert report.passed, report.to_json()

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("everything")

    def test_payload_shape(self):
        report = run_suite("core", seed=0)
        payload = report.payload
        assert payload["suite"] == "core"
        assert payload["seed"] == 0
        assert payload["tolScale"] == 1.0
        assert payload["summary"]["total"] == len(payload["cases"])
        assert payload["summary"]["passed"] + payload["summary"]["failed"] == len(
            payload["cases"]
        )
        ids = [row["id"] for row in payload["cases"]]
        assert ids == sorted(ids)
        for row in payload["cases"]:
            assert set(row) == {"id", "basis", "status", "measured", "expected", "tolerance"}
            assert row["basis"] in ("definitional", "closed_form", "cross_check")

    def test_wall_time_only_when_requested(self):
        plain = run_suite("core", seed=0)
        assert "wallTime" not in plain.payload
        assert not any("wallTime" in row for row in plain.payload["cases"])
        timed = run_suite("core", seed=0, timing=True)
        assert timed.payload["wallTime"] > 0.0
        rows = timed.payload["cases"]
        assert all(row["wallTime"] > 0.0 for row in rows)
        assert sum(row["wallTime"] for row in rows) <= timed.payload["wallTime"]
        for row in rows:
            del row["wallTime"]
        assert rows == plain.payload["cases"]

    def test_reports_byte_identical_across_runs(self):
        a = run_suite("examples", seed=7).to_json()
        b = run_suite("examples", seed=7).to_json()
        assert a == b

    def test_threads_other_than_one_rejected(self):
        # the cases used to run on a pool of that many threads
        with pytest.raises(ValueError, match="threads must be 1, got 2"):
            run_suite("core", threads=2)
        assert run_suite("core", threads=1).to_json() == run_suite("core").to_json()

    def test_seed_changes_random_cases(self):
        a = run_suite("traces", seed=0)
        b = run_suite("traces", seed=1)
        assert b.passed
        measured_a = [row["measured"] for row in a.payload["cases"]]
        measured_b = [row["measured"] for row in b.payload["cases"]]
        assert measured_a != measured_b

    @pytest.mark.parametrize("tol_scale", [-1.0, float("nan"), float("inf")])
    def test_bad_tol_scale_rejected(self, tol_scale):
        # inf would pass every finite case; NaN and negatives would fail every case
        with pytest.raises(ValueError, match="tol_scale must be a finite number >= 0"):
            run_suite("core", tol_scale=tol_scale)

    def test_tol_scale_multiplies_tolerances(self):
        base = run_suite("core", seed=0)
        scaled = run_suite("core", seed=0, tol_scale=10.0)
        for row_b, row_s in zip(base.payload["cases"], scaled.payload["cases"]):
            assert row_s["tolerance"] == pytest.approx(10.0 * row_b["tolerance"])

    def test_zero_tolerance_cases_exist(self):
        # exact determinism cases carry tolerance 0 and still pass
        report = run_suite("flow", seed=0)
        zero_rows = [r for r in report.payload["cases"] if r["tolerance"] == 0.0]
        assert zero_rows
        assert all(r["status"] == "pass" for r in zero_rows)

    def test_json_round_trips(self):
        text = run_suite("core", seed=0).to_json()
        payload = json.loads(text)
        assert payload["suite"] == "core"

    def test_failing_row_carries_its_error(self, monkeypatch):
        def raises(rng):
            raise ValueError("bad input")

        monkeypatch.setitem(verify._SUITES, "broken", [
            SuiteCase("broken.raises", "definitional", 1.0, raises),
            SuiteCase("broken.misses", "definitional", 1.0, lambda rng: (5.0, 0.0)),
            SuiteCase("broken.passes", "definitional", 1.0, lambda rng: (0.5, 0.0)),
        ])
        rows = {row["id"]: row for row in run_suite("broken").payload["cases"]}
        assert rows["broken.raises"]["status"] == "fail"
        assert rows["broken.raises"]["measured"] == float("inf")
        assert rows["broken.raises"]["error"] == "ValueError: bad input"
        assert rows["broken.misses"]["status"] == "fail"
        assert "error" not in rows["broken.misses"]
        assert "error" not in rows["broken.passes"]

    @pytest.mark.parametrize("case_id", ["examples.conformal_invariance",
                                         "examples.distortion_conjugation",
                                         "examples.inversion_conformal",
                                         "examples.radial_dilation_value",
                                         "examples.wedge_constants"])
    def test_first_order_cases_build_no_jet_sample(self, monkeypatch, case_id):
        # these cases read J alone, through jacobian; a fold is refused by
        # the tensor kernel's own check
        def refuse(self):
            raise AssertionError("Jet2Sample built")

        monkeypatch.setattr(operators.Jet2Sample, "__post_init__", refuse)
        cases = verify._SUITES["examples"]
        index = [case.case_id for case in cases].index(case_id)
        row = verify._run_case(cases[index], index, 0, 1.0, False)
        assert row["status"] == "pass" and "error" not in row


class TestStackedDraws:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("min_det", [0.05, 0.9])  # 0.9 rejects and redraws some J
    def test_stacked_jets_follow_random_jet_order(self, n, min_det):
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        stacked = verify._random_jets(n, a, 12, min_det=min_det)
        for i in range(12):
            jet = verify.random_jet(n, b, min_det=min_det)
            for name in ("x", "u", "J", "H"):
                assert getattr(jet, name).tobytes() == getattr(stacked, name)[i].tobytes()
        assert a.standard_normal() == b.standard_normal()

    def test_pathwise_pairs_match_the_per_sample_formula(self):
        mapping = maps.polynomial_map(2, seed=5, amplitude=0.08)
        traj = trace_flowline(mapping, np.array([0.12, -0.08]), ds=1e-3, max_len=0.2)
        expect = []
        for k in range(1, len(traj) - 1):
            if not (traj.row[k - 1] == traj.row[k] == traj.row[k + 1]
                    and traj.sign[k - 1] == traj.sign[k] == traj.sign[k + 1]):
                continue
            dk_fd = float(traj.K[k + 1] - traj.K[k - 1]) / float(traj.s[k + 1] - traj.s[k - 1])
            jet = mapping.jet(traj.x[k])
            kval, nsq = float(traj.K[k]), float(np.sum(jet.J * jet.J))
            lim = float(operators.linfty_factored(jet)[int(traj.row[k]) - 1])
            expect.append((dk_fd, float(traj.sign[k]) * kval**3 / (4 * nsq**2) * lim))
        assert expect
        assert pathwise_derivative_pairs(mapping, traj) == expect


class TestBlockReader:
    """One block of normals per case, parsed as the draws one rng call at a time."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), count=st.integers(1, 30),
           scale=st.floats(0.2, 0.8), min_det=st.sampled_from([0.05, 0.5, 1.0]),
           extra=st.integers(0, 8))
    def test_jets_equal_the_sequential_oracle_bitwise(self, seed, n, count, scale, min_det, extra):
        # min_det = 1.0 rejects about half the candidates, so redraws and top-ups are common
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify._jet_draws(n, a, count, scale, min_det, extra)
        want = jet_draws_one_at_a_time(n, b, count, scale, min_det, extra)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.uniform() == b.uniform()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), tries=st.integers(1, 40),
           tail=st.integers(0, 5), scale=st.floats(0.2, 0.8),
           min_det=st.sampled_from([0.05, 0.5, 1.0, np.inf]))
    def test_skipped_draws_equal_the_sequential_oracle_bitwise(self, seed, n, tries, tail, scale,
                                                               min_det):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify._read_draws(a, n, tries, tail, scale, min_det, skip=True)
        want = skipped_draws_one_at_a_time(n, b, tries, tail, scale, min_det)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 11])
    def test_unit_sphere_records_equal_the_per_draw_calls(self, seed):
        # the parent loop: one affine map and one public call per kept draw
        index = [c.case_id for c in verify._SUITES["traces"]].index("traces.oneway_slack")
        rng = np.random.default_rng((seed, index))
        got = verify._unit_sphere_records(rng)
        js, xs = skipped_draws_one_at_a_time(3, np.random.default_rng((seed, index)), 200, 3, 0.4, 0.05)
        sphere = traces.Sphere(center=np.zeros(3), radius=1.0)
        assert len(js) == len(got.slack) > 150
        for i, (j, x) in enumerate(zip(js, xs)):
            want = traces.trace_inequality_check(maps.affine_map(j), sphere, x / np.linalg.norm(x))
            for name in ("lhs", "rhs", "slack", "block_norm_residual", "block_det_residual"):
                assert np.float64(getattr(want, name)).tobytes() == getattr(got, name)[i].tobytes()

    def test_a_run_that_skips_every_map_fails_with_an_error(self, monkeypatch):
        read = verify._read_draws

        def rejects_all(rng, n, count, tail, scale, min_det, skip=False):
            return read(rng, n, count, tail, scale, np.inf, skip)

        monkeypatch.setattr(verify, "_read_draws", rejects_all)
        rows = {row["id"]: row for row in run_suite("traces", seed=0).payload["cases"]}
        for case in ("traces.block_identities", "traces.oneway_slack"):
            assert rows[case]["status"] == "fail"
            assert rows[case]["error"] == "ValueError: every candidate map was skipped; nothing was checked"
        assert rows["traces.critical_equality"]["status"] == "pass"


class TestBoundedRedraws:
    def test_unreachable_min_det_raises_within_a_second(self):
        # det I + 0.01 Z stays near 1, so min_det = 2 is out of reach
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"min_det=2\.0"):
            verify.random_jet(2, np.random.default_rng(0), scale=0.01, min_det=2.0)
        assert time.perf_counter() - start < 1.0

    def test_the_cap_counts_rejections_in_a_row(self):
        # min_det = 1 rejects about half of I + 0.01 Z: some 2,000 rejections
        # in all, more than the cap, but never that many in a row
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        got = verify._jet_draws(2, a, 2000, 0.01, 1.0)
        want = jet_draws_one_at_a_time(2, b, 2000, 0.01, 1.0)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert a.bit_generator.state == b.bit_generator.state


def _pathwise_case():
    cases = verify._SUITES["flowlines"]
    index = [case.case_id for case in cases].index("flowlines.pathwise_identity")
    return cases[index], index


def _pathwise_row(seed):
    """The flowlines.pathwise_identity row of the flowlines report at seed."""
    case, index = _pathwise_case()
    return verify._run_case(case, index, seed, 1.0, False)


def _reversed(traj):
    """The same samples walked backwards: s runs up again and each sign flips."""
    return FlowTrajectory(s=traj.s[-1] - traj.s[::-1], x=traj.x[::-1], K=traj.K[::-1],
                          row=traj.row[::-1], speed=traj.speed[::-1], sign=-traj.sign[::-1],
                          terminated=traj.terminated)


class TestPathwiseIdentity:
    @pytest.mark.parametrize("seed", [77, 149, 213])  # the centred difference failed these
    def test_passes_where_the_difference_quotient_failed(self, seed):
        row = _pathwise_row(seed)
        assert row["status"] == "pass", row

    @pytest.mark.parametrize("mutant", [
        lambda rate: lambda n, sign, kval, nsq, lim: -rate(n, sign, kval, nsq, lim),
        lambda rate: lambda n, sign, kval, nsq, lim: rate(n, sign, kval, nsq, lim) / kval,
    ], ids=["flipped_sign", "k_squared"])
    def test_a_wrong_formula_fails_by_a_hundred_tolerances(self, monkeypatch, mutant):
        monkeypatch.setattr(verify, "_dilation_rate", mutant(verify._dilation_rate))
        row = _pathwise_row(0)
        assert row["status"] == "fail"
        assert row["measured"] >= 100 * row["tolerance"]

    def test_integral_and_derivative_forms_agree_on_a_fine_line(self):
        _, index = _pathwise_case()
        rng = np.random.default_rng((0, index))
        mapping = maps.polynomial_map(2, seed=int(rng.integers(2**32)), amplitude=0.08)
        traj = trace_flowline(mapping, np.array([0.12, -0.08]), ds=2e-4, max_len=0.2)
        assert verify._pathwise_integral_residual(mapping, traj) <= 1e-5
        pairs = pathwise_derivative_pairs(mapping, traj)
        floor = max(0.05 * max(abs(f) for _, f in pairs), 1e-12)
        assert max(abs(fd - f) / max(abs(f), floor) for fd, f in pairs) <= 1e-5

    def test_runs_split_at_a_row_and_sign_switch(self):
        # two lines joined where the row and sign switch: each run is integrated from
        # its own first sample, so the jump in K between the lines is never compared
        mapping = maps.polynomial_map(2, seed=5, amplitude=0.08)
        a = trace_flowline(mapping, np.array([0.12, -0.08]), ds=1e-3, max_len=0.1)
        b = _reversed(trace_flowline(mapping, np.array([-0.3, -0.4]), ds=1e-3, max_len=0.1))
        assert a.row[-1] != b.row[0] and a.sign[-1] != b.sign[0]
        assert abs(b.K[0] - a.K[-1]) > max(np.ptp(a.K), np.ptp(b.K))
        joined = FlowTrajectory(
            s=np.concatenate((a.s, a.s[-1] + 1e-3 + b.s)), x=np.concatenate((a.x, b.x)),
            K=np.concatenate((a.K, b.K)), row=np.concatenate((a.row, b.row)),
            speed=np.concatenate((a.speed, b.speed)), sign=np.concatenate((a.sign, b.sign)),
            terminated=b.terminated)
        for traj in (a, b, joined):
            assert verify._pathwise_integral_residual(mapping, traj) <= 1e-5
        one = FlowTrajectory(s=a.s[:1], x=a.x[:1], K=a.K[:1], row=a.row[:1], speed=a.speed[:1],
                             sign=a.sign[:1], terminated="degenerate")
        assert verify._pathwise_integral_residual(mapping, one) == 1.0

