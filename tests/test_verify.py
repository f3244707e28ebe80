"""The deterministic verification suites behind the CLI."""

import json

import pytest

from qcflow import UnknownSuite, verify
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
        assert "wallTime" not in run_suite("core", seed=0).payload
        timed = run_suite("core", seed=0, timing=True)
        assert timed.payload["wallTime"] > 0.0

    def test_reports_byte_identical_across_runs(self):
        a = run_suite("examples", seed=7).to_json()
        b = run_suite("examples", seed=7).to_json()
        assert a == b

    def test_reports_byte_identical_across_threads(self):
        a = run_suite("operators", seed=3, threads=1).to_json()
        b = run_suite("operators", seed=3, threads=4).to_json()
        assert a == b

    def test_seed_changes_random_cases(self):
        a = run_suite("traces", seed=0)
        b = run_suite("traces", seed=1)
        assert b.passed
        measured_a = [row["measured"] for row in a.payload["cases"]]
        measured_b = [row["measured"] for row in b.payload["cases"]]
        assert measured_a != measured_b

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
