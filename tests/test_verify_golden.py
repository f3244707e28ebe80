"""Verify reports against committed goldens, byte for byte.

tests/golden holds the JSON report of every suite at seeds 0 and 11. A
change that moves a row must say so: regenerate the files with
`PYTHONPATH=src python tests/test_verify_golden.py` and list the moved
rows with their ulp distances in CHANGES.md. Run it with `--diff` first to
print those rows without writing anything: one line per moved row, with
the case, the old and the new `measured`, their distance in ulps of the
larger magnitude, and any change of status or of another field.

The bits of a report depend on the numpy build and on the SIMD kernels it
dispatches to, so the byte comparison runs where the goldens were made
(GOLDEN_FINGERPRINT), and its failure message is the table of moved rows.
Elsewhere every field but `measured` must match, which still pins each
case's status, and the table is printed, so a run on another numpy or CPU
shows how far its numbers sit from the goldens.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qcflow.verify import run_suite, suite_names

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = (0, 11)
GOLDEN_FINGERPRINT = {"numpy": "2.4.6", "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}


def _fingerprint() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # a build without the dispatch tables
        return {"numpy": np.__version__, "simd": None}
    return {"numpy": np.__version__, "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def _golden_path(name: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{name}-seed{seed}.json"


def _ulps(old, new) -> str:
    """Distance of two measured values in ulps of the larger magnitude."""
    if not (isinstance(old, float) and isinstance(new, float)
            and math.isfinite(old) and math.isfinite(new)):
        return "not finite"
    count = abs(new - old) / math.ulp(max(abs(old), abs(new)))
    return "1 ulp" if count == 1.0 else f"{count:.3g} ulps"


def moved_rows(label: str, golden: str, report: str) -> list[str]:
    """One line per case of the report whose fields differ from the golden's."""
    want = {c["id"]: c for c in json.loads(golden)["cases"]}
    got = {c["id"]: c for c in json.loads(report)["cases"]}
    lines = []
    for case in sorted(want.keys() | got.keys()):
        old, new = want.get(case), got.get(case)
        if old is None or new is None:
            lines.append(f"{label} {case}: {'added' if old is None else 'missing'}")
            continue
        if old == new:
            continue
        line = f"{label} {case}:"
        if old["measured"] != new["measured"]:
            line += (f" measured {old['measured']!r} -> {new['measured']!r}"
                     f" ({_ulps(old['measured'], new['measured'])})")
        for key in sorted((old.keys() | new.keys()) - {"measured"}):
            if old.get(key) != new.get(key):
                line += f" {key} {old.get(key)!r} -> {new.get(key)!r}"
        lines.append(line)
    return lines


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", suite_names())
def test_report_matches_golden(name, seed):
    text = run_suite(name, seed=seed).to_json()
    golden = _golden_path(name, seed).read_text()
    table = "\n".join(moved_rows(f"{name}-{seed}", golden, text))
    if _fingerprint() == GOLDEN_FINGERPRINT:
        assert text == golden, table or "the report's bytes differ, but no case moved"
        return
    print(table)
    got, want = json.loads(text), json.loads(golden)
    for row in got["cases"] + want["cases"]:
        row.pop("measured")
    assert got == want


def test_one_ulp_mutation_prints_exactly_its_row():
    golden = _golden_path("core", 0).read_text()
    report = json.loads(golden)
    case = report["cases"][1]
    old = case["measured"]
    case["measured"] = math.nextafter(old, math.inf)
    lines = moved_rows("core-0", golden, json.dumps(report))
    assert lines == [f"core-0 {case['id']}: measured {old!r} -> {case['measured']!r} (1 ulp)"]
    case["status"] = "fail"
    assert moved_rows("core-0", golden, json.dumps(report)) == [
        lines[0] + " status 'pass' -> 'fail'"]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit("usage: test_verify_golden.py [--diff]")
    diff = sys.argv[1:] == ["--diff"]
    for seed in SEEDS:
        for name in suite_names():
            text = run_suite(name, seed=seed).to_json()
            if diff:
                for line in moved_rows(f"{name}-{seed}", _golden_path(name, seed).read_text(), text):
                    print(line)
            else:
                _golden_path(name, seed).write_text(text)
    print(json.dumps(_fingerprint()))
