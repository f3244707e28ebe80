"""Verify reports against committed goldens, byte for byte.

tests/golden holds the JSON report of every suite at seeds 0 and 11. A
change that moves a row must say so: regenerate the file with
`PYTHONPATH=src python tests/test_verify_golden.py` and list the row with
its ulp distance in CHANGES.md.

The bits of a report depend on the numpy build and on the SIMD kernels it
dispatches to, so the byte comparison runs where the goldens were made
(GOLDEN_FINGERPRINT). Elsewhere every field but `measured` must match,
which still pins each case's status.
"""

import json
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", suite_names())
def test_report_matches_golden(name, seed):
    text = run_suite(name, seed=seed).to_json()
    golden = _golden_path(name, seed).read_text()
    if _fingerprint() == GOLDEN_FINGERPRINT:
        assert text == golden
        return
    got, want = json.loads(text), json.loads(golden)
    for row in got["cases"] + want["cases"]:
        row.pop("measured")
    assert got == want


if __name__ == "__main__":
    for seed in SEEDS:
        for name in suite_names():
            _golden_path(name, seed).write_text(run_suite(name, seed=seed).to_json())
    print(json.dumps(_fingerprint()))
