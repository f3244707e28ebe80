"""Grid flows against committed goldens.

tests/golden/flows.json holds one entry per flow in FLOWS: `affine_bump`
at 17^2 and 9^3, explicit and picard (three passes), at p = 2 and 5,
each to a horizon of STEPS stable steps. An entry keeps the step count,
the final energy and min det, the boundary residual, the halt reason and
the violation count at full repr, and sha256 digests of the final values
and of the dt history. A change that moves an entry must say so:
regenerate the file with `PYTHONPATH=src python tests/test_flow_golden.py`
and list the moved entries with their ulp distances in CHANGES.md. Run
it with `--diff` first to print them without writing anything: one line
per moved entry, with each changed number, old and new, and their
distance in ulps, and each changed digest.

As for the verify goldens, the bits depend on the numpy build and its
SIMD kernels, so the entries must match exactly only where they were made
(GOLDEN_FINGERPRINT); elsewhere the step count, halt reason and violation
count must match and the table of moved entries is printed.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from qcflow.gradientflow import dtmax, make_grid, run_flow
from qcflow.maps import make_map
from test_verify_golden import GOLDEN_DIR, GOLDEN_FINGERPRINT, _fingerprint, _ulps

GOLDEN_PATH = GOLDEN_DIR / "flows.json"
STEPS = 20
OUTER = 3
FLOWS = {
    # name: (n, nodes per axis, p, mode)
    f"{mode}-n{n}-{m}-p{p:g}": (n, m, p, mode)
    for n, m in ((2, 17), (3, 9)) for p in (2.0, 5.0) for mode in ("explicit", "picard")
}
EXACT = ("steps", "halt", "violations")  # fields every numpy build must reproduce


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def flow_entry(name: str) -> dict:
    """Run one flow of FLOWS and summarize it as its golden entry."""
    n, m, p, mode = FLOWS[name]
    grid = make_grid(make_map("affine_bump", n=n, amplitude=0.05), (m,) * n, 1.0 / (m - 1))
    stats = run_flow(grid, p, STEPS * dtmax(grid, p), mode=mode, outer=OUTER)
    return {
        "steps": int(stats.times.size - 1),
        "energy": float(stats.energy[-1]),
        "min_det": float(stats.min_det[-1]),
        "compat_residual": stats.compat_residual,
        "halt": stats.halt_reason,
        "violations": stats.violations,
        "values_sha256": _sha256(stats.final_grid.values),
        "dt_sha256": _sha256(stats.dt_history),
    }


def moved_entries(golden: dict, got: dict) -> list[str]:
    """One line per entry that differs from the golden's; a list of numbers of the same
    length shows each moved number with its index."""
    lines = []
    for name in sorted(golden.keys() | got.keys()):
        old, new = golden.get(name), got.get(name)
        if old is None or new is None:
            lines.append(f"{name}: {'added' if old is None else 'missing'}")
            continue
        if old == new:
            continue
        line = f"{name}:"
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key), new.get(key)
            if a == b:
                continue
            if key.endswith("_sha256"):
                line += f" {key} {str(a)[:12]} -> {str(b)[:12]}"
            elif isinstance(a, float) and isinstance(b, float):
                line += f" {key} {a!r} -> {b!r} ({_ulps(a, b)})"
            elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
                line += "".join(f" {key}[{i}] {p!r} -> {q!r} ({_ulps(p, q)})"
                                for i, (p, q) in enumerate(zip(a, b)) if p != q)
            else:
                line += f" {key} {a!r} -> {b!r}"
        lines.append(line)
    return lines


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_flow_matches_golden(name):
    want, got = _golden()[name], flow_entry(name)
    table = "\n".join(moved_entries({name: want}, {name: got}))
    if _fingerprint() == GOLDEN_FINGERPRINT:
        assert got == want, table
        return
    print(table)
    assert {k: got[k] for k in EXACT} == {k: want[k] for k in EXACT}


def test_golden_names_every_flow():
    assert sorted(_golden()) == sorted(FLOWS)


def test_one_ulp_mutation_prints_exactly_its_row():
    golden = _golden()
    name = sorted(golden)[0]
    moved = {k: dict(v) for k, v in golden.items()}
    old = moved[name]["energy"]
    moved[name]["energy"] = new = float(np.nextafter(old, np.inf))
    assert moved_entries(golden, moved) == [f"{name}: energy {old!r} -> {new!r} (1 ulp)"]
    moved[name]["values_sha256"] = "0" * 64
    old_sha = golden[name]["values_sha256"][:12]
    assert moved_entries(golden, moved) == [
        f"{name}: energy {old!r} -> {new!r} (1 ulp) values_sha256 {old_sha} -> 000000000000"]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit("usage: test_flow_golden.py [--diff]")
    entries = {name: flow_entry(name) for name in sorted(FLOWS)}
    if sys.argv[1:] == ["--diff"]:
        for line in moved_entries(_golden(), entries):
            print(line)
    else:
        GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(json.dumps(_fingerprint()))
