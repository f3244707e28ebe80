"""Flow lines against committed goldens.

tests/golden/lines.json holds one entry per line in LINES: every registry
map at n = 2 and 3, and at n = 4 where the map takes it, traced at
ds = 1e-3 to L = 0.1 in the unit ball, and two named lines of
test_flowlines, one that stops at a ball's boundary and one that switches
rows. An entry keeps the step count, the stop reason, the endpoint and K
at every 10th sample at full repr, and sha256 digests of the s, x, K,
row, speed and sign arrays. A conformal map's line is one degenerate
sample. A change that moves an entry must say so: regenerate the file
with `PYTHONPATH=src python tests/test_line_golden.py` and list the moved
entries with their ulp distances in CHANGES.md. Run it with `--diff`
first to print them without writing anything: one line per moved entry,
with each changed number, old and new, and their distance in ulps, and
each changed digest.

As for the grid-flow goldens, the entries must match exactly only where
they were made (GOLDEN_FINGERPRINT); elsewhere the step count and stop
reason must match and the table of moved entries is printed.
"""

import json
import sys

import numpy as np
import pytest
from test_flow_golden import _sha256, moved_entries
from test_flowlines import make_teichmuller
from test_verify_golden import GOLDEN_DIR, GOLDEN_FINGERPRINT, _fingerprint

from qcflow.flowlines import ball_domain, trace_flowline
from qcflow.maps import make_map, map_ids

GOLDEN_PATH = GOLDEN_DIR / "lines.json"
EXACT = ("steps", "stop")  # fields every numpy build must reproduce
ARRAYS = ("s", "x", "K", "row", "speed", "sign")

_AFFINE = [[1.3, 0.2, 0.0, 0.0], [-0.1, 0.9, 0.3, 0.0], [0.0, 0.2, 1.1, 0.1], [0.1, 0.0, 0.0, 0.95]]
# each registry map's parameters at n = 2, 3 and 4; rotation takes an angle
# at n = 2 and 3 only, and teichmuller is defined at n = 2 and 3 only
_PARAMS = {
    "radial_stretch": lambda n: {"alpha": 2.0, "n": n},
    "wedge": lambda n: {"alpha": 2.0, "n": n},
    "rotation": lambda n: [{"n": 2, "angle": 0.4}, {"axis": [0.3, -1.0, 0.7], "angle": 0.8}, {
        "n": 4, "matrix": [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]}][n - 2],
    "dilation": lambda n: {"n": n, "scale": 1.7},
    "translation": lambda n: {"offset": [0.3, -0.2, 0.1, 0.05][:n]},
    "inversion": lambda n: {"n": n},
    "affine": lambda n: {"matrix": [r[:n] for r in _AFFINE[:n]], "offset": [0.1] * n},
    "polynomial": lambda n: {"n": n, "seed": 2},
    "identity": lambda n: {"n": n},
    "affine_bump": lambda n: {"n": n},
    "teichmuller": lambda n: {"n": n},
}


def _registry_line(map_id: str, n: int) -> tuple:
    # the bump is the identity outside the unit cube, where its line is one degenerate sample
    x0 = [0.4, 0.3, 0.35, 0.45] if map_id == "affine_bump" else [0.2, 0.1, -0.1, 0.05]
    return (lambda: make_map(map_id, **_PARAMS[map_id](n))), x0[:n], 1e-3, 0.1, None


LINES = {
    # name: (map builder, x0, ds, max_len, domain)
    **{f"{map_id}-n{n}": _registry_line(map_id, n)
       for map_id in map_ids() for n in (2, 3, 4) if n < 4 or map_id != "teichmuller"},
    "boundary": (lambda: make_teichmuller(2), [0.7, 0.0], 1e-2, 5.0, ball_domain(0.8)),
    "row_switch": (lambda: make_map("wedge", alpha=2.0, n=3), [0.004, 0.304, 0.497], 2e-2, 2.0,
                   None),
}


def line_entry(name: str) -> dict:
    """Trace one line of LINES and summarize it as its golden entry."""
    make, x0, ds, max_len, domain = LINES[name]
    traj = trace_flowline(make(), x0, ds=ds, max_len=max_len, domain=domain)
    entry = {
        "steps": len(traj) - 1,
        "stop": traj.terminated,
        "end": traj.x[-1].tolist(),
        "K_every_10th": traj.K[::10].tolist(),
    }
    entry.update({f"{a}_sha256": _sha256(getattr(traj, a)) for a in ARRAYS})
    return entry


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(LINES))
def test_line_matches_golden(name):
    want, got = _golden()[name], line_entry(name)
    table = "\n".join(moved_entries({name: want}, {name: got}))
    if _fingerprint() == GOLDEN_FINGERPRINT:
        assert got == want, table
        return
    print(table)
    assert {k: got[k] for k in EXACT} == {k: want[k] for k in EXACT}


def test_golden_names_every_line():
    assert sorted(_golden()) == sorted(LINES)


def test_lines_stop_every_way():
    golden = _golden()
    assert {entry["stop"] for entry in golden.values()} == {"maxLength", "boundary", "degenerate"}


def test_one_ulp_mutation_prints_exactly_its_row():
    golden = _golden()
    name = "teichmuller-n3"
    moved = {k: dict(v) for k, v in golden.items()}
    moved[name]["K_every_10th"] = ks = list(golden[name]["K_every_10th"])
    old = ks[3]
    ks[3] = new = float(np.nextafter(old, np.inf))
    assert moved_entries(golden, moved) == [f"{name}: K_every_10th[3] {old!r} -> {new!r} (1 ulp)"]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit("usage: test_line_golden.py [--diff]")
    entries = {name: line_entry(name) for name in sorted(LINES)}
    if sys.argv[1:] == ["--diff"]:
        for line in moved_entries(_golden(), entries):
            print(line)
    else:
        GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(json.dumps(_fingerprint()))
