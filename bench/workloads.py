"""The benchmark's four workloads, each a fixed amount of work drawn from a seed.

A workload turns the seed into inputs (``inputs``), builds what the
solver needs (``setup``, timed as set-up), does the fixed work
(``solve``, timed as wall time) and checks the outputs (``check``).
``same`` compares two outputs bit for bit; repetitions of one run, and
traced against untraced repetitions, must agree exactly.

Calls go through module attributes (``flowlines.trace_flowline``), never
through names imported into this module, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from qcflow import flowlines, gradientflow, maps, verify


@dataclass
class Checked:
    """Outcome of one solve: operations attempted and failed, work units done."""

    attempted: int
    failed: int
    units: int


class Workload:
    name = ""
    unit = ""
    SETUP_REPS = 5  # set-ups timed per run; set-up time is their median

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def solve(self, state):
        raise NotImplementedError

    def check(self, result) -> Checked:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        raise NotImplementedError

    def setup_times(self, inputs) -> list[float]:
        times = []
        for _ in range(self.SETUP_REPS):
            start = perf_counter()
            self.setup(inputs)
            times.append(perf_counter() - start)
        return times


class FlowlineTrace(Workload):
    """RK4 flow lines on the canned teichmuller composition, n=2 and n=3.

    Lines alternate between the two dimensions and start at radius
    uniform in [0.1, 0.7] inside the unit ball. Each dimension has a
    budget of STEPS_PER_DIM accepted RK4 steps: a line's length cap is
    the smaller of MAX_LEN and what is left of its budget, so every seed
    does the same number of steps in each dimension.
    """

    name = "flowline_trace"
    unit = "RK4 steps"
    SETUP_REPS = 100
    DS = 1e-3
    MAX_LEN = 1.0
    STEPS_PER_DIM = 250
    DRIFT_TOL = 1e-6

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        starts = {}
        for n in (2, 3):
            pts = rng.standard_normal((self.STEPS_PER_DIM, n))
            radius = rng.uniform(0.1, 0.7, size=(self.STEPS_PER_DIM, 1))
            starts[n] = pts * radius / np.linalg.norm(pts, axis=1, keepdims=True)
        return starts

    def setup(self, inputs):
        return {n: maps.make_map("teichmuller", n=n) for n in (2, 3)}, inputs

    def solve(self, state):
        mapping, starts = state
        left = {2: self.STEPS_PER_DIM, 3: self.STEPS_PER_DIM}
        used = {2: 0, 3: 0}
        lines = []
        n = 2
        while left[2] > 0 or left[3] > 0:
            if left[n] <= 0:
                n = 5 - n
            traj = flowlines.trace_flowline(
                mapping[n], starts[n][used[n]], ds=self.DS,
                max_len=min(self.MAX_LEN, left[n] * self.DS),
            )
            used[n] += 1
            left[n] -= len(traj) - 1
            lines.append(traj)
            n = 5 - n
        return lines

    def check(self, lines):
        failed = 0
        for traj in lines:
            drift = float(np.max(np.abs(traj.K - traj.K[0])))
            if traj.terminated not in ("boundary", "maxLength") or not drift <= self.DRIFT_TOL:
                failed += 1
        return Checked(len(lines), failed, sum(len(t) - 1 for t in lines))

    def same(self, a, b):
        return len(a) == len(b) and all(
            p.terminated == q.terminated and np.array_equal(p.x, q.x)
            and np.array_equal(p.K, q.K) for p, q in zip(a, b))


class GridFlow(Workload):
    """Explicit gradient flow of the bump map (n=2) on a 65x65 grid.

    The seed sets the bump amplitude within 2% of 0.05, which moves the
    stable step and so the step count by about as much.
    """

    name = "grid_flow"
    unit = "grid steps"
    SETUP_REPS = 5
    SHAPE = (65, 65)
    H = 1.0 / 64.0
    P = 2.0
    T_FINAL = 2e-4
    MODE = "explicit"
    OUTER = 1

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return 0.05 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))

    def setup(self, amplitude):
        mapping = maps.make_map("affine_bump", n=2, amplitude=amplitude)
        return gradientflow.make_grid(mapping, self.SHAPE, self.H)

    def solve(self, grid):
        return gradientflow.run_flow(grid, self.P, self.T_FINAL, mode=self.MODE,
                                     outer=self.OUTER)

    def _ok(self, stats) -> bool:
        reached = abs(float(stats.times[-1]) - self.T_FINAL) <= 1e-12 * self.T_FINAL
        floor = float(np.min(stats.min_det)) >= 0.5 * float(stats.min_det[0])
        return stats.halt_reason is None and reached and floor

    def check(self, stats):
        e = np.asarray(stats.energy)
        tol = gradientflow.ENERGY_TOL_SCALE * (1.0 + abs(float(e[0])))
        ok = self._ok(stats) and bool(np.all(e[1:] <= e[:-1] + tol))
        return Checked(1, 0 if ok else 1, (stats.times.size - 1) * self.OUTER)

    def same(self, a, b):
        return (np.array_equal(a.final_grid.values, b.final_grid.values)
                and np.array_equal(a.energy, b.energy) and np.array_equal(a.times, b.times))


class GridFlowPicard(GridFlow):
    """Frozen-coefficient (picard) flow of the bump map on a 33x33 grid.

    Three passes over the horizon; a unit is one grid step of one pass.
    The energy is not required to fall here, only the horizon and the
    determinant floor are checked.
    """

    name = "grid_flow_picard"
    SHAPE = (33, 33)
    H = 1.0 / 32.0
    T_FINAL = 5e-4
    MODE = "picard"
    OUTER = 3
    SETUP_REPS = 9

    def check(self, stats):
        return Checked(1, 0 if self._ok(stats) else 1, (stats.times.size - 1) * self.OUTER)


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import qcflow\n"
    "print(time.perf_counter() - start)\n"
)


class VerifySuites(Workload):
    """All six verify suites at suite seed 0, one thread, rendered to JSON.

    This is `qcflow verify` at its default seed, whatever the workload
    seed. The suites' cost depends on their seed: the flowlines cases
    trace lines from random starts, and one case's time varies threefold
    from seed to seed. Over workload seeds 1-10 that moved wall time by
    22% (quartile spread over median, 2-core Intel Xeon VM), which would
    hide any change smaller than that. Set-up is what `qcflow verify` pays before its
    first case: importing the package in a fresh interpreter, timed
    inside that interpreter.
    """

    name = "verify_suites"
    unit = "verify cases"
    SETUP_REPS = 9
    SUITE_SEED = 0
    CASES = 38

    def __init__(self, src_dir: str):
        self.src_dir = src_dir

    def inputs(self, seed):
        return self.SUITE_SEED

    def setup(self, suite_seed):
        return suite_seed

    def setup_times(self, suite_seed):
        times = []
        for _ in range(self.SETUP_REPS):
            out = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, self.src_dir],
                                 capture_output=True, text=True, check=True, timeout=60)
            times.append(float(out.stdout.split()[-1]))
        return times

    def solve(self, suite_seed):
        return {name: verify.run_suite(name, seed=suite_seed, threads=1).to_json()
                for name in verify.suite_names()}

    def check(self, reports):
        cases = [case for text in reports.values() for case in json.loads(text)["cases"]]
        failed = sum(1 for case in cases if case["status"] != "pass")
        failed += max(0, self.CASES - len(cases))
        return Checked(max(len(cases), self.CASES), failed, len(cases))

    def same(self, a, b):
        return a == b


def all_workloads(src_dir: str) -> dict[str, Workload]:
    return {w.name: w for w in (FlowlineTrace(), GridFlow(), GridFlowPicard(),
                                VerifySuites(src_dir))}
