#!/usr/bin/env python3
"""qcflow benchmark: time one seeded workload, or all of them.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

The package is imported from the ``src/`` beside ``bench/``. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (set-up, wall time, throughput, peak RSS); with ``--trace 1``
it holds the per-layer metrics of a traced repetition.
The lines before it print each metric with its unit, the machine and
code facts, and the run's repetition counts. A fuller record, and with
``--trace 1`` the spans of the reported repetition, go to ``bench/out/``.
``--workload all`` runs every workload in its own process and prints a
table. See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2718  # for confirming a claim on inputs it was not tuned on
WORKLOADS = ("flowline_trace", "grid_flow", "grid_flow_picard", "verify_suites")
MIN_REPS = 3  # timed repetitions (or traced/untraced pairs) even past --seconds
CALIBRATION_ITERS = 8000
CALIBRATION_REF_S = 0.08  # times are scaled to the speed at which the kernel takes this

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_SUITES = ("core", "examples", "flow", "flowlines", "operators", "traces")
_GRADIENTFLOW = ("explicit_step", "interior_operator", "energy", "dtmax",
                 "compatibility_check")
PER_LAYER = (
    ("maps.jet.calls", "count"),
    ("maps.jet.self_s", "s"),
    ("maps.jet.us_per_call", "us"),
    ("maps.jet.samples_per_call", "count/call"),
    ("operators.Jet2Sample.calls", "count"),
    ("operators.Jet2Sample.self_s", "s"),
    ("operators.flux_linearization.calls", "count"),
    ("operators.flux_linearization.self_s", "s"),
    ("operators.flux_linearization.nodes", "count"),
    ("operators.flux_linearization.ns_per_node", "ns"),
    ("operators.flux_linearization.bytes_computed", "B"),
    ("operators.pointwise.calls", "count"),
    ("operators.pointwise.self_s", "s"),
    ("tensor.calls", "count"),
    ("tensor.self_s", "s"),
    ("tensor.us_per_call", "us"),
    ("flowlines.trace_flowline.calls", "count"),
    ("flowlines.trace_flowline.self_s", "s"),
    ("flowlines.flow_field.calls", "count"),
    ("flowlines.flow_field.self_s", "s"),
    ("flowlines.rk4_steps", "count"),
    ("flowlines.jets_per_step", "count/step"),
    ("gradientflow.make_grid.s", "s"),
    ("gradientflow.make_grid.self_s", "s"),
    *((f"gradientflow.{f}.{m}", u) for f in _GRADIENTFLOW
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("gradientflow.run_flow.self_s", "s"),
    ("gradientflow.steps_accepted", "count"),
    ("gradientflow.steps_rejected", "count"),
    ("gradientflow.accept_ratio", "ratio"),
    ("traces.calls", "count"),
    ("traces.self_s", "s"),
    ("verify.run_suite.self_s", "s"),
    *((f"verify.run_suite.s.{suite}", "s") for suite in _SUITES),
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
)


def _import_package():
    """Import qcflow from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "qcflow", "__init__.py")):
        sys.exit(f"bench: no qcflow package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import qcflow

    if os.path.dirname(os.path.dirname(os.path.abspath(qcflow.__file__))) != SRC:
        sys.exit(f"bench: imported qcflow from {qcflow.__file__}, not from {SRC}")
    return qcflow


# ---------------------------------------------------------------------------
# machine and code facts

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# one workload

class Tally:
    """Operations attempted and failed over a run, with the reference output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.notes: list[str] = []

    def record(self, output, error, what: str):
        """Check one repetition's output; return its work units (0 if it failed)."""
        w = self.workload
        if error is not None:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{what}: {type(error).__name__}: {error}")
            return 0
        checked = w.check(output)
        self.attempted += checked.attempted
        self.failed += checked.failed
        if checked.failed:
            self.notes.append(f"{what}: {checked.failed} of {checked.attempted} outputs failed")
        if self.reference is None:
            self.reference = output
        elif not w.same(self.reference, output):
            self.failed += checked.attempted - checked.failed
            self.notes.append(f"{what}: output differs from the first repetition")
        return checked.units


def _calibration_kernel() -> float:
    """Seconds for a fixed loop of small numpy calls and Python arithmetic.

    The loop mixes interpreter work with calls on 3x3 arrays, as the
    workloads do, so its time follows the machine's current speed.
    """
    a = np.eye(3) + np.arange(9.0).reshape(3, 3) / 90.0
    start = perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ITERS):
        q = a * (1.0 + 1e-6 * i)
        acc += float(np.linalg.det(q)) + float(np.einsum("ij,ij->", q, q)) + float((q @ q)[0, 0])
    return perf_counter() - start


class SpeedClock:
    """Scales measured times to the reference machine speed.

    A shared machine drifts in speed over seconds to minutes, by up to
    half. The calibration kernel runs after every timed block, so block
    b lies between kernel runs b and b+1. A block's raw times are
    multiplied by CALIBRATION_REF_S over the median of the four kernel
    runs nearest it: one kernel run is too short to sample the speed
    steadily, and four still follow a drift that lasts seconds.
    """

    def __init__(self):
        self.kernel_s: list[float] = [_calibration_kernel()]

    def call(self, fn, *args):
        """Return (block index, raw seconds, output, error) of fn(*args)."""
        gc.collect()
        start = perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as exc:  # a failing repetition is counted, not fatal
            out, err = None, exc
        raw = perf_counter() - start
        self.kernel_s.append(_calibration_kernel())
        return len(self.kernel_s) - 2, raw, out, err

    def scale(self, block: int) -> float:
        return CALIBRATION_REF_S / statistics.median(self.kernel_s[max(0, block - 1):block + 3])


def timed_run(w, state, seconds: float, tally: Tally, clock: SpeedClock) -> dict:
    """Warm-up, then repetitions of solve until the next one would pass --seconds."""
    deadline = perf_counter() + seconds
    _, _, out, err = clock.call(w.solve, state)
    tally.record(out, err, "warm-up")
    reps = []
    while True:
        block, raw, out, err = clock.call(w.solve, state)
        reps.append((block, raw, tally.record(out, err, f"repetition {len(reps) + 1}")))
        if len(reps) >= MIN_REPS and perf_counter() + statistics.median(r for _, r, _ in reps) > deadline:
            break
    walls = [raw * clock.scale(block) for block, raw, _ in reps]
    return {"walls": walls, "raw_walls": [raw for _, raw, _ in reps],
            "rates": [units / wall for (_, _, units), wall in zip(reps, walls)]}


def traced_run(w, inputs, seconds: float, tally: Tally, clock: SpeedClock, qcflow) -> dict:
    """Alternate untraced and traced repetitions of set-up plus solve.

    Per-layer metrics come from the traced repetition with the median
    scaled wall time; overhead compares the median scaled traced and
    untraced walls. Span times themselves are raw.
    """
    from tracer import Tracer

    def rep():
        return w.solve(w.setup(inputs))

    tracer = Tracer()
    deadline = perf_counter() + seconds
    _, _, out, err = clock.call(rep)
    tally.record(out, err, "warm-up")
    plain, traced, traces = [], [], []
    while True:
        block, raw, out, err = clock.call(rep)
        tally.record(out, err, f"untraced repetition {len(plain) + 1}")
        plain.append((block, raw))
        tracer.install(qcflow)
        try:
            block, raw, out, err = clock.call(tracer.run, rep)
        finally:
            tracer.uninstall()
        tally.record(out, err, f"traced repetition {len(traced) + 1}")
        traced.append((block, raw))
        traces.append(tracer.take())
        if len(traced) >= MIN_REPS and perf_counter() + 2.5 * raw > deadline:
            break
    plain = [raw * clock.scale(block) for block, raw in plain]
    traced = [raw * clock.scale(block) for block, raw in traced]
    middle = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    return {"plain": plain, "traced": traced, "trace": traces[middle],
            "overhead": statistics.median(traced) / statistics.median(plain) - 1.0}


def layer_metrics(summary: dict, overhead: float) -> dict:
    groups, counters = summary["groups"], summary["counters"]

    def g(name):
        return groups.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    jet, tensor, flux = g("maps.jet"), g("tensor"), g("operators.flux_linearization")
    steps = counters.get("rk4_steps", 0)
    nodes = counters.get("flux_nodes", 0)
    accepted = counters.get("steps_accepted", 0)
    rejected = counters.get("steps_rejected", 0)
    suites = [g(f"verify.run_suite.{s}") for s in _SUITES]
    values = {
        "maps.jet.calls": jet["calls"],
        "maps.jet.self_s": jet["self_s"],
        "maps.jet.us_per_call": per(jet["incl_s"], jet["calls"], 1e6),
        "maps.jet.samples_per_call": per(summary["samples_in_jets"], jet["calls"]),
        "operators.Jet2Sample.calls": g("operators.Jet2Sample")["calls"],
        "operators.Jet2Sample.self_s": g("operators.Jet2Sample")["self_s"],
        "operators.flux_linearization.calls": flux["calls"],
        "operators.flux_linearization.self_s": flux["self_s"],
        "operators.flux_linearization.nodes": nodes,
        "operators.flux_linearization.ns_per_node": per(flux["self_s"], nodes, 1e9),
        "operators.flux_linearization.bytes_computed": counters.get("flux_bytes", 0),
        "operators.pointwise.calls": g("operators.pointwise")["calls"],
        "operators.pointwise.self_s": g("operators.pointwise")["self_s"],
        "tensor.calls": tensor["calls"],
        "tensor.self_s": tensor["self_s"],
        "tensor.us_per_call": per(tensor["incl_s"], tensor["calls"], 1e6),
        "flowlines.rk4_steps": steps,
        "flowlines.jets_per_step": per(summary["jets_in_lines"], steps),
        "gradientflow.make_grid.s": g("gradientflow.make_grid")["incl_s"],
        "gradientflow.make_grid.self_s": g("gradientflow.make_grid")["self_s"],
        "gradientflow.run_flow.self_s": g("gradientflow.run_flow")["self_s"],
        "gradientflow.steps_accepted": accepted,
        "gradientflow.steps_rejected": rejected,
        "gradientflow.accept_ratio": per(accepted, accepted + rejected),
        "traces.calls": g("traces")["calls"],
        "traces.self_s": g("traces")["self_s"],
        "verify.run_suite.self_s": sum(s["self_s"] for s in suites),
        "trace.overhead_frac": overhead,
        "trace.wall_s": summary["wall_s"],
        "trace.remainder_s": summary["remainder_s"],
    }
    for f in ("trace_flowline", "flow_field"):
        values[f"flowlines.{f}.calls"] = g(f"flowlines.{f}")["calls"]
        values[f"flowlines.{f}.self_s"] = g(f"flowlines.{f}")["self_s"]
    for f in _GRADIENTFLOW:
        values[f"gradientflow.{f}.calls"] = g(f"gradientflow.{f}")["calls"]
        values[f"gradientflow.{f}.self_s"] = g(f"gradientflow.{f}")["self_s"]
    for suite, s in zip(_SUITES, suites):
        values[f"verify.run_suite.s.{suite}"] = s["incl_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    qcflow = _import_package()
    from workloads import all_workloads

    w = all_workloads(SRC)[name]
    inputs = w.inputs(seed)
    tally = Tally(w)
    clock = SpeedClock()
    os.makedirs(OUT, exist_ok=True)
    block, _, raw_setup, err = clock.call(w.setup_times, inputs)
    if err is not None:
        raise err
    setup = [t * clock.scale(block) for t in raw_setup]
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "unit": w.unit, "facts": facts(), "setup_times_s": setup,
              "raw_setup_times_s": raw_setup}
    if trace:
        res = traced_run(w, inputs, seconds, tally, clock, qcflow)
        summary = res["trace"].summary()
        metrics = layer_metrics(summary, res["overhead"])
        reps = res["traced"]
        detail.update(untraced_walls_s=res["plain"], traced_walls_s=reps,
                      self_sum_s=summary["self_sum_s"])
        res["trace"].save(os.path.join(OUT, f"spans_{name}_seed{seed}.npz"))
    else:
        res = timed_run(w, w.setup(inputs), seconds, tally, clock)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(res["walls"]),
            "units_per_s": statistics.median(res["rates"]),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        reps = res["walls"]
        detail.update(walls_s=reps, raw_walls_s=res["raw_walls"], units_per_s=res["rates"])
    detail.update(calibration_kernel_s=clock.kernel_s, attempted=tally.attempted,
                  failed=tally.failed, notes=tally.notes)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail["result"] = result
    with open(os.path.join(OUT, f"{name}_seed{seed}_trace{int(trace)}.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
        fh.write("\n")

    print(f"# {name} seed={seed} trace={int(trace)} facts={json.dumps(detail['facts'])}")
    print(f"# {len(reps)} timed repetitions after one warm-up, {len(setup)} set-ups; "
          f"work unit: {w.unit}; calibration kernel median "
          f"{statistics.median(clock.kernel_s):.6f} s (reference {CALIBRATION_REF_S} s)")
    if trace:
        print(f"# self times {summary['self_sum_s']:.6f} s = traced wall "
              f"{summary['wall_s']:.6f} s (remainder {summary['remainder_s']:.6f} s)")
    else:
        print(f"# raw wall median {statistics.median(res['raw_walls']):.6f} s")
    for note in tally.notes:
        print(f"# FAILED {note}")
    for metric, entry in metrics.items():
        print(f"{metric:45s} {entry['value']!r:>24} {entry['unit']}")
    print(f"{'failed/attempted':45s} {tally.failed:>10d} / {tally.attempted} operations")
    return result


# ---------------------------------------------------------------------------
# every workload

def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: {name} exited {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"== {name}: {result['failed']} failed of {result['attempted']} operations")
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"   {metric:45s} {entry['value']!r:>24} {entry['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        _import_package()
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
