"""Span tracing of qcflow's public functions, installed from outside the package.

The tracer replaces each traced function with a wrapper wherever the
name is bound: the defining module, every qcflow module that imported
it by name, the package namespace, and the class for methods. A wrapper
appends one span (name, start, end, parent) to an in-memory list, and
``take`` freezes the list into a ``Trace`` to analyse and save.
Uninstalling restores every binding, so traced and untraced repetitions
can alternate in one process.

A span's self time is its duration minus the durations of its direct
children. The workload is traced single-threaded and spans nest
strictly, so the children never overlap and the self times of all spans
under the root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = "root"

TENSOR = ("hs_norm", "cofactor", "trace_dilation", "distortion_tensor", "ahlfors",
          "factoring_residual", "analyze")
POINTWISE = ("flux", "lh_witness", "lp_nondiv", "lp_divergence", "linfty_factored",
             "dilation_gradient", "linfty_flowform", "lp_asymptotic_ratio", "b_tensor")
GRADIENTFLOW = ("make_grid", "explicit_step", "interior_operator", "energy", "dtmax",
                "compatibility_check", "run_flow")
TRACES = ("adapted_frame", "tangential_dilation", "trace_inequality_check",
          "critical_equality_check", "eigen_aligned_linear")


def _targets():
    """(module, attribute, span name) for every traced function.

    Functions that share a span name form one group: a call is top-level
    in its group when no span of the same group encloses it.
    """
    out = [("tensor", f, "tensor") for f in TENSOR]
    out += [("operators", "Jet2Sample.__post_init__", "operators.Jet2Sample"),
            ("operators", "flux_linearization", "operators.flux_linearization")]
    out += [("operators", f, "operators.pointwise") for f in POINTWISE]
    out += [("maps", "SmoothMap.jet", "maps.jet"),
            ("flowlines", "trace_flowline", "flowlines.trace_flowline"),
            ("flowlines", "flow_field", "flowlines.flow_field")]
    out += [("gradientflow", f, f"gradientflow.{f}") for f in GRADIENTFLOW]
    out += [("traces", f, "traces") for f in TRACES]
    out += [("verify", "run_suite", "verify.run_suite")]
    return out


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one run."""

    def __init__(self):
        self._restore: list = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]  # indices of the open spans; -1 is "no parent"
        self.counters: Counter = Counter()

    def run(self, fn):
        """Call fn under a root span; its self time is the untraced remainder."""
        return self._wrap(fn, ROOT)()

    def _wrap(self, fn, name, label=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            tag = name if label is None else label(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (tag, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters read from results ------------------------------------------

    def _count_nodes(self, args, kwargs, result):
        shape = np.shape(result)
        n = shape[-1]
        nodes = int(np.prod(shape[:-4], dtype=np.int64))
        self.counters["flux_nodes"] += nodes
        self.counters["flux_bytes"] += nodes * n**4 * 8

    def _count_rk4(self, args, kwargs, result):
        self.counters["rk4_steps"] += len(result) - 1

    def _count_flow_steps(self, bound_sig):
        def after(args, kwargs, stats):
            call = bound_sig.bind(*args, **kwargs)
            call.apply_defaults()
            steps = stats.times.size - 1
            if call.arguments["mode"] == "picard":
                # the stats describe the last pass; every pass takes the same steps
                self.counters["steps_accepted"] += steps * max(1, int(call.arguments["outer"]))
            else:
                self.counters["steps_accepted"] += steps
                self.counters["steps_rejected"] += stats.violations
        return after

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target; a target the package no longer has is skipped."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod_name, attr, span in _targets():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            label = after = None
            if attr == "flux_linearization":
                after = self._count_nodes
            elif attr == "trace_flowline":
                after = self._count_rk4
            elif attr == "run_suite":
                label = lambda args, kwargs: "verify.run_suite." + (
                    args[0] if args else kwargs["name"])
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    continue
                setattr(cls, meth, self._wrap(original, span))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            if attr == "run_flow":
                after = self._count_flow_steps(inspect.signature(original))
            wrapper = self._wrap(original, span, label, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def take(self) -> "Trace":
        """Freeze the recorded spans into arrays and start a fresh record."""
        trace = Trace(self.spans, self.counters)
        self.reset()
        return trace


class Trace:
    """The spans of one traced repetition, as arrays."""

    def __init__(self, spans: list, counters: Counter):
        self.names = sorted({s[0] for s in spans})
        index = {name: i for i, name in enumerate(self.names)}
        self.name = np.array([index[s[0]] for s in spans], dtype=np.int32)
        self.start = np.array([s[1] for s in spans])
        self.end = np.array([s[2] for s in spans])
        self.parent = np.array([s[3] for s in spans], dtype=np.int32)
        self.counters = dict(counters)

    def save(self, path) -> None:
        """Write names, per-span name index, start and end (s), parent index."""
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            start=self.start, end=self.end, parent=self.parent)

    def summary(self) -> dict:
        """Per span name: calls (top-level in its group), self_s and incl_s.

        Also returns the root's wall and self time, and two nesting
        counts: Jet2Sample constructions inside a jet, and top-level jets
        inside a flow-line trace.
        """
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self_t = dur - child

        names = self.name.tolist()
        ancestors = [0] * len(names)  # bit set of the span names enclosing each span
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << names[p])

        ids = {label: k for k, label in enumerate(self.names)}
        jet_id = ids.get("maps.jet", -1)
        sample_id = ids.get("operators.Jet2Sample", -1)
        line_id = ids.get("flowlines.trace_flowline", -1)
        top = np.array([not a & (1 << k) for a, k in zip(ancestors, names)], dtype=bool)
        anc_jet = np.array([jet_id >= 0 and bool(a & (1 << jet_id)) for a in ancestors])
        anc_line = np.array([line_id >= 0 and bool(a & (1 << line_id)) for a in ancestors])

        groups = {}
        for k, label in enumerate(self.names):
            mine = self.name == k
            groups[label] = {
                "calls": int(np.count_nonzero(mine & top)),
                "self_s": float(np.sum(self_t[mine])),
                "incl_s": float(np.sum(dur[mine & top])),
            }
        root = groups.pop(ROOT)
        return {
            "groups": groups,
            "wall_s": root["incl_s"],
            "remainder_s": root["self_s"],
            "self_sum_s": float(np.sum(self_t)),
            "samples_in_jets": int(np.count_nonzero((self.name == sample_id) & anc_jet)),
            "jets_in_lines": int(np.count_nonzero((self.name == jet_id) & top & anc_line)),
            "counters": self.counters,
        }
