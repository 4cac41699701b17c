"""Span tracer that times funnelnav's layers from outside the package.

Each public function is wrapped where its calling module looks it up (for
example `step` as bound in `harness` and in `feasibility`, `find_separator`
as bound in `trajopt`), so no file under `src/` changes. Wrappers are
installed only while an op is being recorded and the original attributes
are put back afterwards, even when the op raises.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory
and written out when the run ends. A span's self time is its duration minus
the durations of its direct children: the program is single-threaded, so
children never overlap.

funnelnav is one process with no queues or worker pools, so no layer ever
waits for another; there is no wait-time metric.
"""

from __future__ import annotations

import contextlib
import functools
import os
from array import array
from time import perf_counter

import numpy as np

from funnelnav import cli, controller, feasibility, harness, rrt, trajopt
from funnelnav.bspline import SplineTrajectory
from funnelnav.dynamics import DisturbanceProfile
from funnelnav.harness import EpisodeLog

# Metric name -> the (owner, attribute) bindings its callers look up.
TARGETS: dict[str, list[tuple[object, str]]] = {
    "cli.main": [(cli, "main")],
    "scenario.load_scenario": [(cli, "load_scenario")],
    "harness.sweep": [(harness, "sweep")],
    "harness.run_episode": [(harness, "run_episode")],
    "harness.plan_and_solve": [(harness, "plan_and_solve")],
    "rrt.plan": [(rrt, "plan")],
    "geometry.segment_free": [(rrt, "segment_free")],
    "trajopt.solve": [(trajopt, "solve")],
    "geometry.find_separator": [(trajopt, "find_separator")],
    "trajopt.validate": [(trajopt, "validate")],
    "harness.run_ticks": [(harness, "run_ticks")],
    "bspline.eval": [(SplineTrajectory, "eval")],
    "bspline.eval_derivatives": [(SplineTrajectory, "eval_derivatives")],
    "controller.control_tick": [(harness, "control_tick")],
    "funnels.compute_errors": [(controller, "compute_errors"), (feasibility, "compute_errors")],
    "dynamics.step": [(harness, "step"), (feasibility, "step")],
    "dynamics.DisturbanceProfile.value": [(DisturbanceProfile, "value")],
    "dynamics.lumped_forces": [(feasibility, "lumped_forces")],
    "feasibility.estimate_bounds": [(feasibility, "estimate_bounds")],
    "harness.EpisodeLog.save_csv": [(EpisodeLog, "save_csv")],
    "harness.write_plotdata": [(harness, "write_plotdata")],
    "harness.EpisodeLog.load_csv": [(EpisodeLog, "load_csv")],
    "harness.audit": [(harness, "audit")],
}

# Counts taken from a call's arguments and result, at the same boundary.
HOOKS = {
    "geometry.find_separator": lambda res, args: [("geometry.find_separator.found_ratio", res is not None)],
    "trajopt.solve": lambda res, args: [("trajopt.outer_iters", res.n_outer),
                                        ("trajopt.separator_pairs", len(res.hyperplanes)),
                                        ("trajopt.converged_ratio", res.status == "converged")],
    "feasibility.estimate_bounds": lambda res, args: [("feasibility.samples", res.n_samples)],
    "harness.run_ticks": lambda res, args: [("harness.run_ticks.ticks", res.n_ticks)],
    "harness.EpisodeLog.save_csv": lambda res, args: [("harness.EpisodeLog.save_csv.bytes",
                                                       os.path.getsize(args[1]))],
    "harness.EpisodeLog.load_csv": lambda res, args: [("harness.EpisodeLog.load_csv.bytes",
                                                       os.path.getsize(args[1]))],
    "harness.write_plotdata": lambda res, args: [("harness.write_plotdata.bytes",
                                                  sum(os.path.getsize(p) for p in res))],
}

# Counts reported as a share of the named function's calls; the rest per op.
RATIO_OF = {
    "geometry.find_separator.found_ratio": "geometry.find_separator",
    "trajopt.converged_ratio": "trajopt.solve",
}
COUNT_UNITS = {
    "geometry.find_separator.found_ratio": "ratio",
    "trajopt.outer_iters": "iters/op",
    "trajopt.separator_pairs": "pairs/op",
    "trajopt.converged_ratio": "ratio",
    "feasibility.samples": "samples/op",
    "harness.run_ticks.ticks": "ticks/op",
    "harness.EpisodeLog.save_csv.bytes": "B/op",
    "harness.write_plotdata.bytes": "B/op",
    "harness.EpisodeLog.load_csv.bytes": "B/op",
}
# Filled in by the runner from paired untraced/traced ops.
OVERHEAD_UNITS = {"trace.overhead_s": "s/op", "trace.overhead_frac": "ratio"}

SPAN_NAMES = list(TARGETS)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    units.update(COUNT_UNITS)
    units.update(OVERHEAD_UNITS)
    return units


def _raw(owner, attr):
    """The attribute as stored, so a classmethod is restored as a classmethod."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {name: 0.0 for name in COUNT_UNITS}
        self._stack = [-1]
        self._op = -1
        self.n_ops = 0

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        name_id = SPAN_NAMES.index(name)
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                for key, value in hook(result, args):
                    counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, op_id: int):
        """Wrap every target for one op; the originals are back on exit."""
        saved = []
        try:
            for name, sites in TARGETS.items():
                for owner, attr in sites:
                    raw = _raw(owner, attr)
                    saved.append((owner, attr, raw))
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
                    else:
                        setattr(owner, attr, self._wrap(raw, name))
            self._op = op_id
            self.n_ops += 1
            try:
                yield self
            finally:
                self._op = -1
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "op": np.frombuffer(self.ops, dtype=np.int64),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-op calls, inclusive and self seconds of every span name, plus counts."""
        a = self.arrays()
        n_names = len(SPAN_NAMES)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(a["name"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=n_names)
        ops = max(self.n_ops, 1)
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = float(calls[i]) / ops
            out[f"{name}.s"] = float(total[i]) / ops
            out[f"{name}.self_s"] = float(self_s[i]) / ops
        for key, value in self.counts.items():
            if key in RATIO_OF:
                n = calls[SPAN_NAMES.index(RATIO_OF[key])]
                out[key] = float(value) / n if n else 0.0
            else:
                out[key] = float(value) / ops
        return out
