"""Span tracer for the benchmark's traced repetitions.

The tracer wraps public functions of the ``vhd`` modules from outside the
package. ``vhd`` modules bind each other's functions with ``from ...
import``, so a wrapper is installed under every module attribute that holds
the original object, not only in the defining module (``vhd.simkit.predict``
and ``vhd.outage.update`` are the same functions as ``vhd.estimator``'s).

A span is ``[name, start, end, parent, counted]``: perf-counter seconds, the
index of the enclosing traced span in the same process (-1 at the root), and
the seconds the tracer spent inside it counting its children's outputs. Spans
stay in memory until the repetition ends. Worker processes forked by the
``--jobs`` pool start with an empty buffer and write theirs to a file each
time a root span closes; ``collect`` merges those files back in.

Three redundancy counters keep the exact bytes of selected outputs, so the
number of distinct values repeats exactly between repetitions.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import pickle
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Traced boundaries, named "<module>.<attribute path>" inside the vhd package.
TARGETS = (
    "kinematics.propagate_truth",
    "estimator.predict",
    "estimator.update",
    "estimator.open_loop_predict",
    "history.HistoryWindow.push",
    "history.fit_polynomial",
    "history.lagrange_extrapolate",
    "outage.run_outage",
    "simkit.generate_truth",
    "simkit.simulate_measurements",
    "simkit.track_to_outage",
    "simkit.run_scenario",
    "simkit.monte_carlo",
    "cli.load_config",
    "cli.run_command",
)


def _posterior_cov(call, out) -> bytes:
    return out.cov.tobytes()


def _truth_states(call, out) -> bytes:
    return out.times.tobytes() + out.states.tobytes()


def _node_window(call, out) -> bytes:
    window, _, node_count = list(call.arguments.values())[:3]
    times, positions = window.recent(node_count)
    return times.tobytes() + positions.tobytes()


# Span name -> (metric suffix, function of the bound arguments and the result
# giving the bytes whose distinct values are counted).
COUNTERS = {
    "estimator.update": ("distinct_cov_frac", _posterior_cov),
    "simkit.generate_truth": ("distinct_frac", _truth_states),
    "history.lagrange_extrapolate": ("distinct_nodes_frac", _node_window),
}


class Tracer:
    """Owns the span buffer and the distinct-value sets of one process."""

    def __init__(self, worker_dir: Path):
        self.spans: list[list] = []
        self.distinct: dict[str, set[bytes]] = {name: set() for name in COUNTERS}
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._worker_dir = Path(worker_dir)
        self._flushes = 0
        os.register_at_fork(after_in_child=self._reset_in_child)

    def install(self) -> list[str]:
        """Wrap every target; returns the names that do not exist."""
        modules = [m for n, m in sys.modules.items() if n == "vhd" or n.startswith("vhd.")]
        missing = []
        for name in TARGETS:
            module, _, path = name.partition(".")
            owner = sys.modules.get(f"vhd.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                missing.append(name)
                continue
            traced = self._wrap(name, original)
            setattr(owner, attr, traced)
            for module_obj in modules:
                for key, value in list(vars(module_obj).items()):
                    if value is original:
                        setattr(module_obj, key, traced)
        return missing

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        key_of = COUNTERS[name][1] if name in COUNTERS else None
        seen = self.distinct.get(name)
        signature = inspect.signature(fn) if key_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if key_of is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                seen.add(key_of(call, out))
                if stack:
                    spans[stack[-1]][4] += perf_counter() - end
            if not stack and os.getpid() != self._pid:
                self._flush()
            return out

        return traced

    def _reset_in_child(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for values in self.distinct.values():
            values.clear()

    def _flush(self) -> None:
        self._flushes += 1
        path = self._worker_dir / f"worker-{os.getpid()}-{self._flushes}.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"spans": self.spans, "distinct": self.distinct}, fh)
        self._reset_in_child()

    def collect(self) -> None:
        """Merge the span files written by forked workers into this buffer."""
        for path in sorted(self._worker_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                part = pickle.load(fh)
            offset = len(self.spans)
            for name, start, end, parent, counted in part["spans"]:
                self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, counted])
            for name, values in part["distinct"].items():
                self.distinct[name] |= values
            path.unlink()


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def layer_metrics(spans: list[list], distinct: dict[str, set[bytes]]) -> dict[str, float]:
    """Per-layer calls, self time, call latency and redundancy fractions.

    Self time is a span's duration minus the durations of its traced
    children and the time spent counting their outputs; children run one
    after another in their process, so they never overlap. Spans of pool workers are roots, so the parent's
    monte_carlo span keeps the time it spent waiting for them.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    for (name, start, end, _, counted), children in zip(spans, child_time):
        durations[name].append(end - start)
        self_time[name] += end - start - children - counted

    out: dict[str, float] = {}
    for name in TARGETS:
        calls = durations.get(name, [])
        ordered = sorted(calls)
        out[f"{name}.calls"] = len(calls)
        out[f"{name}.self_s"] = self_time.get(name, 0.0)
        out[f"{name}.call_us.p50"] = 1e6 * _nearest_rank(ordered, 0.50) if ordered else 0.0
        out[f"{name}.call_us.p99"] = 1e6 * _nearest_rank(ordered, 0.99) if ordered else 0.0
    for name, values in distinct.items():
        calls = len(durations.get(name, []))
        out[f"{name}.{COUNTERS[name][0]}"] = len(values) / calls if calls else 0.0
    return out
