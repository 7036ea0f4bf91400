"""In-memory span recorder and the timing wrappers of the traced run.

The traced run patches the names that ``qwdr.simulate.run`` looks up at call
time, so the real loop executes with both per-slot invariants on. Each call
records a span (name, start, end, parent); spans live in flat arrays and are
written out once, after the run. A target that no longer exists
is skipped, and one that is no longer called records no spans: the traced
run keeps working when a later change inlines or renames a layer.

A wrapper's own work before its start stamp and after its end stamp, count
hook included, happens in the caller. ``summary`` takes it out of the
caller's self time and reports it as the caller's ``overhead_s``: the hook
time is measured per call and the rest is ``wrapper_cost()`` per call.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from contextlib import contextmanager

# (span name, module, attribute path) of every wrapped call
TARGETS = (
    ("simulate.review_clock", "qwdr.simulate", "next_review_period"),
    ("stochastic.channel_draw", "qwdr", "ChannelModel.draw"),
    ("network.snapshot", "qwdr", "QueueMatrix.snapshot"),
    ("solver.solve", "qwdr.simulate", "solve_allocation"),
    ("simulate.schedule", "qwdr.simulate", "create_schedule"),
    ("stochastic.arrival_draw", "qwdr", "ArrivalProcess.draw"),
    ("simulate.step_slot", "qwdr.simulate", "step_slot"),
    ("network.transfer", "qwdr", "QueueMatrix.transfer"),
    ("network.add_arrivals", "qwdr", "QueueMatrix.add_arrivals"),
    ("network.verify_balance", "qwdr", "QueueMatrix.verify_balance"),
    ("metrics.collect", "qwdr", "collect_metrics"),
)


class Recorder:
    """Spans of named calls, kept in flat arrays until the process ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.after = array("d")  # seconds of count hook run after each span
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` timed as span ``name``; ``hook(args, result)`` runs after the span."""
        nid = self._name_id(name)
        name_of, parent, start, end, after = self.name_of, self.parent, self.start, self.end, self.after
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            after.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(args, result)
                except (TypeError, ValueError, AttributeError, IndexError, KeyError):
                    pass  # the target's signature changed; the count is left out
                after[idx] = clock() - end[idx]
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        nid = self._name_id(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.after.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def install(self, hooks: dict) -> None:
        """Wrap every target that exists; ``hooks`` maps span names to count hooks."""
        for name, module_name, path in TARGETS:
            self._name_id(name)
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self, cost: float) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and wrapper overhead.

        ``cost`` is the wrapper's seconds per call outside its own span (see
        ``wrapper_cost``). A span's self time is its duration less its child
        spans and less the overhead of wrapping them, which is ``overhead_s``.
        """
        import numpy as np

        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        # parent -1 lands in the spare last slot
        child = np.zeros(len(dur) + 1)
        np.add.at(child, parent, dur)
        over = np.zeros(len(dur) + 1)
        np.add.at(over, parent, cost + np.frombuffer(self.after, dtype=np.float64))
        own = dur - child[:-1] - over[:-1]
        n = len(self.names)
        calls = np.bincount(name_of, minlength=n)
        total = np.bincount(name_of, weights=dur, minlength=n)
        self_s = np.bincount(name_of, weights=own, minlength=n)
        overhead_s = np.bincount(name_of, weights=over[:-1], minlength=n)
        return {
            name: {
                "calls": int(calls[k]),
                "total_s": float(total[k]),
                "self_s": float(self_s[k]),
                "overhead_s": float(overhead_s[k]),
            }
            for k, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            after=np.frombuffer(self.after, dtype=np.float64),
        )


def wrapper_cost() -> float:
    """Seconds per wrapped call spent in the caller, outside the span.

    Loops over an empty function, bare and wrapped. The wrapped loop's time
    less its spans' durations and less the bare loop is what the wrapper
    adds around its span; the median over five loops is returned.
    """

    def empty(a, b):
        return None

    calls = 20_000
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        probe = Recorder()
        traced = probe.wrap("probe", empty)
        t0 = clock()
        for _ in range(calls):
            empty(1, 2)
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            traced(1, 2)
        wrapped = clock() - t0
        inside = sum(e - s for s, e in zip(probe.start, probe.end))
        costs.append((wrapped - inside - bare) / calls)
    return statistics.median(costs)
