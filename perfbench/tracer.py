"""Spans and per-step timers placed around the names the program calls through.

``simulate.integrate`` reaches every layer through a module-level name:
``simulate.track``, ``simulate.rta_extended``, ``kernels.rk4_step`` and so
on, and the control law is the closure ``simulate.make_controller``
returns.  :func:`installed` swaps those names for timing wrappers and puts
the originals back on exit, so nothing in ``src/`` carries a hook.
"""

from __future__ import annotations

import contextlib
import time

from fwrta import export, kernels, scenario, simulate

# (module, attribute, span name); the span name is the layer's own module.
TARGETS = (
    (scenario, "scenario_from_dict", "scenario.scenario_from_dict"),
    (simulate, "integrate", "simulate.integrate"),
    (simulate, "compose_h_p", "constraints.compose_h_p"),
    (simulate, "TrackContext", "tracking.TrackContext"),
    (simulate, "track", "tracking.track"),
    (simulate, "rta_extended", "extended.rta_extended"),
    (simulate, "rta_backstepping", "backstepping.rta_backstepping"),
    (simulate, "safe_velocity_from_terms", "modelfree.safe_velocity_from_terms"),
    (kernels, "rk4_step", "kernels.rk4_step"),
    (simulate, "metrics_from_log", "simulate.metrics_from_log"),
    (simulate, "evaluate_checks", "simulate.evaluate_checks"),
    (export, "write_csv", "export.write_csv"),
    (export, "write_json", "export.write_json"),
)
CONTROL = "simulate.control"  # the closure returned by make_controller


class Tracer:
    """In-memory spans ``(name, start_ns, end_ns, parent, run_id)``.

    ``parent`` is the index of the enclosing span in ``spans`` (-1 at the
    top).  A span's slot is reserved when it opens, so a parent always
    precedes its children.
    """

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []

    def wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,run_id\n")
            for name, t0, t1, parent, run_id in self.spans:
                fh.write(f"{name},{t0},{t1},{parent},{run_id}\n")


class StepTimer:
    """One timer pair around each control-law call: ``(start_ns, end_ns)``."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []

    def wrap(self, control):
        starts = self.starts.append
        ends = self.ends.append
        clock = time.perf_counter_ns

        def timed(x, t):
            starts(clock())
            rec = control(x, t)
            ends(clock())
            return rec

        return timed

    def clear(self) -> None:
        self.starts.clear()
        self.ends.clear()


@contextlib.contextmanager
def installed(tracer: Tracer | None = None, step_timer: StepTimer | None = None):
    """Swap in span wrappers (``tracer``) and/or the per-step timer.

    The step timer sits outside the control span, so the traced control
    law is what it times.  Every original is restored on exit.
    """
    saved = []

    def swap(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        if tracer is not None:
            for owner, attr, name in TARGETS:
                swap(owner, attr, tracer.wrap(getattr(owner, attr), name))
        real_make = simulate.make_controller

        def make_controller(scn):
            control = real_make(scn)
            if tracer is not None:
                control = tracer.wrap(control, CONTROL)
            if step_timer is not None:
                control = step_timer.wrap(control)
            return control

        swap(simulate, "make_controller", make_controller)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Per run id, per span name: ``[self_ns, calls, total_ns]``.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    runs: dict = {}
    for name, t0, t1, parent, run_id in spans:
        acc = runs.setdefault(run_id, {}).setdefault(name, [0, 0, 0])
        acc[0] += t1 - t0
        acc[1] += 1
        acc[2] += t1 - t0
        if parent >= 0:
            pname, _, _, _, prun = spans[parent]
            runs[prun][pname][0] -= t1 - t0
    return runs
