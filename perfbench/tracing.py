"""Spans and timers recorded from outside the program.

Both recorders patch module attributes of ``etrmpc`` while a pass runs
and restore them afterwards, so no file of the program changes:

* ``TriggerTimer`` (untraced pass) wraps only ``rmpc.solve_rmpc`` and
  ``trigger.build_schedule``: one timer pair per trigger, from the start
  of the re-solve to the end of the box schedule (the end of the
  re-solve for the periodic baseline, which builds no boxes).
* ``Tracer`` (traced pass) wraps every public function of every module,
  plus ``DisturbanceModel.worst_case`` and ``ExperimentConfig.build``.
  Spans stay in memory as (name, start, end, parent, info) and are
  written out by the caller when the benchmark ends.

Names are bound in more than one namespace (``from .geometry import
support`` in tightening, for instance), so a function is replaced
wherever a module's globals hold it.
"""

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("geometry", "solver", "tightening", "rmpc", "trigger", "sim", "cli")
METHOD_SPANS = (("sim", "DisturbanceModel", "worst_case", "sim.worst_case"),
                ("cli", "ExperimentConfig", "build", "cli.ExperimentConfig.build"))


class _Patch:
    """Replace attributes and put the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class TriggerTimer:
    """Per-trigger latency of re-solve plus box schedule, in seconds."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.latencies = []    # of the current run
        self.schedules = []    # build_schedule results of the current run
        self.periodic = False
        self._t0 = None
        self._patch = _Patch()

    def start_run(self, periodic):
        self.latencies = []
        self.schedules = []
        self.periodic = periodic

    def install(self):
        rmpc, trigger = self.pkg.rmpc, self.pkg.trigger
        solve, build = rmpc.solve_rmpc, trigger.build_schedule
        timer = self

        @functools.wraps(solve)
        def timed_solve(*args, **kwargs):
            t0 = time.perf_counter()
            sol = solve(*args, **kwargs)
            if timer.periodic:
                timer.latencies.append(time.perf_counter() - t0)
            else:
                timer._t0 = t0
            return sol

        @functools.wraps(build)
        def timed_build(*args, **kwargs):
            schedule = build(*args, **kwargs)
            timer.latencies.append(time.perf_counter() - timer._t0)
            timer.schedules.append(schedule)
            return schedule

        self._patch.set(rmpc, "solve_rmpc", timed_solve)
        self._patch.set(trigger, "build_schedule", timed_build)

    def restore(self):
        self._patch.restore()


def _public_functions(module):
    home = module.__name__
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == home
            and not name.startswith("_")}


class Tracer:
    """Span recorder around every public function of the program."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []
        self._stack = []
        self._patch = _Patch()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = ("raised", type(exc).__name__)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _summarize(result)
            return result

        return traced

    def install(self):
        modules = [getattr(self.pkg, m) for m in MODULES]
        wrapped = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in _public_functions(module).items():
                wrapped[fn] = self._wrap(f"{short}.{name}", fn)
        for module in modules + [self.pkg]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch.set(module, name, wrapped[obj])
        for mod, cls, meth, span_name in METHOD_SPANS:
            owner = getattr(getattr(self.pkg, mod), cls)
            self._patch.set(owner, meth, self._wrap(span_name, owner.__dict__[meth]))

    def restore(self):
        self._patch.restore()


def _summarize(result):
    """Keep the counts the metrics need, never the result itself."""
    cls = type(result).__name__
    if cls == "SolveReport":
        return ("report", result.status.name, result.iterations)
    if cls == "PrincipalPolytope":
        return ("rows", result.n_rows)
    if cls == "TriggerSchedule":
        zero = sum(1 for b in result.boxes if not (b.upper - b.lower).any())
        return ("schedule", zero, sum(len(d) for d in result.degenerate_coords))
    return None


def aggregate(spans, max_iter):
    """Per-name calls, inclusive and self seconds, and the counters.

    A span's self time is its duration minus its direct children's
    durations; calls are sequential, so children never overlap.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    child = [0.0] * len(spans)
    counters = defaultdict(int)
    for name, start, end, parent, info in spans:
        dur = end - start
        calls[name] += 1
        incl[name] += dur
        if parent >= 0:
            child[parent] += dur
        if info is None:
            continue
        if info[0] == "report":
            counters[f"{name}.iterations"] += info[2]
            if info[1] == "MAXITER":
                counters[f"{name}.maxiter"] += 1
            if info[1] == "OPTIMAL" and info[2] >= max_iter:
                counters[f"{name}.cap_hits"] += 1
        elif info[0] == "raised":
            counters[f"{name}.raised.{info[1]}"] += 1
        elif info[0] == "rows":
            counters[f"{name}.rows"] += info[1]
        elif info[0] == "schedule":
            counters["trigger.zero_boxes"] += info[1]
            counters["trigger.degenerate_coords"] += info[2]
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
    return calls, incl, self_s, counters


def run_shares(spans, methods):
    """Share of each cmd_run's time spent per baseline-table layer.

    ``methods`` lists the method of each top-level ``cli.cmd_run`` span in
    call order. Returns {method: {layer: seconds}} including "wall".
    """
    layers = {"rmpc.solve_rmpc": "rmpc_qp",
              "trigger.assemble_principal": "assemble",
              "trigger.construct_box_cp": "build_box",
              "trigger.construct_box_lp": "build_box",
              "geometry.shape_ratio": "shape_ratio"}
    out = defaultdict(lambda: defaultdict(float))
    root = [-1] * len(spans)
    run_index = -1
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name == "cli.cmd_run" and parent < 0:
            run_index += 1
            root[i] = run_index
            out[methods[run_index]]["wall"] += end - start
        elif parent >= 0:
            root[i] = root[parent]
        if root[i] >= 0 and name in layers:
            out[methods[root[i]]][layers[name]] += end - start
    return out
