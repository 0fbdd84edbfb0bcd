"""Spans around the package's public functions, installed from outside.

``Tracer.install`` rebinds every public module-level function and public
classmethod of the layer modules to a timing wrapper, in every package
module that holds a reference to it (``shockmesh.driver.front_window``,
``shockmesh.remesh.enforce_extreme_guard``, ``shockmesh.cli.run_simulation``
and so on), and wraps ``__post_init__`` of the validated dataclasses with a
counter. ``uninstall`` puts every original back. The package source is not
touched. Instance methods and properties are not layer boundaries and stay
unwrapped.

Spans are kept in memory in flat arrays: name, parent span, run id, start
and end. A span's self time is its duration minus the durations of its
direct children; the calls are nested on one thread, so the children cover
disjoint parts of the parent's interval.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "shockmesh"
LAYERS = ("grid", "monitor", "remesh", "schemes", "bounds", "driver", "cli")
VALIDATED = ("Mesh", "GridSolution", "MonitorTable", "StepContext", "CellGeometry")
MARK = "__perfbench_original__"


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def find_wrapped() -> list[str]:
    """Names in the package that are currently bound to a tracing wrapper."""
    found = []
    for module in _package_modules():
        for attr, obj in vars(module).items():
            if hasattr(obj, MARK):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for mname, raw in vars(obj).items():
                    inner = getattr(raw, "__func__", raw)
                    if hasattr(inner, MARK):
                        found.append(f"{module.__name__}.{attr}.{mname}")
    return found


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self.stack: list[int] = []
        self.run_id = -1
        self.constructions: defaultdict = defaultdict(int)  # (run, class) -> count
        self.guard_reports: list[tuple[int, int, int]] = []  # (run, rounds, corrections)
        self.retained_bytes: dict[int, int] = {}  # run -> snapshot array bytes
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        functions = {}
        classmethods = []
        validated = []
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for mname, raw in vars(obj).items():
                        if isinstance(raw, classmethod) and not mname.startswith("_"):
                            classmethods.append((obj, mname, raw, f"{layer}.{attr}.{mname}"))
                    if attr in VALIDATED and "__post_init__" in vars(obj):
                        validated.append(obj)
        return functions, classmethods, validated

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions, classmethods, validated = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in functions.items()}
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(module, attr, wrappers[obj])
        for cls, mname, raw, name in classmethods:
            self._rebind(cls, mname, classmethod(self._wrap(raw.__func__, name)))
        for cls in validated:
            self._rebind(cls, "__post_init__", self._count(cls.__post_init__, cls.__name__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = self.clock
        stack = self.stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, raised = self.span_start, self.span_end, self.span_raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(traced, MARK, fn)
        return traced

    def _count(self, fn, class_name):
        counts = self.constructions

        @functools.wraps(fn)
        def counted(obj):
            counts[self.run_id, class_name] += 1
            return fn(obj)

        setattr(counted, MARK, fn)
        return counted

    def _after_remesh_enforce_extreme_guard(self, result) -> None:
        report = result[1]
        self.guard_reports.append((self.run_id, report.rounds, report.corrections))

    def _before_driver_run_simulation(self, args, kwargs):
        """Count the bytes of distinct arrays handed to the snapshot hook.

        The CLI keeps every solution it is handed, so each distinct array
        stays alive until the run ends and its id is not reused.
        """
        args = list(args)
        hook = args[1] if len(args) > 1 else kwargs.get("snapshot_hook")
        if hook is None:
            return tuple(args), kwargs
        run = self.run_id
        seen: set[int] = set()
        self.retained_bytes[run] = 0

        def counting_hook(step, instant, solution):
            for arr in (solution.mesh.nodes, solution.values):
                if id(arr) not in seen:
                    seen.add(id(arr))
                    self.retained_bytes[run] += arr.nbytes
            hook(step, instant, solution)

        if len(args) > 1:
            args[1] = counting_hook
        else:
            kwargs = dict(kwargs, snapshot_hook=counting_hook)
        return tuple(args), kwargs

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict:
        """Span columns as numpy arrays, with durations and self times."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        duration = end - start
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "name": name,
            "parent": parent,
            "run": np.frombuffer(self.span_run, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - children,
            "raised": np.frombuffer(self.span_raised, dtype=np.int8).astype(bool),
        }

    def write_spans(self, path) -> None:
        cols = {k: v.tolist() for k, v in self.spans().items()}
        with open(path, "w") as handle:
            handle.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for i, (run, parent, name, start, end) in enumerate(
                zip(cols["run"], cols["parent"], cols["name"], cols["start"], cols["end"])
            ):
                handle.write(f"{run},{i},{parent},{self.names[name]},{start!r},{end!r}\n")


def count_python_calls(fn, *args):
    """Run ``fn(*args)`` under ``sys.setprofile``; return (result, Python calls)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls
