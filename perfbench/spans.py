"""Span tracing for the benchmark, installed from outside the library.

Nothing under ``src/`` knows about this module.  :class:`Tracer.install`
wraps the public functions and methods at each layer boundary of ``repro``
(class methods on their class; module functions at every module that
imported them by name) with a timer that records a span on a per-thread
stack.  A span's *self time* is its duration minus the time of the spans
nested in it on the same thread, so summing self times never counts a
nested call twice.

Spans of the async measurement workers land on their own threads' stacks;
builds that :class:`repro.RpcBuilder` runs in worker processes are timed as
the parent-side dispatch call (``hardware.build_dispatch``) that waits for
them, since nothing in a worker process reaches this tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (owner, attribute, span name) — owner is "module:Class" for a method
METHOD_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.search.sketch_policy:SketchPolicy", "propose_candidates", "search.propose"),
    ("repro.search.evolutionary:EvolutionarySearch", "search", "search.evolve"),
    ("repro.cost_model.model:LearnedCostModel", "predict", "cost_model.predict"),
    ("repro.cost_model.model:LearnedCostModel", "update", "cost_model.update"),
    ("repro.hardware.measure:MeasurePipeline", "measure", "hardware.wait"),
    ("repro.hardware.measure:MeasureSession", "as_completed", "hardware.wait"),
    ("repro.hardware.measure:MeasureSession", "drain", "hardware.wait"),
    ("repro.hardware.measure:LocalBuilder", "build", "hardware.build"),
    ("repro.hardware.measure:LocalRunner", "run", "hardware.run"),
    ("repro.hardware.rpc:RpcBuilder", "build", "hardware.build"),
    ("repro.hardware.rpc:RpcBuilder", "build_one_dispatch", "hardware.build_dispatch"),
    ("repro.hardware.rpc:RpcRunner", "run", "hardware.run"),
    ("repro.hardware.simulator:CostSimulator", "estimate_lowered", "hardware.simulate"),
    ("repro.scheduler.task_scheduler:TaskScheduler", "tune", "scheduler.tune"),
    ("repro.variants.arbiter:VariantArbiter", "tune", "variants.tune"),
    ("repro.store:ScheduleStore", "__init__", "store.open"),
    ("repro.store:ScheduleStore", "lookup", "store.lookup"),
    ("repro.store:ScheduleStore", "lookup_logical", "store.lookup"),
    ("repro.store:ScheduleStore", "similar_entries", "store.similar"),
    ("repro.store:ScheduleStore", "put", "store.put"),
    ("repro.store:ScheduleStore", "put_record", "store.put"),
)

#: (defining module, function, span name) — rebound wherever imported by name
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.codegen.lowering", "lower_state", "codegen.lower"),
    ("repro.cost_model.features", "extract_program_features_batch", "cost_model.features"),
    ("repro.search.sketch", "generate_sketches", "search.sketch"),
    ("repro.search.annotation", "sample_initial_population", "search.sample"),
    ("repro.search.mutation", "random_mutation", "search.mutate"),
    ("repro.search.mutation", "mutate_with_operator", "search.mutate"),
)


class Tracer:
    """Records spans and counter bumps while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: (name, thread id, start, end, self seconds) of every closed span
        self.spans: List[Tuple[str, int, float, float, float]] = []
        #: (time, counter, amount) of every counter bump made by a wrapper
        self.bumps: List[Tuple[float, str, float]] = []
        self._undo: List[Callable[[], None]] = []

    # -- span bookkeeping -----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        """Open a span; its frame is [start, nested seconds, name, outer],
        where ``outer`` is False when the enclosing span has the same name
        (a wrapped function calling another one of its layer)."""
        stack = self._stack()
        frame = [time.perf_counter(), 0.0, name, not stack or stack[-1][2] != name]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        self.spans.append((frame[2], threading.get_ident(), frame[0], end, duration - frame[1]))

    def timed(self, name: str, fn: Callable, on_result=None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(result, args)`` counts the
        calls that are not nested in a span of the same name."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None and frame[3]:
                on_result(result, args)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> "Tracer":
        counters = _counters(self.bump)
        for owner_path, attr, name in METHOD_SPANS:
            module_name, cls_name = owner_path.split(":")
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, self.timed(name, original, counters.get((cls_name, attr))))
        for module_name, attr, name in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.timed(name, original, counters.get(attr))
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "") or "").startswith("repro") and \
                        getattr(module, attr, None) is original:
                    self._set(module, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def bump(self, counter: str, amount: float = 1.0) -> None:
        self.bumps.append((time.perf_counter(), counter, amount))

    # -- aggregation ----------------------------------------------------
    def _within(self, windows, thread=None):
        for span in self.spans:
            if thread is not None and span[1] != thread:
                continue
            if any(lo <= span[2] and span[3] <= hi for lo, hi in windows):
                yield span

    def self_times(self, windows, thread: int = None) -> Dict[str, float]:
        """Summed self seconds per span name of the spans inside the
        ``(start, end)`` windows, on one thread or all."""
        out: Dict[str, float] = defaultdict(float)
        for name, _, _, _, self_s in self._within(windows, thread):
            out[name] += self_s
        return dict(out)

    def counts(self, windows) -> Dict[str, float]:
        """Counter totals of the bumps made inside the windows."""
        out: Dict[str, float] = defaultdict(float)
        for at, counter, amount in self.bumps:
            if any(lo <= at <= hi for lo, hi in windows):
                out[counter] += amount
        return dict(out)

    def inclusive_time(self, name: str, windows) -> float:
        """Summed duration of the spans called ``name`` inside the windows."""
        return sum(end - start for n, _, start, end, _ in self._within(windows) if n == name)


def _counters(bump: Callable[[str, float], None]) -> Dict[object, Callable]:
    """Counting hooks, keyed by wrapped function name or (class, method)."""

    def features(rows, args):
        bump("feature_rows", len(rows))
        bump("feature_fails", sum(1 for r in rows if r is None))

    def predict(scores, args):
        bump("states_scored", len(args[2]))

    def update(_, args):
        bump("updates", 1)
        bump("train_rows", args[0].num_samples)

    def mutate(child, args):
        bump("mutations", 1)
        bump("mutations_ok", child is not None)

    def lower(_, args):
        bump("lower_calls", 1)

    def lookup(entry, args):
        bump("lookups", 1)
        bump("lookup_hits", entry is not None)

    def similar(entries, args):
        bump("similar_entries", len(entries))

    def put(_, args):
        bump("puts", 1)

    return {
        "extract_program_features_batch": features,
        ("LearnedCostModel", "predict"): predict,
        ("LearnedCostModel", "update"): update,
        "random_mutation": mutate,
        "mutate_with_operator": mutate,
        "lower_state": lower,
        ("ScheduleStore", "lookup"): lookup,
        ("ScheduleStore", "lookup_logical"): lookup,
        ("ScheduleStore", "similar_entries"): similar,
        ("ScheduleStore", "put"): put,
        ("ScheduleStore", "put_record"): put,
    }
