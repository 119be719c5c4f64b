"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:class:`Tracer` wraps public functions of the simulator at its layer
boundaries (see :data:`TARGETS`).  Every wrapped call records one span --
name, start, end, parent span and the cell or job it belongs to -- and
generator-returning functions record one span per resume, so a simulation
process's time is charged to the layer only while it actually runs.
Spans are kept in memory in per-thread columnar buffers (the service runs
its worker and HTTP handlers on separate threads) and written out once,
when the run ends.  A layer's self time is its span time minus the time
its child spans cover.

Nothing here is active unless :meth:`Tracer.install` was called, and
:meth:`Tracer.uninstall` restores every original attribute, so the
untraced passes of a run execute the simulator's own code unchanged.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: ``(span name, module, attribute path, kind, hook)``.  ``kind`` is
#: ``"call"``, ``"gen"`` (timed per resume), ``"engine"`` (a call that also
#: counts the events it processed) or ``"job"`` (a call that tags the
#: thread's spans with the service job id).  ``hook`` names a
#: :class:`Tracer` method that sees the call's result and records counts at
#: the same boundary.  Module attributes rebound by ``from x import y``
#: (``restore_device`` in the spec module, ``execute_specs`` in the
#: service) are wrapped where the caller looks them up.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[str]], ...] = (
    ("cell", "repro.experiments.spec", "RunSpec.execute_instrumented", "call", "_on_cell"),
    ("workloads.trace_build", "repro.experiments.spec", "RunSpec.build_trace", "call", None),
    ("sim.checkpoint.compute", "repro.experiments.spec", "RunSpec.compute_checkpoint", "call", None),
    ("sim.checkpoint.restore", "repro.experiments.spec", "restore_device", "call", None),
    ("ssd.device_build", "repro.ssd.device", "SsdDevice.__init__", "call", None),
    ("sim.engine.run", "repro.sim.engine", "Engine.run", "engine", None),
    ("venice.try_reserve", "repro.venice.network", "VeniceNetwork.try_reserve", "call", "_on_scout"),
    ("venice.transfer", "repro.venice.fabric", "VeniceFabric.transfer", "gen", None),
    ("interconnect.transfer", "repro.interconnect.shared_bus", "BaselineFabric.transfer", "gen", "_on_transfer"),
    ("interconnect.transfer", "repro.interconnect.pnssd", "PnssdFabric.transfer", "gen", "_on_transfer"),
    ("interconnect.transfer", "repro.interconnect.nossd", "NossdFabric.transfer", "gen", "_on_transfer"),
    ("interconnect.transfer", "repro.interconnect.ideal", "IdealFabric.transfer", "gen", "_on_transfer"),
    ("controller.pipeline", "repro.controller.pipeline", "TransactionPipeline.service", "gen", None),
    ("ftl.translate_read", "repro.ftl.ftl", "Ftl.translate_read", "call", None),
    ("ftl.translate_write", "repro.ftl.ftl", "Ftl.translate_write", "call", None),
    ("ftl.precondition", "repro.ftl.ftl", "Ftl.precondition", "call", None),
    ("ftl.allocate_multi_plane", "repro.ftl.allocator", "PageAllocator.allocate_multi_plane", "call", None),
    ("ftl.gc_maybe_trigger", "repro.ftl.gc", "GarbageCollector.maybe_trigger", "call", None),
    ("metrics.record_request", "repro.metrics.collector", "MetricsCollector.record_request", "call", None),
    ("metrics.finalize", "repro.metrics.collector", "MetricsCollector.finalize", "call", None),
    ("experiments.executor", "repro.experiments.executor", "execute_specs", "call", None),
    ("experiments.executor", "repro.service.server", "execute_specs", "call", None),
    ("experiments.store.get", "repro.experiments.store", "ResultStore.get", "call", "_on_store_get"),
    ("experiments.store.put", "repro.experiments.store", "ResultStore.put", "call", None),
    ("service.submit", "repro.service.server", "SimulationService.submit", "call", None),
    *(
        ("service.jobstore", "repro.service.jobs", f"JobStore.{method}", "call", None)
        for method in ("submit", "start", "finish", "get")
    ),
    ("service.job", "repro.service.server", "SimulationService._execute", "job", None),
)

#: Span name -> the ``repro`` layer its self time is charged to.
LAYER_OF = {
    "cell": "unattributed",
    "workloads.trace_build": "repro.workloads",
    "sim.checkpoint.compute": "repro.sim",
    "sim.checkpoint.restore": "repro.sim",
    "ssd.device_build": "repro.ssd",
    "sim.engine.run": "repro.sim",
    "venice.try_reserve": "repro.venice",
    "venice.transfer": "repro.venice",
    "interconnect.transfer": "repro.interconnect",
    "controller.pipeline": "repro.controller",
    "ftl.translate_read": "repro.ftl",
    "ftl.translate_write": "repro.ftl",
    "ftl.precondition": "repro.ftl",
    "ftl.allocate_multi_plane": "repro.ftl",
    "ftl.gc_maybe_trigger": "repro.ftl",
    "metrics.record_request": "repro.metrics",
    "metrics.finalize": "repro.metrics",
    "experiments.executor": "repro.experiments",
    "experiments.store.get": "repro.experiments",
    "experiments.store.put": "repro.experiments",
    "service.submit": "repro.service",
    "service.jobstore": "repro.service",
    "service.job": "repro.service",
}


class _Columns(NamedTuple):
    meta: array
    start: array
    end: array
    counts: Counter


class _Buffer(threading.local):
    """One thread's spans, as parallel columns (28 bytes per span).

    ``meta`` holds three ints per span: the name id (bit-inverted when a
    span of the same name is already open on this thread, so inclusive
    times count only the outermost one), the parent span (-1 for a root)
    and the unit id (-1 outside any cell or job).
    """

    def __init__(self, tracer: "Tracer") -> None:
        self.meta = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.open_names: List[int] = [0] * len(TARGETS)
        self.unit = -1
        self.counts: Counter = Counter()
        # Register the columns themselves: a thread-local's attributes are
        # invisible from the thread that reduces them at the end.
        with tracer._lock:
            tracer._buffers.append(_Columns(self.meta, self.start, self.end, self.counts))


class Tracer:
    """Records spans around the simulator's layer boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.units: List[str] = []
        self._unit_ids: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._buffers: List[_Columns] = []
        self._local = _Buffer(self)
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------- #

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_unit(self, unit: str) -> None:
        """Tag the calling thread's following spans with a cell or job id."""
        with self._lock:
            if unit not in self._unit_ids:
                self._unit_ids[unit] = len(self.units)
                self.units.append(unit)
            unit_id = self._unit_ids[unit]
        # Outside the lock: a thread's first touch of the buffer registers
        # it, which takes the same lock.
        self._local.unit = unit_id

    def count(self, key: str, amount: int = 1) -> None:
        self._local.counts[key] += amount

    # -- wrappers ----------------------------------------------------------- #

    def _wrap_call(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        name_id = self._name_id(name)
        local = self._local

        def traced(*args, **kwargs):
            stack = local.stack
            starts = local.start
            span = len(starts)
            open_names = local.open_names
            depth = open_names[name_id]
            open_names[name_id] = depth + 1
            local.meta.extend((~name_id if depth else name_id, stack[-1], local.unit))
            local.end.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                local.end[span] = perf_counter()
                stack.pop()
                open_names[name_id] = depth
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _wrap_gen(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        name_id = self._name_id(name)
        local = self._local

        # Span recording is inlined here and in _wrap_call rather than
        # shared: these wrappers run millions of times per traced pass.
        def resumes(generator):
            send = generator.send
            value = None
            while True:
                stack = local.stack
                starts = local.start
                span = len(starts)
                open_names = local.open_names
                depth = open_names[name_id]
                open_names[name_id] = depth + 1
                local.meta.extend((~name_id if depth else name_id, stack[-1], local.unit))
                local.end.append(0.0)
                stack.append(span)
                starts.append(perf_counter())
                try:
                    item = send(value)
                except StopIteration as stop:
                    returned = stop.value
                    break
                finally:
                    local.end[span] = perf_counter()
                    stack.pop()
                    open_names[name_id] = depth
                value = yield item
            if hook is not None:
                hook((), returned)
            return returned

        def traced(*args, **kwargs):
            return resumes(fn(*args, **kwargs))

        return traced

    def _wrap_engine(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        timed = self._wrap_call(name, fn, None)

        def traced(engine, *args, **kwargs):
            before = engine.processed_events
            result = timed(engine, *args, **kwargs)
            self.count("sim.events", engine.processed_events - before)
            return result

        return traced

    def _wrap_job(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        timed = self._wrap_call(name, fn, None)

        def traced(service, job_id, *args, **kwargs):
            self.set_unit(f"job:{job_id[:16]}")
            return timed(service, job_id, *args, **kwargs)

        return traced

    # -- boundary counts ------------------------------------------------------ #

    def _on_cell(self, args, returned) -> None:
        spec = args[0]
        result, info = returned
        self.count("cells")
        if spec.warmup:
            self.count("checkpoint.cells")
            self.count("checkpoint.restored", int(bool(info["checkpoint_restored"])))
        self.count("early_stop.simulated", int(info["simulated_requests"]))
        self.count("early_stop.requests", int(result.requests_completed))

    def _on_scout(self, args, result) -> None:
        self.count("venice.scout_success", int(result.succeeded))

    def _on_transfer(self, args, outcome) -> None:
        self.count("interconnect.transfers")
        self.count("interconnect.conflicted", int(bool(outcome.conflicted)))

    def _on_store_get(self, args, result) -> None:
        self.count("store.gets")
        self.count("store.hits", int(result is not None))

    # -- install / uninstall ---------------------------------------------------- #

    def install(self) -> None:
        """Replace every :data:`TARGETS` attribute with its traced wrapper."""
        wrappers = {
            "call": self._wrap_call,
            "gen": self._wrap_gen,
            "engine": self._wrap_engine,
            "job": self._wrap_job,
        }
        for name, module_name, path, kind, hook in TARGETS:
            owner: object = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            hook_fn = getattr(self, hook) if hook else None
            setattr(owner, attribute, wrappers[kind](name, original, hook_fn))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------------- #

    def span_count(self) -> int:
        return sum(len(buffer.start) for buffer in self._buffers)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buffer in self._buffers:
            total.update(buffer.counts)
        return total

    def aggregate(self) -> Tuple[Counter, Counter, Counter]:
        """``(calls, inclusive seconds, self seconds)`` per span name.

        Inclusive time counts only the outermost span of a name, so a span
        nested in one of its own name (a resource grant that resumes
        another pipeline process synchronously) is not counted twice.
        """
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for buffer in self._buffers:
            meta = buffer.meta
            durations = array("d", map(float.__sub__, buffer.end, buffer.start))
            children = array("d", bytes(8 * len(durations)))
            # Children open after their parent, so a reverse sweep sees
            # every child of a span before the span itself.
            for span in range(len(durations) - 1, -1, -1):
                base = 3 * span
                name_id, parent = meta[base], meta[base + 1]
                duration = durations[span]
                if name_id < 0:
                    name_id = ~name_id
                else:
                    inclusive[name_id] += duration
                calls[name_id] += 1
                self_time[name_id] += duration - children[span]
                if parent >= 0:
                    children[parent] += duration
        names = self.names
        return (
            Counter(dict(zip(names, calls))),
            Counter(dict(zip(names, inclusive))),
            Counter(dict(zip(names, self_time))),
        )

    def write(self, path: Path) -> None:
        """Write every span in binary: a JSON header line, then per thread
        the raw ``meta``, ``start`` and ``end`` columns (native byte order).

        The header lists span names, unit (cell/job) ids and each thread's
        span count; ``meta`` is three ``int32`` per span (name id, bit-
        inverted when nested in a span of the same name; parent span index
        in the same thread or -1; unit index or -1) and ``start``/``end``
        are ``float64`` seconds of ``time.perf_counter``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "units": self.units,
            "threads": [len(buffer.start) for buffer in self._buffers],
            "byteorder": sys.byteorder,
        }
        with path.open("wb") as out:
            out.write((json.dumps(header) + "\n").encode("utf-8"))
            for buffer in self._buffers:
                buffer.meta.tofile(out)
                buffer.start.tofile(out)
                buffer.end.tofile(out)
