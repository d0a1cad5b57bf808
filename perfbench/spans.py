"""Span tracing around the public calls into each simulator layer.

The benchmark never edits the program: a :class:`Tracer` replaces each
traced callable at the name its caller resolves at call time (a module
attribute or a class attribute) with a wrapper that records a span, and
puts the original back on :meth:`Tracer.uninstall`.

A span is ``(name, start, end, id, parent, trace_id, pid, extra)``.
``trace_id`` is the correlation id of the work the span belongs to
(``spec.key()``, which is also the service's job id); children inherit
it from their parent.  Spans are kept in memory.  A forked pool worker
appends its spans to ``<spans_dir>/<role>-<pid>.jsonl`` each time a root
span ends, so nothing is lost when the pool is torn down; the owning
process calls :meth:`Tracer.flush` itself.  :func:`load_spans` merges
every file of a directory and fails loudly on a file it cannot parse.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

# name -> (module path, attribute path) of every traced callable.
TARGETS = {
    "workloads.generate": ("repro.workloads.generator", "WorkloadGenerator.generate"),
    "workloads.trace_load": ("repro.workloads.trace_io", "load_trace"),
    "experiment.run_spec": ("repro.harness.runner", "_run_spec"),
    "array_kernel.run_batched": ("repro.core.array_kernel", "run_batched"),
    "cpu.pipeline": ("repro.cpu.pipeline", "OutOfOrderPipeline.run"),
    "cache.encode": ("repro.harness.experiment", "SimulationResult.to_dict"),
    "cache.decode": ("repro.harness.experiment", "SimulationResult.from_dict"),
    "cache.put": ("repro.harness.cache", "ResultCache.put"),
    "cache.get": ("repro.harness.cache", "ResultCache.get"),
    # The benchmark's one-call client path (``ServiceClient.run`` with the
    # wait on the job's event stream) and its wait.
    "service.run": ("bench", "run_job"),
    "service.submit": ("repro.service.client", "ServiceClient.submit"),
    "service.wait": ("bench", "wait_done"),
}


def _resolve(module_path: str, attr_path: str) -> tuple[Any, str]:
    """The object that owns the traced attribute, and the attribute name."""
    import importlib

    owner: Any = importlib.import_module(module_path)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def _spec_key(spec) -> Optional[str]:
    from repro.harness.cache import UncacheableJobError

    try:
        return spec.key()
    except UncacheableJobError:  # no stable id for this spec
        return None


class Tracer:
    """Records spans in one process tree while installed."""

    def __init__(self, spans_dir, role: str):
        self.spans_dir = Path(spans_dir)
        self.role = role
        self.spans: list[tuple] = []
        self.installed = False
        self._saved: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_pid = os.getpid()
        self._seen_traces: set = set()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- lifecycle --------------------------------------------------------

    def install(self) -> "Tracer":
        if self.installed:
            return self
        for name, (module_path, attr_path) in TARGETS.items():
            owner, attr = _resolve(module_path, attr_path)
            # A class attribute is saved raw, so a classmethod stays one.
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap_raw(name, raw))
        self.installed = True
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        self.installed = False

    def _after_fork(self) -> None:
        # A forked child owns a fresh buffer: the parent's spans stay
        # with the parent, and "first call for a trace" restarts.
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seen_traces = set()

    # -- recording ----------------------------------------------------------

    def _wrap_raw(self, name: str, raw: Any) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        return self._wrap(name, raw)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        extra_of = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            if parent is not None:
                trace_id = parent[1]
            else:
                trace_id = _root_id(name, args)
            stack.append((span_id, trace_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer._record(
                    (name, start, time.perf_counter(), span_id, parent, trace_id),
                    {"error": True},
                )
                raise
            end = time.perf_counter()
            stack.pop()
            extra = extra_of(tracer, args, result) if extra_of else None
            tracer._record((name, start, end, span_id, parent, trace_id), extra)
            return result

        return traced

    def _record(self, timing: tuple, extra: Optional[dict]) -> None:
        name, start, end, span_id, parent, trace_id = timing
        record = (
            name, start, end, span_id,
            parent[0] if parent else None, trace_id, os.getpid(), extra,
        )
        with self._lock:
            self.spans.append(record)
        if parent is None and os.getpid() != self._owner_pid:
            self.flush()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def first_for_trace(self, key) -> bool:
        with self._lock:
            if key in self._seen_traces:
                return False
            self._seen_traces.add(key)
            return True

    def drain(self) -> list[tuple]:
        """This process's recorded spans, removing them from the buffer."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def flush(self) -> None:
        """Append this process's buffered spans to its span file."""
        spans = self.drain()
        if not spans:
            return
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        path = self.spans_dir / f"{self.role}-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def _root_id(name: str, args: tuple) -> Optional[str]:
    if name == "experiment.run_spec":
        return _spec_key(args[0])
    if name in ("service.run", "service.submit") and len(args) > 1:
        return _spec_key(args[1])
    if name == "service.wait" and len(args) > 1:
        return str(args[1])
    return None


def _run_spec_extra(tracer: Tracer, args, result) -> dict:
    from repro.core.array_kernel import backend_mode

    spec = args[0]
    return {"tier": backend_mode(spec), "instructions": result.instructions}


def _batched_extra(tracer: Tracer, args, result) -> dict:
    spec, profile = args[0], args[1]
    length = spec.n_instructions + spec.warmup_instructions
    return {
        "instructions": length,
        "cold": tracer.first_for_trace((profile.name, length, spec.trace_seed)),
    }


def _pipeline_extra(tracer: Tracer, args, result) -> dict:
    return {"instructions": len(args[1])}


def _put_extra(tracer: Tracer, args, result) -> dict:
    cache, key = args[0], args[1]
    try:
        size = cache.path_for(key).stat().st_size
    except OSError:
        size = 0
    return {"bytes": size}


_EXTRAS = {
    "experiment.run_spec": _run_spec_extra,
    "array_kernel.run_batched": _batched_extra,
    "cpu.pipeline": _pipeline_extra,
    "cache.put": _put_extra,
}


def load_spans(spans_dir) -> list[tuple]:
    """Every span written under *spans_dir* (raises on a corrupt file)."""
    spans: list[tuple] = []
    directory = Path(spans_dir)
    if not directory.exists():
        return spans
    for path in sorted(directory.glob("*.jsonl")):
        role = path.name.split("-", 1)[0]
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                try:
                    span = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{path.name}:{number}: {exc}") from None
                spans.append(tuple(span) + (role,))
    return spans


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    index = {(s[6], s[3]): i for i, s in enumerate(spans)}
    self_time = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[4] is not None:
            parent = index.get((span[6], span[4]))
            if parent is not None:
                self_time[parent] -= span[2] - span[1]
    return self_time


def layer_table(spans: list[tuple], wall: float) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, share of *wall*."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    for row in table.values():
        row["self_share"] = row["self_s"] / wall if wall > 0 else 0.0
    return table
