"""In-memory spans for the traced benchmark run.

The tracer records spans from outside the ``repro`` package: it wraps
the public entry points of each layer (class attributes, restored by
:meth:`Tracer.uninstall`) and subscribes to the scheduler's public
``add_listener`` events.  Each span carries a name, its layer, start,
end, the id of the span that caused it (its parent on the same thread)
and, for spans that run inside one I/O request, that request's id, so a
request's submit, offloader and store spans line up.  Spans stay in
memory and are written out at the end as Chrome trace-event JSON.

A span's self time is its duration minus the part its child spans
cover; children run on the parent's thread and nest, so that part is
the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import namedtuple
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.io.aio import syscall_tape

Span = namedtuple("Span", "sid parent layer name thread start end rid n")

#: Attribute carrying the benchmark's request id on a submitted request.
RID_ATTR = "stepbench_rid"

#: Module hook registrations whose TensorCache hooks get a span.
_HOOK_REGISTRATIONS = (
    "register_forward_pre_hook",
    "register_forward_hook",
    "register_full_backward_pre_hook",
    "register_full_backward_hook",
)


def _op_name(args: Tuple[Any, ...]) -> str:
    return args[0].__name__


def _node_name(args: Tuple[Any, ...]) -> str:
    return args[0].name


def _stored_bytes(args: Tuple[Any, ...]) -> int:
    return int(args[2].nbytes)


#: (module, class, attribute, layer, span name, measure).  ``span name``
#: is a string or a function of the call's arguments; ``measure`` is
#: ``"syscalls"`` (kernel round-trips counted by the syscall tape) or a
#: function of the arguments giving the span's ``n``.
TARGETS = (
    ("repro.tensor.function", "Function", "apply", "tensor.fwd", _op_name, None),
    ("repro.tensor.function", "BackwardNode", "run_backward", "tensor.bwd", _node_name, None),
    ("repro.tensor.function", "AccumulateGrad", "run_backward", "tensor.bwd", _node_name, None),
    ("repro.core.tensor_cache", "TensorCache", "pack_hook", "cache.pack", None, None),
    ("repro.core.tensor_cache", "TensorCache", "unpack_hook", "cache.unpack", None, None),
    ("repro.core.tensor_cache", "TensorCache", "on_step_end", "cache.step_end", None, None),
    ("repro.core.tensor_cache", "TensorCache", "set_microbatch", "cache.hooks", None, None),
    ("repro.core.tensor_cache", "TensorCache", "hint_keep_remaining", "cache.hooks", None, None),
    ("repro.core.tensor_cache", "TensorCache", "on_backward_begin", "cache.hooks", None, None),
    ("repro.core.tensor_cache", "TensorCache", "on_backward_end", "cache.hooks", None, None),
    ("repro.io.scheduler", "IOScheduler", "submit", "sched.submit", None, None),
    ("repro.core.offloader", "SSDOffloader", "store", "offload.store", None, _stored_bytes),
    ("repro.core.offloader", "SSDOffloader", "load", "offload.load", None, None),
    ("repro.core.offloader", "CPUOffloader", "store", "offload.store", None, _stored_bytes),
    ("repro.core.offloader", "CPUOffloader", "load", "offload.load", None, None),
    ("repro.core.tiered", "TieredOffloader", "store", "offload.store", None, _stored_bytes),
    ("repro.core.tiered", "TieredOffloader", "load", "offload.load", None, None),
    ("repro.io.filestore", "TensorFileStore", "write", "store.write", None, "syscalls"),
    ("repro.io.filestore", "TensorFileStore", "read", "store.read", None, "syscalls"),
    ("repro.io.chunkstore", "ChunkedTensorStore", "write", "store.write", None, "syscalls"),
    ("repro.io.chunkstore", "ChunkedTensorStore", "read", "store.read", None, "syscalls"),
    ("repro.io.aio", "ThreadBackend", "run_batch", "backend.run_batch", None, None),
    ("repro.io.uring", "UringBackend", "run_batch", "backend.run_batch", None, None),
    ("repro.optim.sgd", "SGD", "step", "optim.step", None, None),
    ("repro.optim.adam", "Adam", "step", "optim.step", None, None),
)

#: Request-scoped layers: their spans run inside one request's body on
#: a lane thread and carry its id.
_REQUEST_LAYERS = ("offload.store", "offload.load", "store.write", "store.read")


class Tracer:
    """Records spans while :attr:`enabled`; one per traced session."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Completed I/O requests:
        #: (class, rid, submitted_at, started_at, finished_at).
        self.requests: List[Tuple[str, int, float, float, float]] = []
        self.enabled = False
        self.thread_names: Dict[int, str] = {}
        #: Wrap targets absent from the program (reported, not fatal).
        self.missing: List[str] = []
        self._local = threading.local()
        self._next_sid = itertools.count(1).__next__
        self._next_rid = itertools.count(1).__next__
        self._patches: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, name: str, fn: Callable, args, kwargs,
                rid: int = 0, measure=None) -> Any:
        stack = self._stack()
        sid = self._next_sid()
        parent = stack[-1] if stack else 0
        thread = threading.get_ident()
        if thread not in self.thread_names:
            self.thread_names[thread] = threading.current_thread().name
        if rid == 0 and layer in _REQUEST_LAYERS:
            rid = getattr(self._local, "rid", 0)
        n = 0
        stack.append(sid)
        start = perf_counter()
        try:
            if measure == "syscalls":
                with syscall_tape() as tape:
                    return fn(*args, **kwargs)
            if measure is not None:
                n = measure(args)
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            if measure == "syscalls":
                n = tape.count
            self.spans.append(Span(sid, parent, layer, name, thread, start, end, rid, n))

    def wrap(self, layer: str, fn: Callable, name=None, measure=None) -> Callable:
        """``fn`` recording one span per call while enabled."""
        tracer = self
        label = name if name is not None else getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = label(args) if callable(label) else label
            return tracer._record(layer, span_name, fn, args, kwargs, measure=measure)

        return traced

    def _traced_submit(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def submit(scheduler, request, *args, **kwargs):
            if not tracer.enabled:
                return fn(scheduler, request, *args, **kwargs)
            rid = tracer._next_rid()
            setattr(request, RID_ATTR, rid)
            return tracer._record(
                "sched.submit", "IOScheduler.submit", fn,
                (scheduler, request) + args, kwargs, rid=rid,
            )

        return submit

    def _traced_registration(self, fn: Callable) -> Callable:
        from repro.core.tensor_cache import TensorCache

        tracer = self

        @functools.wraps(fn)
        def register(module, hook, *args, **kwargs):
            if isinstance(getattr(hook, "__self__", None), TensorCache):
                hook = tracer.wrap("cache.hooks", hook)
            return fn(module, hook, *args, **kwargs)

        return register

    def on_io_event(self, event: str, request: Any) -> None:
        """Scheduler listener: tag the lane thread with the request it is
        about to run, and book each executed request's timestamps."""
        if event == "start":
            self._local.rid = getattr(request, RID_ATTR, 0)
        elif event == "done":
            self._local.rid = 0
            if self.enabled and request.started_at:
                self.requests.append((
                    request.priority.name,
                    getattr(request, RID_ATTR, 0),
                    request.submitted_at,
                    request.started_at,
                    request.finished_at,
                ))

    # ------------------------------------------------------------- patching
    def _patch(self, owner: type, attr: str, build: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(build(raw.__func__))
        else:
            new = build(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; build traced sessions after this call so
        their module hooks are registered through the wrappers."""
        for module_name, cls_name, attr, layer, name, measure in TARGETS:
            owner = getattr(importlib.import_module(module_name), cls_name, None)
            if owner is None:
                self.missing.append(f"{cls_name}.{attr}")
                continue
            if cls_name == "IOScheduler" and attr == "submit":
                self._patch(owner, attr, self._traced_submit)
                continue
            label = name if name is not None else f"{cls_name}.{attr}"
            self._patch(
                owner, attr,
                lambda fn, layer=layer, label=label, measure=measure:
                    self.wrap(layer, fn, name=label, measure=measure),
            )
        from repro.tensor.module import Module

        for attr in _HOOK_REGISTRATIONS:
            self._patch(Module, attr, self._traced_registration)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # --------------------------------------------------------------- region
    def region(self, layer: str, name: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside one span (e.g. the whole step)."""
        if not self.enabled:
            return fn(*args)
        return self._record(layer, name, fn, args, {})

    # --------------------------------------------------------------- export
    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``
        or Perfetto); timestamps are microseconds since ``origin``."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": name}}
            for tid, name in self.thread_names.items()
        ]
        for s in self.spans:
            events.append({
                "ph": "X", "name": s.name, "cat": s.layer, "pid": pid,
                "tid": s.thread, "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {"id": s.sid, "parent": s.parent, "rid": s.rid, "n": s.n},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> self time (duration minus its children's durations)."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s.parent:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    return {s.sid: (s.end - s.start) - covered.get(s.sid, 0.0) for s in spans}


def outermost(spans: List[Span], layer: str) -> List[Span]:
    """Spans of ``layer`` not nested inside another span of ``layer``."""
    layer_of = {s.sid: s.layer for s in spans}
    return [s for s in spans if s.layer == layer and layer_of.get(s.parent) != layer]


def busy_time(spans: List[Span]) -> float:
    """Length of the union of the spans' intervals (any thread)."""
    total = 0.0
    end: Optional[float] = None
    start: Optional[float] = None
    for s in sorted(spans, key=lambda sp: sp.start):
        if end is None or s.start > end:
            if end is not None:
                total += end - start
            start, end = s.start, s.end
        elif s.end > end:
            end = s.end
    if end is not None:
        total += end - start
    return total
