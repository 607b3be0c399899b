"""Layer spans recorded from outside the program.

:class:`SpanRecorder` replaces public entry points of each layer (class
attributes or module functions) with timing wrappers.  Each call records a
span: name, layer, start, end, parent span and the root span it belongs to
(one request).  Per-thread stacks give every span its self time: its
duration minus the time its child spans cover.  Spans stay in memory and
are written out once, at the end of the run, as Chrome trace-event JSON
that ``python -m repro.observability summarize`` reads.

Nothing under ``src/`` is edited; :meth:`SpanRecorder.uninstall` restores
every original attribute.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, owner class or None for a module function, attribute, layer)
LAYER_ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.transform.pipeline", "KinectTransformer", "transform", "transform"),
    ("repro.streams.stream", "Stream", "push", "streams"),
    ("repro.streams.stream", "Stream", "push_batch", "streams"),
    ("repro.cep.matcher", "NFAMatcher", "process", "cep.matcher"),
    ("repro.cep.matcher", "NFAMatcher", "process_batch", "cep.matcher"),
    ("repro.cep.sinks", "FanOutSink", "emit", "cep.sinks"),
    ("repro.cep.engine", "CEPEngine", "push_many", "cep.engine"),
    ("repro.api.session", "GestureSession", "feed", "api.session"),
    ("repro.observability.histogram", "LatencyHistogram", "record", "observability"),
    ("repro.persistence.log", "EventLog", "append_tuples", "persistence"),
    ("repro.persistence.manager", "DurabilityManager", "snapshot", "persistence"),
    ("repro.runtime.sharded", "ShardedRuntime", "push_many", "runtime"),
    ("repro.runtime.sharded", "ShardedRuntime", "drain", "runtime"),
    ("repro.runtime.shard", "ProcessShard", "enqueue_tuples", "runtime"),
    ("repro.runtime.queues", "ShardQueue", "put", "runtime"),
    ("repro.gateway.protocol", None, "decode_message", "gateway"),
)

#: Raw spans kept for the Chrome trace file; aggregates cover every span.
TRACE_EVENT_CAP = 50_000


class _ThreadState:
    """One thread's span stack, per-name totals and root-span coverage."""

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: List[List[Any]] = []  # [span id, root id, child seconds]
        self.stats: Dict[str, List[float]] = {}
        self.top_seconds = 0.0


class SpanRecorder:
    """Wraps layer entry points and aggregates their spans.

    ``active`` gates recording, so wrappers may be installed before the
    system is set up (set-up captures bound methods) and switched on for
    the timed window only.
    """

    def __init__(self, event_cap: int = TRACE_EVENT_CAP) -> None:
        self.active = False
        self.event_cap = event_cap
        self.events: List[Tuple[int, int, int, str, str, int, float, float]] = []
        self.dropped_events = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.layer_of: Dict[str, str] = {}

    # -- installation ------------------------------------------------------------------

    def install(self) -> "SpanRecorder":
        for module_name, owner_name, attribute, layer in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute] if owner_name else getattr(module, attribute)
            name = f"{owner_name}.{attribute}" if owner_name else f"{module_name}.{attribute}"
            self.layer_of[name] = layer
            setattr(owner, attribute, self.wrap(original, name, layer))
            self._restore.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def wrap(self, function: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        recorder = self
        local = self._local

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return function(*args, **kwargs)
            try:
                state = local.state
            except AttributeError:
                state = recorder._new_thread_state()
            stack = state.stack
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            entry = [span_id, parent[1] if parent else span_id, 0.0]
            stack.append(entry)
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                duration = ended - started
                record = state.stats.get(name)
                if record is None:
                    record = state.stats[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - entry[2]
                if parent is not None:
                    parent[2] += duration
                else:
                    state.top_seconds += duration
                if len(recorder.events) < recorder.event_cap:
                    recorder.events.append(
                        (
                            span_id,
                            parent[0] if parent else 0,
                            entry[1],
                            name,
                            layer,
                            state.ident,
                            started,
                            ended,
                        )
                    )
                else:
                    recorder.dropped_events += 1

        return wrapper

    def _new_thread_state(self) -> _ThreadState:
        state = _ThreadState(threading.get_ident())
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    # -- results -----------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Span name -> calls, total seconds and self seconds (all threads)."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (count, total, self_time) in list(state.stats.items()):
                bucket = merged.setdefault(
                    name,
                    {"layer": self.layer_of.get(name, "?"), "calls": 0, "seconds": 0.0,
                     "self_seconds": 0.0},
                )
                bucket["calls"] += count
                bucket["seconds"] += total
                bucket["self_seconds"] += self_time
        return merged

    def top_level_seconds(self, thread_ident: Optional[int] = None) -> float:
        """Time covered by root spans, on one thread or on all of them."""
        with self._lock:
            states = list(self._states)
        return sum(
            state.top_seconds
            for state in states
            if thread_ident is None or state.ident == thread_ident
        )

    def reset(self) -> None:
        """Forget every span recorded so far (keeps the wrappers)."""
        with self._lock:
            for state in self._states:
                state.stats.clear()
                state.top_seconds = 0.0
        self.events.clear()
        self.dropped_events = 0

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept spans as a Chrome trace-event document."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": started * 1e6,
                "dur": (ended - started) * 1e6,
                "pid": pid,
                "tid": thread,
                "args": {"span_id": span_id, "parent_id": parent_id, "trace_id": str(root)},
            }
            for span_id, parent_id, root, name, layer, thread, started, ended in self.events
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped_events},
        }

    def write_trace(self, path: Path) -> None:
        path.write_text(json.dumps(self.chrome_trace()))
