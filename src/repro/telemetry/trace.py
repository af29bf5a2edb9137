"""The structured trace ring: bounded, overwriting, exportable.

Models the kernel's tracing ring buffers (``trace_pipe``, the BPF
ringbuf used by observability tools): a fixed-capacity in-memory ring
of structured events.  When the ring is full the *oldest* event is
overwritten and counted as dropped — readers that fall behind lose
history, never the writer (the same policy as the kernel's per-CPU
trace buffers).

Events are plain data; sinks are pluggable callables so tests (or a
future wire exporter) can observe events as they are emitted without
changing the emitters.  JSONL export/import round-trips every field.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

#: event kinds emitted by the instrumented subsystems
EVENT_KINDS = ("load", "run", "helper", "watchdog_kill", "oops",
               "map_op", "ringbuf_drop", "panic")


@dataclass(slots=True)
class TraceEvent:
    """One structured telemetry event."""

    ts_ns: int
    kind: str
    framework: str = ""
    prog: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One JSONL line for this event."""
        return json.dumps({"ts_ns": self.ts_ns, "kind": self.kind,
                           "framework": self.framework,
                           "prog": self.prog, "data": self.data},
                          sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        """Parse one JSONL line back into an event."""
        raw = json.loads(line)
        return TraceEvent(ts_ns=raw["ts_ns"], kind=raw["kind"],
                          framework=raw.get("framework", ""),
                          prog=raw.get("prog", ""),
                          data=raw.get("data", {}))


class TraceRing:
    """Bounded ring of :class:`TraceEvent` with pluggable sinks."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("trace ring capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: events overwritten because the ring was full
        self.dropped = 0
        #: every event ever emitted (dropped ones included)
        self.emitted = 0
        self._sinks: Dict[str, Callable[[TraceEvent], None]] = {}

    def __len__(self) -> int:
        return len(self._ring)

    def emit(self, event: TraceEvent) -> None:
        """Append an event, overwriting (and counting) the oldest
        when full, then fan out to every sink."""
        self.emitted += 1
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(event)
        if self._sinks:
            for sink in self._sinks.values():
                sink(event)

    def add_sink(self, name: str,
                 sink: Callable[[TraceEvent], None]) -> None:
        """Register ``sink(event)`` to observe every emission."""
        self._sinks[name] = sink

    def remove_sink(self, name: str) -> None:
        """Unregister a sink (no-op when absent)."""
        self._sinks.pop(name, None)

    def events(self, kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[TraceEvent]:
        """Events currently held, oldest first, optionally filtered
        by ``kind`` and truncated to the last ``limit`` (0 keeps
        none; a negative limit is an error)."""
        if limit is not None and limit < 0:
            raise ValueError(f"trace limit must be >= 0, got {limit}")
        out = [e for e in self._ring
               if kind is None or e.kind == kind]
        if limit is not None:
            out = out[-limit:] if limit else []
        return out

    def clear(self) -> None:
        """Drop every held event (counters are kept)."""
        self._ring.clear()

    def to_jsonl(self) -> str:
        """The held events as JSON-lines text (trailing newline when
        non-empty)."""
        lines = [event.to_json() for event in self._ring]
        return "\n".join(lines) + ("\n" if lines else "")


def parse_jsonl(text: str) -> List[TraceEvent]:
    """Parse JSONL text (as produced by :meth:`TraceRing.to_jsonl`)
    back into events."""
    return [TraceEvent.from_json(line)
            for line in text.splitlines() if line.strip()]
