"""The kernel event stream: one subscribable bus per kernel.

Before the fleet work, anything that wanted to observe a kernel had to
reach into its internals: telemetry hung off a private ``on_oops``
callback, the supervisor's health transitions were visible only in its
audit list, and a load was an entry in the kernel log.  That was fine
while every consumer lived in the same module graph — it stops working
when an *orchestrator* owns hundreds of kernels and needs to watch all
of them without coupling to any subsystem's internals.

This module is the redesigned delivery path.  Each
:class:`~repro.kernel.kernel.Kernel` owns one :class:`EventBus`;
producers publish typed :class:`KernelEvent` records —

* ``oops`` — every kernel oops, as it is recorded (the bus replaces
  the old private callback; telemetry is now just the first
  subscriber),
* ``load`` — every program through a load pipeline,
* ``health`` — every supervisor health-state transition
  (old state, new state, reason),
* ``soft-reset`` — scoped taint cleared (a rollback leaves this
  fingerprint),
* ``telemetry`` — an on-demand roll-up snapshot
  (:meth:`~repro.kernel.kernel.Kernel.emit_telemetry_snapshot`),

and consumers subscribe by kind.  Delivery is synchronous and in
subscription order, so the stream is as deterministic as the
simulation itself: the sequence of events is a pure function of
(workload, seed), which is what lets the fleet's rollout log be
bit-identical across runs.

Hot-path contract: nothing here runs per instruction or per packet.
Oopses, loads and health transitions are control-plane-rate; the only
per-event cost beyond building the record is one list iteration over
the matching subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class KernelEvent:
    """One observed kernel fact, stamped on the virtual clock."""

    seq: int
    timestamp_ns: int
    kind: str
    source: str
    detail: Tuple[Tuple[str, object], ...] = ()

    def get(self, key: str, default: object = None) -> object:
        """One detail field (events carry details as sorted pairs so
        they hash stably into determinism digests)."""
        for name, value in self.detail:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view."""
        return {"seq": self.seq, "timestamp_ns": self.timestamp_ns,
                "kind": self.kind, "source": self.source,
                "detail": dict(self.detail)}

    def signature_bytes(self) -> bytes:
        """Stable serialization, hashed into rollout signatures."""
        return repr((self.seq, self.timestamp_ns, self.kind,
                     self.source, self.detail)).encode()


#: a subscriber: called synchronously with each matching event
EventHandler = Callable[[KernelEvent], None]


@dataclass
class Subscription:
    """One live subscription (returned by :meth:`EventBus.subscribe`;
    calling :meth:`cancel` detaches it)."""

    bus: "EventBus"
    handler: EventHandler
    kinds: Optional[Tuple[str, ...]] = None
    active: bool = True

    def matches(self, kind: str) -> bool:
        """True when this subscription wants ``kind`` events."""
        return self.active and (self.kinds is None
                                or kind in self.kinds)

    def cancel(self) -> None:
        """Detach; pending deliveries in the current publish still
        complete (delivery snapshots the subscriber list)."""
        self.active = False
        self.bus.prune()


class EventBus:
    """Synchronous, deterministic pub/sub over one kernel's events."""

    def __init__(self, clock: Optional[object] = None) -> None:
        self.clock = clock
        self._subs: List[Subscription] = []
        #: events published, by kind (cheap observability for tests)
        self.emitted: Dict[str, int] = {}
        self._next_seq = 0

    def subscribe(self, handler: EventHandler,
                  kinds: Optional[Tuple[str, ...]] = None,
                  ) -> Subscription:
        """Attach a handler for ``kinds`` (None = every kind).
        Handlers run synchronously, in subscription order."""
        sub = Subscription(self, handler,
                           tuple(kinds) if kinds is not None else None)
        self._subs.append(sub)
        return sub

    def prune(self) -> None:
        """Drop cancelled subscriptions."""
        self._subs = [s for s in self._subs if s.active]

    def publish(self, kind: str, source: str = "",
                timestamp_ns: Optional[int] = None,
                **detail: object) -> KernelEvent:
        """Build and deliver one event; returns it (tests assert on
        the return value).  ``timestamp_ns`` defaults to the kernel
        clock — producers that know a better stamp (an oops carries
        its own) pass it explicitly."""
        if timestamp_ns is None:
            timestamp_ns = self.clock.now_ns if self.clock else 0
        event = KernelEvent(
            seq=self._next_seq, timestamp_ns=timestamp_ns, kind=kind,
            source=source, detail=tuple(sorted(detail.items())))
        self._next_seq += 1
        self.emitted[kind] = self.emitted.get(kind, 0) + 1
        for sub in list(self._subs):
            if sub.matches(kind):
                sub.handler(event)
        return event
