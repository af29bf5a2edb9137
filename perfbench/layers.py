"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it wraps each layer's public
functions at class (or module) level with a span that records wall
time, call count and *self* time — the span's duration minus the part
covered by spans nested inside it.  Every span is named
``layer:function``; a layer's self time is the sum over its functions,
and the layers' self times add up to the traced busy time.

Two binding rules decide *where* a wrapper must go:

* compiled frames look up ``mem.read``, ``mem.write`` and
  ``kernel.work`` when each frame is entered, and the data plane looks
  up ``frame.fill`` / ``hist.observe`` per burst, so class-level
  wrappers installed before the kernel is built are seen everywhere;
* ``repro.ebpf.loader`` imports ``predecode``, ``compile_program``,
  ``jit_compile`` and ``fingerprint`` by name, so the loader module's
  bindings are the ones wrapped.

Helper implementations are plain functions held by ``HelperSpec``
objects; :meth:`Tracer.helper_registry` returns a fresh default
registry whose implementations are wrapped, for a subsystem built
with ``BpfSubsystem(registry=...)``.

Spans only record while :attr:`Tracer.on` is set, so set-up work
(kernel boot, staging packets) stays out of the ledger.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple


class _NoClock:
    """Stands in for a HostClock outside a pass: nothing is probed."""

    stolen = 0.0


class Tracer:
    """Span wrappers plus the ledger they write into."""

    def __init__(self) -> None:
        #: spans record only while this is set
        self.on = False
        #: child-time accumulators of the spans currently open
        self._stack: List[float] = []
        #: ``layer:function`` -> [self seconds, calls]
        self._acc: Dict[str, List[float]] = {}
        #: ``layer:function`` -> durations (seconds) of sampled spans
        self.samples: Dict[str, List[float]] = {}
        #: named counters filled by post-call hooks
        self.counters: Dict[str, int] = {}
        #: the pass's :class:`~perfbench.common.HostClock`: time its
        #: probes take inside a span is not the span's
        self.clock: object = _NoClock()

    # -- the ledger -------------------------------------------------------------

    def reset(self) -> None:
        """Zero the ledger in place (wrappers keep their references)."""
        for acc in self._acc.values():
            acc[0] = 0.0
            acc[1] = 0
        for samples in self.samples.values():
            samples.clear()
        for name in self.counters:
            self.counters[name] = 0
        self._stack.clear()

    def calls(self) -> Dict[str, int]:
        """``layer:function`` -> calls since the last reset."""
        return {key: int(acc[1]) for key, acc in self._acc.items()}

    def self_seconds(self) -> Dict[str, float]:
        """``layer:function`` -> self seconds since the last reset."""
        return {key: acc[0] for key, acc in self._acc.items()}

    def add(self, name: str, amount: int) -> None:
        """Bump a named counter (used by post-call hooks)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------------

    def span(self, key: str, fn: Callable, *, sample: bool = False,
             always_sample: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span named ``key``.

        ``sample`` keeps every duration in :attr:`samples`;
        ``always_sample`` does so even while tracing is off (for
        set-up work such as node boot, timed without entering the
        ledger).  ``after(args, result, elapsed)`` runs once the call
        returns or raises, while tracing is on (``result`` is None
        when it raised)."""
        acc = self._acc.setdefault(key, [0.0, 0])
        samples = self.samples.setdefault(key, []) \
            if sample or always_sample else None
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock = tracer.clock
            if not tracer.on:
                if not always_sample:
                    return fn(*args, **kwargs)
                stolen = clock.stolen
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(perf() - start
                                   - (clock.stolen - stolen))
            stack.append(0.0)
            result = None
            stolen = clock.stolen
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf() - start - (clock.stolen - stolen)
                child = stack.pop()
                acc[0] += elapsed - child
                acc[1] += 1
                if stack:
                    stack[-1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
                if after is not None:
                    after(args, result, elapsed)
        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so it is counted but not timed (its time stays
        with the span it runs in)."""
        acc = self._acc.setdefault(key, [0.0, 0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                acc[1] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    def patch(self, owner: object, name: str, key: str,
              **options: object) -> None:
        """Replace ``owner.name`` with a span (``counter=True`` for a
        count-only wrapper)."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        if options.pop("counter", False):
            wrapped = self.counter(key, original)
        else:
            wrapped = self.span(key, original, **options)
        setattr(owner, name, wrapped)

    def patch_all(self, owner: type, names: Tuple[str, ...],
                  layer: str, **options: object) -> None:
        """Span every listed method of ``owner`` under ``layer``."""
        for name in names:
            self.patch(owner, name, f"{layer}:{name}", **options)

    def patch_public(self, owner: type, layer: str) -> None:
        """Span every public plain function defined on ``owner``."""
        for name, value in sorted(vars(owner).items()):
            if not name.startswith("_") and inspect.isfunction(value):
                self.patch(owner, name, f"{layer}:{name}")

    def helper_registry(self) -> object:
        """A fresh default helper registry whose implementations are
        wrapped in ``ebpf.helpers`` spans."""
        from repro.ebpf.helpers.registry import build_default_registry

        registry = build_default_registry()
        for spec in registry.implemented():
            spec.impl = self.span(f"ebpf.helpers:{spec.name}",
                                  spec.impl)
        return registry


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public functions.  Call it before
    the kernels of the traced passes are built."""
    from repro.ebpf import loader, maps
    from repro.ebpf.interpreter import BpfVm
    from repro.ebpf.progcache import ProgramLoadCache
    from repro.ebpf.verifier.analyzer import Verifier
    from repro.faultinject.plane import FaultPlane
    from repro.fleet.adapters.node import FleetNode
    from repro.fleet.journal import MemoryJournal
    from repro.fleet.services.aggregate import FleetTelemetry
    from repro.fleet.services.canary import CanaryEvaluator
    from repro.fleet.services.orchestrator import RolloutOrchestrator
    from repro.fleet.services.planner import RolloutPlanner
    from repro.fleet.services.registry import ReleaseRegistry
    from repro.fleet.transport import FleetTransport
    from repro.kernel.ktime import VirtualClock
    from repro.kernel.memory import KernelAddressSpace
    from repro.net.nic import SimulatedNic, XdpFrame
    from repro.net.pipeline import DataPlane
    from repro.telemetry.core import Telemetry
    from repro.telemetry.metrics import Histogram

    # kernel.memory: checked loads/stores and the allocator; the
    # address-space lookup behind every access is counted, not timed
    tracer.patch_all(KernelAddressSpace,
                     ("read", "write", "read_u64", "write_u64",
                      "kmalloc", "kfree", "try_read", "try_write",
                      "valid_range"), "kernel.memory")
    tracer.patch(KernelAddressSpace, "find_allocation",
                 "kernel.memory:find_allocation", counter=True)
    tracer.patch(VirtualClock, "advance", "kernel.ktime:advance")

    # net: frame fill, verdict routing / polling, PASS delivery + TX
    tracer.patch(XdpFrame, "fill", "net.fill:fill")
    tracer.patch_all(DataPlane, ("process_all", "_poll_queue"), "net.poll")
    tracer.patch(DataPlane, "drain", "net.deliver:drain")
    tracer.patch(maps.RingBufMap, "output_batch",
                 "net.deliver:output_batch")
    tracer.patch(SimulatedNic, "transmit", "net.deliver:transmit")

    # ebpf: program body (frames), helper dispatch, map operations
    tracer.patch_all(BpfVm, ("run", "_run_frame"), "ebpf.prog")
    tracer.patch(BpfVm, "_call_helper", "ebpf.helpers:_call_helper")
    for _, cls in sorted(vars(maps).items()):
        if isinstance(cls, type) and issubclass(cls, maps.BpfMap):
            for name in ("lookup_addr", "update", "delete"):
                if name in vars(cls):
                    tracer.patch(cls, name,
                                 f"ebpf.maps:{cls.__name__}.{name}")

    tracer.patch_public(Telemetry, "telemetry")
    tracer.patch(Histogram, "observe", "telemetry:Histogram.observe")

    # load pipeline: verifier walk, JIT, predecode, compile, cache
    def verifier_counts(args: tuple, _: object, __: float) -> None:
        stats = args[0].stats
        tracer.add("verifier.insns_processed", stats.insns_processed)
        tracer.add("verifier.states_explored", stats.states_explored)
        tracer.add("verifier.prune_hits", stats.prune_hits)

    def cache_counts(_: tuple, entry: object, __: float) -> None:
        tracer.add("progcache.misses" if entry is None
                   else "progcache.hits", 1)

    hit_samples = tracer.samples.setdefault("ebpf.loader:hit", [])

    def load_kind(_: tuple, prog: object, elapsed: float) -> None:
        if prog is not None and prog.verifier_stats.from_cache:
            hit_samples.append(elapsed)

    tracer.patch(Verifier, "verify", "ebpf.verifier:verify",
                 after=verifier_counts)
    tracer.patch(loader, "jit_compile", "ebpf.jit:jit_compile")
    tracer.patch(loader, "predecode", "ebpf.predecode:predecode")
    tracer.patch(loader, "compile_program",
                 "ebpf.compile:compile_program")
    tracer.patch(loader, "fingerprint", "ebpf.progcache:fingerprint")
    tracer.patch(ProgramLoadCache, "lookup", "ebpf.progcache:lookup",
                 after=cache_counts)
    tracer.patch(ProgramLoadCache, "insert", "ebpf.progcache:insert")
    tracer.patch(loader.BpfSubsystem, "load_program",
                 "ebpf.loader:load_program", after=load_kind)

    # fleet control path
    tracer.patch(FleetTransport, "call", "fleet.transport:call")
    tracer.patch(MemoryJournal, "append", "fleet.journal:append")
    tracer.patch(RolloutOrchestrator, "rollout",
                 "fleet.services:rollout")
    tracer.patch(RolloutPlanner, "plan", "fleet.services:plan")
    tracer.patch(CanaryEvaluator, "evaluate", "fleet.services:evaluate")
    tracer.patch_all(ReleaseRegistry, ("get", "verify"),
                     "fleet.services")
    tracer.patch_all(FleetTelemetry, ("_on_event", "record_wave",
                                      "record_rollback",
                                      "record_rollout",
                                      "record_transport"),
                     "fleet.services")
    tracer.patch(FleetNode, "deploy", "fleet.node:deploy", sample=True)
    tracer.patch_all(FleetNode, ("rollback", "soak", "census",
                                 "quarantine", "snapshot"),
                     "fleet.node")
    tracer.patch(FleetNode, "__init__", "fleet.node:boot",
                 always_sample=True)
    tracer.patch(FaultPlane, "check", "faultinject.plane:check")


#: per-layer metrics reported by a traced run, in BENCHMARK.json order:
#: (name, unit, better).  ``_per_pkt`` figures divide by the packets
#: that reached a verdict (0 on workloads without packets); every
#: other count and ``self_ms`` is per pass (one leg, corpus round or
#: rollout cycle), so it is deterministic for a seed.
PER_LAYER = (
    ("kernel.memory.resolves_per_pkt", "count", "lower"),
    ("kernel.memory.kmalloc_per_pkt", "count", "lower"),
    ("kernel.memory.self_ms", "ms", "lower"),
    ("kernel.memory.share", "ratio", "lower"),
    ("kernel.ktime.advances_per_pkt", "count", "lower"),
    ("kernel.ktime.self_ms", "ms", "lower"),
    ("net.fill_per_pkt", "count", "lower"),
    ("net.fill.self_ms", "ms", "lower"),
    ("net.deliver.self_ms", "ms", "lower"),
    ("net.poll.self_ms", "ms", "lower"),
    ("ebpf.prog.insns_per_pkt", "count", "lower"),
    ("ebpf.prog.self_ms", "ms", "lower"),
    ("ebpf.helpers.calls_per_pkt", "count", "lower"),
    ("ebpf.helpers.self_ms", "ms", "lower"),
    ("ebpf.maps.ops_per_pkt", "count", "lower"),
    ("ebpf.maps.self_ms", "ms", "lower"),
    ("telemetry.calls_per_pkt", "count", "lower"),
    ("telemetry.self_ms", "ms", "lower"),
    ("ebpf.verifier.insns_processed", "count", "lower"),
    ("ebpf.verifier.states_explored", "count", "lower"),
    ("ebpf.verifier.prune_hits", "count", "higher"),
    ("ebpf.verifier.self_ms", "ms", "lower"),
    ("ebpf.verifier.insns_per_s", "1/s", "higher"),
    ("ebpf.jit.self_ms", "ms", "lower"),
    ("ebpf.predecode.self_ms", "ms", "lower"),
    ("ebpf.compile.self_ms", "ms", "lower"),
    ("ebpf.loader.self_ms", "ms", "lower"),
    ("ebpf.progcache.hit_rate", "ratio", "higher"),
    ("ebpf.progcache.hit_us_p50", "us", "lower"),
    ("fleet.transport.attempts", "count", "lower"),
    ("fleet.transport.retries", "count", "lower"),
    ("fleet.transport.useful_frac", "ratio", "higher"),
    ("fleet.transport.self_ms", "ms", "lower"),
    ("fleet.journal.appends", "count", "lower"),
    ("fleet.journal.self_ms", "ms", "lower"),
    ("fleet.services.self_ms", "ms", "lower"),
    ("fleet.node.deploy_ms_p50", "ms", "lower"),
    ("fleet.node.soak.self_ms", "ms", "lower"),
    ("fleet.node.boot_ms", "ms", "lower"),
    ("faultinject.plane.checks", "count", "lower"),
    ("faultinject.plane.self_ms", "ms", "lower"),
    ("trace.busy_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.counts_checked", "count", "higher"),
    ("trace.count_mismatches", "count", "lower"),
)


def snapshot(tracer: Tracer) -> Dict[str, object]:
    """The ledger of one traced pass."""
    return {"self": tracer.self_seconds(), "calls": tracer.calls(),
            "counters": dict(tracer.counters),
            "samples": {key: list(values)
                        for key, values in tracer.samples.items()}}


def pass_counts(ledger: Dict[str, object],
                program_counts: Dict[str, int]) -> Dict[str, int]:
    """Every count of one traced pass: span calls, hook counters and
    the counts the workload read from the program."""
    counts = {f"calls:{key}": value
              for key, value in ledger["calls"].items()}
    counts.update({f"counter:{key}": value
                   for key, value in ledger["counters"].items()})
    counts.update({f"program:{key}": value
                   for key, value in program_counts.items()})
    return counts


def layer_metrics(ledger: Dict[str, object],
                  program_counts: Dict[str, int],
                  traced_ms_per_unit: float,
                  untraced_ms_per_unit: float,
                  counts_checked: int,
                  count_mismatches: int) -> Dict[str, float]:
    """Derive :data:`PER_LAYER` from one pass's ledger (the traced
    passes of a run are averaged into ``ledger`` by the caller)."""
    self_s: Dict[str, float] = ledger["self"]
    calls: Dict[str, float] = ledger["calls"]
    counters: Dict[str, float] = ledger["counters"]
    samples: Dict[str, List[float]] = ledger["samples"]
    packets = program_counts.get("packets", 0)

    def layer_self(prefix: str) -> float:
        return sum(value for key, value in self_s.items()
                   if key.split(":")[0] == prefix)

    def layer_calls(prefix: str) -> float:
        return sum(value for key, value in calls.items()
                   if key.split(":")[0] == prefix)

    def per_pkt(count: float) -> float:
        return count / packets if packets else 0.0

    def p50_ms(key: str) -> float:
        values = sorted(samples.get(key, ()))
        if not values:
            return 0.0
        mid = len(values) // 2
        return 1000.0 * (values[mid] if len(values) % 2
                         else (values[mid - 1] + values[mid]) / 2)

    busy = sum(self_s.values())
    insns = counters.get("verifier.insns_processed", 0)
    verify_s = layer_self("ebpf.verifier")
    lookups = counters.get("progcache.hits", 0) \
        + counters.get("progcache.misses", 0)
    attempts = program_counts.get("transport.attempts", 0)
    values = {
        "kernel.memory.resolves_per_pkt":
            per_pkt(calls.get("kernel.memory:find_allocation", 0)),
        "kernel.memory.kmalloc_per_pkt":
            per_pkt(calls.get("kernel.memory:kmalloc", 0)),
        "kernel.memory.share":
            layer_self("kernel.memory") / busy if busy else 0.0,
        "kernel.ktime.advances_per_pkt":
            per_pkt(calls.get("kernel.ktime:advance", 0)),
        "net.fill_per_pkt": per_pkt(calls.get("net.fill:fill", 0)),
        "ebpf.prog.insns_per_pkt":
            per_pkt(program_counts.get("vm.insns_executed", 0)),
        "ebpf.helpers.calls_per_pkt":
            per_pkt(program_counts.get("vm.helper_calls", 0)),
        "ebpf.maps.ops_per_pkt": per_pkt(layer_calls("ebpf.maps")),
        "telemetry.calls_per_pkt": per_pkt(layer_calls("telemetry")),
        "ebpf.verifier.insns_processed": insns,
        "ebpf.verifier.states_explored":
            counters.get("verifier.states_explored", 0),
        "ebpf.verifier.prune_hits":
            counters.get("verifier.prune_hits", 0),
        "ebpf.verifier.insns_per_s":
            insns / verify_s if verify_s else 0.0,
        "ebpf.progcache.hit_rate":
            counters.get("progcache.hits", 0) / lookups
            if lookups else 0.0,
        "ebpf.progcache.hit_us_p50": 1000.0 * p50_ms("ebpf.loader:hit"),
        "fleet.transport.attempts": attempts,
        "fleet.transport.retries":
            program_counts.get("transport.retries", 0),
        "fleet.transport.useful_frac":
            program_counts.get("transport.rpcs", 0) / attempts
            if attempts else 0.0,
        "fleet.journal.appends": calls.get("fleet.journal:append", 0),
        "fleet.node.deploy_ms_p50": p50_ms("fleet.node:deploy"),
        "fleet.node.soak.self_ms":
            1000.0 * self_s.get("fleet.node:soak", 0.0),
        "fleet.node.boot_ms": p50_ms("fleet.node:boot"),
        "faultinject.plane.checks": layer_calls("faultinject.plane"),
        "trace.busy_ms": 1000.0 * busy,
        "trace.overhead": traced_ms_per_unit / untraced_ms_per_unit,
        "trace.counts_checked": counts_checked,
        "trace.count_mismatches": count_mismatches,
    }
    for name, unit, __ in PER_LAYER:
        if name not in values and name.endswith(".self_ms"):
            values[name] = 1000.0 * layer_self(name[:-len(".self_ms")])
    return values


def average(ledgers: List[Dict[str, object]]) -> Dict[str, object]:
    """The per-pass mean of several ledgers (samples are pooled)."""
    merged: Dict[str, object] = {}
    for part in ("self", "calls", "counters"):
        keys = sorted({key for ledger in ledgers for key in ledger[part]})
        merged[part] = {key: sum(ledger[part].get(key, 0)
                                 for ledger in ledgers) / len(ledgers)
                        for key in keys}
    merged["samples"] = {}
    for ledger in ledgers:
        for key, values in ledger["samples"].items():
            merged["samples"].setdefault(key, []).extend(values)
    return merged
