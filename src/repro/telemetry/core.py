"""The kernel-wide telemetry hub.

One :class:`Telemetry` instance hangs off each simulated
:class:`~repro.kernel.kernel.Kernel` and is shared by *both* extension
frameworks — the eBPF baseline and the paper's SafeLang proposal — so
experiments can compare them over identical metric names.

The ``stats_enabled`` toggle models ``kernel.bpf_stats_enabled``: the
per-run hot-path accounting (``run_cnt``, ``run_time_ns``, insns,
helper counts, run trace events) is recorded only while it is on, so
the dispatch loop pays a single attribute test when it is off.
Failure accounting — watchdog fires, contained panics, kernel oopses,
ringbuf/perf drops, pool exhaustion — is *always* on, exactly like the
kernel's own drop counters: losing the record of a failure because a
sysctl was off would defeat the point of having it.

Load-pipeline accounting (verify / JIT / predecode timings, cache
hits, verifier work) is also always on: loading is control plane, not
hot path, and the §2.1 verification-cost argument needs those numbers
unconditionally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry

#: per-packet latency bucket bounds (virtual ns): fine sub-µs steps
#: where XDP verdicts land, stretching to ms for queue-wait tails
NET_LATENCY_BUCKETS = (
    250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
    250000, 500000, 1000000, 4000000, 16000000)
from repro.telemetry.stats import ProgStats, ProgStatsTable
from repro.telemetry.trace import TraceEvent, TraceRing


class Telemetry:
    """Metrics registry + per-program stats + trace ring for one
    kernel."""

    def __init__(self, clock: Optional[object] = None,
                 stats_enabled: bool = False,
                 trace_capacity: int = 1024) -> None:
        #: the ``kernel.bpf_stats_enabled`` analogue
        self.stats_enabled = stats_enabled
        self.registry = MetricsRegistry()
        self.progs = ProgStatsTable()
        self.trace = TraceRing(capacity=trace_capacity)
        self._clock = clock
        #: run-side instruments bound on first use (see "Bound run
        #: instruments" in DESIGN.md): rows and metric children are
        #: never removed or replaced, so a bound one is exactly what
        #: ``prog()`` / ``labels()`` would return again
        self._run_bound: Dict[Tuple[str, str], tuple] = {}
        self._helper_bound: Dict[Tuple[str, str, str], tuple] = {}

        reg = self.registry
        # run-side families (recorded only while stats_enabled)
        self._runs = reg.counter(
            "repro_prog_runs_total",
            "Invocations per program (run_cnt)",
            ("framework", "prog"))
        self._run_time = reg.counter(
            "repro_prog_run_time_ns_total",
            "Cumulative virtual run time per program (run_time_ns)",
            ("framework", "prog"))
        self._insns = reg.counter(
            "repro_prog_insns_total",
            "Instructions/steps executed per program",
            ("framework", "prog"))
        self._helper_calls = reg.counter(
            "repro_helper_calls_total",
            "Crossings into unverified kernel code, by symbol",
            ("framework", "helper"))
        self._run_time_hist = reg.histogram(
            "repro_run_time_ns",
            "Distribution of per-invocation virtual run time",
            ("framework",))
        # load pipeline (always recorded)
        self._loads = reg.counter(
            "repro_loads_total",
            "Programs through the load pipeline, by cache outcome",
            ("framework", "cache"))
        self._stage_ns = reg.counter(
            "repro_load_stage_ns_total",
            "Host wall time spent per load-pipeline stage",
            ("framework", "stage"))
        self._verifier_work = reg.counter(
            "repro_verifier_work_total",
            "Verifier effort, by unit (insns_processed / states)",
            ("unit",))
        self._verify_hist = reg.histogram(
            "repro_verifier_insns_processed",
            "Distribution of verifier insns processed per load", ())
        # failure accounting (always recorded)
        self._watchdog = reg.counter(
            "repro_watchdog_fires_total",
            "Watchdog budget exhaustions", ("framework", "prog"))
        self._panics = reg.counter(
            "repro_panics_total",
            "Contained extension panics", ("framework", "prog"))
        self._oops = reg.counter(
            "repro_oops_total",
            "Kernel oopses, by category and attributed source",
            ("category", "source"))
        self._rb_drops = reg.counter(
            "repro_ringbuf_drops_total",
            "Ring buffer records refused with -ENOSPC", ("map_fd",))
        self._rb_drop_bytes = reg.counter(
            "repro_ringbuf_dropped_bytes_total",
            "Bytes refused by full ring buffers", ("map_fd",))
        self._pe_drops = reg.counter(
            "repro_perf_event_drops_total",
            "Per-CPU perf buffer records lost", ("map_fd", "cpu"))
        self._pool_failures = reg.counter(
            "repro_pool_alloc_failures_total",
            "Per-CPU pool exhaustion events", ("cpu",))
        self._faults = reg.counter(
            "repro_faults_injected_total",
            "Faults delivered by the injection plane, by site and "
            "action", ("site", "action"))
        # data plane (always on: verdicts and drops are the product)
        self._net_verdicts = reg.counter(
            "repro_net_verdicts_total",
            "XDP program verdicts per NIC (aborted / drop / pass / "
            "tx / redirect)", ("nic", "verdict"))
        self._net_rx_drops = reg.counter(
            "repro_net_rx_drops_total",
            "Packets lost outside a program verdict, by reason "
            "(nic_drop / oversize / queue_overflow / redirect_gone)",
            ("nic", "reason"))
        self._net_latency = reg.histogram(
            "repro_net_latency_ns",
            "Per-packet virtual latency from NIC receive to verdict",
            ("nic",), buckets=NET_LATENCY_BUCKETS)
        # deterministic SMP (always on; idle while no run is active)
        self._smp_contention = reg.counter(
            "repro_smp_lock_contention_total",
            "Contended spinlock acquisitions under the deterministic "
            "SMP scheduler, by lock and spinning CPU",
            ("lock", "cpu"))
        self._smp_races = reg.counter(
            "repro_smp_races_total",
            "Data races flagged by the happens-before/lockset "
            "detector, by storage type", ("type_name",))
        self._smp_switches = reg.counter(
            "repro_smp_switches_total",
            "Cross-CPU task switches performed by interleaving "
            "schedules", ())
        # recovery accounting (always on; idle when no supervisor)
        self._recovery_events = reg.counter(
            "repro_recovery_events_total",
            "Supervisor decisions, by kind (retry / degraded / "
            "quarantine / contain / recovered / escalate / ...)",
            ("kind",))
        self._contained = reg.counter(
            "repro_oops_contained_total",
            "Kernel oopses contained by fault-domain unwind, by "
            "attributed source and category", ("source", "category"))
        # population gauges
        self._maps_live = reg.gauge(
            "repro_maps_live", "Live maps by type", ("type",))
        self._progs_loaded = reg.gauge(
            "repro_progs_loaded", "Loaded programs", ("framework",))

    # -- toggles ------------------------------------------------------------

    def enable(self) -> None:
        """Turn run-stats collection on (``bpf_stats_enabled=1``)."""
        self.stats_enabled = True

    def disable(self) -> None:
        """Turn run-stats collection off (``bpf_stats_enabled=0``)."""
        self.stats_enabled = False

    def _now(self) -> int:
        return self._clock.now_ns if self._clock is not None else 0

    # -- per-program rows ----------------------------------------------------

    def prog(self, framework: str, name: str,
             prog_id: Optional[int] = None) -> ProgStats:
        """The stats row for one program (created on first use)."""
        return self.progs.get(framework, name, prog_id)

    # -- run side (call only when stats_enabled) ------------------------------

    def record_run(self, framework: str, name: str, *,
                   run_time_ns: int, insns: int,
                   helper_calls: int) -> None:
        """Fold one invocation into the program's run stats and the
        registry, and trace it."""
        bound = self._run_bound.get((framework, name))
        if bound is None:
            bound = self._run_bound[(framework, name)] = (
                self.progs.get(framework, name),
                self._runs.labels(framework, name),
                self._run_time.labels(framework, name),
                self._insns.labels(framework, name),
                self._run_time_hist.labels(framework))
        row, runs, run_time, insns_total, hist = bound
        row.record_run(run_time_ns, insns, helper_calls)
        runs.inc()
        run_time.inc(run_time_ns)
        insns_total.inc(insns)
        hist.observe(run_time_ns)
        self.trace.emit(TraceEvent(
            self._now(), "run", framework, name,
            {"run_time_ns": run_time_ns, "insns": insns,
             "helper_calls": helper_calls}))

    def record_helper(self, framework: str, name: str,
                      symbol: str) -> None:
        """Count one helper/kcrate call and trace it."""
        bound = self._helper_bound.get((framework, name, symbol))
        if bound is None:
            bound = self._helper_bound[(framework, name, symbol)] = (
                self.progs.get(framework, name),
                self._helper_calls.labels(framework, symbol))
        row, calls = bound
        row.record_helper(symbol)
        calls.inc()
        self.trace.emit(TraceEvent(
            self._now(), "helper", framework, name,
            {"symbol": symbol}))

    # -- load pipeline (always on) ---------------------------------------------

    def record_load(self, framework: str, name: str, *,
                    prog_id: int = 0, cache_hit: bool = False,
                    verify_ns: int = 0, jit_ns: int = 0,
                    predecode_ns: int = 0, compile_ns: int = 0,
                    insns: int = 0,
                    insns_processed: int = 0,
                    states_explored: int = 0) -> None:
        """Record one trip through a framework's loading pipeline."""
        self.prog(framework, name, prog_id).record_load(
            cache_hit=cache_hit, verify_ns=verify_ns, jit_ns=jit_ns,
            predecode_ns=predecode_ns, compile_ns=compile_ns,
            insns_processed=insns_processed,
            states_explored=states_explored)
        self._loads.labels(
            framework, "hit" if cache_hit else "miss").inc()
        self._stage_ns.labels(framework, "verify").inc(verify_ns)
        self._stage_ns.labels(framework, "jit").inc(jit_ns)
        self._stage_ns.labels(framework, "predecode").inc(predecode_ns)
        self._stage_ns.labels(framework, "compile").inc(compile_ns)
        if not cache_hit:
            self._verifier_work.labels("insns_processed").inc(
                insns_processed)
            self._verifier_work.labels("states_explored").inc(
                states_explored)
            self._verify_hist.labels().observe(insns_processed)
        self._progs_loaded.labels(framework).inc()
        self.trace.emit(TraceEvent(
            self._now(), "load", framework, name,
            {"prog_id": prog_id, "cache_hit": cache_hit,
             "insns": insns, "verify_ns": verify_ns, "jit_ns": jit_ns,
             "predecode_ns": predecode_ns, "compile_ns": compile_ns,
             "insns_processed": insns_processed,
             "states_explored": states_explored}))

    # -- failure accounting (always on) ------------------------------------------

    def record_watchdog_fire(self, framework: str, name: str,
                             budget_ns: int) -> None:
        """Count a watchdog budget exhaustion and trace the kill."""
        self.prog(framework, name).watchdog_fires += 1
        self._watchdog.labels(framework, name).inc()
        self.trace.emit(TraceEvent(
            self._now(), "watchdog_kill", framework, name,
            {"budget_ns": budget_ns}))

    def record_panic(self, framework: str, name: str,
                     reason: str) -> None:
        """Count a contained extension panic."""
        self.prog(framework, name).panics += 1
        self._panics.labels(framework, name).inc()
        self.trace.emit(TraceEvent(
            self._now(), "panic", framework, name,
            {"reason": reason}))

    def record_oops(self, ts_ns: int, category: str,
                    source: str) -> None:
        """Count a kernel oops, attributing it to the responsible
        program when the source tag resolves to one."""
        self._oops.labels(category, source).inc()
        row = self.progs.by_source_tag(source)
        if row is not None:
            row.oopses += 1
        self.trace.emit(TraceEvent(
            ts_ns, "oops", "", source, {"category": category}))

    def record_ringbuf_drop(self, map_fd: int, requested: int, *,
                            cpu: Optional[int] = None) -> None:
        """Count one refused ring/perf-buffer record."""
        key = str(map_fd)
        if cpu is None:
            self._rb_drops.labels(key).inc()
            self._rb_drop_bytes.labels(key).inc(requested)
        else:
            self._pe_drops.labels(key, cpu).inc()
        self.trace.emit(TraceEvent(
            self._now(), "ringbuf_drop", "", "",
            {"map_fd": map_fd, "requested": requested, "cpu": cpu}))

    # -- data plane (always on) ----------------------------------------------------

    def net_verdict_counter(self, nic: str, verdict: str):
        """The verdict counter for one (nic, verdict) — hot-path
        callers cache the returned instrument across a batch."""
        return self._net_verdicts.labels(nic, verdict)

    def net_latency_histogram(self, nic: str):
        """The latency histogram for one NIC — likewise cached by the
        pipeline, observed once per packet."""
        return self._net_latency.labels(nic)

    def record_net_rx_drop(self, nic: str, reason: str,
                           count: int = 1) -> None:
        """Count packets lost outside a program verdict (NIC-level
        drop, RX queue overflow, vanished redirect target)."""
        self._net_rx_drops.labels(nic, reason).inc(count)

    # -- deterministic SMP (always on) ---------------------------------------------

    def record_lock_contention(self, lock: str, cpu: int) -> None:
        """Count one contended spinlock acquisition (a CPU genuinely
        spun waiting for another CPU's holder)."""
        self._smp_contention.labels(lock, cpu).inc()

    def record_race(self, type_name: str) -> None:
        """Count one detector-confirmed data race."""
        self._smp_races.labels(type_name).inc()

    def record_smp_switches(self, count: int) -> None:
        """Fold one SMP run's cross-CPU task switches in."""
        if count:
            self._smp_switches.labels().inc(count)

    def record_recovery_event(
            self, kind: str, tag: str,
            detail: Optional[Dict[str, object]] = None) -> None:
        """Count one supervisor decision and trace it."""
        self._recovery_events.labels(kind).inc()
        payload: Dict[str, object] = {"decision": kind}
        if detail:
            payload.update(detail)
        self.trace.emit(TraceEvent(
            self._now(), "recovery", "", tag, payload))

    def record_containment(self, source: str, category: str) -> None:
        """Count one contained oops, attributed to its domain."""
        self._contained.labels(source, category).inc()
        row = self.progs.by_source_tag(source)
        if row is not None:
            row.contained += 1

    def record_pool_failure(self, cpu_id: int) -> None:
        """Count a per-CPU pool exhaustion event."""
        self._pool_failures.labels(cpu_id).inc()

    def record_fault(self, site: str, action: str,
                     detail: Optional[Dict[str, object]] = None) -> None:
        """Count one injected fault and trace its delivery."""
        self._faults.labels(site, action).inc()
        payload: Dict[str, object] = {"action": action}
        if detail:
            payload.update(detail)
        self.trace.emit(TraceEvent(
            self._now(), "fault", "", site, payload))

    # -- population ---------------------------------------------------------------

    def record_map_created(self, map_type: str, map_fd: int) -> None:
        """Track a map creation (gauge + trace)."""
        self._maps_live.labels(map_type).inc()
        self.trace.emit(TraceEvent(
            self._now(), "map_op", "", "",
            {"op": "create", "type": map_type, "map_fd": map_fd}))

    def record_map_destroyed(self, map_type: str, map_fd: int) -> None:
        """Track a map teardown (gauge + trace)."""
        self._maps_live.labels(map_type).dec()
        self.trace.emit(TraceEvent(
            self._now(), "map_op", "", "",
            {"op": "destroy", "type": map_type, "map_fd": map_fd}))

    # -- snapshot -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of everything the hub holds."""
        families: List[Dict[str, object]] = []
        for family in self.registry.families():
            samples = []
            for label_values, inst in family.samples():
                labels = dict(zip(family.label_names, label_values))
                if family.kind == "histogram":
                    samples.append({
                        "labels": labels, "count": inst.count,
                        "sum": inst.total,
                        "p50": inst.quantile(0.5),
                        "p99": inst.quantile(0.99),
                        "p999": inst.quantile(0.999),
                        "buckets": [[bound, cum] for bound, cum
                                    in inst.cumulative()]})
                else:
                    samples.append({"labels": labels,
                                    "value": inst.value})
            families.append({"name": family.name, "kind": family.kind,
                             "help": family.help_text,
                             "samples": samples})
        return {
            "stats_enabled": self.stats_enabled,
            "metrics": families,
            "progs": [row.as_dict() for row in self.progs.rows()],
            "trace": {"capacity": self.trace.capacity,
                      "held": len(self.trace),
                      "emitted": self.trace.emitted,
                      "dropped": self.trace.dropped},
        }
