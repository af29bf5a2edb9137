"""Chaos replay: the attack corpus under injected faults.

Every attack case already exercises one containment mechanism; this
harness replays the *whole corpus* while the fault plane degrades the
kernel under it — helpers failing, allocators refusing, timers
slipping, loaders rejecting — and checks that containment still
composes.  Three things must hold for every (case × schedule) pair:

1. **Sandbox boundary**: nothing but :class:`~repro.errors.ReproError`
   subclasses (simulated kernel events) crosses out of the run.  A
   raw ``KeyError`` escaping means the *simulation* broke, not the
   simulated kernel.
2. **Balance**: after the run, the kernel passes every invariant in
   :mod:`repro.faultinject.invariants` — RCU nesting, preemption,
   program stacks, pool bump pointers, ringbuf reservations,
   per-extension refcounts, watchdog hooks.
3. **Official panic path**: kernel taint and the oops log agree; a
   kernel never dies without a record, or records a death it didn't
   have.

Determinism is part of the contract: the whole replay is a pure
function of the seed, which ``--check-determinism`` (used by
``make chaos``) proves by running everything twice and comparing
fault-trace signatures.

``--recover`` (used by ``make recover``) raises the bar from "detect
the oops" to "survive it": every case runs with the recovery
supervisor enabled, and afterwards the kernel must still be *alive* —
``check_alive()`` passes, every oops contained, zero leaked locks /
pool bytes / RCU imbalance — and per schedule a demonstration drives
one victim program through the full arc: faults → quarantine
(auto-detach) → breaker half-open → auto-reload from the load cache →
recovered.  The supervisor's audit trail is folded into the replay
signature, so the determinism check also proves quarantine decisions
and backoff timings are a pure function of the seed.

The corpus cases, the per-schedule data-plane case and the recovery
demonstration share one kernel set-up, one load-retry helper and one
check epilogue (``_Replay``), so the data-plane case gets the same
liveness checks under ``--recover`` as every corpus case.  Results,
the report and the run-twice CLI come from
:mod:`repro.faultinject.replay`.

Run it: ``PYTHONPATH=src python -m repro.faultinject.chaos``.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.corpus import build_corpus, run_case
from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids
from repro.errors import ReproError, VerifierError
from repro.faultinject.invariants import (
    collect_violations,
    panic_path_consistent,
    recovery_consistent,
)
from repro.faultinject.plane import (
    EINVAL,
    ENOENT,
    ENOMEM,
    ENOSPC,
    ETIMEDOUT,
    FaultAction,
    FaultPlane,
    NthHit,
    Probability,
)
from repro.faultinject.replay import (
    DEFAULT_SEED,
    ReplayReport,
    ReplayResult,
    case_seed,
    replay_parser,
    run_and_report,
)
from repro.kernel.kernel import Kernel
from repro.recovery import HealthState


def _arm_helper_errno(plane: FaultPlane) -> None:
    """Hostile kernel services: helpers and map ops fail randomly."""
    plane.arm("helper.*", Probability(0.2), FaultAction.err(EINVAL))
    plane.arm("map.update", Probability(0.3), FaultAction.err(ENOMEM))
    plane.arm("map.delete", Probability(0.3), FaultAction.err(EINVAL))


def _arm_alloc_pressure(plane: FaultPlane) -> None:
    """Memory pressure: every allocator path is unreliable."""
    plane.arm("pool.alloc", Probability(0.5), FaultAction.err(ENOMEM))
    plane.arm("map.alloc", Probability(0.5), FaultAction.err(ENOSPC))
    plane.arm("map.lookup", Probability(0.1), FaultAction.err(ENOMEM))


def _arm_timer_chaos(plane: FaultPlane) -> None:
    """Sloppy time: watchdog delivery slips, grace periods stretch,
    helpers stall on the virtual clock."""
    plane.arm("watchdog.fire", NthHit(2, every=True),
              FaultAction.delay(200_000))
    plane.arm("rcu.synchronize", Probability(0.5),
              FaultAction.delay(1_000_000))
    plane.arm("helper.*", Probability(0.05),
              FaultAction.delay(10_000))


def _arm_load_chaos(plane: FaultPlane) -> None:
    """Control plane under attack: loads fail, one helper panics."""
    plane.arm("load.verify", Probability(0.5), FaultAction.err(EINVAL))
    plane.arm("load.signature", Probability(0.5),
              FaultAction.err(EINVAL))
    plane.arm("helper.*", NthHit(5), FaultAction.panic())


def _arm_rx_pressure(plane: FaultPlane) -> None:
    """A hostile wire: NIC ingress drops, RX rings refuse admission,
    redirect targets flap, and delivery-ring allocation starves —
    every named failpoint of the data plane's RX path."""
    plane.arm("net.nic.rx", Probability(0.05), FaultAction.err(ENOMEM))
    plane.arm("net.queue.enqueue", Probability(0.1),
              FaultAction.err(ENOSPC))
    plane.arm("net.redirect", Probability(0.2),
              FaultAction.err(ENOENT))
    plane.arm("map.alloc", Probability(0.2), FaultAction.err(ENOSPC))


#: the canned schedules ``make chaos`` replays (name -> armer)
SCHEDULES: Dict[str, Callable[[FaultPlane], None]] = {
    "helper-errno": _arm_helper_errno,
    "alloc-pressure": _arm_alloc_pressure,
    "timer-chaos": _arm_timer_chaos,
    "load-chaos": _arm_load_chaos,
    "rx-pressure": _arm_rx_pressure,
}


# -- control-plane schedules (the fleet's unreliable RPC channel) -----------

def _arm_rpc_drops(plane: FaultPlane) -> None:
    """A lossy wire: requests and replies vanish.  A dropped reply is
    the sharp case — the node applied the request, so only the reply
    cache keeps the retry from double-applying."""
    plane.arm("fleet.rpc.send.*", Probability(0.15),
              FaultAction.err(ETIMEDOUT))
    plane.arm("fleet.rpc.reply.*", Probability(0.10),
              FaultAction.err(ETIMEDOUT))


def _arm_rpc_dups(plane: FaultPlane) -> None:
    """A stuttering wire: requests arrive twice, some replies are
    lost anyway — idempotency under duplication *and* retry."""
    plane.arm("fleet.rpc.send.*", Probability(0.20), FaultAction.dup())
    plane.arm("fleet.rpc.reply.*", Probability(0.10),
              FaultAction.err(ETIMEDOUT))


def _arm_slow_wire(plane: FaultPlane) -> None:
    """A congested wire: some hops are slow, some so slow the client
    gives up while the request still lands (timed-out-but-applied —
    the request id dedup is what makes the retry safe)."""
    plane.arm("fleet.rpc.send.*", Probability(0.10),
              FaultAction.delay(1_500_000))
    plane.arm("fleet.rpc.send.*", Probability(0.15),
              FaultAction.delay(100_000))
    plane.arm("fleet.rpc.reply.*", Probability(0.05),
              FaultAction.err(ETIMEDOUT))


def _arm_partitions(plane: FaultPlane) -> None:
    """Flapping partitions: links cut both ways for a while, then
    heal when the schedule stops firing."""
    plane.arm("fleet.partition.*", Probability(0.12),
              FaultAction.err(ETIMEDOUT))


def _arm_node_crashes(plane: FaultPlane) -> None:
    """Crashing node agents: the in-flight request dies with the
    agent and the node stays down for the reboot window."""
    plane.arm("fleet.node.crash.*", Probability(0.06),
              FaultAction.panic())
    plane.arm("fleet.rpc.reply.*", Probability(0.05),
              FaultAction.err(ETIMEDOUT))


def _arm_fleet_pressure(plane: FaultPlane) -> None:
    """Everything at once: drops, dups, delays past the deadline,
    partitions and agent crashes on the same rollout."""
    plane.arm("fleet.partition.*", Probability(0.05),
              FaultAction.err(ETIMEDOUT))
    plane.arm("fleet.node.crash.*", Probability(0.03),
              FaultAction.panic())
    plane.arm("fleet.rpc.send.*", Probability(0.08),
              FaultAction.err(ETIMEDOUT))
    plane.arm("fleet.rpc.send.*", Probability(0.08), FaultAction.dup())
    plane.arm("fleet.rpc.send.*", Probability(0.05),
              FaultAction.delay(1_500_000))
    plane.arm("fleet.rpc.reply.*", Probability(0.08),
              FaultAction.err(ETIMEDOUT))


#: the canned control-plane schedules ``make fleet-chaos`` replays
#: (name -> armer for the *transport's* fault plane — node kernels
#: keep their own planes and their own chaos)
FLEET_SCHEDULES: Dict[str, Callable[[FaultPlane], None]] = {
    "rpc-drops": _arm_rpc_drops,
    "rpc-dups": _arm_rpc_dups,
    "slow-wire": _arm_slow_wire,
    "partitions": _arm_partitions,
    "node-crashes": _arm_node_crashes,
    "fleet-pressure": _arm_fleet_pressure,
}


class _Replay:
    """One replay on a fresh kernel with one canned schedule armed,
    and the checks every case ends with.  With ``recover`` the kernel
    runs supervised and must end the replay *alive*, not merely
    balanced."""

    def __init__(self, case_id: str, schedule: str, seed: int,
                 recover: bool, trigger: Optional[str] = None) -> None:
        self.key = (case_id, schedule)
        self.kernel = Kernel()
        self.supervisor = (self.kernel.enable_recovery() if recover
                           else None)
        self.plane = self.kernel.faults
        self.plane.enable(case_seed(seed, case_id, schedule))
        if trigger is not None:
            # armed BEFORE the schedule so it wins the site walk;
            # panic() at a helper boundary is the [54]-style oops the
            # containment path exists for
            self.plane.arm(trigger, Probability(1.0), FaultAction.panic())
        SCHEDULES[schedule](self.plane)
        self.violations: List[str] = []
        #: signature parts folded in after the fault trace, read once
        #: the replay and its checks are done
        self.signed: List[Callable[[], str]] = []

    def load(self, bpf: BpfSubsystem, build: Callable[[], list],
             prog_type: ProgType, name: str) -> Optional[object]:
        """Load ``build()``, retrying up to 32 times: load-chaos may
        refuse even retried loads.  None (and a violation) when every
        attempt was refused."""
        for _ in range(32):
            try:
                return bpf.load_program(build(), prog_type, name=name)
            except VerifierError:
                continue
        self.violations.append(f"could not load {name}")
        return None

    def run(self, body: Callable[[], str]) -> ReplayResult:
        """Run ``body`` (which returns the outcome) inside the sandbox
        boundary, then check the kernel it left behind."""
        kernel = self.kernel
        try:
            outcome = body()
        except ReproError as exc:
            # a simulated kernel event crossing the boundary is legal;
            # the invariants below decide whether it was handled cleanly
            outcome = f"raised:{type(exc).__name__}"
        except Exception as exc:  # noqa: BLE001 — the point of the harness
            outcome = f"escaped:{type(exc).__name__}"
            self.violations.append(
                "non-kernel exception escaped the sandbox boundary: "
                f"{type(exc).__name__}: {exc}")
        self.violations.extend(collect_violations(kernel))
        if not panic_path_consistent(kernel):
            self.violations.append(
                "taint/oops mismatch: kernel died outside the official "
                f"panic path (tainted={kernel.log.tainted}, "
                f"oopses={len(kernel.log.oopses)})")
        if self.supervisor is not None:
            try:
                kernel.check_alive()
            except ReproError as exc:
                self.violations.append(
                    f"kernel not alive after supervised replay: {exc}")
            self.violations.extend(recovery_consistent(kernel))
        signature = ":".join([self.plane.trace_signature(),
                              *(part() for part in self.signed)])
        return ReplayResult(
            key=self.key, outcome=outcome, signature=signature,
            counts={"faults": len(self.plane.records)},
            violations=self.violations)


def run_case_under_schedule(case: object, schedule: str, seed: int,
                            recover: bool = False) -> ReplayResult:
    """Replay one attack case with one canned fault schedule armed;
    with ``recover`` the supervisor's audit trail is signed too."""
    replay = _Replay(case.case_id, schedule, seed, recover)
    if recover:
        replay.signed.append(replay.supervisor.audit_signature)
    return replay.run(lambda: run_case(case, kernel=replay.kernel).value)


def _victim_prog() -> List[object]:
    """call ktime_get_ns(); r0 = 0; exit — the return value is pinned
    to 0 so injected helper errnos never leak into the exit code and a
    half-open trial run always succeeds once the trigger is disarmed."""
    return (Asm()
            .call(ids.BPF_FUNC_ktime_get_ns)
            .mov64_imm(0, 0)
            .exit_()
            .program())


#: the demo's private always-fire trigger site
_TRIGGER = "helper.bpf_ktime_get_ns"


def demonstrate_recovery(schedule: str, seed: int) -> ReplayResult:
    """Drive one victim program through the full recovery arc under a
    canned schedule: repeated oopses → containment → quarantine
    (auto-detached from its hook) → refusal while the breaker is open
    → half-open auto-reload from the load cache → trial run →
    recovered.  Everything is checked; failures surface as violations
    exactly like corpus replays."""
    replay = _Replay("recovery-demo", schedule, seed, recover=True,
                     trigger=_TRIGGER)
    replay.signed.append(replay.supervisor.audit_signature)
    return replay.run(lambda: _recovery_arc(replay))


def _recovery_arc(replay: _Replay) -> str:
    """The body of :func:`demonstrate_recovery`; returns its outcome."""
    kernel, violations = replay.kernel, replay.violations
    bpf = BpfSubsystem(kernel)
    prog = replay.load(bpf, _victim_prog, ProgType.KPROBE, "victim")
    if prog is None:
        return "load-refused"
    tag = f"bpf:{prog.name}"
    bpf.attach_trace(prog)  # so quarantine has a hook to detach
    health = replay.supervisor.health(tag)
    for _ in range(16):
        bpf.run_on_current_task(prog)
        if health.state is HealthState.QUARANTINED:
            break
    if health.state is not HealthState.QUARANTINED:
        violations.append(
            "victim was never quarantined despite a 100% oops rate")
    if any(att.name == tag for att in kernel.hooks.chain("trace")):
        violations.append(
            "victim still attached to the trace hook after quarantine")
    refused = bpf.run_on_current_task(prog)
    if refused != ((-11) & ((1 << 64) - 1)):  # -EAGAIN as a u64
        violations.append(
            f"open breaker did not refuse the run (got {refused:#x})")
    # cure the victim; the breaker must now walk back on its own
    replay.plane.disarm(_TRIGGER)
    for _ in range(64):
        release = health.release_at_ns
        if release is not None \
                and kernel.clock.now_ns < release:
            kernel.clock.advance(release - kernel.clock.now_ns + 1)
        bpf.run_on_current_task(prog)
        if health.state is HealthState.HEALTHY:
            break
    else:
        violations.append("victim never recovered after quarantine")
    if health.reloads < 1:
        violations.append("breaker half-opened without auto-reload")
    return ("recovered" if health.state is HealthState.HEALTHY
            else "stuck")


def run_dataplane_case(schedule: str, seed: int,
                       recover: bool = False) -> ReplayResult:
    """Drive seeded adversarial traffic through the batched XDP
    pipeline while a canned schedule degrades the kernel under it.

    On top of the usual isolation invariants, the replay checks the
    data plane's own books: every PASS verdict must be accounted for
    as either a delivered ring record or a counted -ENOSPC drop
    (exactness under batched multi-producer pressure), and the
    pipeline's summary/histogram signature is folded into the trace
    signature so ``--check-determinism`` also proves the data plane
    is a pure function of the seed.  The supervisor's audit trail is
    not signed here, even under ``recover``."""
    # imported here: faultinject must stay importable without the
    # net subsystem (and net imports ebpf, which imports this plane)
    from repro.net import DataPlane, LoadGen
    from repro.net import programs as xdp_programs

    replay = _Replay("dataplane", schedule, seed, recover)
    kernel = replay.kernel
    bpf = BpfSubsystem(kernel, engine="compiled")
    data_plane = DataPlane(kernel, bpf, ringbuf_bytes=4096)
    replay.signed.append(data_plane.signature)

    def drive() -> str:
        nic = data_plane.create_nic(1, "chaos0", queue_depth=64)
        sink = data_plane.create_nic(2, "chaos-sink")
        devmap = bpf.create_map("devmap", max_entries=4)
        for slot in (0, 2):
            try:
                devmap.set_target(slot, sink.ifindex)
            except ReproError:
                pass        # injected update failure: slot stays gone
        prog = replay.load(
            bpf, lambda: xdp_programs.redirect_by_source_prog(
                devmap.map_fd),
            ProgType.XDP, "chaos_redirect")
        if prog is None:
            return "load-refused"
        data_plane.attach(prog, nic)
        generator = LoadGen(
            kernel, "adversarial",
            seed=case_seed(seed, "dataplane-traffic", schedule))
        generator.drive(nic, 2000, plane=data_plane, poll_every=32)
        delivered = len(data_plane.drain())
        passed = data_plane.verdicts["pass"]
        if passed != delivered + data_plane.delivery_drops:
            replay.violations.append(
                f"ringbuf accounting off: {passed} PASS verdicts != "
                f"{delivered} delivered + "
                f"{data_plane.delivery_drops} counted drops")
        return "completed"

    return replay.run(drive)


def run_chaos(seed: int = DEFAULT_SEED,
              schedules: Optional[Sequence[str]] = None,
              case_ids: Optional[Sequence[str]] = None,
              recover: bool = False) -> ReplayReport:
    """Replay the full corpus under every requested schedule."""
    names = list(schedules or SCHEDULES)
    for name in names:
        if name not in SCHEDULES:
            raise ValueError(f"unknown chaos schedule {name!r} "
                             f"(have: {', '.join(SCHEDULES)})")
    cases = build_corpus()
    if case_ids:
        wanted = set(case_ids)
        cases = [c for c in cases if c.case_id in wanted]
    results = []
    for name in names:
        results.extend(run_case_under_schedule(case, name, seed,
                                               recover=recover)
                       for case in cases)
        results.append(run_dataplane_case(name, seed,
                                          recover=recover))
        if recover:
            results.append(demonstrate_recovery(name, seed))
    return ReplayReport(seed=seed, results=results)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``make chaos``); returns the exit status."""
    parser = replay_parser(
        "python -m repro.faultinject.chaos",
        "Replay the attack corpus under fault schedules and check "
        "isolation invariants.", SCHEDULES)
    parser.add_argument("--case", action="append", default=None,
                        help="restrict to one case id (repeatable)")
    parser.add_argument("--recover", action="store_true",
                        help="run supervised: kernels must stay alive "
                             "(contained oopses, no taint) and each "
                             "schedule must demonstrate quarantine + "
                             "auto-reload")
    args = parser.parse_args(argv)
    return run_and_report(
        "chaos",
        lambda: run_chaos(args.seed, args.schedule, args.case,
                          recover=args.recover),
        lambda report: (f"{len(report.results)} replays, "
                        f"{report.total('faults')} faults injected, "
                        f"{len(report.violations)} violations "
                        f"(seed {report.seed})"),
        lambda r: (f"{r.key[1]:>14} {r.key[0]:<24} "
                   f"faults={r.counts['faults']:<3} {r.outcome}"),
        args.verbose, args.check_determinism)


if __name__ == "__main__":
    sys.exit(main())
