"""A bpftool-style CLI for the simulated kernel.

Usage (each invocation boots a fresh simulated kernel):

    python -m repro.tools.bpftool prog verify prog.s --type xdp --log
    python -m repro.tools.bpftool prog run prog.s --payload 'hello' \
        --map array:4:8:16
    python -m repro.tools.bpftool prog dump prog.s
    python -m repro.tools.bpftool prog stats prog.s --repeat 10
    python -m repro.tools.bpftool stats dump prog.s --format prometheus
    python -m repro.tools.bpftool trace log prog.s --repeat 3
    python -m repro.tools.bpftool helper list --class retire
    python -m repro.tools.bpftool bugs list
    python -m repro.tools.bpftool net profiles
    python -m repro.tools.bpftool net run prog.s --profile bursty \
        --count 10000 --seed 7 --engine compiled --map array:4:8:4
    python -m repro.tools.bpftool fault list
    python -m repro.tools.bpftool fault enable prog.s \
        --arm 'helper.*=prob:0.5=errno:EINVAL' --seed 7 --repeat 10
    python -m repro.tools.bpftool fault status prog.s \
        --arm 'map.update=nth:2=errno:ENOMEM' --repeat 5
    python -m repro.tools.bpftool race list
    python -m repro.tools.bpftool race run unlocked_counter \
        --budget 32 --seed 0
    python -m repro.tools.bpftool race status rcu_use_after_grace \
        --seed 5
    python -m repro.tools.bpftool fleet status --nodes 50 --seed 0
    python -m repro.tools.bpftool fleet rollout --release good \
        --nodes 200 --seed 7
    python -m repro.tools.bpftool fleet rollback --nodes 200 --seed 7
    python -m repro.tools.bpftool fleet halt --after-wave 2 \
        --nodes 100 --seed 3

The stats/trace commands model ``sysctl kernel.bpf_stats_enabled=1``
followed by ``bpftool prog show``: the fresh kernel boots with run
stats collection on, the program is loaded and run ``--repeat`` times,
and the telemetry subsystem's view is printed.

Programs are text-format assembly (see :mod:`repro.ebpf.asm_text`);
``map_fd[N]`` references resolve against ``--map`` definitions, which
are created in order with fds starting at 3.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.bugs import full_bug_table
from repro.ebpf.asm_text import assemble_text
from repro.ebpf.bugs import BugConfig
from repro.ebpf.disasm import disasm
from repro.ebpf.engine import ENGINE_NAMES
from repro.ebpf.helpers.registry import build_default_registry
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import (
    BpfRuntimeError,
    KernelOops,
    KernelSafetyViolation,
    VerifierError,
)
from repro.fleet.adapters.cli import (
    cmd_fleet_halt,
    cmd_fleet_resume,
    cmd_fleet_rollback,
    cmd_fleet_rollout,
    cmd_fleet_status,
)
from repro.faultinject.chaos import FLEET_SCHEDULES
from repro.faultinject.plane import (
    KNOWN_SITES,
    parse_action,
    parse_schedule,
)
from repro.kernel import Kernel
from repro.telemetry import to_json, to_prometheus


def _make_subsystem(args) -> BpfSubsystem:
    kernel = Kernel()
    bugs = BugConfig.all_patched() if getattr(args, "patched", False) \
        else BugConfig()
    return BpfSubsystem(kernel, bugs=bugs,
                        engine=getattr(args, "engine", None))


def _create_maps(bpf: BpfSubsystem, specs: List[str]) -> None:
    for spec in specs or ():
        parts = spec.split(":")
        map_type = parts[0]
        key_size = int(parts[1]) if len(parts) > 1 else 4
        value_size = int(parts[2]) if len(parts) > 2 else 8
        max_entries = int(parts[3]) if len(parts) > 3 else 16
        created = bpf.create_map(map_type, key_size=key_size,
                                 value_size=value_size,
                                 max_entries=max_entries)
        print(f"created {map_type} map fd={created.map_fd} "
              f"key={key_size} value={value_size} "
              f"entries={max_entries}")


def _read_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return assemble_text(handle.read())


def cmd_prog_verify(args) -> int:
    """``prog verify``: run the in-kernel verifier on a file."""
    bpf = _make_subsystem(args)
    _create_maps(bpf, args.map)
    program = _read_program(args.file)
    prog_type = ProgType(args.type)
    try:
        prog = bpf.load_program(program, prog_type, args.file,
                                log_level=2 if args.log else 1)
    except VerifierError as error:
        print("VERIFICATION FAILED")
        print(f"  {error}")
        if args.log and error.log:
            print("--- verifier log ---")
            print(error.log)
        return 1
    stats = prog.verifier_stats
    print(f"verification OK: {len(program)} insns, "
          f"{stats.insns_processed} steps, "
          f"{stats.states_explored} states stored, "
          f"{stats.prune_hits} prunes, "
          f"{stats.wall_time_s * 1e3:.2f} ms")
    if args.log:
        print("--- verifier log ---")
        print("\n".join(stats.log))
    return 0


def cmd_prog_run(args) -> int:
    """``prog run``: verify then execute."""
    bpf = _make_subsystem(args)
    _create_maps(bpf, args.map)
    program = _read_program(args.file)
    prog_type = ProgType(args.type)
    try:
        prog = bpf.load_program(program, prog_type, args.file)
    except VerifierError as error:
        print(f"VERIFICATION FAILED: {error}")
        return 1
    payload = args.payload.encode("latin-1")
    try:
        if prog_type in (ProgType.XDP, ProgType.SOCKET_FILTER,
                         ProgType.CGROUP_SKB):
            result = bpf.run_on_packet(prog, payload)
        else:
            result = bpf.run_on_current_task(prog)
    except KernelSafetyViolation as violation:
        print(f"KERNEL COMPROMISED: {violation.category}: {violation}")
        print("--- dmesg tail ---")
        for line in bpf.kernel.log.dmesg().splitlines()[-4:]:
            print(f"  {line}")
        return 2
    print(f"return value: {result} ({result:#x})")
    print(f"kernel healthy: {bpf.kernel.healthy}")
    if args.dmesg:
        print("--- dmesg ---")
        print(bpf.kernel.log.dmesg())
    return 0


def cmd_prog_dump(args) -> int:
    """``prog dump``: assemble and pretty-print."""
    program = _read_program(args.file)
    print(disasm(program))
    return 0


def _load_and_run_with_stats(args) -> Optional[BpfSubsystem]:
    """Boot a kernel with run stats on, load ``args.file``, run it
    ``args.repeat`` times.  Returns the subsystem (its telemetry holds
    the data), or None when verification fails."""
    bpf = _make_subsystem(args)
    bpf.kernel.telemetry.enable()
    _create_maps(bpf, args.map)
    program = _read_program(args.file)
    prog_type = ProgType(args.type)
    try:
        prog = bpf.load_program(program, prog_type, args.file)
    except VerifierError as error:
        print(f"VERIFICATION FAILED: {error}")
        return None
    payload = args.payload.encode("latin-1")
    for _ in range(max(args.repeat, 0)):
        try:
            if prog_type in (ProgType.XDP, ProgType.SOCKET_FILTER,
                             ProgType.CGROUP_SKB):
                bpf.run_on_packet(prog, payload)
            else:
                bpf.run_on_current_task(prog)
        except KernelSafetyViolation as violation:
            # the compromise itself is telemetry (oops counters); stop
            # repeating but still report what was collected
            print(f"KERNEL COMPROMISED: {violation.category}: "
                  f"{violation}", file=sys.stderr)
            break
    return bpf


def cmd_prog_stats(args) -> int:
    """``prog stats``: per-program run/load statistics.

    Models ``bpftool prog show`` output after
    ``sysctl kernel.bpf_stats_enabled=1``: run_cnt, run_time_ns, and
    the derived average come straight from the telemetry table.
    """
    bpf = _load_and_run_with_stats(args)
    if bpf is None:
        return 1
    rows = bpf.kernel.telemetry.progs.rows()
    print(f"{'prog':24s} {'framework':9s} {'run_cnt':>8} "
          f"{'run_time_ns':>12} {'avg_ns':>8} {'insns':>8} "
          f"{'helpers':>8} {'wd':>3} {'oops':>4}")
    for row in rows:
        print(f"{row.name:24s} {row.framework:9s} {row.run_cnt:8d} "
              f"{row.run_time_ns:12d} {row.avg_run_time_ns:8.0f} "
              f"{row.insns:8d} {row.helper_calls:8d} "
              f"{row.watchdog_fires:3d} {row.oopses:4d}")
    print(f"({len(rows)} programs, stats_enabled="
          f"{int(bpf.kernel.telemetry.stats_enabled)})")
    print(f"engine={bpf.vm.engine} compile_cache: "
          f"hits={bpf.compile_cache_hits} "
          f"misses={bpf.compile_cache_misses}")
    return 0


def cmd_prog_engine(args) -> int:
    """``prog engine``: show or pin a program's execution tier.

    Loads the program (under ``--engine`` if given), optionally pins
    it to ``--set TIER``, runs it ``--repeat`` times, and prints the
    effective tier plus compiled-artifact and compile-cache state —
    the tier is operable, not just benchable.
    """
    bpf = _make_subsystem(args)
    _create_maps(bpf, args.map)
    program = _read_program(args.file)
    prog_type = ProgType(args.type)
    try:
        prog = bpf.load_program(program, prog_type, args.file)
    except VerifierError as error:
        print(f"VERIFICATION FAILED: {error}")
        return 1
    if args.set:
        try:
            bpf.set_engine(prog, args.set)
        except BpfRuntimeError as error:
            print(f"bad engine: {error}", file=sys.stderr)
            return 2
    payload = args.payload.encode("latin-1")
    for _ in range(max(args.repeat, 0)):
        try:
            if prog_type in (ProgType.XDP, ProgType.SOCKET_FILTER,
                             ProgType.CGROUP_SKB):
                bpf.run_on_packet(prog, payload)
            else:
                bpf.run_on_current_task(prog)
        except KernelSafetyViolation as violation:
            print(f"KERNEL COMPROMISED: {violation.category}: "
                  f"{violation}", file=sys.stderr)
            break
    pinned = prog.engine is not None
    effective = prog.engine or bpf.vm.engine
    print(f"prog {prog.prog_id} ({prog.name}): engine={effective}"
          f"{' (pinned)' if pinned else ' (vm default)'}")
    if prog.compiled is not None:
        print(f"  compiled: {prog.compiled.n_blocks} blocks, "
              f"{len(prog.compiled.entry_blocks)} entry points, "
              f"{prog.compiled.n_insns} insns")
    print(f"  compile cache: hits={bpf.compile_cache_hits} "
          f"misses={bpf.compile_cache_misses} "
          f"lazy_compiles={bpf.vm.compiles}")
    print(f"  vm default={bpf.vm.engine} "
          f"insns_executed={bpf.vm.insns_executed}")
    return 0


def cmd_stats_dump(args) -> int:
    """``stats dump``: full telemetry snapshot as JSON or Prometheus
    text exposition format."""
    bpf = _load_and_run_with_stats(args)
    if bpf is None:
        return 1
    if args.format == "prometheus":
        print(to_prometheus(bpf.kernel.telemetry), end="")
    else:
        print(to_json(bpf.kernel.telemetry))
    return 0


def cmd_trace_log(args) -> int:
    """``trace log``: print the trace ring as JSONL."""
    bpf = _load_and_run_with_stats(args)
    if bpf is None:
        return 1
    try:
        events = bpf.kernel.telemetry.trace.events(
            kind=args.kind or None, limit=args.limit)
    except ValueError as error:
        print(f"bad --limit: {error}", file=sys.stderr)
        return 1
    for event in events:
        print(event.to_json())
    ring = bpf.kernel.telemetry.trace
    print(f"# {len(events)} events shown, {ring.emitted} emitted, "
          f"{ring.dropped} dropped", file=sys.stderr)
    return 0


def cmd_helper_list(args) -> int:
    """``helper list``: print the registry."""
    registry = build_default_registry()
    rows = registry.all_specs()
    if args.klass:
        rows = [s for s in rows if s.classification == args.klass]
    if args.implemented:
        rows = [s for s in rows if s.is_implemented]
    print(f"{'id':>5}  {'name':40s} {'since':7s} {'cg-size':>8} "
          f"{'class':9s} impl")
    for spec in rows:
        print(f"{spec.helper_id:5d}  {spec.name:40s} "
              f"{spec.introduced:7s} {spec.callgraph_size:8d} "
              f"{spec.classification:9s} "
              f"{'yes' if spec.is_implemented else 'no'}")
    print(f"({len(rows)} helpers)")
    return 0


def cmd_bugs_list(args) -> int:
    """``bugs list``: print the Table 1 population."""
    print(f"{'category':28s} {'component':9s} {'year':4s} "
          f"{'flag':30s} title")
    for bug in full_bug_table():
        flag = bug.repro_flag or "-"
        print(f"{bug.category:28s} {bug.component:9s} {bug.year} "
              f"{flag:30s} {bug.title[:60]}")
    return 0


def cmd_fault_list(args) -> int:
    """``fault list``: print the failpoint site registry."""
    print(f"{'site':16s} semantics")
    for site, what in KNOWN_SITES.items():
        print(f"{site:16s} {what}")
    print(f"({len(KNOWN_SITES)} sites; schedules: prob:P nth:N "
          "every:N oneshot script:1,0,1; actions: errno:NAME|NUM "
          "panic delay:NS)")
    return 0


def _arm_plane_from_args(plane, specs: List[str]) -> int:
    """Arm ``SITE=SCHEDULE=ACTION`` rules from ``--arm`` options;
    returns 0, or 2 on a malformed spec."""
    for spec in specs or ():
        parts = spec.split("=")
        if len(parts) != 3:
            print(f"bad --arm {spec!r} "
                  "(want SITE=SCHEDULE=ACTION)", file=sys.stderr)
            return 2
        try:
            plane.arm(parts[0], parse_schedule(parts[1]),
                      parse_action(parts[2]))
        except ValueError as error:
            print(f"bad --arm {spec!r}: {error}", file=sys.stderr)
            return 2
    return 0


def _run_under_faults(args):
    """Load and run ``args.file`` with the fault plane enabled.

    Returns ``(subsystem, exit_status)``; the subsystem is None when
    loading failed outright."""
    bpf = _make_subsystem(args)
    plane = bpf.kernel.faults
    plane.enable(args.seed)
    status = _arm_plane_from_args(plane, args.arm)
    if status:
        return None, status
    _create_maps(bpf, args.map)
    program = _read_program(args.file)
    prog_type = ProgType(args.type)
    try:
        prog = bpf.load_program(program, prog_type, args.file)
    except VerifierError as error:
        # an armed load.verify errno lands here, like a real -EINVAL
        print(f"VERIFICATION FAILED: {error}")
        return bpf, 1
    except KernelOops as oops:
        print(f"KERNEL OOPS DURING LOAD: {oops}")
        return bpf, 2
    status = 0
    payload = args.payload.encode("latin-1")
    for _ in range(max(args.repeat, 0)):
        try:
            if prog_type in (ProgType.XDP, ProgType.SOCKET_FILTER,
                             ProgType.CGROUP_SKB):
                bpf.run_on_packet(prog, payload)
            else:
                bpf.run_on_current_task(prog)
        except (KernelSafetyViolation, KernelOops) as violation:
            # injected panics die through the official panic path;
            # report it and stop repeating, the trace is the point
            print(f"KERNEL COMPROMISED: {violation}")
            status = 2
            break
    return bpf, status


def cmd_fault_enable(args) -> int:
    """``fault enable``: run a program with failpoints armed and
    print every fault the plane delivered."""
    bpf, status = _run_under_faults(args)
    if bpf is None:
        return status
    plane = bpf.kernel.faults
    for record in plane.records:
        print(f"  #{record.seq:<3} {record.site:24s} "
              f"{record.kind}"
              f"{':' + str(record.errno) if record.errno else ''}"
              f"{':' + str(record.delay_ns) if record.delay_ns else ''}"
              f" hit={record.hit} t={record.now_ns}ns")
    print(f"{len(plane.records)} faults injected "
          f"(seed {args.seed}, trace "
          f"{plane.trace_signature()[:16]}…)")
    return status


def _print_health(supervisor) -> None:
    """Render the supervisor's per-program health table."""
    print(f"{'tag':28s} {'state':12s} {'window':>6} {'total':>6} "
          f"{'retry':>6} {'refuse':>7} {'quar':>5} {'reload':>7} "
          f"{'contain':>8}")
    for row in supervisor.statuses():
        print(f"{row['tag']:28s} {row['state']:12s} "
              f"{row['faults_in_window']:6d} {row['faults_total']:6d} "
              f"{row['retries']:6d} {row['refusals']:7d} "
              f"{row['quarantines']:5d} {row['reloads']:7d} "
              f"{row['contained']:8d}")
    print(f"({len(supervisor.statuses())} supervised programs)")


def _alive_line(kernel) -> str:
    """One-line liveness verdict for a supervised kernel."""
    try:
        kernel.check_alive()
    except KernelSafetyViolation as dead:
        return f"kernel alive: NO ({dead})"
    contained = kernel.log.contained_count
    return (f"kernel alive: yes ({contained} oopses contained, "
            f"taint clear)")


def _run_supervised(args):
    """Boot a supervised kernel, load ``args.file``, run it
    ``args.repeat`` times with any ``--arm`` failpoints active.

    Returns ``(subsystem, supervisor, prog, exit_status)``; the
    subsystem is None when setup failed."""
    bpf = _make_subsystem(args)
    supervisor = bpf.kernel.enable_recovery()
    plane = bpf.kernel.faults
    plane.enable(args.seed)
    status = _arm_plane_from_args(plane, args.arm)
    if status:
        return None, None, None, status
    _create_maps(bpf, args.map)
    program = _read_program(args.file)
    prog_type = ProgType(args.type)
    try:
        prog = bpf.load_program(program, prog_type, args.file)
    except VerifierError as error:
        print(f"VERIFICATION FAILED: {error}")
        return None, None, None, 1
    payload = args.payload.encode("latin-1")
    status = 0
    for _ in range(max(args.repeat, 0)):
        try:
            if prog_type in (ProgType.XDP, ProgType.SOCKET_FILTER,
                             ProgType.CGROUP_SKB):
                bpf.run_on_packet(prog, payload)
            else:
                bpf.run_on_current_task(prog)
        except KernelSafetyViolation as violation:
            # with the supervisor on, only an escalation gets here
            print(f"ESCALATED: {violation}", file=sys.stderr)
            status = 2
            break
    return bpf, supervisor, prog, status


def cmd_prog_health(args) -> int:
    """``prog health``: run supervised, print the health table."""
    bpf, supervisor, _prog, status = _run_supervised(args)
    if bpf is None:
        return status
    _print_health(supervisor)
    print(_alive_line(bpf.kernel))
    return status


def cmd_prog_quarantine(args) -> int:
    """``prog quarantine``: operator-initiated quarantine — load the
    program, park it, and show that runs are refused."""
    bpf, supervisor, prog, status = _run_supervised(args)
    if bpf is None:
        return status
    tag = f"bpf:{prog.name}"
    supervisor.quarantine(tag, reason="operator request")
    refused = bpf.run_on_current_task(prog)
    print(f"quarantined {tag}; next run returned {refused:#x} "
          "(-EAGAIN: refused while the breaker is open)")
    _print_health(supervisor)
    return status


def cmd_recover_status(args) -> int:
    """``recover status``: run supervised, print supervisor state and
    the full containment audit trail."""
    bpf, supervisor, _prog, status = _run_supervised(args)
    if bpf is None:
        return status
    _print_health(supervisor)
    policy = supervisor.policy
    print(f"supervisor: containments={supervisor.contained_total} "
          f"budget={policy.oops_budget} "
          f"escalations={supervisor.escalations} "
          f"audit_signature={supervisor.audit_signature()[:16]}…")
    print(_alive_line(bpf.kernel))
    print("--- containment audit trail ---")
    for event in supervisor.audit:
        print(f"  {event.render()}")
    print(f"# {len(supervisor.audit)} audit events")
    return status


_PROFILE_NOTES = {
    "uniform": "steady inter-packet gaps, ports drawn evenly "
               "(12.5% to the blocked port)",
    "bursty": "line-rate bursts of 8-64 packets separated by long "
              "idle gaps",
    "adversarial": "truncated headers, oversize frames and a heavy "
                   "blocked-port mix",
    "heavy_hitter": "70% of traffic from one source — skews one RX "
                    "queue and its delivery ring",
}


def cmd_net_profiles(args) -> int:
    """``net profiles``: list the load generator's traffic shapes."""
    from repro.net import PROFILES
    print(f"{'profile':14s} shape")
    for profile in PROFILES:
        print(f"{profile:14s} {_PROFILE_NOTES[profile]}")
    print(f"({len(PROFILES)} profiles; all deterministic under "
          "--seed, timed on the virtual clock)")
    return 0


def cmd_net_run(args) -> int:
    """``net run``: drive a seeded traffic profile through an XDP
    program on the simulated data plane and print the roll-up —
    verdict counters, drop reasons, delivery and tail latencies."""
    from repro.net import DataPlane, LoadGen
    bpf = _make_subsystem(args)
    _create_maps(bpf, args.map)
    program = _read_program(args.file)
    try:
        prog = bpf.load_program(program, ProgType.XDP, args.file)
    except VerifierError as error:
        print(f"VERIFICATION FAILED: {error}")
        return 1
    plane = DataPlane(bpf.kernel, bpf)
    nic = plane.create_nic(1, "bpftool0",
                           queue_depth=args.queue_depth)
    plane.attach(prog, nic)
    gen = LoadGen(bpf.kernel, args.profile, seed=args.seed)
    offered = gen.drive(nic, args.count, plane=plane,
                        batch_size=args.batch)
    plane.process_all(args.batch)
    delivered = len(plane.drain())
    summary = plane.summary()
    nic_row = summary["nics"][nic.name]
    print(f"{args.profile} x{offered['offered']} -> {nic.name} "
          f"(engine={bpf.vm.engine}, seed={args.seed}, "
          f"batch={args.batch})")
    print("  verdicts: " + (", ".join(
        f"{name}={count}"
        for name, count in sorted(summary["verdicts"].items())
        if count) or "none"))
    print("  rx drops: " + (", ".join(
        f"{reason}={count}"
        for reason, count in nic_row["rx_drops"].items()) or "none"))
    print(f"  delivered {delivered} to userspace rings, "
          f"{summary['delivery_drops']} dropped at full rings, "
          f"{nic_row['tx_packets']} transmitted")
    hist = bpf.kernel.telemetry.net_latency_histogram(nic.name)
    if hist.count:
        print(f"  latency p50={hist.quantile(0.5):.0f}ns "
              f"p99={hist.quantile(0.99):.0f}ns "
              f"p999={hist.quantile(0.999):.0f}ns "
              f"mean={hist.mean:.0f}ns")
    print(f"  clock {summary['clock_ns']}ns, "
          f"signature {plane.signature()[:16]}…")
    return 0


def cmd_fault_status(args) -> int:
    """``fault status``: run a program with failpoints armed and
    print per-rule and per-site counters."""
    bpf, status = _run_under_faults(args)
    if bpf is None:
        return status
    plane = bpf.kernel.faults
    print(f"{'pattern':20s} {'schedule':14s} {'action':14s} "
          f"{'hits':>6} {'fires':>6}")
    for row in plane.status():
        print(f"{row['pattern']:20s} {row['schedule']:14s} "
              f"{row['action']:14s} {row['hits']:6d} "
              f"{row['fires']:6d}")
    for site, hits in sorted(plane.site_hits.items()):
        print(f"  site {site:24s} reached {hits} times")
    print(f"enabled={plane.enabled} armed={plane.armed} "
          f"seed={args.seed} faults={len(plane.records)}")
    return status


def _race_scenarios():
    """name -> builder over both scenario families."""
    from repro.faultinject.interleave import PLANTED, RACE_FREE
    table = {name: builder for name, (builder, _) in PLANTED.items()}
    table.update(RACE_FREE)
    return table


def cmd_race_list(args) -> int:
    """``race list``: show the interleaving scenario registry."""
    from repro.faultinject.interleave import PLANTED, RACE_FREE
    print(f"{'scenario':24s} {'kind':10s} expectation")
    for name, (_builder, expected) in sorted(PLANTED.items()):
        print(f"{name:24s} {'planted':10s} explorer must find a "
              f"{expected}")
    for name in sorted(RACE_FREE):
        print(f"{name:24s} {'race-free':10s} zero findings on every "
              "schedule")
    print(f"({len(PLANTED) + len(RACE_FREE)} scenarios; "
          "'race run NAME' explores, 'race status NAME --seed S' "
          "replays one schedule)")
    return 0


def cmd_race_run(args) -> int:
    """``race run``: explore seeded interleavings of one scenario and
    print every distinct finding with its replayable seed."""
    from repro.analysis.racehunt import ScheduleExplorer
    scenarios = _race_scenarios()
    if args.scenario not in scenarios:
        print(f"unknown scenario {args.scenario!r} "
              f"(see 'race list')", file=sys.stderr)
        return 2
    explorer = ScheduleExplorer(
        scenarios[args.scenario], nr_cpus=args.cpus,
        base_seed=args.seed, migration_rate=args.migration_rate)
    result = explorer.explore(budget=args.budget)
    for finding in result.findings:
        print(f"  [{finding.kind:8s}] seed={finding.seed:<4} "
              f"{finding.description}")
        print(f"             trace {finding.trace_signature[:16]}…")
    roll = result.summary()
    print(f"{args.scenario}: {roll['findings']} distinct findings "
          f"({roll['races']} races, {roll['oopses']} oopses, "
          f"{roll['deadlocks']} deadlocks) in {roll['schedules_run']} "
          f"schedules, {roll['distinct_states']} distinct states "
          f"(cpus={args.cpus}, base seed {args.seed})")
    if result.findings:
        print(f"replay: bpftool race status {args.scenario} "
              f"--seed {result.findings[0].seed} --cpus {args.cpus}")
    return 0


def cmd_race_status(args) -> int:
    """``race status``: replay one exact seed of a scenario and print
    the decision trace tail plus the scheduler roll-up."""
    from repro.analysis.racehunt import replay
    scenarios = _race_scenarios()
    if args.scenario not in scenarios:
        print(f"unknown scenario {args.scenario!r} "
              f"(see 'race list')", file=sys.stderr)
        return 2
    smp = replay(scenarios[args.scenario], args.seed,
                 nr_cpus=args.cpus,
                 migration_rate=args.migration_rate)
    tail = smp.trace[-args.limit:] if args.limit else smp.trace
    for seq, kind, detail, task, cpu, chosen in tail:
        print(f"  #{seq:<5} {kind:14s} {detail:28s} "
              f"{task}@cpu{cpu} -> cpu{chosen}")
    roll = smp.summary()
    print(f"schedule {roll['schedule']}: {roll['decisions']} "
          f"decisions, {roll['switches']} switches, "
          f"{roll['lock_contentions']} contended acquires, "
          f"{roll['migrations']} migrations")
    print(f"trace signature {roll['trace_signature']}")
    for exc in smp.errors():
        print(f"  outcome: {type(exc).__name__}: {exc}")
    if smp.detector is not None:
        for race in smp.detector.races:
            print(f"  race: {race.describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="bpftool",
        description="bpftool-style CLI over the simulated kernel")
    sub = parser.add_subparsers(dest="object", required=True)

    prog = sub.add_parser("prog", help="program operations")
    prog_sub = prog.add_subparsers(dest="action", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="text-assembly program file")
    common.add_argument("--type", default="kprobe",
                        choices=[t.value for t in ProgType])
    common.add_argument("--map", action="append",
                        metavar="TYPE[:KEY:VALUE:ENTRIES]",
                        help="create a map before loading")
    common.add_argument("--patched", action="store_true",
                        help="use a kernel with all modeled bugs fixed")
    common.add_argument("--engine", default=None,
                        choices=list(ENGINE_NAMES),
                        help="execution tier (default: compiled)")

    verify = prog_sub.add_parser("verify", parents=[common],
                                 help="run the in-kernel verifier")
    verify.add_argument("--log", action="store_true",
                        help="print the per-insn verifier trace")
    verify.set_defaults(func=cmd_prog_verify)

    run = prog_sub.add_parser("run", parents=[common],
                              help="verify then execute")
    run.add_argument("--payload", default="",
                     help="packet payload for skb/xdp programs")
    run.add_argument("--dmesg", action="store_true",
                     help="print the full kernel log after the run")
    run.set_defaults(func=cmd_prog_run)

    dump = prog_sub.add_parser("dump", help="assemble + disassemble")
    dump.add_argument("file")
    dump.set_defaults(func=cmd_prog_dump)

    runnable = argparse.ArgumentParser(add_help=False,
                                       parents=[common])
    runnable.add_argument("--payload", default="",
                          help="packet payload for skb/xdp programs")
    runnable.add_argument("--repeat", type=int, default=1,
                          metavar="N", help="number of runs (default 1)")

    prog_stats = prog_sub.add_parser(
        "stats", parents=[runnable],
        help="run N times with stats enabled, print per-prog rows")
    prog_stats.set_defaults(func=cmd_prog_stats)

    prog_engine = prog_sub.add_parser(
        "engine", parents=[runnable],
        help="show or pin a program's execution tier")
    prog_engine.add_argument("--set", default=None,
                             choices=list(ENGINE_NAMES),
                             help="pin the program to this tier")
    prog_engine.set_defaults(func=cmd_prog_engine)

    faulty = argparse.ArgumentParser(add_help=False,
                                     parents=[runnable])
    faulty.add_argument("--arm", action="append",
                        metavar="SITE=SCHEDULE=ACTION",
                        help="arm a failpoint rule, e.g. "
                             "'helper.*=prob:0.5=errno:EINVAL'")
    faulty.add_argument("--seed", type=int, default=0,
                        help="fault plane seed (default 0)")

    prog_health = prog_sub.add_parser(
        "health", parents=[faulty],
        help="run supervised (recovery on), print per-program health")
    prog_health.set_defaults(func=cmd_prog_health)

    prog_quarantine = prog_sub.add_parser(
        "quarantine", parents=[faulty],
        help="quarantine a loaded program and show runs are refused")
    prog_quarantine.set_defaults(func=cmd_prog_quarantine)

    recover = sub.add_parser("recover",
                             help="recovery supervisor state")
    recover_sub = recover.add_subparsers(dest="action", required=True)
    recover_status = recover_sub.add_parser(
        "status", parents=[faulty],
        help="run supervised, print health + containment audit trail")
    recover_status.set_defaults(func=cmd_recover_status)

    stats = sub.add_parser("stats", help="telemetry snapshots")
    stats_sub = stats.add_subparsers(dest="action", required=True)
    stats_dump = stats_sub.add_parser(
        "dump", parents=[runnable],
        help="full telemetry snapshot after N runs")
    stats_dump.add_argument("--format", default="json",
                            choices=["json", "prometheus"])
    stats_dump.set_defaults(func=cmd_stats_dump)

    trace = sub.add_parser("trace", help="structured trace ring")
    trace_sub = trace.add_subparsers(dest="action", required=True)
    trace_log = trace_sub.add_parser(
        "log", parents=[runnable],
        help="print trace events as JSONL after N runs")
    trace_log.add_argument("--kind", default=None,
                           help="only events of this kind")
    trace_log.add_argument("--limit", type=int, default=None,
                           help="print at most the last N events")
    trace_log.set_defaults(func=cmd_trace_log)

    helper = sub.add_parser("helper", help="helper registry")
    helper_sub = helper.add_subparsers(dest="action", required=True)
    helper_list = helper_sub.add_parser("list")
    helper_list.add_argument("--class", dest="klass",
                             choices=["retire", "simplify", "wrap",
                                      "keep"])
    helper_list.add_argument("--implemented", action="store_true")
    helper_list.set_defaults(func=cmd_helper_list)

    bugs = sub.add_parser("bugs", help="the Table 1 bug population")
    bugs_sub = bugs.add_subparsers(dest="action", required=True)
    bugs_list = bugs_sub.add_parser("list")
    bugs_list.set_defaults(func=cmd_bugs_list)

    net = sub.add_parser("net", help="the simulated data plane")
    net_sub = net.add_subparsers(dest="action", required=True)
    net_profiles = net_sub.add_parser(
        "profiles", help="list load-generator traffic profiles")
    net_profiles.set_defaults(func=cmd_net_profiles)
    net_run = net_sub.add_parser(
        "run", help="drive seeded traffic through an XDP program")
    net_run.add_argument("file", help="text-assembly XDP program")
    net_run.add_argument("--map", action="append",
                         metavar="TYPE[:KEY:VALUE:ENTRIES]",
                         help="create a map before loading")
    net_run.add_argument("--patched", action="store_true",
                         help="use a kernel with all modeled bugs "
                              "fixed")
    net_run.add_argument("--engine", default="compiled",
                         choices=list(ENGINE_NAMES),
                         help="execution tier (default: compiled)")
    net_run.add_argument("--profile", default="uniform",
                         choices=list(_PROFILE_NOTES),
                         help="traffic shape (default: uniform)")
    net_run.add_argument("--count", type=int, default=10000,
                         metavar="N",
                         help="packets to offer (default 10000)")
    net_run.add_argument("--seed", type=int, default=0,
                         help="load generator seed (default 0)")
    net_run.add_argument("--batch", type=int, default=64,
                         metavar="N",
                         help="NAPI poll burst size (default 64)")
    net_run.add_argument("--queue-depth", type=int, default=512,
                         metavar="N",
                         help="per-CPU RX queue depth (default 512)")
    net_run.set_defaults(func=cmd_net_run)

    fault = sub.add_parser("fault", help="deterministic fault "
                                         "injection")
    fault_sub = fault.add_subparsers(dest="action", required=True)
    fault_list = fault_sub.add_parser(
        "list", help="show the failpoint site registry")
    fault_list.set_defaults(func=cmd_fault_list)

    fault_enable = fault_sub.add_parser(
        "enable", parents=[faulty],
        help="run a program with failpoints armed, print the faults")
    fault_enable.set_defaults(func=cmd_fault_enable)

    fault_status = fault_sub.add_parser(
        "status", parents=[faulty],
        help="run a program with failpoints armed, print counters")
    fault_status.set_defaults(func=cmd_fault_status)

    race = sub.add_parser("race", help="deterministic interleaving "
                                       "exploration")
    race_sub = race.add_subparsers(dest="action", required=True)
    race_list = race_sub.add_parser(
        "list", help="show the interleaving scenario registry")
    race_list.set_defaults(func=cmd_race_list)

    racy = argparse.ArgumentParser(add_help=False)
    racy.add_argument("scenario", help="scenario name (see race list)")
    racy.add_argument("--seed", type=int, default=0,
                      help="base seed (default 0)")
    racy.add_argument("--cpus", type=int, default=2,
                      help="logical CPUs (default 2)")
    racy.add_argument("--migration-rate", type=float, default=0.0,
                      metavar="P",
                      help="per-decision migration probability")

    race_run = race_sub.add_parser(
        "run", parents=[racy],
        help="explore seeded interleavings, print findings + seeds")
    race_run.add_argument("--budget", type=int, default=32,
                          metavar="N",
                          help="schedules to explore (default 32)")
    race_run.set_defaults(func=cmd_race_run)

    race_status = race_sub.add_parser(
        "status", parents=[racy],
        help="replay one exact seed, print the decision trace")
    race_status.add_argument("--limit", type=int, default=24,
                             metavar="N",
                             help="trace tail length (default 24, "
                                  "0 = full trace)")
    race_status.set_defaults(func=cmd_race_status)

    fleet = sub.add_parser(
        "fleet", help="staged rollouts over a simulated fleet")
    fleet_sub = fleet.add_subparsers(dest="action", required=True)

    fleety = argparse.ArgumentParser(add_help=False)
    fleety.add_argument("--nodes", type=int, default=50, metavar="N",
                        help="fleet size (default 50)")
    fleety.add_argument("--seed", type=int, default=0,
                        help="rollout seed (default 0)")
    fleety.add_argument("--engine", default=None,
                        choices=list(ENGINE_NAMES),
                        help="execution tier for every node")
    fleety.add_argument("--json", action="store_true",
                        help="machine-readable output")

    fleet_status = fleet_sub.add_parser(
        "status", parents=[fleety],
        help="show the release registry and the fleet health census")
    fleet_status.set_defaults(func=cmd_fleet_status)

    fleet_rollout = fleet_sub.add_parser(
        "rollout", parents=[fleety],
        help="stage a release through canary waves")
    fleet_rollout.add_argument(
        "--release", default="good",
        choices=["baseline", "good", "bad"],
        help="which canonical release to roll out (default good)")
    fleet_rollout.set_defaults(func=cmd_fleet_rollout)

    fleet_rollback = fleet_sub.add_parser(
        "rollback", parents=[fleety],
        help="stage the planted bad release: canary halt + rollback")
    fleet_rollback.set_defaults(func=cmd_fleet_rollback)

    fleet_resume = fleet_sub.add_parser(
        "resume", parents=[fleety],
        help="crash the orchestrator mid-rollout, resume from the "
             "write-ahead journal, prove signatures bit-identical")
    fleet_resume.add_argument(
        "--release", default="good",
        choices=["baseline", "good", "bad"],
        help="which canonical release to roll out (default good)")
    fleet_resume.add_argument(
        "--crash-after", type=int, default=40, metavar="N",
        help="kill the orchestrator every N journal appends "
             "(default 40)")
    fleet_resume.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead journal path (default: a temp file, "
             "removed afterwards)")
    fleet_resume.add_argument(
        "--chaos", default=None, choices=sorted(FLEET_SCHEDULES),
        help="also arm this channel chaos schedule")
    fleet_resume.set_defaults(func=cmd_fleet_resume)

    fleet_halt = fleet_sub.add_parser(
        "halt", parents=[fleety],
        help="operator stop after a chosen wave")
    fleet_halt.add_argument(
        "--release", default="good",
        choices=["baseline", "good", "bad"],
        help="which canonical release to stage (default good)")
    fleet_halt.add_argument(
        "--after-wave", type=int, default=1, metavar="K",
        help="stop after wave K (default 1)")
    fleet_halt.set_defaults(func=cmd_fleet_halt)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
