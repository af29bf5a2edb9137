"""Fleet under fire: rollouts over an unreliable control channel.

``make fleet`` proves the control plane works when the network does.
This harness replays the canonical scenario while the *channel*
misbehaves: every schedule in
:data:`~repro.faultinject.chaos.FLEET_SCHEDULES` arms the transport's
fault plane — drops, duplicates, delays past the RPC deadline,
partitions, crashing node agents — and both the good and the planted
bad release are rolled out under it.  For every replay the harness
checks:

1. **Outcome sanity** — the bad release never completes: either its
   canary census or the wave's unreachable budget halts it, and the
   rollout ends ``rolled-back``.
2. **No node left behind** — after a rolled-back rollout, any node
   still running the withdrawn release is *accounted for*: listed
   ``unreachable`` (the operator's queue) or quarantined as stuck —
   parked, not forgotten.  Reachable nodes never keep the bad bits.
3. **Fleet integrity** — every node kernel passes the isolation
   invariants and the taint/oops books balance, exactly as in
   ``make chaos``.
4. **Crash + resume** — per schedule, the rollout is additionally run
   with ``fleet.orch.crash`` armed: the orchestrator dies at a
   journal-append boundary and a fresh one resumes from the journal
   (repeatedly, if the crash schedule keeps firing —
   :meth:`~repro.fleet.adapters.sim.FleetScenario.rollout_through_crashes`),
   and the finished report's signature must be **bit-identical** to
   the uninterrupted run's, which is rolled out once and shared.
5. **Determinism** — ``--check-determinism`` replays the whole
   harness twice and compares report signatures (``make fleet-chaos``
   does this by default).

Results, report and CLI come from :mod:`repro.faultinject.replay`.

``REPRO_FLEET_SMOKE=1`` (CI) shrinks the fleet and the schedule list.

Run it: ``PYTHONPATH=src python -m repro.fleet.chaos``.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.faultinject.chaos import FLEET_SCHEDULES
from repro.faultinject.invariants import (
    collect_violations,
    panic_path_consistent,
)
from repro.faultinject.plane import FaultAction, NthHit
from repro.faultinject.replay import (
    DEFAULT_SEED,
    ReplayReport,
    ReplayResult,
    case_seed,
    replay_parser,
    run_and_report,
)
from repro.fleet.adapters.sim import FleetScenario, build_scenario
from repro.fleet.journal import MemoryJournal

DEFAULT_SIZE = 24
SMOKE_SIZE = 10
#: the schedules the CI smoke run keeps (cheapest + the kitchen sink)
SMOKE_SCHEDULES = ("rpc-drops", "fleet-pressure")
#: journal-append ordinals the crash leg kills the orchestrator at
#: (a recurring schedule: the *resumed* orchestrator crashes again
#: every CRASH_EVERY live appends until the rollout finally lands)
CRASH_EVERY = 23
#: safety valve for the resume loop — far above any real replay
MAX_RESUMES = 200


def _check_fleet(scenario: FleetScenario, report: object,
                 bad_release: bool) -> List[str]:
    """The god's-eye invariants: the harness may inspect nodes
    directly — the orchestrator may not."""
    violations: List[str] = []
    target = report.release_id
    accounted = set(report.stuck_nodes) | set(report.unreachable_nodes)
    for node in scenario.fleet.nodes():
        running = (node.current.release_id
                   if node.current is not None else None)
        if report.outcome == "rolled-back" and running == target:
            if node.node_id not in accounted:
                violations.append(
                    f"{node.node_id} still runs withdrawn {target} "
                    "but is neither unreachable nor quarantined")
            elif node.node_id in report.stuck_nodes \
                    and node.census() not in ("quarantined", "dead"):
                violations.append(
                    f"stuck node {node.node_id} was not parked "
                    f"(census={node.census()})")
        for problem in collect_violations(node.kernel):
            violations.append(f"{node.node_id}: {problem}")
        if not panic_path_consistent(node.kernel):
            violations.append(
                f"{node.node_id}: taint/oops mismatch")
    if bad_release and report.outcome == "completed":
        violations.append(
            "the planted bad release completed a full rollout")
    return violations


def _armed_scenario(schedule: str, release: str, seed: int,
                    size: int) -> Tuple[FleetScenario, str]:
    """A fresh fleet with ``schedule`` armed on its channel, and the
    id of ``release`` ("good" or "bad") to roll out."""
    scenario = build_scenario(size, seed=seed)
    FLEET_SCHEDULES[schedule](scenario.transport.plane)
    target = scenario.bad if release == "bad" else scenario.good
    return scenario, target.release_id


def _result(schedule: str, release: str, outcome: str, signature: str,
            report: object, violations: List[str],
            resumes: int = 0) -> ReplayResult:
    """One finished rollout's result."""
    return ReplayResult(
        key=(schedule, release), outcome=outcome, signature=signature,
        counts={"retries": report.rpc_retries,
                "unreachable": len(report.unreachable_nodes),
                "stuck": len(report.stuck_nodes), "resumes": resumes},
        violations=violations)


def _escaped(schedule: str, release: str, leg: str,
             exc: Exception) -> ReplayResult:
    """An exception crossed out of a rollout: that is the violation."""
    return ReplayResult(
        key=(schedule, release), outcome=f"escaped:{type(exc).__name__}",
        signature="",
        counts={"retries": 0, "unreachable": 0, "stuck": 0, "resumes": 0},
        violations=[f"exception escaped {leg}: "
                    f"{type(exc).__name__}: {exc}"])


def run_fleet_case(schedule: str, release: str, seed: int,
                   size: int) -> ReplayResult:
    """One rollout of ``release`` under one channel schedule."""
    scenario, release_id = _armed_scenario(schedule, release, seed, size)
    try:
        report = scenario.orchestrator.rollout(release_id, seed=seed)
    except Exception as exc:  # noqa: BLE001 — the point of the harness
        return _escaped(schedule, release,
                        "the rollout under channel chaos", exc)
    return _result(
        schedule, release, report.outcome, report.signature(), report,
        _check_fleet(scenario, report, bad_release=(release == "bad")))


def run_crash_resume_case(schedule: str, release: str, seed: int,
                          size: int,
                          uninterrupted: ReplayResult) -> ReplayResult:
    """The durability leg: the same rollout as ``uninterrupted`` (the
    :func:`run_fleet_case` result for the same arguments), but the
    orchestrator is killed every :data:`CRASH_EVERY` journal appends
    and a fresh one resumes from the journal until it lands — the
    finished signature must be bit-identical to the uninterrupted
    run's."""
    scenario, release_id = _armed_scenario(schedule, release, seed, size)
    scenario.transport.plane.arm(
        "fleet.orch.crash", NthHit(CRASH_EVERY, every=True),
        FaultAction.panic())
    journal = MemoryJournal()
    try:
        report, resumes = scenario.rollout_through_crashes(
            release_id, seed, lambda: journal, MAX_RESUMES)
    except Exception as exc:  # noqa: BLE001 — the point of the harness
        return _escaped(schedule, release, "the crash/resume leg", exc)
    violations = _check_fleet(scenario, report,
                              bad_release=(release == "bad"))
    if resumes == 0:
        violations.append(
            "crash leg never crashed — fleet.orch.crash is dead "
            "wiring")
    if not journal.complete():
        violations.append(
            "resumed rollout finished but its journal is not "
            "complete")
    if report.signature() != uninterrupted.signature:
        violations.append(
            f"resumed signature {report.signature()[:16]} != "
            f"uninterrupted {uninterrupted.signature[:16]} — the "
            "journal replay diverged")
    return _result(
        schedule, release, f"{report.outcome}+resumed",
        uninterrupted.signature, report, violations, resumes)


def run_fleet_chaos(seed: int = DEFAULT_SEED,
                    size: int = DEFAULT_SIZE,
                    schedules: Optional[Sequence[str]] = None,
                    ) -> ReplayReport:
    """Replay both releases under every requested channel schedule,
    plus the crash/resume leg per pair."""
    names = list(schedules or FLEET_SCHEDULES)
    for name in names:
        if name not in FLEET_SCHEDULES:
            raise ValueError(
                f"unknown fleet schedule {name!r} "
                f"(have: {', '.join(FLEET_SCHEDULES)})")
    results: List[ReplayResult] = []
    for name in names:
        for release in ("good", "bad"):
            rollout_seed = case_seed(seed, f"fleet-{release}", name)
            uninterrupted = run_fleet_case(
                name, release, rollout_seed, size)
            results.append(uninterrupted)
            results.append(run_crash_resume_case(
                name, release, rollout_seed, size, uninterrupted))
    return ReplayReport(seed=seed, results=results, signed=("resumes",))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``make fleet-chaos``); returns exit status."""
    smoke = os.environ.get("REPRO_FLEET_SMOKE") == "1"
    parser = replay_parser(
        "python -m repro.fleet.chaos",
        "Roll releases out over an unreliable control channel and "
        "check the fleet invariants.", FLEET_SCHEDULES)
    parser.add_argument("--size", type=int,
                        default=SMOKE_SIZE if smoke else DEFAULT_SIZE,
                        help="fleet size per rollout "
                             "(default %(default)s)")
    args = parser.parse_args(argv)
    schedules = args.schedule or (
        list(SMOKE_SCHEDULES) if smoke else None)
    return run_and_report(
        "fleet-chaos",
        lambda: run_fleet_chaos(args.seed, args.size, schedules),
        lambda report: (f"{len(report.results)} rollouts over "
                        f"{args.size} nodes, "
                        f"{len(report.violations)} violations "
                        f"(seed {report.seed})"),
        lambda r: (f"{r.key[0]:>14} {r.key[1]:<4} {r.outcome:<22} "
                   f"retries={r.counts['retries']:<3} "
                   f"unreachable={r.counts['unreachable']} "
                   f"stuck={r.counts['stuck']} "
                   f"resumes={r.counts['resumes']}"),
        args.verbose, args.check_determinism)


if __name__ == "__main__":
    sys.exit(main())
