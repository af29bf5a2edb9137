"""The ``fleet_rollout`` workload: the fleet control path under fire.

A pass is one *cycle*: build the canonical 200-node scenario on the
compiled engine (node boot plus baseline preinstall — the set-up),
arm ``FLEET_SCHEDULES["fleet-pressure"]`` on the transport's fault
plane, roll out the good release (timed), then the planted bad one.
This is the only workload that exercises the transport's retries and
dedup, journal appends, the orchestrator/planner/canary services and
node deploy/soak; its programs are tiny, so the verifier does little.

The retry budget is raised from the transport's default 4 attempts
to ``MAX_ATTEMPTS``.  With 4, a few RPCs per rollout exhaust their
retries under fleet-pressure, and under some seeds the unreachable
nodes fail the canary wave and roll the *good* release back — a
different workload from one seed to the next.  With 12 attempts no
RPC runs out (``failed`` is 0) and every seed does the same work,
while the retries themselves (about 450 per good rollout) still run.

Correctness: the good release completes on every node, the bad one
is ``rolled-back`` at wave 1 with no node left on it, and both
rollout signatures are equal across the cycles of a run and pinned
for the default seed.
"""

from __future__ import annotations

from typing import Dict, Optional

from perfbench.common import HostClock, PassResult

#: nodes in the simulated fleet
FLEET_SIZE = 200
#: delivery attempts per RPC (see module docstring)
MAX_ATTEMPTS = 12


class RolloutWorkload:
    """Good-then-bad rollouts over a fresh fleet per cycle."""

    unit = "node"
    op = "deploy RPC"
    min_passes = 3

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed

    def setup(self, tracer: Optional[object]) -> Dict[str, object]:
        """Boot the fleet, preinstall the baseline, arm the chaos."""
        from repro.faultinject.chaos import FLEET_SCHEDULES
        from repro.fleet.adapters.sim import build_scenario
        from repro.fleet.transport import RetryPolicy

        scenario = build_scenario(
            FLEET_SIZE, self.seed, engine="compiled",
            retry_policy=RetryPolicy(max_attempts=MAX_ATTEMPTS))
        FLEET_SCHEDULES["fleet-pressure"](scenario.transport.plane)
        return {"scenario": scenario}

    def run(self, state: Dict[str, object], tracer: Optional[object],
            clock: HostClock) -> PassResult:
        """Roll the good release out (timed), then the bad one."""
        scenario = state["scenario"]
        transport = scenario.transport
        orchestrator = scenario.orchestrator
        deploys = []
        call = transport.call

        def timed_call(request: object) -> object:
            if request.method != "deploy":
                return call(request)
            mark = clock.start()
            outcome = call(request)
            deploys.append(clock.stop(mark))
            return outcome

        transport.call = timed_call
        if tracer:
            tracer.on = True
        mark = clock.start()
        good = orchestrator.rollout(scenario.good.release_id,
                                    seed=self.seed)
        good_s = clock.stop(mark)
        transport.call = call
        bad = orchestrator.rollout(scenario.bad.release_id,
                                   seed=self.seed)
        if tracer:
            tracer.on = False

        fleet = scenario.fleet
        on_bad = sum(1 for node_id in fleet.node_ids()
                     if fleet.current_release(node_id)
                     == scenario.bad.release_id)
        problems = []
        if good.outcome != "completed" \
                or good.converged_nodes != FLEET_SIZE:
            problems.append(f"good release {good.outcome} on "
                            f"{good.converged_nodes}/{FLEET_SIZE} nodes")
        if bad.outcome != "rolled-back" or len(bad.verdicts) != 1:
            problems.append(f"bad release {bad.outcome} after "
                            f"{len(bad.verdicts)} waves")
        if on_bad:
            problems.append(f"{on_bad} nodes left on the bad release")
        stats = transport.stats
        return PassResult(
            units=FLEET_SIZE, busy_s=good_s, op_samples=deploys,
            attempted=stats.rpcs, failed=stats.unreachable,
            signature=f"{good.signature()}:{bad.signature()}",
            problems=problems,
            counts={"transport.rpcs": stats.rpcs,
                    "transport.attempts": stats.attempts,
                    "transport.retries": stats.retries,
                    "transport.dedup_hits": stats.dedup_hits})
