"""``make fleet-chaos`` at smoke size: the replay is clean, every crash
leg really crashed and resumed, the whole-harness signature is pinned,
and each result costs exactly one rollout — the crash/resume leg
compares against the uninterrupted result instead of rolling it out
again."""

import pytest

from repro.faultinject.plane import FaultAction, NthHit
from repro.fleet.adapters.sim import build_scenario
from repro.fleet.chaos import (
    DEFAULT_SEED,
    SMOKE_SCHEDULES,
    SMOKE_SIZE,
    main,
    run_fleet_chaos,
)
from repro.fleet.journal import FileJournal, MemoryJournal
from repro.fleet.services.orchestrator import RolloutOrchestrator

#: ``REPRO_FLEET_SMOKE=1 make fleet-chaos`` at the default seed
SMOKE_SIGNATURE = ("0af1c500f9402de698eb4e5eaf0df37f"
                   "59ddb3eafcd21f9a972e5c5e0804c10e")


@pytest.fixture(scope="module")
def smoke():
    """The smoke replay, plus how many rollouts it started."""
    calls = []
    original = RolloutOrchestrator.rollout

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RolloutOrchestrator, "rollout", counted)
        report = run_fleet_chaos(DEFAULT_SEED, SMOKE_SIZE,
                                 SMOKE_SCHEDULES)
    return report, len(calls)


def test_smoke_replay_is_clean(smoke):
    report, _ = smoke
    assert report.clean, "; ".join(report.violations)


def test_every_crash_leg_resumed(smoke):
    report, _ = smoke
    crash_legs = [r for r in report.results
                  if r.outcome.endswith("+resumed")]
    assert len(crash_legs) == 2 * len(SMOKE_SCHEDULES)
    assert all(r.counts["resumes"] > 0 for r in crash_legs)


def test_smoke_signature_is_pinned(smoke):
    report, _ = smoke
    assert report.signature() == SMOKE_SIGNATURE


def test_one_rollout_per_result(smoke):
    report, rollouts = smoke
    assert len(report.results) == 8
    assert rollouts == len(report.results)


def test_cli_check_determinism():
    assert main(["--size", "10", "--schedule", "rpc-drops",
                 "--check-determinism"]) == 0


@pytest.mark.parametrize("on_disk", [False, True],
                         ids=["memory", "file"])
def test_crash_loop_builds_a_fresh_orchestrator(on_disk, tmp_path,
                                                monkeypatch):
    """Each crash hands the rollout to a new orchestrator, and the
    resumed report matches the uninterrupted one bit for bit — with
    the journal kept in memory or reopened from disk."""
    reference = build_scenario(SMOKE_SIZE, seed=3)
    expected = reference.orchestrator.rollout(
        reference.good.release_id, seed=3).signature()
    scenario = build_scenario(SMOKE_SIZE, seed=3)
    scenario.transport.plane.arm(
        "fleet.orch.crash", NthHit(15, every=True), FaultAction.panic())
    built = []
    init = RolloutOrchestrator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RolloutOrchestrator, "__init__", recording_init)
    path = str(tmp_path / "rollout.jsonl")
    memory = MemoryJournal()
    seen = []
    report, crashes = scenario.rollout_through_crashes(
        scenario.good.release_id, 3,
        (lambda: FileJournal(path)) if on_disk else (lambda: memory),
        max_crashes=50, on_crash=lambda count, _: seen.append(count))
    assert crashes >= 2
    assert seen == list(range(1, crashes + 1))
    assert len(built) == crashes
    assert scenario.orchestrator not in built
    assert report.signature() == expected


def test_crash_loop_gives_up_past_its_cap():
    scenario = build_scenario(SMOKE_SIZE, seed=3)
    scenario.transport.plane.arm(
        "fleet.orch.crash", NthHit(1, every=True), FaultAction.panic())
    journal = MemoryJournal()
    with pytest.raises(RuntimeError, match="never converged"):
        scenario.rollout_through_crashes(
            scenario.good.release_id, 3, lambda: journal,
            max_crashes=3)
