"""Seeded differential fuzzing: interpreter vs compiled tier vs JIT.

:func:`repro.analysis.fuzz.differential_campaign` generates random
programs and demands that every engine configuration in
:data:`~repro.analysis.fuzz.DIFF_ENGINES` agrees on every
observable — result or exception, final register file, instruction
and helper accounting, virtual-clock totals, kernel health, and the
telemetry row.  CI replays fixed seeds so a divergence is a
reproducible bug report, not a flake; set ``FUZZ_DIFF_MIN`` to raise
the per-seed quota for longer local runs.
"""

import os

import pytest

from repro.analysis.fuzz import (
    DIFF_ENGINES,
    differential_campaign,
    observe_engine,
    random_program,
)

#: executed-program quota per seed (the issue's CI floor is 200 total)
MIN_COMPARED = int(os.environ.get("FUZZ_DIFF_MIN", "100"))

#: fixed CI seeds; together they clear the 200-program floor
CI_SEEDS = [421, 99173]


@pytest.mark.parametrize("seed", CI_SEEDS)
def test_engines_agree_on_random_programs(seed):
    report = differential_campaign(min_compared=MIN_COMPARED,
                                   seed=seed)
    assert report.compared >= MIN_COMPARED, (
        f"generation cap hit after only {report.compared} executed "
        f"programs ({report.total} generated)")
    assert report.clean, "\n".join(report.divergences[:5])


def test_campaign_is_deterministic():
    first = differential_campaign(min_compared=20, seed=7)
    second = differential_campaign(min_compared=20, seed=7)
    assert (first.total, first.rejected, first.compared) == \
        (second.total, second.rejected, second.compared)
    assert first.divergences == second.divergences


def test_rejections_agree_across_engines():
    # every engine shares one verifier; a program rejected on one
    # engine must be rejected on all (kind == "rejected" observations
    # compare equal, so any disagreement is a divergence)
    import random
    rng = random.Random(3)
    saw_rejection = False
    for index in range(40):
        program = random_program(rng)
        kinds = {engine: observe_engine(program, index, kwargs)["kind"]
                 for engine, kwargs in DIFF_ENGINES}
        assert len(set(kinds.values())) == 1, kinds
        saw_rejection |= "rejected" in kinds.values()
    assert saw_rejection, "generator never produced a rejected program"
