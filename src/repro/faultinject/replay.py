"""The replay core the seeded fault harnesses share.

``make chaos``/``make recover`` (:mod:`repro.faultinject.chaos`) and
``make fleet-chaos`` (:mod:`repro.fleet.chaos`) are the same shape: a
matrix of ``a × b`` replays, each a pure function of one derived
seed, each ending in an outcome, a signature and a list of violated
invariants.  This module holds that shape once — the per-replay seed,
the result and report types, and the run-twice CLI — so each harness
keeps only its own cases and invariants.

A report's :meth:`~ReplayReport.signature` hashes one ``":"``-joined
line per result: the key fields, the outcome, the result signature,
then any counts the harness folds in (:attr:`ReplayReport.signed`).
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

DEFAULT_SEED = 20230622  # HotOS'23


def case_seed(seed: int, case_id: str, schedule: str) -> int:
    """Per-(case, schedule) seed, derived stably from the master seed
    (``hash()`` is salted per interpreter run, so not that)."""
    digest = hashlib.sha256(
        f"{seed}:{case_id}:{schedule}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class ReplayResult:
    """One ``a × b`` replay: its two key fields, how it ended, its
    signature, the harness's counts and every violated invariant."""

    key: Tuple[str, str]
    outcome: str
    signature: str
    counts: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant held for this replay."""
        return not self.violations


@dataclass
class ReplayReport:
    """One full harness replay."""

    seed: int
    results: List[ReplayResult]
    #: counts appended to each result's signature line, in order
    signed: Tuple[str, ...] = ()

    @property
    def violations(self) -> List[str]:
        """Every violation across the replay, labelled ``a × b``."""
        return [f"{' × '.join(r.key)}: {v}"
                for r in self.results for v in r.violations]

    @property
    def clean(self) -> bool:
        """True when the whole replay held every invariant."""
        return not self.violations

    def total(self, count: str) -> int:
        """``count`` summed over every result."""
        return sum(r.counts[count] for r in self.results)

    def signature(self) -> str:
        """Digest over every result's line — the determinism pin for
        whole-replay comparisons."""
        digest = hashlib.sha256()
        for r in self.results:
            digest.update(":".join(
                [*r.key, r.outcome, r.signature,
                 *(str(r.counts[name]) for name in self.signed)]
            ).encode())
        return digest.hexdigest()


def replay_parser(prog: str, description: str,
                  schedules: Sequence[str]) -> argparse.ArgumentParser:
    """The options every harness CLI shares: ``--seed``,
    ``--schedule``, ``--check-determinism`` and ``-v``."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed (default %(default)s)")
    parser.add_argument("--schedule", action="append", default=None,
                        choices=sorted(schedules),
                        help="schedule to replay (repeatable; "
                             "default: all)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="replay twice and require identical "
                             "signatures")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every replay result")
    return parser


def run_and_report(label: str, replay: Callable[[], ReplayReport],
                   summary: Callable[[ReplayReport], str],
                   row: Callable[[ReplayResult], str],
                   verbose: bool, check_determinism: bool) -> int:
    """Run ``replay``, print the ``-v`` rows, the summary line and
    every violation; with ``check_determinism`` run it again and
    compare signatures.  Returns the exit status."""
    report = replay()
    if verbose:
        for r in report.results:
            print(f"  {'ok ' if r.ok else 'BAD'} {row(r)}")
    print(f"{label}: {summary(report)}")
    status = 0
    for violation in report.violations:
        print(f"{label}: VIOLATION: {violation}")
        status = 1
    if check_determinism:
        if replay().signature() != report.signature():
            print(f"{label}: NONDETERMINISM: second replay produced a "
                  "different signature")
            status = 1
        else:
            print(f"{label}: determinism check passed "
                  f"(signature {report.signature()[:16]}…)")
    return status
