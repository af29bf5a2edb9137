"""The ``prog_load`` workload: cold program loads through the verifier,
JIT, predecode and compile, then one load-cache hit per accepted
program.

A pass is one *round*: a fresh kernel and subsystem (so every load is
cold) and one seeded corpus of 39 programs in a seeded order.  The corpus has a fixed composition so the latency percentiles
mean the same thing under every seed; the seed picks the immediates,
the fuzz draws and the order.

* bounded loops walking 2k-32k instructions — the verifier's walk is
  quadratic in the in-flight checkpoints, so doubling the walk about
  triples the time;
* straight-line programs up to the 4096-instruction cap;
* chains of 8-64 if/else diamonds (state pruning at work);
* the canned XDP programs of :mod:`repro.net.programs`;
* draws from a fixed pool of :func:`repro.analysis.fuzz.random_program`
  programs, two rejected for every one accepted (which times how long
  a rejection verdict takes), stratified by length.

An 80-diamond chain is left out on purpose: it takes about 74 s to
verify (405k instructions processed, against 8.5k at 64 diamonds) and
would fill a whole run with one load.  See ``perfbench/README.md``.

Correctness: every load's verdict must equal its known answer — every
shape above is verifier-clean, and each fuzz draw's verdict is pinned
in :mod:`perfbench.pins` — and every cache hit must replay the cold
load's stats.  The digest over (program, verdict) pairs is equal
across the rounds of a run and pinned for the default seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.common import HostClock, PassResult
from perfbench import pins

#: instructions each bounded loop makes the verifier walk
LOOP_WALKS = (2_000, 4_000, 8_000, 16_000, 32_000)
#: straight-line program lengths (4096 is the size cap)
FLAT_SIZES = (256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)
#: diamond-chain branch counts
DIAMONDS = (4, 8, 12, 16, 24, 32, 40, 64)
#: fuzz draws per round, by known verdict.  Fuzz and canned programs
#: together stay under half the round, so the median load lands on
#: the fixed shapes rather than on whichever fuzz programs were drawn
FUZZ_ACCEPTED = 4
FUZZ_REJECTED = 8
#: the fixed fuzz pool the draws come from
FUZZ_POOL = 256


@dataclass
class Entry:
    """One corpus program and the verdict it must get."""

    name: str
    insns: list
    prog_type: object
    accept: bool
    digest: str


def fuzz_pool() -> List[list]:
    """The fixed pool of fuzz programs, deduplicated by content (a
    duplicate would be a cache hit, not a cold load)."""
    from repro.analysis.fuzz import random_program
    from repro.ebpf.progcache import insns_digest

    pool, seen = [], set()
    for index in range(FUZZ_POOL):
        program = random_program(random.Random(f"perfbench-fuzz-{index}"))
        digest = insns_digest(program)
        if digest not in seen:
            seen.add(digest)
            pool.append(program)
    return pool


def new_subsystem(registry: Optional[object] = None) -> tuple:
    """A freshly booted kernel's subsystem (empty load cache) with the
    two maps the canned programs reference; returns ``(bpf, stats,
    devmap)``."""
    from repro.ebpf.loader import BpfSubsystem
    from repro.kernel import Kernel

    bpf = BpfSubsystem(Kernel(), registry=registry, engine="compiled")
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    return bpf, stats, bpf.create_map("devmap", max_entries=4)


def pool_verdicts(pool: List[list]) -> str:
    """Hex bitmap of which pool programs a cold subsystem accepts
    (bit ``i`` set = accepted) — how :data:`pins.FUZZ_VERDICTS` was
    made."""
    from repro.ebpf.progs import ProgType
    from repro.errors import VerifierError

    bits = 0
    for index, program in enumerate(pool):
        bpf = new_subsystem()[0]
        try:
            bpf.load_program(program, ProgType.KPROBE, "fuzz")
            bits |= 1 << index
        except VerifierError:
            pass
    return format(bits, "x")


def stratified(rng: random.Random, indices: List[int], count: int,
               pool: List[list]) -> List[int]:
    """``count`` pool programs, one from each of ``count`` strata of
    ``indices`` ordered by length — so every seed draws the same mix
    of short and long programs and the latency percentiles stay put."""
    ordered = sorted(indices, key=lambda index: (len(pool[index]), index))
    return [rng.choice(ordered[k * len(ordered) // count:
                               (k + 1) * len(ordered) // count])
            for k in range(count)]


def build_corpus(seed: int, stats_fd: int,
                 devmap_fd: int) -> Tuple[List[Entry], List[str]]:
    """The seeded round corpus, plus any problem with the fuzz pool
    (a pool that no longer matches its pinned verdicts has no known
    answers)."""
    from repro.ebpf.asm import Asm
    from repro.ebpf.isa import R0, R1, R2
    from repro.ebpf.progcache import insns_digest
    from repro.ebpf.progs import ProgType
    from repro.net import programs

    rng = random.Random(f"perfbench-prog_load-{seed}")
    shapes: List[Tuple[str, list, object]] = []
    for walk in LOOP_WALKS:
        shapes.append((f"loop{walk}", Asm()
                       .mov64_imm(R2, rng.randrange(1 << 30))
                       .ld_imm64(R0, walk // 2)
                       .label("top")
                       .alu64_imm("sub", R0, 1)
                       .jmp_imm("jne", R0, 0, "top")
                       .exit_()
                       .program(), ProgType.KPROBE))
    for size in FLAT_SIZES:
        asm = Asm().mov64_imm(R0, 0)
        for __ in range(size - 3):
            asm.alu64_imm("add", R0, rng.randrange(256))
        shapes.append((f"flat{size}", asm.alu64_imm("and", R0, 0)
                       .exit_().program(), ProgType.KPROBE))
    for branches in DIAMONDS:
        asm = Asm().mov64_imm(R2, rng.randrange(1 << 30)) \
            .mov64_imm(R0, 0)
        for index in range(branches):
            asm.jmp_imm("jeq", R1, index + 1, f"odd{index}")
            asm.alu64_imm("add", R0, 1)
            asm.ja(f"join{index}")
            asm.label(f"odd{index}")
            asm.alu64_imm("add", R0, 2)
            asm.label(f"join{index}")
        shapes.append((f"diamond{branches}", asm.alu64_imm("and", R0, 0)
                       .exit_().program(), ProgType.KPROBE))
    port = rng.randrange(1024, 65536)
    shapes += [
        ("xdp_pass_all", programs.pass_all_prog(), ProgType.XDP),
        ("xdp_port_filter", programs.port_filter_prog(port),
         ProgType.XDP),
        ("xdp_firewall", programs.firewall_prog(stats_fd, port),
         ProgType.XDP),
        ("xdp_redirect", programs.redirect_by_source_prog(
            devmap_fd, rng.choice((1, 3, 7))), ProgType.XDP),
        ("xdp_rewriter", programs.rewriter_prog(), ProgType.XDP),
    ]
    corpus = [Entry(name, insns, prog_type, True, insns_digest(insns))
              for name, insns, prog_type in shapes]

    pool = fuzz_pool()
    problems = []
    pool_digest = hashlib.sha256(
        "".join(insns_digest(p) for p in pool).encode()).hexdigest()
    if pool_digest != pins.FUZZ_POOL_DIGEST:
        problems.append("fuzz pool changed: its pinned verdicts no "
                        "longer apply")
    known = int(pins.FUZZ_VERDICTS, 16)
    accepted = [i for i in range(len(pool)) if known >> i & 1]
    rejected = [i for i in range(len(pool)) if not known >> i & 1]
    for index in stratified(rng, accepted, FUZZ_ACCEPTED, pool) \
            + stratified(rng, rejected, FUZZ_REJECTED, pool):
        corpus.append(Entry(f"fuzz{index}", pool[index],
                            ProgType.KPROBE, bool(known >> index & 1),
                            insns_digest(pool[index])))
    rng.shuffle(corpus)
    return corpus, problems


class ProgLoadWorkload:
    """Cold loads of a seeded corpus, then one cache hit each."""

    unit = "load"
    op = "cold load"
    #: at least 100 cold loads per run
    min_passes = 3

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed

    def setup(self, tracer: Optional[object]) -> Dict[str, object]:
        """Boot a kernel and subsystem (empty load cache), create the
        maps the canned programs reference, build the corpus."""
        bpf, stats, devmap = new_subsystem(
            tracer.helper_registry() if tracer else None)
        corpus, problems = build_corpus(self.seed, stats.map_fd,
                                        devmap.map_fd)
        return {"bpf": bpf, "corpus": corpus, "problems": problems}

    def run(self, state: Dict[str, object], tracer: Optional[object],
            clock: HostClock) -> PassResult:
        """Load the round: every program cold, accepted ones again."""
        from repro.errors import ReproError, VerifierError

        bpf = state["bpf"]
        problems = list(state["problems"])
        cold: List[float] = []
        hits: List[float] = []
        digest = hashlib.sha256()
        failed = accepted = insns_processed = 0
        if tracer:
            tracer.on = True
        for entry in state["corpus"]:
            mark = clock.start()
            try:
                prog = bpf.load_program(entry.insns, entry.prog_type,
                                        entry.name)
                verdict = "accept"
            except VerifierError:
                prog, verdict = None, "reject"
            except ReproError as error:
                prog, verdict = None, f"oops:{type(error).__name__}"
            cold.append(clock.stop(mark))
            digest.update(f"{entry.digest}:{verdict};".encode())
            if verdict != ("accept" if entry.accept else "reject"):
                failed += 1
                problems.append(f"{entry.name}: {verdict}, expected "
                                f"{'accept' if entry.accept else 'reject'}")
            if prog is None:
                continue
            accepted += 1
            insns_processed += prog.verifier_stats.insns_processed
            mark = clock.start()
            again = bpf.load_program(entry.insns, entry.prog_type,
                                     entry.name)
            hits.append(clock.stop(mark))
            if not again.verifier_stats.from_cache or \
                    again.verifier_stats.insns_processed != \
                    prog.verifier_stats.insns_processed:
                problems.append(f"{entry.name}: reload was not a "
                                "faithful cache hit")
        if tracer:
            tracer.on = False
        return PassResult(
            units=len(cold), op_samples=cold,
            attempted=len(cold), failed=failed,
            signature=digest.hexdigest(), problems=problems,
            counts={"accepted": accepted,
                    "insns_processed.accepted": insns_processed},
            info={"hit_samples": hits})
