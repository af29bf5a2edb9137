"""§2.1 expressiveness experiment: the verifier rejects correct code.

"The verifier frequently reports false positives that unnecessarily
force developers to heavily massage correct eBPF code to pass the
verifier [19, 39, 50] ... developers need to find ways to break their
program into small pieces ... The result is reduced programmability
and increased performance overhead [29]."

Measured here:

1. **false positives** — three *correct* programs (each paired with a
   runtime demonstration of its correctness) that the verifier
   rejects: a data-dependent loop bound, a provably-in-bounds access
   the bounds tracking can't see through, and safe repetitive work
   exceeding the size cap.  Each runs fine as a SafeLang extension on
   the same kernel.
2. **the massage tax** — for each false positive, the verifier-
   friendly rewrite (the "massage") and what it costs: more
   instructions, a hard cap on behaviour, or both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import SafeExtensionFramework
from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0, R1, R2, R3, R6, R10
from repro.errors import VerifierError
from repro.experiments import report
from repro.kernel import Kernel


@dataclass
class FalsePositive:
    """One correct-but-rejected program."""

    name: str
    why_correct: str
    rejection: str
    massage: str
    massage_cost: str
    #: the same logic ran fine under the proposed framework
    safelang_value: Optional[int] = None
    safelang_expected: Optional[int] = None

    @property
    def safelang_ok(self) -> bool:
        """The same logic ran correctly under the proposal."""
        return self.safelang_value == self.safelang_expected


@dataclass
class ExpressivenessResult:
    """All observed false positives."""

    cases: List[FalsePositive]

    @property
    def all_rejected_yet_correct(self) -> bool:
        """Every case is a demonstrated verifier false positive."""
        return all(case.rejection and case.safelang_ok
                   for case in self.cases)


def _data_dependent_loop(kernel: Kernel) -> FalsePositive:
    """A loop whose bound comes from a map value.  The operator only
    ever writes bounds <= 8, so the program is correct — but the
    verifier sees an unknown 64-bit scalar and must assume the worst."""
    bpf = BpfSubsystem(kernel)
    amap = bpf.create_map("array", key_size=4, value_size=8,
                          max_entries=1)
    amap.update((0).to_bytes(4, "little"), (5).to_bytes(8, "little"))
    program = (Asm()
               .st_imm(4, R10, -4, 0)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, amap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               .jmp_imm("jne", R0, 0, "have")
               .mov64_imm(R0, 0).exit_()
               .label("have")
               .ldx(8, R6, R0, 0)          # bound from the map
               .mov64_imm(R0, 0)
               .label("top")
               .jmp_imm("jeq", R6, 0, "done")
               .alu64_imm("add", R0, 1)
               .alu64_imm("sub", R6, 1)
               .ja("top")
               .label("done")
               .exit_()
               .program())
    rejection = ""
    try:
        bpf.load_program(program, ProgType.KPROBE, "dd_loop")
    except VerifierError as error:
        rejection = str(error)

    framework = SafeExtensionFramework(kernel)
    loaded = framework.install("""
    fn prog(ctx: XdpCtx) -> i64 {
        let mut bound: u64 = 0;
        match map_lookup(0, 0) {
            Some(v) => { bound = v; },
            None => { },
        }
        let mut acc: u64 = 0;
        while bound > 0 {
            acc = acc + 1;
            bound = bound - 1;
        }
        return acc as i64;
    }
    """, "dd_loop", maps=[amap])
    value = framework.run_on_packet(loaded, b"x").value

    return FalsePositive(
        name="data-dependent loop bound",
        why_correct="the map's writer guarantees bounds <= 8; the "
                    "program terminates after at most 8 iterations",
        rejection=rejection,
        massage="clamp the bound with `if r6 > 8` or unroll to a "
                "compile-time constant",
        massage_cost="extra instructions per loop + a hard behaviour "
                     "cap baked into the binary",
        safelang_value=value,
        safelang_expected=5,
    )


def _opaque_bounds(kernel: Kernel) -> FalsePositive:
    """An access that is in bounds because (x * 8) % 16 is always
    0 or 8 — arithmetic the tnum/range tracking cannot fully see
    through after a multiplication and a modulo by a register."""
    bpf = BpfSubsystem(kernel)
    amap = bpf.create_map("array", key_size=4, value_size=16,
                          max_entries=1)
    program = (Asm()
               .st_imm(4, R10, -4, 0)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, amap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               .jmp_imm("jne", R0, 0, "have")
               .mov64_imm(R0, 0).exit_()
               .label("have")
               .ldx(8, R3, R0, 0)
               .alu64_imm("mul", R3, 8)      # x * 8: multiple of 8
               .mov64_imm(R6, 16)
               .alu64_reg("mod", R3, R6)     # mod by a REGISTER: the
                                             # tracker gives up
               .alu64_reg("add", R0, R3)     # offset is 0 or 8
               .st_imm(8, R0, 0, 1)          # 8 + 8 <= 16: correct
               .mov64_imm(R0, 0)
               .exit_()
               .program())
    rejection = ""
    try:
        bpf.load_program(program, ProgType.KPROBE, "opaque")
    except VerifierError as error:
        rejection = str(error)

    framework = SafeExtensionFramework(kernel)
    loaded = framework.install("""
    fn prog(ctx: XdpCtx) -> i64 {
        let mut x: u64 = 0;
        match map_lookup(0, 0) {
            Some(v) => { x = v; },
            None => { },
        }
        let off = (x * 8) % 16;       // 0 or 8, checked arithmetic
        map_update(0, 0, off);
        return off as i64;
    }
    """, "opaque", maps=[amap])
    value = framework.run_on_packet(loaded, b"x").value

    return FalsePositive(
        name="provably-aligned offset via mul+mod",
        why_correct="(x * 8) % 16 is always 0 or 8, so off + 8 <= 16",
        rejection=rejection,
        massage="replace `% r6` with `& 15`, then AND with 8 — "
                "rewrite arithmetic until the abstract domain can "
                "follow it",
        massage_cost="the developer must know which exact operator "
                     "sequences the verifier's domains track",
        safelang_value=value,
        safelang_expected=0,
    )


def _size_cap(kernel: Kernel) -> FalsePositive:
    """Trivially safe repetitive work that exceeds the 4096-insn cap —
    the 'break your program into small pieces' forcing function [20]."""
    bpf = BpfSubsystem(kernel)
    asm = Asm().mov64_imm(R0, 0)
    for index in range(5000):
        asm.alu64_imm("add", R0, 1)
    asm.alu64_imm("and", R0, 0)
    asm.exit_()
    rejection = ""
    try:
        bpf.load_program(asm.program(), ProgType.KPROBE, "big")
    except VerifierError as error:
        rejection = str(error)

    framework = SafeExtensionFramework(kernel)
    loaded = framework.install("""
    fn prog(ctx: XdpCtx) -> i64 {
        let mut acc: u64 = 0;
        for i in 0..5000 {
            acc = acc + 1;
        }
        if acc == 5000 { return 0; }
        return 1;
    }
    """, "big")
    value = framework.run_on_packet(loaded, b"x").value

    return FalsePositive(
        name="safe work beyond the size cap",
        why_correct="5000 independent additions; nothing to verify "
                    "beyond repetition",
        rejection=rejection,
        massage="split into multiple programs chained with "
                "bpf_tail_call [20]",
        massage_cost="tail-call plumbing, shared state through maps, "
                     "33-call runtime ceiling — 'reduced "
                     "programmability and increased performance "
                     "overhead' [29]",
        safelang_value=value,
        safelang_expected=0,
    )


def run() -> ExpressivenessResult:
    """Collect the three false positives."""
    return ExpressivenessResult(cases=[
        _data_dependent_loop(Kernel()),
        _opaque_bounds(Kernel()),
        _size_cap(Kernel()),
    ])


def render(result: ExpressivenessResult) -> str:
    """The §2.1 expressiveness artifact."""
    rows = []
    for case in result.cases:
        rows.append((case.name,
                     case.rejection[:58] + "..."
                     if len(case.rejection) > 58 else case.rejection,
                     f"ran, returned {case.safelang_value}"))
    parts = [report.render_table(
        ["correct program", "verifier says", "proposed framework"],
        rows,
        title="§2.1: false positives — correct code the verifier "
              "rejects")]
    parts.append("")
    parts.append(report.render_table(
        ["case", "the massage", "what it costs"],
        [(c.name, c.massage, c.massage_cost) for c in result.cases],
        title="The massage tax"))
    parts.append("")
    parts.append("Shape checks:")
    for case in result.cases:
        parts.append(report.check(
            f"{case.name}: rejected by the verifier yet correct "
            "(SafeLang ran it)",
            bool(case.rejection) and case.safelang_ok))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
