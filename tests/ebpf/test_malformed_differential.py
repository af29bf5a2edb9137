"""Malformed-program parity: every engine rejects garbage identically.

The simulator explicitly supports running *unverified* programs — that
is how the attack corpus demonstrates what the verifier is for.  The
flip side is a contract on the engines themselves: undecodable,
truncated and out-of-range programs must fail with the same
:class:`~repro.errors.BpfRuntimeError` message, the same instruction
accounting, the same virtual-clock total and the same kernel state on
every tier, and no engine may leak its frame's stack allocation on
the way out.  Two real divergences motivated this suite (and are
regression-pinned here):

* truncated ``ld_imm64``: the pseudo (``BPF_PSEUDO_MAP_FD`` /
  ``BPF_PSEUDO_FUNC``) forms skipped the predecode bounds check, and
  the decode-per-step path let a raw ``IndexError`` escape instead of
  a ``BpfRuntimeError``;
* the precomputed signed jump immediates predecode promised but no
  engine consumed (now load-bearing in the compiled tier,
  exercised by the signed-jump case below).
"""

import pytest

from repro.ebpf import isa
from repro.ebpf.asm import Asm
from repro.ebpf.interpreter import ENGINES, BpfVm
from repro.ebpf.isa import R0, R2, Insn
from repro.ebpf.loader import BpfSubsystem, LoadedProgram
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier.analyzer import VerifierStats
from repro.errors import BpfRuntimeError
from repro.kernel import Kernel

LD_IMM64_OP = isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW


def _observe_failure(insns):
    """Run an unverified program on one engine per pass and capture
    the full failure observation: message, accounting, clock, taint,
    and whether the frame's stack allocation leaked."""
    seen = {}
    for engine in ENGINES:
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        vm = BpfVm(kernel, bpf, engine=engine)
        prog = LoadedProgram(1, "junk", ProgType.KPROBE, list(insns),
                             VerifierStats())
        ctx = kernel.mem.kmalloc(64, type_name="pt_regs", owner="test")
        with pytest.raises(BpfRuntimeError) as err:
            vm.run(prog, ctx.base)
        leaked = [a for a in kernel.mem.live_allocations(owner="bpf:junk")
                  if a.type_name == "bpf_stack"]
        seen[engine] = (str(err.value), vm.insns_executed,
                        kernel.clock.now_ns, kernel.log.tainted,
                        len(leaked))
    baseline = seen["interp"]
    for engine, obs in seen.items():
        assert obs == baseline, (
            f"{engine} diverged: interp={baseline}, {engine}={obs}")
    assert baseline[4] == 0, f"stack allocation leaked: {baseline}"
    return baseline


class TestTruncatedLdImm64:
    """All three ``ld_imm64`` forms, truncated to one slot at the end
    of the program, must raise the same decode error everywhere."""

    @pytest.mark.parametrize("src", [0, isa.BPF_PSEUDO_MAP_FD,
                                     isa.BPF_PSEUDO_FUNC],
                             ids=["generic", "map_fd", "func"])
    def test_truncated_forms_agree(self, src):
        insns = [
            Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, 0, 0, 0, 0),
            Insn(LD_IMM64_OP, 2, src, 0, 7),   # second slot missing
        ]
        message, executed, _, _, _ = _observe_failure(insns)
        assert message == "incomplete ld_imm64 at 1"
        assert executed == 2  # the mov, plus the bad slot itself

    def test_truncated_as_first_insn(self):
        message, executed, _, _, _ = _observe_failure(
            [Insn(LD_IMM64_OP, 2, 0, 0, 7)])
        assert message == "incomplete ld_imm64 at 0"
        assert executed == 1


class TestOutOfRangePc:
    def test_fall_off_the_end(self):
        message, executed, _, _, _ = _observe_failure(
            [Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K,
                  0, 0, 0, 0)])
        assert message == "pc out of range: 1"
        assert executed == 1

    def test_empty_program(self):
        message, executed, _, _, _ = _observe_failure([])
        assert message == "pc out of range: 0"
        assert executed == 0

    def test_ja_beyond_the_end(self):
        message, _, _, _, _ = _observe_failure(
            [Insn(isa.BPF_JMP | isa.BPF_JA, 0, 0, 100, 0),
             Insn(isa.BPF_JMP | isa.BPF_EXIT)])
        assert message == "pc out of range: 101"

    def test_ja_before_the_start(self):
        message, _, _, _, _ = _observe_failure(
            [Insn(isa.BPF_JMP | isa.BPF_JA, 0, 0, -5, 0),
             Insn(isa.BPF_JMP | isa.BPF_EXIT)])
        assert message == "pc out of range: -4"

    def test_taken_conditional_beyond_the_end(self):
        # jsgt with a negative immediate: exercises the precomputed
        # signed immediate in the taken decision on every tier
        insns = [
            Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, 0, 0, 0, 5),
            Insn(isa.BPF_JMP | isa.BPF_JSGT | isa.BPF_K,
                 0, 0, 50, -3),
            Insn(isa.BPF_JMP | isa.BPF_EXIT),
        ]
        message, executed, _, _, _ = _observe_failure(insns)
        assert message == "pc out of range: 52"
        assert executed == 2

    def test_untaken_conditional_falls_through(self):
        # same shape, but r0 makes the signed compare false — every
        # engine must fall through to EXIT instead of jumping
        insns = [
            Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K,
                 0, 0, 0, -7),
            Insn(isa.BPF_JMP | isa.BPF_JSGT | isa.BPF_K,
                 0, 0, 50, -3),
            Insn(isa.BPF_JMP | isa.BPF_EXIT),
        ]
        seen = {}
        for engine in ENGINES:
            kernel = Kernel()
            bpf = BpfSubsystem(kernel)
            vm = BpfVm(kernel, bpf, engine=engine)
            prog = LoadedProgram(1, "junk", ProgType.KPROBE, insns,
                                 VerifierStats())
            ctx = kernel.mem.kmalloc(64, type_name="pt_regs",
                                     owner="test")
            seen[engine] = (vm.run(prog, ctx.base),
                            vm.insns_executed, kernel.clock.now_ns)
        assert len(set(seen.values())) == 1, seen


class TestUndecodable:
    def test_bad_opcode(self):
        # BPF_LD | BPF_ABS: a real opcode the simulator doesn't model
        message, _, _, _, _ = _observe_failure(
            [Insn(0x20, 0, 0, 0, 0),
             Insn(isa.BPF_JMP | isa.BPF_EXIT)])
        assert "unsupported opcode" in message

    def test_unsupported_alu_op(self):
        # BPF_END is not in the simulator's ALU repertoire
        message, _, _, _, _ = _observe_failure(
            [Insn(isa.BPF_ALU64 | 0xD0 | isa.BPF_K, 0, 0, 0, 16),
             Insn(isa.BPF_JMP | isa.BPF_EXIT)])
        assert "unsupported" in message

    def test_bad_opcode_mid_program_counts_prefix(self):
        _, executed, clock_ns, _, _ = _observe_failure(
            [Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K,
                  0, 0, 0, 1),
             Insn(isa.BPF_ALU64 | isa.BPF_ADD | isa.BPF_K,
                  0, 0, 0, 1),
             Insn(0xFF, 0, 0, 0, 0)])
        assert executed == 3
        assert clock_ns == 3


class TestRuntimeLimits:
    def test_call_depth_agrees(self):
        # a subprogram that calls itself: depth 9 must be refused with
        # the same message and accounting on every engine
        insns = (Asm()
                 .call_subprog("self")
                 .exit_()
                 .label("self")
                 .call_subprog("self")
                 .exit_()
                 .program())
        message, _, _, _, _ = _observe_failure(insns)
        assert message == "call depth exceeded at run time"

    def test_deep_stack_frames_all_freed(self):
        # nested (non-recursive) calls: every frame's 512-byte stack
        # must be freed on success, on every engine
        for engine in ENGINES:
            kernel = Kernel()
            bpf = BpfSubsystem(kernel)
            vm = BpfVm(kernel, bpf, engine=engine)
            insns = (Asm()
                     .call_subprog("a")
                     .exit_()
                     .label("a")
                     .call_subprog("b")
                     .exit_()
                     .label("b")
                     .mov64_imm(R0, 9)
                     .exit_()
                     .program())
            prog = LoadedProgram(1, "deep", ProgType.KPROBE, insns,
                                 VerifierStats())
            ctx = kernel.mem.kmalloc(64, type_name="pt_regs",
                                     owner="test")
            assert vm.run(prog, ctx.base) == 9
            assert not [a for a in
                        kernel.mem.live_allocations(owner="bpf:deep")
                        if a.type_name == "bpf_stack"], engine

    def test_oops_path_frees_stack_everywhere(self):
        # a wild store raises KernelOops (not BpfRuntimeError) — the
        # unwind must still free the frame stack on every engine
        from repro.errors import KernelOops
        insns = (Asm()
                 .ld_imm64(R2, 0xDEAD_0000)
                 .st_imm(8, R2, 0, 1)
                 .mov64_imm(R0, 0)
                 .exit_()
                 .program())
        for engine in ENGINES:
            kernel = Kernel()
            bpf = BpfSubsystem(kernel)
            vm = BpfVm(kernel, bpf, engine=engine)
            prog = LoadedProgram(1, "wild", ProgType.KPROBE, insns,
                                 VerifierStats())
            ctx = kernel.mem.kmalloc(64, type_name="pt_regs",
                                     owner="test")
            with pytest.raises(KernelOops):
                vm.run(prog, ctx.base)
            assert not [a for a in
                        kernel.mem.live_allocations(owner="bpf:wild")
                        if a.type_name == "bpf_stack"], engine
