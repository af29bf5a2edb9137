"""Verifier tests: structural checks, register init, exit rules."""

import pytest

from repro.ebpf import isa
from repro.ebpf.asm import Asm
from repro.ebpf.isa import Insn, R0, R1, R2, R5, R10
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier.limits import VerifierLimits
from repro.errors import VerifierError, VerifierLimitExceeded


def expect_reject(load, program, needle, **kwargs):
    with pytest.raises(VerifierError) as exc_info:
        load(program, **kwargs)
    assert needle in str(exc_info.value), str(exc_info.value)


class TestStructural:
    def test_empty_program(self, load):
        expect_reject(load, [], "empty")

    def test_too_long_program(self, load):
        asm = Asm()
        for __ in range(5000):
            asm.mov64_imm(R0, 0)
        asm.exit_()
        with pytest.raises(VerifierLimitExceeded):
            load(asm.program())

    def test_jump_out_of_range(self, load):
        expect_reject(load, Asm().ja(100).exit_().program(),
                      "out of range")

    def test_backward_jump_out_of_range(self, load):
        expect_reject(load, Asm().ja(-5).exit_().program(),
                      "out of range")

    def test_last_insn_must_be_exit_or_ja(self, load):
        expect_reject(load, Asm().mov64_imm(R0, 0).program(),
                      "last insn")

    def test_jump_into_ld_imm64_second_slot(self, load):
        program = (Asm()
                   .jmp_imm("jeq", R1, 0, 1)
                   .ld_imm64(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "ld_imm64")

    def test_incomplete_ld_imm64(self, load):
        program = [Insn(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, 0, 0,
                        0, 0)]
        expect_reject(load, program, "incomplete")

    def test_unknown_map_fd(self, load):
        program = Asm().ld_map_fd(R1, 99).mov64_imm(R0, 0).exit_() \
            .program()
        expect_reject(load, program, "unknown map fd")

    def test_minimal_program_accepted(self, load):
        prog = load(Asm().mov64_imm(R0, 0).exit_().program())
        assert prog.verifier_stats.insns_processed == 2


class TestRegisterInit:
    def test_uninitialized_read_rejected(self, load):
        expect_reject(load,
                      Asm().mov64_reg(R0, R5).exit_().program(),
                      "!read_ok")

    def test_r1_is_ctx_at_entry(self, load):
        # dereferencing ctx at a valid offset works
        prog = load(Asm().ldx(8, R0, R1, 0).exit_().program())
        assert prog is not None

    def test_r2_to_r5_uninitialized(self, load):
        expect_reject(load,
                      Asm().mov64_reg(R0, R2).exit_().program(),
                      "!read_ok")

    def test_r10_read_only(self, load):
        expect_reject(load,
                      Asm().mov64_imm(R10, 0).exit_().program(),
                      "read only")

    def test_r0_must_be_set_before_exit(self, load):
        expect_reject(load, Asm().exit_().program(), "R0 !read_ok")

    def test_callee_saved_preserved_across_helper(self, load, bpf):
        from repro.ebpf.helpers import ids
        from repro.ebpf.isa import R6
        program = (Asm()
                   .mov64_imm(R6, 7)
                   .call(ids.BPF_FUNC_ktime_get_ns)
                   .mov64_reg(R0, R6)    # r6 must survive the call
                   .exit_()
                   .program())
        load(program)

    def test_caller_saved_clobbered_by_helper(self, load):
        from repro.ebpf.helpers import ids
        program = (Asm()
                   .mov64_imm(R1, 7)
                   .call(ids.BPF_FUNC_ktime_get_ns)
                   .mov64_reg(R0, R1)    # r1 is dead after the call
                   .exit_()
                   .program())
        expect_reject(load, program, "!read_ok")


class TestReturnValue:
    def test_xdp_range_enforced(self, load):
        expect_reject(load, Asm().mov64_imm(R0, 7).exit_().program(),
                      "return value", prog_type=ProgType.XDP)

    def test_xdp_valid_verdicts(self, load):
        for verdict in range(5):
            load(Asm().mov64_imm(R0, verdict).exit_().program(),
                 prog_type=ProgType.XDP)

    def test_kprobe_any_return(self, load):
        load(Asm().mov64_imm(R0, -12345).exit_().program())

    def test_pointer_return_rejected(self, load):
        program = Asm().mov64_reg(R0, R10).exit_().program()
        expect_reject(load, program, "scalar at")

    def test_socket_filter_range(self, load):
        load(Asm().mov64_imm(R0, 0xFFFF).exit_().program(),
             prog_type=ProgType.SOCKET_FILTER)
        expect_reject(load,
                      Asm().mov64_imm(R0, 0x10000).exit_().program(),
                      "return value",
                      prog_type=ProgType.SOCKET_FILTER)

    def test_unknown_scalar_return_rejected_for_xdp(self, load):
        # a fully unknown ctx load cannot be proven within [0, 4]
        program = Asm().ldx(4, R0, R1, 0).exit_().program()
        expect_reject(load, program, "return value",
                      prog_type=ProgType.XDP)


class TestTermination:
    def test_self_loop_rejected(self, load):
        expect_reject(load,
                      Asm().label("x").ja("x").program(),
                      "infinite loop")

    def test_two_insn_loop_rejected(self, load):
        program = (Asm()
                   .label("a")
                   .mov64_imm(R0, 0)
                   .ja("a")
                   .program())
        expect_reject(load, program, "infinite loop")

    def test_dead_code_after_loop_rejected_as_unreachable(self, load):
        # the real verifier rejects this shape for its dead exit
        program = Asm().label("x").ja("x").exit_().program()
        expect_reject(load, program, "unreachable")

    def test_counting_loop_without_progress_rejected(self, load):
        # r0 constant each iteration -> identical state -> loop
        program = (Asm()
                   .mov64_imm(R0, 5)
                   .label("top")
                   .mov64_imm(R0, 5)
                   .jmp_imm("jne", R0, 0, "top")
                   .exit_()
                   .program())
        expect_reject(load, program, "infinite loop")

    def test_converging_branches_are_not_a_loop(self, load):
        # both sides of an unrefined fork reach "join" in the same
        # state.  The parent walk checkpointed "join" after the fork,
        # so the taken walk meeting that state is path convergence,
        # not a cycle: only checkpoints before the fork are on its path
        program = (Asm()
                   .mov64_imm(R0, 0)
                   .jmp_imm("jeq", R1, 0, "join")
                   .label("join")
                   .exit_()
                   .program())
        prog = load(program)
        assert prog.verifier_stats.states_explored == 3

    def test_bounded_loop_accepted(self, load):
        program = (Asm()
                   .mov64_imm(R0, 10)
                   .label("top")
                   .alu64_imm("sub", R0, 1)
                   .jmp_imm("jne", R0, 0, "top")
                   .exit_()
                   .program())
        prog = load(program)
        # walked iteration by iteration
        assert prog.verifier_stats.insns_processed >= 20

    def test_unbounded_progress_loop_hits_budget(self, load):
        # r0 grows forever: state changes every iteration until the
        # complexity cap fires
        program = (Asm()
                   .mov64_imm(R0, 1)
                   .label("top")
                   .alu64_imm("add", R0, 1)
                   .jmp_imm("jne", R0, 0, "top")
                   .exit_()
                   .program())
        with pytest.raises(VerifierLimitExceeded):
            load(program,
                 limits=VerifierLimits(complexity_limit=5000))

    def test_trailing_jump_off_end_rejected(self, load):
        # last insn is ja +0 -> target past the program end
        program = (Asm()
                   .mov64_imm(R0, 0)
                   .ja(0)
                   .program())
        expect_reject(load, program, "out of range")


class TestUnprivilegedLoading:
    """The [22] posture: the kernel community's own response to
    verifier distrust was to turn unprivileged eBPF off."""

    def test_disabled_by_default(self, bpf):
        program = Asm().mov64_imm(R0, 0).exit_().program()
        with pytest.raises(VerifierError) as exc_info:
            bpf.load_program(program, ProgType.SOCKET_FILTER, "t",
                             unprivileged=True)
        assert "unprivileged_bpf_disabled" in str(exc_info.value)

    def test_sysctl_reenables(self, bpf):
        bpf.unprivileged_bpf_disabled = False
        program = Asm().mov64_imm(R0, 0).exit_().program()
        prog = bpf.load_program(program, ProgType.SOCKET_FILTER, "t",
                                unprivileged=True)
        assert prog is not None

    def test_unprivileged_gets_tight_complexity_cap(self, bpf):
        bpf.unprivileged_bpf_disabled = False
        # bounded loop whose walk exceeds the unprivileged budget but
        # not the privileged one
        asm = (Asm()
               .ld_imm64(R0, 66_000)
               .label("top")
               .alu64_imm("sub", R0, 1)
               .jmp_imm("jne", R0, 0, "top")
               .exit_())
        program = asm.program()
        bpf.load_program(program, ProgType.KPROBE, "priv")
        with pytest.raises(VerifierLimitExceeded):
            bpf.load_program(program, ProgType.KPROBE, "unpriv",
                             unprivileged=True)

    def test_unprivileged_never_leaks_pointers(self, bpf):
        bpf.unprivileged_bpf_disabled = False
        program = (Asm()
                   .mov64_reg(R2, R10)
                   .alu64_reg("sub", R2, R10)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        # privileged: allowed with allow_ptr_leaks
        bpf.load_program(program, ProgType.KPROBE, "priv",
                         allow_ptr_leaks=True)
        # unprivileged: the flag is ignored
        with pytest.raises(VerifierError):
            bpf.load_program(program, ProgType.KPROBE, "unpriv",
                             unprivileged=True, allow_ptr_leaks=True)
