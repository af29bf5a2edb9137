"""Copy and ownership contracts of the verifier's state objects, and
the per-instruction state-count metric.

The walk copies a register for every checkpoint and fork, so
:meth:`RegState.copy` is hand-written field by field; these tests make
sure it can never silently drop a field, that copies are independent,
and that an explored state handed to :class:`ExploredStates` is the
walk's own snapshot — later mutation of the live state cannot reach it.
"""

import dataclasses

from repro.ebpf.asm import Asm
from repro.ebpf.isa import R0, R1
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier import analyzer
from repro.ebpf.verifier.regstate import RegState, RegType
from repro.ebpf.verifier.states import ExploredStates, VerifierState


def _diamonds(branches):
    asm = Asm().mov64_imm(R0, 0)
    for index in range(branches):
        asm.jmp_imm("jeq", R1, index + 1, f"odd{index}")
        asm.alu64_imm("add", R0, 1)
        asm.ja(f"join{index}")
        asm.label(f"odd{index}")
        asm.alu64_imm("add", R0, 2)
        asm.label(f"join{index}")
    return asm.alu64_imm("and", R0, 0).exit_().program()


class TestRegStateCopy:
    def test_copies_every_field(self):
        reg = RegState()
        sentinels = {}
        for spec in dataclasses.fields(RegState):
            sentinels[spec.name] = object()
            setattr(reg, spec.name, sentinels[spec.name])
        copy = reg.copy()
        for name, sentinel in sentinels.items():
            assert getattr(copy, name) is sentinel, name

    def test_copy_is_independent(self):
        reg = RegState.pointer(RegType.PTR_TO_STACK, off=-8, frameno=1)
        copy = reg.copy()
        assert copy is not reg and copy == reg
        copy.mark_unknown()
        copy.set_const(7)
        assert reg.type is RegType.PTR_TO_STACK
        assert (reg.off, reg.frameno, reg.umax) == (-8, 1, 0)

    def test_state_copy_is_independent(self):
        state = VerifierState()
        state.cur.regs[0] = RegState.const_scalar(1)
        fork = state.copy()
        fork.cur.regs[0].set_const(2)
        fork.cur.regs[1] = RegState.unknown_scalar()
        assert state.cur.regs[0].const_value == 1
        assert state.cur.regs[1].type is RegType.NOT_INIT


class TestExploredOwnership:
    def test_remember_keeps_the_given_snapshot(self):
        explored = ExploredStates()
        snapshot = VerifierState()
        explored.remember(3, snapshot)
        assert explored._by_insn[3][0] is snapshot

    def test_remembered_state_survives_live_mutation(self, bpf,
                                                     monkeypatch):
        # the walk checks coverage with its live state immediately
        # before taking the checkpoint snapshot; record what it looked
        # like then, and require every remembered state to still look
        # exactly like that after the whole walk has moved on
        seen = {}
        stores = []

        class Recording(ExploredStates):
            def is_covered(self, insn_idx, state):
                covered = super().is_covered(insn_idx, state)
                if not covered:
                    seen.setdefault(insn_idx, set()).add(
                        state.state_key())
                return covered

            def remember(self, insn_idx, state):
                stores.append((insn_idx, state))
                super().remember(insn_idx, state)

        monkeypatch.setattr(analyzer, "ExploredStates", Recording)
        prog = bpf.load_program(_diamonds(8), ProgType.KPROBE, "own")
        assert len(stores) == prog.verifier_stats.states_explored
        for insn_idx, state in stores:
            assert state.state_key() in seen[insn_idx]


class TestMaxStatesPerInsn:
    def test_diamond_chain_fills_a_bucket(self, bpf):
        stats = bpf.load_program(_diamonds(64), ProgType.KPROBE,
                                 "d64").verifier_stats
        assert stats.max_states_per_insn == \
            ExploredStates().max_states_per_insn

    def test_reports_the_busiest_insn(self, bpf):
        # n diamonds: the final join is reached by n + 1 distinct r0
        # values, all below the cap
        stats = bpf.load_program(_diamonds(4), ProgType.KPROBE,
                                 "d4").verifier_stats
        assert stats.max_states_per_insn == 5

    def test_straight_line_stores_one(self, bpf):
        program = Asm().mov64_imm(R0, 0).exit_().program()
        stats = bpf.load_program(program, ProgType.KPROBE,
                                 "flat").verifier_stats
        assert stats.max_states_per_insn == 1
