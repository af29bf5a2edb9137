"""The verifier's symbolic-execution engine (``do_check`` analogue).

Walks every reachable path of a program, tracking abstract register,
stack, reference and lock state, and rejects anything it cannot prove
safe — within hard complexity limits, which is precisely the tension
the paper examines: the limits bound verification cost but also bound
program expressiveness (§2.1), and what the proofs *don't* cover is
whatever happens inside helper functions (§2.2).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ebpf import isa
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers.base import ArgType, HelperSpec
from repro.ebpf.helpers.registry import HelperRegistry
from repro.ebpf.isa import Insn
from repro.ebpf.verifier import bounds
from repro.ebpf.verifier.limits import VerifierLimits
from repro.ebpf.verifier.regstate import (
    ARITH_OK_TYPES,
    OR_NULL_TYPES,
    FuncFrame,
    RegState,
    RegType,
    SlotKind,
    StackSlot,
    S64_MAX,
    S64_MIN,
    U64_MAX,
    u64_to_s64,
)
from repro.ebpf.verifier.states import ExploredStates, VerifierState
from repro.ebpf.verifier.tnum import Tnum
from repro.errors import VerifierError, VerifierLimitExceeded
from repro.ebpf.progs import CtxFieldKind, PROG_TYPE_INFO, ProgType


_LD_IMM64 = isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW
_ALU_CLASSES = (isa.BPF_ALU, isa.BPF_ALU64)
_MEM_CLASSES = (isa.BPF_LDX, isa.BPF_STX, isa.BPF_ST)
_JMP_CLASSES = (isa.BPF_JMP, isa.BPF_JMP32)

_SCALAR = RegType.SCALAR
_PKT = RegType.PTR_TO_PACKET
_PKT_END = RegType.PTR_TO_PACKET_END


def _const_equal(dst: RegState, src: RegState) -> bool:
    return dst.is_const and src.is_const \
        and dst.const_value == src.const_value


def _disjoint(dst: RegState, src: RegState) -> bool:
    return dst.umin > src.umax or dst.umax < src.umin


#: conditional jump -> (always taken?, never taken?) over the two
#: scalar operands' ranges (``is_branch_taken``)
_BRANCH_TAKEN = {
    "jeq": (_const_equal, _disjoint),
    "jne": (_disjoint, _const_equal),
    "jgt": (lambda dst, src: dst.umin > src.umax,
            lambda dst, src: dst.umax <= src.umin),
    "jge": (lambda dst, src: dst.umin >= src.umax,
            lambda dst, src: dst.umax < src.umin),
    "jlt": (lambda dst, src: dst.umax < src.umin,
            lambda dst, src: dst.umin >= src.umax),
    "jle": (lambda dst, src: dst.umax <= src.umin,
            lambda dst, src: dst.umin > src.umax),
    "jsgt": (lambda dst, src: dst.smin > src.smax,
             lambda dst, src: dst.smax <= src.smin),
    "jsge": (lambda dst, src: dst.smin >= src.smax,
             lambda dst, src: dst.smax < src.smin),
    "jslt": (lambda dst, src: dst.smax < src.smin,
             lambda dst, src: dst.smin >= src.smax),
    "jsle": (lambda dst, src: dst.smax <= src.smin,
             lambda dst, src: dst.smin > src.smax),
}

#: conditional jump -> (comparison on two known values, signed?)
_CONCRETE_JUMPS = {
    "jeq": (operator.eq, False), "jne": (operator.ne, False),
    "jgt": (operator.gt, False), "jge": (operator.ge, False),
    "jlt": (operator.lt, False), "jle": (operator.le, False),
    "jset": (lambda dst, src: bool(dst & src), False),
    "jsgt": (operator.gt, True), "jsge": (operator.ge, True),
    "jslt": (operator.lt, True), "jsle": (operator.le, True),
}

#: (conditional jump, branch taken?) -> the relation between dst and
#: src that holds on that side of the branch
_EFFECTIVE_RELATION = {
    ("jeq", True): "eq", ("jeq", False): "ne",
    ("jne", True): "ne", ("jne", False): "eq",
    ("jgt", True): "gt", ("jgt", False): "le",
    ("jge", True): "ge", ("jge", False): "lt",
    ("jlt", True): "lt", ("jlt", False): "ge",
    ("jle", True): "le", ("jle", False): "gt",
    ("jsgt", True): "sgt", ("jsgt", False): "sle",
    ("jsge", True): "sge", ("jsge", False): "slt",
    ("jslt", True): "slt", ("jslt", False): "sge",
    ("jsle", True): "sle", ("jsle", False): "sgt",
}


class VerifierInternalFault(Exception):
    """The verifier *itself* crashed — models the use-after-free in the
    loop-inlining code [54].  The loader converts this into a kernel
    oops attributed to the verifier."""


@dataclass
class VerifierConfig:
    """Knobs for one verification run."""

    limits: VerifierLimits = field(default_factory=VerifierLimits)
    bugs: BugConfig = field(default_factory=BugConfig)
    #: privileged loaders may leak pointers (CAP_PERFMON behaviour)
    allow_ptr_leaks: bool = False
    #: explored-state pruning (ablation knob; off = path explosion)
    prune_states: bool = True
    #: 1 = errors only; 2 = per-instruction trace with register
    #: state, like ``bpftool prog load ... verifier_log``
    log_level: int = 1


@dataclass
class VerifierStats:
    """What one verification run cost — the §2.1 expense metrics."""

    insns_processed: int = 0
    states_explored: int = 0
    prune_hits: int = 0
    peak_pending: int = 0
    max_states_per_insn: int = 0
    wall_time_s: float = 0.0
    log: List[str] = field(default_factory=list)
    #: True when these stats were replayed from the load cache rather
    #: than produced by a fresh verification run
    from_cache: bool = False


class _WalkRecord:
    """Branch bookkeeping for one walk (the kernel's
    ``state->branches``).  A walk's checkpoints may only become prune
    bases once the walk *and every branch it forked* have completed —
    otherwise a pending backward branch can prune against a state
    whose loop-exit side was never proven, and the verifier accepts a
    program that spins forever at run time."""

    __slots__ = ("parent", "parent_pos", "open_branches", "done",
                 "trace", "inflight", "seq")

    def __init__(self, parent: Optional["_WalkRecord"],
                 parent_pos: int = 0) -> None:
        self.parent = parent
        #: how many checkpoints the parent had taken when it forked
        #: this walk — only those precede this walk on the execution
        #: path (later parent checkpoints belong to the fall path, and
        #: matching one of them is path convergence, not a cycle)
        self.parent_pos = parent_pos
        #: forked branches not yet fully explored (subtree-complete)
        self.open_branches = 0
        self.done = False
        #: checkpoints awaiting commit: (insn_idx, state snapshot)
        self.trace: List[Tuple[int, VerifierState]] = []
        #: insn -> state key -> checkpoint position, for loop
        #: detection across this walk and its descendants.  A key is
        #: entered at most once per record: a repeat within the
        #: record is rejected as a loop before it could be entered
        self.inflight: Dict[int, Dict[tuple, int]] = {}
        #: checkpoints taken so far (positions the entries above use)
        self.seq = 0


class Verifier:
    """Verify one program against one kernel configuration."""

    def __init__(self, insns: Sequence[Insn], prog_type: ProgType,
                 registry: HelperRegistry,
                 maps_by_fd: Dict[int, object],
                 config: Optional[VerifierConfig] = None) -> None:
        self.insns = list(insns)
        self.prog_type = prog_type
        self.type_info = PROG_TYPE_INFO[prog_type]
        self.registry = registry
        self.maps_by_fd = maps_by_fd
        self.config = config or VerifierConfig()
        self.stats = VerifierStats()
        self._jump_targets: Set[int] = set()
        self._ld64_second_slots: Set[int] = set()
        self._loop_inline_count = 0

    # -- public API ---------------------------------------------------------

    def verify(self) -> VerifierStats:
        """Run verification; raises :class:`VerifierError` on rejection."""
        start = time.perf_counter()
        try:
            self._structural_checks()
            self._symbolic_execution()
        finally:
            self.stats.wall_time_s = time.perf_counter() - start
        return self.stats

    # -- logging / errors -----------------------------------------------------

    def _log(self, message: str) -> None:
        if len(self.stats.log) < 10_000:
            self.stats.log.append(message)

    def _reject(self, message: str) -> None:
        self._log(message)
        raise VerifierError(message, log="\n".join(self.stats.log))

    def _reject_limit(self, message: str) -> None:
        self._log(message)
        raise VerifierLimitExceeded(message,
                                    log="\n".join(self.stats.log))

    # -- pass 1: structural checks ---------------------------------------------

    def _structural_checks(self) -> None:
        limits = self.config.limits
        count = len(self.insns)
        if count == 0:
            self._reject("empty program")
        if count > limits.max_insns:
            self._reject_limit(
                f"program too long: {count} insns "
                f"(max {limits.max_insns})")
        index = 0
        while index < count:
            insn = self.insns[index]
            if insn.is_ld_imm64:
                if index + 1 >= count:
                    self._reject("incomplete ld_imm64 at end of program")
                self._ld64_second_slots.add(index + 1)
                if insn.src == isa.BPF_PSEUDO_MAP_FD \
                        and insn.imm not in self.maps_by_fd:
                    self._reject(f"insn {index}: unknown map fd {insn.imm}")
                index += 2
                continue
            if insn.is_jump:
                op = insn.opcode & isa.JMP_OP_MASK
                if op not in (isa.BPF_CALL, isa.BPF_EXIT):
                    target = index + insn.off + 1
                    if not 0 <= target < count:
                        self._reject(
                            f"insn {index}: jump out of range to {target}")
                    self._jump_targets.add(target)
            index += 1
        for target in self._jump_targets:
            if target in self._ld64_second_slots:
                self._reject(
                    f"jump into the middle of an ld_imm64 at {target}")
        last = self.insns[-1]
        is_exit = last.is_jump and \
            (last.opcode & isa.JMP_OP_MASK) == isa.BPF_EXIT
        is_ja = last.is_jump and \
            (last.opcode & isa.JMP_OP_MASK) == isa.BPF_JA
        if not (is_exit or is_ja):
            self._reject("last insn is not an exit or unconditional jump")
        self._check_cfg_reachability()

    def _check_cfg_reachability(self) -> None:
        """``check_cfg``: every instruction must be statically
        reachable from insn 0 (the real verifier rejects dead code).
        Pseudo-call targets and pseudo-func callbacks count as edges."""
        count = len(self.insns)
        reachable = [False] * count
        stack = [0]
        while stack:
            index = stack.pop()
            if index < 0 or index >= count or reachable[index]:
                continue
            reachable[index] = True
            insn = self.insns[index]
            if insn.is_ld_imm64:
                if index + 1 < count:
                    reachable[index + 1] = True
                if insn.src == isa.BPF_PSEUDO_FUNC:
                    stack.append(index + insn.imm + 1)
                stack.append(index + 2)
                continue
            if insn.is_jump:
                op = insn.opcode & isa.JMP_OP_MASK
                if op == isa.BPF_EXIT:
                    continue
                if op == isa.BPF_JA:
                    stack.append(index + insn.off + 1)
                    continue
                if op == isa.BPF_CALL:
                    if insn.src == isa.BPF_PSEUDO_CALL:
                        stack.append(index + insn.imm + 1)
                    stack.append(index + 1)
                    continue
                stack.append(index + insn.off + 1)
            stack.append(index + 1)
        for index, is_reachable in enumerate(reachable):
            if not is_reachable:
                self._reject(f"unreachable insn {index}")

    # -- pass 2: symbolic execution ---------------------------------------------

    def _initial_state(self) -> VerifierState:
        state = VerifierState()
        state.cur.regs[1] = RegState.pointer(RegType.PTR_TO_CTX)
        return state

    def _symbolic_execution(self) -> None:
        explored = ExploredStates(enabled=self.config.prune_states)
        pending: List[
            Tuple[int, VerifierState, Optional[_WalkRecord], int]] = \
            [(0, self._initial_state(), None, 0)]
        while pending:
            self.stats.peak_pending = max(self.stats.peak_pending,
                                          len(pending))
            insn_idx, state, parent, fork_pos = pending.pop()
            self._walk(insn_idx, state, pending, explored, parent,
                       fork_pos)
        self.stats.prune_hits = explored.prune_hits
        self.stats.states_explored = explored.states_stored
        self.stats.max_states_per_insn = explored.largest_bucket()

    def _finish_walk(self, record: _WalkRecord,
                     explored: ExploredStates) -> None:
        """A walk ended safely.  Commit its checkpoints as prune bases
        only once its whole branch subtree is proven, cascading up to
        ancestors whose last open branch this completes (the kernel's
        ``update_branch_counts``)."""
        record.done = True
        node: Optional[_WalkRecord] = record
        while node is not None and node.done \
                and node.open_branches == 0:
            for insn_idx, snapshot in node.trace:
                explored.remember(insn_idx, snapshot)
            node.trace.clear()
            node.inflight.clear()
            parent, node.parent = node.parent, None
            if parent is not None:
                parent.open_branches -= 1
            node = parent

    def _walk(self, insn_idx: int, state: VerifierState,
              pending: List[Tuple[int, VerifierState,
                                  Optional[_WalkRecord], int]],
              explored: ExploredStates,
              parent: Optional[_WalkRecord] = None,
              fork_pos: int = 0) -> None:
        """Walk one path until exit, prune, or a fork's end."""
        record = _WalkRecord(parent, fork_pos)
        checkpoint_here = True  # walk start counts as a checkpoint
        visit_counts: Dict[int, int] = {}
        limits = self.config.limits
        complexity_limit = limits.complexity_limit
        tracing = self.config.log_level >= 2
        stats = self.stats
        insns = self.insns
        count_insns = len(insns)
        ld64_second_slots = self._ld64_second_slots
        jump_targets = self._jump_targets

        while True:
            if not 0 <= insn_idx < count_insns:
                self._reject(f"fell off the program at insn {insn_idx}")
            if insn_idx in ld64_second_slots:
                self._reject(
                    f"execution reached the second half of an ld_imm64 "
                    f"at {insn_idx}")
            # checkpoint at walk starts and at jump targets — but when
            # a bounded loop revisits the same target thousands of
            # times, sample 1-in-8 (the kernel's miss-count heuristic)
            # so state copies don't dominate the walk
            at_target = insn_idx in jump_targets
            if at_target:
                count = visit_counts.get(insn_idx, 0)
                visit_counts[insn_idx] = count + 1
                at_target = count % 8 == 0
            if checkpoint_here or at_target:
                checkpoint_here = False
                key = state.state_key()
                # revisiting an earlier checkpoint of this execution
                # path with an identical state is a cycle making no
                # progress: a real infinite loop.  The path runs
                # through every ancestor walk, but only up to the
                # fork each child descends from.
                node: Optional[_WalkRecord] = record
                bound = record.seq
                while node is not None:
                    seen = node.inflight.get(insn_idx)
                    if seen is not None:
                        pos = seen.get(key)
                        if pos is not None and pos < bound:
                            self._reject(
                                f"infinite loop detected at insn "
                                f"{insn_idx}")
                    bound = node.parent_pos
                    node = node.parent
                if explored.is_covered(insn_idx, state):
                    self.stats.prune_hits = explored.prune_hits
                    self._finish_walk(record, explored)
                    return
                record.inflight.setdefault(insn_idx, {})[key] = \
                    record.seq
                record.seq += 1
                # the snapshot's only copy: explored.remember takes
                # ownership of it when the walk commits
                record.trace.append((insn_idx, state.copy()))

            if tracing:
                self._trace_insn(insn_idx, state)

            stats.insns_processed += 1
            if stats.insns_processed > complexity_limit:
                self._reject_limit(
                    "BPF program is too large: processed "
                    f"{stats.insns_processed} insns "
                    f"(limit {complexity_limit})")

            insn = insns[insn_idx]
            opcode = insn.opcode
            cls = opcode & isa.CLASS_MASK

            if opcode == _LD_IMM64:
                self._do_ld_imm64(state, insn, insn_idx)
                insn_idx += 2
                continue

            if cls in _ALU_CLASSES:
                self._do_alu(state, insn, insn_idx)
                insn_idx += 1
                continue

            if cls in _MEM_CLASSES:
                self._do_mem(state, insn, insn_idx)
                insn_idx += 1
                continue

            if cls in _JMP_CLASSES:
                op = opcode & isa.JMP_OP_MASK
                if cls == isa.BPF_JMP32 and op in (
                        isa.BPF_JA, isa.BPF_CALL, isa.BPF_EXIT):
                    self._reject(f"insn {insn_idx}: invalid jmp32 "
                                 "opcode")
                if op == isa.BPF_JA:
                    insn_idx = insn_idx + insn.off + 1
                    continue
                if op == isa.BPF_EXIT:
                    done = self._do_exit(state, insn_idx)
                    if done:
                        self._finish_walk(record, explored)
                        return
                    # returned from a subprog/callback frame
                    insn_idx = self._pop_return_target
                    continue
                if op == isa.BPF_CALL:
                    next_idx = self._do_call(state, insn, insn_idx)
                    insn_idx = next_idx
                    continue
                # conditional jump: possibly fork
                result = self._do_cond_jmp(state, insn, insn_idx)
                taken_idx = insn_idx + insn.off + 1
                fall_idx = insn_idx + 1
                if result == "taken":
                    insn_idx = taken_idx
                elif result == "fall":
                    insn_idx = fall_idx
                else:
                    taken_state, fall_state = result
                    if len(pending) >= limits.max_pending_branches:
                        self._reject_limit(
                            "too many pending branch states "
                            f"({len(pending)})")
                    record.open_branches += 1
                    pending.append((taken_idx, taken_state, record,
                                    record.seq))
                    state = fall_state
                    insn_idx = fall_idx
                    checkpoint_here = True
                continue

            self._reject(
                f"insn {insn_idx}: unsupported opcode {insn.opcode:#04x}")

    def _trace_insn(self, insn_idx: int, state: VerifierState) -> None:
        """Verbose per-instruction trace (log_level 2)."""
        from repro.ebpf.disasm import disasm_insn
        insn = self.insns[insn_idx]
        nxt = self.insns[insn_idx + 1] \
            if insn_idx + 1 < len(self.insns) else None
        live = "; ".join(
            f"R{regno}={reg}" for regno, reg in
            enumerate(state.cur.regs)
            if reg.type != RegType.NOT_INIT and regno != 10)
        self._log(f"{insn_idx}: {disasm_insn(insn, insn_idx, nxt)}"
                  f"  [{live}]")

    # -- ld_imm64 -------------------------------------------------------------

    def _do_ld_imm64(self, state: VerifierState, insn: Insn,
                     insn_idx: int) -> None:
        self._check_reg_write(insn.dst, insn_idx)
        dst = state.cur.regs[insn.dst]
        if insn.src == isa.BPF_PSEUDO_MAP_FD:
            bpf_map = self.maps_by_fd.get(insn.imm)
            if bpf_map is None:
                self._reject(f"insn {insn_idx}: unknown map fd {insn.imm}")
            new = RegState.pointer(RegType.CONST_PTR_TO_MAP)
            new.map = bpf_map
            state.cur.regs[insn.dst] = new
        elif insn.src == isa.BPF_PSEUDO_FUNC:
            target = insn_idx + insn.imm + 1
            if not 0 <= target < len(self.insns):
                self._reject(
                    f"insn {insn_idx}: callback target {target} "
                    "out of range")
            new = RegState.pointer(RegType.PTR_TO_FUNC, off=target)
            state.cur.regs[insn.dst] = new
        else:
            hi = self.insns[insn_idx + 1].imm
            value = ((hi & 0xFFFFFFFF) << 32) | (insn.imm & 0xFFFFFFFF)
            state.cur.regs[insn.dst] = RegState.const_scalar(value)

    # -- ALU ---------------------------------------------------------------------

    def _check_reg_read(self, state: VerifierState, reg_no: int,
                        insn_idx: int) -> RegState:
        if not 0 <= reg_no < 11:
            self._reject(f"insn {insn_idx}: invalid register r{reg_no}")
        reg = state.cur.regs[reg_no]
        if reg.type == RegType.NOT_INIT:
            self._reject(f"insn {insn_idx}: R{reg_no} !read_ok "
                         "(uninitialized register)")
        return reg

    def _check_reg_write(self, reg_no: int, insn_idx: int) -> None:
        if not 0 <= reg_no < 10:
            self._reject(f"insn {insn_idx}: frame pointer R10 is "
                         "read only" if reg_no == 10 else
                         f"insn {insn_idx}: invalid register r{reg_no}")

    def _do_alu(self, state: VerifierState, insn: Insn,
                insn_idx: int) -> None:
        is64 = insn.insn_class == isa.BPF_ALU64
        op = insn.opcode & isa.ALU_OP_MASK
        op_name = isa.ALU_OP_NAMES.get(op)
        if op_name is None or op == isa.BPF_END:
            self._reject(f"insn {insn_idx}: unsupported ALU op")
        self._check_reg_write(insn.dst, insn_idx)

        if op == isa.BPF_NEG:
            dst = self._check_reg_read(state, insn.dst, insn_idx)
            if dst.is_pointer:
                self._reject(f"insn {insn_idx}: R{insn.dst} pointer "
                             "negation prohibited")
            bounds.alu_neg(dst)
            if not is64:
                self._truncate32(dst)
            return

        if op == isa.BPF_MOV:
            if insn.opcode & isa.BPF_X:
                new = self._check_reg_read(state, insn.src,
                                           insn_idx).copy()
                if not is64:
                    if new.is_pointer:
                        new = RegState.unknown_scalar()
                    self._truncate32(new)
            else:
                new = RegState.const_scalar(insn.imm)
                if not is64:
                    self._truncate32(new)
            state.cur.regs[insn.dst] = new
            return

        # source operand as a RegState
        if insn.opcode & isa.BPF_X:
            src = self._check_reg_read(state, insn.src, insn_idx).copy()
        else:
            src = RegState.const_scalar(insn.imm)
        dst = self._check_reg_read(state, insn.dst, insn_idx)

        # pointer arithmetic?
        if dst.is_pointer or src.is_pointer:
            self._do_ptr_alu(state, insn, insn_idx, op_name, dst, src,
                             is64)
            return

        # scalar op
        if op_name in ("lsh", "rsh", "arsh"):
            width = 64 if is64 else 32
            if src.is_const:
                if src.const_value >= width:
                    self._reject(
                        f"insn {insn_idx}: invalid shift "
                        f"{src.const_value}")
            else:
                dst.mark_unknown()
                if not is64:
                    self._truncate32(dst)
                return
        if op_name in ("div", "mod") \
                and not (insn.opcode & isa.BPF_X) and insn.imm == 0:
            # the kernel rejects immediate-zero divisors at load time;
            # a zero in a register divides to 0 at run time instead
            self._reject(f"insn {insn_idx}: division by zero")
        bounds.SCALAR_OPS[op_name](dst, src)
        if not is64:
            self._truncate32(dst)

    def _truncate32(self, reg: RegState) -> None:
        """ALU32 result: zero-extend the low 32 bits."""
        if reg.type != RegType.SCALAR:
            reg.mark_unknown()
        reg.var_off = reg.var_off.cast(4)
        reg.smin, reg.smax = S64_MIN, S64_MAX
        reg.umin, reg.umax = 0, U64_MAX
        reg.settle_bounds()

    def _do_ptr_alu(self, state: VerifierState, insn: Insn,
                    insn_idx: int, op_name: str, dst: RegState,
                    src: RegState, is64: bool) -> None:
        """``adjust_ptr_min_max_vals``: pointer ± scalar."""
        if not is64:
            self._reject(f"insn {insn_idx}: 32-bit arithmetic on "
                         "pointer prohibited")
        if dst.is_pointer and src.is_pointer:
            if op_name == "sub" and dst.type == src.type:
                if self.config.allow_ptr_leaks:
                    new = RegState.unknown_scalar()
                    state.cur.regs[insn.dst] = new
                    return
                self._reject(f"insn {insn_idx}: R{insn.dst} pointer -= "
                             "pointer prohibited")
            self._reject(f"insn {insn_idx}: pointer arithmetic between "
                         "two pointers prohibited")
        if src.is_pointer and op_name == "sub":
            self._reject(f"insn {insn_idx}: scalar -= pointer prohibited")

        ptr, scalar = (dst, src) if dst.is_pointer else (src, dst)
        if op_name not in ("add", "sub"):
            self._reject(f"insn {insn_idx}: R{insn.dst} pointer "
                         f"arithmetic with {op_name} operation prohibited")

        if ptr.type not in ARITH_OK_TYPES:
            if ptr.type == RegType.PTR_TO_CTX and scalar.is_const:
                new = ptr.copy()
                delta = u64_to_s64(scalar.const_value)
                new.off += delta if op_name == "add" else -delta
                state.cur.regs[insn.dst] = new
                return
            if ptr.type in OR_NULL_TYPES \
                    and self.config.bugs.verifier_ptr_arith_unchecked:
                # CVE-2022-23222 model: arithmetic on a not-yet-null-
                # checked pointer is not sanitized.  After the null
                # check the attacker holds base+delta — with base NULL
                # at run time, an arbitrary kernel address.
                self._log(f"insn {insn_idx}: (buggy) allowing arithmetic "
                          f"on {ptr.type.value}")
                new = ptr.copy()
                if scalar.is_const:
                    delta = u64_to_s64(scalar.const_value)
                    new.off += delta if op_name == "add" else -delta
                else:
                    new.var_off = new.var_off.add(scalar.var_off)
                state.cur.regs[insn.dst] = new
                return
            self._reject(f"insn {insn_idx}: R{insn.dst} pointer "
                         f"arithmetic on {ptr.type.value} prohibited")

        new = ptr.copy()
        if op_name == "add":
            if scalar.is_const:
                new.off += u64_to_s64(scalar.const_value)
            else:
                var = scalar
                new.var_off = new.var_off.add(var.var_off)
                smin = new.smin + var.smin
                smax = new.smax + var.smax
                if smin < S64_MIN or smax > S64_MAX:
                    new.smin, new.smax = S64_MIN, S64_MAX
                else:
                    new.smin, new.smax = smin, smax
                umax = new.umax + var.umax
                if umax > U64_MAX:
                    new.umin, new.umax = 0, U64_MAX
                else:
                    new.umin, new.umax = new.umin + var.umin, umax
                new.settle_bounds()
        else:  # sub: ptr - scalar
            if scalar.is_const:
                new.off -= u64_to_s64(scalar.const_value)
            else:
                self._reject(
                    f"insn {insn_idx}: R{insn.dst} variable pointer "
                    "subtraction prohibited")
        state.cur.regs[insn.dst] = new

    # -- memory access ------------------------------------------------------------

    def _do_mem(self, state: VerifierState, insn: Insn,
                insn_idx: int) -> None:
        cls = insn.insn_class
        size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
        mode = insn.opcode & isa.MODE_MASK
        if mode == isa.BPF_ATOMIC:
            self._do_atomic(state, insn, insn_idx, size)
            return
        if mode != isa.BPF_MEM:
            self._reject(f"insn {insn_idx}: unsupported memory mode "
                         f"{mode:#x}")
        if cls == isa.BPF_LDX:
            base = self._check_reg_read(state, insn.src, insn_idx)
            self._check_reg_write(insn.dst, insn_idx)
            self._access(state, insn_idx, base, insn.off, size,
                         write=False, dst_regno=insn.dst)
        elif cls == isa.BPF_STX:
            base = self._check_reg_read(state, insn.dst, insn_idx)
            value = self._check_reg_read(state, insn.src, insn_idx)
            self._access(state, insn_idx, base, insn.off, size,
                         write=True, value_reg=value)
        else:  # BPF_ST (imm store)
            base = self._check_reg_read(state, insn.dst, insn_idx)
            self._access(state, insn_idx, base, insn.off, size,
                         write=True,
                         value_reg=RegState.const_scalar(insn.imm))

    def _do_atomic(self, state: VerifierState, insn: Insn,
                   insn_idx: int, size: int) -> None:
        """``check_atomic``: ADD/OR/AND/XOR (± FETCH), XCHG,
        CMPXCHG."""
        if insn.insn_class != isa.BPF_STX:
            self._reject(f"insn {insn_idx}: invalid atomic encoding")
        base_op = insn.imm & ~isa.BPF_FETCH
        fetches = bool(insn.imm & isa.BPF_FETCH)
        if insn.imm not in (isa.BPF_XCHG, isa.BPF_CMPXCHG) and \
                base_op not in (isa.BPF_ADD, isa.BPF_OR, isa.BPF_AND,
                                isa.BPF_XOR):
            self._reject(f"insn {insn_idx}: unsupported atomic op "
                         f"{insn.imm:#x}")
        if size not in (4, 8):
            self._reject(f"insn {insn_idx}: atomic operand must be "
                         "4 or 8 bytes")
        base = self._check_reg_read(state, insn.dst, insn_idx)
        value = self._check_reg_read(state, insn.src, insn_idx)
        if value.is_pointer:
            op_name = isa.ATOMIC_OP_NAMES.get(
                insn.imm, isa.ATOMIC_OP_NAMES.get(base_op, "op"))
            self._reject(f"insn {insn_idx}: atomic {op_name} of a "
                         "pointer leaks it into memory")
        if insn.imm == isa.BPF_CMPXCHG:
            # R0 is the comparand and receives the old value
            comparand = self._check_reg_read(state, 0, insn_idx)
            if comparand.is_pointer:
                self._reject(f"insn {insn_idx}: atomic cmpxchg "
                             "comparand in R0 is a pointer")
        # read-modify-write: both directions must be legal
        self._access(state, insn_idx, base, insn.off, size,
                     write=False, dst_regno=None)
        self._access(state, insn_idx, base, insn.off, size,
                     write=True, value_reg=RegState.unknown_scalar())
        if insn.imm == isa.BPF_CMPXCHG:
            state.cur.regs[0] = RegState.unknown_scalar()
        elif fetches:
            # the old value lands in the source register
            self._check_reg_write(insn.src, insn_idx)
            state.cur.regs[insn.src] = RegState.unknown_scalar()

    def _access(self, state: VerifierState, insn_idx: int,
                base: RegState, off: int, size: int, *, write: bool,
                dst_regno: Optional[int] = None,
                value_reg: Optional[RegState] = None) -> None:
        """``check_mem_access``: dispatch on the base pointer type."""
        if base.type == RegType.SCALAR:
            self._reject(f"insn {insn_idx}: invalid mem access "
                         "'scalar' (dereference of non-pointer)")
        if base.type in OR_NULL_TYPES:
            self._reject(f"insn {insn_idx}: invalid mem access "
                         f"'{base.type.value}' (pointer may be NULL; "
                         "check it first)")

        result: Optional[RegState] = None
        if base.type == RegType.PTR_TO_STACK:
            result = self._access_stack(state, insn_idx, base, off, size,
                                        write, value_reg)
        elif base.type == RegType.PTR_TO_MAP_VALUE:
            self._check_bounded(state, insn_idx, base, off, size,
                                limit=base.map.value_size,
                                what="map value")
            self._check_store_leak(insn_idx, write, value_reg,
                                   "map value")
            result = RegState.unknown_scalar()
        elif base.type == RegType.PTR_TO_CTX:
            result = self._access_ctx(state, insn_idx, base, off, size,
                                      write)
        elif base.type == RegType.PTR_TO_PACKET:
            self._check_bounded(state, insn_idx, base, off, size,
                                limit=state.packet_range,
                                what="packet")
            self._check_store_leak(insn_idx, write, value_reg, "packet")
            result = RegState.unknown_scalar()
        elif base.type == RegType.PTR_TO_PACKET_END:
            self._reject(f"insn {insn_idx}: cannot access memory via "
                         "pkt_end pointer")
        elif base.type == RegType.PTR_TO_SOCKET:
            if write:
                self._reject(f"insn {insn_idx}: cannot write into sock")
            self._check_bounded(state, insn_idx, base, off, size,
                                limit=32, what="sock")
            result = RegState.unknown_scalar()
        elif base.type == RegType.PTR_TO_MEM:
            self._check_bounded(state, insn_idx, base, off, size,
                                limit=base.mem_size, what="mem")
            result = RegState.unknown_scalar()
        else:
            self._reject(f"insn {insn_idx}: invalid mem access "
                         f"'{base.type.value}'")

        if not write and dst_regno is not None:
            state.cur.regs[dst_regno] = result \
                if result is not None else RegState.unknown_scalar()

    def _check_store_leak(self, insn_idx: int, write: bool,
                          value_reg: Optional[RegState],
                          where: str) -> None:
        """Reject stores of pointers into externally visible memory."""
        if not write or value_reg is None or not value_reg.is_pointer:
            return
        if self.config.allow_ptr_leaks:
            return
        if self.config.bugs.verifier_ptr_leak:
            # [13,14,32] model: the check that should fire here is
            # missing — kernel addresses flow into user-readable maps
            self._log(f"insn {insn_idx}: (buggy) pointer store into "
                      f"{where} not rejected")
            return
        self._reject(f"insn {insn_idx}: R leaks addr into {where}")

    def _check_bounded(self, state: VerifierState, insn_idx: int,
                       base: RegState, off: int, size: int, *,
                       limit: int, what: str) -> None:
        """Range-check ``base.off + var ± [0, size)`` against [0, limit)."""
        lo = base.off + off + base.smin
        hi = base.off + off + base.umax + size
        if base.smin < 0 and lo < 0:
            self._reject(f"insn {insn_idx}: {what} access min value "
                         f"{lo} is negative")
        if lo < 0:
            self._reject(f"insn {insn_idx}: invalid {what} access: "
                         f"off {lo} < 0")
        if base.umax >= (1 << 32):
            self._reject(f"insn {insn_idx}: {what} unbounded variable "
                         "offset")
        if hi > limit:
            self._reject(f"insn {insn_idx}: invalid access to {what}: "
                         f"off {base.off + off} + size {size} "
                         f"(+var max {base.umax}) > {limit}")

    def _access_stack(self, state: VerifierState, insn_idx: int,
                      base: RegState, off: int, size: int, write: bool,
                      value_reg: Optional[RegState]) -> Optional[RegState]:
        if not base.var_off.is_const:
            self._reject(f"insn {insn_idx}: variable stack access "
                         "prohibited")
        total = base.off + u64_to_s64(base.var_off.value) + off
        stack_size = self.config.limits.stack_size
        if total >= 0 or total + size > 0 or total < -stack_size:
            self._reject(f"insn {insn_idx}: invalid stack access "
                         f"off={total} size={size}")
        if total % size != 0:
            self._reject(f"insn {insn_idx}: misaligned stack access "
                         f"off={total} size={size}")
        slot = (-total - 1) // 8
        if not 0 <= base.frameno < len(state.frames):
            self._reject(f"insn {insn_idx}: stack pointer into a dead "
                         "frame")
        frame = state.frames[base.frameno]
        if write:
            assert value_reg is not None
            if size == 8 and (-total) % 8 == 0:
                frame.stack[slot] = StackSlot(SlotKind.SPILL,
                                              value_reg.copy())
            else:
                if value_reg.is_pointer:
                    self._reject(f"insn {insn_idx}: partial spill of a "
                                 "pointer is prohibited")
                existing = frame.stack.get(slot)
                if existing is not None and \
                        existing.kind == SlotKind.SPILL and \
                        existing.reg is not None and \
                        existing.reg.is_pointer:
                    self._reject(f"insn {insn_idx}: corrupting spilled "
                                 "pointer on stack")
                frame.stack[slot] = StackSlot(SlotKind.MISC)
            return None
        # read
        entry = frame.stack.get(slot)
        if entry is None or entry.kind == SlotKind.INVALID:
            self._reject(f"insn {insn_idx}: invalid read from stack "
                         f"off {total} (uninitialized)")
        if entry.kind == SlotKind.SPILL and size == 8 \
                and (-total) % 8 == 0:
            assert entry.reg is not None
            return entry.reg.copy()
        if entry.kind == SlotKind.SPILL and entry.reg is not None \
                and entry.reg.is_pointer:
            self._reject(f"insn {insn_idx}: partial read of spilled "
                         "pointer")
        if entry.kind == SlotKind.ZERO:
            return RegState.const_scalar(0)
        return RegState.unknown_scalar()

    def _access_ctx(self, state: VerifierState, insn_idx: int,
                    base: RegState, off: int, size: int,
                    write: bool) -> Optional[RegState]:
        total = base.off + off
        fld = self.type_info.field_at(total, size)
        if fld is None:
            self._reject(f"insn {insn_idx}: invalid bpf_context access "
                         f"off={total} size={size}")
        if write:
            if not fld.writable:
                self._reject(f"insn {insn_idx}: write to read-only "
                             f"context field '{fld.name}'")
            return None
        if fld.kind == CtxFieldKind.PACKET:
            if size != fld.size:
                self._reject(f"insn {insn_idx}: partial read of packet "
                             "pointer field")
            return RegState.pointer(RegType.PTR_TO_PACKET)
        if fld.kind == CtxFieldKind.PACKET_END:
            if size != fld.size:
                self._reject(f"insn {insn_idx}: partial read of packet "
                             "pointer field")
            return RegState.pointer(RegType.PTR_TO_PACKET_END)
        return RegState.unknown_scalar()

    # -- conditional jumps -----------------------------------------------------

    @staticmethod
    def _fork(state: VerifierState) -> Tuple[VerifierState,
                                             VerifierState]:
        """Split the walk at a conditional jump: the taken side gets
        a copy and the fall side carries on in ``state`` itself (the
        walk holds no other reference to its pre-fork state)."""
        return state.copy(), state

    def _do_cond_jmp(self, state: VerifierState, insn: Insn,
                     insn_idx: int):
        """Returns "taken", "fall", or (taken_state, fall_state); a
        fork's fall state is ``state`` itself."""
        op = insn.opcode & isa.JMP_OP_MASK
        op_name = isa.JMP_OP_NAMES[op]
        is32 = insn.insn_class == isa.BPF_JMP32
        dst = self._check_reg_read(state, insn.dst, insn_idx)

        if is32:
            # 32-bit subregister comparison.  We do not carry separate
            # 32-bit bounds (a simplification over the kernel's
            # s32/u32 tracking), but when both operands provably fit
            # in the positive 32-bit range the 32- and 64-bit
            # semantics coincide and the ordinary refinement applies.
            S32_MAX = (1 << 31) - 1
            if dst.is_pointer:
                self._reject(f"insn {insn_idx}: jmp32 on a pointer")
            if insn.opcode & isa.BPF_X:
                src32 = self._check_reg_read(state, insn.src, insn_idx)
                if src32.is_pointer:
                    self._reject(f"insn {insn_idx}: jmp32 on a pointer")
                if dst.is_const and src32.is_const:
                    taken = self._concrete_jump(
                        op_name, dst.const_value & 0xFFFFFFFF,
                        src32.const_value & 0xFFFFFFFF, width=32)
                    return "taken" if taken else "fall"
                if dst.umax <= S32_MAX and src32.umax <= S32_MAX:
                    pass  # fall through to the 64-bit path below
                else:
                    return self._fork(state)
            elif dst.is_const:
                taken = self._concrete_jump(
                    op_name, dst.const_value & 0xFFFFFFFF,
                    insn.imm & 0xFFFFFFFF, width=32)
                return "taken" if taken else "fall"
            elif dst.umax <= S32_MAX and 0 <= insn.imm <= S32_MAX:
                pass  # semantics coincide; use the 64-bit refinement
            else:
                return self._fork(state)

        if insn.opcode & isa.BPF_X:
            src: RegState = self._check_reg_read(state, insn.src,
                                                 insn_idx)
        else:
            src = RegState.const_scalar(insn.imm)

        # null-check pattern on or-null pointers
        if dst.type in OR_NULL_TYPES and op in (isa.BPF_JEQ, isa.BPF_JNE) \
                and src.is_const and src.const_value == 0:
            taken_state, fall_state = self._fork(state)
            if op == isa.BPF_JEQ:
                self._mark_ptr_or_null(taken_state, dst.id, null=True)
                self._mark_ptr_or_null(fall_state, dst.id, null=False)
            else:
                self._mark_ptr_or_null(taken_state, dst.id, null=False)
                self._mark_ptr_or_null(fall_state, dst.id, null=True)
            return (taken_state, fall_state)

        # packet bounds pattern
        pkt_result = self._maybe_packet_check(state, insn_idx, op, dst,
                                              src)
        if pkt_result is not None:
            return pkt_result

        if dst.is_pointer or src.is_pointer:
            if dst.type == src.type or src.is_const:
                # pointer comparisons fork without refinement
                return self._fork(state)
            self._reject(f"insn {insn_idx}: comparison of incompatible "
                         f"pointer types {dst.type.value} vs "
                         f"{src.type.value}")

        decided = self._is_branch_taken(op_name, dst, src)
        if decided is not None:
            return "taken" if decided else "fall"

        taken_state, fall_state = self._fork(state)
        self._refine(taken_state, insn, op_name, True)
        self._refine(fall_state, insn, op_name, False)
        return (taken_state, fall_state)

    def _mark_ptr_or_null(self, state: VerifierState, reg_id: int,
                          null: bool) -> None:
        """``mark_ptr_or_null_regs``: resolve every copy of one helper
        result to NULL or to the full pointer type."""
        released: Set[int] = set()
        for frame in state.frames:
            candidates = list(enumerate(frame.regs)) + \
                [(None, s.reg) for s in frame.stack.values()
                 if s.reg is not None]
            for regno, reg in candidates:
                if reg is None or reg.id != reg_id \
                        or reg.type not in OR_NULL_TYPES:
                    continue
                if null:
                    if reg.ref_obj_id:
                        released.add(reg.ref_obj_id)
                    reg.type = RegType.SCALAR
                    reg.set_const(0)
                    reg.id = 0
                    reg.ref_obj_id = 0
                    reg.map = None
                else:
                    reg.type = OR_NULL_TYPES[reg.type]
                    reg.id = 0
        for ref_id in released:
            state.release_ref(ref_id)

    def _maybe_packet_check(self, state: VerifierState, insn_idx: int,
                            op: int, dst: RegState, src: RegState):
        """``find_good_pkt_pointers``: learn packet range from
        pkt vs pkt_end comparisons."""
        if dst.type is _PKT and src.type is _PKT_END:
            orient = "direct"
        elif dst.type is _PKT_END and src.type is _PKT:
            orient = "flipped"
        else:
            return None
        pkt = dst if orient == "direct" else src
        if not pkt.var_off.is_const:
            return self._fork(state)
        proven = pkt.off + u64_to_s64(pkt.var_off.value)

        # which branch proves pkt(+off) <= pkt_end?
        good_on_taken: Optional[bool] = None
        if orient == "direct":
            if op == isa.BPF_JLE:        # pkt <= end: taken is good
                good_on_taken = True
            elif op == isa.BPF_JGT:      # pkt > end: fall is good
                good_on_taken = False
        else:
            if op == isa.BPF_JGE:        # end >= pkt: taken is good
                good_on_taken = True
            elif op == isa.BPF_JLT:      # end < pkt: fall is good
                good_on_taken = False
        if good_on_taken is None:
            return self._fork(state)
        taken_state, fall_state = self._fork(state)
        good = taken_state if good_on_taken else fall_state
        good.packet_range = max(good.packet_range, proven)
        return (taken_state, fall_state)

    def _concrete_jump(self, op_name: str, dst_val: int, src_val: int,
                       width: int = 64) -> bool:
        """Evaluate a comparison on two known values."""
        compare, signed = _CONCRETE_JUMPS[op_name]
        mask = (1 << width) - 1
        dst, src = dst_val & mask, src_val & mask
        if signed:
            sign = 1 << (width - 1)
            dst = dst - (1 << width) if dst & sign else dst
            src = src - (1 << width) if src & sign else src
        return compare(dst, src)

    def _is_branch_taken(self, op_name: str, dst: RegState,
                         src: RegState) -> Optional[bool]:
        """Decide the branch statically when both ranges force it."""
        if not (dst.type is _SCALAR and src.type is _SCALAR):
            return None
        pair = _BRANCH_TAKEN.get(op_name)
        if pair is None:
            return None
        always, never = pair
        if always(dst, src):
            return True
        if never(dst, src):
            return False
        return None

    def _refine(self, state: VerifierState, insn: Insn, op_name: str,
                taken: bool) -> None:
        """``reg_set_min_max``: tighten ranges on both branch sides."""
        dst = state.cur.regs[insn.dst]
        if insn.opcode & isa.BPF_X:
            src = state.cur.regs[insn.src]
        else:
            src = RegState.const_scalar(insn.imm)
        if dst.type != RegType.SCALAR or src.type != RegType.SCALAR:
            return

        if op_name == "jset" and src.is_const:
            if not taken:
                # dst & imm == 0: every tested bit is known zero
                keep = ~src.const_value & U64_MAX
                dst.var_off = dst.var_off.and_(Tnum.const(keep))
                dst.settle_bounds()
            return

        # normalize to an effective relation that holds on this side
        effective = _EFFECTIVE_RELATION.get((op_name, taken))
        if effective is None:
            return

        if effective == "eq":
            var_off = dst.var_off.intersect(src.var_off)
            for reg, other in ((dst, src), (src, dst)):
                reg.var_off = var_off
                reg.umin = max(reg.umin, other.umin)
                reg.umax = min(reg.umax, other.umax)
                reg.smin = max(reg.smin, other.smin)
                reg.smax = min(reg.smax, other.smax)
                reg.settle_bounds()
            return
        if effective == "ne":
            # only useful against constants at range edges
            if src.is_const:
                val = src.const_value
                if dst.umin == val and dst.umin < U64_MAX:
                    dst.umin += 1
                if dst.umax == val and dst.umax > 0:
                    dst.umax -= 1
                dst.settle_bounds()
            return
        unsigned = effective in ("gt", "ge", "lt", "le")
        strict = effective in ("gt", "lt", "sgt", "slt")
        dst_greater = effective in ("gt", "ge", "sgt", "sge")
        if unsigned:
            if dst_greater:
                dst.umin = max(dst.umin, src.umin + (1 if strict else 0))
                src.umax = min(src.umax,
                               dst.umax - (1 if strict else 0))
            else:
                dst.umax = min(dst.umax, src.umax - (1 if strict else 0))
                src.umin = max(src.umin,
                               dst.umin + (1 if strict else 0))
        else:
            if dst_greater:
                dst.smin = max(dst.smin, src.smin + (1 if strict else 0))
                src.smax = min(src.smax, dst.smax - (1 if strict else 0))
            else:
                dst.smax = min(dst.smax, src.smax - (1 if strict else 0))
                src.smin = max(src.smin, dst.smin + (1 if strict else 0))
        dst.settle_bounds()
        src.settle_bounds()

    # -- calls -------------------------------------------------------------------

    _pop_return_target: int = -1

    def _do_call(self, state: VerifierState, insn: Insn,
                 insn_idx: int) -> int:
        if insn.src == isa.BPF_PSEUDO_CALL:
            return self._do_pseudo_call(state, insn, insn_idx)
        return self._do_helper_call(state, insn, insn_idx)

    def _do_pseudo_call(self, state: VerifierState, insn: Insn,
                        insn_idx: int) -> int:
        """BPF-to-BPF call [45]: push a fresh frame."""
        target = insn_idx + insn.imm + 1
        if not 0 <= target < len(self.insns):
            self._reject(f"insn {insn_idx}: call target {target} "
                         "out of range")
        if len(state.frames) >= self.config.limits.max_call_frames:
            self._reject_limit(
                f"insn {insn_idx}: the call stack of "
                f"{len(state.frames)} frames is too deep")
        frame = FuncFrame.fresh(frameno=len(state.frames),
                                callsite=insn_idx)
        for regno in range(1, 6):
            frame.regs[regno] = state.cur.regs[regno].copy()
        state.frames.append(frame)
        return target

    def _do_helper_call(self, state: VerifierState, insn: Insn,
                        insn_idx: int) -> int:
        spec = self.registry.get(insn.imm)
        if spec is None or not spec.is_implemented:
            self._reject(f"insn {insn_idx}: invalid func unknown#"
                         f"{insn.imm}")
        proto = spec.proto
        if state.active_spin_lock is not None \
                and proto.forbidden_under_spinlock:
            self._reject(f"insn {insn_idx}: function calls are not "
                         "allowed while holding a lock")

        arg_map: Dict[int, RegState] = {}
        const_map_arg: Optional[object] = None
        const_size: Optional[int] = None
        callback_target: Optional[int] = None
        released_ref = False

        for position, arg_type in enumerate(proto.args):
            regno = position + 1
            reg = state.cur.regs[regno]
            arg_map[position] = reg
            if arg_type == ArgType.ANYTHING:
                self._check_reg_read(state, regno, insn_idx)
                continue
            if arg_type == ArgType.CONST_MAP_PTR:
                if reg.type != RegType.CONST_PTR_TO_MAP:
                    self._reject(self._arg_err(insn_idx, regno, spec,
                                               "expected map pointer"))
                const_map_arg = reg.map
                continue
            if arg_type in (ArgType.PTR_TO_MAP_KEY,
                            ArgType.PTR_TO_MAP_VALUE):
                if const_map_arg is None:
                    self._reject(self._arg_err(insn_idx, regno, spec,
                                               "map argument missing"))
                need = const_map_arg.key_size \
                    if arg_type == ArgType.PTR_TO_MAP_KEY \
                    else const_map_arg.value_size
                self._check_helper_mem(state, insn_idx, regno, reg, need,
                                       write=False)
                continue
            if arg_type in (ArgType.PTR_TO_MEM, ArgType.PTR_TO_UNINIT_MEM):
                size_reg = state.cur.regs[regno + 1]
                mem_size = self._resolve_const_size(insn_idx, regno + 1,
                                                    size_reg)
                self._check_helper_mem(
                    state, insn_idx, regno, reg, mem_size,
                    write=(arg_type == ArgType.PTR_TO_UNINIT_MEM))
                continue
            if arg_type in (ArgType.CONST_SIZE,
                            ArgType.CONST_SIZE_OR_ZERO):
                const_size = self._resolve_const_size(insn_idx, regno,
                                                      reg)
                continue
            if arg_type == ArgType.PTR_TO_CTX:
                if reg.type != RegType.PTR_TO_CTX:
                    self._reject(self._arg_err(insn_idx, regno, spec,
                                               "expected ctx pointer"))
                continue
            if arg_type == ArgType.PTR_TO_SOCKET:
                if reg.type != RegType.PTR_TO_SOCKET:
                    self._reject(self._arg_err(insn_idx, regno, spec,
                                               "expected socket"))
                if proto.releases:
                    if not reg.ref_obj_id \
                            or not state.release_ref(reg.ref_obj_id):
                        self._reject(
                            f"insn {insn_idx}: release of unreferenced "
                            "socket")
                    self._invalidate_ref(state, reg.ref_obj_id)
                    released_ref = True
                continue
            if arg_type == ArgType.PTR_TO_ALLOC_MEM:
                if reg.type != RegType.PTR_TO_MEM or not reg.ref_obj_id:
                    self._reject(self._arg_err(
                        insn_idx, regno, spec,
                        "expected referenced memory"))
                if proto.releases:
                    if not state.release_ref(reg.ref_obj_id):
                        self._reject(
                            f"insn {insn_idx}: release of unreferenced "
                            "memory")
                    self._invalidate_ref(state, reg.ref_obj_id)
                    released_ref = True
                continue
            if arg_type == ArgType.PTR_TO_FUNC:
                if reg.type != RegType.PTR_TO_FUNC:
                    self._reject(self._arg_err(insn_idx, regno, spec,
                                               "expected callback"))
                callback_target = reg.off
                continue
            if arg_type == ArgType.PTR_TO_STACK_OR_NULL:
                is_null = reg.type == RegType.SCALAR and reg.is_const \
                    and reg.const_value == 0
                if not is_null and reg.type != RegType.PTR_TO_STACK:
                    self._reject(self._arg_err(
                        insn_idx, regno, spec,
                        "expected stack pointer or NULL"))
                continue
            if arg_type == ArgType.PTR_TO_SPIN_LOCK:
                self._check_spin_lock_arg(state, insn_idx, regno, reg,
                                          spec)
                continue
            if arg_type == ArgType.PTR_TO_LONG:
                self._check_helper_mem(state, insn_idx, regno, reg, 8,
                                       write=True)
                continue
            self._reject(f"insn {insn_idx}: unhandled arg type "
                         f"{arg_type}")

        # the [54] verifier-UAF model: inlining a second constant-count
        # bpf_loop corrupts verifier state
        if spec.name == "bpf_loop":
            nr_reg = state.cur.regs[1]
            if nr_reg.type == RegType.SCALAR and nr_reg.is_const \
                    and nr_reg.const_value <= 16:
                self._loop_inline_count += 1
                if self._loop_inline_count >= 2 \
                        and self.config.bugs.verifier_loop_inline_uaf:
                    raise VerifierInternalFault(
                        "use-after-free in inline_bpf_loop while "
                        f"inlining call at insn {insn_idx}")

        # clobber caller-saved registers
        for regno in range(6):
            state.cur.regs[regno] = RegState.not_init()

        # set R0 per the return contract
        ret = proto.ret
        r0 = RegState.not_init()
        if ret.value in ("integer", "kernel_addr_scalar"):
            r0 = RegState.unknown_scalar()
        elif ret.value == "void":
            r0 = RegState.not_init()
        elif ret.value == "map_value_or_null":
            if const_map_arg is None:
                self._reject(f"insn {insn_idx}: helper returns map "
                             "value but no map argument given")
            r0 = RegState.pointer(RegType.PTR_TO_MAP_VALUE_OR_NULL)
            r0.map = const_map_arg
            r0.id = state.new_id()
        elif ret.value == "socket_or_null":
            r0 = RegState.pointer(RegType.PTR_TO_SOCKET_OR_NULL)
            r0.id = state.new_id()
            if proto.acquires:
                r0.ref_obj_id = state.acquire_ref(proto.acquires,
                                                  insn_idx)
        elif ret.value == "mem_or_null":
            r0 = RegState.pointer(RegType.PTR_TO_MEM_OR_NULL)
            r0.mem_size = const_size or 0
            r0.id = state.new_id()
            if proto.acquires:
                r0.ref_obj_id = state.acquire_ref(proto.acquires,
                                                  insn_idx)
        state.cur.regs[0] = r0

        # bpf_loop: verify the callback body once in its own frame
        if spec.name == "bpf_loop" and callback_target is not None:
            if len(state.frames) >= self.config.limits.max_call_frames:
                self._reject_limit(
                    f"insn {insn_idx}: callback nesting too deep")
            frame = FuncFrame.fresh(frameno=len(state.frames),
                                    callsite=insn_idx)
            frame.in_callback = True
            frame.regs[1] = RegState.unknown_scalar()  # index
            frame.regs[2] = arg_map[2].copy()          # callback ctx
            state.frames.append(frame)
            return callback_target

        del released_ref
        return insn_idx + 1

    def _arg_err(self, insn_idx: int, regno: int, spec: HelperSpec,
                 why: str) -> str:
        return (f"insn {insn_idx}: R{regno} type invalid for "
                f"{spec.name}: {why}")

    def _resolve_const_size(self, insn_idx: int, regno: int,
                            reg: RegState) -> int:
        """A size argument must have provable, reasonable bounds."""
        if reg.type != RegType.SCALAR:
            self._reject(f"insn {insn_idx}: R{regno} size argument "
                         "must be a scalar")
        if reg.is_const:
            value = reg.const_value
            if value > 65536:
                self._reject(f"insn {insn_idx}: R{regno} size {value} "
                             "too large")
            return value
        if reg.umax > 65536:
            self._reject(f"insn {insn_idx}: R{regno} unbounded memory "
                         "access: size umax={}".format(reg.umax))
        return reg.umax

    def _check_helper_mem(self, state: VerifierState, insn_idx: int,
                          regno: int, reg: RegState, size: int, *,
                          write: bool) -> None:
        """A helper mem argument must point to ``size`` accessible
        bytes (stack, map value, or proven packet)."""
        if size == 0:
            return
        if reg.type == RegType.PTR_TO_STACK:
            if not reg.var_off.is_const:
                self._reject(f"insn {insn_idx}: R{regno} variable "
                             "stack pointer to helper")
            total = reg.off + u64_to_s64(reg.var_off.value)
            if total >= 0 or total + size > 0 \
                    or total < -self.config.limits.stack_size:
                self._reject(f"insn {insn_idx}: R{regno} invalid stack "
                             f"range off={total} size={size}")
            first_slot = (-total - 1) // 8
            last_slot = (-(total + size - 1) - 1) // 8
            if not 0 <= reg.frameno < len(state.frames):
                self._reject(f"insn {insn_idx}: R{regno} stack pointer "
                             "into a dead frame")
            frame = state.frames[reg.frameno]
            for slot in range(last_slot, first_slot + 1):
                entry = frame.stack.get(slot)
                initialized = entry is not None \
                    and entry.kind != SlotKind.INVALID
                if write:
                    frame.stack[slot] = StackSlot(SlotKind.MISC)
                elif not initialized:
                    self._reject(
                        f"insn {insn_idx}: R{regno} invalid "
                        f"indirect read from stack (slot {slot} "
                        "uninitialized)")
            return
        if reg.type == RegType.PTR_TO_MAP_VALUE:
            self._check_bounded(state, insn_idx, reg, 0, size,
                                limit=reg.map.value_size,
                                what="map value")
            return
        if reg.type == RegType.PTR_TO_PACKET:
            self._check_bounded(state, insn_idx, reg, 0, size,
                                limit=state.packet_range, what="packet")
            return
        if reg.type == RegType.PTR_TO_MEM:
            self._check_bounded(state, insn_idx, reg, 0, size,
                                limit=reg.mem_size, what="mem")
            return
        self._reject(f"insn {insn_idx}: R{regno} type "
                     f"{reg.type.value} expected memory pointer")

    def _check_spin_lock_arg(self, state: VerifierState, insn_idx: int,
                             regno: int, reg: RegState,
                             spec: HelperSpec) -> None:
        """The [48] discipline: one lock, matched unlock, before exit."""
        if reg.type != RegType.PTR_TO_MAP_VALUE or reg.map is None \
                or getattr(reg.map, "spin_lock", None) is None:
            self._reject(self._arg_err(
                insn_idx, regno, spec,
                "expected map value containing a bpf_spin_lock"))
        if spec.name == "bpf_spin_lock":
            if state.active_spin_lock is not None:
                self._reject(f"insn {insn_idx}: only one bpf_spin_lock "
                             "may be held at a time")
            state.active_spin_lock = reg.map.map_fd
        else:
            if state.active_spin_lock != reg.map.map_fd:
                self._reject(f"insn {insn_idx}: bpf_spin_unlock of a "
                             "lock that is not held")
            state.active_spin_lock = None

    def _invalidate_ref(self, state: VerifierState, ref_id: int) -> None:
        """After a release, every copy of the pointer is dead."""
        for frame in state.frames:
            for reg in frame.regs:
                if reg.ref_obj_id == ref_id:
                    reg.mark_unknown()
            for slot_entry in frame.stack.values():
                if slot_entry.reg is not None \
                        and slot_entry.reg.ref_obj_id == ref_id:
                    slot_entry.reg.mark_unknown()

    # -- exit ----------------------------------------------------------------------

    def _do_exit(self, state: VerifierState, insn_idx: int) -> bool:
        """Returns True when the whole program exits; False after
        popping a subprog/callback frame (continue at stored target)."""
        r0 = state.cur.regs[0]
        if r0.type == RegType.NOT_INIT:
            self._reject(f"insn {insn_idx}: R0 !read_ok at exit")

        if len(state.frames) > 1:
            frame = state.frames.pop()
            if frame.in_callback:
                if r0.type != RegType.SCALAR:
                    self._reject(f"insn {insn_idx}: callback must "
                                 "return a scalar")
                # resume after the bpf_loop call; r0 is the helper's
                state.cur.regs[0] = RegState.unknown_scalar()
            else:
                returned = r0.copy()
                if returned.is_pointer \
                        and not self.config.allow_ptr_leaks:
                    self._reject(f"insn {insn_idx}: subprog returns a "
                                 "pointer")
                state.cur.regs[0] = returned
                for regno in range(1, 6):
                    state.cur.regs[regno] = RegState.not_init()
            self._pop_return_target = frame.callsite + 1
            return False

        # main-program exit: the global obligations
        if r0.is_pointer:
            self._reject(f"insn {insn_idx}: R0 must be a scalar at "
                         "program exit (pointer leak)")
        if state.active_spin_lock is not None:
            self._reject(f"insn {insn_idx}: bpf_spin_lock is still "
                         "held at program exit")
        if state.acquired_refs:
            ref = state.acquired_refs[0]
            self._reject(f"insn {insn_idx}: unreleased reference "
                         f"{ref.kind} acquired at insn "
                         f"{ref.acquired_at}")
        ret_range = self.type_info.ret_range
        if ret_range is not None:
            lo, hi = ret_range
            if r0.umin > hi or r0.umax < lo or r0.umax > hi:
                self._reject(
                    f"insn {insn_idx}: program return value "
                    f"[{r0.umin}, {r0.umax}] outside allowed "
                    f"[{lo}, {hi}]")
        return True
