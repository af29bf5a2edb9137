"""Load-time predecoding: lower ``Insn`` objects into the compiler's IR.

The decode-per-step interpreter re-derives the instruction class, size
bits, source mode and sign extensions of every instruction *on every
execution* — pure overhead, since none of it changes after load.  This
pass runs once per program (and is cached content-addressed by the
loader, see :mod:`repro.ebpf.progcache`) and emits one flat tuple per
instruction slot with everything pre-resolved, which
:mod:`repro.ebpf.compile` lowers to Python source:

* opcode class and operation mapped to dense small-integer kinds,
* memory access sizes in bytes, store width masks, and ``BPF_ST``
  immediate payloads rendered to their little-endian byte strings,
* jump targets as absolute instruction indices (plus a backward-edge
  flag, which the compiled tier uses as a virtual-clock flush point),
* ``ld_imm64`` constants fully materialised, including the
  ``BPF_PSEUDO_MAP_FD`` / ``BPF_PSEUDO_FUNC`` sentinels,
* immediates pre-sign-extended in both the unsigned and signed
  interpretations a conditional jump needs.

Every slot is decoded independently of control flow, exactly like the
decode-per-step path: jumping into the second half of an ``ld_imm64``
lands on whatever that slot decodes to, which is what makes the
hidden-instruction attack (and its verifier rejection) faithful.

Predecoding is purely mechanical — it proves nothing.  An unverified
program predecodes fine and still oopses the kernel at run time; the
table only moves decoding work off the hot path (the same
move Rex/MOAT make by pushing checks to load time).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.ebpf import isa
from repro.ebpf.isa import Insn, sign_extend, to_u64

#: sentinel base address for map references in registers
MAP_PTR_BASE = 0xFFFF_C900_0000_0000
#: sentinel base address for callback (func) references
FUNC_PTR_BASE = 0xFFFF_FFFF_A000_0000

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1

# -- slot kinds (dense ints) --------------------------------------------------
K_BAD = 0           # (K_BAD, message)
K_EXIT = 1          # (K_EXIT,)
K_JA = 2            # (K_JA, target, backward)
K_MOV64_K = 3       # (kind, dst, value_u64)
K_MOV64_X = 4       # (kind, dst, src)
K_MOV32_K = 5       # (kind, dst, value_u32)
K_MOV32_X = 6       # (kind, dst, src)
K_ALU64_K = 7       # (kind, op, dst, imm_u64)
K_ALU64_X = 8       # (kind, op, dst, src)
K_ALU32_K = 9       # (kind, op, dst, imm_u32)
K_ALU32_X = 10      # (kind, op, dst, src)
K_LD_IMM64 = 11     # (kind, dst, value, next_idx)
K_LDX = 12          # (kind, dst, src, off, size)
K_ST = 13           # (kind, dst, off, data_bytes)
K_STX = 14          # (kind, dst, src, off, size, mask)
K_ATOMIC = 15       # (kind, dst, src, off, size, imm)
K_JMP_K = 16        # (kind, op, dst, imm_u64, imm_s64, target, backward)
K_JMP_X = 17        # (kind, op, dst, src, target, backward)
K_JMP32_K = 18      # (kind, op, dst, imm_u32, imm_s32, target, backward)
K_JMP32_X = 19      # (kind, op, dst, src, target, backward)
K_CALL_HELPER = 20  # (kind, helper_id)
K_CALL_SUB = 21     # (kind, target)

# -- dense ALU operation ids --------------------------------------------------
A_ADD, A_SUB, A_MUL, A_DIV, A_MOD, A_OR, A_AND, A_XOR, \
    A_LSH, A_RSH, A_ARSH, A_NEG, A_MOV = range(13)

_ALU_REMAP = {
    isa.BPF_ADD: A_ADD, isa.BPF_SUB: A_SUB, isa.BPF_MUL: A_MUL,
    isa.BPF_DIV: A_DIV, isa.BPF_MOD: A_MOD, isa.BPF_OR: A_OR,
    isa.BPF_AND: A_AND, isa.BPF_XOR: A_XOR, isa.BPF_LSH: A_LSH,
    isa.BPF_RSH: A_RSH, isa.BPF_ARSH: A_ARSH, isa.BPF_NEG: A_NEG,
    isa.BPF_MOV: A_MOV,
}

# -- dense conditional-jump operation ids -------------------------------------
J_EQ, J_NE, J_GT, J_GE, J_LT, J_LE, J_SET, \
    J_SGT, J_SGE, J_SLT, J_SLE = range(11)

_JMP_REMAP = {
    isa.BPF_JEQ: J_EQ, isa.BPF_JNE: J_NE, isa.BPF_JGT: J_GT,
    isa.BPF_JGE: J_GE, isa.BPF_JLT: J_LT, isa.BPF_JLE: J_LE,
    isa.BPF_JSET: J_SET, isa.BPF_JSGT: J_SGT, isa.BPF_JSGE: J_SGE,
    isa.BPF_JSLT: J_SLT, isa.BPF_JSLE: J_SLE,
}


class PredecodedProgram:
    """One program lowered to a flat dispatch table."""

    __slots__ = ("slots", "n_insns")

    def __init__(self, slots: Tuple[tuple, ...]) -> None:
        self.slots = slots
        self.n_insns = len(slots)


def _decode_alu(insn: Insn, is64: bool) -> tuple:
    op = _ALU_REMAP.get(insn.opcode & isa.ALU_OP_MASK)
    if op is None:
        return (K_BAD,
                f"unsupported ALU op {insn.opcode & isa.ALU_OP_MASK:#x}")
    use_reg = bool(insn.opcode & isa.BPF_X)
    if op == A_MOV:
        if use_reg:
            return ((K_MOV64_X if is64 else K_MOV32_X),
                    insn.dst, insn.src)
        value = to_u64(insn.imm)
        if not is64:
            value &= U32
        return ((K_MOV64_K if is64 else K_MOV32_K), insn.dst, value)
    if use_reg:
        return ((K_ALU64_X if is64 else K_ALU32_X), op, insn.dst,
                insn.src)
    imm = to_u64(insn.imm)
    if not is64:
        imm &= U32
    return ((K_ALU64_K if is64 else K_ALU32_K), op, insn.dst, imm)


def _decode_jump(insn: Insn, idx: int, is32: bool) -> tuple:
    op = insn.opcode & isa.JMP_OP_MASK
    if op == isa.BPF_EXIT:
        return (K_EXIT,)
    if op == isa.BPF_JA:
        target = idx + insn.off + 1
        return (K_JA, target, target <= idx)
    if op == isa.BPF_CALL:
        if insn.src == isa.BPF_PSEUDO_CALL:
            return (K_CALL_SUB, idx + insn.imm + 1)
        return (K_CALL_HELPER, insn.imm)
    cond = _JMP_REMAP.get(op)
    if cond is None:
        return (K_BAD, f"unsupported jump op {op:#x}")
    target = idx + insn.off + 1
    backward = target <= idx
    use_reg = bool(insn.opcode & isa.BPF_X)
    if is32:
        if use_reg:
            return (K_JMP32_X, cond, insn.dst, insn.src, target,
                    backward)
        imm_u = to_u64(insn.imm) & U32
        return (K_JMP32_K, cond, insn.dst, imm_u,
                sign_extend(imm_u, 32), target, backward)
    if use_reg:
        return (K_JMP_X, cond, insn.dst, insn.src, target, backward)
    return (K_JMP_K, cond, insn.dst, to_u64(insn.imm), insn.imm,
            target, backward)


def _decode_one(insns: Sequence[Insn], idx: int) -> tuple:
    insn = insns[idx]
    cls = insn.opcode & isa.CLASS_MASK

    if insn.is_ld_imm64:
        if idx + 1 >= len(insns):
            # every ld_imm64 form occupies two slots — the pseudo
            # forms too, even though their second slot carries no bits
            return (K_BAD, f"incomplete ld_imm64 at {idx}")
        if insn.src == isa.BPF_PSEUDO_MAP_FD:
            value = MAP_PTR_BASE + insn.imm
        elif insn.src == isa.BPF_PSEUDO_FUNC:
            value = FUNC_PTR_BASE + (idx + insn.imm + 1)
        else:
            hi = insns[idx + 1].imm & 0xFFFFFFFF
            value = (hi << 32) | (insn.imm & 0xFFFFFFFF)
        return (K_LD_IMM64, insn.dst, value, idx + 2)

    if cls == isa.BPF_ALU64 or cls == isa.BPF_ALU:
        return _decode_alu(insn, cls == isa.BPF_ALU64)

    if cls == isa.BPF_LDX:
        return (K_LDX, insn.dst, insn.src, insn.off,
                isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK])

    if cls == isa.BPF_STX or cls == isa.BPF_ST:
        size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
        mask = (1 << (size * 8)) - 1
        if cls == isa.BPF_STX:
            if (insn.opcode & isa.MODE_MASK) == isa.BPF_ATOMIC:
                return (K_ATOMIC, insn.dst, insn.src, insn.off, size,
                        insn.imm)
            return (K_STX, insn.dst, insn.src, insn.off, size, mask)
        data = (to_u64(insn.imm) & mask).to_bytes(size, "little")
        return (K_ST, insn.dst, insn.off, data)

    if cls == isa.BPF_JMP or cls == isa.BPF_JMP32:
        return _decode_jump(insn, idx, cls == isa.BPF_JMP32)

    return (K_BAD, f"unsupported opcode {insn.opcode:#04x} at {idx}")


def predecode(insns: Sequence[Insn]) -> PredecodedProgram:
    """Lower a program to its dispatch table (one slot per insn)."""
    slots: List[tuple] = [_decode_one(insns, idx)
                          for idx in range(len(insns))]
    return PredecodedProgram(tuple(slots))
