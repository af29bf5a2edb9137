"""Verifier register, stack and frame state.

Mirrors ``struct bpf_reg_state``: each register has a type from the
pointer lattice, a fixed offset, a tnum for the variable part, and
64-bit signed/unsigned range bounds.  The bounds-propagation helpers
(:meth:`RegState.update_bounds`, :meth:`RegState.deduce_bounds`,
:meth:`RegState.bound_offset`) are ports of the kernel's
``__update_reg_bounds`` / ``__reg_deduce_bounds`` /
``__reg_bound_offset``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ebpf.verifier.tnum import TNUM_UNKNOWN, Tnum, U64

S64_MIN = -(1 << 63)
S64_MAX = (1 << 63) - 1
U64_MAX = U64


def u64_to_s64(x: int) -> int:
    """Reinterpret an unsigned 64-bit value as signed."""
    return x - (1 << 64) if x & (1 << 63) else x


def s64_to_u64(x: int) -> int:
    """Reinterpret a signed 64-bit value as unsigned."""
    return x & U64


class RegType(enum.Enum):
    """The pointer-type lattice (subset of ``enum bpf_reg_type``)."""

    NOT_INIT = "not_init"
    SCALAR = "scalar"
    PTR_TO_CTX = "ctx"
    PTR_TO_STACK = "fp"
    PTR_TO_MAP_VALUE = "map_value"
    PTR_TO_MAP_VALUE_OR_NULL = "map_value_or_null"
    CONST_PTR_TO_MAP = "map_ptr"
    PTR_TO_PACKET = "pkt"
    PTR_TO_PACKET_END = "pkt_end"
    PTR_TO_SOCKET = "sock"
    PTR_TO_SOCKET_OR_NULL = "sock_or_null"
    PTR_TO_MEM = "mem"
    PTR_TO_MEM_OR_NULL = "mem_or_null"
    PTR_TO_FUNC = "func"


#: types that may be NULL and must be null-checked before use
OR_NULL_TYPES = {
    RegType.PTR_TO_MAP_VALUE_OR_NULL: RegType.PTR_TO_MAP_VALUE,
    RegType.PTR_TO_SOCKET_OR_NULL: RegType.PTR_TO_SOCKET,
    RegType.PTR_TO_MEM_OR_NULL: RegType.PTR_TO_MEM,
}

#: pointer types an extension may do (bounded) arithmetic on
ARITH_OK_TYPES = {
    RegType.PTR_TO_STACK,
    RegType.PTR_TO_MAP_VALUE,
    RegType.PTR_TO_PACKET,
}


@dataclass(slots=True)
class RegState:
    """Abstract state of one register.

    Slotted: the verifier copies a register for every checkpoint and
    fork, and a slotted copy is both faster and smaller."""

    type: RegType = RegType.NOT_INIT
    #: fixed (compile-time known) offset from the pointer base
    off: int = 0
    #: variable part of the value / offset (tnums are immutable, so
    #: every unknown register can share one)
    var_off: Tnum = TNUM_UNKNOWN
    smin: int = S64_MIN
    smax: int = S64_MAX
    umin: int = 0
    umax: int = U64_MAX
    #: identity for or-null tracking (same id = same helper result)
    id: int = 0
    #: non-zero when this register holds an acquired reference
    ref_obj_id: int = 0
    #: the map this pointer derives from (map_value / map_ptr types)
    map: Optional[object] = None
    #: size of the pointed-to memory for PTR_TO_MEM
    mem_size: int = 0
    #: which call frame a PTR_TO_STACK points into
    frameno: int = 0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def not_init(cls) -> "RegState":
        """An uninitialized register."""
        return cls()

    @classmethod
    def unknown_scalar(cls) -> "RegState":
        """A scalar with no known bits or bounds."""
        return cls(type=RegType.SCALAR)

    @classmethod
    def const_scalar(cls, value: int) -> "RegState":
        """A fully known scalar."""
        uval = value & U64
        sval = u64_to_s64(uval)
        return cls(RegType.SCALAR, 0, Tnum(uval, 0), sval, sval, uval, uval)

    @classmethod
    def pointer(cls, reg_type: RegType, off: int = 0, **kwargs) -> "RegState":
        """A pointer with a known offset and no variable part."""
        reg = cls(type=reg_type, off=off, var_off=Tnum.const(0),
                  smin=0, smax=0, umin=0, umax=0, **kwargs)
        return reg

    # -- mutation helpers --------------------------------------------------------

    def set_const(self, value: int) -> None:
        """Pin this scalar to one concrete value."""
        uval = value & U64
        self.var_off = Tnum.const(uval)
        self.umin = self.umax = uval
        self.smin = self.smax = u64_to_s64(uval)

    def mark_unknown(self) -> None:
        """Forget everything; the register is an unknown scalar."""
        self.type = RegType.SCALAR
        self.off = 0
        self.var_off = TNUM_UNKNOWN
        self.smin, self.smax = S64_MIN, S64_MAX
        self.umin, self.umax = 0, U64_MAX
        self.id = 0
        self.ref_obj_id = 0
        self.map = None
        self.mem_size = 0

    # -- predicates ----------------------------------------------------------------

    @property
    def is_pointer(self) -> bool:
        """True for every non-scalar, initialized type."""
        return self.type not in (RegType.NOT_INIT, RegType.SCALAR)

    @property
    def is_const(self) -> bool:
        """True when a scalar has exactly one possible value."""
        return self.type == RegType.SCALAR and self.var_off.is_const

    @property
    def const_value(self) -> int:
        """The single value of a constant scalar (unsigned view)."""
        if not self.var_off.is_const:
            raise ValueError("register is not a known constant")
        return self.var_off.value

    # -- bounds propagation (ports of the kernel helpers) ------------------------

    def update_bounds(self) -> None:
        """``__update_reg_bounds``: tighten ranges from var_off."""
        sign_bit = 1 << 63
        self.smin = max(self.smin, u64_to_s64(
            self.var_off.value | (self.var_off.mask & sign_bit)))
        self.smax = min(self.smax, u64_to_s64(
            self.var_off.value | (self.var_off.mask & (U64 >> 1))))
        self.umin = max(self.umin, self.var_off.value)
        self.umax = min(self.umax, self.var_off.value | self.var_off.mask)

    def deduce_bounds(self) -> None:
        """``__reg64_deduce_bounds``: cross-derive signed/unsigned.

        If the signed range cannot cross the sign boundary, signed and
        unsigned orders agree and each tightens the other; otherwise
        only one side of the unsigned range is trustworthy.
        """
        if self.smin >= 0 or self.smax < 0:
            lo = max(s64_to_u64(self.smin), self.umin)
            hi = min(s64_to_u64(self.smax), self.umax)
            self.smin, self.umin = u64_to_s64(lo), lo
            self.smax, self.umax = u64_to_s64(hi), hi
            return
        if u64_to_s64(self.umax) >= 0:
            # whole unsigned range is non-negative as signed
            self.smin = u64_to_s64(self.umin)
            hi = min(s64_to_u64(self.smax), self.umax)
            self.smax, self.umax = u64_to_s64(hi), hi
        elif u64_to_s64(self.umin) < 0:
            # whole unsigned range is negative as signed
            lo = max(s64_to_u64(self.smin), self.umin)
            self.smin, self.umin = u64_to_s64(lo), lo
            self.smax = u64_to_s64(self.umax)

    def bound_offset(self) -> None:
        """``__reg_bound_offset``: feed ranges back into var_off."""
        self.var_off = self.var_off.intersect(
            Tnum.range(self.umin, self.umax))

    def settle_bounds(self) -> None:
        """Run the full propagation pipeline after an update."""
        self.update_bounds()
        self.deduce_bounds()
        self.bound_offset()

    # -- copying / comparison --------------------------------------------------------

    def copy(self) -> "RegState":
        """Deep-enough copy (tnums are immutable; map is shared),
        field by field, skipping ``__init__``."""
        reg = RegState.__new__(RegState)
        reg.type = self.type
        reg.off = self.off
        reg.var_off = self.var_off
        reg.smin = self.smin
        reg.smax = self.smax
        reg.umin = self.umin
        reg.umax = self.umax
        reg.id = self.id
        reg.ref_obj_id = self.ref_obj_id
        reg.map = self.map
        reg.mem_size = self.mem_size
        reg.frameno = self.frameno
        return reg

    def subsumes(self, other: "RegState") -> bool:
        """``regsafe``: is every behaviour of ``other`` covered by
        ``self``?  Used for explored-state pruning."""
        if self.type != other.type:
            # a known-safe unknown scalar covers any scalar
            return False
        if self.type == RegType.SCALAR:
            return (self.smin <= other.smin and self.smax >= other.smax
                    and self.umin <= other.umin and self.umax >= other.umax
                    and self.var_off.contains(other.var_off))
        return (self.off == other.off
                and self.var_off == other.var_off
                and self.map is other.map
                and self.mem_size == other.mem_size
                and self.ref_obj_id == other.ref_obj_id
                and self.frameno == other.frameno)

    def state_key(self) -> tuple:
        """Hashable exact-state key (infinite-loop detection).  It
        carries the type's unique name, not the enum member: an
        ``Enum`` hashes in Python code, a ``str`` in C."""
        return (self.type._name_, self.off,
                self.var_off.value, self.var_off.mask,
                self.smin, self.smax, self.umin, self.umax,
                self.id, self.ref_obj_id, id(self.map), self.mem_size,
                self.frameno)

    def __str__(self) -> str:
        if self.type == RegType.NOT_INIT:
            return "?"
        if self.type == RegType.SCALAR:
            if self.is_const:
                return f"{u64_to_s64(self.const_value)}"
            return (f"scalar(umin={self.umin},umax={self.umax},"
                    f"smin={self.smin},smax={self.smax})")
        extra = f"+{self.off}" if self.off else ""
        return f"{self.type.value}{extra}"


class SlotKind(enum.Enum):
    """What one 8-byte stack slot holds."""

    INVALID = "invalid"
    SPILL = "spill"
    MISC = "misc"
    ZERO = "zero"


@dataclass
class StackSlot:
    """Verifier view of one 8-byte stack slot."""

    kind: SlotKind = SlotKind.INVALID
    reg: Optional[RegState] = None

    def copy(self) -> "StackSlot":
        """Deep copy for state forking."""
        return StackSlot(self.kind,
                         self.reg.copy() if self.reg else None)

    def state_key(self) -> tuple:
        """Hashable exact-state key (the kind by name, as in
        :meth:`RegState.state_key`)."""
        return (self.kind._name_,
                self.reg.state_key() if self.reg else None)


@dataclass
class FuncFrame:
    """One call frame: registers plus stack."""

    regs: List[RegState]
    #: slot index (0 = [-8, 0) below fp) -> contents
    stack: Dict[int, StackSlot]
    #: index of this frame (0 = main program)
    frameno: int = 0
    #: instruction to return to in the caller
    callsite: int = -1
    #: set while verifying a helper-invoked callback (bpf_loop)
    in_callback: bool = False

    @classmethod
    def fresh(cls, frameno: int = 0, callsite: int = -1) -> "FuncFrame":
        """A frame with fp set up and everything else uninitialized."""
        regs = [RegState.not_init() for __ in range(11)]
        regs[10] = RegState.pointer(RegType.PTR_TO_STACK, off=0,
                                    frameno=frameno)
        return cls(regs=regs, stack={}, frameno=frameno, callsite=callsite)

    def copy(self) -> "FuncFrame":
        """Deep copy for state forking."""
        frame = FuncFrame(
            regs=[r.copy() for r in self.regs],
            stack={k: v.copy() for k, v in self.stack.items()},
            frameno=self.frameno, callsite=self.callsite,
            in_callback=self.in_callback)
        return frame

    def state_key(self) -> tuple:
        """Hashable exact-state key over regs and stack."""
        return (tuple([r.state_key() for r in self.regs]),
                tuple(sorted((k, v.state_key())
                             for k, v in self.stack.items())),
                self.callsite, self.in_callback)
