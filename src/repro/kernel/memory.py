"""The simulated kernel address space.

Kernel memory is modeled as a set of typed allocations living at
simulated virtual addresses.  Every load and store goes through
:meth:`KernelAddressSpace.read` / :meth:`KernelAddressSpace.write`,
which detect exactly the fault classes of the paper's Table 1:

* NULL-pointer dereference (access inside the zero page),
* use-after-free (access to a freed allocation),
* out-of-bounds access (access past a live allocation's end),
* wild access (address mapped to no allocation at all).

A detected fault is reported through the fault hook (wired to the
kernel's oops path) and raised, so an unsafe helper genuinely *crashes
the simulated kernel* rather than raising a polite Python error.

Addresses come from a bump allocator and are never reused, so an
allocation's range is fixed for the life of the address space.  That
makes two shortcuts exact: a two-entry cache of the last allocations
an access resolved to, and an index that stores the per-run BPF stack
frames as arithmetic runs of bases rather than one entry each (a
lookup that lands in a retired frame rebuilds it as a freed
allocation, so a stale stack pointer still faults as use-after-free).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Union

from repro.errors import (
    MemoryFault,
    NullDereference,
    OutOfBoundsAccess,
    UseAfterFree,
)

#: base of the simulated kernel direct map (mirrors x86-64)
KERNEL_BASE = 0xFFFF_8880_0000_0000

#: accesses below this address are NULL-page dereferences
NULL_PAGE_SIZE = 4096

#: allocation granularity
ALLOC_ALIGN = 16

#: size of the stack frame every BPF program run allocates
#: (``MAX_BPF_STACK``)
BPF_STACK_SIZE = 512

#: type tag of a BPF stack frame allocation
BPF_STACK_TYPE = "bpf_stack"


def _footprint(size: int) -> int:
    """Address-space bytes one allocation of ``size`` consumes: the
    aligned size plus the red zone that follows it."""
    return ((size + ALLOC_ALIGN - 1) & ~(ALLOC_ALIGN - 1)) + ALLOC_ALIGN


#: distance between the bases of back-to-back stack frames
STACK_STRIDE = _footprint(BPF_STACK_SIZE)


class Allocation:
    """One live (or freed) kernel allocation.  ``base`` and ``size``
    never change, so ``end`` is fixed at creation."""

    __slots__ = ("alloc_id", "base", "size", "end", "type_name", "owner",
                 "data", "freed")

    def __init__(self, alloc_id: int, base: int, size: int,
                 type_name: str, owner: str,
                 data: Optional[bytes] = None,
                 freed: bool = False) -> None:
        self.alloc_id = alloc_id
        self.base = base
        self.size = size
        #: one past the last valid byte
        self.end = base + size
        self.type_name = type_name
        self.owner = owner
        self.data = bytearray() if data is None else data
        self.freed = freed

    def __repr__(self) -> str:
        return (f"Allocation(alloc_id={self.alloc_id!r}, "
                f"base={self.base!r}, size={self.size!r}, "
                f"type_name={self.type_name!r}, owner={self.owner!r}, "
                f"freed={self.freed!r})")

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this allocation's range."""
        return self.base <= address < self.end


class _StackRun:
    """Back-to-back BPF stack frames with one owner, indexed as one
    entry: frame ``k`` has base ``base + k * STACK_STRIDE`` and id
    ``first_id + k``.  ``end`` is one past the last frame's red zone."""

    __slots__ = ("base", "first_id", "owner", "end")

    def __init__(self, base: int, first_id: int, owner: str) -> None:
        self.base = base
        self.first_id = first_id
        self.owner = owner
        self.end = base + STACK_STRIDE


#: before any access resolves, the cache holds this empty range
_NO_ALLOCATION = Allocation(0, 0, 0, "none", "none", freed=True)


class KernelAddressSpace:
    """Allocator plus checked load/store for simulated kernel memory."""

    def __init__(self) -> None:
        self._next_base = KERNEL_BASE
        self._next_id = 1
        #: index entry bases, ascending (the bump allocator is
        #: monotonic, so entries are appended in order)
        self._by_base: List[int] = []
        #: parallel to ``_by_base``: an allocation (live or freed), or
        #: a run of stack frames
        self._entries: List[Union[Allocation, _StackRun]] = []
        #: base -> live stack frame; a frame in a run but not here is
        #: retired
        self._live_stacks: Dict[int, Allocation] = {}
        #: the run the next stack frame extends, while the last
        #: allocation was a stack frame
        self._tail_run: Optional[_StackRun] = None
        #: the last two allocations an access resolved to
        self._hot = self._warm = _NO_ALLOCATION
        self._live_bytes = 0
        #: called with the fault exception before it is raised; the
        #: kernel wires this to its oops path
        self.fault_hook: Optional[Callable[[MemoryFault], None]] = None
        #: optional access policy called on every valid access with
        #: (alloc, address, size, source, write); raising from it
        #: blocks the access — models protection-key checks (§4)
        self.access_policy: Optional[Callable] = None
        #: optional SMP observer called with (alloc, address, size,
        #: write) after a valid access resolves — the deterministic
        #: scheduler turns shared-storage accesses into yield points
        #: and feeds the race detector through it (one attribute test
        #: while no SMP run is active)
        self.smp_note: Optional[Callable] = None

    # -- allocation ---------------------------------------------------------

    def kmalloc(self, size: int, type_name: str = "void",
                owner: str = "kernel") -> Allocation:
        """Allocate ``size`` bytes of zeroed kernel memory."""
        if size <= 0:
            raise ValueError(f"kmalloc size must be positive, got {size}")
        base = self._next_base
        self._next_base += _footprint(size)  # red zone between objects
        alloc = Allocation(self._next_id, base, size, type_name, owner,
                           bytearray(size))
        self._next_id += 1
        self._live_bytes += size
        if size == BPF_STACK_SIZE and type_name == BPF_STACK_TYPE:
            self._live_stacks[base] = alloc
            run = self._tail_run
            if run is not None and run.owner == owner:
                assert base == run.end
                run.end += STACK_STRIDE
                return alloc
            entry: Union[Allocation, _StackRun] = _StackRun(
                base, alloc.alloc_id, owner)
            self._tail_run = entry
        else:
            entry = alloc
            self._tail_run = None
        assert not self._by_base or base > self._by_base[-1]
        self._by_base.append(base)
        self._entries.append(entry)
        return alloc

    def kfree(self, alloc: Allocation) -> None:
        """Free an allocation.  Double-free faults."""
        if alloc.freed:
            self._fault(UseAfterFree(
                f"double free of {alloc.type_name} at {alloc.base:#x}",
                address=alloc.base, source=alloc.owner))
        alloc.freed = True
        # every reader faults on ``freed`` before it touches the bytes
        alloc.data = b""
        self._live_bytes -= alloc.size
        if alloc.size == BPF_STACK_SIZE and alloc.type_name == BPF_STACK_TYPE:
            del self._live_stacks[alloc.base]
        # The range stays known so later accesses report use-after-free
        # instead of a wild access (KASAN-style quarantine).

    @property
    def live_bytes(self) -> int:
        """Bytes currently allocated and not freed."""
        return self._live_bytes

    @property
    def index_size(self) -> int:
        """Entries in the address index: one per allocation that is not
        a stack frame, plus one per run of stack frames."""
        return len(self._by_base)

    @property
    def live_stack_count(self) -> int:
        """Stack frames currently allocated and not freed."""
        return len(self._live_stacks)

    def live_allocations(self, owner: Optional[str] = None) -> List[Allocation]:
        """All live allocations, optionally filtered by owner tag."""
        allocs = [entry for entry in self._entries
                  if entry.__class__ is Allocation and not entry.freed]
        allocs.extend(self._live_stacks.values())
        if owner is not None:
            allocs = [a for a in allocs if a.owner == owner]
        return sorted(allocs, key=lambda a: a.base)

    # -- checked access -----------------------------------------------------

    def read(self, address: int, size: int, *,
             source: str = "kernel") -> bytes:
        """Checked load of ``size`` bytes; faults on any invalid access."""
        if size == 0:
            return b""
        alloc = self._resolve(address, size, source)
        if self.access_policy is not None:
            self.access_policy(alloc, address, size, source, False)
        if self.smp_note is not None:
            self.smp_note(alloc, address, size, False)
        offset = address - alloc.base
        return bytes(alloc.data[offset:offset + size])

    def write(self, address: int, data: bytes, *,
              source: str = "kernel") -> None:
        """Checked store; faults on any invalid access."""
        if not data:
            return
        alloc = self._resolve(address, len(data), source)
        if self.access_policy is not None:
            self.access_policy(alloc, address, len(data), source, True)
        if self.smp_note is not None:
            self.smp_note(alloc, address, len(data), True)
        offset = address - alloc.base
        alloc.data[offset:offset + len(data)] = data

    def read_u64(self, address: int, *, source: str = "kernel") -> int:
        """Checked 8-byte little-endian load."""
        return int.from_bytes(self.read(address, 8, source=source), "little")

    def write_u64(self, address: int, value: int, *,
                  source: str = "kernel") -> None:
        """Checked 8-byte little-endian store."""
        self.write(address, (value & (2**64 - 1)).to_bytes(8, "little"),
                   source=source)

    # -- non-faulting access (exception-table style, like probe_read) --------

    def valid_range(self, address: int, size: int) -> bool:
        """True when [address, address+size) is fully inside one live
        allocation — the check ``copy_from_kernel_nofault`` relies on."""
        return self._live_range(address, size) is not None

    def try_read(self, address: int, size: int) -> Optional[bytes]:
        """Read without faulting; None when the range is invalid."""
        alloc = self._live_range(address, size)
        if alloc is None:
            return None
        offset = address - alloc.base
        return bytes(alloc.data[offset:offset + size])

    def try_write(self, address: int, data: bytes) -> bool:
        """Write without faulting; False when the range is invalid."""
        alloc = self._live_range(address, len(data))
        if alloc is None:
            return False
        offset = address - alloc.base
        alloc.data[offset:offset + len(data)] = data
        return True

    def find_allocation(self, address: int) -> Optional[Allocation]:
        """The allocation whose range covers ``address``, if any
        (freed allocations included)."""
        idx = bisect.bisect_right(self._by_base, address) - 1
        if idx < 0:
            return None
        entry = self._entries[idx]
        if address >= entry.end:
            return None
        if entry.__class__ is Allocation:
            return entry
        frame, offset = divmod(address - entry.base, STACK_STRIDE)
        if offset >= BPF_STACK_SIZE:
            return None  # the red zone after a frame
        base = entry.base + frame * STACK_STRIDE
        live = self._live_stacks.get(base)
        if live is not None:
            return live
        return Allocation(entry.first_id + frame, base, BPF_STACK_SIZE,
                          BPF_STACK_TYPE, entry.owner, b"", True)

    # -- internals ----------------------------------------------------------

    def _live_range(self, address: int, size: int) -> Optional[Allocation]:
        """The live allocation holding all of [address, address+size),
        or None; never faults."""
        if size <= 0 or address < NULL_PAGE_SIZE:
            return None
        alloc = self.find_allocation(address)
        if alloc is None or alloc.freed or address + size > alloc.end:
            return None
        return alloc

    def _resolve(self, address: int, size: int, source: str) -> Allocation:
        """Map an access to its allocation or fault.

        The hot/warm cache is exact: an allocation's range never moves
        and no address is ever handed out twice, so an address inside
        a cached range belongs to that allocation (live or freed)."""
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        if 0 <= address < NULL_PAGE_SIZE:
            self._fault(NullDereference(
                f"NULL pointer dereference at {address:#x}",
                address=address, source=source))
        alloc = self._hot
        if not alloc.base <= address < alloc.end:
            alloc = self._warm
            if not alloc.base <= address < alloc.end:
                alloc = self.find_allocation(address)
                if alloc is None:
                    self._fault(MemoryFault(
                        f"wild kernel access at unmapped address "
                        f"{address:#x}",
                        address=address, source=source))
                    raise AssertionError("unreachable")  # pragma: no cover
            self._warm = self._hot
            self._hot = alloc
        if alloc.freed:
            self._fault(UseAfterFree(
                f"use-after-free of {alloc.type_name} at {address:#x}",
                address=address, source=source))
        if address + size > alloc.end:
            self._fault(OutOfBoundsAccess(
                f"out-of-bounds access of {alloc.type_name}: "
                f"[{address:#x}, +{size}) beyond {alloc.end:#x}",
                address=address, source=source))
        return alloc

    def _fault(self, fault: MemoryFault) -> None:
        """Report a fault through the hook, then raise it."""
        if self.fault_hook is not None:
            self.fault_hook(fault)
        raise fault
