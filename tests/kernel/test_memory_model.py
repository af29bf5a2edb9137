"""Model check of the address space against a naive reference.

:class:`NaiveAddressSpace` keeps every allocation ever made in one
list and answers every lookup with a linear scan: no resolve cache,
no stack-run index, no released bytes.  A hypothesis state machine
drives both with the same random sequence of allocations (ordinary
objects and BPF stack frames), frees (double frees included) and
checked / non-faulting accesses aimed at bases, ends, red zones,
retired stack frames, the last address touched and the NULL page.
Every step must give the same result, or the same exception type,
message, address and source.
"""

from types import SimpleNamespace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import (
    MemoryFault,
    NullDereference,
    OutOfBoundsAccess,
    UseAfterFree,
)
from repro.kernel.memory import (
    ALLOC_ALIGN,
    BPF_STACK_SIZE,
    BPF_STACK_TYPE,
    KERNEL_BASE,
    NULL_PAGE_SIZE,
    KernelAddressSpace,
)

OWNERS = ("kernel", "bpf:a", "bpf:b")
SIZES = (1, 7, 8, 16, 24, 64, BPF_STACK_SIZE - 1, BPF_STACK_SIZE,
         BPF_STACK_SIZE + 1)
ACCESS_SIZES = (-1, 0, 1, 2, 4, 8, 16, 64, BPF_STACK_SIZE)
EDGE_DELTAS = (-ALLOC_ALIGN, -1, 0, 1, ALLOC_ALIGN - 1, ALLOC_ALIGN)
OPS = ("read", "write", "try_read", "try_write", "valid_range",
       "find_allocation")


class NaiveAddressSpace:
    """The specification: same bump allocator, linear-scan lookups."""

    def __init__(self):
        self.next_base = KERNEL_BASE
        self.next_id = 1
        self.allocs = []

    def kmalloc(self, size, type_name, owner):
        if size <= 0:
            raise ValueError(f"kmalloc size must be positive, got {size}")
        alloc = SimpleNamespace(
            alloc_id=self.next_id, base=self.next_base, size=size,
            end=self.next_base + size, type_name=type_name, owner=owner,
            data=bytearray(size), freed=False)
        self.next_id += 1
        aligned = (size + ALLOC_ALIGN - 1) & ~(ALLOC_ALIGN - 1)
        self.next_base += aligned + ALLOC_ALIGN
        self.allocs.append(alloc)
        return alloc

    def kfree(self, alloc):
        if alloc.freed:
            raise UseAfterFree(
                f"double free of {alloc.type_name} at {alloc.base:#x}",
                address=alloc.base, source=alloc.owner)
        alloc.freed = True

    @property
    def live_bytes(self):
        return sum(a.size for a in self.allocs if not a.freed)

    def live_allocations(self):
        return [a for a in self.allocs if not a.freed]

    def find_allocation(self, address):
        for alloc in self.allocs:
            if alloc.base <= address < alloc.end:
                return alloc
        return None

    def _resolve(self, address, size, source):
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        if 0 <= address < NULL_PAGE_SIZE:
            raise NullDereference(
                f"NULL pointer dereference at {address:#x}",
                address=address, source=source)
        alloc = self.find_allocation(address)
        if alloc is None:
            raise MemoryFault(
                f"wild kernel access at unmapped address {address:#x}",
                address=address, source=source)
        if alloc.freed:
            raise UseAfterFree(
                f"use-after-free of {alloc.type_name} at {address:#x}",
                address=address, source=source)
        if address + size > alloc.end:
            raise OutOfBoundsAccess(
                f"out-of-bounds access of {alloc.type_name}: "
                f"[{address:#x}, +{size}) beyond {alloc.end:#x}",
                address=address, source=source)
        return alloc

    def read(self, address, size, *, source):
        if size == 0:
            return b""
        alloc = self._resolve(address, size, source)
        offset = address - alloc.base
        return bytes(alloc.data[offset:offset + size])

    def write(self, address, data, *, source):
        if not data:
            return
        alloc = self._resolve(address, len(data), source)
        offset = address - alloc.base
        alloc.data[offset:offset + len(data)] = data

    def valid_range(self, address, size):
        if size <= 0 or address < NULL_PAGE_SIZE:
            return False
        alloc = self.find_allocation(address)
        return (alloc is not None and not alloc.freed
                and address + size <= alloc.end)

    def try_read(self, address, size):
        if not self.valid_range(address, size):
            return None
        alloc = self.find_allocation(address)
        offset = address - alloc.base
        return bytes(alloc.data[offset:offset + size])

    def try_write(self, address, data):
        if not self.valid_range(address, len(data)):
            return False
        alloc = self.find_allocation(address)
        offset = address - alloc.base
        alloc.data[offset:offset + len(data)] = data
        return True


def summary(alloc):
    """What an allocation answer must agree on (object identity is
    not part of the contract for retired stack frames)."""
    if alloc is None:
        return None
    return (alloc.alloc_id, alloc.base, alloc.size, alloc.end,
            alloc.type_name, alloc.owner, alloc.freed)


def outcome(call):
    """A call's result, or its exception's type and payload."""
    try:
        result = call()
    except ValueError as err:
        return ("error", ValueError, str(err))
    except MemoryFault as fault:
        return ("fault", type(fault), str(fault), fault.address,
                fault.source)
    if isinstance(result, (bytes, bool)) or result is None:
        return ("ok", result)
    return ("ok", summary(result))


class AddressSpaceMachine(RuleBasedStateMachine):
    """Drive the real address space and the reference in lockstep."""

    @initialize()
    def boot(self):
        self.real = KernelAddressSpace()
        self.ref = NaiveAddressSpace()
        #: (real allocation, reference allocation), in kmalloc order
        self.pairs = []
        self.last = KERNEL_BASE
        self.stamp = 0

    def _kmalloc(self, size, type_name, owner):
        real = self.real.kmalloc(size, type_name, owner)
        ref = self.ref.kmalloc(size, type_name, owner)
        assert summary(real) == summary(ref)
        self.pairs.append((real, ref))

    @rule(size=st.sampled_from(SIZES) | st.integers(1, 700),
          type_name=st.sampled_from(("void", "map_value", BPF_STACK_TYPE)),
          owner=st.sampled_from(OWNERS))
    def kmalloc(self, size, type_name, owner):
        self._kmalloc(size, type_name, owner)

    @rule(frames=st.integers(1, 6), owner=st.sampled_from(OWNERS),
          retire=st.booleans())
    def stack_frames(self, frames, owner, retire):
        """Back-to-back stack frames, optionally freed as they return
        (the executor pattern), so runs build up and retire."""
        for __ in range(frames):
            self._kmalloc(BPF_STACK_SIZE, BPF_STACK_TYPE, owner)
            if retire:
                self._kfree(len(self.pairs) - 1)

    def _kfree(self, pick):
        real, ref = self.pairs[pick % len(self.pairs)]
        assert outcome(lambda: self.real.kfree(real)) == \
            outcome(lambda: self.ref.kfree(ref))

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 1 << 16))
    def kfree(self, pick):
        self._kfree(pick)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 1 << 16),
          offset=st.integers(0, BPF_STACK_SIZE - 1))
    def kfree_found(self, pick, offset):
        """Free whatever a lookup returns: for a retired stack frame
        that is a rebuilt object, which must still double-fault."""
        ref = self.pairs[pick % len(self.pairs)][1]
        address = ref.base + offset % ref.size
        real = self.real.find_allocation(address)
        assert summary(real) == summary(ref)
        assert outcome(lambda: self.real.kfree(real)) == \
            outcome(lambda: self.ref.kfree(ref))

    def _target(self, anchor, pick, delta):
        if anchor == "null":
            return pick % NULL_PAGE_SIZE
        if anchor == "last":
            return self.last + delta
        if anchor in ("last_base", "last_end"):
            # the edges of the allocation the last access landed in:
            # the one the resolve cache holds
            hit = self.ref.find_allocation(self.last)
            if hit is not None:
                edge = hit.base if anchor == "last_base" else hit.end
                return edge + delta
        if anchor == "beyond":
            return self.ref.next_base + delta
        if anchor == "below":
            return KERNEL_BASE - 1 - (pick % 64)
        if not self.pairs:
            return KERNEL_BASE + delta
        ref = self.pairs[pick % len(self.pairs)][1]
        return (ref.base if anchor == "base" else ref.end) + delta

    @rule(op=st.sampled_from(OPS),
          anchor=st.sampled_from(("base", "base", "end", "last",
                                  "last_base", "last_end", "null",
                                  "beyond", "below")),
          pick=st.integers(0, 1 << 16),
          delta=st.sampled_from(EDGE_DELTAS)
          | st.integers(-2 * ALLOC_ALIGN, 2 * ALLOC_ALIGN),
          size=st.sampled_from(ACCESS_SIZES))
    def access(self, op, anchor, pick, delta, size):
        self._compare(op, self._target(anchor, pick, delta), size)

    @precondition(lambda self: self.pairs)
    @rule(op=st.sampled_from(OPS), pick=st.integers(0, 1 << 16),
          other=st.integers(0, 1 << 16),
          size=st.sampled_from(ACCESS_SIZES))
    def cached_edges(self, op, pick, other, size):
        """Fill the resolve cache with two allocations (a checked read
        of each base: the first ends warm, the second hot), then probe
        around the edges of both: the cases the cache must get exactly
        as right as the index."""
        warm = self.pairs[pick % len(self.pairs)][1]
        hot = self.pairs[other % len(self.pairs)][1]
        for ref in (warm, hot):
            for address in (ref.base, ref.end - max(size, 1),
                            ref.end - 1, ref.end,
                            ref.end + ALLOC_ALIGN - 1, ref.base - 1):
                self._compare("read", warm.base, 1)
                self._compare("read", hot.base, 1)
                self._compare(op, address, size)

    def _compare(self, op, address, size):
        self.last = address
        self.stamp += 1
        data = bytes((self.stamp + i) & 0xFF for i in range(max(size, 0)))
        results = []
        for space in (self.real, self.ref):
            if op == "read":
                results.append(outcome(
                    lambda: space.read(address, size, source="model")))
            elif op == "write":
                results.append(outcome(
                    lambda: space.write(address, data, source="model")))
            elif op == "try_read":
                results.append(outcome(
                    lambda: space.try_read(address, size)))
            elif op == "try_write":
                results.append(outcome(
                    lambda: space.try_write(address, data)))
            elif op == "valid_range":
                results.append(outcome(
                    lambda: space.valid_range(address, size)))
            else:
                results.append(outcome(
                    lambda: space.find_allocation(address)))
        assert results[0] == results[1], (op, hex(address), size)

    @invariant()
    def live_state_agrees(self):
        assert self.real.live_bytes == self.ref.live_bytes
        assert [summary(a) for a in self.real.live_allocations()] == \
            [summary(a) for a in self.ref.live_allocations()]


TestAddressSpaceModel = AddressSpaceMachine.TestCase
TestAddressSpaceModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
