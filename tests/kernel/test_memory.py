"""Kernel address space unit tests."""

import pytest

from repro.errors import (
    MemoryFault,
    NullDereference,
    OutOfBoundsAccess,
    UseAfterFree,
)
from repro.kernel.memory import (
    BPF_STACK_SIZE,
    BPF_STACK_TYPE,
    KERNEL_BASE,
    KernelAddressSpace,
    NULL_PAGE_SIZE,
)


@pytest.fixture
def mem():
    return KernelAddressSpace()


class TestAllocation:
    def test_kmalloc_returns_kernel_address(self, mem):
        alloc = mem.kmalloc(64)
        assert alloc.base >= KERNEL_BASE

    def test_allocations_do_not_overlap(self, mem):
        a = mem.kmalloc(64)
        b = mem.kmalloc(64)
        assert a.end <= b.base or b.end <= a.base

    def test_red_zone_between_allocations(self, mem):
        a = mem.kmalloc(16)
        b = mem.kmalloc(16)
        assert b.base > a.end  # gap exists

    def test_zeroed_on_allocation(self, mem):
        alloc = mem.kmalloc(32)
        assert mem.read(alloc.base, 32) == b"\x00" * 32

    def test_zero_size_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.kmalloc(0)

    def test_negative_size_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.kmalloc(-8)

    def test_live_bytes_accounting(self, mem):
        a = mem.kmalloc(100)
        mem.kmalloc(50)
        assert mem.live_bytes == 150
        mem.kfree(a)
        assert mem.live_bytes == 50

    def test_live_allocations_filter_by_owner(self, mem):
        mem.kmalloc(8, owner="bpf")
        mem.kmalloc(8, owner="net")
        mem.kmalloc(8, owner="bpf")
        assert len(mem.live_allocations(owner="bpf")) == 2

    def test_alloc_ids_unique(self, mem):
        ids = {mem.kmalloc(8).alloc_id for __ in range(10)}
        assert len(ids) == 10


class TestCheckedAccess:
    def test_write_read_roundtrip(self, mem):
        alloc = mem.kmalloc(16)
        mem.write(alloc.base + 4, b"\xde\xad")
        assert mem.read(alloc.base + 4, 2) == b"\xde\xad"

    def test_u64_roundtrip(self, mem):
        alloc = mem.kmalloc(8)
        mem.write_u64(alloc.base, 0x0123456789ABCDEF)
        assert mem.read_u64(alloc.base) == 0x0123456789ABCDEF

    def test_u64_wraps_to_64_bits(self, mem):
        alloc = mem.kmalloc(8)
        mem.write_u64(alloc.base, -1)
        assert mem.read_u64(alloc.base) == (1 << 64) - 1

    def test_null_dereference_faults(self, mem):
        with pytest.raises(NullDereference):
            mem.read(0, 8)

    def test_near_null_faults(self, mem):
        with pytest.raises(NullDereference):
            mem.read(NULL_PAGE_SIZE - 1, 1)

    def test_wild_access_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read(KERNEL_BASE + 0x123456, 8)

    def test_use_after_free_faults(self, mem):
        alloc = mem.kmalloc(8)
        mem.kfree(alloc)
        with pytest.raises(UseAfterFree):
            mem.read(alloc.base, 8)

    def test_double_free_faults(self, mem):
        alloc = mem.kmalloc(8)
        mem.kfree(alloc)
        with pytest.raises(UseAfterFree):
            mem.kfree(alloc)

    def test_out_of_bounds_faults(self, mem):
        alloc = mem.kmalloc(8)
        with pytest.raises(OutOfBoundsAccess):
            mem.read(alloc.base + 4, 8)

    def test_fault_carries_address_and_source(self, mem):
        alloc = mem.kmalloc(8)
        try:
            mem.read(alloc.base + 100, 1, source="test-prog")
        except MemoryFault as fault:
            assert fault.address == alloc.base + 100
            assert fault.source == "test-prog"
        else:
            pytest.fail("no fault raised")

    def test_fault_hook_invoked_before_raise(self, mem):
        seen = []
        mem.fault_hook = seen.append
        with pytest.raises(NullDereference):
            mem.read(0, 1)
        assert len(seen) == 1
        assert seen[0].category == "null-deref"

    def test_zero_size_read_returns_empty(self, mem):
        alloc = mem.kmalloc(8)
        assert mem.read(alloc.base, 0) == b""

    def test_empty_write_is_noop(self, mem):
        alloc = mem.kmalloc(8)
        mem.write(alloc.base, b"")
        assert mem.read(alloc.base, 8) == b"\x00" * 8


class TestNonFaultingAccess:
    def test_try_read_valid(self, mem):
        alloc = mem.kmalloc(8)
        mem.write(alloc.base, b"hi")
        assert mem.try_read(alloc.base, 2) == b"hi"

    def test_try_read_null_returns_none(self, mem):
        assert mem.try_read(0, 8) is None

    def test_try_read_freed_returns_none(self, mem):
        alloc = mem.kmalloc(8)
        mem.kfree(alloc)
        assert mem.try_read(alloc.base, 8) is None

    def test_try_read_oob_returns_none(self, mem):
        alloc = mem.kmalloc(8)
        assert mem.try_read(alloc.base + 4, 8) is None

    def test_try_write_valid(self, mem):
        alloc = mem.kmalloc(8)
        assert mem.try_write(alloc.base, b"ab")
        assert mem.read(alloc.base, 2) == b"ab"

    def test_try_write_invalid_returns_false(self, mem):
        assert not mem.try_write(0x1234, b"ab")

    def test_valid_range(self, mem):
        alloc = mem.kmalloc(16)
        assert mem.valid_range(alloc.base, 16)
        assert not mem.valid_range(alloc.base, 17)
        assert not mem.valid_range(0, 1)

    def test_try_read_never_triggers_fault_hook(self, mem):
        seen = []
        mem.fault_hook = seen.append
        mem.try_read(0, 8)
        assert seen == []


class TestFindAllocation:
    def test_finds_containing_allocation(self, mem):
        allocs = [mem.kmalloc(32) for __ in range(5)]
        target = allocs[2]
        found = mem.find_allocation(target.base + 10)
        assert found is target

    def test_returns_none_for_gap(self, mem):
        alloc = mem.kmalloc(16)
        assert mem.find_allocation(alloc.end + 1) is None

    def test_freed_allocation_still_found(self, mem):
        alloc = mem.kmalloc(16)
        mem.kfree(alloc)
        found = mem.find_allocation(alloc.base)
        assert found is alloc and found.freed


def _frame(mem, owner="bpf:prog"):
    return mem.kmalloc(BPF_STACK_SIZE, type_name=BPF_STACK_TYPE,
                       owner=owner)


class TestResolveCache:
    """The hot/warm cache in front of the index must never change an
    answer: each pin first makes the allocation hot, then probes it."""

    def test_kfree_of_hot_allocation_faults_as_uaf(self, mem):
        alloc = mem.kmalloc(32)
        mem.read(alloc.base, 8)
        mem.kfree(alloc)
        with pytest.raises(UseAfterFree) as fault:
            mem.read(alloc.base + 8, 8)
        assert str(fault.value) == \
            f"use-after-free of void at {alloc.base + 8:#x}"

    def test_access_crossing_hot_end_faults_as_oob(self, mem):
        alloc = mem.kmalloc(16, type_name="sk_buff")
        mem.read(alloc.base, 8)
        with pytest.raises(OutOfBoundsAccess) as fault:
            mem.read(alloc.base + 12, 8)
        assert str(fault.value) == (
            f"out-of-bounds access of sk_buff: "
            f"[{alloc.base + 12:#x}, +8) beyond {alloc.end:#x}")

    def test_red_zone_past_hot_allocation_is_wild(self, mem):
        alloc = mem.kmalloc(16)
        mem.kmalloc(16)
        mem.read(alloc.base, 8)
        with pytest.raises(MemoryFault) as fault:
            mem.read(alloc.end, 1)
        assert type(fault.value) is MemoryFault
        assert str(fault.value) == \
            f"wild kernel access at unmapped address {alloc.end:#x}"

    def test_alternating_allocations_read_their_own_bytes(self, mem):
        a, b, c = (mem.kmalloc(8) for __ in range(3))
        for alloc, byte in ((a, b"a"), (b, b"b"), (c, b"c")):
            mem.write(alloc.base, byte * 8)
        for alloc, byte in ((a, b"a"), (b, b"b"), (c, b"c"), (a, b"a")):
            assert mem.read(alloc.base, 8) == byte * 8


class TestStackRuns:
    """Stack frames are indexed as runs; lookups still answer with the
    frame itself while it lives and as a freed frame after."""

    def test_find_allocation_on_live_stack_returns_frame(self, mem):
        frames = [_frame(mem) for __ in range(3)]
        for frame in frames:
            assert mem.find_allocation(frame.base + 100) is frame
            assert mem.find_allocation(frame.end - 1) is frame

    def test_live_allocations_lists_live_stacks_only(self, mem):
        first, second, third = (_frame(mem) for __ in range(3))
        mem.kfree(first)
        mem.kfree(third)
        assert mem.live_allocations(owner="bpf:prog") == [second]
        assert mem.live_stack_count == 1

    def test_retired_frame_found_as_freed_stack(self, mem):
        frame = _frame(mem)
        base, alloc_id = frame.base, frame.alloc_id
        mem.kfree(frame)
        del frame
        found = mem.find_allocation(base + 7)
        assert (found.alloc_id, found.base, found.size, found.type_name,
                found.owner, found.freed) == \
            (alloc_id, base, BPF_STACK_SIZE, BPF_STACK_TYPE, "bpf:prog",
             True)
        with pytest.raises(UseAfterFree):
            mem.kfree(found)

    def test_red_zone_between_frames_is_wild(self, mem):
        first = _frame(mem)
        _frame(mem)
        assert mem.find_allocation(first.end) is None

    def test_frames_run_shares_one_index_entry(self, mem):
        mem.kmalloc(8)
        before = mem.index_size
        for __ in range(100):
            mem.kfree(_frame(mem))
        assert mem.index_size == before + 1

    def test_freed_bytes_released_and_repr_omits_data(self, mem):
        alloc = mem.kmalloc(64)
        assert "data" not in repr(alloc)
        mem.kfree(alloc)
        assert len(alloc.data) == 0
