"""Checked memory over a long kernel life.

Every program run allocates and frees one BPF stack frame.  The
address space indexes runs of retired frames arithmetically, so a
kernel that forwards packets for ever keeps a fixed-size index — and
a stack pointer kept from an early run must still fault as
use-after-free however many runs later it is used.  Both are pinned
with deterministic counts only, no timings.
"""

import pytest

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.interpreter import ENGINES
from repro.ebpf.isa import R0, R10
from repro.errors import UseAfterFree
from repro.kernel import Kernel
from repro.kernel.memory import BPF_STACK_SIZE, BPF_STACK_TYPE
from repro.net import DataPlane, LoadGen
from repro.net.programs import port_filter_prog

CHUNK = 1024


def _push(plane, nic, gen, packets):
    """Receive and process ``packets`` seeded packets, in chunks."""
    for __ in range(packets // CHUNK):
        for packet in gen.packets(CHUNK):
            assert nic.receive(packet)
        assert plane.process_all() == CHUNK
        plane.drain()


def test_index_and_live_stacks_flat_over_packets():
    kernel = Kernel()
    bpf = BpfSubsystem(kernel, engine="compiled")
    plane = DataPlane(kernel, bpf)
    nic = plane.create_nic(1, "flat0", queue_depth=CHUNK)
    plane.attach(bpf.load_program(port_filter_prog(), ProgType.XDP,
                                  "flat"), nic)
    gen = LoadGen(kernel, "uniform", seed=5)
    mem = kernel.mem

    _push(plane, nic, gen, 1 * CHUNK)
    warm = (mem.index_size, mem.live_stack_count)
    _push(plane, nic, gen, 20 * CHUNK)

    assert plane.processed == 21 * CHUNK
    assert (mem.index_size, mem.live_stack_count) == warm
    assert mem.live_stack_count == 0
    plane.shutdown()


def _stack_program():
    # store to and load from the frame, so every run touches it
    return (Asm()
            .mov64_imm(R0, 7)
            .stx(8, R10, -8, R0)
            .ldx(8, R0, R10, -8)
            .exit_()
            .program())


@pytest.mark.parametrize("engine", ENGINES)
def test_stale_stack_pointer_faults_after_many_runs(engine):
    kernel = Kernel()
    bpf = BpfSubsystem(kernel, engine=engine)
    prog = bpf.load_program(_stack_program(), ProgType.KPROBE, "stale")
    ctx = kernel.mem.kmalloc(64, type_name="pt_regs", owner="test")
    mem = kernel.mem

    frames = []
    kmalloc = mem.kmalloc

    def spy(size, type_name="void", owner="kernel"):
        alloc = kmalloc(size, type_name, owner)
        if type_name == BPF_STACK_TYPE:
            frames.append(alloc.base)
        return alloc

    mem.kmalloc = spy
    assert bpf.run(prog, ctx.base) == 7
    del mem.kmalloc
    (first,) = frames
    index = mem.index_size
    for __ in range(10_000):
        bpf.run(prog, ctx.base)

    stale = first + BPF_STACK_SIZE - 8  # the slot run 1 wrote
    with pytest.raises(UseAfterFree) as fault:
        mem.read(stale, 8, source="test")
    assert str(fault.value) == f"use-after-free of bpf_stack at {stale:#x}"
    assert mem.live_stack_count == 0
    assert mem.index_size == index
