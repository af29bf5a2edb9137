"""Per-CPU maps under SMP: slot resolution follows the *executing*
CPU at yield-point granularity, identically on both execution tiers."""

import struct

import pytest

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids as helper_ids
from repro.ebpf.isa import R0, R1, R2, R10
from repro.kernel import Kernel
from repro.kernel.smp import ScriptedInterleaving, SmpScheduler

ENGINES = ("interp", "compiled")


def key(i: int) -> bytes:
    return struct.pack("<I", i)


def val(v: int) -> bytes:
    return struct.pack("<Q", v)


def counter_prog(map_fd: int) -> list:
    """lookup percpu slot 0, increment its u64 — the classic per-CPU
    hot counter (same shape as the ebpf map tests use)."""
    return (Asm()
            .st_imm(4, R10, -4, 0)
            .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
            .ld_map_fd(R1, map_fd)
            .call(helper_ids.BPF_FUNC_map_lookup_elem)
            .jmp_imm("jne", R0, 0, "hit")
            .mov64_imm(R0, 0).exit_()
            .label("hit")
            .ldx(8, R1, R0, 0)
            .alu64_imm("add", R1, 1)
            .stx(8, R0, 0, R1)
            .mov64_imm(R0, 0)
            .exit_()
            .program())


class TestDirectMapOps:
    def test_update_resolves_executing_cpu(self):
        """Two tasks pinned to different CPUs update the same key:
        each lands on its own CPU's slice."""
        kernel = Kernel(nr_cpus=2)
        bpf = BpfSubsystem(kernel)
        pc = bpf.create_map("percpu_array", max_entries=1)
        smp = SmpScheduler(kernel, seed=3)
        def updater(amount):
            def body():
                pc.update(key(0), val(amount))
            return body
        smp.spawn(updater(10), cpu=0, name="u0")
        smp.spawn(updater(20), cpu=1, name="u1")
        smp.run()
        values = [int.from_bytes(raw, "little")
                  for raw in pc.read_values(0)]
        assert values == [10, 20]

    def test_explicit_migration_moves_slot_mid_task(self):
        """A task migrating between two updates writes two different
        slices — the slot is re-resolved at every operation."""
        kernel = Kernel(nr_cpus=2)
        bpf = BpfSubsystem(kernel)
        pc = bpf.create_map("percpu_array", max_entries=1)
        smp = SmpScheduler(kernel, seed=0)
        def body():
            addr = pc.lookup_addr(key(0))
            kernel.mem.write_u64(addr, 1 + kernel.mem.read_u64(addr))
            smp.migrate(1)
            addr = pc.lookup_addr(key(0))
            kernel.mem.write_u64(addr, 1 + kernel.mem.read_u64(addr))
        smp.spawn(body, cpu=0, name="mover")
        smp.run()
        values = [int.from_bytes(raw, "little")
                  for raw in pc.read_values(0)]
        assert values == [1, 1]
        assert pc.sum_u64(0) == 2

    def test_scheduled_migration_at_yield_point(self):
        """A migration forced by the *schedule* at the map-op yield
        point lands the update on the new CPU's slice: resolution
        happens after the yield, at the executing CPU."""
        kernel = Kernel(nr_cpus=2)
        bpf = BpfSubsystem(kernel)
        pc = bpf.create_map("percpu_array", max_entries=1)
        # decision 2 is the task's map.update yield: migrate there,
        # before the slot is resolved
        schedule = ScriptedInterleaving([0, 1, 1, 1],
                                        migrations={2: 1})
        smp = SmpScheduler(kernel, schedule=schedule)
        def body():
            pc.update(key(0), val(7))
        task = smp.spawn(body, cpu=0, name="u")
        smp.run()
        assert task.migrations == 1
        values = [int.from_bytes(raw, "little")
                  for raw in pc.read_values(0)]
        assert values == [0, 7]

    def test_percpu_hash_isolates_cpus(self):
        kernel = Kernel(nr_cpus=2)
        bpf = BpfSubsystem(kernel)
        ph = bpf.create_map("percpu_hash", max_entries=4)
        smp = SmpScheduler(kernel, seed=1)
        def updater(amount):
            def body():
                ph.update(key(9), val(amount))
            return body
        smp.spawn(updater(5), cpu=0, name="u0")
        smp.spawn(updater(6), cpu=1, name="u1")
        smp.run()
        assert ph.sum_u64(key(9)) == 11
        values = [int.from_bytes(raw, "little")
                  for raw in ph.read_values(key(9))]
        assert values == [5, 6]


class TestCrossEngine:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_program_counter_lands_on_executing_cpu(self, engine):
        """The same counter program, one invocation per CPU under the
        SMP scheduler, increments each CPU's own slice — on every
        execution tier."""
        kernel = Kernel(nr_cpus=2)
        bpf = BpfSubsystem(kernel, engine=engine)
        pc = bpf.create_map("percpu_array", max_entries=1)
        prog = bpf.load_program(counter_prog(pc.map_fd),
                                ProgType.KPROBE, f"pcnt-{engine}")
        smp = SmpScheduler(kernel, seed=2)
        smp.vm = bpf.vm
        def run_prog():
            return bpf.run_on_current_task(prog)
        smp.spawn(run_prog, cpu=0, name="cpu0-run")
        smp.spawn(run_prog, cpu=1, name="cpu1-run")
        smp.run()
        per_cpu = [int.from_bytes(raw, "little")
                   for raw in pc.read_values(0)]
        assert per_cpu == [1, 1], \
            f"{engine}: counts landed on the wrong slices"
        assert pc.sum_u64(0) == 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_produce_identical_interleaving(self, engine):
        """Engine choice must not perturb the schedule: the decision
        trace of an SMP run is engine-invariant for the same seed."""
        def run_once(eng):
            kernel = Kernel(nr_cpus=2)
            bpf = BpfSubsystem(kernel, engine=eng)
            pc = bpf.create_map("percpu_array", max_entries=1)
            smp = SmpScheduler(kernel, seed=6)
            smp.vm = bpf.vm
            def updater(amount):
                def body():
                    pc.update(key(0), val(amount))
                return body
            smp.spawn(updater(1), cpu=0, name="a")
            smp.spawn(updater(2), cpu=1, name="b")
            smp.run()
            return smp.trace_signature(), pc.sum_u64(0)
        assert run_once(engine) == run_once("interp")
