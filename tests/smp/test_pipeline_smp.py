"""SMP polling of the XDP data plane: per-queue workers on their own
CPUs, verdict-identical to the serialized poll loop."""

import pytest

from repro.ebpf import BpfSubsystem, ProgType
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net import programs as xdp_programs


def build(engine="compiled", queues=None):
    kernel = Kernel(nr_cpus=2)
    bpf = BpfSubsystem(kernel, engine=engine)
    plane = DataPlane(kernel, bpf, ringbuf_bytes=1 << 14)
    nic = plane.create_nic(1, "smp0", queue_depth=256)
    prog = bpf.load_program(xdp_programs.port_filter_prog(),
                            ProgType.XDP, "filter")
    plane.attach(prog, nic)
    return kernel, bpf, plane, nic


class TestSmpPoll:
    def test_smp_poll_processes_everything(self, leakcheck):
        kernel, bpf, plane, nic = build()
        leakcheck(kernel)
        gen = LoadGen(kernel, "uniform", seed=3)
        offered = gen.drive(nic, 300)  # no plane: packets accumulate
        done = plane.process_all_smp(seed=1)
        assert done == offered["accepted"]
        assert sum(plane.verdicts.values()) == done
        assert plane.last_smp.switches >= 0
        assert plane.last_smp.trace_signature()

    def test_smp_verdicts_match_serial(self, leakcheck):
        """Interleaving queue polls across CPUs must not change any
        verdict: per-packet results are queue-local."""
        def totals(smp_seed):
            kernel, bpf, plane, nic = build()
            leakcheck(kernel)
            gen = LoadGen(kernel, "bursty", seed=11)
            gen.drive(nic, 400)
            if smp_seed is None:
                plane.process_all()
            else:
                plane.process_all_smp(seed=smp_seed)
            return dict(plane.verdicts), plane.processed
        serial = totals(None)
        for seed in (0, 7):
            assert totals(seed) == serial

    def test_smp_poll_deterministic(self, leakcheck):
        def run(seed):
            kernel, bpf, plane, nic = build()
            leakcheck(kernel)
            gen = LoadGen(kernel, "uniform", seed=5)
            gen.drive(nic, 200)
            plane.process_all_smp(seed=seed)
            return plane.last_smp.trace_signature()
        assert run(4) == run(4)
