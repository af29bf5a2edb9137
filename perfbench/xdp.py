"""The two data-plane workloads, ``xdp_filter`` and ``xdp_firewall``.

A pass is one *leg*: a freshly booted kernel with one NIC and the
program attached, then ``LEG_CHUNKS`` chunks of ``CHUNK`` seeded
packets.  Each chunk is staged onto the RX queues outside the timer,
drained by one timed ``DataPlane.process_all`` (one *burst*), and its
PASS deliveries consumed with ``drain``.  Legs are a fixed size
because the simulated address space indexes every allocation it has
made, so per-packet cost depends on how far into a kernel's life a
packet is; a fixed leg keeps that the same in every run.

Correctness: each leg's verdict counts must equal a pure-Python
oracle computed from the packet bytes, every PASS must be delivered,
and every leg of a run (traced or not) must end with the same plane
signature — pinned in :mod:`perfbench.pins` for the default seed.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from perfbench.common import HostClock, PassResult

#: packets per burst (one timed ``process_all``)
CHUNK = 1024
#: bursts per leg
LEG_CHUNKS = 16

_HEADER = struct.Struct("<HB")
#: the port both programs block (telnet); the oracle keeps its own
#: copy so that a change to the programs' constant shows as a failure
BLOCKED_PORT = 23


class FilterOracle:
    """``port_filter_prog``: drop when the packet is shorter than the
    3-byte header or its dst_port is the blocked port."""

    def __init__(self, blocked_port: int) -> None:
        self.blocked_port = blocked_port

    def verdict(self, packet: bytes) -> str:
        """The verdict name the program must return for ``packet``."""
        if len(packet) < _HEADER.size:
            return "drop"
        port, __ = _HEADER.unpack_from(packet)
        return "drop" if port == self.blocked_port else "pass"


class FirewallOracle(FilterOracle):
    """``firewall_prog``: truncated packets pass, the blocked port
    drops, and every 4th remaining packet from source 3 drops (a
    counter kept across the leg, like the program's map slot)."""

    def __init__(self, blocked_port: int) -> None:
        super().__init__(blocked_port)
        self.source3 = 0

    def verdict(self, packet: bytes) -> str:
        if len(packet) < _HEADER.size:
            return "pass"
        port, src = _HEADER.unpack_from(packet)
        if port == self.blocked_port:
            return "drop"
        if src == 3:
            self.source3 += 1
            if self.source3 % 4 == 0:
                return "drop"
        return "pass"


class XdpWorkload:
    """One XDP program behind the batched data plane, compiled tier."""

    unit = "packet"
    op = "burst"
    #: legs are cheap, so a run sets up many times
    min_passes = 3

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.firewall = name == "xdp_firewall"
        self.profile = "heavy_hitter" if self.firewall else "uniform"

    def setup(self, tracer: Optional[object]) -> Dict[str, object]:
        """Boot a kernel, create the maps and NIC, load and attach."""
        from repro.ebpf.loader import BpfSubsystem
        from repro.ebpf.progs import ProgType
        from repro.kernel import Kernel
        from repro.net import DataPlane, LoadGen
        from repro.net.programs import firewall_prog, port_filter_prog

        kernel = Kernel()
        registry = tracer.helper_registry() if tracer else None
        bpf = BpfSubsystem(kernel, registry=registry, engine="compiled")
        plane = DataPlane(kernel, bpf)
        nic = plane.create_nic(1, "bench0", queue_depth=CHUNK)
        if self.firewall:
            stats = bpf.create_map("array", key_size=4, value_size=8,
                                   max_entries=4)
            kernel.telemetry.enable()
            insns = firewall_prog(stats.map_fd)
            oracle: FilterOracle = FirewallOracle(BLOCKED_PORT)
        else:
            insns = port_filter_prog()
            oracle = FilterOracle(BLOCKED_PORT)
        prog = bpf.load_program(insns, ProgType.XDP, self.name)
        plane.attach(prog, nic)
        return {"kernel": kernel, "bpf": bpf, "plane": plane,
                "nic": nic, "oracle": oracle,
                "gen": LoadGen(kernel, self.profile, seed=self.seed)}

    def run(self, leg: Dict[str, object], tracer: Optional[object],
            clock: HostClock) -> PassResult:
        """Push one leg of packets through the plane."""
        plane, nic, gen = leg["plane"], leg["nic"], leg["gen"]
        oracle = leg["oracle"]
        vm = leg["bpf"].vm
        expected = {"pass": 0, "drop": 0}
        offered = staged = processed = delivered = 0
        bursts = []
        for __ in range(LEG_CHUNKS):
            for packet in gen.packets(CHUNK):
                offered += 1
                expected[oracle.verdict(packet)] += 1
                staged += nic.receive(packet)
            if tracer:
                tracer.on = True
            mark = clock.start()
            processed += plane.process_all()
            bursts.append(clock.stop(mark))
            delivered += len(plane.drain())
            if tracer:
                tracer.on = False

        verdicts = dict(plane.verdicts)
        problems = []
        if staged != offered:
            problems.append(f"NIC refused {offered - staged} of "
                            f"{offered} packets")
        got = {name: count for name, count in verdicts.items() if count}
        if got != {k: v for k, v in expected.items() if v}:
            problems.append(f"verdicts {got} != oracle {expected}")
        if delivered != verdicts["pass"] - plane.delivery_drops:
            problems.append(f"delivered {delivered} of "
                            f"{verdicts['pass']} PASS packets")
        failed = (offered - processed) + verdicts["aborted"] \
            + plane.delivery_drops
        signature = plane.signature()
        plane.shutdown()
        return PassResult(
            units=processed, op_samples=bursts,
            attempted=offered, failed=failed, signature=signature,
            problems=problems,
            counts={"vm.insns_executed": vm.insns_executed,
                    "vm.helper_calls": vm.helper_calls,
                    "packets": processed})
