"""Cross-engine data-plane parity.

The same seeded traffic through interp and compiled must yield
identical verdict counts, identical virtual-clock totals, and
byte-identical ringbuf contents.  Program execution is the only thing
that advances the clock per packet, and the tiers are pinned to
advance it identically — so the whole plane (latency histograms
included) must agree bit-for-bit, which the signature checks.
"""

import pytest

from repro.ebpf import BpfSubsystem, ProgType
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net import programs as xdp_programs

ENGINES = ("interp", "compiled")


def run_plane(engine, profile, seed, count=1500):
    """One seeded run: returns (summary, drained payloads, signature)."""
    kernel = Kernel()
    bpf = BpfSubsystem(kernel, engine=engine)
    plane = DataPlane(kernel, bpf, ringbuf_bytes=1 << 16)
    nic = plane.create_nic(1, "diff0", queue_depth=256)
    prog = bpf.load_program(xdp_programs.port_filter_prog(),
                            ProgType.XDP, "filter")
    plane.attach(prog, nic)
    gen = LoadGen(kernel, profile, seed=seed)
    gen.drive(nic, count, plane=plane, poll_every=64)
    plane.process_all()
    summary = plane.summary()
    signature = plane.signature()
    drained = plane.drain()
    plane.shutdown()
    return summary, drained, signature


@pytest.mark.parametrize("profile", ("uniform", "adversarial"))
def test_engines_agree_end_to_end(profile):
    """Verdicts, clock, ringbuf bytes and full signature all match."""
    results = {engine: run_plane(engine, profile, seed=11)
               for engine in ENGINES}
    baseline = results["interp"]
    for engine in ENGINES[1:]:
        summary, drained, signature = results[engine]
        assert summary["verdicts"] == baseline[0]["verdicts"], engine
        assert summary["clock_ns"] == baseline[0]["clock_ns"], engine
        assert drained == baseline[1], engine
        assert signature == baseline[2], engine


def test_redirect_parity_across_engines():
    """The devmap/redirect path agrees across engines too."""
    signatures = set()
    tx_counts = set()
    for engine in ENGINES:
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine=engine)
        plane = DataPlane(kernel, bpf, ringbuf_bytes=1 << 14)
        nic = plane.create_nic(1, "left0", queue_depth=256)
        sink = plane.create_nic(2, "right0")
        devmap = bpf.create_map("devmap", max_entries=4)
        devmap.set_target(3, sink.ifindex)
        prog = bpf.load_program(
            xdp_programs.redirect_by_source_prog(devmap.map_fd),
            ProgType.XDP, "redirect")
        plane.attach(prog, nic)
        gen = LoadGen(kernel, "heavy_hitter", seed=29)
        gen.drive(nic, 800, plane=plane, poll_every=64)
        plane.process_all()
        signatures.add(plane.signature())
        tx_counts.add(sink.tx_packets)
        assert plane.verdicts["redirect"] > 0
        plane.shutdown()
    assert len(signatures) == 1
    assert len(tx_counts) == 1


def test_repeat_run_bit_identical():
    """Same engine, same seed, twice: identical signature."""
    first = run_plane("compiled", "bursty", seed=4, count=900)
    second = run_plane("compiled", "bursty", seed=4, count=900)
    assert first[2] == second[2]
