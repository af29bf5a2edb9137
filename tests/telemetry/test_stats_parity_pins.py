"""Stats-on parity pins: what per-run and per-helper accounting
records, bit for bit.

Each pin is a sha256 over ``telemetry.snapshot()`` and
``trace.to_jsonl()`` after a seeded stats-on workload: every metric
value, every per-program row, the ring's ``emitted``/``dropped`` and
every held event with its order and fields.  Only the host-wall-time
fields are left out — the ``repro_load_stage_ns_total`` family and the
``verify_ns``/``jit_ns``/``predecode_ns``/``compile_ns`` stage
timings on the rows and load events — because those differ run to run
on any code.  A change to how the accounting is done (bound
instruments, cheaper events) must leave these digests where they are.
"""

import hashlib
import json

import pytest

from repro.core import SafeExtensionFramework
from repro.ebpf import BpfSubsystem, ProgType
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net.programs import firewall_prog

#: load-stage fields measured in host wall time
WALL_FIELDS = ("verify_ns", "jit_ns", "predecode_ns", "compile_ns")

CHUNK = 1024
CHUNKS = 4

#: digest of the firewall data-plane run; the engines agree bit for
#: bit, so one pin holds for every tier
FIREWALL_PIN = (
    "cbefc59745c2addc3209fceaea5b0462e2aba8f22c00fc1fd57f6643c4fdfb74")
ENGINES = ("interp", "compiled")

#: digest of the SafeLang firewall run (run stats + kcrate helpers)
SAFELANG_PIN = (
    "120e808bc6ed8a315c9025820d7ccf87f768c31a99cfff62427cf329af8e267a")

SAFELANG_FIREWALL = """
fn prog(ctx: XdpCtx) -> i64 {
    match ctx.load_u16(0) {
        Some(port) => { if port == 23 { return count(1); } },
        None => { return 2; },
    }
    match ctx.load_u8(2) {
        Some(src) => {
            if src == 3 {
                match map_lookup(0, 2) {
                    Some(seen) => {
                        map_update(0, 2, seen + 1);
                        if (seen + 1) & 3 == 0 { return count(1); }
                    },
                    None => { map_update(0, 2, 1); },
                }
            }
        },
        None => { },
    }
    count(0);
    return 2;
}

fn count(slot: u64) -> i64 {
    match map_lookup(0, slot) {
        Some(v) => { map_update(0, slot, v + 1); },
        None => { map_update(0, slot, 1); },
    }
    return 1;
}
"""


def stats_digest(telemetry) -> str:
    """sha256 over the snapshot and the trace JSONL, host wall time
    left out."""
    snap = telemetry.snapshot()
    snap["metrics"] = [family for family in snap["metrics"]
                       if family["name"] != "repro_load_stage_ns_total"]
    for row in snap["progs"]:
        for name in WALL_FIELDS:
            del row[name]
    lines = []
    for line in telemetry.trace.to_jsonl().splitlines():
        event = json.loads(line)
        if event["kind"] == "load":
            for name in WALL_FIELDS:
                event["data"].pop(name, None)
        lines.append(json.dumps(event, sort_keys=True))
    digest = hashlib.sha256()
    digest.update(json.dumps(snap, sort_keys=True).encode())
    digest.update("\n".join(lines).encode())
    return digest.hexdigest()


def firewall_plane_run(engine: str) -> Kernel:
    """``firewall_prog`` behind a stats-on data plane: heavy_hitter,
    seed 1, 4 bursts of 1024 packets."""
    kernel = Kernel()
    bpf = BpfSubsystem(kernel, engine=engine)
    plane = DataPlane(kernel, bpf)
    nic = plane.create_nic(1, "pin0", queue_depth=CHUNK)
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    kernel.telemetry.enable()
    prog = bpf.load_program(firewall_prog(stats.map_fd),
                            ProgType.XDP, "xdp_firewall")
    plane.attach(prog, nic)
    gen = LoadGen(kernel, "heavy_hitter", seed=1)
    for __ in range(CHUNKS):
        for packet in gen.packets(CHUNK):
            nic.receive(packet)
        plane.process_all()
        plane.drain()
    plane.shutdown()
    return kernel


def safelang_run() -> Kernel:
    """The same policy as a SafeLang extension: ``record_run`` per
    packet plus a kcrate ``record_helper`` per function/method call."""
    kernel = Kernel()
    kernel.telemetry.enable()
    framework = SafeExtensionFramework(kernel)
    stats = BpfSubsystem(kernel).create_map(
        "array", key_size=4, value_size=8, max_entries=4)
    loaded = framework.install(SAFELANG_FIREWALL, "sl_firewall",
                               maps=[stats])
    gen = LoadGen(kernel, "heavy_hitter", seed=1)
    for packet in gen.packets(256):
        framework.run_on_packet(loaded, packet)
    return kernel


@pytest.mark.parametrize("engine", ENGINES)
def test_firewall_stats_on_pin(engine):
    kernel = firewall_plane_run(engine)
    row = kernel.telemetry.prog("ebpf", "xdp_firewall")
    assert row.run_cnt == CHUNK * CHUNKS
    assert row.helper_calls > 0
    assert kernel.telemetry.trace.dropped > 0
    assert stats_digest(kernel.telemetry) == FIREWALL_PIN


def test_safelang_stats_on_pin():
    kernel = safelang_run()
    row = kernel.telemetry.prog("safelang", "sl_firewall")
    assert row.run_cnt == 256
    assert {"map_lookup", "map_update",
            "XdpCtx::load_u16"} <= set(row.helper_counts)
    assert stats_digest(kernel.telemetry) == SAFELANG_PIN
