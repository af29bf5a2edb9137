"""Bound run instruments: once a program has run with stats on, its
later runs and helper calls reach the stats row and the metric
children directly — zero ``MetricFamily.labels`` and zero
``ProgStatsTable.get`` calls per run, on every run path."""

from collections import Counter

import pytest

from repro.core import SafeExtensionFramework
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import Kernel
from repro.telemetry.metrics import MetricFamily
from repro.telemetry.stats import ProgStatsTable

#: runs made after the first, binding one
RUNS = 40

SAFELANG_PROG = """
fn prog(ctx: XdpCtx) -> i64 {
    match ctx.load_u8(0) {
        Some(b) => { map_update(0, 0, b); },
        None => { },
    }
    return 2;
}
"""


@pytest.fixture
def lookups(monkeypatch):
    """Counts label and row lookups made while the test runs."""
    counts = Counter()
    labels = MetricFamily.labels
    get = ProgStatsTable.get

    def counting_labels(self, *values):
        counts["labels"] += 1
        return labels(self, *values)

    def counting_get(self, *args, **kwargs):
        counts["get"] += 1
        return get(self, *args, **kwargs)

    monkeypatch.setattr(MetricFamily, "labels", counting_labels)
    monkeypatch.setattr(ProgStatsTable, "get", counting_get)
    return counts


@pytest.fixture
def kernel():
    kernel = Kernel()
    kernel.telemetry.enable()
    return kernel


def helper_prog():
    return (Asm().call(ids.BPF_FUNC_ktime_get_ns)
            .call(ids.BPF_FUNC_get_current_pid_tgid).exit_()).program()


@pytest.mark.parametrize("engine", ("interp", "compiled"))
def test_vm_run_binds_after_first_run(kernel, lookups, engine):
    bpf = BpfSubsystem(kernel, engine=engine)
    prog = bpf.load_program(helper_prog(), ProgType.KPROBE, "h")
    bpf.run_on_current_task(prog)
    lookups.clear()
    for __ in range(RUNS):
        bpf.run_on_current_task(prog)
    assert lookups == Counter()
    row = kernel.telemetry.prog("ebpf", "h")
    assert row.run_cnt == RUNS + 1
    assert row.helper_calls == 2 * (RUNS + 1)


def test_batch_runner_binds_after_first_run(kernel, lookups):
    bpf = BpfSubsystem(kernel, engine="compiled")
    prog = bpf.load_program(helper_prog(), ProgType.KPROBE, "b")
    ctx = kernel.mem.kmalloc(64, type_name="pt_regs", owner="test")
    with bpf.vm.batch_runner(prog) as run_one:
        run_one(ctx.base)
        lookups.clear()
        for __ in range(RUNS):
            run_one(ctx.base)
    assert lookups == Counter()
    row = kernel.telemetry.prog("ebpf", "b")
    assert row.run_cnt == RUNS + 1
    assert row.helper_counts == {"bpf_ktime_get_ns": RUNS + 1,
                                 "bpf_get_current_pid_tgid": RUNS + 1}


def test_safelang_vm_binds_after_first_run(kernel, lookups):
    framework = SafeExtensionFramework(kernel)
    stats = BpfSubsystem(kernel).create_map(
        "array", key_size=4, value_size=8, max_entries=4)
    loaded = framework.install(SAFELANG_PROG, "s", maps=[stats])
    framework.run_on_packet(loaded, b"\x07")
    lookups.clear()
    for __ in range(RUNS):
        framework.run_on_packet(loaded, b"\x07")
    assert lookups == Counter()
    row = kernel.telemetry.prog("safelang", "s")
    assert row.run_cnt == RUNS + 1
    assert row.helper_counts == {"XdpCtx::load_u8": RUNS + 1,
                                 "map_update": RUNS + 1}


def test_bound_row_survives_a_later_load(kernel):
    telemetry = kernel.telemetry
    telemetry.record_run("ebpf", "p", run_time_ns=5, insns=3,
                         helper_calls=1)
    telemetry.record_helper("ebpf", "p", "bpf_ktime_get_ns")
    row = telemetry.prog("ebpf", "p")
    telemetry.record_load("ebpf", "p", prog_id=42)
    telemetry.record_run("ebpf", "p", run_time_ns=7, insns=4,
                         helper_calls=1)
    telemetry.record_helper("ebpf", "p", "bpf_ktime_get_ns")
    assert telemetry.prog("ebpf", "p") is row
    assert row.prog_id == 42
    assert (row.run_cnt, row.run_time_ns, row.insns) == (2, 12, 7)
    assert row.helper_counts == {"bpf_ktime_get_ns": 2}
    runs = telemetry.registry.get("repro_prog_runs_total")
    assert runs.labels("ebpf", "p").value == 2
