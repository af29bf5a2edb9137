"""Data-plane packet-rate benchmarks (``make bench-net``).

Pushes seeded load-generator traffic through the batched XDP pipeline
on every execution tier and writes per-tier packets/sec plus virtual
tail latencies to ``BENCH_dataplane.json`` at the repo root.

Methodology: packets are pre-staged onto the NIC's RX queues in
chunks (generation and enqueue are untimed — they are identical work
on every tier) and only :meth:`DataPlane.process_all` is inside the
timer, so the measured number is the pipeline's processing rate: the
batch_runner critical section, the per-packet frame fill, the program,
and verdict routing.  Both tiers run the **same** leg **twice**
(2x262.5k packets per tier — 1.05M offered in a full run): equal
counts give both tiers the same seeded traffic; the repeat both
checks seeded bit-identity per tier and lets the pps gate use the
best of the two runs, which squeezes out scheduler noise that a
single multi-second leg is exposed to.

Gates:

* the compiled tier is strictly faster than the reference interpreter
  (best-of-two pps);
* for every tier, the two seeded runs produce bit-identical plane
  signatures (verdicts, clock, ring contents, latency histograms);
* the compiled/interp pps ratio may not drop more than 20% below
  ``benchmarks/dataplane_baseline.json`` — absolute pps varies with
  the machine, the ratio does not.

``REPRO_BENCH_SMOKE=1`` (CI) shrinks every leg to 2x4k packets and
skips the >= 1M floor and the baseline-ratio gate — the structural
gates (ordering, determinism) still run.

Not collected by the tier-1 suite; run via ``make bench-net`` or
``PYTHONPATH=src python -m pytest benchmarks/test_bench_dataplane.py``.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net.programs import port_filter_prog

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_dataplane.json"
BASELINE_PATH = Path(__file__).resolve().parent / \
    "dataplane_baseline.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CHUNK = 2048
SEED = 1
#: per-run leg size; every tier runs the same leg twice
LEG = 262_500 if not SMOKE else 4_000
COUNTS = {"interp": LEG, "compiled": LEG}


def measure_tier(engine, count):
    """Drive ``count`` seeded packets through one tier; returns pps,
    verdicts, virtual-latency percentiles and the plane signature."""
    # collect the previous leg's kernel (hundreds of thousands of
    # tracked allocations) so its gen-2 sweeps don't land inside this
    # leg's timed sections
    gc.collect()
    kernel = Kernel()
    bpf = BpfSubsystem(kernel, engine=engine)
    plane = DataPlane(kernel, bpf)
    nic = plane.create_nic(1, "bench0", queue_depth=CHUNK)
    prog = bpf.load_program(port_filter_prog(), ProgType.XDP,
                            "bench_filter")
    plane.attach(prog, nic)
    gen = LoadGen(kernel, "uniform", seed=SEED)

    busy = 0.0
    processed = 0
    staged = []
    for payload in gen.packets(count):
        staged.append(payload)
        if len(staged) == CHUNK:
            for packet in staged:
                nic.receive(packet)
            staged.clear()
            start = time.perf_counter()
            processed += plane.process_all()
            busy += time.perf_counter() - start
            plane.drain()
    for packet in staged:
        nic.receive(packet)
    start = time.perf_counter()
    processed += plane.process_all()
    busy += time.perf_counter() - start

    hist = kernel.telemetry.net_latency_histogram(nic.name)
    signature = plane.signature()
    result = {
        "engine": engine,
        "offered": count,
        "processed": processed,
        "pps": processed / busy,
        "seconds": busy,
        "verdicts": {name: value
                     for name, value in sorted(plane.verdicts.items())
                     if value},
        "latency_ns": {"p50": hist.quantile(0.5),
                       "p99": hist.quantile(0.99),
                       "p999": hist.quantile(0.999),
                       "mean": hist.mean},
        "signature": signature,
    }
    plane.shutdown()
    return result


@pytest.fixture(scope="module")
def results():
    """Run every tier twice, persist the JSON."""
    res = {"smoke": SMOKE}
    for engine, count in COUNTS.items():
        runs = [measure_tier(engine, count) for __ in range(2)]
        res[engine] = {
            "runs": runs,
            "pps": max(run["pps"] for run in runs),
            "offered": sum(run["offered"] for run in runs),
            "latency_ns": runs[0]["latency_ns"],
            "signatures_identical":
                runs[0]["signature"] == runs[1]["signature"],
        }
    res["total_offered"] = sum(res[e]["offered"] for e in COUNTS)
    res["compiled_over_interp"] = (res["compiled"]["pps"]
                                   / res["interp"]["pps"])
    RESULTS_PATH.write_text(json.dumps(res, indent=2) + "\n")
    return res


class TestDataPlaneBench:
    def test_full_run_offers_a_million_packets(self, results):
        """The acceptance floor: a full (non-smoke) bench pushes at
        least 1M packets through the plane across its legs."""
        if SMOKE:
            pytest.skip("smoke mode: reduced packet counts")
        assert results["total_offered"] >= 1_000_000

    def test_every_packet_reached_a_verdict(self, results):
        for engine in COUNTS:
            for run in results[engine]["runs"]:
                assert run["processed"] == run["offered"]

    def test_compiled_is_strictly_fastest(self, results):
        """The whole point of the compiled tier on the hot path."""
        assert results["compiled"]["pps"] > results["interp"]["pps"]

    def test_seeded_repeat_is_bit_identical(self, results):
        """Same seed, same count, same tier: the full plane signature
        (verdicts, clock, rings, histograms) must not move a bit."""
        for engine in COUNTS:
            assert results[engine]["signatures_identical"], engine

    def test_latency_percentiles_reported_and_ordered(self, results):
        for engine in COUNTS:
            latency = results[engine]["latency_ns"]
            assert 0 < latency["p50"] <= latency["p99"] \
                <= latency["p999"]

    def test_no_regression_vs_baseline(self, results):
        """Refuse >20% regression of the pps ratio against the
        committed baseline."""
        if SMOKE:
            pytest.skip("smoke mode: ratios too noisy at 8k packets")
        baseline = json.loads(BASELINE_PATH.read_text())
        key = "compiled_over_interp"
        floor = 0.8 * baseline[key]
        assert results[key] >= floor, (
            f"{key} {results[key]:.2f}x regressed below "
            f"{floor:.2f}x (80% of baseline "
            f"{baseline[key]:.2f}x)")

    def test_results_file_written(self, results):
        written = json.loads(RESULTS_PATH.read_text())
        assert written["compiled"]["pps"] == results["compiled"]["pps"]
        assert written["total_offered"] == results["total_offered"]
