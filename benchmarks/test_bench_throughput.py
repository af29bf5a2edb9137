"""Interpreter throughput benchmarks (``make bench``).

Measures the compiled tier against the decode-per-step reference
interpreter, plus cold-vs-cached program load rates, and writes the
results to ``BENCH_throughput.json`` at the repo root.

The regression gate compares the *speedup ratio* (compiled / slow on
the same host, same run) against the committed baseline in
``benchmarks/throughput_baseline.json`` — absolute insns/sec varies
with the machine, the ratio does not.  A drop of more than 20% below
the baseline ratio fails the run; the compiled tier additionally
carries an absolute floor of 8x (targeting 10x).

Not collected by the tier-1 suite (pytest ``testpaths`` points at
``tests/``); run explicitly via ``make bench`` or
``PYTHONPATH=src python -m pytest benchmarks -q``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0, R1, R2, R3, R10
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import Kernel

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_throughput.json"
BASELINE_PATH = Path(__file__).resolve().parent / \
    "throughput_baseline.json"

MIN_SECONDS = 0.4       # per measurement, enough to drown out noise
LOOP_ITERS = 2048


def alu_loop_prog():
    """ALU-heavy countdown loop: pure dispatch, no memory traffic."""
    return (Asm()
            .mov64_imm(R0, 0)
            .mov64_imm(R2, LOOP_ITERS)
            .label("loop")
            .alu64_imm("add", R0, 3)
            .alu64_imm("xor", R0, 7)
            .alu64_imm("sub", R2, 1)
            .jmp_imm("jsgt", R2, 0, "loop")
            .exit_()
            .program())


def mixed_loop_prog():
    """Loop mixing ALU, stack loads/stores and an atomic per round."""
    return (Asm()
            .st_imm(8, R10, -8, 0)
            .mov64_imm(R2, LOOP_ITERS)
            .label("loop")
            .mov64_imm(R3, 5)
            .atomic_op("add", 8, R10, -8, R3)
            .ldx(8, R0, R10, -8)
            .stx(8, R10, -16, R0)
            .alu64_imm("sub", R2, 1)
            .jmp_imm("jsgt", R2, 0, "loop")
            .ldx(8, R0, R10, -16)
            .exit_()
            .program())


def measure_insns_per_sec(build_prog, engine):
    """Insns/sec for one engine, loading once and running repeatedly."""
    kernel = Kernel()
    bpf = BpfSubsystem(kernel, engine=engine)
    prog = bpf.load_program(build_prog(), ProgType.KPROBE, "bench")
    bpf.run_on_current_task(prog)       # warm-up
    executed_before = bpf.vm.insns_executed
    runs = 0
    start = time.perf_counter()
    while True:
        bpf.run_on_current_task(prog)
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SECONDS and runs >= 3:
            break
    insns = bpf.vm.insns_executed - executed_before
    return {"insns_per_sec": insns / elapsed,
            "insns_executed": insns,
            "runs": runs,
            "seconds": elapsed}


def distinct_prog(seed):
    """A small, unique-per-seed program so every cold load misses."""
    asm = Asm().mov64_imm(R0, 0)
    for i in range(8):
        asm.alu64_imm("add", R0, seed * 31 + i)
    return asm.exit_().program()


def measure_load_rates(n_progs=40):
    """Loads/sec with a cold cache vs replaying the same loads."""
    kernel = Kernel()
    bpf = BpfSubsystem(kernel)
    programs = [distinct_prog(i) for i in range(n_progs)]

    start = time.perf_counter()
    for i, program in enumerate(programs):
        bpf.load_program(program, ProgType.KPROBE, f"cold{i}")
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for i, program in enumerate(programs):
        bpf.load_program(program, ProgType.KPROBE, f"warm{i}")
    warm_seconds = time.perf_counter() - start

    return {"programs": n_progs,
            "cold_loads_per_sec": n_progs / cold_seconds,
            "cached_loads_per_sec": n_progs / warm_seconds,
            "load_speedup": cold_seconds / warm_seconds,
            "cache_hits": bpf.load_cache.hits,
            "cache_misses": bpf.load_cache.misses,
            "cache_hit_rate": bpf.load_cache.hit_rate}


@pytest.fixture(scope="module")
def results():
    """Run every benchmark once, persist BENCH_throughput.json."""
    res = {}
    for section, build in (("dispatch", alu_loop_prog),
                           ("mixed", mixed_loop_prog)):
        slow = measure_insns_per_sec(build, "interp")
        compiled = measure_insns_per_sec(build, "compiled")
        res[section] = {
            "slow": slow,
            "compiled": compiled,
            "compiled_speedup": (compiled["insns_per_sec"]
                                 / slow["insns_per_sec"]),
        }
    res["load_cache"] = measure_load_rates()
    RESULTS_PATH.write_text(json.dumps(res, indent=2) + "\n")
    return res


class TestThroughput:
    def test_compiled_dispatch_speedup(self, results):
        """The compiled tier must clear 8x over the reference on the
        pure-dispatch microbenchmark (the target is 10x)."""
        speedup = results["dispatch"]["compiled_speedup"]
        assert speedup >= 8.0, f"compiled tier only {speedup:.2f}x"

    def test_mixed_workload_not_slower(self, results):
        """Memory-heavy code flushes the batch accounting often; it
        must still never be slower than the reference engine."""
        assert results["mixed"]["compiled_speedup"] >= 1.0

    def test_no_regression_vs_baseline(self, results):
        """Refuse >20% regression of the compiled speedup ratio
        against the committed baseline."""
        baseline = json.loads(BASELINE_PATH.read_text())
        key = "compiled_dispatch_speedup"
        measured = results["dispatch"]["compiled_speedup"]
        floor = 0.8 * baseline[key]
        assert measured >= floor, (
            f"{key} {measured:.2f}x regressed below "
            f"{floor:.2f}x (80% of baseline "
            f"{baseline[key]:.2f}x)")

    def test_cached_loads_faster_and_hit_rate_reported(self, results):
        cache = results["load_cache"]
        assert cache["cached_loads_per_sec"] > cache["cold_loads_per_sec"]
        assert cache["cache_hit_rate"] == pytest.approx(0.5)

    def test_results_file_written(self, results):
        written = json.loads(RESULTS_PATH.read_text())
        assert written["dispatch"]["compiled_speedup"] == \
            results["dispatch"]["compiled_speedup"]
