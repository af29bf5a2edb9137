"""§4 experiment: protection from unsafe code.

The paper's open question: "the threat of an errant write from unsafe
code into code or data belonging to the safe extension is unavoidable
... Lightweight hardware-supported memory protection [27, 30, 33]
seem a promising technique."

This experiment implements the scenario both ways:

1. **without keys** — a stray unsafe-kernel write lands in the
   extension's memory pool and silently corrupts it (the extension's
   next read observes attacker data);
2. **with keys** — the same write faults at the domain boundary; the
   pool is intact and the extension's reads are unaffected;
3. **overhead** — per-write cost of the key check, supporting the
   "lightweight" claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.runtime.mempool import MemoryPool
from repro.core.runtime.mpk import (
    MemoryProtectionKeys,
    protect_extension_memory,
)
from repro.errors import ProtectionKeyFault
from repro.experiments import report
from repro.kernel import Kernel


@dataclass
class MpkResult:
    """Outcomes of the three measurements."""

    corrupted_without_keys: bool
    observed_value_without_keys: int
    fault_with_keys: bool
    pool_intact_with_keys: bool
    write_ns_without_keys: float
    write_ns_with_keys: float

    @property
    def overhead_factor(self) -> float:
        """Keyed-write cost relative to a plain write."""
        if self.write_ns_without_keys <= 0:
            return 0.0
        return self.write_ns_with_keys / self.write_ns_without_keys


def _stray_write(kernel: Kernel, pool: MemoryPool) -> None:
    """The errant unsafe-kernel write into extension memory."""
    kernel.mem.write_u64(pool.region.base + 64, 0x4141414141414141,
                         source="bpf_sys_bpf")


def run() -> MpkResult:
    """Run both conditions plus the overhead measurement."""
    # condition 1: no protection keys
    kernel = Kernel()
    pool = MemoryPool(kernel, kernel.current_cpu, size=1024)
    _stray_write(kernel, pool)
    observed = kernel.mem.read_u64(pool.region.base + 64)
    corrupted = observed == 0x4141414141414141

    # condition 2: keys armed
    kernel2 = Kernel()
    mpk = MemoryProtectionKeys(kernel2.mem)
    pool2 = MemoryPool(kernel2, kernel2.current_cpu, size=1024)
    protect_extension_memory(mpk, pool2.region)
    fault = False
    try:
        _stray_write(kernel2, pool2)
    except ProtectionKeyFault:
        fault = True
    intact = kernel2.mem.read_u64(pool2.region.base + 64) == 0

    # condition 3: per-write overhead of the key check
    def measure(target_kernel: Kernel, base: int) -> float:
        rounds = 3000
        start = time.perf_counter()
        for index in range(rounds):
            target_kernel.mem.write_u64(base, index, source="kernel")
        return (time.perf_counter() - start) / rounds * 1e9

    plain_kernel = Kernel()
    plain_alloc = plain_kernel.mem.kmalloc(64)
    plain_ns = measure(plain_kernel, plain_alloc.base)

    keyed_kernel = Kernel()
    MemoryProtectionKeys(keyed_kernel.mem)
    keyed_alloc = keyed_kernel.mem.kmalloc(64)
    keyed_ns = measure(keyed_kernel, keyed_alloc.base)

    return MpkResult(
        corrupted_without_keys=corrupted,
        observed_value_without_keys=observed,
        fault_with_keys=fault,
        pool_intact_with_keys=intact,
        write_ns_without_keys=plain_ns,
        write_ns_with_keys=keyed_ns,
    )


def render(result: MpkResult) -> str:
    """The §4 artifact."""
    parts = [report.render_table(
        ["condition", "stray unsafe write into extension memory"],
        [("no protection keys",
          f"SILENT CORRUPTION (extension reads "
          f"{result.observed_value_without_keys:#x})"),
         ("protection keys armed",
          f"pkey fault raised={result.fault_with_keys}, pool "
          f"intact={result.pool_intact_with_keys}")],
        title="§4: protection from unsafe code "
              "(MPK/PKS-style domains)")]
    parts.append("")
    parts.append(
        f"key-check overhead: {result.write_ns_without_keys:.0f} ns "
        f"-> {result.write_ns_with_keys:.0f} ns per write "
        f"({result.overhead_factor:.2f}x, host time; constant per "
        "access, no analysis)")
    parts.append("")
    parts.append("Shape checks:")
    parts.append(report.check(
        "without keys the stray write silently corrupts",
        result.corrupted_without_keys))
    parts.append(report.check(
        "with keys the write faults and the pool is intact",
        result.fault_with_keys and result.pool_intact_with_keys))
    parts.append(report.check(
        f"the check is lightweight (<5x per-write overhead, measured "
        f"{result.overhead_factor:.2f}x)",
        result.overhead_factor < 5.0))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
