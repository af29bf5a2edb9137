"""§2.2 safety experiment: a verified program crashes the kernel.

"Through a helper function, we wrote eBPF programs that crash the
kernel ... we achieved a kernel crash by dereferencing the NULL
pointer inside the union" (CVE-2022-2785).

Three conditions:

1. buggy-era eBPF kernel — the program *passes verification* and
   crashes the kernel (NULL dereference, oops, kernel tainted);
2. patched eBPF kernel — same program, helper returns -EFAULT;
3. proposed framework — the equivalent workload goes through the
   sanitized ``sys_map_update`` wrapper; a NULL pointer is
   unrepresentable, the kernel stays healthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks import Outcome, build_corpus, run_case
from repro.core import SafeExtensionFramework
from repro.ebpf import BpfSubsystem
from repro.ebpf.bugs import BugConfig
from repro.experiments import report
from repro.kernel.kernel import Kernel

_SAFE_EQUIVALENT = """
fn prog(ctx: XdpCtx) -> i64 {
    // the same logical operation the attack aimed at: a nested
    // map update through the (wrapped) bpf syscall surface
    let rc = sys_map_update(0, 1, 4242);
    return rc;
}
"""


@dataclass
class CrashResult:
    """Outcomes of the three conditions."""

    buggy_outcome: Outcome
    buggy_oops_category: str
    patched_outcome: Outcome
    safelang_value: int
    safelang_kernel_healthy: bool

    @property
    def reproduces_paper(self) -> bool:
        """All three conditions behave as the paper describes."""
        return (self.buggy_outcome == Outcome.KERNEL_COMPROMISED
                and self.buggy_oops_category == "null-deref"
                and self.patched_outcome != Outcome.KERNEL_COMPROMISED
                and self.safelang_kernel_healthy
                and self.safelang_value == 0)


def run() -> CrashResult:
    """Run all three conditions."""
    case = next(c for c in build_corpus()
                if c.case_id == "ebpf-sys-bpf-crash")

    buggy_kernel = Kernel()
    buggy_outcome = run_case(case, kernel=buggy_kernel)
    oops = buggy_kernel.log.last_oops()

    patched_outcome = run_case(case, kernel=Kernel(),
                               bugs=BugConfig.all_patched())

    sl_kernel = Kernel()
    framework = SafeExtensionFramework(sl_kernel)
    bpf = BpfSubsystem(sl_kernel)
    hmap = bpf.create_map("hash", key_size=4, value_size=8,
                          max_entries=4)
    loaded = framework.install(_SAFE_EQUIVALENT, "safe_sys_update",
                               maps=[hmap])
    result = framework.run_on_packet(loaded, b"pkt")

    return CrashResult(
        buggy_outcome=buggy_outcome,
        buggy_oops_category=oops.category if oops else "(none)",
        patched_outcome=patched_outcome,
        safelang_value=result.value,
        safelang_kernel_healthy=sl_kernel.healthy,
    )


def render(result: CrashResult) -> str:
    """The experiment artifact."""
    parts = [report.render_table(
        ["condition", "outcome"],
        [("eBPF, buggy era (CVE-2022-2785 present)",
          f"{result.buggy_outcome.value} "
          f"(oops: {result.buggy_oops_category})"),
         ("eBPF, patched", result.patched_outcome.value),
         ("proposed framework (wrapped sys_bpf)",
          f"rc={result.safelang_value}, kernel healthy="
          f"{result.safelang_kernel_healthy}")],
        title="§2.2 safety experiment: NULL-in-union through "
              "bpf_sys_bpf")]
    parts.append("")
    parts.append("Shape checks:")
    parts.append(report.check(
        "verified eBPF program crashes the buggy-era kernel "
        "(NULL dereference)",
        result.buggy_outcome == Outcome.KERNEL_COMPROMISED
        and result.buggy_oops_category == "null-deref"))
    parts.append(report.check(
        "patch stops the crash (helper validates the union)",
        result.patched_outcome != Outcome.KERNEL_COMPROMISED))
    parts.append(report.check(
        "the wrapped interface makes the attack unrepresentable",
        result.safelang_kernel_healthy and result.safelang_value == 0))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
