"""One-stop facade over the proposed extension framework.

Wires together toolchain, loader (with key bootstrap), and the
protected VM, and provides the same run entry points as
:class:`repro.ebpf.loader.BpfSubsystem` so experiments can drive both
frameworks with identical workloads.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.kcrate.api import build_api_table
from repro.core.kcrate.resources import KernelResource
from repro.core.loader import LoadedExtension, SafeLoader
from repro.core.signing import SigningKey
from repro.core.toolchain import CompiledExtension, TrustedToolchain
from repro.core.vm import ExtensionVm, RunResult
from repro.kernel.kernel import Kernel


class SafeExtensionFramework:
    """The paper's proposal, assembled."""

    def __init__(self, kernel: Kernel,
                 watchdog_budget_ns: int = 1_000_000) -> None:
        self.kernel = kernel
        self.api = build_api_table()
        # key bootstrap: the kernel trusts exactly the keys provisioned
        # at boot (modeling IMA/secure-boot key distribution [43])
        self.toolchain_key = SigningKey.generate("toolchain-v1")
        self.toolchain = TrustedToolchain(self.toolchain_key, self.api)
        self.loader = SafeLoader(
            kernel, {self.toolchain_key.key_id: self.toolchain_key},
            self.api)
        self.vm = ExtensionVm(kernel, self.api,
                              watchdog_budget_ns=watchdog_budget_ns)

    def shutdown(self) -> None:
        """Tear the framework down, returning its kernel memory (the
        per-CPU pool region) — without this, every framework instance
        leaks one pool region for the kernel's lifetime."""
        self.vm.shutdown()

    # -- developer workflow --------------------------------------------------

    def compile(self, source: str, name: str) -> CompiledExtension:
        """Userspace: check + sign."""
        return self.toolchain.compile(source, name)

    def load(self, ext: CompiledExtension,
             maps: Optional[List[object]] = None,
             watchdog_budget_ns: Optional[int] = None
             ) -> LoadedExtension:
        """Kernel: validate signature + fix up.  An operator may cap
        this extension tighter than the framework default (hot-path
        hooks get microseconds, housekeeping gets milliseconds)."""
        loaded = self.loader.load(ext, maps)
        loaded.watchdog_budget_ns = watchdog_budget_ns
        return loaded

    def install(self, source: str, name: str,
                maps: Optional[List[object]] = None,
                watchdog_budget_ns: Optional[int] = None
                ) -> LoadedExtension:
        """compile + load in one step."""
        return self.load(self.compile(source, name), maps,
                         watchdog_budget_ns=watchdog_budget_ns)

    # -- execution -----------------------------------------------------------------

    def run(self, loaded: LoadedExtension,
            ctx: Optional[KernelResource] = None) -> RunResult:
        """Run with a pre-built context handle (or none).

        The per-extension budget is passed *through* to the VM rather
        than swapped into shared VM state, so nested runs (one
        extension's hook firing another) each keep their own budget —
        the save/restore this replaces was not re-entrancy-safe."""
        return self.vm.run(loaded.program, loaded.name, loaded.maps,
                           ctx,
                           watchdog_budget_ns=loaded.watchdog_budget_ns)

    def run_on_packet(self, loaded: LoadedExtension,
                      payload: bytes) -> RunResult:
        """Build an skb context and run (XDP-style hook)."""
        skb = self.kernel.create_skb(payload)
        ctx = KernelResource("xdp_ctx", f"skb@{skb.address:#x}",
                             lambda: None, payload=skb)
        return self.run(loaded, ctx)

    def run_on_trace(self, loaded: LoadedExtension) -> RunResult:
        """Run a tracing extension (no packet context)."""
        return self.run(loaded, None)

    # -- attachment points --------------------------------------------------------

    def attach_xdp(self, loaded: LoadedExtension,
                   priority: int = 0) -> None:
        """Attach an extension to the kernel's XDP hook chain,
        alongside any eBPF programs already there."""
        def run_on_skb(skb) -> int:
            ctx = KernelResource("xdp_ctx", f"skb@{skb.address:#x}",
                                 lambda: None, payload=skb)
            return self.run(loaded, ctx).value
        self.kernel.hooks.attach("xdp", f"safelang:{loaded.name}",
                                 run_on_skb, priority=priority)

    def attach_trace(self, loaded: LoadedExtension,
                     priority: int = 0) -> None:
        """Attach an extension to the tracing hook."""
        self.kernel.hooks.attach(
            "trace", f"safelang:{loaded.name}",
            lambda __: self.run(loaded, None).value,
            priority=priority)
