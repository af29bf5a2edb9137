"""Kernel attachment points: where extensions actually hook in.

The examples drive programs by hand; this module models the kernel's
own dispatch: named hooks (XDP ingress, a tracepoint) with an ordered
chain of attached extensions.  Any callable with the signature
``(kernel, event_object) -> int`` can attach, so eBPF programs and
SafeLang extensions compose on the same hook — which is how real
deployments look during a migration between the two frameworks.

For packet hooks the chain short-circuits on DROP (verdict 1), like
XDP's multi-program attachment; trace hooks run every attachment and
collect return values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

XDP_DROP = 1
XDP_PASS = 2

HookFn = Callable[[object], int]


@dataclass
class Attachment:
    """One extension attached to a hook."""

    name: str
    run: HookFn
    priority: int = 0


class HookManager:
    """Named dispatch points over one kernel."""

    def __init__(self, kernel: "object") -> None:
        self.kernel = kernel
        self._hooks: Dict[str, List[Attachment]] = {}
        self.dispatched: Dict[str, int] = {}

    def attach(self, hook: str, name: str, run: HookFn,
               priority: int = 0) -> Attachment:
        """Attach ``run`` to ``hook``; lower priority runs first."""
        attachment = Attachment(name=name, run=run, priority=priority)
        chain = self._hooks.setdefault(hook, [])
        chain.append(attachment)
        chain.sort(key=lambda a: a.priority)
        self.kernel.log.log(
            self.kernel.clock.now_ns,
            f"hook: attached {name} to {hook} "
            f"(chain length {len(chain)})")
        return attachment

    def detach(self, hook: str, name: str) -> bool:
        """Remove an attachment by name."""
        chain = self._hooks.get(hook, [])
        for index, attachment in enumerate(chain):
            if attachment.name == name:
                del chain[index]
                return True
        return False

    def detach_everywhere(self, name: str) -> int:
        """Remove ``name`` from every hook chain (quarantine's
        auto-detach); returns how many attachments were removed."""
        removed = 0
        for hook, chain in self._hooks.items():
            before = len(chain)
            chain[:] = [a for a in chain if a.name != name]
            if len(chain) != before:
                removed += before - len(chain)
                self.kernel.log.log(
                    self.kernel.clock.now_ns,
                    f"hook: detached {name} from {hook} (quarantine)")
        return removed

    def chain(self, hook: str) -> List[Attachment]:
        """Current attachment order for a hook."""
        return list(self._hooks.get(hook, []))

    def deliver_packet(self, payload: bytes,
                       hook: str = "xdp") -> Tuple[int, List[str]]:
        """Run a packet through the hook chain.

        Returns the final verdict and the names that saw the packet;
        the chain stops at the first DROP (the packet is gone)."""
        self.dispatched[hook] = self.dispatched.get(hook, 0) + 1
        skb = self.kernel.create_skb(payload)
        saw: List[str] = []
        for attachment in self._hooks.get(hook, []):
            saw.append(attachment.name)
            verdict = attachment.run(skb)
            if verdict == XDP_DROP:
                return XDP_DROP, saw
        return XDP_PASS, saw

    def fire_trace(self, hook: str = "trace") -> List[Tuple[str, int]]:
        """Fire a tracing hook; every attachment runs."""
        self.dispatched[hook] = self.dispatched.get(hook, 0) + 1
        results = []
        for attachment in self._hooks.get(hook, []):
            results.append((attachment.name, attachment.run(None)))
        return results
