"""Injectable bugs modeling the paper's Table 1 bug population.

Table 1 counts 40 security bugs fixed in 2021-2022, 18 in helpers and
22 in the verifier.  The subset the paper discusses concretely is
modeled here as *live code paths*, each guarded by a flag so
experiments can run the same workload on a "buggy era" kernel
(defaults, matching the studied period) and on a "patched" kernel.

Every flag cites the paper's reference for the bug it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class BugConfig:
    """Which modeled bugs are present in this kernel instance."""

    #: CVE-2022-2785 [5], §2.2: ``bpf_sys_bpf`` dereferences a pointer
    #: field inside a union attr without checking it for NULL — the
    #: verifier "does not perform deep argument inspection".
    sys_bpf_null_union: bool = True

    #: [35]: ``sk_lookup`` helpers leak a reference on ``request_sock``
    #: results (``bpf_sk_release`` fails to drop it).
    sk_lookup_reqsk_leak: bool = True

    #: [34]: ``bpf_get_task_stack`` uses a task stack without taking a
    #: reference, racing with stack teardown (use-after-free).
    task_stack_missing_ref: bool = True

    #: [36]: array-map element offset computed in 32 bits; a large
    #: index times value_size wraps and lands out of bounds.
    array_map_32bit_overflow: bool = True

    #: [42]: ``bpf_task_storage_get`` misses the NULL check on the
    #: owner ``task_struct`` pointer.
    task_storage_null_deref: bool = True

    #: CVE-2022-23222-like [4]: the verifier fails to sanitize
    #: arithmetic on a pointer type, letting a "verified" program
    #: fabricate kernel pointers (arbitrary read/write, privesc).
    verifier_ptr_arith_unchecked: bool = True

    #: [13, 14, 32]-like: the verifier fails to mark a pointer-derived
    #: scalar as secret, leaking kernel addresses to user-readable maps.
    verifier_ptr_leak: bool = True

    #: [54]: use-after-free in the verifier's own loop-inlining code —
    #: the *verifier itself* is the vulnerable component.
    verifier_loop_inline_uaf: bool = True

    #: CVE-2021-29154 [1]: JIT branch-offset miscompilation lets a
    #: verified program hijack kernel control flow.
    jit_branch_miscompile: bool = True

    @classmethod
    def all_patched(cls) -> "BugConfig":
        """A kernel with every modeled bug fixed."""
        return cls(**{name: False for name in cls().as_dict()})

    def as_dict(self) -> Dict[str, bool]:
        """Flag name -> enabled."""
        return dict(self.__dict__)

    def enabled_count(self) -> int:
        """How many modeled bugs are live."""
        return sum(self.as_dict().values())
