"""Attack programs and their fates under both frameworks.

Each :class:`AttackCase` targets one Table 2 safety property in one
framework.  :func:`run_case` executes it against a fresh kernel and
classifies what actually happened:

* ``REJECTED_STATIC`` — the verifier / the trusted toolchain refused
  to load it,
* ``CONTAINED`` — it ran, misbehaved, and the runtime terminated it
  safely (kernel healthy, no leaks),
* ``KERNEL_COMPROMISED`` — it ran and the kernel oopsed, stalled, or
  leaked a resource,
* ``HARMLESS`` — it ran to completion without violating anything.

The corpus encodes the paper's core claim: for eBPF, several attacks
are *verified and still compromise the kernel* (through helpers, or
through verifier/JIT bugs); for the proposed framework every listed
attack is either rejected by the toolchain or contained at run time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.isa import (
    R0, R1, R2, R3, R4, R5, R6, R7, R8, R10,
)
from repro.errors import (
    BpfRuntimeError,
    KernelDeadlock,
    MemoryFault,
    ResourceLeak,
    SafeLangError,
    VerifierError,
)
from repro.kernel.kernel import Kernel


class Outcome(enum.Enum):
    """What happened when the attack was loaded and run."""

    REJECTED_STATIC = "rejected-static"
    CONTAINED = "contained-runtime"
    KERNEL_COMPROMISED = "kernel-compromised"
    HARMLESS = "harmless"


@dataclass
class AttackCase:
    """One attack in one framework."""

    case_id: str
    safety_property: str        # Table 2 row
    framework: str              # "ebpf" | "safelang"
    description: str
    #: runs the attack; returns the observed Outcome
    run: Callable[[Kernel], Outcome] = None
    #: Table 2 column: which mechanism is (supposed to be) responsible
    enforcement: str = ""
    #: the expected outcome on a buggy-era kernel
    expected: Outcome = Outcome.REJECTED_STATIC
    notes: str = ""


# ---------------------------------------------------------------------------
# shared runners
# ---------------------------------------------------------------------------

def _ebpf_outcome(kernel: Kernel, loader_fn, runner_fn,
                  bugs: Optional[BugConfig] = None) -> Outcome:
    """Load + run an eBPF attack, classifying the result."""
    from repro.errors import KernelOops

    bpf = BpfSubsystem(kernel, bugs=bugs)
    try:
        prog = loader_fn(bpf)
    except VerifierError:
        return Outcome.REJECTED_STATIC
    except KernelOops:
        # the verifier itself crashed the kernel ([54] class)
        return Outcome.KERNEL_COMPROMISED
    try:
        runner_fn(bpf, prog)
    except (MemoryFault, KernelDeadlock):
        return Outcome.KERNEL_COMPROMISED
    except ResourceLeak:
        return Outcome.KERNEL_COMPROMISED
    except BpfRuntimeError:
        return Outcome.HARMLESS
    if not kernel.healthy or kernel.rcu.stall_reports:
        return Outcome.KERNEL_COMPROMISED
    leaks = kernel.refs.outstanding_for("kernel-sk-lookup-lost")
    if leaks:
        return Outcome.KERNEL_COMPROMISED
    return Outcome.HARMLESS


def _safelang_outcome(kernel: Kernel, source: str, name: str,
                      setup=None) -> Outcome:
    """Compile + load + run a SafeLang attack."""
    from repro.core import SafeExtensionFramework

    framework = SafeExtensionFramework(kernel)
    maps = setup(kernel) if setup else []
    try:
        loaded = framework.install(source, name, maps=maps)
    except SafeLangError:
        return Outcome.REJECTED_STATIC
    result = framework.run_on_packet(loaded, b"attack-payload")
    if not kernel.healthy or kernel.rcu.stall_reports:
        return Outcome.KERNEL_COMPROMISED
    if kernel.refs.outstanding_for(f"safelang:{name}"):
        return Outcome.KERNEL_COMPROMISED
    if result.terminated or result.panicked:
        return Outcome.CONTAINED
    return Outcome.HARMLESS


# ---------------------------------------------------------------------------
# eBPF attacks
# ---------------------------------------------------------------------------

def ebpf_wild_pointer(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """Dereference a fabricated kernel address directly."""
    def load(bpf: BpfSubsystem):
        asm = (Asm()
               .ld_imm64(R1, 0xFFFF_8880_DEAD_0000)
               .ldx(8, R0, R1, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE, "wild")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_probe_read_anywhere(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """Read any kernel object through the bpf_probe_read escape hatch.

    Passes verification; the 'no arbitrary memory access' guarantee
    ends at the helper boundary (§2.2)."""
    secret_task = kernel.create_task(comm="secret")

    def load(bpf: BpfSubsystem):
        asm = (Asm()
               .mov64_reg(R1, R10).alu64_imm("add", R1, -8)
               .mov64_imm(R2, 8)
               .ld_imm64(R3, secret_task.address)
               .call(ids.BPF_FUNC_probe_read)
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "probe_anywhere")

    def run(bpf: BpfSubsystem, prog) -> None:
        bpf.run_on_current_task(prog)
        # the verified program read task_struct memory it doesn't own;
        # classify as a (read) compromise of the isolation property
        raise MemoryFault("bpf_probe_read exfiltrated task_struct "
                          "contents", address=secret_task.address,
                          source="bpf:probe_anywhere")
    return _ebpf_outcome(kernel, load, run, bugs=bugs)


def ebpf_sys_bpf_crash(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """The §2.2 crash: NULL pointer inside the bpf_sys_bpf attr union
    (CVE-2022-2785)."""
    def load(bpf: BpfSubsystem):
        hmap = bpf.create_map("hash", key_size=4, value_size=4,
                              max_entries=4)
        asm = (Asm()
               .st_imm(4, R10, -32, hmap.map_fd)
               .st_imm(4, R10, -28, 0)
               .st_imm(8, R10, -24, 0)    # key pointer = NULL
               .st_imm(8, R10, -16, 0)
               .st_imm(8, R10, -8, 0)
               .mov64_imm(R1, 2)          # BPF_MAP_UPDATE_ELEM
               .mov64_reg(R2, R10).alu64_imm("add", R2, -32)
               .mov64_imm(R3, 32)
               .call(ids.BPF_FUNC_sys_bpf)
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "cve-2022-2785")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_task_storage_null(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """NULL task pointer into bpf_task_storage_get [42]."""
    def load(bpf: BpfSubsystem):
        ts_map = bpf.create_map("task_storage", value_size=8)
        asm = (Asm()
               .ld_map_fd(R1, ts_map.map_fd)
               .mov64_imm(R2, 0)          # task = NULL
               .mov64_imm(R3, 0)
               .mov64_imm(R4, 1)          # BPF_..._F_CREATE
               .call(ids.BPF_FUNC_task_storage_get)
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "storage_null")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_jump_into_ld_imm64(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """Branch into the second slot of an ld_imm64 (hidden insn)."""
    def load(bpf: BpfSubsystem):
        asm = (Asm()
               .jmp_imm("jeq", R1, 0, 1)   # into the pair below
               .ld_imm64(R0, 0x9500000000000000)  # 2nd half = exit
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "hidden_insn")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_jit_hijack(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """CVE-2021-29154 shape: a conditional branch right after a DIV is
    miscompiled one instruction long, skipping the clamp the verifier
    saw on the taken path.  Verified; compromises the kernel when the
    JIT bug is present."""
    def load(bpf: BpfSubsystem):
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=1)
        # attacker preloads a huge "index" into the map from userspace
        amap.update((0).to_bytes(4, "little"),
                    (0x100000).to_bytes(8, "little"))
        asm = (Asm()
               # r6 = &map[0]
               .st_imm(4, R10, -4, 0)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, amap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               .jmp_imm("jne", R0, 0, "have")
               .mov64_imm(R0, 0)
               .exit_()
               .label("have")
               .mov64_reg(R6, R0)
               .ldx(8, R3, R6, 0)          # attacker-controlled index
               .mov64_reg(R4, R3)
               .alu64_imm("div", R4, 1)    # the miscompile gadget
               # verifier: large index -> jump to the clamp; JIT emits
               # this branch one insn long, landing past the clamp
               .jmp_imm("jgt", R3, 7, "clamp")
               .ja("use")
               .label("clamp")
               .mov64_imm(R3, 0)
               .label("use")
               # r5 = r6 + r3: verified with r3 <= 7 or r3 == 0
               .mov64_reg(R5, R6)
               .alu64_reg("add", R5, R3)
               .st_imm(1, R5, 0, 0x41)
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "jit_hijack")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_ptr_arith_or_null(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """CVE-2022-23222 shape: arithmetic on a not-yet-null-checked map
    value, then the null branch is taken at run time, so the 'pointer'
    is NULL+delta — an arbitrary kernel address."""
    def load(bpf: BpfSubsystem):
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=1)
        hmap = bpf.create_map("hash", key_size=4, value_size=8,
                              max_entries=4)
        asm = (Asm()
               # r6 = valid array value pointer (the write base)
               .st_imm(4, R10, -4, 0)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, amap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               .jmp_imm("jne", R0, 0, "base_ok")
               .mov64_imm(R0, 0).exit_()
               .label("base_ok")
               .mov64_reg(R6, R0)
               # r0 = hash lookup of a missing key -> NULL at run time
               .st_imm(4, R10, -4, 7)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, hmap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               # the bug: arithmetic on the unchecked pointer copy is
               # not sanitized; r7 shares r0's or-null identity
               .mov64_reg(R7, R0)
               .alu64_imm("add", R7, 0x100000)
               .jmp_imm("jne", R0, 0, "nonnull")
               # null branch: the verifier now believes r7 == 0, but at
               # run time r7 holds NULL + 0x100000
               .mov64_reg(R8, R6)
               .alu64_reg("add", R8, R7)   # "base + 0": actually +1MiB
               .st_imm(8, R8, 0, 0x41414141)  # arbitrary kernel write
               .label("nonnull")
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "cve-2022-23222")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_verifier_uaf(kernel: Kernel,
                      bugs: Optional[BugConfig] = None) -> Outcome:
    """[54]: merely *loading* a program with two inlinable bpf_loop
    calls triggers a use-after-free inside the verifier — the checker
    is itself kernel attack surface."""
    def load(bpf: BpfSubsystem):
        asm = Asm()
        for round_no in range(2):
            (asm.mov64_imm(R1, 4)
                .ld_func(R2, "cb")
                .mov64_imm(R3, 0)
                .mov64_imm(R4, 0)
                .call(ids.BPF_FUNC_loop))
        asm.mov64_imm(R0, 0).exit_()
        asm.label("cb").mov64_imm(R0, 0).exit_()
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "double_inline")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_type_confusion(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """Use a scalar from a map value as a pointer."""
    def load(bpf: BpfSubsystem):
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=1)
        asm = (Asm()
               .st_imm(4, R10, -4, 0)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, amap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               .jmp_imm("jne", R0, 0, "have")
               .mov64_imm(R0, 0).exit_()
               .label("have")
               .ldx(8, R1, R0, 0)   # scalar from map
               .ldx(8, R0, R1, 0)   # deref it as a pointer
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "type_confusion")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_kptr_leak(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """Store the current task_struct address into a user-readable map
    via bpf_get_current_task — KASLR defeat, allowed by design."""
    def load(bpf: BpfSubsystem):
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=1)
        asm = (Asm()
               .call(ids.BPF_FUNC_get_current_task)
               .mov64_reg(R6, R0)
               .st_imm(4, R10, -4, 0)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, amap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               .jmp_imm("jne", R0, 0, "have")
               .mov64_imm(R0, 0).exit_()
               .label("have")
               .stx(8, R0, 0, R6)   # kernel address -> map
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "kptr_leak")

    def run(bpf: BpfSubsystem, prog) -> None:
        bpf.run_on_current_task(prog)
        amap = bpf.all_maps()[0]
        leaked = int.from_bytes(amap.read_value(0), "little")
        if leaked == kernel.current_task.address:
            raise MemoryFault("kernel address leaked to user-readable "
                              "map", address=leaked,
                              source="bpf:kptr_leak")
    return _ebpf_outcome(kernel, load, run, bugs=bugs)


def ebpf_refcount_correct_but_leaks(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """A *well-behaved* program (lookup + release, verifier-approved)
    still leaks a request-sock reference via the [35] helper bug."""
    listener = kernel.create_socket(src_ip=0x0A000001, src_port=80)
    listener.write_field("state", 12)  # TCP_NEW_SYN_RECV
    listener.pending_reqsk = kernel.create_request_sock("pending80")

    def load(bpf: BpfSubsystem):
        asm = (Asm()
               # tuple on stack: daddr=10.0.0.1, dport=80
               .st_imm(4, R10, -12, 0)
               .st_imm(4, R10, -8, 0x0A000001)
               .st_imm(2, R10, -4, 0)
               .st_imm(2, R10, -2, 80)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -12)
               .mov64_imm(R3, 12)
               .mov64_imm(R4, 0)
               .mov64_imm(R5, 0)
               .call(ids.BPF_FUNC_sk_lookup_tcp)
               .jmp_imm("jne", R0, 0, "found")
               .mov64_imm(R0, 0).exit_()
               .label("found")
               .mov64_reg(R1, R0)
               .call(ids.BPF_FUNC_sk_release)   # dutiful release
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.XDP,
                                "dutiful_lookup")

    def run(bpf: BpfSubsystem, prog) -> None:
        bpf.run_on_packet(prog, b"payload")
    return _ebpf_outcome(kernel, load, run, bugs=bugs)


def ebpf_missing_release(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """Acquire a socket and exit without releasing: verifier rejects."""
    kernel.create_socket(src_ip=0x0A000001, src_port=80)

    def load(bpf: BpfSubsystem):
        asm = (Asm()
               .st_imm(4, R10, -12, 0)
               .st_imm(4, R10, -8, 0x0A000001)
               .st_imm(2, R10, -4, 0)
               .st_imm(2, R10, -2, 80)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -12)
               .mov64_imm(R3, 12)
               .mov64_imm(R4, 0)
               .mov64_imm(R5, 0)
               .call(ids.BPF_FUNC_sk_lookup_tcp)
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.XDP,
                                "leaky_lookup")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_packet(p, b"x"),
                         bugs=bugs)


def ebpf_infinite_loop(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """A plain backward jump: the classic rejected non-terminator."""
    def load(bpf: BpfSubsystem):
        asm = Asm().label("top").ja("top").exit_()
        return bpf.load_program(asm.program(), ProgType.KPROBE, "spin")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_rcu_stall(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """The §2.2 termination attack: nested bpf_loop, verified,
    runs for (controllably) unbounded virtual time under the RCU read
    lock — stalls observed, kernel cannot stop it."""
    def load(bpf: BpfSubsystem):
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=16)
        asm = (Asm()
               .mov64_imm(R1, 1 << 23)
               .ld_func(R2, "outer")
               .mov64_imm(R3, 0)
               .mov64_imm(R4, 0)
               .call(ids.BPF_FUNC_loop)
               .mov64_imm(R0, 0)
               .exit_()
               .label("outer")
               .mov64_imm(R1, 1 << 23)
               .ld_func(R2, "inner")
               .mov64_imm(R3, 0)
               .mov64_imm(R4, 0)
               .call(ids.BPF_FUNC_loop)
               .mov64_imm(R0, 0)
               .exit_()
               .label("inner")
               .st_imm(4, R10, -4, 3)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, amap.map_fd)
               .call(ids.BPF_FUNC_map_lookup_elem)
               .jmp_imm("jeq", R0, 0, "skip")
               .st_imm(8, R0, 0, 1)
               .label("skip")
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "rcu_stall")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_stack_oob(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """Write below the 512-byte stack frame."""
    def load(bpf: BpfSubsystem):
        asm = (Asm()
               .st_imm(8, R10, -520, 0x41)
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "stack_oob")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


def ebpf_deep_recursion(kernel: Kernel, bugs: Optional[BugConfig] = None) -> Outcome:
    """BPF-to-BPF self-recursion: frame limit rejects it."""
    def load(bpf: BpfSubsystem):
        asm = (Asm()
               .label("f")
               .call_subprog("f")
               .mov64_imm(R0, 0)
               .exit_())
        return bpf.load_program(asm.program(), ProgType.KPROBE,
                                "recursion")
    return _ebpf_outcome(kernel, load,
                         lambda bpf, p: bpf.run_on_current_task(p),
                         bugs=bugs)


# ---------------------------------------------------------------------------
# SafeLang attacks
# ---------------------------------------------------------------------------

SAFELANG_WILD_POINTER = """
fn prog(ctx: XdpCtx) -> i64 {
    let addr: u64 = 0xffff8880dead0000;
    let value = *addr;          // no such operation on integers
    return value as i64;
}
"""

SAFELANG_UNSAFE_BLOCK = """
fn prog(ctx: XdpCtx) -> i64 {
    unsafe {
    }
    return 0;
}
"""

SAFELANG_TYPE_CONFUSION = """
fn prog(ctx: XdpCtx) -> i64 {
    let x: u64 = true;          // bool is not u64
    return x as i64;
}
"""

SAFELANG_USE_AFTER_MOVE = """
fn prog(ctx: XdpCtx) -> i64 {
    match sk_lookup_tcp(167772161, 80) {
        Some(s) => {
            drop(s);
            return s.src_port() as i64;   // use after drop
        },
        None => { return 0; },
    }
    return 0;
}
"""

SAFELANG_INFINITE_LOOP = """
fn prog(ctx: XdpCtx) -> i64 {
    let mut i: u64 = 0;
    while true {
        i = i + 1;
        if i == 0 { break; }    // never
    }
    return 0;
}
"""

SAFELANG_LOOP_WITH_RESOURCES = """
fn prog(ctx: XdpCtx) -> i64 {
    let mut i: u64 = 0;
    while true {
        match sk_lookup_tcp(167772161, 80) {
            Some(s) => { i = i + s.state(); },
            None => { i = i + 1; },
        }
    }
    return i as i64;
}
"""

SAFELANG_POOL_EXHAUSTION = """
fn prog(ctx: XdpCtx) -> i64 {
    // grab pool-backed vectors forever: allocation is bounded by the
    // pre-allocated per-CPU pool, and the loop by the watchdog
    let mut got: u64 = 0;
    while true {
        let v = vec_new();
        if v.push(1) { got = got + 1; }
    }
    return got as i64;
}
"""

SAFELANG_DEEP_RECURSION = """
fn dive(depth: u64) -> u64 {
    return dive(depth + 1);
}
fn prog(ctx: XdpCtx) -> i64 {
    return dive(0) as i64;
}
"""

SAFELANG_OVERFLOW = """
fn prog(ctx: XdpCtx) -> i64 {
    let max: u64 = 18446744073709551615;
    let wrapped = max + 1;
    return wrapped as i64;
}
"""

SAFELANG_CALL_UNKNOWN = """
fn prog(ctx: XdpCtx) -> i64 {
    jump_to_kernel_code(0xffff888000000000);
    return 0;
}
"""


def _sl(source: str, name: str, needs_socket: bool = False):
    def run(kernel: Kernel,
            bugs: Optional[BugConfig] = None) -> Outcome:
        if needs_socket:
            sock = kernel.create_socket(src_ip=0x0A000001, src_port=80)
            sock.write_field("state", 12)
            sock.pending_reqsk = kernel.create_request_sock("pending")
        return _safelang_outcome(kernel, source, name)
    return run


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

def build_corpus() -> List[AttackCase]:
    """All attack cases, both frameworks, Table 2 ordering."""
    prop_mem = "No arbitrary memory access"
    prop_cf = "No arbitrary control-flow transfer"
    prop_type = "Type safety"
    prop_res = "Safe resource management"
    prop_term = "Termination"
    prop_stack = "Stack protection"
    return [
        # -- memory ---------------------------------------------------------
        AttackCase("ebpf-wild-ptr", prop_mem, "ebpf",
                   "dereference a fabricated kernel address",
                   ebpf_wild_pointer, "verifier",
                   Outcome.REJECTED_STATIC),
        AttackCase("ebpf-probe-read", prop_mem, "ebpf",
                   "read arbitrary kernel memory via bpf_probe_read",
                   ebpf_probe_read_anywhere, "verifier (bypassed by "
                   "helper)", Outcome.KERNEL_COMPROMISED,
                   notes="verified program; helper is the escape hatch"),
        AttackCase("ebpf-sys-bpf-crash", prop_mem, "ebpf",
                   "NULL pointer inside bpf_sys_bpf union attr "
                   "(CVE-2022-2785)",
                   ebpf_sys_bpf_crash, "verifier (bypassed by helper)",
                   Outcome.KERNEL_COMPROMISED),
        AttackCase("ebpf-storage-null", prop_mem, "ebpf",
                   "NULL task into bpf_task_storage_get [42]",
                   ebpf_task_storage_null,
                   "verifier (bypassed by helper)",
                   Outcome.KERNEL_COMPROMISED),
        AttackCase("ebpf-ptr-arith", prop_mem, "ebpf",
                   "pointer arithmetic before null check "
                   "(CVE-2022-23222)",
                   ebpf_ptr_arith_or_null, "verifier (buggy)",
                   Outcome.KERNEL_COMPROMISED),
        AttackCase("ebpf-verifier-uaf", prop_mem, "ebpf",
                   "use-after-free inside the verifier's own "
                   "loop-inlining code, triggered at LOAD time [54]",
                   ebpf_verifier_uaf, "verifier (itself the victim)",
                   Outcome.KERNEL_COMPROMISED,
                   notes="the checker is kernel attack surface too"),
        AttackCase("sl-wild-ptr", prop_mem, "safelang",
                   "dereference an integer as a pointer",
                   _sl(SAFELANG_WILD_POINTER, "wild"),
                   "language safety", Outcome.REJECTED_STATIC),
        AttackCase("sl-unsafe", prop_mem, "safelang",
                   "smuggle an unsafe block into the extension",
                   _sl(SAFELANG_UNSAFE_BLOCK, "unsafe"),
                   "language safety", Outcome.REJECTED_STATIC),
        # -- control flow -----------------------------------------------------
        AttackCase("ebpf-hidden-insn", prop_cf, "ebpf",
                   "jump into the second half of ld_imm64",
                   ebpf_jump_into_ld_imm64, "verifier",
                   Outcome.REJECTED_STATIC),
        AttackCase("ebpf-jit-hijack", prop_cf, "ebpf",
                   "JIT branch miscompile skips a verified check "
                   "(CVE-2021-29154)",
                   ebpf_jit_hijack, "verifier (bypassed by JIT)",
                   Outcome.KERNEL_COMPROMISED),
        AttackCase("sl-call-unknown", prop_cf, "safelang",
                   "call a function outside the fixed symbol table",
                   _sl(SAFELANG_CALL_UNKNOWN, "unknown_call"),
                   "language safety", Outcome.REJECTED_STATIC),
        # -- type safety ---------------------------------------------------------
        AttackCase("ebpf-type-confusion", prop_type, "ebpf",
                   "treat a map-value scalar as a pointer",
                   ebpf_type_confusion, "verifier",
                   Outcome.REJECTED_STATIC),
        AttackCase("ebpf-kptr-leak", prop_type, "ebpf",
                   "leak a task_struct address through "
                   "bpf_get_current_task (scalar-typed kernel ptr)",
                   ebpf_kptr_leak, "verifier (blind: helper returns a "
                   "scalar)", Outcome.KERNEL_COMPROMISED),
        AttackCase("sl-type-confusion", prop_type, "safelang",
                   "assign a bool where u64 is expected",
                   _sl(SAFELANG_TYPE_CONFUSION, "confused"),
                   "language safety", Outcome.REJECTED_STATIC),
        # -- resources -------------------------------------------------------------
        AttackCase("ebpf-missing-release", prop_res, "ebpf",
                   "acquire a socket reference and exit",
                   ebpf_missing_release, "verifier",
                   Outcome.REJECTED_STATIC),
        AttackCase("ebpf-reqsk-leak", prop_res, "ebpf",
                   "well-behaved lookup/release still leaks a "
                   "request_sock ref [35]",
                   ebpf_refcount_correct_but_leaks,
                   "verifier (bypassed by helper)",
                   Outcome.KERNEL_COMPROMISED),
        AttackCase("sl-use-after-move", prop_res, "safelang",
                   "use a socket handle after dropping it",
                   _sl(SAFELANG_USE_AFTER_MOVE, "uam",
                       needs_socket=True),
                   "language safety (ownership)",
                   Outcome.REJECTED_STATIC),
        AttackCase("sl-pool-exhaustion", prop_res, "safelang",
                   "allocate pool-backed memory forever",
                   _sl(SAFELANG_POOL_EXHAUSTION, "pool_hog"),
                   "runtime protection (bounded pool + watchdog)",
                   Outcome.CONTAINED,
                   notes="allocation failure is a value, not a crash; "
                         "the loop dies at the watchdog"),
        AttackCase("sl-loop-resources", prop_res, "safelang",
                   "acquire sockets forever in an infinite loop",
                   _sl(SAFELANG_LOOP_WITH_RESOURCES, "loop_res",
                       needs_socket=True),
                   "runtime protection (watchdog + cleanup)",
                   Outcome.CONTAINED),
        # -- termination --------------------------------------------------------------
        AttackCase("ebpf-infinite-loop", prop_term, "ebpf",
                   "plain infinite loop",
                   ebpf_infinite_loop, "verifier",
                   Outcome.REJECTED_STATIC),
        AttackCase("ebpf-rcu-stall", prop_term, "ebpf",
                   "nested bpf_loop runs (practically) forever under "
                   "the RCU read lock (§2.2)",
                   ebpf_rcu_stall, "verifier (bypassed by helper)",
                   Outcome.KERNEL_COMPROMISED),
        AttackCase("sl-infinite-loop", prop_term, "safelang",
                   "plain infinite loop",
                   _sl(SAFELANG_INFINITE_LOOP, "spin"),
                   "runtime protection (watchdog)",
                   Outcome.CONTAINED),
        AttackCase("sl-overflow", prop_term, "safelang",
                   "u64 overflow panics (contained), never wraps into "
                   "a bad state",
                   _sl(SAFELANG_OVERFLOW, "overflow"),
                   "language safety + runtime containment",
                   Outcome.CONTAINED),
        # -- stack ------------------------------------------------------------------------
        AttackCase("ebpf-stack-oob", prop_stack, "ebpf",
                   "write below the 512-byte stack frame",
                   ebpf_stack_oob, "verifier",
                   Outcome.REJECTED_STATIC),
        AttackCase("ebpf-recursion", prop_stack, "ebpf",
                   "unbounded BPF-to-BPF recursion",
                   ebpf_deep_recursion, "verifier",
                   Outcome.REJECTED_STATIC),
        AttackCase("sl-recursion", prop_stack, "safelang",
                   "unbounded recursion",
                   _sl(SAFELANG_DEEP_RECURSION, "dive"),
                   "runtime protection (stack guard)",
                   Outcome.CONTAINED),
    ]


def run_case(case: AttackCase,
             kernel: Optional[Kernel] = None,
             bugs: Optional[BugConfig] = None) -> Outcome:
    """Execute one case on a fresh kernel (buggy-era bugs by
    default; pass BugConfig.all_patched() for a fixed kernel)."""
    kernel = kernel or Kernel()
    return case.run(kernel, bugs)
