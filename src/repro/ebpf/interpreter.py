"""The eBPF bytecode VM.

Executes programs concretely against the simulated kernel.  The VM
enforces *nothing*: safety is whatever the verifier proved plus
whatever the helpers actually do — which is the paper's point.  Every
load/store goes through the kernel's checked memory, so an unverified
assumption (a buggy helper, a miscompiled branch, a fabricated
pointer) ends in a genuine kernel oops, not a Python traceback.

Programs run under ``rcu_read_lock`` with preemption disabled, exactly
like real eBPF — which is why a non-terminating program causes RCU
stalls (§2.2).  Long ``bpf_loop`` runs are *fast-forwarded*: after a
sampled prefix of concrete iterations, the remaining iterations charge
virtual time at the measured per-iteration cost.  This keeps the
paper's 800-second stall (and far longer) executable in milliseconds
of host time while preserving the linear runtime-vs-iterations law the
experiment measures.

Two execution tiers share the semantics:

* ``interp`` (``_run_frame_slow``) decodes each ``Insn`` as it
  executes and charges the virtual clock one instruction at a time —
  the reference executor, kept as the differential-testing oracle.
* ``compiled`` (:mod:`repro.ebpf.compile`) lowers the load-time
  :class:`~repro.ebpf.predecode.PredecodedProgram` to generated
  Python — one straight-line statement run per basic block, registers
  as locals — ``exec``-compiled once per program and cached
  content-addressed by the loader.  It charges virtual time in
  batches flushed only where the clock can be observed, so totals
  match the reference path exactly.  Helpers, memory, atomics and
  tail calls still route through this VM, so fault injection and
  telemetry see the same world.

``engine`` on :class:`BpfVm` (or per program via
``LoadedProgram.engine``) selects a tier explicitly;
``DEFAULT_ENGINE`` picks for VMs that don't.  Both tiers must stay
observationally identical (see
``tests/ebpf/test_fastpath_differential.py`` and
``tests/ebpf/test_malformed_differential.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

from repro.ebpf import isa
from repro.ebpf.bugs import BugConfig
from repro.ebpf.compile import CompiledProgram, compile_program
from repro.ebpf.engine import ENGINE_NAMES, resolve_engine
from repro.ebpf.helpers.base import HelperCallContext
from repro.ebpf.isa import Insn, to_s64, to_u64
from repro.ebpf.predecode import FUNC_PTR_BASE, MAP_PTR_BASE, predecode
from repro.errors import BpfRuntimeError, KernelOops
from repro.kernel.kernel import Kernel

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1

#: tier used by VMs that don't pick one explicitly
DEFAULT_ENGINE = "compiled"

#: the execution tiers, reference first (re-exported from
#: :mod:`repro.ebpf.engine`, the single source of truth)
ENGINES = ENGINE_NAMES


class TailCallRequest(Exception):
    """Raised by ``bpf_tail_call`` to unwind into the dispatch loop."""

    def __init__(self, prog: object) -> None:
        super().__init__("tail call")
        self.prog = prog


class BpfVm:
    """One execution engine bound to a kernel and the bpf subsystem."""

    def __init__(self, kernel: Kernel, subsystem: "object",
                 bugs: Optional[BugConfig] = None,
                 loop_sample_limit: int = 256,
                 engine: Optional[str] = None) -> None:
        self.kernel = kernel
        self.subsystem = subsystem
        self.bugs = bugs or BugConfig()
        #: concrete iterations executed before fast-forwarding a loop
        self.loop_sample_limit = loop_sample_limit
        #: default execution tier; a loaded program may override it
        #: via its own ``engine`` attribute
        self.engine = resolve_engine(engine, DEFAULT_ENGINE)
        #: fresh compilations performed by this VM (lazy path; the
        #: loader's compile cache normally attaches one at load)
        self.compiles = 0
        self.insns_executed = 0
        #: crossings from verified bytecode into unverified kernel C
        self.helper_calls = 0
        #: register file at the most recent top-frame EXIT (one list
        #: copy per invocation; the differential fuzzer compares it)
        self.last_exit_regs: Optional[List[int]] = None
        self._prandom_state = 0x2545F491
        self._current_prog: Optional[object] = None
        self._insns: List[Insn] = []
        self._compiled: Optional[CompiledProgram] = None
        #: redirect target stashed by ``bpf_redirect_map`` for the
        #: data plane to consume after the current invocation returns
        #: XDP_REDIRECT (``None`` when no redirect is pending)
        self.pending_redirect: Optional[int] = None

    # -- SMP context switching ------------------------------------------------

    def save_smp_state(self) -> tuple:
        """Snapshot the per-program activation state.

        The VM is a shared singleton, but under a deterministic SMP
        run each logical task owns its own program binding: the
        scheduler saves this at every suspension and restores it when
        the task resumes, so interleaved tasks running *different*
        programs (or mid-tail-call chains) never see each other's
        compiled frames or pending redirect."""
        return (self._current_prog, self._insns, self._compiled,
                self.pending_redirect)

    def restore_smp_state(self, state: Optional[tuple]) -> None:
        """Counterpart of :meth:`save_smp_state`; None (a task's first
        scheduling) resets to the unbound state."""
        if state is None:
            self._current_prog = None
            self._insns = []
            self._compiled = None
            self.pending_redirect = None
        else:
            (self._current_prog, self._insns, self._compiled,
             self.pending_redirect) = state

    # -- identity used for refcount/lock/fault attribution -----------------

    @property
    def prog_tag(self) -> str:
        """Attribution tag of the running program."""
        if self._current_prog is None:
            return "bpf"
        return f"bpf:{self._current_prog.name}"

    # -- top-level dispatch ---------------------------------------------------

    def run(self, prog: object, ctx_addr: int) -> int:
        """Run a loaded program on a context address, with the real
        eBPF execution environment: RCU read lock held, preemption
        off, tail calls honoured up to the chain limit.

        While ``telemetry.stats_enabled`` is on (the
        ``kernel.bpf_stats_enabled`` model), each invocation is folded
        into the program's ``run_cnt`` / ``run_time_ns`` / insn
        accounting; when it is off this wrapper costs one attribute
        test and nothing per instruction."""
        telemetry = self.kernel.telemetry
        if not telemetry.stats_enabled:
            return self._run_locked(prog, ctx_addr)
        clock = self.kernel.clock
        start_ns = clock.now_ns
        start_insns = self.insns_executed
        start_helpers = self.helper_calls
        try:
            return self._run_locked(prog, ctx_addr)
        finally:
            telemetry.record_run(
                "ebpf", prog.name,
                run_time_ns=clock.now_ns - start_ns,
                insns=self.insns_executed - start_insns,
                helper_calls=self.helper_calls - start_helpers)

    def _run_locked(self, prog: object, ctx_addr: int) -> int:
        """The uninstrumented execution environment (see :meth:`run`)."""
        cpu = self.kernel.current_cpu
        rcu = self.kernel.rcu
        rcu.read_lock(holder=f"bpf:{prog.name}")
        cpu.preempt_disable()
        try:
            self._activate(prog)
            try:
                return self._run_frame(0, [0] * 11, ctx_addr, depth=0)
            except TailCallRequest as req:
                return self._finish_tail_calls(req, ctx_addr)
        finally:
            self._current_prog = None
            cpu.preempt_enable()
            rcu.read_unlock()

    def _activate(self, prog: object) -> None:
        """Bind the VM's frame-execution state to ``prog``: its
        runnable instructions plus, on the compiled tier, its compiled
        frame function."""
        self._current_prog = prog
        self._insns = prog.runnable_insns()
        engine = getattr(prog, "engine", None) or self.engine
        self._compiled = self._compiled_for(prog) \
            if engine == "compiled" else None

    def _finish_tail_calls(self, req: TailCallRequest,
                           ctx_addr: int) -> int:
        """Service a tail-call chain, honouring the chain limit."""
        tail_calls = 0
        while True:
            tail_calls += 1
            if tail_calls > self.subsystem.limits.max_tail_calls:
                raise BpfRuntimeError(
                    "tail call chain exceeded "
                    f"{self.subsystem.limits.max_tail_calls}")
            self._activate(req.prog)
            try:
                return self._run_frame(0, [0] * 11, ctx_addr, depth=0)
            except TailCallRequest as next_req:
                req = next_req

    def take_redirect(self) -> Optional[int]:
        """Consume the redirect target stashed by the most recent
        ``bpf_redirect_map`` call (one-shot; ``None`` when the last
        invocation never asked for a redirect)."""
        target = self.pending_redirect
        if target is not None:
            self.pending_redirect = None
        return target

    @contextmanager
    def batch_runner(self, prog: object) -> Iterator[Callable[[int], int]]:
        """One RCU/preempt critical section around many invocations.

        The XDP data plane processes packets in NAPI-style bursts:
        the driver enters the execution environment once, then runs
        the attached program on every buffer of the batch, so the
        per-packet cost is one frame execution and nothing else.
        This context manager models exactly that — it takes the RCU
        read lock, disables preemption and resolves the program's
        engine state *once*, then yields a ``run_one(ctx_addr) ->
        verdict`` callable for the hot loop.  Tail calls are honoured
        per invocation (the chain limit applies per packet, as in
        :meth:`run`), per-run stats are recorded while
        ``telemetry.stats_enabled`` is on, and the critical section
        is released even when a fault unwinds the batch.
        """
        kernel = self.kernel
        cpu = kernel.current_cpu
        rcu = kernel.rcu
        rcu.read_lock(holder=f"bpf:{prog.name}")
        cpu.preempt_disable()
        self._activate(prog)
        telemetry = kernel.telemetry
        clock = kernel.clock

        def run_frame(ctx_addr: int) -> int:
            """One invocation inside the held critical section."""
            try:
                return self._run_frame(0, [0] * 11, ctx_addr, depth=0)
            except TailCallRequest as req:
                try:
                    return self._finish_tail_calls(req, ctx_addr)
                finally:
                    # the next packet starts at the root program
                    self._activate(prog)

        def run_one(ctx_addr: int) -> int:
            """One packet through the attached program (stats-aware)."""
            if not telemetry.stats_enabled:
                return run_frame(ctx_addr)
            start_ns = clock.now_ns
            start_insns = self.insns_executed
            start_helpers = self.helper_calls
            try:
                return run_frame(ctx_addr)
            finally:
                telemetry.record_run(
                    "ebpf", prog.name,
                    run_time_ns=clock.now_ns - start_ns,
                    insns=self.insns_executed - start_insns,
                    helper_calls=self.helper_calls - start_helpers)

        try:
            yield run_one
        finally:
            self._current_prog = None
            cpu.preempt_enable()
            rcu.read_unlock()

    def _compiled_for(self, prog: object) -> CompiledProgram:
        """The program's compiled frame function, compiling lazily if
        the loader's compile cache didn't attach one (e.g. hand-built
        test programs)."""
        compiled = getattr(prog, "compiled", None)
        if compiled is not None and \
                compiled.n_insns == len(self._insns):
            return compiled
        decoded = getattr(prog, "predecoded", None)
        if decoded is None or decoded.n_insns != len(self._insns):
            decoded = predecode(self._insns)
        compiled = compile_program(decoded)
        self.compiles += 1
        try:
            prog.compiled = compiled
        except (AttributeError, TypeError):
            pass  # frozen/slotted prog objects just recompile per run
        return compiled

    # -- frame execution ---------------------------------------------------------

    def _run_frame(self, start_idx: int, caller_regs: Sequence[int],
                   ctx_addr: Optional[int], depth: int) -> int:
        """Execute from ``start_idx`` to EXIT in a fresh frame.

        The compiled tier handles every statically-known frame entry
        (block leaders: program start, subprogram and callback
        targets); a dynamic entry it didn't see at compile time — an
        arbitrary callback index fabricated at run time — runs on the
        reference executor, which accepts any pc."""
        compiled = self._compiled
        if compiled is not None:
            block = compiled.entry_blocks.get(start_idx)
            if block is not None:
                return compiled.func(self, caller_regs, ctx_addr,
                                     depth, block)
        return self._run_frame_slow(start_idx, caller_regs, ctx_addr,
                                    depth)

    def _run_frame_slow(self, start_idx: int,
                        caller_regs: Sequence[int],
                        ctx_addr: Optional[int], depth: int) -> int:
        """Decode-per-step executor (reference/differential baseline)."""
        if depth > 8:
            raise BpfRuntimeError("call depth exceeded at run time")
        mem = self.kernel.mem
        stack = mem.kmalloc(512, type_name="bpf_stack",
                            owner=self.prog_tag)
        regs = [0] * 11
        if ctx_addr is not None:
            regs[1] = to_u64(ctx_addr)
        else:
            regs[1:6] = [to_u64(v) for v in caller_regs[1:6]]
        regs[10] = stack.base + 512
        insns = self._insns
        idx = start_idx
        try:
            while True:
                if not 0 <= idx < len(insns):
                    raise BpfRuntimeError(f"pc out of range: {idx}")
                insn = insns[idx]
                self.insns_executed += 1
                self.kernel.work(1)
                cls = insn.insn_class

                if insn.is_ld_imm64:
                    regs[insn.dst] = self._ld_imm64_value(insn, insns,
                                                          idx)
                    idx += 2
                    continue
                if cls in (isa.BPF_ALU, isa.BPF_ALU64):
                    self._alu(regs, insn, cls == isa.BPF_ALU64)
                    idx += 1
                    continue
                if cls == isa.BPF_LDX:
                    size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
                    addr = to_u64(regs[insn.src] + insn.off)
                    raw = mem.read(addr, size, source=self.prog_tag)
                    regs[insn.dst] = int.from_bytes(raw, "little")
                    idx += 1
                    continue
                if cls in (isa.BPF_STX, isa.BPF_ST):
                    size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
                    addr = to_u64(regs[insn.dst] + insn.off)
                    if cls == isa.BPF_STX and \
                            (insn.opcode & isa.MODE_MASK) == \
                            isa.BPF_ATOMIC:
                        self._atomic_rmw(regs, insn.imm, addr, size,
                                         insn.src, mem, self.prog_tag)
                        idx += 1
                        continue
                    value = regs[insn.src] if cls == isa.BPF_STX \
                        else to_u64(insn.imm)
                    mem.write(addr,
                              (value & ((1 << (size * 8)) - 1)).to_bytes(
                                  size, "little"),
                              source=self.prog_tag)
                    idx += 1
                    continue
                if cls in (isa.BPF_JMP, isa.BPF_JMP32):
                    op = insn.opcode & isa.JMP_OP_MASK
                    if op == isa.BPF_EXIT:
                        if depth == 0:
                            self.last_exit_regs = list(regs)
                        return regs[0]
                    if op == isa.BPF_JA:
                        idx = idx + insn.off + 1
                        continue
                    if op == isa.BPF_CALL:
                        if insn.src == isa.BPF_PSEUDO_CALL:
                            target = idx + insn.imm + 1
                            regs[0] = self._run_frame_slow(
                                target, regs, None, depth + 1)
                        else:
                            regs[0] = self._call_helper(insn.imm, regs)
                        idx += 1
                        continue
                    if self._jump_taken(op, insn, regs):
                        idx = idx + insn.off + 1
                    else:
                        idx += 1
                    continue
                raise BpfRuntimeError(
                    f"unsupported opcode {insn.opcode:#04x} at {idx}")
        finally:
            if not stack.freed:
                mem.kfree(stack)

    # -- instruction semantics -----------------------------------------------------

    def _atomic_rmw(self, regs: List[int], imm: int, addr: int,
                    size: int, src: int, mem: object,
                    tag: str) -> None:
        """One ``BPF_ATOMIC`` read-modify-write, selected by ``imm``.

        Implements the Linux sub-op encoding: ADD/OR/AND/XOR
        (optionally ``| BPF_FETCH`` to load the old value into the
        source register), XCHG, and CMPXCHG (R0 is the comparand and
        receives the old value).  Unknown sub-ops raise *before*
        touching memory.

        Under a deterministic SMP run the whole RMW is one
        indivisible step: there is a yield point *before* it, then the
        constituent load and store are tagged atomic for the race
        detector and cannot be interleaved — atomic-vs-atomic
        accesses are not races, which is exactly what makes
        lock-free per-counter increments pass the race hunt.
        """
        smp = self.kernel.smp
        if smp is not None:
            smp.yield_point("atomic", tag)
            with smp.atomic_scope():
                self._atomic_rmw_body(regs, imm, addr, size, src, mem,
                                      tag)
            return
        self._atomic_rmw_body(regs, imm, addr, size, src, mem, tag)

    def _atomic_rmw_body(self, regs: List[int], imm: int, addr: int,
                         size: int, src: int, mem: object,
                         tag: str) -> None:
        width_mask = (1 << (size * 8)) - 1
        if imm == isa.BPF_CMPXCHG:
            old = int.from_bytes(mem.read(addr, size, source=tag),
                                 "little")
            if old == (regs[0] & width_mask):
                mem.write(addr,
                          (regs[src] & width_mask).to_bytes(size,
                                                            "little"),
                          source=tag)
            regs[0] = old
            return
        if imm == isa.BPF_XCHG:
            old = int.from_bytes(mem.read(addr, size, source=tag),
                                 "little")
            mem.write(addr,
                      (regs[src] & width_mask).to_bytes(size, "little"),
                      source=tag)
            regs[src] = old
            return
        op = imm & ~isa.BPF_FETCH
        if op not in (isa.BPF_ADD, isa.BPF_OR, isa.BPF_AND,
                      isa.BPF_XOR):
            raise BpfRuntimeError(f"unsupported atomic op {imm:#x}")
        old = int.from_bytes(mem.read(addr, size, source=tag),
                             "little")
        if op == isa.BPF_ADD:
            new = (old + regs[src]) & width_mask
        elif op == isa.BPF_OR:
            new = (old | regs[src]) & width_mask
        elif op == isa.BPF_AND:
            new = (old & regs[src]) & width_mask
        else:
            new = (old ^ regs[src]) & width_mask
        mem.write(addr, new.to_bytes(size, "little"), source=tag)
        if imm & isa.BPF_FETCH:
            regs[src] = old

    def _ld_imm64_value(self, insn: Insn, insns: List[Insn],
                        idx: int) -> int:
        if idx + 1 >= len(insns):
            # same outcome as the predecoded K_BAD slot: a truncated
            # ld_imm64 (any form) is a runtime decode error, never a
            # raw IndexError
            raise BpfRuntimeError(f"incomplete ld_imm64 at {idx}")
        if insn.src == isa.BPF_PSEUDO_MAP_FD:
            return MAP_PTR_BASE + insn.imm
        if insn.src == isa.BPF_PSEUDO_FUNC:
            return FUNC_PTR_BASE + (idx + insn.imm + 1)
        hi = insns[idx + 1].imm & 0xFFFFFFFF
        return (hi << 32) | (insn.imm & 0xFFFFFFFF)

    def _alu(self, regs: List[int], insn: Insn, is64: bool) -> None:
        op = insn.opcode & isa.ALU_OP_MASK
        if insn.opcode & isa.BPF_X:
            src = regs[insn.src]
        else:
            src = to_u64(insn.imm)  # sign-extended to 64 bits
        dst = regs[insn.dst]
        if not is64:
            dst &= U32
            src &= U32
        width_mask = U64 if is64 else U32

        if op == isa.BPF_MOV:
            result = src
        elif op == isa.BPF_ADD:
            result = dst + src
        elif op == isa.BPF_SUB:
            result = dst - src
        elif op == isa.BPF_MUL:
            result = dst * src
        elif op == isa.BPF_DIV:
            result = dst // src if src else 0
        elif op == isa.BPF_MOD:
            result = dst % src if src else dst
        elif op == isa.BPF_OR:
            result = dst | src
        elif op == isa.BPF_AND:
            result = dst & src
        elif op == isa.BPF_XOR:
            result = dst ^ src
        elif op == isa.BPF_LSH:
            result = dst << (src & (63 if is64 else 31))
        elif op == isa.BPF_RSH:
            result = dst >> (src & (63 if is64 else 31))
        elif op == isa.BPF_ARSH:
            bits = 64 if is64 else 32
            shift = src & (bits - 1)
            signed = to_s64(dst) if is64 else \
                (dst - (1 << 32) if dst & (1 << 31) else dst)
            result = signed >> shift
        elif op == isa.BPF_NEG:
            result = -dst
        else:
            raise BpfRuntimeError(f"unsupported ALU op {op:#x}")
        regs[insn.dst] = result & width_mask

    def _jump_taken(self, op: int, insn: Insn, regs: List[int]) -> bool:
        dst = regs[insn.dst]
        src = regs[insn.src] if insn.opcode & isa.BPF_X \
            else to_u64(insn.imm)
        if insn.insn_class == isa.BPF_JMP32:
            dst &= U32
            src &= U32
            sdst = dst - (1 << 32) if dst & (1 << 31) else dst
            ssrc = src - (1 << 32) if src & (1 << 31) else src
        else:
            sdst, ssrc = to_s64(dst), to_s64(src)
        table = {
            isa.BPF_JEQ: dst == src,
            isa.BPF_JNE: dst != src,
            isa.BPF_JGT: dst > src,
            isa.BPF_JGE: dst >= src,
            isa.BPF_JLT: dst < src,
            isa.BPF_JLE: dst <= src,
            isa.BPF_JSET: bool(dst & src),
            isa.BPF_JSGT: sdst > ssrc,
            isa.BPF_JSGE: sdst >= ssrc,
            isa.BPF_JSLT: sdst < ssrc,
            isa.BPF_JSLE: sdst <= ssrc,
        }
        if op not in table:
            raise BpfRuntimeError(f"unsupported jump op {op:#x}")
        return table[op]

    # -- helper plumbing -------------------------------------------------------------

    def _call_helper(self, helper_id: int, regs: List[int]) -> int:
        spec = self.subsystem.registry.get(helper_id)
        if spec is None or spec.impl is None:
            raise BpfRuntimeError(f"call to unknown helper {helper_id}")
        self.helper_calls += 1
        telemetry = self.kernel.telemetry
        if telemetry.stats_enabled and self._current_prog is not None:
            telemetry.record_helper("ebpf", self._current_prog.name,
                                    spec.name)
        # a helper call is far more work than one bytecode insn
        self.kernel.work(20 + spec.callgraph_size // 50)
        smp = self.kernel.smp
        if smp is not None:
            smp.yield_point("helper", spec.name)
        faults = self.kernel.faults
        if faults.armed:
            fault = faults.check(f"helper.{spec.name}")
            if fault is not None:
                if fault.kind == "errno":
                    return to_u64(-fault.errno)
                if fault.kind == "panic":
                    self.kernel.log.record_oops(
                        self.kernel.clock.now_ns,
                        f"injected panic in helper {spec.name}",
                        category="fault-injection",
                        source=self.prog_tag)
                    raise KernelOops(
                        f"injected panic in helper {spec.name}",
                        source=self.prog_tag)
                # delay: virtual time already charged; proceed
        ctx = HelperCallContext(self.kernel, self, regs[1:6],
                                self._current_prog)
        return to_u64(spec.impl(ctx))

    def resolve_map_ptr(self, value: int):
        """Map register value -> BpfMap (None if not a map pointer)."""
        if value < MAP_PTR_BASE or value > MAP_PTR_BASE + (1 << 20):
            return None
        return self.subsystem.map_by_fd(value - MAP_PTR_BASE)

    def find_map_by_value_addr(self, addr: int):
        """The map whose storage contains ``addr``, if any."""
        alloc = self.kernel.mem.find_allocation(addr)
        if alloc is None:
            return None
        for bpf_map in self.subsystem.all_maps():
            storage = getattr(bpf_map, "storage", None)
            if storage is not None and storage is alloc:
                return bpf_map
            per_cpu = getattr(bpf_map, "per_cpu_storage", None)
            if per_cpu is not None and alloc in per_cpu:
                return bpf_map
            entries = getattr(bpf_map, "_entries", None)
            if entries is not None and alloc in entries.values():
                return bpf_map
        return None

    def resolve_func_ptr(self, value: int) -> Optional[int]:
        """Callback register value -> instruction index."""
        if value < FUNC_PTR_BASE:
            return None
        target = value - FUNC_PTR_BASE
        if target >= len(self._insns):
            return None
        return target

    def request_tail_call(self, prog: object) -> None:
        """Unwind the current program and restart in ``prog``."""
        raise TailCallRequest(prog)

    def next_prandom(self) -> int:
        """Deterministic xorshift PRNG for bpf_get_prandom_u32."""
        x = self._prandom_state
        x ^= (x << 13) & U32
        x ^= x >> 17
        x ^= (x << 5) & U32
        self._prandom_state = x & U32
        return self._prandom_state

    def find_request_sock_for(self, sock: object):
        """The pending request sock linked to a listener, if any."""
        return getattr(sock, "pending_reqsk", None)

    # -- bpf_loop with fast-forward ----------------------------------------------------

    def execute_loop(self, callback_idx: int, nr_loops: int,
                     cb_ctx: int) -> int:
        """Run ``nr_loops`` callback iterations; after a sampled
        prefix, charge the remaining iterations' virtual time in bulk
        (see module docstring)."""
        if nr_loops == 0:
            return 0
        clock = self.kernel.clock
        start_ns = clock.now_ns
        start_insns = self.insns_executed
        executed = 0
        for index in range(min(nr_loops, self.loop_sample_limit)):
            ret = self._run_frame(callback_idx, [0, index, cb_ctx,
                                                 0, 0, 0], None, depth=1)
            executed += 1
            # kernel bpf_loop stops on any nonzero callback return,
            # not just 1
            if ret != 0:
                return executed
        remaining = nr_loops - executed
        if remaining > 0:
            per_iter_ns = max(
                (clock.now_ns - start_ns) // max(executed, 1), 1)
            per_iter_insns = max(
                (self.insns_executed - start_insns) // max(executed, 1),
                1)
            clock.advance(remaining * per_iter_ns)
            self.insns_executed += remaining * per_iter_insns
        return nr_loops
