"""Unit tests for the compiled execution tier.

The differential suites prove the compiled tier *behaves* like the
other engines; these tests pin the machinery itself — block splitting,
frame entry points, the load-time compile cache, per-program engine
pinning, the lazy compile fallback for hand-built programs, and the
process-wide code-object memo.
"""

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.compile import (
    CODE_MEMO_ENTRIES, code_for, compile_program, render_source)
from repro.ebpf.helpers import ids
from repro.ebpf.interpreter import BpfVm
from repro.ebpf.isa import R0, R1, R2, R3, R4
from repro.ebpf.loader import BpfSubsystem, LoadedProgram
from repro.ebpf.predecode import predecode
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier.analyzer import VerifierStats
from repro.errors import BpfRuntimeError
from repro.kernel import Kernel


def _branchy_program():
    return (Asm()
            .mov64_imm(R0, 0)
            .mov64_imm(R2, 4)
            .label("loop")
            .alu64_reg("add", R0, R2)
            .alu64_imm("sub", R2, 1)
            .jmp_imm("jne", R2, 0, "loop")
            .exit_()
            .program())


class TestBlockStructure:
    def test_leaders_are_entry_points(self):
        compiled = compile_program(predecode(_branchy_program()))
        # program start, the loop head, the conditional fallthrough
        assert set(compiled.entry_blocks) == {0, 2, 5}
        assert compiled.entry_blocks[0] == 0
        assert compiled.n_blocks == 3
        assert compiled.n_insns == 6

    def test_subprog_and_callback_targets_are_leaders(self):
        insns = (Asm()
                 .mov64_imm(R1, 3)
                 .ld_func(R2, "body")
                 .mov64_imm(R3, 0)
                 .mov64_imm(R4, 0)
                 .call(ids.BPF_FUNC_loop)
                 .call_subprog("sub")
                 .exit_()
                 .label("sub")
                 .mov64_reg(R0, R1)
                 .exit_()
                 .label("body")
                 .mov64_imm(R0, 0)
                 .exit_()
                 .program())
        compiled = compile_program(predecode(insns))
        # the bpf_loop callback and the subprogram must be enterable
        # as frames, not just jump targets (ld_func occupies 2 slots)
        assert 8 in compiled.entry_blocks   # "sub"
        assert 10 in compiled.entry_blocks  # "body"

    def test_source_is_inspectable(self):
        source, entry_blocks = render_source(
            predecode(_branchy_program()))
        assert "def _frame(" in source
        assert "pending" in source
        assert entry_blocks == {0: 0, 2: 1, 5: 2}

    def test_empty_program_compiles_to_pc_error(self):
        compiled = compile_program(predecode([]))
        assert compiled.entry_blocks == {0: 0}
        assert "pc out of range: 0" in compiled.source


class TestLoaderIntegration:
    def test_compiled_attached_at_load(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="compiled")
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "c1")
        assert prog.compiled is not None
        assert bpf.compile_cache_misses == 1
        assert bpf.compile_cache_hits == 0
        assert bpf.run_on_current_task(prog) == 10
        # the loader compiled eagerly; the VM never had to
        assert bpf.vm.compiles == 0

    def test_reload_hits_compile_cache(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="compiled")
        first = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                 "c1")
        second = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                  "c2")
        assert bpf.compile_cache_misses == 1
        assert bpf.compile_cache_hits == 1
        assert second.compiled is first.compiled

    def test_backfill_when_cached_under_other_engine(self):
        # first load under the interp engine caches verify/jit/
        # predecode artifacts with no compiled function; a
        # compiled-tier reload of the same bytes compiles once and
        # backfills the entry
        kernel = Kernel()
        interp = BpfSubsystem(kernel, engine="interp")
        interp.load_program(_branchy_program(), ProgType.KPROBE, "c1")
        compiled = BpfSubsystem(kernel, engine="compiled")
        compiled.load_cache = interp.load_cache
        prog = compiled.load_program(_branchy_program(),
                                     ProgType.KPROBE, "c2")
        assert prog.compiled is not None
        assert compiled.compile_cache_misses == 1
        reload = compiled.load_program(_branchy_program(),
                                       ProgType.KPROBE, "c3")
        assert compiled.compile_cache_hits == 1
        assert reload.compiled is prog.compiled

    def test_compile_ns_recorded_in_telemetry(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="compiled")
        bpf.load_program(_branchy_program(), ProgType.KPROBE, "c1")
        row = kernel.telemetry.prog("ebpf", "c1")
        assert row.compile_ns > 0
        assert "compile_ns" in row.as_dict()

    def test_other_engines_skip_compilation(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="interp")
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "c1")
        assert prog.compiled is None
        assert bpf.compile_cache_misses == 0


class TestEnginePinning:
    def test_set_engine_pins_one_program(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel, engine="interp")
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "pin")
        bpf.set_engine(prog, "compiled")
        assert prog.engine == "compiled"
        assert prog.compiled is not None   # compiled eagerly
        assert bpf.run_on_current_task(prog) == 10
        bpf.set_engine(prog, None)
        assert prog.engine is None
        assert bpf.run_on_current_task(prog) == 10

    def test_set_engine_rejects_unknown_tier(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "pin")
        with pytest.raises(BpfRuntimeError):
            bpf.set_engine(prog, "turbo")

    def test_vm_rejects_unknown_engine(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            BpfSubsystem(kernel, engine="turbo")

    def test_prog_by_id_round_trip(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        prog = bpf.load_program(_branchy_program(), ProgType.KPROBE,
                                "pin")
        assert bpf.prog_by_id(prog.prog_id) is prog
        assert bpf.prog_by_id(999) is None
        assert prog in bpf.all_progs()


class TestLazyCompile:
    def test_hand_built_program_compiles_once(self):
        # no loader in the loop: the VM compiles lazily on first run
        # and reuses the attached artifact afterwards
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        vm = BpfVm(kernel, bpf, engine="compiled")
        prog = LoadedProgram(1, "hand", ProgType.KPROBE,
                             _branchy_program(), VerifierStats())
        ctx = kernel.mem.kmalloc(64, type_name="pt_regs",
                                 owner="test")
        assert vm.run(prog, ctx.base) == 10
        assert vm.compiles == 1
        assert vm.run(prog, ctx.base) == 10
        assert vm.compiles == 1  # cached on the program object


def _div_then_branch_program():
    # a conditional branch right after a BPF_DIV: the shape the
    # modeled JIT bug (CVE-2021-29154) miscompiles
    return (Asm()
            .mov64_imm(R0, 8)
            .alu64_imm("div", R0, 2)
            .jmp_imm("jeq", R0, 4, "four")
            .mov64_imm(R0, 0)
            .label("four")
            .exit_()
            .program())


class TestCodeMemo:
    """Host bytecode is shared across subsystems; verification, the
    per-kernel load cache and each load's frame function are not."""

    def test_identical_bytes_compile_once_and_verify_twice(self):
        code_for.cache_clear()
        progs = []
        for name in ("node-a", "node-b"):
            bpf = BpfSubsystem(Kernel(), engine="compiled")
            progs.append(bpf.load_program(_branchy_program(),
                                          ProgType.KPROBE, name))
            assert bpf.compile_cache_misses == 1
            assert bpf.compile_cache_hits == 0
        assert code_for.cache_info().misses == 1
        assert code_for.cache_info().hits == 1
        first, second = progs
        for prog in progs:
            assert not prog.verifier_stats.from_cache
            assert prog.verifier_stats.insns_processed > 0
        assert first.compiled is not second.compiled
        assert first.compiled.func is not second.compiled.func
        assert first.compiled.func.__code__ is \
            second.compiled.func.__code__

    def test_buggy_jit_rewrite_gets_its_own_code(self):
        code_for.cache_clear()
        buggy = BpfSubsystem(Kernel(), engine="compiled")
        patched = BpfSubsystem(Kernel(), engine="compiled",
                               bugs=BugConfig.all_patched())
        bad = buggy.load_program(_div_then_branch_program(),
                                 ProgType.KPROBE, "bad")
        good = patched.load_program(_div_then_branch_program(),
                                    ProgType.KPROBE, "good")
        assert bad.jit.miscompiled and not good.jit.miscompiled
        assert code_for.cache_info().misses == 2
        assert bad.compiled.func.__code__ is not \
            good.compiled.func.__code__
        assert bad.compiled.source != good.compiled.source

    def test_memo_stays_at_its_bound(self):
        code_for.cache_clear()
        for value in range(CODE_MEMO_ENTRIES + 8):
            compile_program(predecode(
                Asm().mov64_imm(R0, value).exit_().program()))
        info = code_for.cache_info()
        assert info.maxsize == CODE_MEMO_ENTRIES
        assert info.currsize == CODE_MEMO_ENTRIES
        assert info.misses == CODE_MEMO_ENTRIES + 8
