"""The Engine enum and the single engine resolver."""

import pytest

from repro.ebpf.bugs import BugConfig
from repro.ebpf.engine import ENGINE_NAMES, Engine, resolve_engine
from repro.ebpf.interpreter import ENGINES
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import BpfRuntimeError
from repro.kernel import Kernel
from repro.net.programs import pass_all_prog


class TestResolver:
    def test_enum_members_match_names(self):
        assert ENGINE_NAMES == ("interp", "compiled")
        assert ENGINES == ENGINE_NAMES  # legacy alias preserved
        assert [str(e) for e in Engine] == list(ENGINE_NAMES)

    def test_resolves_strings_enums_and_none(self):
        assert resolve_engine("interp") == "interp"
        assert resolve_engine(Engine.COMPILED) == "compiled"
        assert resolve_engine(None) is None
        assert resolve_engine(None, default=Engine.INTERP) == "interp"

    def test_unknown_engine_is_loud(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("turbo")
        # the retired predecoded tier is no longer a selectable name
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("fast")


class TestWiring:
    def test_subsystem_accepts_enum(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched(),
                           engine=Engine.INTERP)
        assert bpf.vm.engine == "interp"

    def test_set_engine_rejects_unknown_as_runtime_error(
            self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        prog = bpf.load_program(pass_all_prog(), ProgType.XDP, "p")
        with pytest.raises(BpfRuntimeError, match="unknown engine"):
            bpf.set_engine(prog, "warp")

    def test_set_engine_accepts_enum(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched(),
                           engine=Engine.INTERP)
        prog = bpf.load_program(pass_all_prog(), ProgType.XDP, "p")
        bpf.set_engine(prog, Engine.COMPILED)
        assert prog.engine == "compiled"
        assert prog.compiled is not None
