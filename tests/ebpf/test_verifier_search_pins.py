"""Pin the verifier's search on the load-latency benchmark shapes.

Each row is one program shape the ``prog_load`` benchmark times —
bounded loops, straight-line runs up to the size cap, if/else diamond
chains and the canned XDP programs — with the exact
``(verdict, insns_processed, states_explored, prune_hits)`` the
verifier reports for it.  A change that only makes the walk faster
must leave every row alone: these counts describe *what* was searched,
not how quickly.
"""

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.isa import R0, R1, R2
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import VerifierError
from repro.kernel import Kernel
from repro.net import programs

#: name -> (verdict, insns_processed, states_explored, prune_hits)
PINS = {
    "loop2000": ("accept", 2003, 65, 0),
    "loop4000": ("accept", 4003, 65, 0),
    "loop8000": ("accept", 8003, 65, 0),
    "loop16000": ("accept", 16003, 65, 0),
    "loop32000": ("accept", 32003, 65, 0),
    "flat256": ("accept", 256, 1, 0),
    "flat384": ("accept", 384, 1, 0),
    "flat512": ("accept", 512, 1, 0),
    "flat768": ("accept", 768, 1, 0),
    "flat1024": ("accept", 1024, 1, 0),
    "flat1536": ("accept", 1536, 1, 0),
    "flat2048": ("accept", 2048, 1, 0),
    "flat3072": ("accept", 3072, 1, 0),
    "flat4096": ("accept", 4096, 1, 0),
    "diamond4": ("accept", 52, 35, 6),
    "diamond8": ("accept", 164, 117, 28),
    "diamond12": ("accept", 340, 247, 66),
    "diamond16": ("accept", 580, 425, 120),
    "diamond24": ("accept", 1252, 925, 276),
    "diamond32": ("accept", 2180, 1617, 496),
    "diamond40": ("accept", 3364, 2501, 780),
    "diamond64": ("accept", 8452, 6304, 2016),
    "xdp_pass_all": ("accept", 2, 1, 0),
    "xdp_port_filter": ("accept", 13, 5, 0),
    "xdp_firewall": ("accept", 32, 11, 0),
    "xdp_redirect": ("accept", 16, 7, 0),
    "xdp_rewriter": ("accept", 12, 3, 0),
}


def _loop(walk):
    return (Asm()
            .mov64_imm(R2, 12345)
            .ld_imm64(R0, walk // 2)
            .label("top")
            .alu64_imm("sub", R0, 1)
            .jmp_imm("jne", R0, 0, "top")
            .exit_()
            .program())


def _flat(size):
    asm = Asm().mov64_imm(R0, 0)
    for index in range(size - 3):
        asm.alu64_imm("add", R0, index % 256)
    return asm.alu64_imm("and", R0, 0).exit_().program()


def _diamonds(branches):
    asm = Asm().mov64_imm(R2, 12345).mov64_imm(R0, 0)
    for index in range(branches):
        asm.jmp_imm("jeq", R1, index + 1, f"odd{index}")
        asm.alu64_imm("add", R0, 1)
        asm.ja(f"join{index}")
        asm.label(f"odd{index}")
        asm.alu64_imm("add", R0, 2)
        asm.label(f"join{index}")
    return asm.alu64_imm("and", R0, 0).exit_().program()


def build(name):
    """``(bpf, insns, prog_type)`` for one pinned shape, on a fresh
    subsystem (so the load is cold) holding the maps the canned XDP
    programs reference."""
    bpf = BpfSubsystem(Kernel())
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    devmap = bpf.create_map("devmap", max_entries=4)
    for prefix, maker in (("loop", _loop), ("flat", _flat),
                          ("diamond", _diamonds)):
        if name.startswith(prefix):
            return bpf, maker(int(name[len(prefix):])), ProgType.KPROBE
    canned = {
        "xdp_pass_all": lambda: programs.pass_all_prog(),
        "xdp_port_filter": lambda: programs.port_filter_prog(8080),
        "xdp_firewall": lambda: programs.firewall_prog(stats.map_fd,
                                                       8080),
        "xdp_redirect": lambda: programs.redirect_by_source_prog(
            devmap.map_fd, 3),
        "xdp_rewriter": lambda: programs.rewriter_prog(),
    }
    return bpf, canned[name](), ProgType.XDP


def search(name):
    """The verifier's ``(verdict, insns_processed, states_explored,
    prune_hits)`` for one shape."""
    bpf, insns, prog_type = build(name)
    try:
        stats = bpf.load_program(insns, prog_type, name).verifier_stats
    except VerifierError:
        return ("reject", 0, 0, 0)
    assert not stats.from_cache
    return ("accept", stats.insns_processed, stats.states_explored,
            stats.prune_hits)


@pytest.mark.parametrize("name", sorted(PINS))
def test_search_is_pinned(name):
    assert search(name) == PINS[name]
