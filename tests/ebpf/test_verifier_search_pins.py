"""Pin the verifier's search on the load-latency benchmark shapes.

Each row is one program shape the ``prog_load`` benchmark times —
bounded loops, straight-line runs up to the size cap, if/else diamond
chains and the canned XDP programs — plus three shapes it does not (a
subprogram call, a ``bpf_loop`` callback and a map-lookup null check),
with the exact ``(verdict, insns_processed, states_explored,
prune_hits)`` the verifier reports for it.  A digest pins the same
counts, or the rejection message, for the whole fuzz pool the
benchmark draws from.  A change that only makes the walk faster must
leave every row and the digest alone: these counts describe *what*
was searched, not how quickly.
"""

import hashlib
import random

import pytest

from repro.analysis.fuzz import random_program
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.helpers.registry import build_default_registry
from repro.ebpf.isa import R0, R1, R2, R3, R4, R6, R10
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.ebpf.verifier.analyzer import Verifier
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
    "subprog_call": ("accept", 51, 11, 1),
    "bpf_loop_callback": ("accept", 23, 9, 1),
    "map_null_check": ("accept", 23, 7, 1),
}

#: sha256 over one ``(index, verdict, insns_processed, states_explored,
#: prune_hits)`` or ``(index, "reject", message)`` line per program of
#: the ``prog_load`` benchmark's fuzz pool
FUZZ_POOL_DIGEST = (
    "f6f86157b5aed779bcb7281daa696d15901384a5308365d4c86c51868f0e17e5")


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


def _subprog_call():
    # the callee's branches rejoin with the taken side covered by the
    # fall side; it is called from two callsites, so its states are
    # explored once per caller frame
    return (Asm()
            .mov64_reg(R6, R1)
            .mov64_reg(R1, R6)
            .call_subprog("pick")
            .mov64_reg(R1, R0)
            .call_subprog("pick")
            .exit_()
            .label("pick")
            .mov64_imm(R0, 0)
            .jmp_imm("jeq", R1, 7, "seven")
            .mov64_imm(R2, 1)
            .ja("join")
            .label("seven")
            .mov64_imm(R2, 1)
            .label("join")
            .jmp_imm("jeq", R1, 9, "nine")
            .alu64_reg("add", R0, R2)
            .label("nine")
            .alu64_reg("add", R0, R2)
            .exit_()
            .program())


def _bpf_loop_callback():
    # the callback branches on the loop index, and the caller branches
    # on the helper's result
    return (Asm()
            .st_imm(8, R10, -8, 0)
            .mov64_imm(R1, 16)
            .ld_func(R2, "cb")
            .mov64_reg(R3, R10).alu64_imm("add", R3, -8)
            .mov64_imm(R4, 0)
            .call(ids.BPF_FUNC_loop)
            .jmp_imm("jgt", R0, 8, "many")
            .mov64_imm(R0, 0)
            .label("many")
            .mov64_imm(R0, 0)
            .exit_()
            .label("cb")
            .mov64_imm(R0, 0)
            .jmp_imm("jlt", R1, 4, "early")
            .ldx(8, R0, R2, 0)
            .mov64_imm(R0, 1)
            .label("early")
            .exit_()
            .program())


def _map_null_check(map_fd):
    # two lookups: one null check per result, a write through the
    # value pointer, and a branch on the stored value
    return (Asm()
            .st_imm(4, R10, -4, 0)
            .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
            .ld_map_fd(R1, map_fd)
            .call(ids.BPF_FUNC_map_lookup_elem)
            .jmp_imm("jeq", R0, 0, "miss")
            .ldx(8, R3, R0, 0)
            .alu64_imm("add", R3, 1)
            .stx(8, R0, 0, R3)
            .jmp_imm("jgt", R3, 10, "miss")
            .st_imm(4, R10, -4, 1)
            .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
            .ld_map_fd(R1, map_fd)
            .call(ids.BPF_FUNC_map_lookup_elem)
            .jmp_imm("jne", R0, 0, "hit")
            .mov64_imm(R0, 0)
            .exit_()
            .label("hit")
            .st_imm(8, R0, 0, 0)
            .label("miss")
            .mov64_imm(R0, 0)
            .exit_()
            .program())


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
    if name in canned:
        return bpf, canned[name](), ProgType.XDP
    shapes = {
        "subprog_call": _subprog_call,
        "bpf_loop_callback": _bpf_loop_callback,
        "map_null_check": lambda: _map_null_check(stats.map_fd),
    }
    return bpf, shapes[name](), ProgType.KPROBE


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


def fuzz_pool_lines():
    """One line per program of the benchmark's fuzz pool: its search
    counts when accepted, its rejection message otherwise."""
    registry = build_default_registry()
    lines = []
    for index in range(256):
        program = random_program(random.Random(f"perfbench-fuzz-{index}"))
        verifier = Verifier(program, ProgType.KPROBE, registry, {})
        try:
            stats = verifier.verify()
        except VerifierError as exc:
            lines.append(f"{index} reject {exc}")
            continue
        lines.append(f"{index} accept {stats.insns_processed} "
                     f"{stats.states_explored} {stats.prune_hits}")
    return lines


def test_fuzz_pool_search_is_pinned():
    digest = hashlib.sha256(
        "\n".join(fuzz_pool_lines()).encode()).hexdigest()
    assert digest == FUZZ_POOL_DIGEST
