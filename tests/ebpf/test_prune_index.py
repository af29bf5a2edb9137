"""Model check of the explored-state prune index.

:class:`ExploredStates` files each stored state by which innermost-
frame registers hold constant scalars and by those constants, and a
coverage check only tries the states whose constants the incoming
state matches.  :class:`LinearScan` is the specification: one list per
instruction, capped like the real one, and a coverage check that asks
every stored state in turn.  Hypothesis draws random states — one or
two frames; registers that are uninitialised, constant, ranged or
tnum scalars, or pointers with offsets and maps; spilled, misc and
zero stack slots; acquired references, a spin lock and a packet
range — remembers them at a few instructions, past the per-insn cap,
and probes with fresh states and with near misses of stored ones.
Every probe must get the reference's answer, with the same prune-hit
count.
"""

from hypothesis import given, settings, strategies as st

from repro.ebpf.verifier.regstate import (
    FuncFrame,
    RegState,
    RegType,
    SlotKind,
    StackSlot,
    U64_MAX,
)
from repro.ebpf.verifier.states import (
    AcquiredRef,
    ExploredStates,
    VerifierState,
)
from repro.ebpf.verifier.tnum import Tnum

#: few distinct values, so stored and incoming states often collide
CONSTS = (0, 1, 5, 1 << 63, U64_MAX)
MAPS = (object(), object())
INSNS = (0, 1, 2)
CAP = 64


class LinearScan:
    """The specification: ask every stored state, in order."""

    def __init__(self, max_states_per_insn=CAP):
        self.max_states_per_insn = max_states_per_insn
        self.buckets = {}
        self.prune_hits = 0
        self.states_stored = 0

    def remember(self, insn_idx, state):
        bucket = self.buckets.setdefault(insn_idx, [])
        if len(bucket) < self.max_states_per_insn:
            bucket.append(state)
            self.states_stored += 1

    def is_covered(self, insn_idx, state):
        if any(seen.subsumes(state)
               for seen in self.buckets.get(insn_idx, ())):
            self.prune_hits += 1
            return True
        return False


def _ranged(bounds):
    low, high = bounds
    reg = RegState.unknown_scalar()
    reg.umin, reg.umax = low, max(low, high)
    reg.settle_bounds()
    return reg


def _tnum(bits):
    value, mask = bits
    reg = RegState.unknown_scalar()
    reg.var_off = Tnum(value & ~mask, mask)
    reg.settle_bounds()
    return reg


def _pointer(spec):
    reg_type, off, map_index, ref = spec
    reg = RegState.pointer(reg_type, off=off, map=MAPS[map_index])
    if reg_type is RegType.PTR_TO_MAP_VALUE_OR_NULL:
        reg.id = 1
    if reg_type is RegType.PTR_TO_SOCKET:
        reg.ref_obj_id = ref
    return reg


not_init = st.builds(RegState)
const_scalars = st.sampled_from(CONSTS).map(RegState.const_scalar)
ranged_scalars = st.tuples(st.sampled_from((0, 1, 4, 5)),
                           st.sampled_from((5, 6, 10, U64_MAX))) \
    .map(_ranged)
tnum_scalars = st.tuples(st.sampled_from((0, 1, 4)),
                         st.sampled_from((1, 2, 3, 0xFF, U64_MAX))) \
    .map(_tnum)
pointers = st.tuples(
    st.sampled_from((RegType.PTR_TO_STACK, RegType.PTR_TO_CTX,
                     RegType.PTR_TO_MAP_VALUE,
                     RegType.PTR_TO_MAP_VALUE_OR_NULL,
                     RegType.PTR_TO_PACKET, RegType.PTR_TO_SOCKET)),
    st.sampled_from((0, 8, -8)), st.sampled_from((0, 1)),
    st.sampled_from((0, 2))).map(_pointer)
regs = st.one_of(const_scalars, const_scalars, ranged_scalars,
                 tnum_scalars, pointers, not_init)

slots = st.one_of(
    st.builds(StackSlot, st.just(SlotKind.SPILL), regs),
    st.just(SlotKind.MISC).map(StackSlot),
    st.just(SlotKind.ZERO).map(StackSlot),
    st.just(SlotKind.INVALID).map(StackSlot))


@st.composite
def _frames(draw, frameno):
    frame = FuncFrame.fresh(frameno=frameno,
                            callsite=draw(st.sampled_from((-1, 3)))
                            if frameno else -1)
    # a few live registers (the rest uninitialised), drawn from a
    # narrow range so stored and incoming patterns overlap often
    for regno, reg in draw(st.dictionaries(st.integers(0, 6), regs,
                                           max_size=4)).items():
        frame.regs[regno] = reg
    frame.stack = draw(st.dictionaries(st.integers(0, 3), slots,
                                       max_size=3))
    frame.in_callback = frameno > 0 and draw(st.booleans())
    return frame


#: built once: constructing a strategy per draw is slow
frames = (_frames(0), _frames(1))


@st.composite
def _states(draw):
    state = VerifierState()
    state.frames = [draw(frames[frameno])
                    for frameno in range(draw(st.integers(1, 2)))]
    state.acquired_refs = [
        AcquiredRef(ref_id, kind, 0) for ref_id, kind in enumerate(
            draw(st.lists(st.sampled_from(("socket", "ringbuf_mem")),
                          max_size=2)), start=2)]
    state.active_spin_lock = draw(st.sampled_from((None, 3)))
    state.packet_range = draw(st.sampled_from((0, 8, 14)))
    return state


states = _states()


def _consts(state):
    return [regno for regno, reg in enumerate(state.cur.regs[:10])
            if reg.is_const]


def near_miss(draw, stored):
    """A copy of ``stored`` changed where the index looks: a constant
    moved to another register, a constant widened to a range holding
    it, an extra constant (a superset pattern), or nothing."""
    state = stored.copy()
    regs_now = state.cur.regs
    consts = _consts(state)
    kind = draw(st.sampled_from(("same", "move", "range", "superset")))
    if kind == "move" and consts:
        regno = draw(st.sampled_from(consts))
        other = draw(st.integers(0, 9).filter(lambda r: r != regno))
        regs_now[other] = regs_now[regno].copy()
        regs_now[regno] = draw(st.one_of(not_init, ranged_scalars))
    elif kind == "range" and consts:
        regno = draw(st.sampled_from(consts))
        value = regs_now[regno].const_value
        regs_now[regno] = _ranged((max(value - 1, 0),
                                   min(value + 1, U64_MAX)))
    elif kind == "superset":
        others = [r for r in range(10) if r not in consts]
        if others:
            regs_now[draw(st.sampled_from(others))] = \
                draw(const_scalars)
    return state


def check_against_reference(draw, ops):
    real, ref = ExploredStates(), LinearScan()
    stored = []
    for op in range(ops):
        insn_idx = draw(st.sampled_from(INSNS))
        if draw(st.integers(0, 2)) == 0 or not stored:
            state = draw(states)
            real.remember(insn_idx, state)
            ref.remember(insn_idx, state)
            stored.append(state)
            continue
        if draw(st.booleans()):
            probe = near_miss(draw, draw(st.sampled_from(stored)))
        else:
            probe = draw(states)
        assert real.is_covered(insn_idx, probe) == \
            ref.is_covered(insn_idx, probe), op
        assert real.prune_hits == ref.prune_hits
    assert real.states_stored == ref.states_stored
    assert real.largest_bucket() == max(
        map(len, ref.buckets.values()), default=0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_index_agrees_with_linear_scan(data):
    check_against_reference(data.draw, 30)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_index_agrees_past_the_cap(data):
    # one instruction: fill its bucket with copies of a small pool,
    # then offer states it must no longer remember, and probe near
    # both
    real, ref = ExploredStates(), LinearScan()
    pool = data.draw(st.lists(states, min_size=8, max_size=8))
    late = data.draw(st.lists(states, min_size=4, max_size=4))
    for index in range(CAP):
        state = pool[index % len(pool)].copy()
        real.remember(0, state)
        ref.remember(0, state)
    for state in late:
        real.remember(0, state)
        ref.remember(0, state)
    assert real.largest_bucket() == CAP == len(ref.buckets[0])
    assert real.states_stored == ref.states_stored == CAP
    for __ in range(24):
        probe = near_miss(data.draw,
                          data.draw(st.sampled_from(pool + late))) \
            if data.draw(st.booleans()) else data.draw(states)
        assert real.is_covered(0, probe) == ref.is_covered(0, probe)
        assert real.prune_hits == ref.prune_hits


def _stored_with(**consts):
    state = VerifierState()
    for regno, value in consts.items():
        state.cur.regs[int(regno[1:])] = RegState.const_scalar(value)
    return state


def _probe(stored, probe):
    real, ref = ExploredStates(), LinearScan()
    real.remember(7, stored)
    ref.remember(7, stored)
    covered = real.is_covered(7, probe)
    assert covered == ref.is_covered(7, probe)
    assert real.prune_hits == ref.prune_hits
    return covered


class TestNearMisses:
    def test_same_constant_in_another_register(self):
        probe = _stored_with(r4=5)
        probe.cur.regs[3] = RegState.unknown_scalar()
        assert not _probe(_stored_with(r3=5), probe)

    def test_range_holding_the_constant(self):
        assert not _probe(_stored_with(r3=5), _stored_with())
        probe = VerifierState()
        probe.cur.regs[3] = _ranged((4, 6))
        assert not _probe(_stored_with(r3=5), probe)

    def test_stored_range_covers_the_constant(self):
        stored = VerifierState()
        stored.cur.regs[3] = _ranged((4, 6))
        assert _probe(stored, _stored_with(r3=5))

    def test_superset_pattern(self):
        assert _probe(_stored_with(r3=5), _stored_with(r3=5, r4=1))
        assert not _probe(_stored_with(r3=5, r4=1), _stored_with(r3=5))

    def test_other_value(self):
        assert not _probe(_stored_with(r3=5), _stored_with(r3=6))

    def test_no_constants(self):
        assert _probe(VerifierState(), _stored_with(r0=1, r9=2))

    def test_disabled(self):
        explored = ExploredStates(enabled=False)
        explored.remember(0, VerifierState())
        assert not explored.is_covered(0, VerifierState())
        assert explored.prune_hits == explored.states_stored == 0
