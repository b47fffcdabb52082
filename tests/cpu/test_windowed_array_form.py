"""The windowed policies' array form equals the per-miss loop bitwise.

:func:`repro.cpu.replay._replay` runs BL/BNL1-3/NB array-at-a-time
(:func:`_replay_windowed`) while :func:`_windowed_exact` holds — integral
``beta_m`` and every value below 2**53 — and the per-miss loop
(:func:`_replay_loop`) otherwise.  Inside the bound both must equal the
step simulator field by field.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.events import extract_events
from repro.core.stalling import StallPolicy
from repro.cpu.processor import TimingSimulator
from repro.cpu.replay import (
    _replay_loop,
    _replay_windowed,
    _windowed_exact,
    replay,
)
from repro.memory.mainmem import MainMemory
from repro.trace.record import ALU_OP, Instruction, OpKind
from repro.trace.spec92 import spec92_trace

# The module, not the ``repro.cpu.replay`` function the package exports.
replay_module = importlib.import_module("repro.cpu.replay")

WINDOWED = [
    StallPolicy.BUS_LOCKED,
    StallPolicy.BUS_NOT_LOCKED_1,
    StallPolicy.BUS_NOT_LOCKED_2,
    StallPolicy.BUS_NOT_LOCKED_3,
    StallPolicy.NON_BLOCKING,
]


def scale_of(events, bus_width):
    """``(fills + dirty + 2) * (L/D)``, the guard's coefficient."""
    dirty = int(events.dirty_victim.sum())
    return (events.n_fills + dirty + 2) * (events.line_size // bus_width)


@st.composite
def traces(draw):
    """Short streams with re-touches of the last block and conflicts
    over 1 KiB, so windows hold in-flight accesses and dirty victims."""
    n = draw(st.integers(min_value=1, max_value=150))
    out = []
    address = 0
    for _ in range(n):
        roll = draw(st.integers(min_value=0, max_value=9))
        if roll < 3:
            out.append(ALU_OP)
            continue
        if roll < 6:  # another word of the last reference's 64-byte block
            address = (address & ~63) | draw(st.integers(0, 15)) * 4
        else:
            address = draw(st.integers(min_value=0, max_value=0xFF)) * 4
        kind = OpKind.STORE if draw(st.integers(0, 3)) == 0 else OpKind.LOAD
        out.append(Instruction(kind, address, 4))
    return out


@settings(max_examples=200, deadline=None)
@given(
    trace=traces(),
    line_size=st.sampled_from([8, 16, 32, 64]),
    associativity=st.sampled_from([1, 2]),
    sets=st.sampled_from([1, 2, 4]),
    bus_width=st.sampled_from([4, 8]),
    beta=st.integers(min_value=1, max_value=64),
    policy=st.sampled_from(WINDOWED),
)
def test_array_form_loop_and_oracle_agree(
    trace, line_size, associativity, sets, bus_width, beta, policy
):
    if line_size % bus_width:
        bus_width = line_size
    config = CacheConfig(line_size * associativity * sets, line_size, associativity)
    events = extract_events(trace, config)
    memory = MainMemory(float(beta), bus_width)
    assert _windowed_exact(memory.memory_cycle, scale_of(events, bus_width),
                           events.n_instructions)
    windowed = _replay_windowed(events, memory, policy)
    assert windowed == _replay_loop(events, memory, policy)
    oracle = TimingSimulator(config, MainMemory(float(beta), bus_width),
                             policy=policy).run(trace)
    assert windowed == oracle
    # The guard's lemma: no windowed policy stalls more than full stall.
    fill = (line_size // bus_width) * beta
    dirty = int(events.dirty_victim.sum())
    full_stall = events.n_instructions - events.n_fills + (
        events.n_fills + dirty) * fill
    assert windowed.cycles <= full_stall


class TestDegenerateStreams:
    @pytest.mark.parametrize("policy", WINDOWED, ids=lambda p: p.value)
    def test_zero_misses(self, policy):
        trace = [ALU_OP] * 17
        config = CacheConfig(256, 16, 1)
        events = extract_events(trace, config)
        memory = MainMemory(8.0, 4)
        windowed = _replay_windowed(events, memory, policy)
        assert windowed == _replay_loop(events, memory, policy)
        assert windowed.cycles == 17.0
        assert windowed.read_miss_stall_cycles == 0.0

    @pytest.mark.parametrize("policy", WINDOWED, ids=lambda p: p.value)
    @pytest.mark.parametrize("beta", [1.0, 3.0, 16.0])
    def test_one_miss_with_retouches(self, policy, beta):
        # One fill of a 32-byte line, then re-touches of each word (and
        # an access to another word of the same line) while it streams in.
        trace = [Instruction(OpKind.LOAD, 8, 4), ALU_OP]
        trace += [Instruction(OpKind.LOAD, 4 * k, 4) for k in (7, 0, 3, 5)]
        trace += [ALU_OP] * 3
        config = CacheConfig(256, 32, 1)
        events = extract_events(trace, config)
        assert events.n_fills == 1
        memory = MainMemory(beta, 4)
        windowed = _replay_windowed(events, memory, policy)
        assert windowed == _replay_loop(events, memory, policy)
        oracle = TimingSimulator(config, MainMemory(beta, 4),
                                 policy=policy).run(trace)
        assert windowed == oracle

    @pytest.mark.parametrize("policy", WINDOWED, ids=lambda p: p.value)
    def test_one_miss_as_the_last_instruction(self, policy):
        trace = [ALU_OP, ALU_OP, Instruction(OpKind.STORE, 64, 4)]
        config = CacheConfig(256, 16, 1)
        events = extract_events(trace, config)
        memory = MainMemory(5.0, 8)
        windowed = _replay_windowed(events, memory, policy)
        assert windowed == _replay_loop(events, memory, policy)
        oracle = TimingSimulator(config, MainMemory(5.0, 8),
                                 policy=policy).run(trace)
        assert windowed == oracle


@pytest.fixture(scope="module")
def wave5():
    return spec92_trace("wave5", 2500, seed=0)


class TestGuardEdges:
    CONFIG = CacheConfig(8192, 32, 2)

    @pytest.fixture
    def events(self, wave5):
        return extract_events(wave5, self.CONFIG)

    @pytest.fixture
    def kernels(self, monkeypatch):
        """Count the calls of each kernel under :func:`replay`."""
        calls = {"windowed": 0, "loop": 0}

        def counted(name, kernel):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(replay_module, "_replay_windowed",
                            counted("windowed", _replay_windowed))
        monkeypatch.setattr(replay_module, "_replay_loop",
                            counted("loop", _replay_loop))
        return calls

    @pytest.mark.parametrize("policy", WINDOWED, ids=lambda p: p.value)
    def test_edges_of_the_bound(self, events, kernels, policy):
        scale = scale_of(events, 4)
        n = events.n_instructions
        largest = (2**53 - 1 - n) // scale
        assert _windowed_exact(float(largest), scale, n)
        assert not _windowed_exact(float(largest + 1), scale, n)

        inside = MainMemory(float(largest), 4)
        assert replay(events, inside, policy) == _replay_loop(
            events, inside, policy
        )
        assert kernels == {"windowed": 1, "loop": 0}

        outside = MainMemory(float(largest + 1), 4)
        assert replay(events, outside, policy) == _replay_loop(
            events, outside, policy
        )
        assert kernels == {"windowed": 1, "loop": 1}

    def test_fractional_and_non_finite_beta_fail_the_guard(self, events):
        scale = scale_of(events, 4)
        assert not _windowed_exact(2.5, scale, events.n_instructions)
        assert not _windowed_exact(float("inf"), scale, events.n_instructions)
        assert not _windowed_exact(float("nan"), scale, events.n_instructions)

    def test_integral_beta_never_runs_the_loop(self, events, kernels):
        for policy in WINDOWED:
            for beta in (1.0, 2.0, 6.0, 8.0, 13.0, 48.0, 2.0**20):
                replay(events, MainMemory(beta, 4), policy)
        assert kernels == {"windowed": 35, "loop": 0}
        # The plain-list copies exist for the loop only.
        assert events.derived._lists is None
        replay(events, MainMemory(6.5, 4), StallPolicy.BUS_LOCKED)
        assert kernels["loop"] == 1
        assert events.derived._lists is not None

    def test_full_stall_never_takes_the_array_form(self, events, kernels):
        # FS has its own closed form; past that form's bound it runs the
        # loop, never the windowed array form.
        replay(events, MainMemory(2.0**45, 4), StallPolicy.FULL_STALL)
        assert kernels == {"windowed": 0, "loop": 1}
