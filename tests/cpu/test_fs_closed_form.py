"""Full stall on the fast path is the closed form, within its exact bound.

:func:`repro.cpu.replay.replay` sends FS on plain memory to
:func:`replay_fs_sweep` (a grid of one).  The closed form is bitwise
equal to the per-fill loop only while every term is an integer below
2**53; outside that bound the loop runs instead.
"""

import numpy as np
import pytest

from repro.cache.cache import CacheConfig
from repro.cache.events import extract_events
from repro.core.stalling import StallPolicy
from repro.cpu.processor import TimingSimulator
from repro.cpu.replay import (
    _fs_closed_form_exact,
    _replay,
    replay,
    replay_fs_sweep,
)
from repro.memory.mainmem import MainMemory
from repro.trace.spec92 import spec92_trace

FS = StallPolicy.FULL_STALL
CONFIG = CacheConfig(8192, 32, 2)


@pytest.fixture(scope="module")
def trace():
    return spec92_trace("wave5", 2500, seed=7)


@pytest.fixture
def events(trace):
    return extract_events(trace, CONFIG)


def loop(events, beta):
    """The per-fill kernel, bypassing the closed form."""
    return _replay(events, MainMemory(beta, 4), FS)


class TestExactnessBound:
    def test_closed_form_matches_loop_at_2_pow_45(self, events):
        # (fills + dirty) * n_chunks * 2**45 is far past 2**53 here: the
        # unbounded closed form would give ...532029e+17 where the loop
        # gives ...532e+17.
        beta = 2.0**45
        (swept,) = replay_fs_sweep(events, (beta,), 4)
        assert swept == loop(events, beta)
        assert replay(events, MainMemory(beta, 4), FS) == loop(events, beta)

    def test_bound_is_the_cycle_total(self, events):
        scale = (events.stats.line_fills + int(events.dirty_victim.sum())) * 8
        n = events.n_instructions
        largest = (2**53 - 1 - n) // scale
        exact = _fs_closed_form_exact
        assert exact(np.array([float(largest)]), scale, n)
        assert not exact(np.array([float(largest + 1)]), scale, n)
        assert not exact(np.array([2.5]), scale, n)
        assert not exact(np.array([float("inf")]), scale, n)
        # At the edge the closed form still runs, and still equals the loop.
        (edge,) = replay_fs_sweep(events, (float(largest),), 4)
        assert edge == loop(events, float(largest))
        assert edge.cycles == scale * largest + n - events.stats.line_fills

    def test_integral_fs_skips_the_per_fill_structures(self, events):
        replay(events, MainMemory(8.0, 4), FS)
        assert events._derived is None


class TestSinglePointMatchesOracle:
    @pytest.mark.parametrize(
        "beta",
        [1.0, 8.0, 48.0, 2.5, 6.5, 2.0**53 + 2, 2.0**54],
        ids=["int-1", "int-8", "int-48", "frac-2.5", "frac-6.5",
             "past-2^53", "2^54"],
    )
    def test_replay_equals_timing_simulator(self, trace, events, beta):
        memory = MainMemory(beta, 4)
        oracle = TimingSimulator(CONFIG, memory, policy=FS).run(trace)
        assert replay(events, memory, FS) == oracle


def test_sweep_validates_every_beta(events):
    with pytest.raises(ValueError, match="memory_cycle must be >= 1"):
        replay_fs_sweep(events, (8.0, 0.0), 4)
