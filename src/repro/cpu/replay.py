"""Phase 2 of the two-phase simulation engine: timing replay.

Given an :class:`~repro.cache.events.EventStream` (the functional pass
of :func:`repro.cache.events.extract_events`), the replay engines
compute the **exact** cycle accounting that
:class:`~repro.cpu.processor.TimingSimulator` (or
:class:`~repro.cpu.nonblocking.MSHRSimulator`) would produce — by
iterating over the trace's timing-relevant accesses (typically 5-10 %
of references, under 1 % of instructions) instead of stepping every
instruction.

Why this is exact, not approximate: between timing-relevant events every
instruction retires in exactly one cycle, so time between events is pure
index arithmetic; at the events themselves (misses, copy-backs, timed
writes, and the Table 2 stalls of accesses that engage an in-flight
fill), the replay performs the *same floating-point operations in the
same order* as the step simulator.  The equivalence suite
(``tests/cpu/test_replay_equivalence.py``) pins ``TimingResult``
equality field by field across traces, geometries and ``beta_m``.

Three kernels cover the registry:

* :func:`_replay` — the fast per-fill kernel for the common case
  (write-back + write-allocate, no write buffer, plain
  :class:`~repro.memory.MainMemory`), policies FS/BL/BNL1-3/NB;
* :func:`_replay_general` — an event-walk kernel for everything the
  single-fill-port :class:`~repro.cpu.processor.TimingSimulator` can
  express: read-bypassing write buffers (a real
  :class:`~repro.memory.write_buffer.WriteBuffer` instance runs inside
  the kernel), :class:`~repro.memory.PipelinedMemory` (Eq. 9),
  :class:`~repro.memory.dram.PageModeDram`, and
  write-through/write-around traffic;
* :func:`replay_mshr` — the k-MSHR non-blocking kernel mirroring
  :class:`~repro.cpu.nonblocking.MSHRSimulator` (including the
  load-use-distance knob).

Full stall on the fast path takes a fourth, :func:`replay_fs_sweep`:
with FS the per-miss recurrence telescopes into a closed form, computed
array-at-a-time over a whole ``beta_m`` grid (a single point is a grid
of one).  While ``beta_m`` is integral and the cycle total stays below
2**53 every term is an exact integer, so the closed form reproduces
:func:`_replay` bitwise; outside that bound it runs :func:`_replay`
per point.

The only configuration still outside replay is multi-issue
(``issue_rate > 1``), which goes through the step simulator via
:func:`simulate` — one call site for both engines.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.cache import CacheConfig
from repro.cache.events import EventStream, extract_events
from repro.cache.write_policy import AllocatePolicy, WritePolicy
from repro.core.stalling import StallPolicy
from repro.cpu.processor import TimingResult, TimingSimulator
from repro.memory.dram import PageModeDram
from repro.memory.mainmem import FillSchedule, MainMemory
from repro.memory.pipelined import PipelinedMemory
from repro.memory.write_buffer import WriteBuffer
from repro.obs import metrics, tracing
from repro.trace.record import Instruction

#: Policies the replay engine reproduces exactly.
REPLAY_POLICIES = frozenset(
    {
        StallPolicy.FULL_STALL,
        StallPolicy.BUS_LOCKED,
        StallPolicy.BUS_NOT_LOCKED_1,
        StallPolicy.BUS_NOT_LOCKED_2,
        StallPolicy.BUS_NOT_LOCKED_3,
        StallPolicy.NON_BLOCKING,
    }
)

#: Memory models the replay engine reproduces exactly.  Exact types, not
#: isinstance: a subclass overriding the timing hooks must be vetted
#: (and listed) before replay may claim bitwise equality for it.
REPLAY_MEMORY_TYPES = (MainMemory, PipelinedMemory, PageModeDram)


def unsupported_reason(
    config: CacheConfig,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None = None,
    issue_rate: float = 1.0,
) -> str | None:
    """Why :func:`replay` cannot cover this configuration (None = it can).

    The returned token labels ``engine.step_fallback.dispatches`` so
    any future coverage gap is visible in metrics snapshots.
    """
    del write_buffer_depth  # every depth (and None) is covered
    if policy not in REPLAY_POLICIES:
        return "policy"
    if issue_rate != 1.0:
        return "multi-issue"
    if type(memory) not in REPLAY_MEMORY_TYPES:
        return "memory-model"
    if config.line_size % memory.bus_width:
        return "geometry"
    return None


def supports_replay(
    config: CacheConfig,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None = None,
    issue_rate: float = 1.0,
) -> bool:
    """Whether :func:`replay` reproduces this configuration exactly."""
    return (
        unsupported_reason(config, memory, policy, write_buffer_depth, issue_rate)
        is None
    )


def _is_fast_path(
    config: CacheConfig, memory: MainMemory, write_buffer_depth: int | None
) -> bool:
    """Whether the per-fill kernel applies (vs the general event walk)."""
    return (
        type(memory) is MainMemory
        and not write_buffer_depth
        and config.write_policy is WritePolicy.WRITE_BACK
        and config.allocate_policy is AllocatePolicy.WRITE_ALLOCATE
    )


def replay(
    events: EventStream,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None = None,
) -> TimingResult:
    """Exact cycle accounting for one ``(policy, memory)`` point.

    Walks the sparse event structures; never touches the instruction
    stream.  Use :func:`supports_replay` first — unsupported
    configurations raise ``ValueError``.
    """
    reason = unsupported_reason(events.config, memory, policy, write_buffer_depth)
    if reason is not None:
        raise ValueError(
            f"replay does not cover (policy={policy.value}, "
            f"memory={type(memory).__name__}, config={events.config}): "
            f"{reason}; use the TimingSimulator oracle"
        )
    if _is_fast_path(events.config, memory, write_buffer_depth):
        if policy is StallPolicy.FULL_STALL:
            kernel = _replay_fs
            args = (events, memory)
        else:
            kernel = _replay
            args = (events, memory, policy)
    else:
        kernel = _replay_general
        args = (events, memory, policy, write_buffer_depth)
    if not tracing.spans_active():
        return kernel(*args)
    with tracing.span(
        "phase2.replay",
        policy=policy.value,
        beta=memory.memory_cycle,
        fills=events.n_fills,
        kernel=kernel.__name__.lstrip("_"),
    ):
        return kernel(*args)


def _replay_fs(events: EventStream, memory: MainMemory) -> TimingResult:
    """One full-stall point: :func:`replay_fs_sweep` over a grid of one."""
    return replay_fs_sweep(events, (memory.memory_cycle,), memory.bus_width)[0]


def _replay(
    events: EventStream, memory: MainMemory, policy: StallPolicy
) -> TimingResult:
    """The per-fill replay kernel (pre-validated inputs)."""
    beta = memory.memory_cycle
    bus_width = memory.bus_width
    n_chunks = events.line_size // bus_width
    # Mirrors MainMemory.line_fill_duration / copy_back_duration.
    fill_duration = n_chunks * beta

    d = events.derived
    miss_index = d.miss_index
    miss_offset = d.miss_offset
    miss_dirty = d.miss_dirty
    first_after = d.first_access_after_miss
    touch_ptr = d.touch_ptr
    touch_index = d.touch_index
    touch_offset = d.touch_offset

    is_fs = policy is StallPolicy.FULL_STALL
    is_bl = policy is StallPolicy.BUS_LOCKED
    is_bnl1 = policy is StallPolicy.BUS_NOT_LOCKED_1
    is_bnl2 = policy is StallPolicy.BUS_NOT_LOCKED_2
    is_nb = policy is StallPolicy.NON_BLOCKING

    time = 0.0
    bus_busy = 0.0
    read_stall = 0.0
    flush_stall = 0.0
    last_index = -1  # instruction whose processing ended at `time`
    # The in-flight fill left behind by the previous miss (partial
    # policies only): (start, end, critical_chunk) or None.
    fill: tuple[float, float, int] | None = None

    for j, index in enumerate(miss_index):
        # ---- the window of the previous fill -------------------------
        if fill is not None:
            start, end, critical = fill
            if is_bl:
                # Any load/store during the fill waits for fill end.
                engaged = first_after[j - 1]
                if engaged >= 0:
                    at = time + (engaged - last_index - 1)
                    if at < end:
                        read_stall += end - at
                        time = end + 1.0  # the engaged hit's issue slot
                        last_index = engaged
            elif is_bnl1:
                # Only a re-touch of the in-flight line waits (to end).
                lo, hi = touch_ptr[j - 1], touch_ptr[j]
                if hi > lo:
                    engaged = touch_index[lo]
                    at = time + (engaged - last_index - 1)
                    if at < end:
                        read_stall += end - at
                        time = end + 1.0
                        last_index = engaged
            else:
                # BNL2/BNL3/NB: walk the re-touches until the fill ends.
                for p in range(touch_ptr[j - 1], touch_ptr[j]):
                    engaged = touch_index[p]
                    at = time + (engaged - last_index - 1)
                    if at >= end:
                        break
                    position = (touch_offset[p] // bus_width - critical) % n_chunks
                    arrival = start + (position + 1) * beta
                    if is_bnl2:
                        if arrival <= at:
                            continue  # word already there: no stall
                        read_stall += end - at
                        time = end + 1.0
                        last_index = engaged
                        break
                    # BNL3/NB: wait just for the word itself.
                    resume = arrival if arrival > at else at
                    read_stall += resume - at
                    time = resume + 1.0
                    last_index = engaged

        # ---- the miss itself -----------------------------------------
        time += index - last_index - 1  # plain 1-cycle instructions
        if fill is not None and time < fill[1]:
            # A second miss waits for the single fill port (all
            # partial policies; FS never leaves a fill outstanding).
            read_stall += fill[1] - time
            time = fill[1]
        start = time if time > bus_busy else bus_busy
        bus_busy = start + fill_duration
        end = start + n_chunks * beta  # == FillSchedule.end_time
        if is_fs:
            resume = end
        elif is_nb:
            resume = start  # ideal NB: the miss itself retires freely
        else:
            resume = start + 1 * beta  # critical word
        stall = resume - time
        read_stall += stall if stall > 0.0 else 0.0
        time = resume if resume > time else time
        fill = None if is_fs else (start, end, miss_offset[j] // bus_width)
        if miss_dirty[j]:
            # Copy-back: the processor pays the transfer time only; the
            # bus reservation starts once the fill clears the bus.
            flush_start = time if time > bus_busy else bus_busy
            bus_busy = flush_start + fill_duration
            flush_stall += fill_duration
            time += fill_duration
        last_index = index

    # ---- the window of the last fill, then the tail of the trace -----
    if fill is not None:
        start, end, critical = fill
        j = len(miss_index)
        if is_bl:
            engaged = first_after[j - 1]
            if engaged >= 0:
                at = time + (engaged - last_index - 1)
                if at < end:
                    read_stall += end - at
                    time = end + 1.0
                    last_index = engaged
        elif is_bnl1:
            lo, hi = touch_ptr[j - 1], touch_ptr[j]
            if hi > lo:
                engaged = touch_index[lo]
                at = time + (engaged - last_index - 1)
                if at < end:
                    read_stall += end - at
                    time = end + 1.0
                    last_index = engaged
        else:
            for p in range(touch_ptr[j - 1], touch_ptr[j]):
                engaged = touch_index[p]
                at = time + (engaged - last_index - 1)
                if at >= end:
                    break
                position = (touch_offset[p] // bus_width - critical) % n_chunks
                arrival = start + (position + 1) * beta
                if is_bnl2:
                    if arrival <= at:
                        continue
                    read_stall += end - at
                    time = end + 1.0
                    last_index = engaged
                    break
                resume = arrival if arrival > at else at
                read_stall += resume - at
                time = resume + 1.0
                last_index = engaged

    time += events.n_instructions - 1 - last_index

    result = TimingResult(
        instructions=events.n_instructions,
        cycles=time,
        read_miss_stall_cycles=read_stall,
        flush_stall_cycles=flush_stall,
        write_stall_cycles=0.0,
        line_fills=events.stats.line_fills,
        memory_cycle=beta,
    )
    metrics.record_timing("replay", result)
    return result


def _replay_general(
    events: EventStream,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None,
) -> TimingResult:
    """The event-walk kernel: write buffers, pipelined memory, page-mode
    DRAM and write-through/write-around traffic (pre-validated inputs).

    Visits ``events.derived.general_walk`` — misses, timed writes,
    in-window fill-line re-touches and the first access after each miss
    — performing exactly the oracle's float operations at each.  Every
    skipped access is a trafficless hit off the fill line: the oracle
    would compute ``resume == time`` and charge only the 1-cycle issue
    slot, which index arithmetic accounts for.  The write buffer is a
    real :class:`WriteBuffer` driven at the walked accesses only — the
    skipped ones cannot touch it (no post, and a conflict drain
    requires a reference that misses the cache).

    For :class:`PageModeDram` the kernel calls ``schedule_fill`` once
    per fill in program order, so the DRAM's page-hit counters (which
    the ablation reads post-run) come out identical to the oracle's.
    """
    line_size = events.line_size
    bus_width = memory.bus_width
    fill_duration = memory.line_fill_duration(line_size)
    flush_duration = memory.copy_back_duration(line_size)
    schedule_fill = memory.schedule_fill
    write_duration = memory.write_duration

    walk = events.derived.general_walk
    w_index = walk.index
    w_line = walk.line
    w_offset = walk.offset
    w_miss = walk.is_miss
    w_flush = walk.flush_line
    w_timed = walk.timed_write
    w_around = walk.write_around
    w_size = walk.size

    is_fs = policy is StallPolicy.FULL_STALL
    is_bl = policy is StallPolicy.BUS_LOCKED
    is_bnl1 = policy is StallPolicy.BUS_NOT_LOCKED_1
    is_bnl2 = policy is StallPolicy.BUS_NOT_LOCKED_2
    is_nb = policy is StallPolicy.NON_BLOCKING

    # Mirrors TimingSimulator.__init__ (a 0 depth disables the buffer,
    # a negative one raises inside WriteBuffer, like the oracle).
    wb = WriteBuffer(write_buffer_depth) if write_buffer_depth else None

    time = 0.0
    bus_busy = 0.0  # Bus.busy_until
    read_stall = 0.0
    flush_stall = 0.0
    write_stall = 0.0
    last_index = -1
    fill: FillSchedule | None = None
    fill_end = 0.0

    for p in range(len(w_index)):
        index = w_index[p]
        time += index - last_index - 1  # plain 1-cycle instructions
        line = w_line[p]
        miss = w_miss[p]
        around = w_around[p]

        # 1. Stalls imposed by an in-flight fill (Table 2 semantics,
        #    inlined from StallEngine.subsequent_access_resume).
        if fill is not None:
            if time < fill_end:
                if is_bl:
                    resume = fill_end
                elif line != fill.line_address:
                    resume = fill_end if (miss or around) else time
                elif is_bnl1:
                    resume = fill_end
                else:
                    word = fill.arrival_for_offset(w_offset[p], bus_width)
                    if is_bnl2:
                        resume = time if word <= time else fill_end
                    else:  # BNL3 / NB: wait just for the word
                        resume = word if word > time else time
                read_stall += resume - time
                time = resume
            if time >= fill_end:
                fill = None

        # 2. Read-bypass conflict: a reference missing the cache that
        #    hits a buffered dirty line forces a full drain first.
        if wb is not None and (miss or around) and wb.conflicts_with(line):
            drained = wb.flush_all(time)
            write_stall += drained - time
            time = drained

        # 4a. Line fill (mirrors TimingSimulator._start_fill).
        if miss:
            if wb is not None:
                freed = wb.drain_idle(bus_busy, time)
                if freed > bus_busy:
                    bus_busy = freed
            start = time if time > bus_busy else bus_busy  # Bus.reserve
            bus_busy = start + fill_duration
            schedule = schedule_fill(line, line_size, w_offset[p], start)
            if is_fs:
                resume = schedule.end_time
            elif is_nb:
                resume = schedule.start_time
            else:
                resume = schedule.first_arrival
            stall = resume - time
            read_stall += stall if stall > 0.0 else 0.0
            time = resume if resume > time else time
            if is_fs:
                fill = None
            else:
                fill = schedule
                fill_end = schedule.end_time
            flush_line = w_flush[p]
            if flush_line >= 0:
                if wb is not None:
                    stall = wb.post(flush_line, flush_duration, time)
                    flush_stall += stall
                    time += stall
                else:
                    flush_start = time if time > bus_busy else bus_busy
                    bus_busy = flush_start + flush_duration
                    flush_stall += flush_duration
                    time += flush_duration

        # 4b. Write-through / write-around traffic.
        if w_timed[p]:
            duration = write_duration(w_size[p])
            if wb is not None:
                stall = wb.post(line, duration, time)
                write_stall += stall
                time += stall
            else:
                wstart = time if time > bus_busy else bus_busy
                bus_busy = wstart + duration
                done = wstart + duration
                write_stall += done - time
                time = done

        # 5. The issue slot applies to everything but fills/arounds.
        if not (miss or around):
            time += 1.0
        last_index = index

    time += events.n_instructions - 1 - last_index

    result = TimingResult(
        instructions=events.n_instructions,
        cycles=time,
        read_miss_stall_cycles=read_stall,
        flush_stall_cycles=flush_stall,
        write_stall_cycles=write_stall,
        line_fills=events.stats.line_fills,
        memory_cycle=memory.memory_cycle,
    )
    metrics.record_timing("replay", result)
    if wb is not None:
        # Same lifetime counters the oracle records after a run.
        for name, value in wb.counter_snapshot().items():
            metrics.inc(f"write_buffer.{name}", value)
    return result


def replay_mshr(
    events: EventStream,
    memory: MainMemory,
    mshr_count: int = 4,
    load_use_distance: float | None = None,
) -> TimingResult:
    """Exact replay of :class:`~repro.cpu.nonblocking.MSHRSimulator`.

    Covers the MSHR model's own scope: write-back + write-allocate
    caches on plain :class:`MainMemory`.  Visits
    ``events.derived.mshr_walk(k)`` — misses plus the hits whose owning
    fill can still be outstanding — and reproduces the simulator's
    float operations (the fill table is a dict of the same
    :class:`FillSchedule` objects the oracle builds).
    """
    if mshr_count <= 0:
        raise ValueError(f"mshr_count must be positive, got {mshr_count}")
    if load_use_distance is not None and load_use_distance < 0:
        raise ValueError(
            f"load_use_distance must be non-negative, got {load_use_distance}"
        )
    config = events.config
    if (
        type(memory) is not MainMemory
        or config.write_policy is not WritePolicy.WRITE_BACK
        or config.allocate_policy is not AllocatePolicy.WRITE_ALLOCATE
        or config.line_size % memory.bus_width
    ):
        raise ValueError(
            f"replay_mshr covers write-back/write-allocate caches on plain "
            f"MainMemory only (got memory={type(memory).__name__}, "
            f"config={config})"
        )
    if not tracing.spans_active():
        return _replay_mshr(events, memory, mshr_count, load_use_distance)
    with tracing.span(
        "phase2.replay_mshr",
        mshr_count=mshr_count,
        beta=memory.memory_cycle,
        fills=events.n_fills,
    ):
        return _replay_mshr(events, memory, mshr_count, load_use_distance)


def _replay_mshr(
    events: EventStream,
    memory: MainMemory,
    mshr_count: int,
    load_use_distance: float | None,
) -> TimingResult:
    """The k-MSHR replay kernel (pre-validated inputs)."""
    line_size = events.line_size
    bus_width = memory.bus_width
    fill_duration = memory.line_fill_duration(line_size)
    flush_duration = memory.copy_back_duration(line_size)
    schedule_fill = memory.schedule_fill

    walk = events.derived.mshr_walk(mshr_count)
    w_index = walk.index
    w_line = walk.line
    w_offset = walk.offset
    w_miss = walk.is_miss
    w_flush = walk.flush_line
    w_load = walk.is_load

    time = 0.0
    bus_busy = 0.0
    read_stall = 0.0
    flush_stall = 0.0
    last_index = -1
    fills: dict[int, FillSchedule] = {}

    for p in range(len(w_index)):
        index = w_index[p]
        time += index - last_index - 1
        line = w_line[p]

        # MSHRSimulator._expire at access issue.
        if fills:
            fills = {
                ln: f for ln, f in fills.items() if f.end_time > time
            }
        fill = fills.get(line)
        if fill is not None:
            # Access to an in-flight line: wait for the word.
            arrival = fill.arrival_for_offset(w_offset[p], bus_width)
            if arrival > time:
                read_stall += arrival - time
                time = arrival
            fills = {
                ln: f for ln, f in fills.items() if f.end_time > time
            }

        if w_miss[p]:
            if len(fills) >= mshr_count:
                freed_at = min(f.end_time for f in fills.values())
                if freed_at > time:
                    read_stall += freed_at - time
                    time = freed_at
                fills = {
                    ln: f for ln, f in fills.items() if f.end_time > time
                }
            start = time if time > bus_busy else bus_busy  # Bus.reserve
            bus_busy = start + fill_duration
            schedule = schedule_fill(line, line_size, w_offset[p], start)
            fills[line] = schedule
            # Ideal NB: the missing access itself retires for free; a
            # finite load-use distance stalls the consumer d later.
            if load_use_distance is not None and w_load[p]:
                use_time = time + load_use_distance
                first = schedule.first_arrival
                if first > use_time:
                    read_stall += first - use_time
                    time = first - load_use_distance
            flush_line = w_flush[p]
            if flush_line >= 0:
                flush_start = time if time > bus_busy else bus_busy
                bus_busy = flush_start + flush_duration
                flush_stall += flush_duration
                time += flush_duration
        else:
            time += 1.0
        last_index = index

    time += events.n_instructions - 1 - last_index

    result = TimingResult(
        instructions=events.n_instructions,
        cycles=time,
        read_miss_stall_cycles=read_stall,
        flush_stall_cycles=flush_stall,
        write_stall_cycles=0.0,
        line_fills=events.stats.line_fills,
        memory_cycle=memory.memory_cycle,
    )
    metrics.record_timing("replay", result)
    return result


def _fs_closed_form_exact(grid: np.ndarray, scale: int, n: int) -> bool:
    """Whether the FS closed form equals :func:`_replay` bitwise on ``grid``.

    It does when every ``beta_m`` is integral and every partial sum the
    kernel forms is an integer below 2**53, where float addition and
    multiplication are exact.  Time only grows, so the largest of those
    sums is the cycle total, ``scale * beta_m + n``.
    """
    if not np.all(np.isfinite(grid) & (grid == np.floor(grid))):
        return False
    return grid.size == 0 or scale * int(grid.max()) + n < 2**53


def replay_fs_sweep(
    events: EventStream, betas: Sequence[float], bus_width: int
) -> tuple[TimingResult, ...]:
    """Vectorized full-stall accounting over a whole ``beta_m`` grid.

    Under FS nothing overlaps: every fill stalls the processor for the
    full ``(L/D) * beta_m`` and the bus never delays anyone, so the
    per-miss recurrence telescopes into a closed form.  Within
    :func:`_fs_closed_form_exact`'s bound numpy multiplication
    reproduces the kernel's repeated addition bitwise; any other grid
    (fractional, or with a cycle total of 2**53 or more) runs the
    per-point kernel, whose operation order is then the only
    bitwise-faithful one.
    """
    config = events.config
    # The smallest beta_m: MainMemory rejects it if any is out of range.
    memory_probe = MainMemory(min(betas) if len(betas) else 1.0, bus_width)
    if not _is_fast_path(config, memory_probe, None) or not supports_replay(
        config, memory_probe, StallPolicy.FULL_STALL
    ):
        raise ValueError(
            f"replay_fs_sweep covers write-back/write-allocate caches on "
            f"plain MainMemory only (config={events.config})"
        )
    grid = np.asarray(betas, dtype=float)
    n_chunks = events.line_size // bus_width
    fills = events.stats.line_fills
    dirty = int(events.dirty_victim.sum())
    n = events.n_instructions
    if not _fs_closed_form_exact(grid, (fills + dirty) * n_chunks, n):
        return tuple(
            _replay(events, MainMemory(beta, bus_width), StallPolicy.FULL_STALL)
            for beta in betas
        )
    fill_durations = n_chunks * grid
    read_stalls = fills * fill_durations
    flush_stalls = dirty * fill_durations
    cycles = float(n - fills) + (fills + dirty) * fill_durations
    results = []
    for i, beta in enumerate(betas):
        result = TimingResult(
            instructions=n,
            cycles=float(cycles[i]),
            read_miss_stall_cycles=float(read_stalls[i]),
            flush_stall_cycles=float(flush_stalls[i]),
            write_stall_cycles=0.0,
            line_fills=fills,
            memory_cycle=float(beta),
        )
        metrics.record_timing("replay", result)
        results.append(result)
    return tuple(results)


def simulate(
    instructions: Sequence[Instruction],
    config: CacheConfig,
    memory: MainMemory,
    policy: StallPolicy = StallPolicy.FULL_STALL,
    write_buffer_depth: int | None = None,
    issue_rate: float = 1.0,
    events: EventStream | None = None,
) -> TimingResult:
    """One call site for both engines.

    Uses the two-phase replay when the configuration supports it (pass
    ``events`` to reuse a memoized phase-1 extraction), otherwise falls
    back to the step-simulator oracle.
    """
    reason = unsupported_reason(
        config, memory, policy, write_buffer_depth, issue_rate
    )
    if reason is None:
        if events is None:
            events = extract_events(instructions, config)
        return replay(events, memory, policy, write_buffer_depth)
    metrics.inc("engine.step_fallback.dispatches", reason=reason)
    simulator = TimingSimulator(
        config,
        memory,
        policy=policy,
        write_buffer_depth=write_buffer_depth,
        issue_rate=issue_rate,
    )
    with tracing.span(
        "engine.step_simulate",
        policy=policy.value,
        beta=memory.memory_cycle,
        write_buffer_depth=write_buffer_depth,
    ):
        return simulator.run(instructions)
