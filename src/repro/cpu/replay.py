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

Four kernels cover the registry:

* :func:`replay_fs_sweep` — full stall on the fast path (write-back +
  write-allocate, no write buffer, plain
  :class:`~repro.memory.MainMemory`): the per-miss recurrence
  telescopes into a closed form, computed array-at-a-time over a whole
  ``beta_m`` grid (a single point is a grid of one);
* :func:`_replay` — the per-fill kernel for the other fast-path
  policies, BL/BNL1-3/NB.  Every miss resets the carried state, so the
  step between fill starts and every stall term are elementwise
  functions of per-miss arrays: :func:`_replay_windowed` computes them
  array-at-a-time;
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

The two array forms differ from a loop's operation order, so each runs
only inside a bound where every value is an exact integer: integral
``beta_m`` and totals below 2**53 (:func:`_fs_closed_form_exact`,
:func:`_windowed_exact`).  Outside it the per-miss loop
:func:`_replay_loop` runs, performing the oracle's float operations in
the oracle's order.

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
    """The per-fill replay kernel (pre-validated inputs).

    Within :func:`_windowed_exact`'s bound the windowed policies take
    the array form (:func:`_replay_windowed`); everything else — FS,
    which only lands here outside its own closed form's larger bound,
    fractional ``beta_m`` and cycle totals near 2**53 — runs the
    per-miss loop (:func:`_replay_loop`).  Both give the same bits
    wherever the array form runs.
    """
    d = events.derived
    n_chunks = events.line_size // memory.bus_width
    scale = (d.miss_index.shape[0] + int(d.miss_dirty.sum()) + 2) * n_chunks
    if policy is not StallPolicy.FULL_STALL and _windowed_exact(
        memory.memory_cycle, scale, events.n_instructions
    ):
        result = _replay_windowed(events, memory, policy)
    else:
        result = _replay_loop(events, memory, policy)
    metrics.record_timing("replay", result)
    return result


def _windowed_exact(beta: float, scale: int, n: int) -> bool:
    """Whether :func:`_replay_windowed` equals :func:`_replay_loop`
    bitwise at ``beta``, where ``scale = (fills + dirty + 2) * (L/D)``.

    It does when ``beta`` is integral and every value either kernel
    forms is an integer below 2**53: then every float operation of the
    loop is exact, and the array form's int64 sums give the same
    integers in any order.  The bound ``scale * beta + n < 2**53``
    covers every such value.  Proof, with ``F = (L/D) * beta``:

    * Stalls never exceed full stall's.  After miss j the processor
      resumes at ``T_j = start_j + r + dirty_j * F`` (``r`` = ``beta``,
      or 0 under NB).  Until miss j+1 starts, each stall is a disjoint
      stretch of time ending by ``bus_busy = start_j + F + dirty_j * F``
      (window stalls and the port wait end by the fill end, the bus
      wait by ``bus_busy``), so together they are at most ``F - r``.
      Adding miss j+1's own ``r + dirty * F`` (and the last window's
      ``F - r``), read plus flush stall is at most ``(fills + dirty) * F``.
    * So the cycle total, ``n - fills`` plus those stalls, is below
      ``n + (fills + dirty) * F``.  Every ``time``, ``at`` and stall
      sum is at most the total, and so is every fill start (the
      processor resumes after it); a fill's end, its word arrivals
      and ``bus_busy`` lie at most ``2 * F`` past its start.  Every
      value is thus below ``n + (fills + dirty + 2) * F``.
    """
    return beta.is_integer() and scale * int(beta) + n < 2**53


def _replay_windowed(
    events: EventStream, memory: MainMemory, policy: StallPolicy
) -> TimingResult:
    """BL/BNL1-3/NB in array form, exact within :func:`_windowed_exact`.

    Each miss resets the carried state: it starts at ``start_j =
    max(time, bus_busy)``, and from then until miss j+1 the time, the
    bus, the fill end and the window's stalls depend only on
    ``start_j`` and miss j's own events.  Measured from ``start_j``, a
    window ends with a *lag* — ``time`` minus the index of the last
    instruction retired — so the step ``start_{j+1} - start_j`` and
    every stall term are elementwise functions of per-miss arrays (see
    ``docs/ENGINE.md``, "Windowed policies in array form").
    """
    beta = int(memory.memory_cycle)
    bus_width = memory.bus_width
    n_chunks = events.line_size // bus_width
    fill = n_chunks * beta  # fill and copy-back duration, F
    d = events.derived
    index = d.miss_index
    dirty = d.miss_dirty
    n = events.n_instructions
    n_miss = index.shape[0]
    if n_miss == 0:
        return _timing(events, memory, float(n), 0.0, 0.0)

    # The miss resumes `first_word` after its start (at once under
    # NB), then pays any copy-back: the lag the window starts from.
    first_word = 0 if policy is StallPolicy.NON_BLOCKING else beta
    lag0 = first_word + dirty * fill - index
    ptr = d.touch_ptr
    touch = d.touch_index
    if policy is StallPolicy.BUS_LOCKED or policy is StallPolicy.BUS_NOT_LOCKED_1:
        # One engaged access (BL: the first access; BNL1: the first
        # re-touch of the line) waits for the fill end if it issues
        # before it.
        if policy is StallPolicy.BUS_LOCKED:
            engaged = d.first_access_after_miss
        else:
            engaged = np.full(n_miss, -1, dtype=np.int64)
            touched = ptr[1:] > ptr[:-1]
            engaged[touched] = touch[ptr[:-1][touched]]
        at = lag0 + engaged - 1
        lag = np.where((engaged >= 0) & (at < fill), fill + 1 - engaged, lag0)
    else:
        owner = np.repeat(np.arange(n_miss), np.diff(ptr))
        critical = d.miss_offset // bus_width
        position = (d.touch_offset // bus_width - critical[owner]) % n_chunks
        arrival = (position + 1) * beta
        lag = lag0.copy()
        if policy is StallPolicy.BUS_NOT_LOCKED_2:
            # The first re-touch whose word has not arrived when it
            # issues waits for the fill end (every word arrives by the
            # fill end, so that re-touch issues before it).
            at = lag0[owner] + touch - 1
            waits = np.flatnonzero(arrival > at)
            windows, first = np.unique(owner[waits], return_index=True)
            lag[windows] = fill + 1 - touch[waits[first]]
        elif touch.shape[0]:
            # BNL3/NB: each re-touch waits for its own word, so the lag
            # is a running max of `arrival + 1 - index`.  A re-touch
            # issued at or after the fill end cannot raise it (its
            # word arrived by then), so the max runs over the window.
            windows = np.flatnonzero(ptr[1:] > ptr[:-1])
            peak = np.maximum.reduceat(arrival + 1 - touch, ptr[windows])
            lag[windows] = np.maximum(lag0[windows], peak)

    # Miss j+1 issues `at_next` after start_j and starts once the port
    # and the bus are free: the fill (and any copy-back) must be done.
    at_next = lag[:-1] + index[1:] - 1
    step = np.maximum(at_next, fill * (1 + dirty[:-1]))
    cycles = index[0] + step.sum() + lag[-1] + n - 1
    read_stall = (
        n_miss * first_word + (lag - lag0).sum() + (step - at_next).sum()
    )
    flush_stall = int(dirty.sum()) * fill
    return _timing(
        events, memory, float(cycles), float(read_stall), float(flush_stall)
    )


def _timing(
    events: EventStream,
    memory: MainMemory,
    cycles: float,
    read_stall: float,
    flush_stall: float,
) -> TimingResult:
    """A fast-path :class:`TimingResult` (no write traffic)."""
    return TimingResult(
        instructions=events.n_instructions,
        cycles=cycles,
        read_miss_stall_cycles=read_stall,
        flush_stall_cycles=flush_stall,
        write_stall_cycles=0.0,
        line_fills=events.stats.line_fills,
        memory_cycle=memory.memory_cycle,
    )


def _replay_loop(
    events: EventStream, memory: MainMemory, policy: StallPolicy
) -> TimingResult:
    """The per-fill kernel as a loop over misses, for every policy and
    ``beta_m``: the oracle's float operations in the oracle's order."""
    beta = memory.memory_cycle
    bus_width = memory.bus_width
    n_chunks = events.line_size // bus_width
    # Mirrors MainMemory.line_fill_duration / copy_back_duration.
    fill_duration = n_chunks * beta

    (
        miss_index,
        miss_offset,
        miss_dirty,
        first_after,
        touch_ptr,
        touch_index,
        touch_offset,
    ) = events.derived.lists

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
    return _timing(events, memory, time, read_stall, flush_stall)


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
