"""Phase 1 of the two-phase simulation engine: functional event extraction.

The cache's hit/miss/copy-back behaviour is completely independent of
memory timing: which references miss, which victims are dirty, which
stores generate write-through/write-around traffic, and which later
references re-touch an in-flight line are all decided by the cache
geometry and the reference stream alone.  This module runs that untimed
functional pass **once** per ``(trace, CacheConfig)`` and emits a compact
:class:`EventStream` — numpy arrays over the memory references — from
which the timing replay engines (:mod:`repro.cpu.replay`) can compute
exact cycle accounting for any ``(policy, beta_m)`` point without ever
stepping instructions again.

Schema (all arrays are parallel, one entry per load/store, in program
order; see ``docs/ENGINE.md``):

==============  ======================================================
array           meaning
==============  ======================================================
index           instruction index of the reference within the trace
line            line-aligned address referenced
offset          byte offset of the reference within its line
is_miss         the reference filled a line (read miss or
                write-allocate miss)
dirty_victim    the fill evicted a dirty line (a copy-back is owed)
is_store        the reference was a store
flush_line      line address of the dirty victim owed a copy-back,
                -1 when none (== dirty_victim as a flag)
write_through   the store was propagated to memory (write-through hit,
                or a write-allocate miss under write-through)
write_around    the store missed and went straight to memory (no fill)
size            operand size in bytes (drives ``write_duration``)
==============  ======================================================

Derived per-miss structures (the exact inputs Eq. 8 and the Table 2
stall semantics need) are computed lazily and cached on the stream:

* ``miss_index`` / ``miss_offset`` / ``miss_dirty`` — per-fill arrays;
* ``first_access_after_miss`` — instruction index of the first
  load/store after each miss that is *not* itself the next miss (what a
  bus-locked cache stalls);
* a CSR map from each miss to the in-fill-line re-touches inside its
  window (what the BNL policies stall on);
* ``general_walk`` — the sparse subset of accesses the general replay
  kernel (write buffers / pipelined memory / write-through traffic)
  must visit; every skipped access is a provable timing no-op;
* ``mshr_walk(k)`` — the analogous subset for the k-MSHR non-blocking
  replay kernel;
* ``inter_miss_distances`` — Eq. (8)'s ``dc_i`` sample.

The functional pass reuses :class:`repro.cache.Cache` itself rather than
a re-implementation, so the event stream is correct by construction for
every replacement/write/allocate policy the cache model supports.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.cache.cache import Cache, CacheConfig
from repro.cache.stats import CacheStats
from repro.obs import tracing
from repro.trace.record import Instruction, OpKind

#: Bumped whenever the array schema or its semantics change; part of the
#: on-disk cache key (``repro.cache.events_store``), so stale cached
#: streams are invalidated automatically.
EVENT_SCHEMA_VERSION = 2

#: Array fields persisted by the on-disk cache, in schema order.
EVENT_ARRAYS = (
    "index",
    "line",
    "offset",
    "is_miss",
    "dirty_victim",
    "is_store",
    "flush_line",
    "write_through",
    "write_around",
    "size",
)


class EventStream:
    """Compact functional summary of one ``(trace, geometry)`` pair."""

    def __init__(
        self,
        config: CacheConfig,
        n_instructions: int,
        index: np.ndarray,
        line: np.ndarray,
        offset: np.ndarray,
        is_miss: np.ndarray,
        dirty_victim: np.ndarray,
        is_store: np.ndarray,
        stats: CacheStats,
        flush_line: np.ndarray | None = None,
        write_through: np.ndarray | None = None,
        write_around: np.ndarray | None = None,
        size: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.n_instructions = n_instructions
        self.index = index
        self.line = line
        self.offset = offset
        self.is_miss = is_miss
        self.dirty_victim = dirty_victim
        self.is_store = is_store
        n = index.shape[0]
        # The v1 constructor predates these arrays; synthesizing the
        # write-back/write-allocate defaults keeps old callers working.
        self.flush_line = (
            flush_line
            if flush_line is not None
            else np.full(n, -1, dtype=np.int64)
        )
        self.write_through = (
            write_through
            if write_through is not None
            else np.zeros(n, dtype=bool)
        )
        self.write_around = (
            write_around
            if write_around is not None
            else np.zeros(n, dtype=bool)
        )
        self.size = size if size is not None else np.full(n, 4, dtype=np.int64)
        #: final cache statistics of the functional pass (hit ratios,
        #: fill/flush counts) — the timing-independent half of a
        #: :class:`~repro.cpu.processor.TimingResult`.
        self.stats = stats
        self._derived: _Derived | None = None

    # -- basic shape ----------------------------------------------------

    @property
    def n_accesses(self) -> int:
        """Number of loads/stores in the trace."""
        return int(self.index.shape[0])

    @property
    def n_fills(self) -> int:
        """Number of line fills (== ``stats.line_fills``)."""
        return int(self.is_miss.sum())

    @property
    def line_size(self) -> int:
        """Line size of the extracted geometry."""
        return self.config.line_size

    # -- derived per-miss structures ------------------------------------

    @property
    def derived(self) -> "_Derived":
        """Per-miss window structures, computed once on first use."""
        if self._derived is None:
            self._derived = _Derived(self)
        return self._derived

    def inter_miss_distances(self) -> list[int]:
        """Eq. (8)'s ``dc_i``: per miss, the instruction distance to the
        first subsequent access that engages the in-flight line (a
        re-touch of the missed line or the next miss), omitting misses
        whose fill is never engaged before the trace ends."""
        d = self.derived
        engaged = np.full(d.miss_index.shape, -1, dtype=np.int64)
        engaged[:-1] = d.miss_index[1:]
        # A window's re-touches all come before the next miss.
        lo, hi = d.touch_ptr[:-1], d.touch_ptr[1:]
        touched = hi > lo
        engaged[touched] = d.touch_index[lo[touched]]
        found = engaged >= 0
        return (engaged[found] - d.miss_index[found]).tolist()


class GeneralWalk:
    """The access subset the general replay kernel visits, as parallel
    plain lists (position order == program order).

    Skipped accesses are hits with no memory traffic and provably no
    Table 2 window interaction — timing no-ops under every policy the
    kernel covers (see ``docs/ENGINE.md``)."""

    def __init__(
        self,
        index: list[int],
        line: list[int],
        offset: list[int],
        is_miss: list[bool],
        flush_line: list[int],
        timed_write: list[bool],
        write_around: list[bool],
        size: list[int],
    ) -> None:
        self.index = index
        self.line = line
        self.offset = offset
        self.is_miss = is_miss
        self.flush_line = flush_line
        #: the access posts a timed write (write-through or write-around)
        self.timed_write = timed_write
        self.write_around = write_around
        self.size = size

    def __len__(self) -> int:
        return len(self.index)


class MshrWalk:
    """The access subset the k-MSHR replay kernel visits."""

    def __init__(
        self,
        index: list[int],
        line: list[int],
        offset: list[int],
        is_miss: list[bool],
        flush_line: list[int],
        is_load: list[bool],
    ) -> None:
        self.index = index
        self.line = line
        self.offset = offset
        self.is_miss = is_miss
        self.flush_line = flush_line
        self.is_load = is_load

    def __len__(self) -> int:
        return len(self.index)


def _int64(array: np.ndarray) -> np.ndarray:
    """``array`` as int64 (the array-form replay's exact integer type)."""
    return array.astype(np.int64, copy=False)


class MissLists(NamedTuple):
    """The per-miss arrays of :class:`_Derived` as plain lists, which the
    per-miss replay loop indexes far faster than numpy scalars."""

    miss_index: list[int]
    miss_offset: list[int]
    miss_dirty: list[bool]
    first_access_after_miss: list[int]
    touch_ptr: list[int]
    touch_index: list[int]
    touch_offset: list[int]


class _Derived:
    """Replay-ready per-miss views of an :class:`EventStream`: numpy
    arrays for the array-form replay, plus plain-list copies
    (:attr:`lists`) built only when the per-miss loop runs."""

    def __init__(self, events: EventStream) -> None:
        self._events = events
        is_miss = events.is_miss
        miss_pos = np.flatnonzero(is_miss)
        n_miss = miss_pos.shape[0]
        k = events.n_accesses

        #: instruction index / critical offset / dirty flag per fill
        self.miss_index: np.ndarray = _int64(events.index[miss_pos])
        self.miss_offset: np.ndarray = _int64(events.offset[miss_pos])
        self.miss_dirty: np.ndarray = events.dirty_victim[miss_pos]

        # Instruction index of the first load/store after each miss that
        # is not itself the next miss; -1 when the window is empty.
        nxt = miss_pos + 1
        safe = np.minimum(nxt, max(k - 1, 0))
        in_window = (nxt < k) & ~is_miss[safe] if k else np.zeros(0, bool)
        self.first_access_after_miss: np.ndarray = _int64(
            np.where(in_window, events.index[safe], -1)
        )
        self._first_after_pos = safe[in_window] if k else np.zeros(0, np.int64)

        # CSR: per miss, the subsequent accesses that re-touch the line
        # while it could still be in flight (strictly before next miss).
        if n_miss:
            owner = np.cumsum(is_miss) - 1  # most recent miss per access
            fill_line = events.line[miss_pos][np.maximum(owner, 0)]
            touch = (~is_miss) & (owner >= 0) & (events.line == fill_line)
            counts = np.bincount(owner[touch], minlength=n_miss)
            ptr = np.zeros(n_miss + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            self.touch_ptr: np.ndarray = ptr
            self.touch_index: np.ndarray = _int64(events.index[touch])
            self.touch_offset: np.ndarray = _int64(events.offset[touch])
            self._touch_mask = touch
        else:
            self.touch_ptr = np.zeros(1, dtype=np.int64)
            self.touch_index = np.zeros(0, dtype=np.int64)
            self.touch_offset = np.zeros(0, dtype=np.int64)
            self._touch_mask = np.zeros(k, dtype=bool)

        self._lists: MissLists | None = None
        self._general_walk: GeneralWalk | None = None
        self._mshr_walks: dict[int, MshrWalk] = {}
        self._owner_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def lists(self) -> MissLists:
        """The per-miss arrays as plain lists, built on first use."""
        if self._lists is None:
            self._lists = MissLists(
                self.miss_index.tolist(),
                self.miss_offset.tolist(),
                self.miss_dirty.tolist(),
                self.first_access_after_miss.tolist(),
                self.touch_ptr.tolist(),
                self.touch_index.tolist(),
                self.touch_offset.tolist(),
            )
        return self._lists

    # -- general kernel walk --------------------------------------------

    @property
    def general_walk(self) -> GeneralWalk:
        """Accesses the general replay kernel must visit.

        The union over the policies it covers: every miss, every timed
        write (write-through/write-around traffic), every in-window
        re-touch of the most recent fill line (BNL1-3/NB word waits),
        and the first access after each miss (the single access a
        bus-locked fill can stall).  Any other access is a hit with no
        memory traffic, off the fill line, generating no float ops in
        the oracle — skipping it is exact."""
        if self._general_walk is not None:
            return self._general_walk
        ev = self._events
        relevant = ev.is_miss | ev.write_through | ev.write_around
        relevant[self._first_after_pos] = True
        relevant |= self._touch_mask
        pos = np.flatnonzero(relevant)
        timed = (ev.write_through | ev.write_around)[pos]
        self._general_walk = GeneralWalk(
            index=ev.index[pos].tolist(),
            line=ev.line[pos].tolist(),
            offset=ev.offset[pos].tolist(),
            is_miss=ev.is_miss[pos].tolist(),
            flush_line=ev.flush_line[pos].tolist(),
            timed_write=timed.tolist(),
            write_around=ev.write_around[pos].tolist(),
            size=ev.size[pos].tolist(),
        )
        return self._general_walk

    # -- MSHR kernel walk -----------------------------------------------

    def _owners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per access: id of the last same-line fill strictly before it
        (-1 if none) and the number of fills strictly before it; per
        fill (prefix-summed): whether its line had been filled before
        (the conservative superset of MSHR-table overwrites)."""
        if self._owner_arrays is not None:
            return self._owner_arrays
        ev = self._events
        lines = ev.line.tolist()
        misses = ev.is_miss.tolist()
        n = len(lines)
        owner = np.empty(n, dtype=np.int64)
        fills_before = np.empty(n, dtype=np.int64)
        refill_prefix = [0]
        last_fill_of_line: dict[int, int] = {}
        fid = 0
        for p in range(n):
            ln = lines[p]
            owner[p] = last_fill_of_line.get(ln, -1)
            fills_before[p] = fid
            if misses[p]:
                refill_prefix.append(refill_prefix[-1] + (ln in last_fill_of_line))
                last_fill_of_line[ln] = fid
                fid += 1
        self._owner_arrays = (
            owner,
            fills_before,
            np.asarray(refill_prefix, dtype=np.int64),
        )
        return self._owner_arrays

    def mshr_walk(self, mshr_count: int) -> MshrWalk:
        """Accesses the k-MSHR replay kernel must visit.

        Every miss, plus every hit whose owning fill can still be in
        flight when the hit issues.  A hit is skippable when at least
        ``k`` *distinct-line* fills were issued between its owner and
        itself: issuing the k-th of those forced a wait for the
        earliest outstanding completion, and fill end times are
        monotone in issue order, so the owner's fill had completed by
        then.  Same-line re-fills may silently replace an MSHR entry
        without a wait, so they are excluded from the count (the
        ``refill_prefix`` correction)."""
        cached = self._mshr_walks.get(mshr_count)
        if cached is not None:
            return cached
        ev = self._events
        is_miss = ev.is_miss
        owner, fills_before, refill_prefix = self._owners()
        between = fills_before - owner - 1
        refills_between = refill_prefix[fills_before] - refill_prefix[
            np.minimum(owner + 1, refill_prefix.shape[0] - 1)
        ]
        may_wait = (
            (~is_miss) & (owner >= 0) & (between - refills_between < mshr_count)
        )
        pos = np.flatnonzero(is_miss | may_wait)
        walk = MshrWalk(
            index=ev.index[pos].tolist(),
            line=ev.line[pos].tolist(),
            offset=ev.offset[pos].tolist(),
            is_miss=is_miss[pos].tolist(),
            flush_line=ev.flush_line[pos].tolist(),
            is_load=(~ev.is_store[pos]).tolist(),
        )
        self._mshr_walks[mshr_count] = walk
        return walk


def extract_events(
    instructions: Sequence[Instruction], config: CacheConfig
) -> EventStream:
    """Run the untimed functional cache pass and build the event stream.

    One pass through :class:`~repro.cache.Cache` per call; memoize at
    the caller when the same ``(trace, geometry)`` recurs (see
    ``repro.experiments._phi.spec92_event_streams``), and use
    :mod:`repro.cache.events_store` to persist streams across runs.
    """
    cache = Cache(config)
    amap = cache.address_map
    read, write = cache.read, cache.write
    line_address, line_offset = amap.line_address, amap.offset
    alu = OpKind.ALU
    store = OpKind.STORE

    idx: list[int] = []
    line: list[int] = []
    offset: list[int] = []
    miss: list[bool] = []
    dirty: list[bool] = []
    stores: list[bool] = []
    flush_line: list[int] = []
    write_through: list[bool] = []
    write_around: list[bool] = []
    size: list[int] = []
    n = 0
    with tracing.span(
        "phase1.extract_events",
        cache_bytes=config.total_bytes,
        line_size=config.line_size,
        associativity=config.associativity,
    ) as sp:
        for i, inst in enumerate(instructions):
            n += 1
            kind = inst.kind
            if kind is alu:
                continue
            address = inst.address
            is_store = kind is store
            outcome = write(address) if is_store else read(address)
            idx.append(i)
            line.append(line_address(address))
            offset.append(line_offset(address))
            miss.append(outcome.fill_line)
            flushed = outcome.flush_line_address
            dirty.append(flushed is not None)
            flush_line.append(-1 if flushed is None else flushed)
            stores.append(is_store)
            write_through.append(outcome.write_through)
            write_around.append(outcome.write_around)
            size.append(inst.size)
        sp.set(instructions=n, accesses=len(idx), fills=sum(miss))

    return EventStream(
        config=config,
        n_instructions=n,
        index=np.asarray(idx, dtype=np.int64),
        line=np.asarray(line, dtype=np.int64),
        offset=np.asarray(offset, dtype=np.int64),
        is_miss=np.asarray(miss, dtype=bool),
        dirty_victim=np.asarray(dirty, dtype=bool),
        is_store=np.asarray(stores, dtype=bool),
        stats=cache.stats,
        flush_line=np.asarray(flush_line, dtype=np.int64),
        write_through=np.asarray(write_through, dtype=bool),
        write_around=np.asarray(write_around, dtype=bool),
        size=np.asarray(size, dtype=np.int64),
    )
