"""Layer wrappers for the benchmark's traced run.

:func:`install` puts an import hook in front of ``sys.meta_path``.  When
one of the modules in :data:`PATCHES` is imported, the hook runs the
module and then replaces the named functions and methods with timing
wrappers, in the module or class where their callers look them up.
Modules that import a wrapped name later get the wrapper, because the
defining module is always imported first.  Nothing under ``src/``
changes.

Each call is a span on a per-thread stack.  A span records its busy
(wall) time; its self time is its busy time minus the busy time of the
spans nested in it, and its self CPU time is the same difference in the
thread's CPU clock.  Calls and
totals count only the outermost span of a layer, so a layer that
recurses into itself is not counted twice.

Spans are reduced to per-layer sums in memory and written as one JSON
file per process, ``spans-<pid>.json``, when the
process exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
from time import perf_counter, thread_time

_ALL_STATES: list["_ThreadState"] = []
_STATES_LOCK = threading.Lock()
_TLS = threading.local()
_KEYS: dict[str, set] = {}
_PROGRAM_METRICS = {"enabled": False}


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        # layer -> [outer calls, outer busy s, self s, outer wall s, self CPU s]
        self.layers: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.in_extract = 0


def _state() -> _ThreadState:
    try:
        return _TLS.state
    except AttributeError:
        state = _TLS.state = _ThreadState()
        with _STATES_LOCK:
            _ALL_STATES.append(state)
        return state


class _Frame:
    __slots__ = ("layer", "busy", "child", "cpu", "cpu_child", "outer")

    def __init__(self, layer: str, stack: list["_Frame"]) -> None:
        self.layer = layer
        self.busy = 0.0
        self.child = 0.0
        self.cpu = 0.0
        self.cpu_child = 0.0
        self.outer = all(frame.layer != layer for frame in stack)


def _end_segment(state: _ThreadState, frame: _Frame, start: float, cpu_start: float) -> None:
    elapsed = perf_counter() - start
    cpu = thread_time() - cpu_start
    state.stack.pop()
    frame.busy += elapsed
    frame.cpu += cpu
    if state.stack:
        state.stack[-1].child += elapsed
        state.stack[-1].cpu_child += cpu


def _record(state: _ThreadState, frame: _Frame, wall: float) -> None:
    row = state.layers.get(frame.layer)
    if row is None:
        row = state.layers[frame.layer] = [0, 0.0, 0.0, 0.0, 0.0]
    if frame.outer:
        row[0] += 1
        row[1] += frame.busy
        row[3] += wall
    row[2] += frame.busy - frame.child
    row[4] += frame.cpu - frame.cpu_child


def count(name: str, value: float = 1) -> None:
    counts = _state().counts
    counts[name] = counts.get(name, 0) + value


def _sync(fn, layer: str, before=None, after=None, extract: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _state()
        if before is not None:
            before(args, kwargs)
        frame = _Frame(layer, state.stack)
        state.stack.append(frame)
        state.in_extract += extract
        cpu_start = thread_time()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            _end_segment(state, frame, start, cpu_start)
            state.in_extract -= extract
            _record(state, frame, frame.busy)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _function(module, name: str, layer: str, **hooks) -> None:
    setattr(module, name, _sync(getattr(module, name), layer, **hooks))


def _method(cls, name: str, layer: str, **hooks) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(_sync(raw.__func__, layer, **hooks)))
    else:
        setattr(cls, name, _sync(raw, layer, **hooks))


def _step_wrapper(fn):
    """Stepping-cache accesses outside phase-1 extraction: counted and
    timed in aggregate (one span each would cost more than the access)."""

    @functools.wraps(fn)
    def wrapper(self, address):
        state = _state()
        if state.in_extract:
            return fn(self, address)
        start = perf_counter()
        try:
            return fn(self, address)
        finally:
            elapsed = perf_counter() - start
            counts = state.counts
            counts["cache_step.accesses"] = counts.get("cache_step.accesses", 0) + 1
            counts["cache_step.s"] = counts.get("cache_step.s", 0.0) + elapsed
            if state.stack:
                state.stack[-1].child += elapsed

    return wrapper


def _distinct(kind: str, key) -> None:
    with _STATES_LOCK:
        _KEYS.setdefault(kind, set()).add(key)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# -- per-module patches ------------------------------------------------------


def _patch_spec92(module) -> None:
    _function(module, "spec92_trace", "trace")


def _patch_synthetic(module) -> None:
    _method(module.SyntheticTraceBuilder, "build", "trace")
    _method(module.SyntheticTraceBuilder, "build_reference_arrays", "trace")


def _patch_markov(module) -> None:
    _method(module.MarkovWorkload, "build", "trace")


def _patch_loops(module) -> None:
    _function(module, "matmul_instructions", "trace")
    _function(module, "square_matmul_profile_arrays", "trace")


def _patch_reuse(module) -> None:
    _function(module, "build_profile", "reuse.build")
    _method(module.ReuseProfile, "line_view", "reuse.build")
    _method(module.ReuseProfile, "set_view", "reuse.build")
    _function(module, "derive_events", "reuse.derive")


def _patch_events(module) -> None:
    _function(module, "extract_events", "events.extract", extract=True)
    _method(module._Derived, "__init__", "events.derived")


def _patch_events_store(module) -> None:
    def saved(args, kwargs, _result):
        fingerprint, config = args[0], args[1]
        count(
            "store.bytes_written",
            _file_bytes(module._paths(module.entry_key(fingerprint, config))),
        )

    _function(
        module,
        "load",
        "store.load",
        before=lambda args, kwargs: _distinct("store", ("events", args[0], repr(args[1]))),
    )
    _function(module, "save", "store.save", after=saved)
    _function(module, "_extract", "phase1.dispatch")


def _patch_reuse_store(module) -> None:
    def saved(args, kwargs, _result):
        count("store.bytes_written", _file_bytes(module._paths(module.entry_key(args[0]))))

    _function(
        module,
        "load",
        "store.load",
        before=lambda args, kwargs: _distinct("store", ("reuse", args[0])),
    )
    _function(module, "save", "store.save", after=saved)


def _patch_cache(module) -> None:
    module.Cache.read = _step_wrapper(module.Cache.__dict__["read"])
    module.Cache.write = _step_wrapper(module.Cache.__dict__["write"])


def _patch_replay(module) -> None:
    _function(module, "_replay", "replay")
    _function(module, "_replay_general", "replay")
    _function(module, "_replay_mshr", "replay_mshr")
    sweep = module.replay_fs_sweep

    @functools.wraps(sweep)
    def replay_fs_sweep(*args, **kwargs):
        # The integer-beta path records one engine call per result
        # without entering a kernel; count those calls here.
        state = _state()
        before = state.layers.get("replay", [0])[0]
        results = sweep(*args, **kwargs)
        inside = state.layers.get("replay", [0])[0] - before
        count("replay.vector_results", len(results) - inside)
        return results

    module.replay_fs_sweep = replay_fs_sweep


def _patch_experiments_registry(module) -> None:
    _function(module, "run_experiment", "experiments")


def _patch_campaign_cli(module) -> None:
    # The campaign CLI never turns the program's metrics on; do it so
    # the traced run can compare wrapper counts with the program's own
    # counters (written out at exit).
    from repro.obs import metrics

    metrics.enable_metrics()
    _PROGRAM_METRICS["enabled"] = True


def _patch_campaign_executor(module) -> None:
    _function(module, "run_campaign", "campaign")


def _patch_campaign_registry(module) -> None:
    _function(
        module,
        "_atomic_write",
        "campaign.registry_write",
        after=lambda args, kwargs, _r: count("campaign.bytes_written", len(args[1])),
    )


PATCHES = {
    "repro.trace.spec92": _patch_spec92,
    "repro.trace.synthetic": _patch_synthetic,
    "repro.trace.markov": _patch_markov,
    "repro.trace.loops": _patch_loops,
    "repro.cache.reuse": _patch_reuse,
    "repro.cache.events": _patch_events,
    "repro.cache.events_store": _patch_events_store,
    "repro.cache.reuse_store": _patch_reuse_store,
    "repro.cache.cache": _patch_cache,
    "repro.cpu.replay": _patch_replay,
    "repro.experiments.registry": _patch_experiments_registry,
    "repro.campaign.cli": _patch_campaign_cli,
    "repro.campaign.executor": _patch_campaign_executor,
    "repro.campaign.registry": _patch_campaign_registry,
}


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, patch) -> None:
        self._loader = loader
        self._patch = patch

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        self._patch(module)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        patch = PATCHES.get(name)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, patch)
        return spec


def _dump(directory: str) -> None:
    layers: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    with _STATES_LOCK:
        states = list(_ALL_STATES)
        distinct = {kind: len(keys) for kind, keys in _KEYS.items()}
    for state in states:
        for layer, row in list(state.layers.items()):
            merged = layers.setdefault(layer, [0, 0.0, 0.0, 0.0, 0.0])
            for i, value in enumerate(row):
                merged[i] += value
        for name, value in list(state.counts.items()):
            counts[name] = counts.get(name, 0) + value
    program = None
    if _PROGRAM_METRICS["enabled"]:
        from repro.obs import metrics

        registry = metrics.current_metrics()
        if registry is not None:
            program = registry.snapshot()["counters"]
    document = {
        "pid": os.getpid(),
        "cpu_s": sum(os.times()[:2]),
        "argv": list(getattr(sys, "orig_argv", sys.argv)),
        "layers": {
            name: {
                "calls": row[0],
                "busy_s": row[1],
                "self_s": row[2],
                "wall_s": row[3],
                "self_cpu_s": row[4],
            }
            for name, row in layers.items()
        },
        "counts": counts,
        "distinct": distinct,
        "program_counters": program,
    }
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(path + ".tmp", path)


def install(directory: str) -> None:
    """Hook the imports of this process and write its spans at exit."""
    sys.meta_path.insert(0, _Finder())
    atexit.register(_dump, directory)
