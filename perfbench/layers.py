"""Per-layer metrics from a traced run's span files, and their cross-checks.

Each traced process writes ``spans-<pid>.json`` at exit (see
``boot/perfbench_trace.py``).  This module turns those files, plus what
the benchmark measured from outside, into the ``per_layer`` metrics of
``BENCHMARK.json``.  A layer a workload bypasses reads 0.

Self time is a span's busy time minus the busy time of the spans nested
in it, so the ``*_s`` metrics of one process add up to the time the
wrapped layers covered.  ``unattributed_s`` is the rest of the command's
wall time.
"""

from __future__ import annotations

import json
from pathlib import Path

#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("trace.gen_s", "s", "lower"),
    ("trace.gen_calls", "count", "lower"),
    ("reuse.build_s", "s", "lower"),
    ("reuse.derive_s", "s", "lower"),
    ("reuse.derive_calls", "count", "lower"),
    ("events.extract_s", "s", "lower"),
    ("events.extract_calls", "count", "lower"),
    ("events.derived_s", "s", "lower"),
    ("events.derived_calls", "count", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.load_calls", "count", "lower"),
    ("store.distinct_keys", "count", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.save_calls", "count", "lower"),
    ("store.bytes_written", "B", "lower"),
    ("cache_step.accesses", "count", "lower"),
    ("cache_step.s", "s", "lower"),
    ("replay.calls", "count", "lower"),
    ("replay.s", "s", "lower"),
    ("replay.us_per_call", "us", "lower"),
    ("replay_mshr.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("campaign.self_s", "s", "lower"),
    ("campaign.registry_write_s", "s", "lower"),
    ("campaign.registry_writes", "count", "lower"),
    ("campaign.bytes_written", "B", "lower"),
    ("unattributed_s", "s", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("tracing.overhead", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
]


def load_spans(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("spans-*.json"))]


class Spans:
    """Sums over the span files of a traced command's processes."""

    def __init__(self, docs: list[dict]) -> None:
        self.docs = docs

    def layer(self, name: str, field: str) -> float:
        return sum(d["layers"].get(name, {}).get(field, 0) for d in self.docs)

    def calls(self, name: str) -> int:
        return int(self.layer(name, "calls"))

    def count(self, name: str) -> float:
        return sum(d["counts"].get(name, 0) for d in self.docs)

    def distinct(self, kind: str) -> int:
        return sum(d["distinct"].get(kind, 0) for d in self.docs)

    def covered_s(self) -> float:
        """Wall time inside any wrapped layer (self times telescope)."""
        total = self.count("cache_step.s")
        for doc in self.docs:
            total += sum(row["self_s"] for row in doc["layers"].values())
        return total

    def replay_calls(self) -> int:
        return (
            self.calls("replay")
            + self.calls("replay_mshr")
            + int(self.count("replay.vector_results"))
        )


def counter_total(counters: dict, name: str) -> float:
    """Sum one counter over all its labels."""
    return sum(
        value
        for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def cross_check(spans: Spans, counters: dict) -> list[str]:
    """Wrapper call counts that disagree with the program's own counters."""
    pairs = [
        ("engine.replay.calls", spans.replay_calls()),
        ("engine.phase1.dispatches", spans.calls("phase1.dispatch")),
    ]
    return [
        f"wrapper count {observed} != program counter {name}={counter_total(counters, name)}"
        for name, observed in pairs
        if observed != counter_total(counters, name)
    ]


def layer_metrics(spans: Spans) -> dict[str, float]:
    """The metrics every workload derives from its span files alone."""
    replay_calls = spans.replay_calls()
    replay_s = spans.layer("replay", "self_s") + spans.layer("replay_mshr", "self_s")
    return {
        "trace.gen_s": spans.layer("trace", "self_s"),
        "trace.gen_calls": spans.calls("trace"),
        "reuse.build_s": spans.layer("reuse.build", "self_s"),
        "reuse.derive_s": spans.layer("reuse.derive", "self_s"),
        "reuse.derive_calls": spans.calls("reuse.derive"),
        "events.extract_s": spans.layer("events.extract", "self_s"),
        "events.extract_calls": spans.calls("events.extract"),
        "events.derived_s": spans.layer("events.derived", "self_s"),
        "events.derived_calls": spans.calls("events.derived"),
        "store.load_s": spans.layer("store.load", "self_s"),
        "store.load_calls": spans.calls("store.load"),
        "store.distinct_keys": spans.distinct("store"),
        "store.save_s": spans.layer("store.save", "self_s"),
        "store.save_calls": spans.calls("store.save"),
        "store.bytes_written": spans.count("store.bytes_written"),
        "cache_step.accesses": spans.count("cache_step.accesses"),
        "cache_step.s": spans.count("cache_step.s"),
        "replay.calls": replay_calls,
        "replay.s": replay_s,
        "replay.us_per_call": replay_s / replay_calls * 1e6 if replay_calls else 0.0,
        "replay_mshr.s": spans.layer("replay_mshr", "self_s"),
        "experiments.self_s": spans.layer("experiments", "self_s"),
        "campaign.self_s": spans.layer("campaign", "self_s"),
        "campaign.registry_write_s": spans.layer("campaign.registry_write", "self_s"),
        "campaign.registry_writes": spans.calls("campaign.registry_write"),
        "campaign.bytes_written": spans.count("campaign.bytes_written"),
    }


def complete(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; bypassed layers read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
