"""Cohort comparison: ``campaign diff A B`` and baseline loading.

Two cohorts (campaigns or promoted baselines) are joined on *physical*
point identity — (trace fingerprint, cache geometry, policy, β\\ :sub:`m`)
— not on grid indices, so a diff stays meaningful when one side added a
cache size or an exclusion rule: shared points pair up, the rest are
reported as one-sided.

Per matched point the diff reports Δcycles / ΔCPI / Δhit-ratio and the
paper's Eq. (2) decomposition of the CPI delta — which stall term
(read-miss, flush, write-buffer) or the execute floor moved.  The
execute term is derived the same way :func:`repro.obs.metrics
.eq2_breakdown` derives it (``cycles`` minus the three stall terms), so
the four per-instruction terms sum to the CPI exactly.

Hit ratios are not part of the timing-result payload (they are a
phase-1 property of (trace, geometry), not of the replayed point), so
the diff recovers them through :func:`repro.service.queries
.resolve_events`, once per (trace, geometry) pair — served from the
events store, i.e. free for any cohort that was simulated on this
machine — unless ``--no-hit-ratio``
opts out (e.g. diffing cohorts fetched from another host).
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.campaign import spec as spec_mod
from repro.campaign.registry import Campaign, CampaignRegistry
from repro.service import queries

#: A physical point identity: everything that determines the result.
CohortKey = tuple[str, tuple[int, int, int], str, float]


def eq2_terms(result: dict[str, Any]) -> dict[str, float]:
    """Per-instruction Eq. (2) terms of one timing-result dict."""
    instructions = result["instructions"]
    read = result["read_miss_stall_cycles"]
    flush = result["flush_stall_cycles"]
    write = result["write_stall_cycles"]
    execute = result["cycles"] - read - flush - write
    return {
        "execute_cpi": execute / instructions,
        "read_stall_cpi": read / instructions,
        "flush_stall_cpi": flush / instructions,
        "write_buffer_stall_cpi": write / instructions,
    }


def _cohort_key(
    spec: dict[str, Any], point: dict[str, Any]
) -> CohortKey:
    trace = spec["traces"][point["trace_index"]]
    cache = point["cache"]
    return (
        queries.trace_fingerprint_of(trace),
        (
            cache["total_bytes"],
            cache["line_size"],
            cache["associativity"],
        ),
        point["policy"],
        point["memory_cycle"],
    )


def load_cohort(
    spec: dict[str, Any], records: Iterable[dict[str, Any]]
) -> dict[CohortKey, dict[str, Any]]:
    """Index a results stream by physical point identity.

    ``records`` is any iterable of decoded results-stream records
    (header/summary lines are skipped, as are excluded and errored
    points — a diff compares what both sides actually measured).
    """
    cohort: dict[CohortKey, dict[str, Any]] = {}
    for record in records:
        if "index" not in record or "result" not in record:
            continue
        cohort[_cohort_key(spec, record["point"])] = {
            "point": record["point"],
            "result": record["result"],
        }
    return cohort


def _campaign_records(campaign: Campaign) -> Iterable[dict[str, Any]]:
    for line in campaign.result_lines():
        yield json.loads(line)


def resolve_cohort(
    registry: CampaignRegistry, ref: str
) -> tuple[str, dict[str, Any], dict[CohortKey, dict[str, Any]]]:
    """Resolve a diff operand: campaign (id/prefix/name) or baseline.

    Baselines shadow nothing — campaigns are tried first, then the
    promoted-baseline directory.  Returns (label, spec, cohort).
    """
    try:
        campaign = registry.find(ref)
    except KeyError as campaign_miss:
        baseline = registry.baseline_dir(ref)
        try:
            spec = spec_mod.validate_spec(
                json.loads(
                    (baseline / "spec.json").read_text(encoding="utf-8")
                )
            )
            records = [
                json.loads(line)
                for line in (baseline / "results.jsonl")
                .read_text(encoding="utf-8")
                .splitlines()
                if line.strip()
            ]
        except FileNotFoundError:
            raise KeyError(
                f"{ref!r} matches neither a campaign nor a baseline "
                f"in {registry.root}"
            ) from campaign_miss
        return f"baseline:{ref}", spec, load_cohort(spec, records)
    label = campaign.name or campaign.id[:12]
    return label, campaign.spec, load_cohort(
        campaign.spec, _campaign_records(campaign)
    )


def _hit_ratio_of(
    spec: dict[str, Any],
    point: dict[str, Any],
    memo: queries.EventsMemo | None = None,
) -> float | None:
    if memo is None:
        memo = queries.EventsMemo(1)
    params = spec_mod.point_params(spec, point)
    try:
        key = queries.events_key_of(params)
        events = memo.get(key)
        if events is None:
            events = queries.resolve_events(params)
            memo.put(key, events)
        return events.stats.hit_ratio
    except Exception:  # noqa: BLE001 - diff stays usable without HR
        return None


def diff_cohorts(
    spec_a: dict[str, Any],
    cohort_a: dict[CohortKey, dict[str, Any]],
    spec_b: dict[str, Any],
    cohort_b: dict[CohortKey, dict[str, Any]],
    include_hit_ratio: bool = True,
) -> dict[str, Any]:
    """The structured diff: matched rows (B − A) plus one-sided keys."""
    keys_a = set(cohort_a)
    keys_b = set(cohort_b)
    rows: list[dict[str, Any]] = []
    # Sorted keys put each (trace, geometry) pair's rows together, and
    # both sides of a matched row share it: one entry resolves it once.
    memo = queries.EventsMemo(1)
    for key in sorted(keys_a & keys_b):
        a = cohort_a[key]
        b = cohort_b[key]
        terms_a = eq2_terms(a["result"])
        terms_b = eq2_terms(b["result"])
        row: dict[str, Any] = {
            "trace": key[0],
            "cache": {
                "total_bytes": key[1][0],
                "line_size": key[1][1],
                "associativity": key[1][2],
            },
            "policy": key[2],
            "memory_cycle": key[3],
            "cycles_a": a["result"]["cycles"],
            "cycles_b": b["result"]["cycles"],
            "delta_cycles": b["result"]["cycles"] - a["result"]["cycles"],
            "cpi_a": a["result"]["cpi"],
            "cpi_b": b["result"]["cpi"],
            "delta_cpi": b["result"]["cpi"] - a["result"]["cpi"],
            "delta_eq2": {
                name: terms_b[name] - terms_a[name] for name in terms_a
            },
        }
        if include_hit_ratio:
            hr_a = _hit_ratio_of(spec_a, a["point"], memo)
            hr_b = _hit_ratio_of(spec_b, b["point"], memo)
            row["hit_ratio_a"] = hr_a
            row["hit_ratio_b"] = hr_b
            row["delta_hit_ratio"] = (
                hr_b - hr_a if hr_a is not None and hr_b is not None else None
            )
        rows.append(row)
    return {
        "matched": len(rows),
        "only_a": len(keys_a - keys_b),
        "only_b": len(keys_b - keys_a),
        "rows": rows,
    }


def _fmt(value: Any, width: int, precision: int = 4) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:+.{precision}f}".rjust(width)
    return str(value).rjust(width)


def render_diff(
    label_a: str, label_b: str, report: dict[str, Any]
) -> str:
    """A fixed-width table of the diff (the CLI's human rendering)."""
    lines = [
        f"diff: A={label_a}  B={label_b}  "
        f"(matched {report['matched']}, only-A {report['only_a']}, "
        f"only-B {report['only_b']})",
    ]
    if not report["rows"]:
        lines.append("no shared measured points")
        return "\n".join(lines)
    header = (
        f"{'trace':<14} {'cache':<16} {'pol':<3} {'beta':>6} "
        f"{'dCycles':>12} {'dCPI':>10} {'dHR':>9} "
        f"{'dExec':>10} {'dRead':>10} {'dFlush':>10} {'dWrBuf':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["rows"]:
        cache = row["cache"]
        geometry = (
            f"{cache['total_bytes']}/{cache['line_size']}"
            f"/a{cache['associativity']}"
        )
        eq2 = row["delta_eq2"]
        lines.append(
            f"{row['trace'][:14]:<14} {geometry:<16} {row['policy']:<3} "
            f"{row['memory_cycle']:>6.1f} "
            f"{_fmt(float(row['delta_cycles']), 12, 1)} "
            f"{_fmt(row['delta_cpi'], 10)} "
            f"{_fmt(row.get('delta_hit_ratio'), 9)} "
            f"{_fmt(eq2['execute_cpi'], 10)} "
            f"{_fmt(eq2['read_stall_cpi'], 10)} "
            f"{_fmt(eq2['flush_stall_cpi'], 10)} "
            f"{_fmt(eq2['write_buffer_stall_cpi'], 10)}"
        )
    return "\n".join(lines)
