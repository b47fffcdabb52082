"""Declarative campaign specifications (``repro.campaign.spec/1``).

A campaign spec is a JSON document describing a cross-product grid:

.. code-block:: json

    {
      "schema": "repro.campaign.spec/1",
      "name": "beta-sweep",
      "traces": [{"kind": "spec92", "name": "swm256", "instructions": 4000}],
      "caches": [{"total_bytes": 4096}, {"total_bytes": 8192}],
      "policies": ["FS", "BL"],
      "memory_cycles": [4.0, 8.0],
      "deadline_ms": 5000.0,
      "exclude": [{"cache_index": 0, "policy": "BL"}]
    }

Validation extends the :mod:`repro.obs.schemas` hand-rolled style the
service request validators use — indeed the per-trace and per-cache
blocks *are* the service validators
(:func:`repro.service.schemas.validate_trace_spec` /
:func:`~repro.service.schemas.validate_cache_spec`), re-rooted at the
campaign document's paths — so a campaign point expands to exactly the
validated shape ``/v1/simulate`` accepts.

Normalization applies every default, which makes the canonical
rendering (:func:`canonical_bytes`, the repository's standard
``dump_json`` bytes) a *content identity*: :func:`campaign_id` is the
SHA-256 of a version-prefixed canonical spec, so submitting the same
grid twice — however the JSON was formatted, whichever defaults were
spelled out — resolves to the same campaign.

Enumeration (:func:`iter_points`) is **trace-major, then cache-major**:
within one trace the point order is exactly the service's
:func:`~repro.service.schemas.sweep_grid` order (cache, then policy,
then β\\ :sub:`m`), so a campaign's per-trace slice maps 1:1 onto one
``/v1/sweep`` stream and the executor can drive whole traces through
the fleet's sharded sweep path.  Excluded points keep their index (they
are enumerated, flagged, and never simulated) so the index space is
stable under exclusion-rule edits that only *add* rules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.schemas import SchemaError, require, require_number
from repro.service.schemas import (
    MAX_SWEEP_POINTS,
    require_fill_cycles,
    validate_cache_spec,
    validate_trace_spec,
)
from repro.service.schemas import _POLICIES  # noqa: PLC2701 - shared enum
from repro.service.schemas import _integer, _number  # noqa: PLC2701
from repro.util.jsonout import dump_json

__all__ = [
    "CAMPAIGN_SPEC_SCHEMA",
    "MAX_CAMPAIGN_POINTS",
    "MAX_TRACES",
    "CampaignPoint",
    "SchemaError",
    "campaign_id",
    "canonical_bytes",
    "iter_points",
    "point_count",
    "point_params",
    "validate_spec",
]

#: The campaign-spec schema tag (stamped into normalized specs).
CAMPAIGN_SPEC_SCHEMA = "repro.campaign.spec/1"

#: Version prefix folded into :func:`campaign_id`; bump with the schema.
_ID_VERSION = 1

#: Most traces one campaign may sweep.
MAX_TRACES = 16

#: Largest grid one campaign may expand to (pre-exclusion).  Matches
#: the sweep limit: a campaign is at most ``MAX_TRACES`` sweeps.
MAX_CAMPAIGN_POINTS = MAX_SWEEP_POINTS

_NAME_ALLOWED = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)

_EXCLUDE_KEYS = ("trace_index", "cache_index", "policy", "memory_cycle")


def validate_name(name: Any, path: str) -> str:
    """A campaign/baseline name: short, path-safe, non-empty."""
    require(
        isinstance(name, str) and 0 < len(name) <= 64,
        path,
        "must be a string of 1..64 characters",
    )
    require(
        all(c in _NAME_ALLOWED for c in name) and not name.startswith("."),
        path,
        "may use only letters, digits, '.', '_', '-' (no leading '.')",
    )
    return name


def _validate_exclude(
    rule: Any, path: str, n_traces: int, n_caches: int
) -> dict[str, Any]:
    require(isinstance(rule, dict), path, "must be a JSON object")
    unknown = sorted(set(rule) - set(_EXCLUDE_KEYS))
    require(not unknown, path, f"unknown exclusion key(s) {unknown}")
    require(bool(rule), path, "must constrain at least one of "
            f"{list(_EXCLUDE_KEYS)}")
    out: dict[str, Any] = {}
    if "trace_index" in rule:
        out["trace_index"] = _integer(
            rule, "trace_index", path, minimum=0, maximum=n_traces - 1
        )
    if "cache_index" in rule:
        out["cache_index"] = _integer(
            rule, "cache_index", path, minimum=0, maximum=n_caches - 1
        )
    if "policy" in rule:
        policy = rule["policy"]
        require(
            isinstance(policy, str) and policy in _POLICIES,
            f"{path}.policy",
            f"must be one of {list(_POLICIES)}",
        )
        out["policy"] = policy
    if "memory_cycle" in rule:
        require_number(rule["memory_cycle"], f"{path}.memory_cycle")
        out["memory_cycle"] = float(rule["memory_cycle"])
    return out


def validate_spec(document: Any) -> dict[str, Any]:
    """Validate and normalize one campaign spec document.

    Returns the normalized spec — every default applied, every number
    coerced to its canonical type, the ``schema`` tag stamped — which
    is the form the registry persists and :func:`campaign_id` hashes.
    Raises :class:`SchemaError` with a JSON-path message otherwise.
    """
    require(isinstance(document, dict), "$", "spec must be a JSON object")
    allowed = {
        "schema",
        "name",
        "traces",
        "caches",
        "policies",
        "memory_cycles",
        "bus_width",
        "write_buffer_depth",
        "pipelined_q",
        "issue_rate",
        "deadline_ms",
        "exclude",
    }
    unknown = sorted(set(document) - allowed)
    require(not unknown, "$", f"unknown key(s) {unknown}")
    if "schema" in document:
        require(
            document["schema"] == CAMPAIGN_SPEC_SCHEMA,
            "$.schema",
            f"must be {CAMPAIGN_SPEC_SCHEMA!r}",
        )
    out: dict[str, Any] = {"schema": CAMPAIGN_SPEC_SCHEMA}
    if "name" in document:
        out["name"] = validate_name(document["name"], "$.name")

    traces = document.get("traces", [{"kind": "spec92"}])
    require(
        isinstance(traces, list) and traces and len(traces) <= MAX_TRACES,
        "$.traces",
        f"must be a non-empty list of at most {MAX_TRACES} trace specs",
    )
    out["traces"] = [
        validate_trace_spec(spec, f"$.traces[{i}]")
        for i, spec in enumerate(traces)
    ]

    caches = document.get("caches", [{}])
    require(
        isinstance(caches, list) and caches and len(caches) <= 64,
        "$.caches",
        "must be a non-empty list of at most 64 cache specs",
    )
    out["caches"] = [
        validate_cache_spec(spec, f"$.caches[{i}]")
        for i, spec in enumerate(caches)
    ]

    out["bus_width"] = _integer(document, "bus_width", "$", default=4, minimum=1)
    for i, cache in enumerate(out["caches"]):
        require(
            cache["line_size"] % out["bus_width"] == 0,
            f"$.caches[{i}].line_size",
            f"must be a multiple of bus_width ({out['bus_width']})",
        )

    policies = document.get("policies", ["FS"])
    require(
        isinstance(policies, list) and policies,
        "$.policies",
        "must be a non-empty list of stall policies",
    )
    for i, policy in enumerate(policies):
        require(
            isinstance(policy, str) and policy in _POLICIES,
            f"$.policies[{i}]",
            f"must be one of {list(_POLICIES)}",
        )
    out["policies"] = list(policies)

    betas = document.get("memory_cycles", [8.0])
    require(
        isinstance(betas, list) and betas,
        "$.memory_cycles",
        "must be a non-empty list of numbers",
    )
    for i, beta in enumerate(betas):
        require_number(beta, f"$.memory_cycles[{i}]")
        require(beta >= 1.0, f"$.memory_cycles[{i}]", "must be >= 1")
        require_fill_cycles(
            beta,
            [cache["line_size"] for cache in out["caches"]],
            out["bus_width"],
            f"$.memory_cycles[{i}]",
        )
    out["memory_cycles"] = [float(beta) for beta in betas]

    # The normal form spells absent optionals as explicit nulls, so
    # treat null as absent here — validate(validate(x)) == validate(x).
    optionals = {
        key: value
        for key, value in document.items()
        if key in ("write_buffer_depth", "pipelined_q", "deadline_ms")
        and value is not None
    }
    out["write_buffer_depth"] = _integer(
        optionals, "write_buffer_depth", "$", minimum=0
    )
    out["pipelined_q"] = _number(optionals, "pipelined_q", "$", minimum=1.0)
    out["issue_rate"] = _number(
        document, "issue_rate", "$", default=1.0, minimum=1.0
    )
    out["deadline_ms"] = _number(optionals, "deadline_ms", "$", minimum=1.0)

    points = (
        len(out["traces"])
        * len(out["caches"])
        * len(out["policies"])
        * len(out["memory_cycles"])
    )
    require(
        points <= MAX_CAMPAIGN_POINTS,
        "$",
        f"grid expands to {points} points, more than the "
        f"{MAX_CAMPAIGN_POINTS}-point limit",
    )

    rules = document.get("exclude", [])
    require(
        isinstance(rules, list) and len(rules) <= 256,
        "$.exclude",
        "must be a list of at most 256 exclusion rules",
    )
    out["exclude"] = [
        _validate_exclude(
            rule, f"$.exclude[{i}]", len(out["traces"]), len(out["caches"])
        )
        for i, rule in enumerate(rules)
    ]
    return out


def canonical_bytes(spec: dict[str, Any]) -> bytes:
    """The canonical rendering of a normalized spec (what the registry
    stores and :func:`campaign_id` hashes)."""
    return dump_json(spec).encode("utf-8")


def campaign_id(spec: dict[str, Any]) -> str:
    """Content address (hex SHA-256) of one normalized campaign spec."""
    material = f"campaign/{_ID_VERSION}|".encode("utf-8") + canonical_bytes(spec)
    return hashlib.sha256(material).hexdigest()


def point_count(spec: dict[str, Any]) -> int:
    """Grid size including excluded points (the index-space size)."""
    return (
        len(spec["traces"])
        * len(spec["caches"])
        * len(spec["policies"])
        * len(spec["memory_cycles"])
    )


def _excluded(spec: dict[str, Any], point: dict[str, Any]) -> bool:
    """Whether any rule matches — a rule matches when *all* of its
    present keys equal the point's coordinates."""
    for rule in spec["exclude"]:
        if all(point[key] == value for key, value in rule.items()):
            return True
    return False


@dataclass(frozen=True)
class CampaignPoint:
    """One enumerated grid point."""

    index: int
    point: dict[str, Any]  # coordinates (what result lines carry)
    excluded: bool


def iter_points(spec: dict[str, Any]) -> Iterator[CampaignPoint]:
    """Enumerate the grid deterministically (trace- then cache-major).

    Within one trace the order is exactly the service's
    :func:`~repro.service.schemas.sweep_grid` order, so per-trace index
    arithmetic (``index % per_trace``) maps campaign indices onto sweep
    stream indices.
    """
    index = 0
    for trace_index in range(len(spec["traces"])):
        for cache_index, cache in enumerate(spec["caches"]):
            for policy in spec["policies"]:
                for beta in spec["memory_cycles"]:
                    point = {
                        "trace_index": trace_index,
                        "cache_index": cache_index,
                        "cache": cache,
                        "policy": policy,
                        "memory_cycle": beta,
                    }
                    yield CampaignPoint(index, point, _excluded(spec, point))
                    index += 1


def point_params(spec: dict[str, Any], point: dict[str, Any]) -> dict[str, Any]:
    """One point's validated ``/v1/simulate``-shaped parameter dict.

    Already-normalized (the spec validators applied every default), so
    the executor can hand it straight to the local query functions; the
    service path strips ``None`` optionals before the wire (the request
    validators reject explicit nulls).
    """
    return {
        "trace": spec["traces"][point["trace_index"]],
        "cache": point["cache"],
        "policy": point["policy"],
        "memory_cycle": point["memory_cycle"],
        "bus_width": spec["bus_width"],
        "write_buffer_depth": spec["write_buffer_depth"],
        "pipelined_q": spec["pipelined_q"],
        "issue_rate": spec["issue_rate"],
        "deadline_ms": spec["deadline_ms"],
    }


def wire_params(params: dict[str, Any]) -> dict[str, Any]:
    """The on-the-wire form of :func:`point_params` (``None``\\ s
    dropped, exactly like the router's sub-sweep requests)."""
    return {key: value for key, value in params.items() if value is not None}
