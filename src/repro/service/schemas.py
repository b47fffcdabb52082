"""Hand-rolled request schemas for the tradeoff-query service.

Extends the :mod:`repro.obs.schemas` approach (offline environment, no
``jsonschema``) to *inbound* payloads: every endpoint's parameters are
structurally validated — types, ranges, enum membership, unknown-key
rejection — before any domain object is built, so a malformed request
costs a 400 with a JSON-path-style message, never a stack trace from
deep inside the engine.

Limits guard the simulation-backed path: ``instructions``, matmul
``n`` and ``alu_per_reference`` are capped so a single request cannot
monopolise the batch worker (see ``docs/SERVICE.md`` for the knobs),
and ``memory_cycle`` is capped so every accepted point replays exactly
(:data:`MAX_FILL_CYCLES`).
"""

from __future__ import annotations

from typing import Any

from repro.core.stalling import StallPolicy
from repro.obs.schemas import SchemaError, require, require_number
from repro.trace.spec92 import SPEC92_PROFILES

__all__ = [
    "SchemaError",
    "MAX_INSTRUCTIONS",
    "MAX_MATMUL_N",
    "MAX_ALU_PER_REFERENCE",
    "MAX_FILL_CYCLES",
    "MAX_SWEEP_POINTS",
    "validate_execution_time",
    "validate_tradeoff",
    "validate_ranking",
    "validate_advise",
    "validate_simulate",
    "validate_sweep",
    "validate_trace_spec",
    "validate_cache_spec",
    "sweep_grid",
    "sweep_point_count",
    "require_fill_cycles",
]

#: Largest trace a single simulate request may ask for.
MAX_INSTRUCTIONS = 500_000

#: Largest square-matmul dimension a single simulate request may ask for.
MAX_MATMUL_N = 96

#: Most ALU instructions a matmul trace may interleave per reference.
MAX_ALU_PER_REFERENCE = 64

#: Most loads and stores of an accepted matmul: ``2 n**3`` multiply-add
#: loads plus a load and a store of C per (i, j, k-tile), at most
#: ``2 n**3`` more.
_MAX_MATMUL_REFERENCES = 4 * MAX_MATMUL_N**3

#: Most loads and stores any accepted trace has.
_MAX_REFERENCES = max(MAX_INSTRUCTIONS, _MAX_MATMUL_REFERENCES)

#: Most instructions any accepted trace has.
_MAX_TRACE_INSTRUCTIONS = max(
    MAX_INSTRUCTIONS, _MAX_MATMUL_REFERENCES * (1 + MAX_ALU_PER_REFERENCE)
)

#: Longest line fill, ``memory_cycle * line_size / bus_width``, a
#: simulation-backed request may ask for.  The per-fill replay (plain
#: memory, no write buffer) is bitwise exact, and equal to the step
#: simulator, while
#: ``n + (fills + dirty + 2) * fill < 2**53``
#: (:func:`repro.cpu.replay._windowed_exact`); with ``fills`` and
#: ``dirty`` at most the reference count, this is the largest ``fill``
#: that keeps every accepted trace inside that bound.
MAX_FILL_CYCLES = (2**53 - 1 - _MAX_TRACE_INSTRUCTIONS) // (
    2 * _MAX_REFERENCES + 2
)

#: Largest grid one ``/v1/sweep`` request may expand to.  The stream
#: never buffers the grid, so this bounds *work*, not memory.
MAX_SWEEP_POINTS = 1_000_000

#: The analytic feature names accepted by ``/v1/tradeoff``.
FEATURES = ("doubling-bus", "write-buffers", "pipelined-memory", "partial-stalling")

_POLICIES = tuple(policy.value for policy in StallPolicy)


def _object(params: Any, path: str) -> dict[str, Any]:
    require(isinstance(params, dict), path, "must be a JSON object")
    return params


def _reject_unknown(params: dict[str, Any], allowed: set[str], path: str) -> None:
    unknown = sorted(set(params) - allowed)
    require(not unknown, path, f"unknown parameter(s) {unknown}")


def _number(
    params: dict[str, Any],
    name: str,
    path: str,
    default: float | None = None,
    minimum: float | None = None,
    maximum: float | None = None,
    required: bool = False,
) -> float | None:
    if name not in params:
        require(not required, f"{path}.{name}", "is required")
        return default
    value = params[name]
    require_number(value, f"{path}.{name}")
    if minimum is not None:
        require(value >= minimum, f"{path}.{name}", f"must be >= {minimum}")
    if maximum is not None:
        require(value <= maximum, f"{path}.{name}", f"must be <= {maximum}")
    return float(value)


def _integer(
    params: dict[str, Any],
    name: str,
    path: str,
    default: int | None = None,
    minimum: int | None = None,
    maximum: int | None = None,
    required: bool = False,
) -> int | None:
    if name not in params:
        require(not required, f"{path}.{name}", "is required")
        return default
    value = params[name]
    require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{path}.{name}",
        f"expected an integer, got {type(value).__name__}",
    )
    if minimum is not None:
        require(value >= minimum, f"{path}.{name}", f"must be >= {minimum}")
    if maximum is not None:
        require(value <= maximum, f"{path}.{name}", f"must be <= {maximum}")
    return value


def _choice(
    params: dict[str, Any],
    name: str,
    choices: tuple[str, ...],
    path: str,
    default: str | None = None,
    required: bool = False,
) -> str | None:
    if name not in params:
        require(not required, f"{path}.{name}", "is required")
        return default
    value = params[name]
    require(
        isinstance(value, str) and value in choices,
        f"{path}.{name}",
        f"must be one of {list(choices)}",
    )
    return value


def _bool(
    params: dict[str, Any], name: str, path: str, default: bool = False
) -> bool:
    if name not in params:
        return default
    value = params[name]
    require(isinstance(value, bool), f"{path}.{name}", "must be a bool")
    return value


def _geometry(params: dict[str, Any], path: str) -> dict[str, Any]:
    """Shared ``bus_width``/``line_size``/``memory_cycle`` block."""
    return {
        "bus_width": _integer(params, "bus_width", path, default=4, minimum=1),
        "line_size": _integer(params, "line_size", path, default=32, minimum=1),
        "memory_cycle": _number(
            params, "memory_cycle", path, default=8.0, minimum=1.0
        ),
        "turnaround": _number(params, "turnaround", path, default=2.0, minimum=1.0),
    }


def validate_execution_time(params: Any) -> dict[str, Any]:
    """``/v1/execution-time``: Eq. (2) on a hit-ratio-derived workload."""
    params = _object(params, "$.params")
    _reject_unknown(
        params,
        {
            "hit_ratio",
            "bus_width",
            "line_size",
            "memory_cycle",
            "turnaround",
            "flush_ratio",
            "loadstore_fraction",
            "instructions",
            "policy",
            "stall_factor",
            "write_buffers",
        },
        "$.params",
    )
    out = _geometry(params, "$.params")
    out["hit_ratio"] = _number(
        params, "hit_ratio", "$.params", minimum=1e-9, maximum=1.0, required=True
    )
    out["flush_ratio"] = _number(
        params, "flush_ratio", "$.params", default=0.5, minimum=0.0, maximum=1.0
    )
    out["loadstore_fraction"] = _number(
        params,
        "loadstore_fraction",
        "$.params",
        default=0.3,
        minimum=1e-9,
        maximum=1.0 - 1e-9,
    )
    out["instructions"] = _number(
        params, "instructions", "$.params", default=1_000_000.0, minimum=1.0
    )
    out["policy"] = _choice(params, "policy", _POLICIES, "$.params", default="FS")
    out["stall_factor"] = _number(params, "stall_factor", "$.params", minimum=0.0)
    out["write_buffers"] = _bool(params, "write_buffers", "$.params")
    return out


def validate_tradeoff(params: Any) -> dict[str, Any]:
    """``/v1/tradeoff``: one feature's traded hit ratio (Eq. 6)."""
    params = _object(params, "$.params")
    _reject_unknown(
        params,
        {
            "feature",
            "base_hit_ratio",
            "bus_width",
            "line_size",
            "memory_cycle",
            "turnaround",
            "flush_ratio",
            "stall_factor",
        },
        "$.params",
    )
    out = _geometry(params, "$.params")
    out["feature"] = _choice(
        params, "feature", FEATURES, "$.params", required=True
    )
    out["base_hit_ratio"] = _number(
        params,
        "base_hit_ratio",
        "$.params",
        minimum=0.0,
        maximum=1.0 - 1e-9,
        required=True,
    )
    out["flush_ratio"] = _number(
        params, "flush_ratio", "$.params", default=0.5, minimum=0.0, maximum=1.0
    )
    out["stall_factor"] = _number(params, "stall_factor", "$.params", minimum=0.0)
    require(
        out["feature"] != "partial-stalling" or out["stall_factor"] is not None,
        "$.params.stall_factor",
        "is required for feature 'partial-stalling' (a trace-measured phi)",
    )
    return out


def validate_ranking(params: Any) -> dict[str, Any]:
    """``/v1/ranking``: the Table 3 / Figures 3-5 unified comparison."""
    params = _object(params, "$.params")
    _reject_unknown(
        params,
        {
            "base_hit_ratio",
            "bus_width",
            "line_size",
            "turnaround",
            "flush_ratio",
            "betas",
            "stall_factors",
        },
        "$.params",
    )
    out = _geometry({k: v for k, v in params.items() if k != "betas"}, "$.params")
    del out["memory_cycle"]
    out["base_hit_ratio"] = _number(
        params,
        "base_hit_ratio",
        "$.params",
        minimum=0.0,
        maximum=1.0 - 1e-9,
        required=True,
    )
    out["flush_ratio"] = _number(
        params, "flush_ratio", "$.params", default=0.5, minimum=0.0, maximum=1.0
    )
    betas = params.get("betas")
    require(
        isinstance(betas, list) and betas and len(betas) <= 64,
        "$.params.betas",
        "must be a non-empty list of at most 64 numbers",
    )
    for i, beta in enumerate(betas):
        require_number(beta, f"$.params.betas[{i}]")
        require(beta >= 1.0, f"$.params.betas[{i}]", "must be >= 1")
    out["betas"] = [float(b) for b in betas]
    stall_factors = params.get("stall_factors")
    if stall_factors is not None:
        require(
            isinstance(stall_factors, list)
            and len(stall_factors) == len(betas),
            "$.params.stall_factors",
            "must be a list parallel to betas (one measured phi per beta)",
        )
        for i, phi in enumerate(stall_factors):
            require_number(phi, f"$.params.stall_factors[{i}]")
            require(phi >= 0.0, f"$.params.stall_factors[{i}]", "must be >= 0")
        out["stall_factors"] = [float(p) for p in stall_factors]
    else:
        out["stall_factors"] = None
    return out


def validate_advise(params: Any) -> dict[str, Any]:
    """``/v1/advise``: the design advisor (Section 5.3 as a service)."""
    params = _object(params, "$.params")
    _reject_unknown(
        params,
        {
            "bus_width",
            "line_size",
            "memory_cycle",
            "turnaround",
            "cache_kib",
            "flush_ratio",
            "stall_factor",
        },
        "$.params",
    )
    out = _geometry(params, "$.params")
    out["cache_kib"] = _integer(
        params, "cache_kib", "$.params", default=8, minimum=1, maximum=1 << 16
    )
    out["flush_ratio"] = _number(
        params, "flush_ratio", "$.params", default=0.5, minimum=0.0, maximum=1.0
    )
    out["stall_factor"] = _number(params, "stall_factor", "$.params", minimum=0.0)
    return out


def validate_trace_spec(
    spec: Any, path: str = "$.params.trace"
) -> dict[str, Any]:
    """One trace spec (spec92 or matmul), normalized with defaults.

    Shared between the simulate/sweep request validators and the
    campaign spec validator (:mod:`repro.campaign.spec`), which passes
    its own ``path`` so errors point into the campaign document.
    """
    spec = _object(spec, path)
    kind = _choice(spec, "kind", ("spec92", "matmul"), path, required=True)
    if kind == "spec92":
        _reject_unknown(spec, {"kind", "name", "instructions", "seed"}, path)
        name = spec.get("name", "swm256")
        require(
            isinstance(name, str) and name in SPEC92_PROFILES,
            f"{path}.name",
            f"must be one of {sorted(SPEC92_PROFILES)}",
        )
        return {
            "kind": "spec92",
            "name": name,
            "instructions": _integer(
                spec,
                "instructions",
                path,
                default=8_000,
                minimum=1,
                maximum=MAX_INSTRUCTIONS,
            ),
            "seed": _integer(spec, "seed", path, default=7, minimum=0),
        }
    _reject_unknown(
        spec,
        {"kind", "n", "tile", "element_size", "alu_per_reference"},
        path,
    )
    tile = None
    if spec.get("tile") is not None:
        tile = _integer(spec, "tile", path, minimum=1)
    return {
        "kind": "matmul",
        "n": _integer(
            spec, "n", path, minimum=1, maximum=MAX_MATMUL_N, required=True
        ),
        "tile": tile,
        "element_size": _integer(
            spec, "element_size", path, default=8, minimum=1
        ),
        "alu_per_reference": _integer(
            spec,
            "alu_per_reference",
            path,
            default=2,
            minimum=0,
            maximum=MAX_ALU_PER_REFERENCE,
        ),
    }


def validate_cache_spec(
    spec: Any, path: str = "$.params.cache"
) -> dict[str, Any]:
    """One cache-geometry spec, normalized with defaults (shared like
    :func:`validate_trace_spec`)."""
    spec = _object(spec, path)
    _reject_unknown(spec, {"total_bytes", "line_size", "associativity"}, path)
    out = {
        "total_bytes": _integer(
            spec,
            "total_bytes",
            path,
            default=8192,
            minimum=1,
            maximum=1 << 24,
        ),
        "line_size": _integer(spec, "line_size", path, default=32, minimum=1),
        "associativity": _integer(
            spec, "associativity", path, default=2, minimum=1
        ),
    }
    for name in ("total_bytes", "line_size"):
        require(
            out[name] & (out[name] - 1) == 0,
            f"{path}.{name}",
            "must be a power of two",
        )
    return out


def require_fill_cycles(
    beta: float, line_sizes: list[int], bus_width: int, path: str
) -> None:
    """Reject a ``beta`` whose longest line fill (over ``line_sizes``)
    exceeds :data:`MAX_FILL_CYCLES`.  Shared with the campaign spec
    validator, like :func:`validate_trace_spec`."""
    chunks = max(line_sizes) // bus_width
    # chunks is a power of two, so the quotient is exact.
    limit = MAX_FILL_CYCLES / chunks
    require(
        beta <= limit,
        path,
        f"must be <= {limit} (a line fill of {chunks} bus transfers "
        f"may take at most {MAX_FILL_CYCLES} cycles)",
    )


# Internal aliases predating the shared (path-parameterized) names.
_validate_trace = validate_trace_spec
_validate_cache = validate_cache_spec


def validate_simulate(params: Any) -> dict[str, Any]:
    """``/v1/simulate``: an exact per-configuration ``TimingResult``."""
    params = _object(params, "$.params")
    _reject_unknown(
        params,
        {
            "trace",
            "cache",
            "policy",
            "memory_cycle",
            "bus_width",
            "write_buffer_depth",
            "pipelined_q",
            "issue_rate",
            "deadline_ms",
        },
        "$.params",
    )
    out = {
        "trace": _validate_trace(params.get("trace", {"kind": "spec92"})),
        "cache": _validate_cache(params.get("cache", {})),
        "policy": _choice(params, "policy", _POLICIES, "$.params", default="FS"),
        "memory_cycle": _number(
            params, "memory_cycle", "$.params", default=8.0, minimum=1.0
        ),
        "bus_width": _integer(params, "bus_width", "$.params", default=4, minimum=1),
        "write_buffer_depth": _integer(
            params, "write_buffer_depth", "$.params", minimum=0
        ),
        "pipelined_q": _number(params, "pipelined_q", "$.params", minimum=1.0),
        "issue_rate": _number(
            params, "issue_rate", "$.params", default=1.0, minimum=1.0
        ),
        "deadline_ms": _number(params, "deadline_ms", "$.params", minimum=1.0),
    }
    require(
        out["cache"]["line_size"] % out["bus_width"] == 0,
        "$.params.cache.line_size",
        f"must be a multiple of bus_width ({out['bus_width']})",
    )
    require_fill_cycles(
        out["memory_cycle"],
        [out["cache"]["line_size"]],
        out["bus_width"],
        "$.params.memory_cycle",
    )
    return out


def validate_sweep(params: Any) -> dict[str, Any]:
    """``/v1/sweep``: a (geometry x policy x beta_m) grid over one trace.

    The grid is the cross product ``caches x policies x memory_cycles``
    — exactly the empirical-grid shape the paper's methodology is swept
    with (Figures 3-5 ask the same question at many betas; the related
    split-cache studies sweep geometry).  Grid *enumeration* is
    deterministic and cache-major (see :func:`sweep_grid`), which is
    what lets the fleet router shard a sweep by geometry and re-merge
    the stream (``docs/SERVICE.md``, "Fleet mode").
    """
    params = _object(params, "$.params")
    _reject_unknown(
        params,
        {
            "trace",
            "caches",
            "policies",
            "memory_cycles",
            "bus_width",
            "write_buffer_depth",
            "pipelined_q",
            "issue_rate",
            "deadline_ms",
        },
        "$.params",
    )
    out: dict[str, Any] = {
        "trace": _validate_trace(params.get("trace", {"kind": "spec92"})),
        "bus_width": _integer(params, "bus_width", "$.params", default=4, minimum=1),
        "write_buffer_depth": _integer(
            params, "write_buffer_depth", "$.params", minimum=0
        ),
        "pipelined_q": _number(params, "pipelined_q", "$.params", minimum=1.0),
        "issue_rate": _number(
            params, "issue_rate", "$.params", default=1.0, minimum=1.0
        ),
        "deadline_ms": _number(params, "deadline_ms", "$.params", minimum=1.0),
    }

    caches = params.get("caches", [{}])
    require(
        isinstance(caches, list) and caches and len(caches) <= 64,
        "$.params.caches",
        "must be a non-empty list of at most 64 cache specs",
    )
    out["caches"] = [_validate_cache(spec) for spec in caches]
    for i, cache in enumerate(out["caches"]):
        require(
            cache["line_size"] % out["bus_width"] == 0,
            f"$.params.caches[{i}].line_size",
            f"must be a multiple of bus_width ({out['bus_width']})",
        )

    policies = params.get("policies", ["FS"])
    require(
        isinstance(policies, list) and policies,
        "$.params.policies",
        "must be a non-empty list of stall policies",
    )
    for i, policy in enumerate(policies):
        require(
            isinstance(policy, str) and policy in _POLICIES,
            f"$.params.policies[{i}]",
            f"must be one of {list(_POLICIES)}",
        )
    out["policies"] = list(policies)

    betas = params.get("memory_cycles")
    require(
        isinstance(betas, list) and betas,
        "$.params.memory_cycles",
        "must be a non-empty list of numbers",
    )
    for i, beta in enumerate(betas):
        require_number(beta, f"$.params.memory_cycles[{i}]")
        require(beta >= 1.0, f"$.params.memory_cycles[{i}]", "must be >= 1")
        require_fill_cycles(
            beta,
            [cache["line_size"] for cache in out["caches"]],
            out["bus_width"],
            f"$.params.memory_cycles[{i}]",
        )
    out["memory_cycles"] = [float(beta) for beta in betas]

    points = len(out["caches"]) * len(out["policies"]) * len(out["memory_cycles"])
    require(
        points <= MAX_SWEEP_POINTS,
        "$.params",
        f"grid expands to {points} points, more than the "
        f"{MAX_SWEEP_POINTS}-point limit",
    )
    return out


def sweep_point_count(validated: dict[str, Any]) -> int:
    """How many points a validated sweep expands to."""
    return (
        len(validated["caches"])
        * len(validated["policies"])
        * len(validated["memory_cycles"])
    )


def sweep_grid(validated: dict[str, Any]):
    """Lazily expand a validated sweep into ``(index, point, params)``.

    A generator — a million-point grid is never materialized.
    Enumeration is **cache-major** (geometry outer, then policy, then
    beta_m): consecutive points share an events-store key, so they
    coalesce in one worker's micro-batch, and a geometry subset of the
    grid is itself a valid sub-grid — the property the fleet router's
    sharding relies on to forward one sub-sweep per worker and rewrite
    local indices back to global ones.
    """
    index = 0
    for cache_index, cache in enumerate(validated["caches"]):
        for policy in validated["policies"]:
            for beta in validated["memory_cycles"]:
                point = {
                    "cache_index": cache_index,
                    "cache": cache,
                    "policy": policy,
                    "memory_cycle": beta,
                }
                params = {
                    "trace": validated["trace"],
                    "cache": cache,
                    "policy": policy,
                    "memory_cycle": beta,
                    "bus_width": validated["bus_width"],
                    "write_buffer_depth": validated["write_buffer_depth"],
                    "pipelined_q": validated["pipelined_q"],
                    "issue_rate": validated["issue_rate"],
                    "deadline_ms": validated["deadline_ms"],
                }
                yield index, point, params
                index += 1
