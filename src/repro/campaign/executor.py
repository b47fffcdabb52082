"""The resumable campaign executor.

Drives a registered campaign's pending points to completion through the
*existing* query paths — locally via
:func:`repro.service.queries.resolve_events` /
:func:`~repro.service.queries.simulate_from_events` (the exact
functions the service's micro-batcher calls; phase 1 resolves once per
(trace, geometry) column through the same
:class:`~repro.service.queries.EventsMemo`), or remotely via a running
service / fleet (``--via-service URL``) using ``/v1/sweep`` streams for
whole cache columns and ``/v1/simulate`` for stragglers.

Checkpoint discipline: state is saved after every *chunk* (default 32
points, matching the service's ``SWEEP_CHUNK``), atomically, with a
checksum sidecar.  Kill the executor at any instant and the next run
loads the last checkpoint, re-derives anything mid-flight from the
content-addressed artifact store, and continues — completed points are
**never** re-simulated (test-pinned via the engine's phase-1 dispatch
counters) and the final ``results.jsonl`` is byte-identical to an
uninterrupted run.

Byte-identity across modes: an artifact stores ``dump_json(result)``
bytes — the same canonical rendering the service's result caches hold —
so a campaign completed locally, over the wire, or half-and-half
produces identical files.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Iterable

from repro.cache.events import EventStream
from repro.campaign import spec as spec_mod
from repro.campaign.registry import Campaign
from repro.obs import metrics, tracing
from repro.service import queries
from repro.util.jsonout import dump_json

log = logging.getLogger("repro.campaign")

#: Points per checkpoint chunk; mirrors ``ServiceApp.SWEEP_CHUNK``.
DEFAULT_CHUNK = 32

#: Mid-stream reconnects the service path tolerates per sweep (the
#: client re-issues and dedupes by global index, mirroring the router's
#: sub-stream resume).
DEFAULT_RESUME_RETRIES = 2


def classify_error(error: BaseException) -> dict[str, Any]:
    """A local failure as the service's structured point-error shape,
    so state entries look the same whichever path produced them."""
    if isinstance(error, queries.InvalidQuery):
        status, code = 400, "invalid_params"
    else:
        status, code = 500, "internal_error"
    return {
        "code": code,
        "message": str(error) or type(error).__name__,
        "status": status,
    }


def _remote_error(error: BaseException) -> dict[str, Any]:
    """A client-side failure as the structured point-error shape,
    preserving the service's own code/status when it answered."""
    status = getattr(error, "status", None)
    code = getattr(error, "code", None)
    if isinstance(status, int) and isinstance(code, str):
        return {
            "code": code,
            "message": str(error) or type(error).__name__,
            "status": status,
        }
    return classify_error(error)


class _Checkpointer:
    """Counts terminal points and saves state every ``chunk_size``."""

    def __init__(
        self,
        campaign: Campaign,
        status: dict[int, dict[str, Any]],
        chunk_size: int,
        max_chunks: int | None,
        progress: Callable[[dict[str, Any]], None] | None,
    ) -> None:
        self.campaign = campaign
        self.status = status
        self.chunk_size = chunk_size
        self.max_chunks = max_chunks
        self.progress = progress
        self.chunks = 0
        self._since_save = 0

    def record(self, index: int, entry: dict[str, Any]) -> None:
        self.status[index] = entry
        self._since_save += 1
        if self._since_save >= self.chunk_size:
            self.flush()

    def flush(self) -> None:
        if self._since_save == 0:
            return
        with tracing.span(
            "campaign.chunk",
            campaign=self.campaign.id[:12],
            chunk=self.chunks,
            points=self._since_save,
        ):
            self.campaign.save_state(self.status)
        self._since_save = 0
        self.chunks += 1
        metrics.inc("campaign.checkpoints")
        if self.progress is not None:
            self.progress(self.campaign.progress(self.status))

    @property
    def exhausted(self) -> bool:
        """Whether the chunk budget (``max_chunks``) is spent."""
        return self.max_chunks is not None and self.chunks >= self.max_chunks


def _pending_points(
    campaign: Campaign,
    status: dict[int, dict[str, Any]],
    retry_errors: bool,
) -> list[spec_mod.CampaignPoint]:
    pending = []
    for cp in spec_mod.iter_points(campaign.spec):
        entry = status.get(cp.index)
        if entry is None or (retry_errors and "error" in entry):
            if entry is not None:
                del status[cp.index]
            pending.append(cp)
    return pending


def _column_events(
    campaign: Campaign, memo: queries.EventsMemo, params: dict[str, Any]
) -> EventStream:
    """Phase 1 for ``params``: the memo's stream for its (trace,
    geometry) key, resolved (and remembered) on a key change."""
    key = queries.events_key_of(params)
    events = memo.get(key)
    if events is None:
        with tracing.span(
            "campaign.phase1", campaign=campaign.id[:12], key=key[:12]
        ):
            events = queries.resolve_events(params)
        memo.put(key, events)
    return events


def _run_local(
    campaign: Campaign,
    pending: list[spec_mod.CampaignPoint],
    checkpointer: _Checkpointer,
    counts: dict[str, int],
) -> None:
    # Points come trace-major, cache-major (resumes keep that order),
    # so one (trace, geometry) column is contiguous: a one-entry memo
    # resolves phase 1 once per column, not once per point.
    memo = queries.EventsMemo(1)
    for cp in pending:
        if checkpointer.exhausted:
            return
        key = campaign.result_key_of(cp.point)
        if campaign.load_artifact(key) is not None:
            # A previous (killed) run stored the artifact but died
            # before the checkpoint: adopt it, zero re-simulation.
            counts["reused"] += 1
            checkpointer.record(cp.index, {"artifact": key})
            continue
        params = spec_mod.point_params(campaign.spec, cp.point)
        try:
            events = _column_events(campaign, memo, params)
            with tracing.span(
                "campaign.point", campaign=campaign.id[:12], index=cp.index
            ):
                result = queries.simulate_from_events(params, events)
        except Exception as error:  # noqa: BLE001 - recorded per point
            counts["errors"] += 1
            metrics.inc("campaign.points", outcome="error")
            checkpointer.record(cp.index, {"error": classify_error(error)})
            continue
        campaign.store_artifact(key, dump_json(result).encode("utf-8"))
        counts["simulated"] += 1
        metrics.inc("campaign.points", outcome="done")
        checkpointer.record(cp.index, {"artifact": key})


def _record_remote(
    campaign: Campaign,
    cp: spec_mod.CampaignPoint,
    record: dict[str, Any],
    checkpointer: _Checkpointer,
    counts: dict[str, int],
) -> None:
    """Fold one service point record into campaign state."""
    if "error" in record:
        counts["errors"] += 1
        metrics.inc("campaign.points", outcome="error")
        checkpointer.record(cp.index, {"error": record["error"]})
        return
    key = campaign.result_key_of(cp.point)
    campaign.store_artifact(
        key, dump_json(record["result"]).encode("utf-8")
    )
    counts["simulated"] += 1
    metrics.inc("campaign.points", outcome="done")
    checkpointer.record(cp.index, {"artifact": key})


def _run_via_service(
    campaign: Campaign,
    pending: list[spec_mod.CampaignPoint],
    checkpointer: _Checkpointer,
    counts: dict[str, int],
    client: Any,
    resume_retries: int,
) -> None:
    """Drive pending points through a running service / fleet.

    Whole pending cache columns of one trace become a single
    ``/v1/sweep`` stream (sharded across the fleet when the URL is a
    router); leftover single points go through ``/v1/simulate``.
    """
    spec = campaign.spec
    per = len(spec["policies"]) * len(spec["memory_cycles"])
    per_trace = len(spec["caches"]) * per
    by_index = {cp.index: cp for cp in pending}

    for trace_index, trace in enumerate(spec["traces"]):
        if checkpointer.exhausted:
            return
        base = trace_index * per_trace
        mine = [cp for cp in pending if cp.point["trace_index"] == trace_index]
        if not mine:
            continue
        # Cache columns where *every* cell is pending sweep as one
        # stream; anything else would re-request settled points.
        full_columns = [
            ci
            for ci in range(len(spec["caches"]))
            if all(
                base + ci * per + rem in by_index for rem in range(per)
            )
        ]
        stragglers = [
            cp
            for cp in mine
            if cp.point["cache_index"] not in full_columns
        ]
        if full_columns and not checkpointer.exhausted:
            sweep_params: dict[str, Any] = {
                "trace": trace,
                "caches": [spec["caches"][ci] for ci in full_columns],
                "policies": spec["policies"],
                "memory_cycles": spec["memory_cycles"],
                "bus_width": spec["bus_width"],
                "issue_rate": spec["issue_rate"],
            }
            for key in ("write_buffer_depth", "pipelined_q", "deadline_ms"):
                if spec[key] is not None:
                    sweep_params[key] = spec[key]
            for record in client.sweep(
                resume_retries=resume_retries, **sweep_params
            ):
                if "schema" in record or "done" in record:
                    continue
                # Sweep index -> campaign index: the stream enumerates
                # the *subset* grid cache-major, so its cache slot maps
                # through full_columns back to the spec's cache index.
                sweep_index = record["index"]
                ci = full_columns[sweep_index // per]
                rem = sweep_index % per
                index = base + ci * per + rem
                cp = by_index[index]
                if checkpointer.exhausted:
                    break
                _record_remote(campaign, cp, record, checkpointer, counts)
        for cp in stragglers:
            if checkpointer.exhausted:
                return
            params = spec_mod.point_params(spec, cp.point)
            try:
                envelope = client.simulate(**spec_mod.wire_params(params))
            except Exception as error:  # noqa: BLE001 - recorded per point
                counts["errors"] += 1
                metrics.inc("campaign.points", outcome="error")
                checkpointer.record(
                    cp.index, {"error": _remote_error(error)}
                )
                continue
            _record_remote(
                campaign,
                cp,
                {"result": envelope["result"]},
                checkpointer,
                counts,
            )


def run_campaign(
    campaign: Campaign,
    *,
    chunk_size: int = DEFAULT_CHUNK,
    max_chunks: int | None = None,
    retry_errors: bool = False,
    client: Any = None,
    resume_retries: int = DEFAULT_RESUME_RETRIES,
    progress: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """Run (or resume) a campaign until complete or out of chunks.

    ``client`` switches to the service path (any object with the
    :class:`~repro.service.client.ServiceClient` ``sweep``/``request``
    shape); ``max_chunks`` bounds this invocation to N checkpoints —
    the deterministic stand-in for "the process died here" that the
    crash-resume tests build on.  ``retry_errors`` clears previously
    errored points (deadline blips) back to pending first.

    Returns a JSON-ready report; ``results.jsonl`` is (re)written
    whenever the campaign ends this run complete.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    status = campaign.load_state()
    pending = _pending_points(campaign, status, retry_errors)
    counts = {"simulated": 0, "reused": 0, "errors": 0}
    checkpointer = _Checkpointer(
        campaign, status, chunk_size, max_chunks, progress
    )
    with tracing.span(
        "campaign.run", campaign=campaign.id[:12], pending=len(pending)
    ):
        if client is None:
            _run_local(campaign, pending, checkpointer, counts)
        else:
            _run_via_service(
                campaign, pending, checkpointer, counts, client, resume_retries
            )
        checkpointer.flush()
    final = campaign.progress(status)
    if final["complete"]:
        campaign.write_results(status)
    return {
        "campaign": campaign.id,
        "chunks": checkpointer.chunks,
        **counts,
        "progress": final,
    }


def iter_status_points(
    campaign: Campaign,
) -> Iterable[tuple[spec_mod.CampaignPoint, dict[str, Any] | None]]:
    """(point, state entry) pairs in index order — shared by the CLI's
    status table and the comparison loader."""
    status = campaign.load_state()
    for cp in spec_mod.iter_points(campaign.spec):
        yield cp, status.get(cp.index)
