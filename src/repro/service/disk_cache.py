"""Disk-backed, content-addressed result cache for the serving layer.

The in-process :class:`~repro.service.result_cache.ResultCache` dies
with its process; a fleet restart (deploy, crash, host move) used to
re-pay every replay.  This module persists the same serialized
``result`` payloads to disk — content-addressed by the same SHA-256 key
:func:`~repro.service.result_cache.result_key` derives — so a re-booted
server (or a whole fleet: the directory is shared, keys are
content-addressed, writes are atomic) starts warm.

The on-disk format deliberately mirrors :mod:`repro.cache.events_store`:

* one payload file (``<key>.bin``, the exact result bytes the server
  would send) plus a JSON sidecar (``<key>.json``) holding the store
  version, the result-cache key version, and the payload size;
* both written atomically (temp file + ``os.replace``) so a killed
  process never leaves a truncated entry;
* any load failure — corrupt payload, size mismatch, version skew,
  truncated sidecar — is a silent miss that falls back to recompute,
  with the diagnostic-only ``result_store.corrupt_recompute`` counter
  bumped (exactly the ``events_store.corrupt_reextract`` contract);
* byte-budgeted: when the directory exceeds the budget, the
  oldest-used entries (sidecar mtime, refreshed on hit) are evicted.

Opt-in / redirection via environment (mirroring the events store):

* the cache is **off by default** — a server enables it with
  ``--disk-cache-dir`` (or programmatically via
  :class:`~repro.service.server.ServerConfig`), keeping the
  byte-identical cold/warm determinism pins meaningful;
* ``REPRO_RESULT_CACHE=0`` (or ``off``) force-disables it;
* ``REPRO_RESULT_CACHE_DIR=<path>`` overrides the configured directory
  (the test suite points it at a temp dir).
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path

from repro.obs import metrics, tracing
from repro.service.result_cache import RESULT_CACHE_VERSION
from repro.util import atomic_io, store_gc

log = logging.getLogger("repro.result_store")

#: Bump when the on-disk layout (file naming, sidecar format) changes.
STORE_VERSION = 1

#: Set to ``0``/``off``/``false`` to force-disable the disk cache.
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"

#: Overrides the configured cache directory.
RESULT_CACHE_DIR_ENV = "REPRO_RESULT_CACHE_DIR"

_DISABLED_VALUES = frozenset({"0", "off", "false", "no"})

#: Default byte budget when a server enables the cache without one.
DEFAULT_CAPACITY_BYTES = 64 * 1024 * 1024


def cache_enabled() -> bool:
    """Whether the env kill-switch allows the disk cache (checked per
    call, so tests and operators can flip it at runtime)."""
    value = os.environ.get(RESULT_CACHE_ENV)
    return value is None or value.strip().lower() not in _DISABLED_VALUES


def default_cache_dir() -> Path:
    """The conventional location (``$XDG_CACHE_HOME/repro/results``)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "results"


def resolve_cache_dir(configured: str | os.PathLike[str] | None) -> Path:
    """The directory to use: env override, else configured, else default."""
    override = os.environ.get(RESULT_CACHE_DIR_ENV)
    if override:
        return Path(override)
    if configured is not None:
        return Path(configured)
    return default_cache_dir()


class DiskResultCache:
    """Byte-budgeted on-disk store of serialized simulate results.

    One instance per server process; multiple processes (the fleet's
    workers) may share a directory — entries are content-addressed and
    written atomically, so concurrent writers at worst double-write the
    same bytes.  Budget enforcement is therefore best-effort per
    process: each writer evicts down to the budget as it sees the
    directory.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be > 0, got {capacity_bytes}"
            )
        self.directory = Path(directory)
        self.capacity_bytes = capacity_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- paths and sidecars ------------------------------------------------

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.directory / f"{key}.bin", self.directory / f"{key}.json"

    def _sidecar(self, key: str, payload: bytes) -> dict[str, object]:
        return {
            "store_version": STORE_VERSION,
            "result_cache_version": RESULT_CACHE_VERSION,
            "key": key,
            "size": len(payload),
        }

    # -- the cache interface ----------------------------------------------

    def get(self, key: str) -> bytes | None:
        """The stored payload, or ``None`` on miss/corruption/disabled."""
        if not cache_enabled():
            return None
        bin_path, meta_path = self._paths(key)
        try:
            with tracing.span("result_store.load", key=key[:12]):
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if (
                    meta.get("store_version") != STORE_VERSION
                    or meta.get("result_cache_version") != RESULT_CACHE_VERSION
                    or meta.get("key") != key
                ):
                    self.misses += 1
                    return None
                payload = bin_path.read_bytes()
                if len(payload) != meta.get("size"):
                    raise ValueError(
                        f"payload is {len(payload)} bytes, "
                        f"sidecar says {meta.get('size')!r}"
                    )
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:  # noqa: BLE001 - any corruption => recompute
            # Mirrors events_store: regenerated transparently, but worth
            # a diagnostic signal (stable_view strips the counter).
            metrics.inc("result_store.corrupt_recompute")
            log.warning(
                "result_store: corrupt entry %s (%s: %s); recomputing",
                key[:12],
                type(exc).__name__,
                exc,
            )
            self.misses += 1
            return None
        self.hits += 1
        self._touch(meta_path)
        return payload

    def put(self, key: str, payload: bytes) -> None:
        """Persist one result (best-effort: failures only log).

        A payload larger than the whole budget is not stored.  After a
        successful write the directory is trimmed back under the budget,
        oldest-used sidecar first.
        """
        if not cache_enabled() or len(payload) > self.capacity_bytes:
            return
        bin_path, meta_path = self._paths(key)
        sidecar = json.dumps(
            self._sidecar(key, payload), indent=2, sort_keys=True
        ).encode("utf-8")
        try:
            with tracing.span("result_store.save", key=key[:12]):
                self.directory.mkdir(parents=True, exist_ok=True)
                atomic_io.write_bytes(bin_path, payload)
                atomic_io.write_bytes(meta_path, sidecar)
        except OSError as exc:
            log.debug("result_store: save failed for %s: %s", key[:12], exc)
            return
        self._enforce_budget(keep=key)

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.bin"))
        except OSError:
            return 0

    @property
    def size_bytes(self) -> int:
        """Current payload footprint on disk (best-effort)."""
        total = 0
        try:
            for bin_path in self.directory.glob("*.bin"):
                try:
                    total += bin_path.stat().st_size
                except OSError:
                    continue
        except OSError:
            return 0
        return total

    # -- budget ------------------------------------------------------------

    @staticmethod
    def _touch(meta_path: Path) -> None:
        """Refresh a sidecar's mtime (the eviction recency signal)."""
        try:
            os.utime(meta_path, (time.time(), time.time()))
        except OSError:
            pass

    def _enforce_budget(self, keep: str | None = None) -> None:
        """Evict oldest-used entries until the directory fits the budget.

        The planning (oldest sidecar mtime first, orphans ignored) is
        the shared :mod:`repro.util.store_gc` helper — the same policy
        ``python -m repro cache gc`` applies offline.
        """
        entries, _orphans = store_gc.scan_store(self.directory, ".bin", ".json")
        for entry in store_gc.plan_evictions(
            entries, self.capacity_bytes, keep=keep
        ):
            if store_gc.remove_entry(entry):
                self.evictions += 1

    def stats(self) -> dict[str, object]:
        """JSON-ready view for ``/v1/stats``."""
        return {
            "directory": str(self.directory),
            "entries": len(self),
            "bytes": self.size_bytes,
            "capacity_bytes": self.capacity_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
