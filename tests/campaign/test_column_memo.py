"""The local executor resolves phase 1 once per (trace, geometry) column.

Points run trace-major, cache-major, so every (trace, geometry) column
is contiguous and a one-entry memo suffices: the events store is read
once per distinct key however many (policy, beta_m) cells the column
holds, and a run stopped mid-column resumes to the same bytes.
"""

import pytest

from repro.cache import events_store
from repro.campaign.executor import run_campaign
from repro.campaign.registry import CampaignRegistry
from repro.obs import tracing

DOC = {
    "name": "column-memo",
    "traces": [
        {"kind": "spec92", "name": "ear", "instructions": 400},
        {"kind": "spec92", "name": "swm256", "instructions": 400},
    ],
    "caches": [
        {"total_bytes": 4096, "line_size": 32, "associativity": 1},
        {"total_bytes": 8192, "line_size": 32, "associativity": 2},
    ],
    "policies": ["FS", "BNL3"],
    "memory_cycles": [4.0, 8.0, 12.0],
}
POINTS = 2 * 2 * 2 * 3
COLUMNS = 2 * 2


@pytest.fixture
def counted_loads(monkeypatch):
    """Keys passed to the real ``events_store.load``, in call order."""
    keys = []
    real_load = events_store.load

    def load(trace_fingerprint, config):
        keys.append(events_store.entry_key(trace_fingerprint, config))
        return real_load(trace_fingerprint, config)

    monkeypatch.setattr(events_store, "load", load)
    return keys


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """An uninterrupted run: the byte-identity reference."""
    registry = CampaignRegistry(tmp_path_factory.mktemp("golden"))
    campaign, _ = registry.submit(DOC)
    report = run_campaign(campaign)
    assert report["progress"]["complete"]
    assert report["simulated"] == POINTS
    return campaign


class TestColumnMemo:
    def test_one_store_load_per_distinct_key(self, tmp_path, counted_loads):
        registry = CampaignRegistry(tmp_path / "reg")
        campaign, _ = registry.submit(DOC)
        report = run_campaign(campaign, chunk_size=5)
        assert report["simulated"] == POINTS
        assert len(set(counted_loads)) == COLUMNS
        assert len(counted_loads) == COLUMNS

    def test_phase1_span_once_per_column(self, tmp_path):
        registry = CampaignRegistry(tmp_path / "reg")
        campaign, _ = registry.submit(DOC)
        tracer = tracing.enable_tracing()
        try:
            run_campaign(campaign)
        finally:
            tracing.disable_tracing()
        names = [event["name"] for event in tracer.events]
        assert names.count("campaign.phase1") == COLUMNS
        assert names.count("campaign.point") == POINTS

    def test_mid_column_resume_is_byte_identical(
        self, golden, tmp_path, counted_loads
    ):
        registry = CampaignRegistry(tmp_path / "reg")
        campaign, _ = registry.submit(DOC)
        # Three points into a six-point column, then "killed".
        partial = run_campaign(campaign, chunk_size=3, max_chunks=1)
        assert partial["simulated"] == 3
        assert not partial["progress"]["complete"]
        resumed = run_campaign(campaign, chunk_size=3)
        assert resumed["progress"]["complete"]
        assert partial["simulated"] + resumed["simulated"] == POINTS
        # The resume re-resolves the interrupted column once.
        assert len(counted_loads) == COLUMNS + 1
        assert (
            campaign.results_path.read_bytes()
            == golden.results_path.read_bytes()
        )
        assert (
            campaign.summary_path.read_bytes()
            == golden.summary_path.read_bytes()
        )
