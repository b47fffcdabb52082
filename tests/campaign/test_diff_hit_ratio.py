"""``campaign diff`` resolves each (trace, geometry) pair's hit ratio once."""

import pytest

from repro.cache import events_store
from repro.campaign import compare
from repro.campaign.executor import run_campaign
from repro.campaign.registry import CampaignRegistry

TRACE = {"kind": "spec92", "name": "ear", "instructions": 400}
CACHES = [
    {"total_bytes": 4096, "line_size": 32},
    {"total_bytes": 8192, "line_size": 32},
]


@pytest.fixture(scope="module")
def cohorts(tmp_path_factory):
    registry = CampaignRegistry(tmp_path_factory.mktemp("diff-memo"))
    for name, betas in (("a", [4.0, 8.0, 12.0]), ("b", [8.0, 12.0, 16.0])):
        campaign, _ = registry.submit(
            {
                "name": name,
                "traces": [TRACE],
                "caches": CACHES,
                "policies": ["FS", "BL"],
                "memory_cycles": betas,
            }
        )
        assert run_campaign(campaign)["progress"]["complete"]
    return registry


def test_one_store_load_per_distinct_key(cohorts, monkeypatch):
    keys = []
    real_load = events_store.load

    def load(trace_fingerprint, config):
        keys.append(events_store.entry_key(trace_fingerprint, config))
        return real_load(trace_fingerprint, config)

    monkeypatch.setattr(events_store, "load", load)
    _, spec_a, cohort_a = compare.resolve_cohort(cohorts, "a")
    _, spec_b, cohort_b = compare.resolve_cohort(cohorts, "b")
    report = compare.diff_cohorts(spec_a, cohort_a, spec_b, cohort_b)
    # Two caches x two policies x two shared betas.
    assert report["matched"] == 8
    assert all(row["delta_hit_ratio"] == 0.0 for row in report["rows"])
    assert len(keys) == len(set(keys)) == len(CACHES)
