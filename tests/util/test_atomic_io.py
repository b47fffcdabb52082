"""Atomic writes survive short ``os.write`` calls.

``os.write`` may write fewer bytes than it is given; the writer must
loop, or a truncated file is renamed into place.  These tests let every
call write at most 7 bytes.
"""

import os

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.registry import CampaignRegistry
from repro.obs import validate
from repro.service.disk_cache import DiskResultCache
from repro.util import atomic_io

DOC = {
    "name": "short-writes",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 400}],
    "caches": [{"total_bytes": 4096, "line_size": 32}],
    "policies": ["FS", "BNL3"],
    "memory_cycles": [4.0, 8.0],
}


@pytest.fixture
def short_writes(monkeypatch):
    real_write = os.write
    calls = []

    def write(fd, data):
        calls.append(len(data))
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", write)
    return calls


def _tree(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_write_bytes_loops_until_done(tmp_path, short_writes):
    data = bytes(range(256)) * 3
    atomic_io.write_bytes(tmp_path / "f.bin", data)
    assert (tmp_path / "f.bin").read_bytes() == data
    assert len(short_writes) == -(-len(data) // 7)
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", fail)
    with pytest.raises(OSError):
        atomic_io.write_bytes(tmp_path / "f.bin", b"payload")
    assert list(tmp_path.iterdir()) == []


def test_campaign_artifacts_are_byte_identical(tmp_path, monkeypatch):
    golden, _ = CampaignRegistry(tmp_path / "golden").submit(DOC)
    assert run_campaign(golden)["progress"]["complete"]
    real_write = os.write
    monkeypatch.setattr(
        os, "write", lambda fd, data: real_write(fd, bytes(data[:7]))
    )
    campaign, _ = CampaignRegistry(tmp_path / "short").submit(DOC)
    assert run_campaign(campaign, chunk_size=1)["progress"]["complete"]
    monkeypatch.undo()
    assert _tree(campaign.dir) == _tree(golden.dir)
    assert validate.main(["--campaign", str(campaign.dir)]) == 0


def test_disk_result_cache_round_trip(tmp_path, short_writes):
    cache = DiskResultCache(tmp_path / "results")
    payload = b'{"cycles": 12345.0, "engine": "replay"}'
    cache.put("k1", payload)
    assert short_writes
    assert DiskResultCache(cache.directory).get("k1") == payload
