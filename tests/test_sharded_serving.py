"""ShardedEstimationService: hash routing, manifests, façade parity.

The sharding contract: a session lives on exactly one shard chosen by a
stable hash of its name, the shard count is recorded in the root
manifest and validated on reopen, and the façade is indistinguishable
from a single :class:`EstimationService` — ``N=1`` *is* one service.
"""

from __future__ import annotations

import errno
import json

import pytest

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.labels import CLEAN, DIRTY
from repro.serving import (
    EstimationService,
    MemorySessionStore,
    ShardedEstimationService,
    shard_index,
)
from repro.streaming import serving as serving_module
from repro.streaming.serving import SHARD_MANIFEST_FILENAME, reconcile_shard_manifest

ESTIMATORS = ["voting", "chao92"]


def _batch(offset: int = 0):
    return [{offset % 4: DIRTY, (offset + 1) % 4: CLEAN}]


def _populate(service, names):
    for index, name in enumerate(names):
        service.create_session(name, range(4), ESTIMATORS)
        service.ingest(name, _batch(index), source="t", sequence=1)


class TestRouting:
    def test_shard_index_is_stable_and_in_range(self):
        for name in ("alpha", "beta", "tenant-042"):
            first = shard_index(name, 7)
            assert first == shard_index(name, 7)
            assert 0 <= first < 7
        assert shard_index("anything", 1) == 0

    def test_shard_index_validates_inputs(self):
        with pytest.raises(ValidationError):
            shard_index("ok", 0)
        with pytest.raises(ValidationError):
            shard_index("bad name!", 4)

    def test_sessions_land_on_their_hashed_shard_only(self, tmp_path):
        service = ShardedEstimationService(tmp_path, num_shards=4)
        names = [f"tenant-{i:02d}" for i in range(16)]
        _populate(service, names)
        for name in names:
            owner = service.shard_of(name)
            for index, shard in enumerate(service.shards):
                assert (name in shard.sessions()) == (index == owner)
        assert service.sessions() == sorted(names)

    def test_memory_backed_sharding_needs_no_root(self):
        service = ShardedEstimationService(num_shards=3)
        assert service.root is None
        _populate(service, ["a", "b", "c"])
        assert service.sessions() == ["a", "b", "c"]


class TestRootManifest:
    def test_manifest_written_once_and_reused(self, tmp_path):
        ShardedEstimationService(tmp_path, num_shards=4)
        manifest = json.loads(
            (tmp_path / SHARD_MANIFEST_FILENAME).read_text(encoding="utf-8")
        )
        assert manifest["num_shards"] == 4
        reopened = ShardedEstimationService(tmp_path)  # count comes from disk
        assert reopened.num_shards == 4
        explicit = ShardedEstimationService(tmp_path, num_shards=4)
        assert explicit.num_shards == 4

    def test_mismatched_shard_count_rejected_on_reopen(self, tmp_path):
        ShardedEstimationService(tmp_path, num_shards=4)
        with pytest.raises(ConfigurationError, match="shard count mismatch"):
            ShardedEstimationService(tmp_path, num_shards=2)

    def test_unsupported_manifest_version_rejected(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / SHARD_MANIFEST_FILENAME).write_text(
            json.dumps({"format_version": 99, "num_shards": 2}), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="manifest version"):
            ShardedEstimationService(tmp_path)

    @pytest.mark.parametrize(
        "document",
        [
            {"format_version": 1},
            {"format_version": 1, "num_shards": "x"},
            {"format_version": 1, "num_shards": True},
            {"format_version": 1, "num_shards": 0},
            {"format_version": 1, "num_shards": -2},
            {"format_version": 1, "num_shards": 1.5},
        ],
        ids=["missing", "string", "bool", "zero", "negative", "fraction"],
    )
    def test_a_malformed_shard_count_is_rejected_naming_the_file(
        self, tmp_path, document
    ):
        manifest = tmp_path / SHARD_MANIFEST_FILENAME
        manifest.write_text(json.dumps(document), encoding="utf-8")
        for open_root in (
            lambda: ShardedEstimationService(tmp_path),
            lambda: reconcile_shard_manifest(tmp_path, None),
        ):
            with pytest.raises(ConfigurationError, match="num_shards") as caught:
                open_root()
            assert str(manifest) in str(caught.value)
        assert json.loads(manifest.read_text(encoding="utf-8")) == document

    def test_a_crashed_writers_staging_file_is_swept_on_open(self, tmp_path):
        ShardedEstimationService(tmp_path, num_shards=2)
        leftover = tmp_path / f".{SHARD_MANIFEST_FILENAME}.tmp-dead"
        leftover.write_text("{", encoding="utf-8")
        assert ShardedEstimationService(tmp_path).num_shards == 2
        assert [path.name for path in tmp_path.iterdir()] == [SHARD_MANIFEST_FILENAME]

    def test_a_failed_manifest_rename_leaves_no_staging_file(
        self, tmp_path, monkeypatch
    ):
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(serving_module.os, "replace", full_disk)
        with pytest.raises(OSError):
            reconcile_shard_manifest(tmp_path, 3)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        assert reconcile_shard_manifest(tmp_path, 3) == 3

    def test_sharded_root_survives_crash_and_reopen(self, tmp_path):
        service = ShardedEstimationService(tmp_path, num_shards=4)
        names = [f"tenant-{i:02d}" for i in range(8)]
        _populate(service, names)
        live = {name: service.estimates(name) for name in names}
        del service
        recovered = ShardedEstimationService(tmp_path)
        assert {name: recovered.estimates(name) for name in names} == live


class TestFacadeParity:
    def test_single_shard_matches_a_plain_service(self, tmp_path):
        sharded = ShardedEstimationService(tmp_path / "sharded", num_shards=1)
        plain = EstimationService(MemorySessionStore())
        for service in (sharded, plain):
            _populate(service, ["a", "b"])
            service.ingest("a", _batch(5), source="t", sequence=2)
        assert sharded.estimates("a") == plain.estimates("a")
        assert sharded.estimates("b") == plain.estimates("b")
        assert sharded.progress("a") == plain.progress("a")
        assert sharded.sessions() == plain.sessions()

    def test_idempotent_ingest_travels_through_the_shard(self, tmp_path):
        service = ShardedEstimationService(tmp_path, num_shards=3)
        service.create_session("a", range(4), ESTIMATORS)
        assert not service.ingest("a", _batch(), source="t", sequence=1).duplicate
        assert service.ingest("a", _batch(), source="t", sequence=1).duplicate

    def test_unknown_session_names_all_shards_error_cleanly(self, tmp_path):
        service = ShardedEstimationService(tmp_path, num_shards=2)
        with pytest.raises(ConfigurationError, match="unknown session"):
            service.estimates("ghost")

    def test_drop_compact_evict_and_counters_route_correctly(self, tmp_path):
        service = ShardedEstimationService(tmp_path, num_shards=2, max_active=1)
        names = [f"tenant-{i:02d}" for i in range(6)]
        _populate(service, names)
        for name in names:
            service.estimates(name)
        assert service.estimates_served >= len(names)
        assert service.sessions_evicted > 0  # max_active=1 per shard forced churn
        service.compact(names[0])
        owner = service.shards[service.shard_of(names[0])]
        assert owner.store.log_size(names[0]) == 0
        service.drop(names[0])
        assert names[0] not in service.sessions()
        victim = service.evict()
        assert victim is None or victim in names

    def test_restore_foreign_snapshot_routes_by_hash(self, tmp_path):
        donor = EstimationService(MemorySessionStore())
        donor.create_session("imported", range(4), ESTIMATORS)
        donor.ingest("imported", _batch(), source="t", sequence=1)
        snapshot = donor.snapshot("imported")
        service = ShardedEstimationService(tmp_path, num_shards=3)
        service.restore("imported", snapshot)
        owner = service.shards[service.shard_of("imported")]
        assert "imported" in owner.sessions()
        assert service.estimates("imported") == donor.estimates("imported")
