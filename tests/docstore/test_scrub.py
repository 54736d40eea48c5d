"""Scrubber, quarantine/degraded-read and repair tests.

The robustness contract on top of crash recovery: corruption in one
collection's files takes exactly that collection dark (quarantine) instead
of failing the whole store; reads of every other collection keep working
bit-identically; reads of the dark collection raise a typed error unless
the caller opts into degraded (empty) results; writes to it are refused;
``repair()`` salvages what the damaged files still hold and lifts the
quarantine.  ``scrub_database`` finds all of this offline without
modifying a byte.  Stores of the retired hash-partitioned layout are
refused loudly, never half-loaded.
"""

import json
import shutil
import warnings
from pathlib import Path

import pytest

from repro.docstore import (
    Database,
    DegradedReadError,
    DegradedReadWarning,
    DegradedWriteError,
    DurableDatabase,
    StorageError,
    scrub_database,
)
from repro.docstore.errors import DocStoreError
from repro.docstore.scrub import repair_database
from repro.docstore.wal import WAL_MAGIC

SNAP_IDS = ("AA1", "AA2", "AA7")
WAL_IDS = ("AA3", "AA5", "AA9")
#: The collection whose files the fixtures damage, and its healthy sibling.
DARK, HEALTHY = "docs", "healthy"


def build_store(directory):
    """Snapshots holding SNAP_IDS, WALs holding WAL_IDS, in two collections."""
    database = DurableDatabase(Path(directory))
    for name in (DARK, HEALTHY):
        for ncid in SNAP_IDS:
            database[name].insert_one({"_id": ncid, "ncid": ncid, "stage": "snapshot"})
    database.checkpoint()
    for name in (DARK, HEALTHY):
        for ncid in WAL_IDS:
            database[name].insert_one({"_id": ncid, "ncid": ncid, "stage": "wal"})
    database.commit()
    database.close()
    return Path(directory)


def build_checkpointed_store(directory):
    """Like :func:`build_store` but ending at the checkpoint, so the
    manifest checksum is authoritative (no interrupted-checkpoint window
    for a corrupt snapshot to hide in)."""
    database = DurableDatabase(Path(directory))
    docs = database[DARK]
    for ncid in SNAP_IDS + WAL_IDS:
        docs.insert_one({"_id": ncid, "ncid": ncid, "stage": "snapshot"})
    database.checkpoint()
    database.close(commit=False)
    return Path(directory)


def corrupt_wal_frame(path):
    """Flip a payload byte of the first record; later frames stay valid."""
    data = bytearray(path.read_bytes())
    offset = len(WAL_MAGIC) + 8 + 4  # file magic + frame header + into payload
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def dark_wal(store):
    return store / f"{DARK}.wal"


@pytest.fixture()
def degraded_store(tmp_path):
    """A store reopened after mid-file WAL corruption in one collection."""
    store = build_store(tmp_path / "store")
    corrupt_wal_frame(dark_wal(store))
    return store


class TestScrubFindings:
    def test_clean_store_is_clean(self, tmp_path):
        store = build_store(tmp_path / "store")
        report = scrub_database(store)
        assert report.ok and report.clean
        assert report.files_checked >= 5  # manifest, 2 snapshots, 2 WALs
        assert report.bytes_checked > 0
        assert "no problems found" in report.render()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            scrub_database(tmp_path / "nowhere")

    def test_corrupt_wal_is_an_error(self, degraded_store):
        report = scrub_database(degraded_store)
        assert not report.ok
        kinds = {finding.kind for finding in report.errors}
        assert "wal-corrupt" in kinds
        [finding] = [f for f in report.errors if f.kind == "wal-corrupt"]
        assert finding.collection == DARK
        assert finding.path == str(dark_wal(degraded_store))

    def test_corrupt_snapshot_is_an_error(self, tmp_path):
        store = build_checkpointed_store(tmp_path / "store")
        path = store / "docs.jsonl"
        text = path.read_text()
        path.write_text(text.replace('"', "X", 1))
        report = scrub_database(store)
        kinds = {finding.kind for finding in report.errors}
        assert "snapshot-checksum" in kinds
        assert "snapshot-parse" in kinds  # deep pass parses every line

    def test_shallow_skips_line_parsing(self, tmp_path):
        store = build_checkpointed_store(tmp_path / "store")
        path = store / "docs.jsonl"
        path.write_text(path.read_text().replace('"', "X", 1))
        report = scrub_database(store, deep=False)
        kinds = {finding.kind for finding in report.errors}
        assert "snapshot-checksum" in kinds
        assert "snapshot-parse" not in kinds

    def test_interrupted_checkpoint_checksum_is_a_warning(self, tmp_path):
        """COMMITTED beyond the manifest epoch marks the repairable window."""
        store = build_store(tmp_path / "store")  # commit after ckpt
        path = store / "docs.jsonl"
        path.write_text(path.read_text() + "\n")  # size mismatch, still parses
        report = scrub_database(store)
        assert report.ok
        assert any(
            f.kind == "snapshot-checksum" and "interrupted checkpoint" in f.detail
            for f in report.warnings
        )

    def test_orphan_tmp_is_a_warning(self, tmp_path):
        store = build_store(tmp_path / "store")
        (store / "docs.jsonl.tmp").write_bytes(b"half")
        report = scrub_database(store)
        assert report.ok  # warnings do not fail a scrub
        assert {finding.kind for finding in report.warnings} == {"orphan-tmp"}

    def test_quarantine_flags_reported(self, degraded_store):
        DurableDatabase(degraded_store).close(commit=False)
        report = scrub_database(degraded_store)
        assert report.quarantined == [DARK]
        assert not report.ok
        assert any(f.kind == "quarantine" for f in report.warnings)

    def test_to_dict_round_trips_through_json(self, degraded_store):
        report = scrub_database(degraded_store)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["findings"]
        assert payload["committed_epoch"] == report.committed_epoch


class TestQuarantinedDegradedReads:
    def test_reopen_quarantines_only_the_corrupt_collection(self, degraded_store):
        database = DurableDatabase(degraded_store)
        assert database.last_recovery.quarantined == [DARK]
        assert database[DARK].quarantined
        assert not database[HEALTHY].quarantined
        database.close(commit=False)

    def test_healthy_collection_reads_are_bit_identical(self, tmp_path):
        pristine = build_store(tmp_path / "pristine")
        oracle = DurableDatabase(pristine)
        expected = list(oracle[HEALTHY].find(sort=[("ncid", 1)]))
        oracle.close(commit=False)

        store = build_store(tmp_path / "store")
        corrupt_wal_frame(dark_wal(store))
        database = DurableDatabase(store)
        assert database[HEALTHY].find(sort=[("ncid", 1)]) == expected
        for doc in expected:
            assert database[HEALTHY].find_one({"ncid": doc["ncid"]}) == doc
        database.close(commit=False)

    def test_quarantined_point_read_raises(self, degraded_store):
        database = DurableDatabase(degraded_store)
        with pytest.raises(DegradedReadError) as excinfo:
            database[DARK].find_one({"ncid": "AA7"})
        assert excinfo.value.collection == DARK
        database.close(commit=False)

    def test_degraded_read_requires_opt_in(self, degraded_store):
        database = DurableDatabase(degraded_store)
        docs = database[DARK]
        with pytest.raises(DegradedReadError):
            docs.find({})
        with pytest.warns(DegradedReadWarning):
            assert docs.find({}, allow_degraded=True) == []
        database.close(commit=False)

    def test_degraded_aggregate_and_count(self, degraded_store):
        database = DurableDatabase(degraded_store)
        docs = database[DARK]
        with pytest.raises(DegradedReadError):
            docs.count_documents()
        with pytest.warns(DegradedReadWarning):
            assert docs.count_documents(allow_degraded=True) == 0
        with pytest.warns(DegradedReadWarning):
            rows = docs.aggregate(
                [{"$group": {"_id": None, "n": {"$sum": 1}}}],
                allow_degraded=True,
            )
        assert rows == []
        with pytest.raises(DegradedReadError):
            docs.snapshot().find({})
        database.close(commit=False)

    def test_writes_to_quarantined_collection_refused(self, degraded_store):
        database = DurableDatabase(degraded_store)
        docs = database[DARK]
        with pytest.raises(DegradedWriteError):
            docs.insert_one({"_id": "BA5", "ncid": "BA5"})
        with pytest.raises(DegradedWriteError):
            docs.insert_many([{"_id": "BA6", "ncid": "BA6"}])
        with pytest.raises(DegradedWriteError):
            docs.update_one({"ncid": "AA7"}, {"$set": {"x": 1}})
        with pytest.raises(DegradedWriteError):
            docs.delete_many({})
        with pytest.raises(DegradedWriteError):
            docs.create_index("stage")
        database.close(commit=False)

    def test_healthy_collection_writes_still_commit(self, degraded_store):
        database = DurableDatabase(degraded_store)
        database[HEALTHY].insert_one({"_id": "BA0", "ncid": "BA0", "stage": "post"})
        database.commit()
        database.close(commit=False)
        reopened = DurableDatabase(degraded_store)
        assert reopened[HEALTHY].find_one({"ncid": "BA0"}) is not None
        assert reopened[DARK].quarantined
        reopened.close(commit=False)

    def test_checkpoint_preserves_the_quarantined_history(self, degraded_store):
        database = DurableDatabase(degraded_store)
        database.checkpoint()  # must not fold the empty state over the store
        database.close(commit=False)
        assert dark_wal(degraded_store).with_suffix(".wal.quarantined").is_dir()
        report = repair_database(degraded_store)
        salvaged = DurableDatabase(degraded_store)
        # The snapshot rows of the quarantined collection survived
        # quarantine+repair.
        assert salvaged[DARK].find_one({"ncid": "AA7"}) is not None
        assert report.committed_epoch > 0
        salvaged.close(commit=False)

    def test_stats_surface_quarantine_and_degraded_reads(self, degraded_store):
        database = DurableDatabase(degraded_store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedReadWarning)
            list(database[DARK].all(allow_degraded=True))
        stats = database.stats()
        entry = stats["collections"][DARK]
        assert entry["quarantined"] is True
        assert entry["degraded_reads"] == 1
        assert stats["collections"][HEALTHY]["quarantined"] is False
        assert stats["resilience"]["quarantined_collections"] == 1
        assert stats["resilience"]["degraded_reads"] == 1
        database.close(commit=False)


class TestRepair:
    def test_repair_lifts_quarantine_and_keeps_salvageable_data(
        self, degraded_store
    ):
        database = DurableDatabase(degraded_store)
        report = database.repair()
        assert database.last_repair is report
        docs = database[DARK]
        assert not docs.quarantined
        # Snapshot rows and every intact WAL row survive; only the
        # corrupted committed frame (AA3) and what follows it may be gone.
        present = {doc["ncid"] for doc in docs.all()}
        assert set(SNAP_IDS) <= present
        assert {doc["ncid"] for doc in database[HEALTHY].all()} == set(
            SNAP_IDS + WAL_IDS
        )
        assert scrub_database(degraded_store).ok
        database.close()

    def test_repaired_store_accepts_all_writes_again(self, degraded_store):
        database = DurableDatabase(degraded_store)
        database.repair()
        database[DARK].insert_one({"_id": "BA5", "ncid": "BA5"})
        database.commit()
        database.close()
        reopened = DurableDatabase(degraded_store)
        assert reopened.last_recovery.clean
        assert reopened[DARK].find_one({"ncid": "BA5"}) is not None
        reopened.close(commit=False)

    def test_snapshot_corruption_darkens_whole_collection(self, tmp_path):
        store = build_store(tmp_path / "store")
        path = store / "docs.jsonl"
        path.write_text(path.read_text().replace('"', "X", 1))
        database = DurableDatabase(store)
        docs = database[DARK]
        assert docs.quarantined
        assert not database[HEALTHY].quarantined
        with pytest.raises(DegradedReadError):
            docs.find_one({"ncid": "AA1"})
        with pytest.warns(DegradedReadWarning):
            assert list(docs.all(allow_degraded=True)) == []
        database.repair()
        # Salvage drops only the mangled line; the rest returns to service.
        survivors = {doc["ncid"] for doc in database[DARK].all()}
        assert len(survivors) >= len(SNAP_IDS) + len(WAL_IDS) - 1
        database.close()

    def test_scrub_method_records_last_scrub_in_stats(self, tmp_path):
        store = build_store(tmp_path / "store")
        database = DurableDatabase(store)
        report = database.scrub()
        assert report.ok
        storage = database.stats()["storage"]
        assert storage["last_scrub"] == {"ok": True, "errors": 0, "warnings": 0}
        assert storage["committed_epoch"] == database.committed_epoch
        database.close(commit=False)


class TestLegacyShardedStores:
    """Stores of the retired hash-partitioned layout fail loudly."""

    @staticmethod
    def sharded_manifest_store(directory):
        database = Database()
        database[DARK].insert_many({"_id": n, "ncid": n} for n in SNAP_IDS)
        database.save(directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["collections"][DARK]["shards"] = 4
        manifest_path.write_text(json.dumps(manifest))
        return directory

    @staticmethod
    def partition_wal_store(directory):
        build_store(directory)
        shutil.copy(directory / f"{DARK}.wal", directory / f"{DARK}@p1.wal")
        return directory

    def test_sharded_manifest_refused_on_open(self, tmp_path):
        store = self.sharded_manifest_store(tmp_path / "store")
        with pytest.raises(StorageError, match=f"collection '{DARK}'"):
            Database.load(store)
        with pytest.raises(StorageError, match=f"collection '{DARK}'"):
            DurableDatabase(store)

    def test_partition_wal_refused_on_open(self, tmp_path):
        store = self.partition_wal_store(tmp_path / "store")
        with pytest.raises(StorageError, match=f"{DARK}@p1.wal"):
            Database.load(store)
        with pytest.raises(StorageError, match=f"{DARK}@p1.wal"):
            DurableDatabase(store)

    def test_scrub_reports_sharded_manifest(self, tmp_path):
        store = self.sharded_manifest_store(tmp_path / "store")
        report = scrub_database(store)
        assert not report.ok
        [finding] = [f for f in report.errors if f.kind == "legacy-sharded"]
        assert finding.collection == DARK

    def test_scrub_reports_partition_wal(self, tmp_path):
        store = self.partition_wal_store(tmp_path / "store")
        report = scrub_database(store)
        assert not report.ok
        [finding] = [f for f in report.errors if f.kind == "legacy-sharded"]
        assert finding.path == str(store / f"{DARK}@p1.wal")


class TestCompaction:
    def test_checkpoint_rotates_wal_to_header(self, tmp_path):
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        for index in range(20):
            docs.insert_one({"_id": f"a{index}", "ncid": f"a{index}"})
        database.commit()
        before = (tmp_path / "docs.wal").stat().st_size
        database.checkpoint()
        after = (tmp_path / "docs.wal").stat().st_size
        assert after < before
        assert after == len(WAL_MAGIC)
        database.close()
        reopened = DurableDatabase(tmp_path)
        assert reopened["docs"].count_documents() == 20
        reopened.close(commit=False)

    def test_auto_compact_checkpoints_after_threshold(self, tmp_path):
        database = DurableDatabase(tmp_path, auto_compact=10)
        docs = database["docs"]
        docs.insert_one({"_id": "a", "ncid": "a"})
        database.commit()
        assert database._ops_since_checkpoint > 0
        for index in range(12):
            docs.insert_one({"_id": f"b{index}", "ncid": f"b{index}"})
        database.commit()  # crosses the threshold: checkpoint fired
        assert database._ops_since_checkpoint == 0
        assert (tmp_path / "docs.wal").stat().st_size == len(WAL_MAGIC)
        database.close()

    def test_auto_compact_equivalent_to_manual(self, tmp_path):
        def run(directory, auto_compact):
            database = DurableDatabase(directory, auto_compact=auto_compact)
            docs = database["docs"]
            for index in range(15):
                docs.insert_one({"_id": f"a{index}", "ncid": f"a{index}", "n": index})
                database.commit()
            database.close()
            reopened = Database.load(directory)
            state = sorted(
                json.dumps(doc, sort_keys=True) for doc in reopened["docs"].all()
            )
            return state

        assert run(tmp_path / "auto", 4) == run(tmp_path / "manual", None)

    def test_auto_compact_validated(self, tmp_path):
        with pytest.raises(DocStoreError):
            DurableDatabase(tmp_path, auto_compact=0)
