"""Durability benchmark: WAL append throughput, fsync batching, recovery time.

Measures the three costs of the write-ahead-logged store
(:class:`repro.docstore.DurableDatabase`, see ``docs/durability.md``):

* ``wal_append`` — staged-operation throughput for a sweep of
  ``fsync_batch`` settings (0 = fsync only at commits, 1 = every record,
  N = every N records), plus the plain in-memory insert rate as the
  no-durability baseline;
* ``commit`` — cost of sealing an epoch (marker fsync + atomic rewrite of
  the ``COMMITTED`` file);
* ``recovery`` — time to reopen a store whose state lives entirely in the
  WAL (replay) versus one that was checkpointed (snapshot load), for the
  same logical contents.

Results are written as machine-readable JSON (timings in seconds, rates in
operations/second, environment info) for CI artifact upload and regression
tracking.

Usage::

    PYTHONPATH=src python benchmarks/durability_bench.py --quick --out BENCH_durability.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from bench_utils import git_sha
from repro.docstore import Database, DurableDatabase


def _document(n: int) -> dict:
    return {
        "_id": f"NC{n:07d}",
        "ncid": f"NC{n:07d}",
        "records": [
            {"person": {"last_name": f"NAME{n % 97}", "first_name": "JO"},
             "first_version": 1}
        ],
    }


def bench_appends(directory: Path, documents: int, fsync_batch: int) -> Dict:
    """Insert ``documents`` staged operations; one commit at the end."""
    target = directory / f"batch-{fsync_batch}"
    database = DurableDatabase(target, fsync_batch=fsync_batch)
    collection = database.get_collection("clusters")
    start = time.perf_counter()
    for n in range(documents):
        collection.insert_one(_document(n))
    append_seconds = time.perf_counter() - start
    start = time.perf_counter()
    database.commit()
    commit_seconds = time.perf_counter() - start
    database.close()
    wal_bytes = (target / "clusters.wal").stat().st_size
    shutil.rmtree(target)
    return {
        "fsync_batch": fsync_batch,
        "append_seconds": append_seconds,
        "appends_per_second": documents / append_seconds if append_seconds else None,
        "commit_seconds": commit_seconds,
        "wal_bytes": wal_bytes,
    }


def bench_in_memory(documents: int) -> Dict:
    """The no-durability baseline: plain in-memory inserts."""
    database = Database("bench")
    collection = database.get_collection("clusters")
    start = time.perf_counter()
    for n in range(documents):
        collection.insert_one(_document(n))
    seconds = time.perf_counter() - start
    return {
        "append_seconds": seconds,
        "appends_per_second": documents / seconds if seconds else None,
    }


def bench_recovery(directory: Path, documents: int) -> Dict:
    """Reopen time: WAL replay vs checkpointed snapshot, same contents."""
    wal_store = directory / "recover-wal"
    database = DurableDatabase(wal_store)
    collection = database.get_collection("clusters")
    for n in range(documents):
        collection.insert_one(_document(n))
    database.commit()
    database.close()

    snap_store = directory / "recover-snap"
    database = DurableDatabase(snap_store)
    collection = database.get_collection("clusters")
    for n in range(documents):
        collection.insert_one(_document(n))
    database.checkpoint()
    database.close()

    start = time.perf_counter()
    replayed = DurableDatabase(wal_store)
    replay_seconds = time.perf_counter() - start
    replay_count = replayed["clusters"].count_documents()
    replayed.close(commit=False)

    start = time.perf_counter()
    snapshotted = DurableDatabase(snap_store)
    snapshot_seconds = time.perf_counter() - start
    snapshot_count = snapshotted["clusters"].count_documents()
    snapshotted.close(commit=False)

    if replay_count != documents or snapshot_count != documents:
        raise SystemExit(
            f"FATAL: recovery lost documents "
            f"(wal={replay_count}, snapshot={snapshot_count}, want={documents})"
        )
    shutil.rmtree(wal_store)
    shutil.rmtree(snap_store)
    return {
        "documents": documents,
        "wal_replay_seconds": replay_seconds,
        "snapshot_load_seconds": snapshot_seconds,
        "documents_per_second_replay": (
            documents / replay_seconds if replay_seconds else None
        ),
    }


def run_benchmark(documents: int, fsync_batches: Sequence[int]) -> Dict:
    scratch = Path(tempfile.mkdtemp(prefix="durability-bench-"))
    try:
        appends = [bench_appends(scratch, documents, batch) for batch in fsync_batches]
        report = {
            "benchmark": "docstore_durability",
            "workload": {
                "documents": documents,
                "fsync_batches": list(fsync_batches),
            },
            "environment": {
                "python": sys.version.split()[0],
                "git_sha": git_sha(),
                "cpu_count": os.cpu_count(),
                # The documents are a pure function of their index: no
                # random draws, so no seed.
                "seed": None,
            },
            "timings": {
                "in_memory_baseline": bench_in_memory(documents),
                "wal_append": appends,
                "recovery": bench_recovery(scratch, documents),
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke test)"
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_durability.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    documents = 2000 if args.quick else 20000
    fsync_batches = (0, 1, 8, 64)
    report = run_benchmark(documents, fsync_batches)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    baseline = report["timings"]["in_memory_baseline"]["appends_per_second"]
    print(f"workload: {documents} documents per store")
    print(f"{'in-memory baseline':>22}: {baseline:,.0f} inserts/s")
    for row in report["timings"]["wal_append"]:
        print(
            f"{'fsync_batch=' + str(row['fsync_batch']):>22}: "
            f"{row['appends_per_second']:,.0f} appends/s, "
            f"commit {row['commit_seconds'] * 1000:.1f}ms, "
            f"wal {row['wal_bytes'] / 1024:.0f}KiB"
        )
    recovery = report["timings"]["recovery"]
    print(
        f"{'recovery':>22}: WAL replay {recovery['wal_replay_seconds']:.3f}s vs "
        f"snapshot load {recovery['snapshot_load_seconds']:.3f}s"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
