"""An embedded, aggregate-oriented document store.

The paper stores its test dataset in MongoDB: one document per voter
(duplicate cluster), nested record documents, indexes for selection and an
aggregation pipeline for customisation (Section 5).  This package provides an
embedded Python substitute with the same data model and the three
capabilities the pipeline relies on:

* **aggregate-oriented storage** — documents are arbitrarily nested dicts /
  lists accessed by dotted paths, grouped per cluster;
* **indexes** — hash and sorted indexes that accelerate equality and range
  queries;
* **aggregation pipeline** — multi-stage ``$match/$project/$group/$unwind/
  $sort/$limit/...`` pipelines for filtering, transformation, grouping and
  sorting.

Each collection keeps its documents and indexes in one copy-on-write
partition: writers mutate a live state, ``commit()`` publishes it
atomically, and snapshot readers keep the epoch they pinned.  See
``docs/data-model.md``.

Persistence is line-delimited JSON per collection plus a database manifest,
so datasets survive process restarts and can be shipped as plain files;
durable databases add one write-ahead log per collection.

Queries and pipelines can additionally be vetted *before* execution by the
static analyzer in :mod:`repro.analysis`; see
:meth:`Database.set_analysis_mode` and :attr:`Collection.analysis_mode`.
"""

from __future__ import annotations

from repro.docstore.collection import Collection, CollectionSnapshot
from repro.docstore.database import Database, DatabaseReadView, DurableDatabase
from repro.docstore.partition import Partition
from repro.docstore.documents import get_path, set_path, unset_path
from repro.docstore.errors import (
    CollectionNotFound,
    DegradedReadError,
    DegradedReadWarning,
    DegradedWriteError,
    DocStoreError,
    DuplicateKeyError,
    QuarantineError,
    QueryError,
    StorageCorruptError,
    StorageError,
    UnknownIndexKind,
)
from repro.docstore.scrub import (
    RepairReport,
    ScrubFinding,
    ScrubReport,
    repair_database,
    scrub_database,
)
from repro.docstore.storage import RecoveryReport

__all__ = [
    "Database",
    "DatabaseReadView",
    "DurableDatabase",
    "Collection",
    "CollectionSnapshot",
    "Partition",
    "DocStoreError",
    "DuplicateKeyError",
    "QueryError",
    "StorageError",
    "StorageCorruptError",
    "QuarantineError",
    "DegradedReadError",
    "DegradedWriteError",
    "DegradedReadWarning",
    "RecoveryReport",
    "ScrubFinding",
    "ScrubReport",
    "RepairReport",
    "scrub_database",
    "repair_database",
    "UnknownIndexKind",
    "CollectionNotFound",
    "get_path",
    "set_path",
    "unset_path",
]
