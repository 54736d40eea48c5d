"""Collections: CRUD, indexes and aggregation over documents.

A collection owns one :class:`~repro.docstore.partition.Partition`: a
document map, an ``_id`` map and the secondary indexes, published in
copy-on-write epochs.  Writers mutate the live state; ``Database.commit``
publishes it in one reference assignment, and
:class:`CollectionSnapshot` readers keep the epoch they pinned while the
live state moves on.  Reads go through the cost-based planner
(:mod:`repro.docstore.planner`) and its per-collection plan cache
(:mod:`repro.docstore.plancache`).
"""

from __future__ import annotations

import itertools
import warnings
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.docstore.aggregation import run_pipeline
from repro.docstore.documents import deep_copy, get_path, set_path, unset_path
from repro.docstore.errors import (
    DegradedReadError,
    DegradedReadWarning,
    DegradedWriteError,
    DuplicateKeyError,
    QueryError,
)
from repro.docstore.indexes import HashIndex, build_index
from repro.docstore.partition import Partition
from repro.docstore.plancache import PlanCache
from repro.docstore.planner import (
    Plan,
    count_matching,
    execute_find,
    iter_matching_ids,
    plan_read,
    split_pushdown,
)
from repro.docstore.views import lazy_document, wrap_value

#: Valid ``Collection(copy_mode=...)`` values: lazy copy-on-read views
#: (the default) or the historical deep-copy-every-result behaviour.
_COPY_MODES = ("lazy", "eager")

#: Sentinel for $rename on an absent source path (a silent no-op).
_RENAME_MISSING = object()


class Collection:
    """A named set of documents with optional secondary indexes.

    Documents receive an auto-assigned ``_id`` (an integer) unless the caller
    provides one.  ``_id`` values are unique within the collection.  Reads
    return copy-on-read views (:class:`~repro.docstore.views.DocumentView`)
    so callers can never corrupt the store by mutating a result; pass
    ``copy_mode="eager"`` to restore full deep copies per result.

    ``analysis_mode`` selects how queries are vetted before execution:
    ``"lax"`` (the default) executes them as-is, ``"strict"`` runs the
    static analyzer from :mod:`repro.analysis` first and raises
    :class:`QueryError` — with did-you-mean hints — before a single document
    is scanned.  Attach a :class:`repro.analysis.SchemaPaths` via ``schema``
    to additionally validate dotted field paths in strict mode.
    """

    def __init__(
        self,
        name: str,
        analysis_mode: str = "lax",
        schema: Optional[Any] = None,
        copy_mode: str = "lazy",
    ) -> None:
        if copy_mode not in _COPY_MODES:
            raise QueryError(
                f"copy_mode must be one of {_COPY_MODES}, got {copy_mode!r}"
            )
        self.name = name
        self.analysis_mode = analysis_mode
        #: Optional ``repro.analysis.SchemaPaths`` for field-path validation.
        self.schema = schema
        #: ``"lazy"`` = copy-on-read document views, ``"eager"`` = deep copies.
        self.copy_mode = copy_mode
        #: Monotonic write counter: every mutation (and index build) bumps
        #: it, invalidating the plan cache's epoch-scoped entries.
        self._write_epoch = 0
        #: Shape/value plan memo (see :mod:`repro.docstore.plancache`).
        self._plan_cache = PlanCache()
        #: Escape hatch (and benchmark knob): ``False`` forces cold planning.
        self.plan_cache_enabled = True
        self._partition = Partition()
        self._next_internal_id = itertools.count(1)
        #: Set by recovery when the collection's WAL or snapshot is corrupt.
        #: A quarantined collection holds no documents: reads raise
        #: :class:`DegradedReadError` (or return nothing under
        #: ``allow_degraded=True``) and writes are refused.
        self._quarantined = False
        #: Reads that opted into degraded results (resilience counter).
        self._degraded_reads = 0
        #: Write-ahead-log hook ``(op, payload) -> None`` set by
        #: :class:`~repro.docstore.database.DurableDatabase`; ``None`` keeps
        #: the collection purely in-memory.  Called *after* the in-memory
        #: mutation succeeds; the hook serializes immediately, so later
        #: mutation of the same document cannot corrupt the journal.
        self._journal: Optional[Any] = None
        #: Batched journal hook ``(op, [payload, ...]) -> None`` set
        #: alongside ``_journal``; one WAL write + one fsync per batch.
        #: Falls back to per-op ``_journal`` calls when unset.
        self._journal_many: Optional[Any] = None

    # ----------------------------------------------------------------- state

    @property
    def _documents(self) -> Dict[int, dict]:
        """The live document map (the object the planner reads)."""
        return self._partition.live._documents

    @property
    def _by_user_id(self) -> Dict[Any, int]:
        return self._partition.live._by_user_id

    @property
    def _indexes(self) -> Dict[str, Any]:
        return self._partition.live._indexes

    @_indexes.setter
    def _indexes(self, value: Dict[str, Any]) -> None:
        # Test hook (index spies et al.).
        self._bump_epoch()
        self._partition.writable()._indexes = value

    def _bump_epoch(self) -> None:
        """Invalidate epoch-scoped plan-cache entries (called before writes)."""
        self._write_epoch += 1

    @property
    def _materialize(self) -> Any:
        """Per-document result materializer for the current copy mode."""
        return deep_copy if self.copy_mode == "eager" else lazy_document

    @property
    def _copy_value(self) -> Any:
        """Extracted-value materializer for the current copy mode."""
        return deep_copy if self.copy_mode == "eager" else wrap_value

    def _expose_for_read(self) -> None:
        """Drop in-place document ownership before handing out lazy views.

        Lazy results share container structure with live documents, so an
        in-place update after a read would rewrite views the caller
        already holds.  Exposing makes the next ``writable_document``
        deep-copy first; pure write runs (no interleaved reads) keep the
        mutate-in-place fast path.  Eager mode returns independent deep
        copies and needs no exposure; snapshot reads serve the published
        state, which writers copy rather than mutate.
        """
        if self.copy_mode == "lazy":
            self._partition.expose()

    def _plan(
        self, filter_doc: Optional[dict], sort: Optional[List[tuple]] = None
    ) -> Plan:
        """Plan a read against the live state.

        Served from the per-collection plan cache when enabled: an exactly
        repeated query replays its bound plan, a new query of a known
        shape skips option pricing, and any write since the last lookup
        invalidates both (epoch check).
        """
        if self.plan_cache_enabled:
            return self._plan_cache.plan(self, filter_doc, sort)
        return plan_read(self._partition.live, filter_doc, sort)

    # ------------------------------------------------------------ quarantine

    @property
    def quarantined(self) -> bool:
        """Whether recovery took this collection dark."""
        return self._quarantined

    def _quarantine(self) -> None:
        """Take the collection dark: swap in an empty partition.

        Called by recovery *after* replay.  The partition is replaced, not
        merely flagged, so documents a stale snapshot loaded can never be
        served as live data — the authoritative copy is whatever sits in
        the quarantine directory until ``repair()``.  Index specs survive,
        so a later checkpoint still records them.
        """
        specs = self.index_specs()
        self._bump_epoch()
        partition = Partition()
        for spec in specs:
            built = build_index(spec["kind"], spec["path"])
            built.flush()
            partition.live._indexes[f"{spec['path']}_{spec['kind']}"] = built
        self._partition = partition
        self._quarantined = True

    def _check_quarantine(
        self, op: str, *, allow_degraded: bool = False, write: bool = False
    ) -> None:
        """Enforce the quarantine policy before ``op`` touches the collection.

        Healthy collections (the overwhelmingly common case) pass.  On a
        quarantined collection writes raise :class:`DegradedWriteError` and
        reads raise :class:`DegradedReadError` unless ``allow_degraded`` —
        which instead warns (:class:`DegradedReadWarning`) and lets the read
        run over the (empty) quarantined state.
        """
        if not self._quarantined:
            return
        if write:
            raise DegradedWriteError(self.name, op)
        if not allow_degraded:
            raise DegradedReadError(self.name, op)
        warnings.warn(
            DegradedReadWarning(
                f"{op} on quarantined collection {self.name!r} returned no "
                f"documents; repair() the database to restore them"
            ),
            stacklevel=3,
        )
        self._degraded_reads += 1

    # ------------------------------------------------------------ snapshots

    def snapshot(self) -> "CollectionSnapshot":
        """A consistent read-only view of the last published epoch.

        The view pins the ``published`` state: a concurrent writer copies
        before mutating (copy-on-write), so the snapshot's results never
        change — even while a commit publishes a new epoch.
        """
        return CollectionSnapshot(self)

    def _publish(self) -> None:
        """Publish the live state (commit barrier)."""
        self._partition.publish()

    # ------------------------------------------------------------------ CRUD

    def insert_one(self, document: dict) -> Any:
        """Insert ``document`` and return its ``_id``."""
        if not isinstance(document, dict):
            raise QueryError(f"documents must be dicts, got {type(document).__name__}")
        self._check_quarantine("insert", write=True)
        self._bump_epoch()
        stored = deep_copy(document)
        internal_id = next(self._next_internal_id)
        if "_id" not in stored:
            stored["_id"] = internal_id
        user_id = _freeze_id(stored["_id"])
        if user_id in self._partition.live._by_user_id:
            raise DuplicateKeyError(
                f"duplicate _id {stored['_id']!r} in collection {self.name!r}"
            )
        state = self._partition.writable()
        state._documents[internal_id] = stored
        state._by_user_id[user_id] = internal_id
        for index in state._indexes.values():
            index.add(internal_id, stored)
            index.flush()
        self._partition.own(internal_id)
        self._log("insert", {"doc": stored})
        return stored["_id"]

    def insert_many(self, documents: Iterable[dict]) -> List[Any]:
        """Insert every document; returns the list of assigned ``_id``s.

        Bulk path: documents are validated and id-assigned in order, then
        applied in one pass (one copy-on-write clone, one index delta per
        document, one batched journal append instead of one WAL write +
        fsync per op).  Error semantics match the per-op loop exactly: on
        the first invalid document the already-validated prefix is
        inserted and journaled, then the error raises.
        """
        self._check_quarantine("insert", write=True)
        self._bump_epoch()
        assigned: List[Any] = []
        staged: List[Tuple[dict, int]] = []  # (stored, internal id)
        batch_user_ids: set = set()
        existing = self._partition.live._by_user_id
        error: Optional[Exception] = None
        for document in documents:
            if not isinstance(document, dict):
                error = QueryError(
                    f"documents must be dicts, got {type(document).__name__}"
                )
                break
            stored = deep_copy(document)
            internal_id = next(self._next_internal_id)
            if "_id" not in stored:
                stored["_id"] = internal_id
            user_id = _freeze_id(stored["_id"])
            if user_id in batch_user_ids or user_id in existing:
                error = DuplicateKeyError(
                    f"duplicate _id {stored['_id']!r} in collection {self.name!r}"
                )
                break
            batch_user_ids.add(user_id)
            staged.append((stored, internal_id))
            assigned.append(stored["_id"])

        if staged:
            partition = self._partition
            state = partition.writable()
            for stored, internal_id in staged:
                state._documents[internal_id] = stored
                state._by_user_id[_freeze_id(stored["_id"])] = internal_id
                for index in state._indexes.values():
                    index.add(internal_id, stored)
                partition.own(internal_id)
            # One sorted-run merge for the whole batch; flushing here (not
            # on first read) keeps shared-state reads logically read-only,
            # so concurrent ``find``s never race.
            for index in state._indexes.values():
                index.flush()
            self._log_many("insert", [{"doc": stored} for stored, _ in staged])
        if error is not None:
            # Always a QueryError or DuplicateKeyError staged above; raised
            # here so the validated prefix lands first (per-op parity).
            raise error  # repro: ignore[L004]
        return assigned

    def find(
        self,
        filter_doc: Optional[dict] = None,
        projection: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        limit: Optional[int] = None,
        skip: int = 0,
        *,
        allow_degraded: bool = False,
    ) -> List[dict]:
        """Return matching documents (deep copies), optionally projected.

        Reads are planned (:mod:`repro.docstore.planner`): equality and
        range conditions resolve through hash/sorted indexes, a
        single-field ``sort`` matching a sorted index streams in index
        order with no sorting, and only the returned ``skip``/``limit``
        window is ever deep-copied.

        On a quarantined collection this raises :class:`DegradedReadError`;
        ``allow_degraded=True`` instead returns no documents with a
        :class:`DegradedReadWarning`.
        """
        self._check_filter(filter_doc)
        self._check_quarantine("find", allow_degraded=allow_degraded)
        self._expose_for_read()
        plan = self._plan(filter_doc, sort)
        results = list(
            execute_find(
                self._partition.live,
                plan,
                skip=skip,
                limit=limit,
                materialize=self._materialize,
            )
        )
        if projection:
            results = list(run_pipeline(results, [{"$project": projection}]))
        return results

    def distinct(
        self,
        path: str,
        filter_doc: Optional[dict] = None,
        *,
        allow_degraded: bool = False,
    ) -> List[Any]:
        """Distinct values of ``path`` over matching documents.

        Array values are expanded element-wise (MongoDB semantics); the
        result is sorted by ``repr`` for determinism.  Without a filter, a
        hash index on ``path`` whose keys are all strings answers straight
        from the index, never touching a document.
        """
        self._check_filter(filter_doc)
        self._check_quarantine("distinct", allow_degraded=allow_degraded)
        if not filter_doc:
            index = self._partition.live._indexes.get(f"{path}_hash")
            if isinstance(index, HashIndex):
                keys = list(index.keys())
                if all(key is None or isinstance(key, str) for key in keys):
                    seen = {repr(key): key for key in keys if key is not None}
                    return [seen[key] for key in sorted(seen)]
        seen = {}
        copy_value = self._copy_value
        self._expose_for_read()
        for document in self._scan(filter_doc):
            value = get_path(document, path, default=None)
            values = value if isinstance(value, list) else [value]
            for element in values:
                if element is not None:
                    seen.setdefault(repr(element), element)
        return [copy_value(seen[key]) for key in sorted(seen)]

    def find_one(
        self,
        filter_doc: Optional[dict] = None,
        *,
        allow_degraded: bool = False,
    ) -> Optional[dict]:
        """Return the first matching document or ``None``."""
        self._check_quarantine("find_one", allow_degraded=allow_degraded)
        materialize = self._materialize
        self._expose_for_read()
        for document in self._scan(filter_doc):
            return materialize(document)
        return None

    def count_documents(
        self,
        filter_doc: Optional[dict] = None,
        *,
        allow_degraded: bool = False,
    ) -> int:
        """Number of documents matching ``filter_doc``.

        When the filter is fully covered by the chosen index access (no
        residual predicate), this is a pure index count — no document is
        loaded or matched.
        """
        self._check_quarantine("count_documents", allow_degraded=allow_degraded)
        if not filter_doc:
            return len(self)
        self._check_filter(filter_doc)
        return count_matching(self._partition.live, self._plan(filter_doc))

    def _check_update(self, update: dict) -> None:
        if self.analysis_mode == "strict":
            from repro.analysis import analyze_update, require_clean

            require_clean(
                analyze_update(update, self.schema),
                f"update for collection {self.name!r}",
            )

    def update_one(self, filter_doc: dict, update: dict) -> int:
        """Apply ``update`` to the first match; returns 0 or 1."""
        self._check_update(update)
        self._check_quarantine("update_one", write=True)
        self._bump_epoch()
        for internal_id in self._matching_ids(filter_doc):
            document = self._partition.writable_document(internal_id)
            self._apply_update(internal_id, document, update)
            self._log("replace", {"id": document["_id"], "doc": document})
            return 1
        return 0

    def update_many(self, filter_doc: dict, update: dict) -> int:
        """Apply ``update`` to every match; returns the match count."""
        self._check_update(update)
        self._check_quarantine("update_many", write=True)
        self._bump_epoch()
        touched = list(self._matching_ids(filter_doc))
        for internal_id in touched:
            document = self._partition.writable_document(internal_id)
            self._apply_update(internal_id, document, update)
            self._log("replace", {"id": document["_id"], "doc": document})
        return len(touched)

    def replace_one(self, filter_doc: dict, replacement: dict) -> int:
        """Replace the first matching document wholesale (keeps its ``_id``)."""
        self._check_quarantine("replace_one", write=True)
        self._bump_epoch()
        for internal_id in self._matching_ids(filter_doc):
            partition = self._partition
            state = partition.writable()
            document = state._documents[internal_id]
            for index in state._indexes.values():
                index.remove(internal_id, document)
            stored = deep_copy(replacement)
            stored["_id"] = document["_id"]
            state._documents[internal_id] = stored
            for index in state._indexes.values():
                index.add(internal_id, stored)
                index.flush()
            partition.own(internal_id)
            self._log("replace", {"id": stored["_id"], "doc": stored})
            return 1
        return 0

    def delete_many(self, filter_doc: dict) -> int:
        """Delete every matching document; returns the delete count."""
        self._check_quarantine("delete_many", write=True)
        self._bump_epoch()
        doomed = list(self._matching_ids(filter_doc))
        partition = self._partition
        for internal_id in doomed:
            state = partition.writable()
            document = state._documents[internal_id]
            for index in state._indexes.values():
                index.remove(internal_id, document)
            del state._by_user_id[_freeze_id(document["_id"])]
            del state._documents[internal_id]
            partition._owned.discard(internal_id)
            self._log("delete", {"id": document["_id"]})
        return len(doomed)

    def aggregate(
        self, pipeline: List[dict], *, allow_degraded: bool = False
    ) -> List[dict]:
        """Run an aggregation ``pipeline`` over the collection.

        In strict analysis mode the pipeline is statically vetted first —
        unknown stages/operators, malformed specs, unknown field paths and
        stage-order hazards raise :class:`QueryError` before any document is
        streamed.

        Leading ``$match``/``$sort``/``$skip``/``$limit`` stages are pushed
        down into the query planner: they run through index accesses and
        windowed, lazily-copied reads, so the remaining stages see an
        already-narrowed stream instead of a deep copy of the whole
        collection.
        """
        if self.analysis_mode == "strict":
            from repro.analysis import analyze_pipeline, require_clean

            require_clean(
                analyze_pipeline(pipeline, self.schema),
                f"pipeline for collection {self.name!r}",
            )
        pushdown = split_pushdown(pipeline)
        self._check_quarantine("aggregate", allow_degraded=allow_degraded)
        self._expose_for_read()
        plan = self._plan(pushdown.filter_doc, pushdown.sort_spec)
        source: Iterable[dict] = execute_find(
            self._partition.live,
            plan,
            skip=pushdown.skip,
            limit=pushdown.limit,
            materialize=self._materialize,
        )
        return list(run_pipeline(source, pushdown.rest))

    def all(self, *, allow_degraded: bool = False) -> Iterator[dict]:
        """Iterate every document (materialized views) in insertion order.

        On a quarantined collection this raises :class:`DegradedReadError`
        up front (unless ``allow_degraded``, which warns and yields
        nothing: the quarantined state is empty).
        """
        self._check_quarantine("all", allow_degraded=allow_degraded)
        materialize = self._materialize
        if self.copy_mode == "eager":
            return (materialize(doc) for doc in self._ordered_documents())

        def generate() -> Iterator[dict]:
            # Re-exposed per yield: the generator can be interleaved with
            # writes, and every view handed out must stay write-stable.
            for document in self._ordered_documents():
                self._expose_for_read()
                yield materialize(document)

        return generate()

    # --------------------------------------------------------------- indexes

    def create_index(self, path: str, kind: str = "hash") -> str:
        """Create (or return) an index on dotted ``path``.

        ``kind`` is ``"hash"`` for equality lookups or ``"sorted"`` for range
        scans.  Returns the index name ``{path}_{kind}``.
        """
        name = f"{path}_{kind}"
        if name in self._partition.live._indexes:
            return name
        self._check_quarantine("create_index", write=True)
        self._bump_epoch()
        state = self._partition.writable()
        index = build_index(kind, path)
        for internal_id, document in state._documents.items():
            index.add(internal_id, document)
        index.flush()
        state._indexes[name] = index
        self._log("index", {"path": path, "kind": kind})
        return name

    def index_names(self) -> List[str]:
        """Sorted names of the collection's indexes."""
        return sorted(self._partition.live._indexes)

    def explain(
        self,
        filter_doc: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        pipeline: Optional[List[dict]] = None,
    ) -> dict:
        """Describe how a query (or pipeline) would execute.

        Returns the chosen plan — ``"full_scan"`` / ``"id_lookup"`` /
        ``"index_lookup"`` / ``"index_range"`` / ``"index_order"`` — plus
        the index used, the residual predicate the candidates are matched
        against, the candidate count (how many documents would actually be
        examined), pushed-down pipeline stages when ``pipeline`` is given,
        and index-usage hints from
        :func:`repro.analysis.analyze_index_usage`.
        """
        remaining: List[dict] = []
        pushed: List[str] = []
        if pipeline is not None:
            pushdown = split_pushdown(pipeline)
            query_filter, query_sort = pushdown.filter_doc, pushdown.sort_spec
            pushed = pushdown.pushed
            remaining = pushdown.rest
        else:
            query_filter, query_sort = filter_doc, sort
        plan = self._plan(query_filter, query_sort)
        plan.pushdown = list(pushed)
        description = plan.describe(len(self))
        description["remaining_stages"] = [
            next(iter(stage)) if isinstance(stage, dict) and stage else "?"
            for stage in remaining
        ]
        description["plan_cache"] = self._plan_cache.stats()
        description["materialization"] = self.copy_mode
        description["quarantined"] = self._quarantined
        from repro.analysis import analyze_index_usage

        description["hints"] = [
            diagnostic.render()
            for diagnostic in analyze_index_usage(
                filter_doc=filter_doc,
                sort=sort,
                pipeline=pipeline,
                indexes=self.index_specs(),
            )
        ]
        return description

    def index_specs(self) -> List[dict]:
        """Serializable descriptions of the collection's indexes."""
        return [
            {"path": index.path, "kind": index.kind}
            for index in self._partition.live._indexes.values()
        ]

    # ------------------------------------------------------------- internals

    def _log(self, op: str, payload: dict) -> None:
        journal = self._journal
        if journal is not None:
            journal(op, payload)

    def _log_many(self, op: str, payloads: List[dict]) -> None:
        """Journal a batch of payloads in order.

        Prefers the batched hook (one WAL write + one fsync per batch);
        falls back to per-op journaling when only the plain hook is
        attached.
        """
        journal_many = self._journal_many
        if journal_many is not None:
            journal_many(op, payloads)
            return
        journal = self._journal
        if journal is not None:
            for payload in payloads:
                journal(op, payload)

    def _ordered_documents(self) -> Iterator[dict]:
        documents = self._partition.live._documents
        for internal_id in sorted(documents):
            yield documents[internal_id]

    def _check_filter(self, filter_doc: Optional[dict]) -> None:
        if self.analysis_mode == "strict" and filter_doc:
            from repro.analysis import analyze_filter, require_clean

            require_clean(
                analyze_filter(filter_doc, self.schema),
                f"filter for collection {self.name!r}",
            )

    def _scan(self, filter_doc: Optional[dict]) -> Iterator[dict]:
        documents = self._partition.live._documents
        for internal_id in self._matching_ids(filter_doc):
            yield documents[internal_id]

    def _matching_ids(self, filter_doc: Optional[dict]) -> Iterator[int]:
        """Internal ids of the live documents matching, ascending by id."""
        self._check_filter(filter_doc)
        state = self._partition.live
        return iter_matching_ids(state, plan_read(state, filter_doc))

    def _apply_update(self, internal_id: int, document: dict, update: dict) -> None:
        if not update or not all(key.startswith("$") for key in update):
            raise QueryError("updates must use operators like $set / $unset / $inc / $push")
        state = self._partition.live
        # Only indexes whose path the update spec can touch are maintained;
        # removing/re-adding every index on every update made single-field
        # updates cost O(indexes) instead of O(touched paths).
        touched = _update_touched_paths(update)
        if touched is None:
            affected = list(state._indexes.values())
        else:
            affected = [
                index
                for index in state._indexes.values()
                if any(_paths_overlap(path, index.path) for path in touched)
            ]
        for index in affected:
            index.remove(internal_id, document)
        try:
            for op, spec in update.items():
                if op == "$set":
                    for path, value in spec.items():
                        if path == "_id":
                            raise QueryError("_id is immutable")
                        set_path(document, path, deep_copy({"v": value})["v"])
                elif op == "$unset":
                    for path in spec:
                        if path == "_id":
                            raise QueryError("_id is immutable")
                        unset_path(document, path)
                elif op == "$inc":
                    for path, delta in spec.items():
                        current = get_path(document, path, 0) or 0
                        set_path(document, path, current + delta)
                elif op == "$push":
                    for path, value in spec.items():
                        current = get_path(document, path)
                        if current is None:
                            current = []
                        if not isinstance(current, list):
                            raise QueryError(f"$push target {path!r} is not an array")
                        current.append(deep_copy({"v": value})["v"])
                        set_path(document, path, current)
                elif op == "$addToSet":
                    for path, value in spec.items():
                        current = get_path(document, path)
                        if current is None:
                            current = []
                        if not isinstance(current, list):
                            raise QueryError(
                                f"$addToSet target {path!r} is not an array"
                            )
                        if value not in current:
                            current.append(deep_copy({"v": value})["v"])
                        set_path(document, path, current)
                elif op == "$pull":
                    for path, value in spec.items():
                        current = get_path(document, path)
                        if current is None:
                            continue
                        if not isinstance(current, list):
                            raise QueryError(f"$pull target {path!r} is not an array")
                        set_path(
                            document,
                            path,
                            [element for element in current if element != value],
                        )
                elif op == "$rename":
                    for path, new_path in spec.items():
                        if path == "_id" or new_path == "_id":
                            raise QueryError("_id is immutable")
                        value = get_path(document, path, default=_RENAME_MISSING)
                        if value is _RENAME_MISSING:
                            continue
                        unset_path(document, path)
                        set_path(document, new_path, value)
                else:
                    raise QueryError(f"unknown update operator {op!r}")
        finally:
            for index in affected:
                index.add(internal_id, document)
                index.flush()

    def __len__(self) -> int:
        return len(self._partition.live._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Collection(name={self.name!r}, documents={len(self)})"


class CollectionSnapshot:
    """A consistent, lock-free read view over the last published epoch.

    Pins the collection's ``published`` state at construction time.
    Writers never mutate a published state (the first write after a commit
    copies it), so every read through the snapshot sees exactly the epoch
    that was committed when the snapshot was taken — while the live
    collection keeps changing underneath.
    """

    def __init__(self, collection: Collection) -> None:
        self.name = collection.name
        #: Inherited at snapshot time; lazy views over a *published* state
        #: are stable forever (writers copy-on-write, never mutate it).
        self.copy_mode = collection.copy_mode
        # One attribute read pins the epoch: ``publish`` swaps the
        # published state in a single reference assignment.
        self._state = collection._partition.published
        #: Snapshots are strict: there is no degraded opt-in, because a
        #: snapshot is exactly the API that promises a complete epoch.
        self._quarantined = collection._quarantined

    @property
    def _materialize(self) -> Any:
        return deep_copy if self.copy_mode == "eager" else lazy_document

    def _plan(
        self, filter_doc: Optional[dict], sort: Optional[List[tuple]] = None
    ) -> Plan:
        if self._quarantined:
            raise DegradedReadError(self.name, "snapshot read")
        return plan_read(self._state, filter_doc, sort)

    def find(
        self,
        filter_doc: Optional[dict] = None,
        projection: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        limit: Optional[int] = None,
        skip: int = 0,
    ) -> List[dict]:
        """Planned read over the snapshot (same semantics as live ``find``)."""
        plan = self._plan(filter_doc, sort)
        results = list(
            execute_find(
                self._state, plan, skip=skip, limit=limit,
                materialize=self._materialize,
            )
        )
        if projection:
            results = list(run_pipeline(results, [{"$project": projection}]))
        return results

    def find_one(self, filter_doc: Optional[dict] = None) -> Optional[dict]:
        plan = self._plan(filter_doc)
        for internal_id in iter_matching_ids(self._state, plan):
            return self._materialize(self._state._documents[internal_id])
        return None

    def count_documents(self, filter_doc: Optional[dict] = None) -> int:
        plan = self._plan(filter_doc)
        if not filter_doc:
            return len(self)
        return count_matching(self._state, plan)

    def distinct(self, path: str, filter_doc: Optional[dict] = None) -> List[Any]:
        seen: Dict[str, Any] = {}
        documents = self._state._documents
        for internal_id in iter_matching_ids(self._state, self._plan(filter_doc)):
            value = get_path(documents[internal_id], path, default=None)
            values = value if isinstance(value, list) else [value]
            for element in values:
                if element is not None:
                    seen.setdefault(repr(element), element)
        return [seen[key] for key in sorted(seen)]

    def aggregate(self, pipeline: List[dict]) -> List[dict]:
        """Aggregation over the snapshot, with the same pushdown rules."""
        pushdown = split_pushdown(pipeline)
        plan = self._plan(pushdown.filter_doc, pushdown.sort_spec)
        source: Iterable[dict] = execute_find(
            self._state, plan, skip=pushdown.skip, limit=pushdown.limit,
            materialize=self._materialize,
        )
        return list(run_pipeline(source, pushdown.rest))

    def all(self) -> Iterator[dict]:
        """Iterate the epoch's documents (materialized) in insertion order."""
        if self._quarantined:
            raise DegradedReadError(self.name, "snapshot all")
        materialize = self._materialize
        documents = self._state._documents
        for internal_id in sorted(documents):
            yield materialize(documents[internal_id])

    def __len__(self) -> int:
        return len(self._state._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CollectionSnapshot(name={self.name!r}, documents={len(self)})"


def _update_touched_paths(update: dict) -> Optional[set]:
    """Dotted paths an update spec may modify, or ``None`` when unknowable.

    ``$rename`` touches both its source and its target path.  A malformed
    spec (non-dict operand) returns ``None`` so the caller falls back to
    maintaining every index — ``_apply_update`` will raise on it anyway, and
    the try/finally there must still restore whatever was removed.
    """
    paths: set = set()
    for op, spec in update.items():
        if not isinstance(spec, dict):
            return None
        for path, value in spec.items():
            paths.add(str(path))
            if op == "$rename" and isinstance(value, str):
                paths.add(value)
    return paths


def _strip_numeric_segments(path: str) -> str:
    return ".".join(part for part in path.split(".") if not part.isdigit())


def _paths_overlap(update_path: str, index_path: str) -> bool:
    """Whether writing ``update_path`` can change keys at ``index_path``.

    True when either is a dotted prefix of the other (writing ``a`` rewrites
    ``a.b``; writing ``a.b`` changes what an index on ``a`` sees).  Numeric
    segments are stripped first so ``tags.0`` overlaps an index on ``tags``.
    """
    a = _strip_numeric_segments(update_path)
    b = _strip_numeric_segments(index_path)
    return a == b or a.startswith(b + ".") or b.startswith(a + ".")


def _freeze_id(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_id(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze_id(v) for v in value)
    return value
