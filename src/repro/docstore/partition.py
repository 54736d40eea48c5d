"""A collection's storage: one document map, id map and index set, in epochs.

Every :class:`~repro.docstore.collection.Collection` owns exactly one
:class:`Partition`.  The partition holds a :class:`PartitionState` — the
document map, the ``_id`` map and the secondary indexes — shaped exactly
like the single-dict store the query planner reads, so every planner entry
point (:func:`~repro.docstore.planner.plan_read`,
:func:`~repro.docstore.planner.execute_find`, ...) takes a state directly.

The partition also carries snapshot isolation through copy-on-write
epochs.  ``live`` is the state writers mutate; ``published`` is the state
handed to snapshot readers.  :meth:`Partition.publish` (called by
``Database.commit``) makes the current live state the published one in a
single reference assignment — atomic under the GIL, so a concurrent
reader sees either the old epoch or the new one, never a mix.  The first
write after a publish copies the state (:meth:`PartitionState.clone`:
shallow document map, cloned indexes), and in-place document updates
privatize the document first (:meth:`Partition.writable_document`), so a
published epoch is never mutated once a reader can hold it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.docstore.documents import deep_copy

__all__ = ["PartitionState", "Partition"]


class PartitionState:
    """One epoch of a collection: documents, id map and indexes.

    Attribute names deliberately match the private storage attributes the
    planner reads on a collection (``_documents`` / ``_by_user_id`` /
    ``_indexes``), so a state object *is* a valid planner target.
    """

    __slots__ = ("_documents", "_by_user_id", "_indexes")

    def __init__(
        self,
        documents: Optional[Dict[int, dict]] = None,
        by_user_id: Optional[Dict[Any, int]] = None,
        indexes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._documents: Dict[int, dict] = {} if documents is None else documents
        self._by_user_id: Dict[Any, int] = {} if by_user_id is None else by_user_id
        self._indexes: Dict[str, Any] = {} if indexes is None else indexes

    def clone(self) -> "PartitionState":
        """Copy for copy-on-write: new maps, cloned indexes, shared docs.

        Document dicts are shared between the clone and the original until
        :meth:`Partition.writable_document` privatizes one — cloning is
        O(collection) in map entries, not in document bytes.
        """
        return PartitionState(
            documents=dict(self._documents),
            by_user_id=dict(self._by_user_id),
            indexes={name: index.clone() for name, index in self._indexes.items()},
        )

    def __len__(self) -> int:
        return len(self._documents)


class Partition:
    """A collection's storage, with copy-on-write epochs."""

    __slots__ = ("live", "published", "_owned")

    def __init__(self) -> None:
        state = PartitionState()
        #: The state writers mutate (after :meth:`writable` privatizes it).
        self.live = state
        #: The last published epoch; what snapshot readers iterate.
        self.published = state
        #: Internal ids whose document dict is private to ``live`` (safe to
        #: mutate in place).  Reset whenever ``live`` is re-cloned.
        self._owned: Set[int] = set()

    def writable(self) -> PartitionState:
        """The live state, copied first if a reader could be holding it."""
        if self.live is self.published:
            self.live = self.published.clone()
            self._owned = set()
        return self.live

    def writable_document(self, internal_id: int) -> dict:
        """A privately-owned copy of a live document, safe to mutate."""
        state = self.writable()
        if internal_id not in self._owned:
            state._documents[internal_id] = deep_copy(state._documents[internal_id])
            self._owned.add(internal_id)
        return state._documents[internal_id]

    def own(self, internal_id: int) -> None:
        """Mark ``internal_id``'s document as private to the live state."""
        self._owned.add(internal_id)

    def expose(self) -> None:
        """Forget document ownership after lazy views were handed out.

        Lazy reads materialize views that share container structure with
        the live documents; once a caller can hold such a view, mutating
        an owned document in place would silently rewrite the already
        returned result.  Dropping ownership makes the next
        :meth:`writable_document` deep-copy first, so results handed out
        before a write stay bit-stable after it (write-after-read
        safety), while pure write runs keep the in-place fast path.
        """
        if self._owned:
            self._owned = set()

    def publish(self) -> None:
        """Atomically make the live state the published epoch.

        A single reference assignment: concurrent readers that already
        grabbed the old ``published`` keep a consistent epoch; new readers
        get the new one.  After publishing, the next write copies.

        Sorted indexes merge their buffered additions first (normally a
        no-op — every write path flushes at its end), so a published
        epoch's runs are final: snapshot readers never trigger (and so
        never race on) a deferred merge.
        """
        for index in self.live._indexes.values():
            index.flush()
        self.published = self.live

    def __len__(self) -> int:
        return len(self.live._documents)
