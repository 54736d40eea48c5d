"""A small bounded LRU cache for caller-assembled keys.

:func:`functools.lru_cache` covers function-shaped caches; this class covers
the cases where the key is assembled by the caller.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """Mapping with least-recently-used eviction and a hard size bound.

    Not thread-safe by design: every consumer in this codebase runs the hot
    scoring loops in a single thread per process (parallelism is
    process-based, see :mod:`repro.core.parallel`).

    Instances are **process-local**: worker processes build their own at
    import time and never ship them back to the parent, so cached state
    can never leak between workers or affect determinism.  Module-level
    instances must cache pure functions of their keys and be registered in
    :data:`repro.analysis.concurrency.PROCESS_LOCAL_CACHES` (the R106
    exemption registry).
    """

    __slots__ = ("maxsize", "_data", "hits", "misses")

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default: Optional[Any] = None) -> Any:
        """Return the cached value (marking it recently used) or ``default``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the least recently used entry if full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LRUCache(size={len(self._data)}, maxsize={self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
