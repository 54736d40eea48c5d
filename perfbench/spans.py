"""Spans and counts recorded from the benchmark around the program's public calls.

A :class:`Tracer` keeps every span (name, start, end, parent) and every
count in memory; the worker writes them out when its command ends.  With
``enabled=False`` a span is a bare ``yield`` and nothing is recorded, so
the untraced and traced runs execute the same calls.

Stdlib only: both the worker (which imports the program) and the
orchestrator (which does not) use this module.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional


class Tracer:
    """In-memory span and count recorder for one worker process."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body, as a child of the open span."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = {"id": index, "name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the counter ``name`` (only when tracing)."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[dict]) -> List[dict]:
    """Each span with its duration and self time (duration minus children).

    A span's self time is its duration minus the part of its interval
    that its direct children cover.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    rows = []
    for span in spans:
        duration = span["end"] - span["start"]
        covered = _covered(children.get(span["id"], []))
        rows.append(dict(span, duration=duration, self=duration - covered))
    return rows


def uncovered_time(spans: List[dict]) -> float:
    """Time of the root spans that no direct child span covers."""
    return sum(row["self"] for row in self_times(spans) if row["parent"] is None)
