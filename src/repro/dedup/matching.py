"""Record similarity: weighted attribute average + 1:1 name matching.

"The similarity of two records was always computed as the weighted average
similarity of their values.  Since we observed that the name values are
often confused between the individual attributes, we matched every
combination of them and used the 1:1 matching with the highest similarity
for aggregation.  To weight the individual attributes we used again their
entropy." (Section 6.5)

Two call forms, bit-identical to each other:

* :meth:`RecordMatcher.similarity` — the per-pair path: strips and
  compares the raw record dicts on every call;
* :meth:`RecordMatcher.score_pairs` — the columnar batch path used by
  :mod:`repro.dedup.pipeline`: values are interned to integer codes once
  per call, and the measure scores each *distinct* value pair of each
  attribute slot once instead of once per candidate pair.  Every slot's
  distinct pairs go to the measure in one batch call,
  :meth:`~repro.textsim.base.SimilarityMeasure.similarities`, which
  :class:`~repro.textsim.MongeElkan` runs as one vectorised
  edit-distance pass; a plain function is called once per pair.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.heterogeneity import entropy_weights
from repro.textsim.base import SimilarityMeasure

SimilarityFn = Callable[[str, str], float]
BatchSimilarityFn = Callable[[Sequence[str], Sequence[str]], Sequence[float]]
Pair = Tuple[int, int]

#: The attribute group matched 1:1 in its best permutation.
DEFAULT_NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")


def _pairwise(
    measure: SimilarityFn, lefts: Sequence[str], rights: Sequence[str]
) -> List[float]:
    """The batch form of a plain similarity function: one call per pair."""
    return [measure(left, right) for left, right in zip(lefts, rights)]


class RecordMatcher:
    """Computes record pair similarities for a fixed attribute weighting.

    Parameters
    ----------
    measure:
        Value similarity function (e.g. a :class:`~repro.textsim.MongeElkan`
        instance) — "the same for all attributes" as in the paper.
    weights:
        ``attribute -> weight``; use :meth:`from_records` for entropy
        weights computed over all records including duplicates (the user
        cannot know the duplicates in advance).
    name_attributes:
        Attributes matched in their best 1:1 permutation before
        aggregation; set to ``()`` to disable.
    """

    def __init__(
        self,
        measure: SimilarityFn,
        weights: Dict[str, float],
        name_attributes: Sequence[str] = DEFAULT_NAME_ATTRIBUTES,
    ) -> None:
        if not weights:
            raise ValueError("weights must not be empty")
        self.measure = measure
        # score_pairs' batch form of the measure, resolved once.
        self._similarities: BatchSimilarityFn = (
            measure.similarities
            if isinstance(measure, SimilarityMeasure)
            else functools.partial(_pairwise, measure)
        )
        self.weights = dict(weights)
        self.name_attributes = tuple(a for a in name_attributes if a in self.weights)
        # Zero-weight attributes are dropped up front: their terms were
        # always skipped, so the (order-preserving) filter keeps the
        # accumulation sequence — and hence every float — unchanged.
        self._other_attributes = tuple(
            a
            for a in self.weights
            if a not in self.name_attributes and self.weights[a] != 0.0
        )
        self._other_weights = tuple(self.weights[a] for a in self._other_attributes)
        self._name_weights = tuple(self.weights[a] for a in self.name_attributes)
        # Hoisted out of similarity(): it was recomputed for every pair.
        self._total_weight = sum(self.weights.values())

    @classmethod
    def from_records(
        cls,
        records: Sequence[Dict[str, str]],
        attributes: Sequence[str],
        measure: SimilarityFn,
        name_attributes: Sequence[str] = DEFAULT_NAME_ATTRIBUTES,
    ) -> "RecordMatcher":
        """Entropy-weight the attributes from the records themselves."""
        return cls(measure, entropy_weights(records, attributes), name_attributes)

    def _value_similarity(self, left: str, right: str) -> float:
        if left == right:
            return 1.0
        # Canonical argument order, so an asymmetric measure gives the
        # same score either way round (and matches :meth:`score_pairs`).
        if left < right:
            return self.measure(left, right)
        return self.measure(right, left)

    def _name_assignment_score(
        self, left_values: Sequence[str], right_values: Sequence[str]
    ) -> float:
        """Best 1:1 name permutation score over pre-stripped value tuples.

        Every permutation of the right-hand values is scored against the
        left-hand attribute slots; weights stay attached to the left-hand
        attribute (the column being filled).  The per-slot similarities
        are computed once into a matrix (|names|² measure lookups instead
        of |names|! · |names|), and the accumulation order inside each
        permutation matches the historical per-permutation loop exactly —
        the result is bit-identical.
        """
        weights = self._name_weights
        count = len(weights)
        if left_values == right_values:
            first = left_values[0] if left_values else ""
            if all(value == first for value in left_values):
                # All name values are pairwise equal: every matrix entry is
                # exactly 1.0 for any measure, so every permutation totals
                # the same sum — accumulate it in slot order and exit early.
                total = 0.0
                for weight in weights:
                    total += weight * 1.0
                return total
        value_similarity = self._value_similarity
        scores = [
            [value_similarity(left_value, right_value) for right_value in right_values]
            for left_value in left_values
        ]
        best = -1.0
        for permutation in itertools.permutations(range(count)):
            total = 0.0
            for index in range(count):
                total += weights[index] * scores[index][permutation[index]]
            if total > best:
                best = total
        return best

    def _best_name_assignment(
        self, left: Dict[str, str], right: Dict[str, str]
    ) -> float:
        """Weighted similarity of the best 1:1 name attribute permutation."""
        attributes = self.name_attributes
        left_values = tuple((left.get(a) or "").strip() for a in attributes)
        right_values = tuple((right.get(a) or "").strip() for a in attributes)
        return self._name_assignment_score(left_values, right_values)

    def similarity(self, left: Dict[str, str], right: Dict[str, str]) -> float:
        """Weighted average value similarity of two flat records."""
        if self._total_weight == 0:
            return 0.0
        total = 0.0
        if self.name_attributes:
            total += self._best_name_assignment(left, right)
        for index, attribute in enumerate(self._other_attributes):
            total += self._other_weights[index] * self._value_similarity(
                (left.get(attribute) or "").strip(),
                (right.get(attribute) or "").strip(),
            )
        return total / self._total_weight

    def score_pairs(
        self, records: Sequence[Dict[str, str]], pairs: Iterable[Pair]
    ) -> Dict[Pair, float]:
        """``{(i, j): similarity(records[i], records[j])}`` in one batch.

        Every float is bit-identical to :meth:`similarity` on the same pair.
        Stripped values are interned to integer codes assigned in sorted
        string order, so ``(min code, max code)`` is the ``(min str,
        max str)`` argument order of :meth:`_value_similarity`.  Each name
        slot pairing and each other attribute then scores each of its
        distinct unequal code pairs once, all slots' pairs in one batch
        call of the measure (a pair repeated across slots is scored once
        per slot); equal values score 1.0 without a call.  The results
        are gathered back per pair and accumulated in
        :meth:`similarity`'s order: the best name permutation first, then
        ``total += weight * score`` per other attribute, then the division.
        """
        import numpy as np

        pairs = list(pairs)
        count = len(pairs)
        if self._total_weight == 0:
            return dict.fromkeys(pairs, 0.0)
        attributes = self.name_attributes + self._other_attributes
        columns = [
            [(record.get(attribute) or "").strip() for record in records]
            for attribute in attributes
        ]
        values = sorted(set().union(*columns))
        code_of = {value: code for code, value in enumerate(values)}
        width = len(values)
        ids = np.array(pairs, dtype=np.int64).reshape(count, 2)
        left, right = ids[:, 0], ids[:, 1]
        codes = [
            np.fromiter(
                (code_of[value] for value in column),
                dtype=np.int64,
                count=len(records),
            )
            for column in columns
        ]
        # Every slot pairing: each name slot against each name slot, then
        # each other attribute against itself.
        names = len(self.name_attributes)
        slots = [(a, b) for a in range(names) for b in range(names)] + [
            (slot, slot) for slot in range(names, len(attributes))
        ]
        # Pass 1: each slot's distinct unequal code pairs, and per candidate
        # pair the position of its score in the batch (-1: equal, 1.0).
        keys = []
        positions = []
        offset = 0
        # Small enough for -1 and every batch position: at most
        # count * len(slots) distinct pairs.
        position_type = np.min_scalar_type(-count * len(slots) - 1)
        for left_slot, right_slot in slots:
            left_codes, right_codes = codes[left_slot][left], codes[right_slot][right]
            low = np.minimum(left_codes, right_codes)
            high = np.maximum(left_codes, right_codes)
            differ = low != high
            distinct, inverse = np.unique(
                low[differ] * width + high[differ], return_inverse=True
            )
            position = np.full(count, -1, dtype=position_type)
            position[differ] = inverse + offset
            offset += len(distinct)
            keys.append(distinct)
            positions.append(position)
        # Pass 2: one batch call of the measure over every slot's pairs.
        batch = np.concatenate(keys)
        scored = np.append(
            np.asarray(
                self._similarities(
                    list(map(values.__getitem__, (batch // width).tolist())),
                    list(map(values.__getitem__, (batch % width).tolist())),
                ),
                dtype=np.float64,
            ),
            1.0,
        )

        total = np.zeros(count)
        if names:
            left_names = [codes[slot][left] for slot in range(names)]
            right_names = [codes[slot][right] for slot in range(names)]
            scores = [
                [scored[positions[index * names + other]] for other in range(names)]
                for index in range(names)
            ]
            best = np.full(count, -1.0)
            for permutation in itertools.permutations(range(names)):
                permutation_total = np.zeros(count)
                for index in range(names):
                    permutation_total += (
                        self._name_weights[index] * scores[index][permutation[index]]
                    )
                best = np.where(permutation_total > best, permutation_total, best)
            # When every name value of both records is equal, the per-pair
            # path takes _name_assignment_score's early exit: the slot-order
            # weight sum, which the search above floors at -1.0.
            all_equal = np.ones(count, dtype=bool)
            for name_codes in (*left_names, *right_names):
                all_equal &= name_codes == left_names[0]
            equal_total = self._name_assignment_score(("",) * names, ("",) * names)
            total += np.where(all_equal, equal_total, best)
        for index, weight in enumerate(self._other_weights):
            total += weight * scored[positions[names * names + index]]
        return dict(zip(pairs, (total / self._total_weight).tolist()))

    def __call__(self, left: Dict[str, str], right: Dict[str, str]) -> float:
        return self.similarity(left, right)
