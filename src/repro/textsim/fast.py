"""Fast similarity kernels — the hot path behind :mod:`repro.textsim`.

The enrichment stage scores every record pair of every cluster, which calls
the Damerau-Levenshtein and Monge-Elkan measures millions of times at full
scale.  This module keeps those calls cheap while staying **bit-identical**
to the naive reference implementations in :mod:`repro.textsim._reference`
(property-tested in ``tests/textsim/test_fast_equivalence.py``):

* :func:`levenshtein_distance` / :func:`damerau_levenshtein_distance` —
  one bit-parallel kernel (Myers 1999, with Hyyrö's 2003 transposition
  term for the restricted Damerau variant): per-character match masks of
  the shorter string, one pass of word operations per character of the
  longer string;
* :func:`_edit_distance_many` — the same recurrence over a batch of
  pairs, one numpy ``uint64`` lane per pair (pairs whose shorter string
  exceeds 64 characters fall back to the scalar kernel);
* :func:`levenshtein_within` / :func:`damerau_levenshtein_within` — for
  callers that only need "distance ≤ k?": a length prefilter, then the
  exact distance compared to ``k``;
* :func:`tokens_of` + :func:`monge_elkan_tokens` — token interning and a
  bounded shared LRU over token-pair similarities for the Monge-Elkan
  measures (voter attribute values repeat heavily, so the same token pairs
  recur across millions of record pairs); two single-token values skip
  the Monge-Elkan loops and score their token pair directly;
* :func:`symmetric_monge_elkan_many` — symmetric Monge-Elkan over a batch
  of value pairs: every distinct token pair of the batch goes through one
  :func:`_edit_distance_many` call, then the per-token maxima are reduced
  in the reference's order.  Duplicate detection scores candidates this
  way (:meth:`repro.dedup.matching.RecordMatcher.score_pairs`).  The
  per-pair functions and their LRUs stay for the heterogeneity scores of
  ``generate`` and ``customize``: they score one value pair at a time
  inside the cluster scorers, and ``generate`` never imports numpy;
* :func:`qgram_set` + :func:`jaccard_qgrams` — memoised q-gram sets and a
  count prefilter (:func:`jaccard_qgrams_at_least`) that rejects pairs from
  set sizes alone before any intersection is built.

The public wrappers in :mod:`repro.textsim.levenshtein`,
:mod:`repro.textsim.monge_elkan` and :mod:`repro.textsim.jaccard` delegate
here, so every existing caller speeds up without code changes.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.textsim.base import normalize_for_comparison
from repro.textsim.tokens import qgrams, tokenize

if TYPE_CHECKING:
    import numpy as np


def _edit_distance(left: str, right: str, transpositions: bool) -> int:
    """Levenshtein or restricted Damerau-Levenshtein (OSA) distance, bit-parallel.

    Myers' (1999) bit-vector algorithm in Hyyrö's (2003) formulation: bit
    ``i`` of the per-character match masks stands for character ``i`` of
    the shorter string, and one pass over the longer string updates the
    vertical and horizontal delta vectors of a whole DP column in a few
    word operations.  Python ints serve as unbounded bit-vectors, so any
    length works.  With ``transpositions`` Hyyrö's transposition term is
    added to the diagonal; without it the loop is exact Levenshtein.
    """
    if left == right:
        return 0
    if len(left) > len(right):  # both measures are symmetric
        left, right = right, left
    if not left:
        return len(right)
    masks: Dict[str, int] = {}
    bit = 1
    for char in left:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    keep = full if transpositions else 0
    distance = len(left)
    vp, vn, d0, pm_old = full, 0, 0, 0
    get = masks.get
    for char in right:
        pm = get(char, 0)
        # ``~d0`` is the previous column's: a transposition needs a
        # mismatch there and a match of each character one row apart.
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | (((~d0 & pm) << 1) & pm_old)
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
        pm_old = pm & keep
    return distance


#: Bits in one lane of :func:`_edit_distance_many`: the longest shorter
#: string whose match masks fit in one ``uint64``.
_LANE_BITS = 64


def _edit_distance_many(
    lefts: Sequence[str], rights: Sequence[str], transpositions: bool
) -> "np.ndarray":
    """``_edit_distance(lefts[k], rights[k], transpositions)`` for every ``k``.

    The same Myers/Hyyrö recurrence as :func:`_edit_distance`, run on numpy
    ``uint64`` lanes, one lane per pair.  Lanes are grouped by the length of
    their longer string, so one group runs one column step per character
    of that length for all its lanes at once.  A lane's match masks compare
    the code points of its shorter string (a ``U<n>`` array viewed as
    ``uint32``) with the current column's character.  The only per-lane
    width is the top bit ``m - 1`` of the lane's shorter string, which
    steps the distance.  Bits at or above ``m`` (the ones ``vp`` starts
    with, carries and shifts, and the view's code-point-0 padding that
    matches a NUL in the longer string) never flow back below it, as
    carries and shifts only move upwards, so no lane needs masking and
    every lane's distance equals the unbounded-int kernel's.
    Pairs whose shorter string is longer than one lane (64 characters)
    fall back to :func:`_edit_distance`; a pair with an empty string costs
    the other string's length.  Returns an ``int64`` array.
    """
    import numpy as np

    count = len(lefts)
    left_objects = np.array(lefts, dtype=object)
    right_objects = np.array(rights, dtype=object)
    left_lengths = np.fromiter(map(len, lefts), dtype=np.int64, count=count)
    right_lengths = np.fromiter(map(len, rights), dtype=np.int64, count=count)
    swap = left_lengths > right_lengths  # both measures are symmetric
    shorts = np.where(swap, right_objects, left_objects)
    longs = np.where(swap, left_objects, right_objects)
    short_lengths = np.minimum(left_lengths, right_lengths)
    long_lengths = np.maximum(left_lengths, right_lengths)
    distances = long_lengths.copy()  # right for every empty shorter string
    for index in np.flatnonzero(short_lengths > _LANE_BITS).tolist():
        distances[index] = _edit_distance(lefts[index], rights[index], transpositions)
    lanes = np.flatnonzero((short_lengths > 0) & (short_lengths <= _LANE_BITS))
    lanes = lanes[np.argsort(long_lengths[lanes], kind="stable")]
    lengths, starts = np.unique(long_lengths[lanes], return_index=True)
    bounds = [*starts.tolist(), len(lanes)]
    for length, start, stop in zip(lengths.tolist(), bounds, bounds[1:]):
        group = lanes[start:stop]
        distances[group] = _edit_distance_lanes(
            shorts[group], longs[group], short_lengths[group], length, transpositions
        )
    return distances


def _edit_distance_lanes(
    shorts: "np.ndarray",
    longs: "np.ndarray",
    short_lengths: "np.ndarray",
    length: int,
    transpositions: bool,
) -> "np.ndarray":
    """One lane group of :func:`_edit_distance_many`: every longer string
    has ``length`` characters and every shorter one 1 to 64."""
    import numpy as np

    lanes = len(shorts)
    width = int(short_lengths.max())
    pattern = shorts.astype(f"U{width}").view(np.uint32).reshape(lanes, width)
    text = longs.astype(f"U{length}").view(np.uint32).reshape(lanes, length)
    # Bit i of masks[j, lane]: character i of the shorter string equals
    # character j of the longer one.
    matches = text.T[:, :, None] == pattern[None, :, :]
    packed = np.packbits(matches, axis=2, bitorder="little")
    words = np.zeros((length, lanes, 8), dtype=np.uint8)
    words[:, :, : packed.shape[2]] = packed
    masks = words.view("<u8")[:, :, 0].astype(np.uint64)
    one = np.uint64(1)
    last = one << (short_lengths - 1).astype(np.uint64)
    distance = short_lengths.copy()
    vn = np.zeros(lanes, dtype=np.uint64)
    vp = ~vn
    d0 = vn
    pm_old = vn
    for pm in masks:
        # ``~d0`` is the previous column's: a transposition needs a
        # mismatch there and a match of each character one row apart.
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | (((~d0 & pm) << one) & pm_old)
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        up = (hp & last) != 0
        distance += up
        distance -= ((hn & last) != 0) & ~up
        hp = (hp << one) | one
        vp = (hn << one) | ~(d0 | hp)
        vn = hp & d0
        if transpositions:
            pm_old = pm
    return distance


def levenshtein_distance(left: str, right: str) -> int:
    """Levenshtein distance; bit-identical to the naive DP, much faster."""
    return _edit_distance(left, right, transpositions=False)


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Restricted Damerau-Levenshtein (OSA) distance, fast path."""
    return _edit_distance(left, right, transpositions=True)


def levenshtein_within(left: str, right: str, max_dist: int) -> Optional[int]:
    """Levenshtein distance if it is ``<= max_dist``, else ``None``.

    Pairs whose length difference alone exceeds the bound are rejected
    without running the kernel; otherwise the exact distance is compared
    to ``max_dist``.
    """
    return _within(left, right, max_dist, transpositions=False)


def damerau_levenshtein_within(left: str, right: str, max_dist: int) -> Optional[int]:
    """Restricted Damerau-Levenshtein distance if ``<= max_dist``, else ``None``."""
    return _within(left, right, max_dist, transpositions=True)


def _within(left: str, right: str, max_dist: int, transpositions: bool) -> Optional[int]:
    if max_dist < 0:
        raise ValueError(f"max_dist must be >= 0, got {max_dist}")
    if abs(len(left) - len(right)) > max_dist:
        return None
    distance = _edit_distance(left, right, transpositions)
    return distance if distance <= max_dist else None


# --------------------------------------------------------------- Monge-Elkan


def intern_values(values: Iterable[str]) -> Tuple[str, ...]:
    """Intern a sequence of attribute values into a tuple.

    Shingled records (:func:`repro.dedup.embeddings.record_shingles`) hold
    millions of heavily repeated strings; interning collapses them to one
    object per distinct value, so equality checks resolve by pointer
    identity in the common case and each slot costs one pointer instead
    of one string copy.
    """
    return tuple(sys.intern(value) for value in values)


@lru_cache(maxsize=131072)
def tokens_of(value: str) -> Tuple[str, ...]:
    """Whitespace tokens of ``value``, interned and cached.

    Interning makes the token-pair cache keys compare by pointer in the
    common case; the LRU bound keeps memory flat on unbounded value streams.
    """
    return tuple(sys.intern(token) for token in tokenize(value))


@lru_cache(maxsize=262144)
def _token_pair_dl_similarity(left: str, right: str) -> float:
    """Damerau-Levenshtein similarity of a canonically ordered token pair.

    Same formula as ``damerau_levenshtein_similarity`` (tokens are already
    normalized strings), so the cached value is bit-identical.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - damerau_levenshtein_distance(left, right) / longest


def monge_elkan_tokens(
    tokens_left: Sequence[str], tokens_right: Sequence[str]
) -> float:
    """One-directional Monge-Elkan over token sequences (DL internal measure).

    Accumulates in the same order as the reference implementation, so the
    result is bit-identical; the per-token maxima come from the shared
    token-pair LRU and short-circuit on exact token matches.
    """
    if not tokens_left and not tokens_right:
        return 1.0
    if not tokens_left or not tokens_right:
        return 0.0
    total = 0.0
    for token_a in tokens_left:
        best = 0.0
        for token_b in tokens_right:
            if token_a == token_b:
                best = 1.0
                break
            if token_a < token_b:
                score = _token_pair_dl_similarity(token_a, token_b)
            else:
                score = _token_pair_dl_similarity(token_b, token_a)
            if score > best:
                best = score
                if best == 1.0:
                    break
        total += best
    return total / len(tokens_left)


def symmetric_monge_elkan_cached(left: str, right: str) -> float:
    """Symmetrised Monge-Elkan with the DL internal measure, fully cached.

    Two single-token values score their token-pair similarity directly:
    both directions are that same cached float, and ``(s + s) / 2 == s``
    exactly, so the shortcut is bit-identical.
    """
    tokens_left = tokens_of(normalize_for_comparison(left))
    tokens_right = tokens_of(normalize_for_comparison(right))
    if len(tokens_left) == 1 and len(tokens_right) == 1:
        token_a, token_b = tokens_left[0], tokens_right[0]
        if token_a == token_b:
            return 1.0
        if token_a < token_b:
            return _token_pair_dl_similarity(token_a, token_b)
        return _token_pair_dl_similarity(token_b, token_a)
    forward = monge_elkan_tokens(tokens_left, tokens_right)
    backward = monge_elkan_tokens(tokens_right, tokens_left)
    return (forward + backward) / 2.0


def symmetric_monge_elkan_many(
    lefts: Sequence[str], rights: Sequence[str]
) -> List[float]:
    """``[symmetric_monge_elkan_cached(l, r) for l, r in zip(lefts, rights)]``.

    Bit-identical, in three steps.  Each distinct value is tokenised once
    with :func:`tokens_of`.  Every distinct unequal token pair of the
    whole call is scored ``1.0 - d / longest`` by one
    :func:`_edit_distance_many` call (equal tokens score 1.0).  The scores
    are then reduced in the reference's order, one group of pairs per
    token-count shape ``(p, q)``: each token's maximum over the other
    side's tokens is added one position at a time from 0.0, divided by
    the token count, and the two directions are averaged as
    ``(forward + backward) / 2.0``.  Maxima are order-free, and each sum
    keeps the reference's order, so no float moves (two one-token values
    give ``(s + s) / 2.0 == s``, the reference's shortcut).
    """
    import numpy as np

    count = len(lefts)
    if not count:
        return []
    value_ids = {
        value: index
        for index, value in enumerate(dict.fromkeys(itertools.chain(lefts, rights)))
    }
    left_ids, right_ids = (
        np.fromiter(map(value_ids.__getitem__, side), dtype=np.int64, count=count)
        for side in (lefts, rights)
    )
    token_ids: Dict[str, int] = {}
    value_tokens = [
        [
            token_ids.setdefault(token, len(token_ids))
            for token in tokens_of(normalize_for_comparison(value))
        ]
        for value in value_ids
    ]
    token_counts = np.array([len(tokens) for tokens in value_tokens], dtype=np.int64)
    most = int(token_counts.max())
    token_table = np.zeros((len(value_tokens), most), dtype=np.int64)
    for value_id, tokens in enumerate(value_tokens):
        token_table[value_id, : len(tokens)] = tokens
    tokens = list(token_ids)
    vocabulary = len(tokens)
    left_counts, right_counts = token_counts[left_ids], token_counts[right_ids]

    # Token-id matrices and token-pair keys, one entry per token-count shape.
    shape_keys = np.unique(left_counts * (most + 1) + right_counts)
    shapes = []
    for shape_key in shape_keys.tolist():
        p, q = divmod(shape_key, most + 1)
        members = np.flatnonzero((left_counts == p) & (right_counts == q))
        left_tokens = token_table[left_ids[members], :p][:, :, None]
        right_tokens = token_table[right_ids[members], :q][:, None, :]
        equal = left_tokens == right_tokens
        keys = np.minimum(left_tokens, right_tokens) * vocabulary + np.maximum(
            left_tokens, right_tokens
        )
        shapes.append((p, q, members, equal, keys[~equal]))
    distinct, inverse = np.unique(
        np.concatenate([shape[4] for shape in shapes]), return_inverse=True
    )
    firsts, seconds = distinct // vocabulary, distinct % vocabulary
    distances = _edit_distance_many(
        list(map(tokens.__getitem__, firsts.tolist())),
        list(map(tokens.__getitem__, seconds.tolist())),
        transpositions=True,
    )
    token_lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=vocabulary)
    longest = np.maximum(token_lengths[firsts], token_lengths[seconds])
    pair_scores = (1.0 - distances / longest)[inverse]

    result = np.empty(count, dtype=np.float64)
    offset = 0
    for p, q, members, equal, keys in shapes:
        scores = np.ones(equal.shape, dtype=np.float64)
        scores[~equal] = pair_scores[offset : offset + len(keys)]
        offset += len(keys)
        if p == 0 or q == 0:
            result[members] = 1.0 if p == q else 0.0
        else:
            result[members] = (
                _sum_in_order(scores.max(axis=2)) / p
                + _sum_in_order(scores.max(axis=1)) / q
            ) / 2.0
    return result.tolist()


def _sum_in_order(columns: "np.ndarray") -> "np.ndarray":
    """Row sums of a 2-D array, added left to right from 0.0 like a loop."""
    total = columns[:, 0].copy()
    for position in range(1, columns.shape[1]):
        total += columns[:, position]
    return total


# ------------------------------------------------------------------- Jaccard


@lru_cache(maxsize=131072)
def qgram_set(value: str, q: int = 3, pad: bool = True) -> frozenset:
    """The (cached) set of q-grams of a normalized value."""
    return frozenset(qgrams(value, q, pad))


def jaccard_qgrams(left: str, right: str, q: int = 3, pad: bool = True) -> float:
    """Exact q-gram Jaccard similarity via cached gram sets."""
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    if left == right:
        return 1.0  # identical values: empty == empty scores 1 by convention
    grams_left = qgram_set(left, q, pad)
    grams_right = qgram_set(right, q, pad)
    if not grams_left and not grams_right:
        return 1.0
    if not grams_left or not grams_right:
        return 0.0
    intersection = len(grams_left & grams_right)
    union = len(grams_left) + len(grams_right) - intersection
    return intersection / union


def jaccard_qgrams_at_least(
    left: str, right: str, threshold: float, q: int = 3, pad: bool = True
) -> Optional[float]:
    """The exact q-gram Jaccard similarity if it reaches ``threshold``.

    Returns ``None`` when the similarity is provably or actually below the
    threshold.  The prefilter uses gram-set sizes only: the intersection is
    at most the smaller set and the union at least the larger, so
    ``min(|L|, |R|) / max(|L|, |R|)`` bounds the similarity from above and
    most non-matching pairs are rejected without building an intersection.
    """
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    if left == right:
        return 1.0 if 1.0 >= threshold else None
    grams_left = qgram_set(left, q, pad)
    grams_right = qgram_set(right, q, pad)
    if not grams_left and not grams_right:
        return 1.0 if 1.0 >= threshold else None
    if not grams_left or not grams_right:
        return 0.0 if 0.0 >= threshold else None
    smaller, larger = len(grams_left), len(grams_right)
    if smaller > larger:
        smaller, larger = larger, smaller
    if smaller / larger < threshold:  # count prefilter: upper bound too low
        return None
    intersection = len(grams_left & grams_right)
    union = len(grams_left) + len(grams_right) - intersection
    similarity = intersection / union
    return similarity if similarity >= threshold else None


def clear_caches() -> None:
    """Reset every shared kernel cache (benchmark fairness, test isolation)."""
    tokens_of.cache_clear()
    _token_pair_dl_similarity.cache_clear()
    qgram_set.cache_clear()
