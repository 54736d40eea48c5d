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
* :func:`levenshtein_within` / :func:`damerau_levenshtein_within` — for
  callers that only need "distance ≤ k?": a length prefilter, then the
  exact distance compared to ``k``;
* :func:`tokens_of` + :func:`monge_elkan_tokens` — token interning and a
  bounded shared LRU over token-pair similarities for the Monge-Elkan
  measures (voter attribute values repeat heavily, so the same token pairs
  recur across millions of record pairs); two single-token values skip
  the Monge-Elkan loops and score their token pair directly;
* :func:`qgram_set` + :func:`jaccard_qgrams` — memoised q-gram sets and a
  count prefilter (:func:`jaccard_qgrams_at_least`) that rejects pairs from
  set sizes alone before any intersection is built.

The public wrappers in :mod:`repro.textsim.levenshtein`,
:mod:`repro.textsim.monge_elkan` and :mod:`repro.textsim.jaccard` delegate
here, so every existing caller speeds up without code changes.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.textsim.base import normalize_for_comparison
from repro.textsim.tokens import qgrams, tokenize


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
