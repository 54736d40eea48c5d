"""Levenshtein and Damerau-Levenshtein distances and similarities.

The paper uses Damerau-Levenshtein in three places:

* as the internal token measure of the Generalized Jaccard coefficient in the
  plausibility check (Section 6.2) — there in an *extended* form that treats
  missing values and prefix relations as perfect matches;
* as the sequential measure of the heterogeneity score (Section 6.3);
* as the internal token measure of Monge-Elkan (Sections 6.3 and 6.5).

The distances here are the *restricted* Damerau-Levenshtein (optimal string
alignment) variant: insert, delete, substitute, and transpose two adjacent
characters, with no substring edited twice.  This matches the paper's use of
"Damerau-Levenshtein distance of 1" to characterise typos (one character
changed or two adjacent characters swapped).
"""

from __future__ import annotations

from typing import Optional

from repro.textsim import fast
from repro.textsim.base import SimilarityMeasure, normalize_for_comparison


def levenshtein_distance(left: str, right: str) -> int:
    """Classic Levenshtein edit distance (insert / delete / substitute).

    Delegates to the fast kernel (:mod:`repro.textsim.fast`), which is
    bit-identical to the naive DP in :mod:`repro.textsim._reference`.
    """
    return fast.levenshtein_distance(left, right)


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Restricted Damerau-Levenshtein (optimal string alignment) distance.

    Delegates to the fast kernel (:mod:`repro.textsim.fast`), which is
    bit-identical to the naive DP in :mod:`repro.textsim._reference`.
    """
    return fast.damerau_levenshtein_distance(left, right)


def levenshtein_within(left: str, right: str, max_dist: int) -> Optional[int]:
    """Levenshtein distance when it is ``<= max_dist``, else ``None``.

    Pairs whose lengths differ by more than ``max_dist`` are rejected
    without computing a distance; otherwise the exact distance is compared
    to the bound.
    """
    return fast.levenshtein_within(left, right, max_dist)


def damerau_levenshtein_within(left: str, right: str, max_dist: int) -> Optional[int]:
    """Restricted Damerau-Levenshtein distance when ``<= max_dist``, else ``None``."""
    return fast.damerau_levenshtein_within(left, right, max_dist)


def damerau_levenshtein_similarity(left: str, right: str) -> float:
    """Normalised Damerau-Levenshtein similarity in ``[0, 1]``.

    ``1 - distance / max(len(left), len(right))``; two empty strings are
    identical (similarity ``1``).
    """
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - damerau_levenshtein_distance(left, right) / longest


def extended_damerau_levenshtein_similarity(left: str, right: str) -> float:
    """The paper's extended Damerau-Levenshtein similarity (Section 6.2).

    Two adjustments on top of the normalised similarity, both reflecting the
    plausibility check's stance that absence of evidence is not evidence of a
    contradiction:

    * comparison with a missing (empty) value yields ``1``;
    * if one value is a prefix of the other (an abbreviation or a truncated
      entry), the similarity is ``1``.
    """
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    if not left or not right:
        return 1.0
    if left.startswith(right) or right.startswith(left):
        return 1.0
    return damerau_levenshtein_similarity(left, right)


class DamerauLevenshtein(SimilarityMeasure):
    """Normalised Damerau-Levenshtein similarity as a measure object."""

    name = "damerau_levenshtein"

    def similarity(self, left: str, right: str) -> float:
        """Normalised similarity in [0, 1]."""
        return damerau_levenshtein_similarity(left, right)


class ExtendedDamerauLevenshtein(SimilarityMeasure):
    """Extended Damerau-Levenshtein similarity (missing / prefix → 1)."""

    name = "extended_damerau_levenshtein"

    def similarity(self, left: str, right: str) -> float:
        """Normalised similarity in [0, 1]."""
        return extended_damerau_levenshtein_similarity(left, right)
