"""The irregularity census of Section 6.4 (Table 4).

Thirteen error-type detectors, split into *singletons* (evaluated per
record, normalised by the record count) and *pair-based* irregularities
(evaluated per duplicate pair, normalised by the pair count).  The
definitions follow the paper exactly; see each detector's docstring.
"""

from __future__ import annotations

import dataclasses
import re
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.textsim.levenshtein import damerau_levenshtein_within
from repro.textsim.phonetic import soundex
from repro.textsim.tokens import strip_non_alnum

SINGLETON_TYPES = ("outlier", "abbreviation", "missing")
PAIR_TYPES = (
    "typo",
    "ocr",
    "phonetic",
    "prefix",
    "postfix",
    "formatting",
    "token_transposition",
    "value_confusion",
    "integrated_value",
    "scattered_value",
)

_ABBREVIATION = re.compile(r"^[A-Za-z][.,]?$")
_MISSING_MARKERS = frozenset(("", "-", "--", "N/A", "NA", "NULL", "NONE", "UNKNOWN"))
_NAME_CHARS = re.compile(r"^[A-Za-z ,.'\-]*$")
_TRAILING_PUNCT = re.compile(r"[.,;]$")

#: Attributes treated as names for the outlier character check.
_NAME_ATTRIBUTES = frozenset(
    ("first_name", "midl_name", "last_name", "name_sufx", "birth_place")
)


def is_outlier(attribute: str, value: str) -> bool:
    """Out-of-range age or a character unusual for the attribute's domain."""
    value = value.strip()
    if not value:
        return False
    if attribute == "age":
        try:
            age = int(value)
        except ValueError:
            return True
        return not 16 <= age <= 110
    if attribute in _NAME_ATTRIBUTES:
        return not _NAME_CHARS.match(value)
    return False


def is_abbreviation(value: str) -> bool:
    """A single letter, possibly followed by a punctuation mark."""
    return bool(_ABBREVIATION.match(value.strip()))


def is_missing(value: Optional[str]) -> bool:
    """Null, empty, or a marker value indicating missing information."""
    if value is None:
        return True
    return value.strip().upper() in _MISSING_MARKERS


def is_typo(left: str, right: str) -> bool:
    """Damerau-Levenshtein distance 1 between lowercased values (len > 2)."""
    left, right = left.strip(), right.strip()
    if len(left) <= 2 or len(right) <= 2:
        return False
    left_lower, right_lower = left.lower(), right.lower()
    if left_lower == right_lower:
        return False
    # Thresholded kernel: values whose lengths differ by more than one edit
    # are rejected without computing a distance.
    return damerau_levenshtein_within(left_lower, right_lower, 1) == 1


def is_ocr_error(left: str, right: str) -> bool:
    """Distinct equal-length values differing only where one has a digit."""
    left, right = left.strip(), right.strip()
    if left == right or len(left) != len(right) or not left:
        return False
    for ch_left, ch_right in zip(left, right):
        if ch_left == ch_right:
            continue
        if ch_left.isdigit() and ch_right.isdigit():
            return False  # both digits must be identical
        if not ch_left.isdigit() and not ch_right.isdigit():
            return False  # a difference position needs a digit on one side
    return True


def is_phonetic_error(left: str, right: str) -> bool:
    """Same soundex, different letters-only forms, both longer than 2."""
    left_letters = "".join(ch for ch in left.strip() if ch.isalpha())
    right_letters = "".join(ch for ch in right.strip() if ch.isalpha())
    if len(left_letters) <= 2 or len(right_letters) <= 2:
        return False
    if left_letters == right_letters:
        return False
    code = soundex(left_letters)
    return bool(code) and code == soundex(right_letters)


def _strip_trailing_punct(value: str) -> str:
    return _TRAILING_PUNCT.sub("", value)


def is_prefix(left: str, right: str) -> bool:
    """The shorter value is a prefix of the longer (abbreviations)."""
    left, right = left.strip(), right.strip()
    if left == right or not left or not right:
        return False
    shorter, longer = sorted((left, right), key=len)
    shorter = _strip_trailing_punct(shorter)
    return bool(shorter) and len(shorter) < len(longer) and longer.startswith(shorter)


def is_postfix(left: str, right: str) -> bool:
    """The shorter value is a postfix of the longer (forgotten prefixes)."""
    left, right = left.strip(), right.strip()
    if left == right or not left or not right:
        return False
    shorter, longer = sorted((left, right), key=len)
    shorter = _strip_trailing_punct(shorter)
    return bool(shorter) and len(shorter) < len(longer) and longer.endswith(shorter)


def is_different_representation(left: str, right: str) -> bool:
    """Values differing only in non-alphanumeric characters."""
    left, right = left.strip(), right.strip()
    if left == right:
        return False
    stripped_left = strip_non_alnum(left)
    stripped_right = strip_non_alnum(right)
    return bool(stripped_left) and stripped_left == stripped_right


def is_token_transposition(left: str, right: str) -> bool:
    """Identical token sets in different order."""
    tokens_left = left.split()
    tokens_right = right.split()
    if tokens_left == tokens_right or len(tokens_left) < 2:
        return False
    return sorted(tokens_left) == sorted(tokens_right) and len(tokens_left) == len(
        tokens_right
    )


def is_value_confusion(
    record_a: Dict[str, str], record_b: Dict[str, str], attr1: str, attr2: str
) -> bool:
    """The two attribute values are swapped between the records."""
    a1 = (record_a.get(attr1) or "").strip()
    a2 = (record_a.get(attr2) or "").strip()
    b1 = (record_b.get(attr1) or "").strip()
    b2 = (record_b.get(attr2) or "").strip()
    if not a1 or not a2 or a1 == a2:
        return False
    return a1 == b2 and a2 == b1


def is_integrated_value(
    record_a: Dict[str, str], record_b: Dict[str, str], attr1: str, attr2: str
) -> bool:
    """One record integrates the other's ``attr2`` value into ``attr1``."""
    for first, second in ((record_a, record_b), (record_b, record_a)):
        a1 = (first.get(attr1) or "").strip()
        a2 = (first.get(attr2) or "").strip()
        b1 = (second.get(attr1) or "").strip()
        b2 = (second.get(attr2) or "").strip()
        if not a1 or not a2 or b2:
            continue
        combined = sorted((a1 + " " + a2).split())
        if sorted(b1.split()) == combined and b1 != a1:
            return True
    return False


def is_scattered_value(
    record_a: Dict[str, str], record_b: Dict[str, str], attr1: str, attr2: str
) -> bool:
    """Same token set over (attr1, attr2), distributed differently.

    Confusions and integrations are excluded (they are counted separately).
    """
    a1 = (record_a.get(attr1) or "").strip()
    a2 = (record_a.get(attr2) or "").strip()
    b1 = (record_b.get(attr1) or "").strip()
    b2 = (record_b.get(attr2) or "").strip()
    if (a1, a2) == (b1, b2):
        return False
    if not (a1 or a2) or not (b1 or b2):
        return False
    tokens_a = sorted((a1 + " " + a2).split())
    tokens_b = sorted((b1 + " " + b2).split())
    if tokens_a != tokens_b or len(tokens_a) < 2:
        return False
    if is_value_confusion(record_a, record_b, attr1, attr2):
        return False
    if is_integrated_value(record_a, record_b, attr1, attr2):
        return False
    return True


@dataclasses.dataclass
class IrregularityCount:
    """Occurrences of one irregularity type."""

    error_type: str
    total: int
    by_attribute: Dict[str, int]
    normaliser: int

    @property
    def percentage(self) -> float:
        """Occurrences normalised by records (singletons) or pairs."""
        return self.total / self.normaliser if self.normaliser else 0.0

    @property
    def most_common_attribute(self) -> str:
        """The attribute (or attribute pair) hit most often."""
        if not self.by_attribute:
            return ""
        return max(self.by_attribute.items(), key=lambda item: item[1])[0]


class IrregularityCensus:
    """Counts the thirteen irregularity types over records and pairs.

    ``attributes`` restricts the analysis (the paper uses the personal
    attributes).  ``multi_attribute_pairs`` lists the attribute pairs
    checked for confusions/integrations/scattering (default: the three name
    attributes, where the paper found them).
    """

    def __init__(
        self,
        attributes: Sequence[str],
        multi_attribute_pairs: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> None:
        if not attributes:
            raise ValueError("attributes must not be empty")
        self.attributes = tuple(attributes)
        if multi_attribute_pairs is None:
            multi_attribute_pairs = (
                ("first_name", "midl_name"),
                ("first_name", "last_name"),
                ("midl_name", "last_name"),
            )
        self.multi_attribute_pairs = tuple(multi_attribute_pairs)
        self._singletons: Dict[str, Counter] = {t: Counter() for t in SINGLETON_TYPES}
        self._pairs: Dict[str, Counter] = {t: Counter() for t in PAIR_TYPES}
        self._examples: Dict[str, List[str]] = {}
        self.max_examples = 3
        self.records_seen = 0
        self.pairs_seen = 0

    def _remember_example(self, error_type: str, example: str) -> None:
        bucket = self._examples.setdefault(error_type, [])
        if len(bucket) < self.max_examples:
            bucket.append(example)

    def examples(self, error_type: str) -> List[str]:
        """Captured example values of one irregularity type (Table 4 style)."""
        return list(self._examples.get(error_type, ()))

    # ----------------------------------------------------------------- feeds

    def add_record(self, record: Dict[str, str]) -> None:
        """Feed one record through the singleton detectors."""
        self.records_seen += 1
        for attribute in self.attributes:
            value = record.get(attribute)
            if is_missing(value):
                self._singletons["missing"][attribute] += 1
                self._remember_example("missing", f"{attribute} = {value!r}")
                continue
            if is_outlier(attribute, value):
                self._singletons["outlier"][attribute] += 1
                self._remember_example("outlier", f"{attribute} = {value!r}")
            if is_abbreviation(value):
                self._singletons["abbreviation"][attribute] += 1
                self._remember_example("abbreviation", f"{attribute} = {value!r}")

    def add_pair(self, left: Dict[str, str], right: Dict[str, str]) -> None:
        """Feed one duplicate record pair through the pair detectors."""
        self.pairs_seen += 1
        for attribute in self.attributes:
            value_left = (left.get(attribute) or "").strip()
            value_right = (right.get(attribute) or "").strip()
            if not value_left or not value_right or value_left == value_right:
                continue
            pair_example = f"{value_left!r} vs {value_right!r}"
            if is_typo(value_left, value_right):
                self._pairs["typo"][attribute] += 1
                self._remember_example("typo", pair_example)
            if is_ocr_error(value_left, value_right):
                self._pairs["ocr"][attribute] += 1
                self._remember_example("ocr", pair_example)
            if is_phonetic_error(value_left, value_right):
                self._pairs["phonetic"][attribute] += 1
                self._remember_example("phonetic", pair_example)
            if is_prefix(value_left, value_right):
                self._pairs["prefix"][attribute] += 1
                self._remember_example("prefix", pair_example)
            if is_postfix(value_left, value_right):
                self._pairs["postfix"][attribute] += 1
                self._remember_example("postfix", pair_example)
            if is_different_representation(value_left, value_right):
                self._pairs["formatting"][attribute] += 1
                self._remember_example("formatting", pair_example)
            if is_token_transposition(value_left, value_right):
                self._pairs["token_transposition"][attribute] += 1
                self._remember_example("token_transposition", pair_example)
        for attr1, attr2 in self.multi_attribute_pairs:
            label = f"{attr1}/{attr2}"
            confusion_example = (
                f"({(left.get(attr1) or '').strip()}, {(left.get(attr2) or '').strip()}) vs "
                f"({(right.get(attr1) or '').strip()}, {(right.get(attr2) or '').strip()})"
            )
            if is_value_confusion(left, right, attr1, attr2):
                self._pairs["value_confusion"][label] += 1
                self._remember_example("value_confusion", confusion_example)
            if is_integrated_value(left, right, attr1, attr2):
                self._pairs["integrated_value"][label] += 1
                self._remember_example("integrated_value", confusion_example)
            if is_scattered_value(left, right, attr1, attr2):
                self._pairs["scattered_value"][label] += 1
                self._remember_example("scattered_value", confusion_example)

    def add_cluster(self, records: Sequence[Dict[str, str]]) -> None:
        """Feed every record and every duplicate pair of one cluster."""
        for record in records:
            self.add_record(record)
        for j in range(1, len(records)):
            for i in range(j):
                self.add_pair(records[i], records[j])

    # --------------------------------------------------------------- results

    def counts(self) -> List[IrregularityCount]:
        """Table 4: one row per irregularity type."""
        rows = []
        for error_type in SINGLETON_TYPES:
            counter = self._singletons[error_type]
            rows.append(
                IrregularityCount(
                    error_type=error_type,
                    total=sum(counter.values()),
                    by_attribute=dict(counter),
                    normaliser=self.records_seen,
                )
            )
        for error_type in PAIR_TYPES:
            counter = self._pairs[error_type]
            rows.append(
                IrregularityCount(
                    error_type=error_type,
                    total=sum(counter.values()),
                    by_attribute=dict(counter),
                    normaliser=self.pairs_seen,
                )
            )
        return rows

    def count(self, error_type: str) -> IrregularityCount:
        """The row of one specific irregularity type."""
        for row in self.counts():
            if row.error_type == error_type:
                return row
        raise KeyError(f"unknown error type {error_type!r}")
