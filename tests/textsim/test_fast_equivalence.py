"""The fast kernels must be *bit-identical* to the naive references.

:mod:`repro.textsim.fast` keeps a naive oracle next to it
(:mod:`repro.textsim._reference`) precisely so this suite can assert exact
equality — not approximate — for every optimised kernel: the bit-parallel
edit-distance kernel (short strings, strings longer than one machine word,
non-ASCII text), the length-prefiltered ``*_within`` variants, token-interned
Monge-Elkan with its single-token shortcut, the batch kernel's ``uint64``
lanes and batch Monge-Elkan, and the q-gram count prefilter.
"""

import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textsim import _reference as ref
from repro.textsim import (
    damerau_levenshtein_distance,
    damerau_levenshtein_within,
    jaccard_qgrams,
    jaccard_qgrams_at_least,
    levenshtein_distance,
    levenshtein_within,
    monge_elkan,
    symmetric_monge_elkan,
)
from repro.textsim import fast

# Small alphabets force collisions, transpositions and shared affixes far
# more often than uniform text would.
tight = st.text(alphabet="AB", max_size=8)
word = st.text(alphabet=string.ascii_uppercase, max_size=12)
name_text = st.text(alphabet=string.ascii_uppercase + " -'", max_size=20)
bound = st.integers(min_value=0, max_value=6)
# Past 64 characters the kernel's bit-vectors span several machine words.
long_tight = st.text(alphabet="AB", min_size=60, max_size=200)
# Precomposed umlauts, sharp s and a combining acute accent (U+0301).
accented = st.text(alphabet="ÄÖÜßé\u0301", max_size=12)
wide_bound = st.integers(min_value=0, max_value=20)


@given(st.one_of(tight, word), st.one_of(tight, word))
@settings(max_examples=300)
def test_levenshtein_matches_reference(left, right):
    assert levenshtein_distance(left, right) == ref.levenshtein_distance(left, right)


@given(st.one_of(tight, word), st.one_of(tight, word))
@settings(max_examples=300)
def test_damerau_levenshtein_matches_reference(left, right):
    assert damerau_levenshtein_distance(left, right) == ref.damerau_levenshtein_distance(
        left, right
    )


@given(st.one_of(tight, word), st.one_of(tight, word), bound)
@settings(max_examples=300)
def test_levenshtein_within_matches_reference(left, right, max_dist):
    distance = ref.levenshtein_distance(left, right)
    expected = distance if distance <= max_dist else None
    assert levenshtein_within(left, right, max_dist) == expected


@given(st.one_of(tight, word), st.one_of(tight, word), bound)
@settings(max_examples=300)
def test_damerau_within_matches_reference(left, right, max_dist):
    distance = ref.damerau_levenshtein_distance(left, right)
    expected = distance if distance <= max_dist else None
    assert damerau_levenshtein_within(left, right, max_dist) == expected


@given(long_tight, long_tight)
@settings(max_examples=40, deadline=None)
def test_long_strings_match_reference(left, right):
    assert levenshtein_distance(left, right) == ref.levenshtein_distance(left, right)
    assert damerau_levenshtein_distance(left, right) == ref.damerau_levenshtein_distance(
        left, right
    )


@given(st.one_of(accented, word), st.one_of(accented, word))
@settings(max_examples=300)
def test_non_ascii_matches_reference(left, right):
    assert levenshtein_distance(left, right) == ref.levenshtein_distance(left, right)
    assert damerau_levenshtein_distance(left, right) == ref.damerau_levenshtein_distance(
        left, right
    )


@given(
    st.one_of(tight, word, accented, long_tight),
    st.one_of(tight, word, accented, long_tight),
    wide_bound,
)
@settings(max_examples=200, deadline=None)
def test_within_wide_bounds_match_reference(left, right, max_dist):
    lev = ref.levenshtein_distance(left, right)
    assert levenshtein_within(left, right, max_dist) == (lev if lev <= max_dist else None)
    osa = ref.damerau_levenshtein_distance(left, right)
    assert damerau_levenshtein_within(left, right, max_dist) == (
        osa if osa <= max_dist else None
    )


@given(st.one_of(tight, word, long_tight), st.text(alphabet="AB", max_size=20))
@settings(max_examples=200, deadline=None)
def test_within_at_the_length_difference_bound(base, extra):
    """Appended characters cost exactly their count: the bound is tight."""
    longer = base + extra
    assert levenshtein_within(base, longer, len(extra)) == ref.levenshtein_distance(
        base, longer
    )
    assert damerau_levenshtein_within(
        longer, base, len(extra)
    ) == ref.damerau_levenshtein_distance(longer, base)


def test_exhaustive_small_alphabet():
    """Every pair over {A, B, C} up to length 4 — all kernels, all bounds."""
    values = [
        "".join(chars)
        for length in range(5)
        for chars in itertools.product("ABC", repeat=length)
    ]
    for left in values:
        for right in values:
            assert levenshtein_distance(left, right) == ref.levenshtein_distance(
                left, right
            )
            dl_ref = ref.damerau_levenshtein_distance(left, right)
            assert damerau_levenshtein_distance(left, right) == dl_ref
            for max_dist in range(4):
                expected = dl_ref if dl_ref <= max_dist else None
                assert damerau_levenshtein_within(left, right, max_dist) == expected


@given(name_text, name_text)
@settings(max_examples=200)
def test_monge_elkan_matches_reference(left, right):
    assert monge_elkan(left, right) == ref.monge_elkan(left, right)


@given(name_text, name_text)
@settings(max_examples=200)
def test_symmetric_monge_elkan_matches_reference(left, right):
    assert symmetric_monge_elkan(left, right) == ref.symmetric_monge_elkan(left, right)


# Values of zero, one or several tokens (with runs of spaces), so the
# single-token shortcut and the general Monge-Elkan loop both run.
token_values = st.lists(
    st.text(alphabet="ABCDE", min_size=1, max_size=6), max_size=3
).flatmap(
    lambda tokens: st.sampled_from([" ".join(tokens), "  ".join(tokens) + " "])
)


@given(token_values, token_values)
@settings(max_examples=300)
def test_symmetric_monge_elkan_token_counts_match_reference(left, right):
    assert symmetric_monge_elkan(left, right) == ref.symmetric_monge_elkan(left, right)
    assert symmetric_monge_elkan(left.lower(), right.lower()) == (
        ref.symmetric_monge_elkan(left.lower(), right.lower())
    )


@pytest.mark.parametrize(
    "left, right",
    [
        ("SMITH", "SMYTH"),  # one token each: the shortcut
        ("SMYTH", "SMITH"),  # same pair, other order
        ("SMITH", "SMITH"),
        ("AB", "BA"),
        ("SMITH", "JOHN SMITH"),  # one token against two
        ("MARY ANN", "ANN MARIE"),
        ("", "SMITH"),  # empty against one token
        ("", ""),
        ("   ", "SMITH"),
    ],
)
def test_symmetric_monge_elkan_edge_pairs_match_reference(left, right):
    assert symmetric_monge_elkan(left, right) == ref.symmetric_monge_elkan(left, right)


@given(name_text, name_text)
@settings(max_examples=200)
def test_jaccard_qgrams_matches_reference(left, right):
    assert jaccard_qgrams(left, right) == ref.jaccard_qgrams(left, right)


@given(name_text, name_text, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_jaccard_at_least_is_exact_when_over_threshold(left, right, threshold):
    similarity = ref.jaccard_qgrams(left, right)
    result = jaccard_qgrams_at_least(left, right, threshold)
    if similarity >= threshold:
        assert result == similarity
    else:
        assert result is None


def test_within_rejects_negative_bound():
    with pytest.raises(ValueError):
        levenshtein_within("A", "B", -1)
    with pytest.raises(ValueError):
        damerau_levenshtein_within("A", "B", -1)


# The batch kernel's lanes: lengths on both sides of one 64-bit lane (and
# 200, the scalar fallback), over ASCII, umlauts, a combining mark (U+0301),
# an astral character (U+1D538) and NUL, which equals the code-point-0
# padding of a shorter string's ``uint32`` view.
lane_alphabet = "AB\x00Äé\u0301\U0001d538"
lane_text = st.one_of(
    st.text(alphabet=lane_alphabet, max_size=8),
    st.sampled_from([0, 1, 63, 64, 65, 200]).flatmap(
        lambda size: st.text(alphabet=lane_alphabet, min_size=size, max_size=size)
    ),
)


@given(st.lists(st.tuples(lane_text, lane_text), max_size=12))
@settings(max_examples=60, deadline=None)
def test_edit_distance_many_matches_reference_lane_for_lane(pairs):
    lefts = [left for left, _ in pairs]
    rights = [right for _, right in pairs]
    assert fast._edit_distance_many(lefts, rights, False).tolist() == [
        ref.levenshtein_distance(left, right) for left, right in pairs
    ]
    assert fast._edit_distance_many(lefts, rights, True).tolist() == [
        ref.damerau_levenshtein_distance(left, right) for left, right in pairs
    ]


def test_edit_distance_many_exhaustive_small_alphabet():
    """Every pair over {A, B, NUL} up to length 4, in one batch."""
    values = [
        "".join(chars)
        for length in range(5)
        for chars in itertools.product("AB\x00", repeat=length)
    ]
    pairs = list(itertools.product(values, repeat=2))
    lefts = [left for left, _ in pairs]
    rights = [right for _, right in pairs]
    assert fast._edit_distance_many(lefts, rights, True).tolist() == [
        ref.damerau_levenshtein_distance(left, right) for left, right in pairs
    ]


# Values of zero, one or many tokens, repeated tokens included.
me_values = st.lists(
    st.sampled_from(["A", "AB", "BA", "ABC", "SMITH", "SMYTH", "É\u0301", "\x00B"]),
    max_size=5,
).map(" ".join)


@given(st.lists(st.tuples(me_values, me_values), max_size=30))
@settings(max_examples=150, deadline=None)
def test_symmetric_monge_elkan_many_matches_reference(pairs):
    lefts = [left for left, _ in pairs]
    rights = [right for _, right in pairs]
    assert fast.symmetric_monge_elkan_many(lefts, rights) == [
        ref.symmetric_monge_elkan(left, right) for left, right in pairs
    ]


def test_symmetric_monge_elkan_many_mixed_batch():
    pairs = [
        ("", ""),
        ("", "SMITH"),
        ("SMITH", "SMYTH"),
        ("SMITH", "SMITH"),
        ("JOHN SMITH", "SMITH"),
        ("MARY ANN", "ANN MARIE"),
        ("ANN ANN ANN", "ANN MARIE ANNE"),
        ("1 MAIN ST APT 2", "1 MAIN STREET APT 2B"),
        ("A" * 70, "A" * 69 + "B"),
        ("   ", "SMITH"),
    ]
    lefts = [left for left, _ in pairs]
    rights = [right for _, right in pairs]
    assert fast.symmetric_monge_elkan_many(lefts, rights) == [
        symmetric_monge_elkan(left, right) for left, right in pairs
    ]
    assert fast.symmetric_monge_elkan_many([], []) == []


def test_caches_are_clearable():
    monge_elkan("JOHN SMITH", "JON SMYTH")
    assert fast.tokens_of.cache_info().currsize > 0
    fast.clear_caches()
    assert fast.tokens_of.cache_info().currsize == 0
