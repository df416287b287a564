import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets.words import (
    CapacityExceeded,
    InvalidSymbol,
    Profile,
    ProfileMismatch,
    Word,
    all_words,
    decode_word,
    encode_word,
    enumerate_with_profile,
    multinomial,
    packed_capacity,
    profile,
)


def test_packed_index_all_ones_is_zero():
    assert encode_word("111", 3).index == 0


def test_packed_index_123():
    # positional formula by hand: 0*1 + 1*3 + 2*9
    assert encode_word("123", 3).index == 21


def test_round_trip_exhaustive_small():
    for n in range(0, 9):
        for w in all_words(n, 3):
            assert decode_word(w.index, n, 3) == w


@given(st.integers(2, 9), st.lists(st.integers(1, 9), max_size=12))
def test_round_trip_random(m, raw):
    syms = [1 + (s - 1) % m for s in raw]
    w = encode_word(syms, m)
    assert decode_word(w.index, w.n, m) == w


def test_invalid_symbol():
    with pytest.raises(InvalidSymbol):
        encode_word("140", 3)
    with pytest.raises(InvalidSymbol):
        encode_word([0, 1], 3)
    with pytest.raises(InvalidSymbol):
        Word((1, 4), 3)


def test_capacity_limit_is_explicit():
    cap = packed_capacity(3)
    assert 3**cap <= 2**63 < 3 ** (cap + 1)
    encode_word([1] * cap, 3)
    with pytest.raises(CapacityExceeded):
        encode_word([1] * (cap + 1), 3)


def test_equality_follows_symbols():
    assert encode_word("12", 3) == Word((1, 2), 3)
    assert encode_word("12", 3) != encode_word("21", 3)


def test_profile_counts_each_symbol():
    # 2322333222 has six 2s, four 3s, no 1s
    assert profile(encode_word("2322333222", 3)).counts == (0, 6, 4)


def test_profile_trivial():
    assert profile(encode_word("111", 3)).counts == (3, 0, 0)
    assert profile(Word((), 3)).counts == (0, 0, 0)


def test_enumerate_rearrangements_of_11223():
    words = list(enumerate_with_profile(5, 3, Profile((2, 2, 1))))
    assert len(words) == 30
    assert len(set(words)) == 30


def test_enumerate_all_orderings_of_123():
    words = [str(w) for w in enumerate_with_profile(3, 3, Profile((1, 1, 1)))]
    assert words == ["123", "132", "213", "231", "312", "321"]


def test_enumerate_profile_mismatch():
    with pytest.raises(ProfileMismatch):
        list(enumerate_with_profile(2, 3, Profile((2, 1, 0))))
    with pytest.raises(ProfileMismatch):
        list(enumerate_with_profile(3, 3, Profile((2, 1))))


def test_enumeration_matches_naive_filter():
    """Counts and membership agree with filtering all m^n words, n <= 10."""
    for m in (2, 3):
        for n in (0, 1, 2, 3, 4, 5, 10):
            buckets = {}
            for w in all_words(n, m):
                buckets.setdefault(profile(w).counts, []).append(w)
            for counts, expected in buckets.items():
                got = list(enumerate_with_profile(n, m, Profile(counts)))
                assert got == sorted(expected, key=lambda w: w.symbols)
                assert len(got) == multinomial(counts)


@given(st.integers(2, 3), st.integers(1, 7), st.data())
@settings(max_examples=60)
def test_enumeration_lexicographically_increasing(m, n, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    counts = []
    prev = 0
    for c in cuts + [n]:
        counts.append(c - prev)
        prev = c
    words = list(enumerate_with_profile(n, m, Profile(tuple(counts))))
    for a, b in zip(words, words[1:]):
        assert a.symbols < b.symbols


def test_with_symbol_returns_new_word():
    w = encode_word("123", 3)
    changed = w.with_symbol(2, 3)
    assert str(changed) == "133"
    assert str(w) == "123"
    with pytest.raises(IndexError):
        w.with_symbol(4, 1)


def test_multinomial():
    assert multinomial((2, 2, 1)) == 30
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((3,)) == 1


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Word((1,), 1), InvalidSymbol, "alphabet size must be in [2, 9], got 1"),
        (lambda: Profile((1, -1)), ProfileMismatch, "negative count in (1, -1)"),
        (lambda: decode_word(9, 2, 3), ValueError, "index 9 outside [0, 3^2)"),
    ],
)
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
