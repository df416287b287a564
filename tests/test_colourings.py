import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets.colourings import (
    BalancedFamily,
    Colouring,
    ConstantColouring,
    ContributionColouring,
    DomainError,
    InducedColouring,
    IndexOutOfRange,
    ModularCountColouring,
    NotSlotWord,
    SubstitutionMismatch,
    TableColouring,
    balanced_words,
    contribution_colour,
    flipped_block_word,
    id_to_vector,
    random_table_colouring,
    slot_word_for,
    substitute,
    table_colouring,
    vector_to_id,
)
from blocksets.lattice import CoordinateSumColouring
from blocksets.words import CapacityExceeded, InvalidSymbol, Word, all_words, encode_word, profile


def w3(text):
    return encode_word(text, 3)


# ---------------------------------------------------------------------------
# contribution colouring


def test_contribution_all_threes_is_zero():
    for mod, length in [(2, 2), (3, 5)]:
        assert contribution_colour(w3("3333"), mod, length) == (0,) * length


def test_contribution_121():
    # 1s at i=1 (a=0) and i=3 (two 12s before, 2 mod 2 = 0); e_0 + e_0 = 0
    assert contribution_colour(w3("121"), 2, 2) == (0, 0)


def test_contribution_211():
    # 1s at i=2 (a=1) and i=3 (a=2 mod 2=0)
    assert contribution_colour(w3("211"), 2, 2) == (1, 1)


def test_contribution_ignores_placement_of_3s():
    """The colour depends only on the subsequence of 1s and 2s."""
    c = ContributionColouring(2, 2)
    for w in all_words(8, 3):
        stripped = Word(tuple(s for s in w.symbols if s != 3), 3)
        assert c.colour_id(w) == c.colour_id(stripped)


def test_contribution_vector_id_bijection():
    c = ContributionColouring(3, 3)
    seen = {}
    for w in all_words(5, 3):
        vec = c.vector(w)
        cid = c.colour_id(w)
        assert vector_to_id(vec, 3) == cid
        assert id_to_vector(cid, 3, 3) == vec
        seen.setdefault(cid, vec)
        assert seen[cid] == vec
    assert all(cid < c.colour_count for cid in seen)


@pytest.mark.parametrize("mod,length,n", [(2, 2, 6), (3, 3, 5), (4, 5, 4)])
def test_dense_table_matches_per_word(mod, length, n):
    c = ContributionColouring(mod, length)
    table = c.dense_table(n, 3)
    for w in all_words(n, 3):
        assert table[w.index] == c.colour_id(w)


@pytest.mark.parametrize("mod,length", [(3, 5), (2, 3), (5, 2)])
def test_dense_table_matches_per_word_over_3_to_the_8(mod, length):
    c = ContributionColouring(mod, length)
    table = c.dense_table(8, 3)
    assert table.dtype == np.int64 and table.shape == (3**8,)
    assert all(table[w.index] == c.colour_id(w) for w in all_words(8, 3))


def test_dense_table_is_built_in_one_table():
    """The degree-2 colour table of [3]^13 (12.8 MB) is filled in place, not concatenated level by level."""
    tracemalloc.start()
    try:
        table = ContributionColouring(3, 5).dense_table(13, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.nbytes


@pytest.mark.parametrize(
    "m,s,k,n", [(2, 1, 2, 7), (2, 2, 3, 5), (3, 1, 3, 6), (3, 3, 2, 5), (4, 2, 4, 4), (4, 4, 1, 3)]
)
def test_modular_count_dense_table_matches_per_word(m, s, k, n):
    c = ModularCountColouring(s, k)
    table = c.dense_table(n, m)
    assert table.shape == (m**n,)
    for w in all_words(n, m):
        assert table[w.index] == c.colour_id(w)


@pytest.mark.parametrize(
    "colouring, m",
    [
        (ContributionColouring(2, 2), 3),
        (ContributionColouring(3, 3), 3),
        (ModularCountColouring(1, 2), 3),
        (ModularCountColouring(2, 3), 3),
        (ModularCountColouring(3, 2), 4),
    ],
    ids=["contribution-2-2", "contribution-3-3", "countmod-1-2", "countmod-2-3", "countmod-3-2-m4"],
)
def test_deleting_a_neutral_coordinate_keeps_the_colour(colouring, m):
    alphabet = set(range(1, m + 1))
    neutral = colouring.neutral_symbols & alphabet
    assert neutral == ({3} if isinstance(colouring, ContributionColouring) else alphabet - {colouring.symbol})
    for n in range(1, 6):
        for w in all_words(n, m):
            for i, sym in enumerate(w.symbols):
                if sym in neutral:
                    shorter = Word(w.symbols[:i] + w.symbols[i + 1 :], m)
                    assert colouring.colour_id(shorter) == colouring.colour_id(w), (w, i)


def test_other_colourings_declare_no_neutral_symbols():
    for colouring in (ConstantColouring(0, 1), random_table_colouring(2, 3, 2, seed=0)):
        assert colouring.neutral_symbols == frozenset()


def test_dense_table_raises_outside_the_domain():
    with pytest.raises(InvalidSymbol):
        ContributionColouring(2, 2).dense_table(3, 2)
    with pytest.raises(DomainError):
        table_colouring({w3("11"): 0, w3("12"): 1}).dense_table(2, 3)
    entries = {w: 0 for w in all_words(2, 3)}
    one_short = {w: 0 for w in list(entries)[1:]} | {Word((1,), 3): 0}  # 3^2 entries, one of length 1
    for table, n in ((entries, 3), (one_short, 2), ({Word(w.symbols, 4): 0 for w in entries}, 2)):
        with pytest.raises(DomainError):
            table_colouring(table).dense_table(n, 3)


# ---------------------------------------------------------------------------
# substitution, balanced family, flipped-block words


def test_substitute_worked_example():
    assert str(substitute(w3("2322333222"), encode_word("121212", 2))) == "1321333212"


def test_substitute_all_slots():
    x = w3("222222")
    w = encode_word("211212", 2)
    assert substitute(x, w).symbols == w.symbols


def test_substitute_mismatch():
    with pytest.raises(SubstitutionMismatch):
        substitute(w3("2322333222"), encode_word("12121", 2))
    with pytest.raises(SubstitutionMismatch):
        substitute(w3("212"), encode_word("12", 2))  # contains a 1


def test_balanced_family_k0():
    fam = balanced_words(0)
    assert [str(w) for w in fam.members] == ["12", "21"]
    assert fam.size == 2


def test_balanced_family_sizes():
    for k in range(0, 7):
        fam = balanced_words(k)
        assert fam.size == math.comb(2 * k + 2, k + 1)
        for w in fam.members:
            assert profile(w).counts == (k + 1, k + 1)


def test_balanced_family_is_sorted():
    fam = balanced_words(2)
    symbol_lists = [w.symbols for w in fam.members]
    assert symbol_lists == sorted(symbol_lists)


def test_flipped_block_words_k2():
    assert str(flipped_block_word(1, 2)) == "211212"
    assert str(flipped_block_word(2, 2)) == "122112"
    assert str(flipped_block_word(3, 2)) == "121221"


def test_flipped_block_word_out_of_range():
    with pytest.raises(IndexOutOfRange):
        flipped_block_word(4, 2)
    with pytest.raises(IndexOutOfRange):
        flipped_block_word(0, 2)


def test_flipped_block_words_are_balanced():
    for k in range(0, 7):
        members = set(balanced_words(k).members)
        for i in range(1, k + 2):
            assert flipped_block_word(i, k) in members


def test_substitution_is_bijection_onto_balanced_words():
    """A x chi -> words with k+1 1s and k+1 2s, exhaustively at small sizes."""
    for k, n in [(1, 6), (1, 7)]:
        fam = balanced_words(k)
        slots = 2 * k + 2
        images = set()
        count = 0
        for positions in itertools.combinations(range(1, n + 1), slots):
            x = slot_word_for(positions, n)
            for w in fam.members:
                images.add(substitute(x, w))
                count += 1
        targets = {
            w
            for w in all_words(n, 3)
            if profile(w).counts[0] == k + 1 and profile(w).counts[1] == k + 1
        }
        assert images == targets
        assert count == len(targets)


# ---------------------------------------------------------------------------
# induced colouring


def test_induced_constant_base_is_constant():
    ind = InducedColouring(ConstantColouring(0, 1), 1)
    values = set()
    for positions in itertools.combinations(range(1, 9), 4):
        values.add(ind.colour_tuple(slot_word_for(positions, 8)))
    assert len(values) == 1


def test_induced_tuple_length_k2():
    ind = InducedColouring(ConstantColouring(0, 1), 2)
    x = slot_word_for(range(1, 7), 8)
    assert len(ind.colour_tuple(x)) == 20


def test_induced_agrees_with_explicit_composition():
    base = ContributionColouring(2, 2)
    ind = InducedColouring(base, 1)
    for positions in itertools.combinations(range(1, 9), 4):
        x = slot_word_for(positions, 8)
        expected = tuple(base.colour_id(substitute(x, w)) for w in ind.family.members)
        assert ind.colour_tuple(x) == expected


def test_induced_rejects_non_slot_words():
    ind = InducedColouring(ConstantColouring(0, 1), 1)
    with pytest.raises(NotSlotWord):
        ind.colour_tuple(w3("1222"))  # contains a 1
    with pytest.raises(NotSlotWord):
        ind.colour_tuple(w3("22233"))  # wrong number of 2s


def test_induced_value_count_bounded():
    base = ContributionColouring(2, 2)
    ind = InducedColouring(base, 1)
    values = set()
    for positions in itertools.combinations(range(1, 8), 4):
        values.add(ind.colour_tuple(slot_word_for(positions, 7)))
    assert len(values) <= base.colour_count ** ind.family.size


# ---------------------------------------------------------------------------
# coordinate-sum colouring


def test_coordinate_sum_origin():
    for d in (1, 2, 3):
        assert CoordinateSumColouring(d).colour_id((0, 0, 0, 0)) == 0


def test_coordinate_sum_unit():
    assert CoordinateSumColouring(1).colour_id((1, 0, 0, 0)) == 1


def test_coordinate_sum_negative_sums_use_canonical_representative():
    assert CoordinateSumColouring(1).colour_id((-1,)) == 1  # -1 mod 2 = 1
    assert CoordinateSumColouring(2).colour_id((-2,)) == 1  # -2 mod 4 = 2
    assert CoordinateSumColouring(2).colour_id((-4,)) == 0


def test_coordinate_sum_flips_when_d_unit_steps_added():
    """Adding any v with exactly d unit coordinates flips the colour."""
    for d in (1, 2, 3):
        for x in itertools.product(range(2 * d), repeat=4):
            for support in itertools.combinations(range(4), d):
                v = [0] * 4
                for i in support:
                    v[i] = 1
                moved = tuple(a + b for a, b in zip(x, v))
                assert CoordinateSumColouring(d).colour_id(x) != CoordinateSumColouring(d).colour_id(moved)


# ---------------------------------------------------------------------------
# table colourings


def test_table_domain_error():
    t = table_colouring({w3("11"): 0})
    with pytest.raises(DomainError):
        t.colour_id(w3("12"))


def test_random_table_colouring_is_seeded():
    one = random_table_colouring(4, 3, 5, seed=11)
    two = random_table_colouring(4, 3, 5, seed=11)
    other = random_table_colouring(4, 3, 5, seed=12)
    assert one.entries == two.entries
    assert one.entries != other.entries
    assert set(one.entries.values()) <= set(range(5))


@pytest.mark.parametrize("k", [0, -1])
def test_random_table_colouring_needs_one_colour_before_drawing(monkeypatch, k):
    def refuse(*args):
        raise AssertionError("colours were drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"^need k >= 1 colours, got {k}$"):
        random_table_colouring(2, 3, k, seed=0)


def test_random_table_colouring_past_the_limit_is_refused_before_drawing(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("colours were drawn"))
    message = r"^table random:k=2,seed=0 of \[3\]\^17 needs 129,140,163 entries; the limit is 50,000,000$"
    with pytest.raises(CapacityExceeded, match=message):
        random_table_colouring(17, 3, 2, seed=0)


@pytest.mark.parametrize("n, m", [(0, 3), (1, 2), (4, 3), (3, 4)])
def test_random_table_colouring_draws_by_packed_index(n, m):
    """Entry w is draw w.index of the seeded generator, in all_words order."""
    ids = np.random.default_rng(7).integers(0, 3, size=m**n)
    colouring = random_table_colouring(n, m, 3, seed=7)
    assert list(colouring.entries.items()) == [(w, int(ids[w.index])) for w in all_words(n, m)]
    assert all(type(c) is int for c in colouring.entries.values())


@pytest.mark.parametrize("n, m", [(0, 2), (1, 3), (5, 3), (4, 4)])
def test_table_dense_table_matches_the_per_word_walk(n, m):
    colouring = random_table_colouring(n, m, 4, seed=n + m)
    # the entries in reverse order: the table follows each word's packed index, not the dict's order
    shuffled = table_colouring(dict(reversed(colouring.entries.items())), 4)
    table = shuffled.dense_table(n, m)
    assert table.dtype == np.int64 and table.tolist() == Colouring.dense_table(colouring, n, m).tolist()
    assert shuffled.entries == colouring.entries
    assert np.array_equal(table_colouring(colouring.entries, 4).ids, colouring.ids)


def test_random_table_and_its_dense_table_build_no_words(monkeypatch):
    built = []
    init = Word.__post_init__
    monkeypatch.setattr(Word, "__post_init__", lambda self: built.append(self) or init(self))
    for seed in range(3):
        colouring = random_table_colouring(9, 3, 2, seed)
        assert colouring.dense_table(9, 3).shape == (3**9,)
    assert built == []
    assert len(colouring.entries) == 3**9 and len(built) == 3**9  # the entries view builds them


def test_dense_table_is_a_copy():
    colouring = random_table_colouring(4, 3, 2, seed=5)
    word = w3("2131")
    before = colouring.colour_id(word)
    colouring.dense_table(4, 3)[word.index] = before + 7
    assert colouring.colour_id(word) == before and colouring.ids[word.index] == before


def test_partial_table_colours_only_its_words():
    colouring = table_colouring({w3("11"): 2, w3("32"): 0})
    assert (colouring.n, colouring.m, colouring.colour_count, colouring.name) == (2, 3, 3, "table")
    assert colouring.ids.tolist() == [2, -1, -1, -1, -1, 0, -1, -1, -1]
    assert colouring.entries == {w3("11"): 2, w3("32"): 0}
    with pytest.raises(DomainError, match="^word 12 outside table domain$"):
        colouring.colour_id(w3("12"))
    with pytest.raises(DomainError, match="^word 11 outside table domain$"):
        colouring.colour_id(Word((1, 1), 4))
    with pytest.raises(DomainError, match=r"^table table does not cover exactly \[3\]\^2$"):
        colouring.dense_table(2, 3)


@pytest.mark.parametrize(
    "entries",
    [{}, {w3("12"): 0, w3("1"): 0}, {w3("12"): 0, Word((1, 2), 4): 0}, {w3("12"): 0, w3("21"): -1}],
    ids=["empty", "two-lengths", "two-alphabets", "negative-id"],
)
def test_table_colouring_refuses_mixed_shapes_and_negative_ids(entries):
    with pytest.raises(DomainError, match="^table t needs words of one length and alphabet, with ids >= 0$"):
        table_colouring(entries, name="t")


def test_table_colouring_past_the_limit_is_refused_before_the_table(monkeypatch):
    monkeypatch.setattr(np, "full", lambda *args: pytest.fail("the table was allocated"))
    with pytest.raises(CapacityExceeded, match=r"^table t of \[3\]\^17 needs 129,140,163 entries; the limit is"):
        table_colouring({Word((3,) * 17, 3): 0}, name="t")


@given(st.integers(2, 4), st.integers(1, 4), st.lists(st.integers(0, 2), min_size=1, max_size=10))
@settings(max_examples=60)
def test_vector_id_round_trip(mod, length, raw):
    vec = tuple(v % mod for v in (raw * length)[:length])
    assert id_to_vector(vector_to_id(vec, mod), mod, length) == vec


CLOSED_FORMS = [
    (ContributionColouring(3, 3), 3, 6),
    (ContributionColouring(3, 5), 3, 6),
    (ContributionColouring(4, 10), 3, 6),
    (ModularCountColouring(1, 2), 2, 6),
    (ModularCountColouring(2, 3), 3, 6),
    (ModularCountColouring(4, 3), 4, 5),
    (ConstantColouring(2, 3), 3, 6),
]


@pytest.mark.parametrize("colouring, m, n", CLOSED_FORMS, ids=lambda v: getattr(v, "name", str(v)))
def test_closed_form_colour_ids_match_colour_id(colouring, m, n):
    words = list(all_words(n, m))
    rows = np.array([w.symbols for w in words], np.int8)
    ids = colouring.colour_ids(rows)
    assert ids.dtype == np.int64 and ids.tolist() == [colouring.colour_id(w) for w in words]
    # leading axes are kept: (points, words, n) -> (points, words)
    assert colouring.colour_ids(np.stack([rows, rows[::-1]])).tolist() == [ids.tolist(), ids[::-1].tolist()]


def test_contribution_colour_ids_reject_symbols_outside_3():
    with pytest.raises(InvalidSymbol):
        ContributionColouring(3, 3).colour_ids(np.array([[1, 4, 2]], np.int8))


def test_table_colourings_have_no_closed_form():
    """`verify_absence` re-checks a table colouring's hits point by point, through `colour_id`."""
    assert not hasattr(random_table_colouring(2, 3, 2, seed=0), "colour_ids")
    assert not hasattr(InducedColouring(ConstantColouring(), 1), "colour_ids")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: contribution_colour(encode_word("12", 2), 3, 3), InvalidSymbol,
         "contribution colouring needs alphabet [3], got [2]"),
        (lambda: ContributionColouring(1, 1), ValueError,
         "need modulus >= 2 and length >= 1, got ContributionColouring(modulus=1, length=1)"),
        (lambda: balanced_words(-1), ValueError, "k must be >= 0, got -1"),
        (lambda: CoordinateSumColouring(0), ValueError, "d must be >= 1, got 0"),
    ],
)
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
