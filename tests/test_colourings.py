import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets.colourings import (
    BalancedFamily,
    ConstantColouring,
    ContributionColouring,
    DomainError,
    InducedColouring,
    IndexOutOfRange,
    ModularCountColouring,
    NotSlotWord,
    ProductColouring,
    SubstitutionMismatch,
    TableColouring,
    balanced_words,
    contribution_colour,
    coordinate_sum_colour,
    flipped_block_word,
    id_to_vector,
    product_colouring,
    random_table_colouring,
    slot_word_for,
    substitute,
    tabulate_colouring,
    vector_to_id,
)
from blocksets.words import InvalidSymbol, Word, all_words, encode_word, profile


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


@pytest.mark.parametrize(
    "m,s,k,n", [(2, 1, 2, 7), (2, 2, 3, 5), (3, 1, 3, 6), (3, 3, 2, 5), (4, 2, 4, 4), (4, 4, 1, 3)]
)
def test_modular_count_dense_table_matches_per_word(m, s, k, n):
    c = ModularCountColouring(s, k)
    table = c.dense_table(n, m)
    assert table.shape == (m**n,)
    for w in all_words(n, m):
        assert table[w.index] == c.colour_id(w)


def test_dense_table_raises_outside_the_domain():
    with pytest.raises(InvalidSymbol):
        ContributionColouring(2, 2).dense_table(3, 2)
    with pytest.raises(DomainError):
        TableColouring({w3("11"): 0, w3("12"): 1}).dense_table(2, 3)


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
        assert coordinate_sum_colour((0, 0, 0, 0), d) == 0


def test_coordinate_sum_unit():
    assert coordinate_sum_colour((1, 0, 0, 0), 1) == 1


def test_coordinate_sum_negative_sums_use_canonical_representative():
    assert coordinate_sum_colour((-1,), 1) == 1  # -1 mod 2 = 1
    assert coordinate_sum_colour((-2,), 2) == 1  # -2 mod 4 = 2
    assert coordinate_sum_colour((-4,), 2) == 0


def test_coordinate_sum_flips_when_d_unit_steps_added():
    """Adding any v with exactly d unit coordinates flips the colour."""
    for d in (1, 2, 3):
        for x in itertools.product(range(2 * d), repeat=4):
            for support in itertools.combinations(range(4), d):
                v = [0] * 4
                for i in support:
                    v[i] = 1
                moved = tuple(a + b for a, b in zip(x, v))
                assert coordinate_sum_colour(x, d) != coordinate_sum_colour(moved, d)


# ---------------------------------------------------------------------------
# table and product colourings


def test_table_reproduces_contribution_on_all_words():
    c = ContributionColouring(2, 2)
    frozen = tabulate_colouring(c, 5, 3)
    words = list(all_words(5, 3))
    assert len(words) == 243
    for w in words:
        assert frozen.colour_id(w) == c.colour_id(w)


def test_table_domain_error():
    t = TableColouring({w3("11"): 0})
    with pytest.raises(DomainError):
        t.colour_id(w3("12"))


def test_product_of_single_colouring_is_identity_on_ids():
    c = ContributionColouring(2, 2)
    p = product_colouring([c])
    for w in all_words(4, 3):
        assert p.colour_id(w) == c.colour_id(w)


def test_product_of_constants_is_constant():
    p = product_colouring([ConstantColouring(1, 3), ConstantColouring(0, 2)])
    ids = {p.colour_id(w) for w in all_words(3, 3)}
    assert len(ids) == 1
    assert p.colour_count == 6


def test_product_tuple_encoding_is_injective():
    a = ModularCountColouring(1, 2)
    b = ModularCountColouring(2, 3)
    p = ProductColouring((a, b))
    for w in all_words(4, 3):
        assert p.colour_id(w) == a.colour_id(w) + 2 * b.colour_id(w)


def test_random_table_colouring_is_seeded():
    one = random_table_colouring(4, 3, 5, seed=11)
    two = random_table_colouring(4, 3, 5, seed=11)
    other = random_table_colouring(4, 3, 5, seed=12)
    assert one.entries == two.entries
    assert one.entries != other.entries
    assert set(one.entries.values()) <= set(range(5))


@given(st.integers(2, 4), st.integers(1, 4), st.lists(st.integers(0, 2), min_size=1, max_size=10))
@settings(max_examples=60)
def test_vector_id_round_trip(mod, length, raw):
    vec = tuple(v % mod for v in (raw * length)[:length])
    assert id_to_vector(vector_to_id(vec, mod), mod, length) == vec
