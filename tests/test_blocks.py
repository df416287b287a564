import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import blocks
from blocksets.blocks import (
    AmbientTooSmall,
    ArityMismatch,
    EmptyTemplate,
    EqualSize,
    InvalidPlacement,
    MixedSize,
    Placement,
    block_families,
    block_weights,
    blockset_points,
    enumerate_block_families,
    enumerate_placements,
    family_sort_key,
    make_placement,
    parse_sizemode,
    pattern_of,
    template_from_counts,
    template_from_word,
)
from blocksets.words import CapacityExceeded, InvalidSymbol, Profile, encode_word, multinomial, profile


def test_template_canonical_words():
    assert str(template_from_counts(3, (1, 1, 1))) == "123"
    assert str(template_from_counts(3, (1, 2, 8))) == "12233333333"
    assert str(template_from_counts(3, (2, 3, 0))) == "11222"


def test_template_empty():
    with pytest.raises(EmptyTemplate):
        template_from_counts(3, (0, 0, 0))


def test_template_from_word_round_trip():
    t = template_from_word("11223")
    assert t.counts == (2, 2, 1)
    assert t.s == 5


def test_arrangements_are_enumerated_once_per_template(monkeypatch):
    calls = []
    enumerate_once = blocks.enumerate_with_profile
    monkeypatch.setattr(blocks, "enumerate_with_profile", lambda *args: calls.append(args) or enumerate_once(*args))
    t = template_from_word("1233")
    expected = sorted(set(itertools.permutations((1, 2, 3, 3))))
    assert list(t.arrangements()) == expected
    assert list(t.arrangements()) == expected
    assert len(calls) == 1


def test_blockset_points_11223_has_30_points():
    t = template_from_word("11223")
    p = make_placement(5, [[1], [2], [3], [4], [5]], {}, EqualSize(1))
    assert len(blockset_points(p, t)) == 30


def test_blockset_points_both_orderings():
    t = template_from_word("12", m=2)
    p = make_placement(2, [[1], [2]], {}, EqualSize(1))
    assert {str(w) for w in blockset_points(p, t)} == {"12", "21"}


def test_blockset_points_worked_example():
    t = template_from_word("123")
    p = make_placement(10, [[1, 6], [2, 5], [3, 4]], {7: 1, 8: 2, 9: 1, 10: 2}, EqualSize(2))
    points = {str(w) for w in blockset_points(p, t)}
    assert len(points) == 6
    assert "3211231212" in points
    assert "1233211212" in points


def test_blockset_points_arity_mismatch():
    t = template_from_word("123")
    p = make_placement(2, [[1], [2]], {}, EqualSize(1))
    with pytest.raises(ArityMismatch):
        blockset_points(p, t)


def test_pattern_examples():
    assert pattern_of(make_placement(6, [[1, 6], [2, 5], [3, 4]], {}, EqualSize(2))) == "ABCCBA"
    assert pattern_of(make_placement(3, [[1], [2], [3]], {}, EqualSize(1))) == "ABC"
    assert pattern_of(make_placement(4, [[1, 3], [2, 4]], {}, EqualSize(2))) == "ABAB"


def test_placement_equal_as_unordered_family():
    a = make_placement(6, [[1, 6], [2, 5], [3, 4]], {}, EqualSize(2))
    b = make_placement(6, [[3, 4], [1, 6], [2, 5]], {}, EqualSize(2))
    assert a == b


def test_points_invariant_under_block_permutation():
    t = template_from_word("123")
    blocks = [[1, 6], [2, 5], [3, 4]]
    reference = {7: 3, 8: 1}
    base = blockset_points(make_placement(8, blocks, reference, EqualSize(2)), t)
    rng = random.Random(5)
    for _ in range(5):
        shuffled = blocks[:]
        rng.shuffle(shuffled)
        assert blockset_points(make_placement(8, shuffled, reference, EqualSize(2)), t) == base


def test_point_profiles_are_template_plus_reference():
    t = template_from_word("1223")
    p = make_placement(7, [[1], [3], [5], [7]], {2: 2, 4: 3, 6: 1}, EqualSize(1))
    ref_counts = (1, 1, 1)
    for w in blockset_points(p, t):
        got = profile(w).counts
        assert got == tuple(a + b for a, b in zip(t.counts, ref_counts))


def test_blockset_cardinality_matches_multinomial():
    cases = [("112233", 6), ("11223", 5), ("1233", 4), ("122", 3), ("12", 2)]
    for text, s in cases:
        t = template_from_word(text)
        p = make_placement(s, [[i] for i in range(1, s + 1)], {}, EqualSize(1))
        assert len(blockset_points(p, t)) == multinomial(t.counts)


def test_enumerate_placements_counts():
    t = template_from_word("123")
    assert len(list(enumerate_placements(3, t, EqualSize(1)))) == 1
    # C(4,3) position choices x 3 reference symbols
    assert len(list(enumerate_placements(4, t, EqualSize(1)))) == 12


def test_enumerate_placements_pattern_filter():
    t = template_from_word("123")
    hits = list(enumerate_placements(6, t, EqualSize(2), pattern="ABCCBA"))
    assert len(hits) == 1
    assert hits[0].blocks == ((1, 6), (2, 5), (3, 4))


def test_enumerate_placements_ambient_too_small():
    t = template_from_word("123")
    with pytest.raises(AmbientTooSmall):
        list(enumerate_placements(5, t, EqualSize(2)))


def test_enumerate_placements_reference_domain():
    t = template_from_word("12", m=3)
    hits = list(enumerate_placements(3, t, EqualSize(1), reference_domain=[3]))
    assert len(hits) == 3
    for p in hits:
        assert all(sym == 3 for _, sym in p.reference)


def _naive_placements(n, t, sizemode):
    """Oracle: all ordered disjoint block tuples + references, canonicalized."""
    coords = list(range(1, n + 1))
    sizes = range(sizemode.min_size, (sizemode.d if isinstance(sizemode, EqualSize) else sizemode.d_max) + 1)
    out = set()

    def blocks_rec(chosen):
        if len(chosen) == t.s:
            yield list(chosen)
            return
        used = {c for b in chosen for c in b}
        for size in sizes:
            for block in itertools.combinations([c for c in coords if c not in used], size):
                yield from blocks_rec(chosen + [block])

    for blocks in blocks_rec([]):
        used = {c for b in blocks for c in b}
        free = [c for c in coords if c not in used]
        for ref in itertools.product(range(1, t.m + 1), repeat=len(free)):
            out.add(make_placement(n, blocks, dict(zip(free, ref)), sizemode))
    return out


@pytest.mark.parametrize(
    "n,text,sizemode",
    [
        (4, "123", EqualSize(1)),
        (5, "123", MixedSize(2)),
        (6, "123", EqualSize(2)),
        (4, "12", MixedSize(2)),
        (5, "122", MixedSize(1)),
        (6, "112", EqualSize(2)),
    ],
)
def test_enumeration_matches_naive_oracle(n, text, sizemode):
    t = template_from_word(text)
    got = list(enumerate_placements(n, t, sizemode))
    assert len(got) == len(set(got)), "duplicates emitted"
    assert set(got) == _naive_placements(n, t, sizemode)


def test_enumeration_family_order_is_monotone():
    t = template_from_word("12")
    families = enumerate_block_families(5, t, MixedSize(2))
    keys = [family_sort_key(f) for f in families]
    assert keys == sorted(keys)


def recursive_families(n, t, sizemode):
    """Oracle: families per size multiset by recursion, then one global `family_sort_key` sort."""
    families = []
    for sizes in itertools.combinations_with_replacement(sizemode.size_range(), t.s):

        def rec(idx, available, prev_min):
            if idx == len(sizes):
                yield ()
                return
            for block in itertools.combinations(available, sizes[idx]):
                if idx > 0 and sizes[idx - 1] == sizes[idx] and block[0] < prev_min:
                    continue  # blocks of one size come with increasing minima
                rest = tuple(c for c in available if c not in block)
                for tail in rec(idx + 1, rest, block[0]):
                    yield (block,) + tail

        if sum(sizes) <= n:
            families.extend(tuple(sorted(f)) for f in rec(0, tuple(range(1, n + 1)), 0))
    families.sort(key=family_sort_key)
    return families


def family_pattern(family):
    """Oracle: the block index of each block coordinate in order, blocks numbered by minimum (A first)."""
    label = {c: chr(ord("A") + j) for j, block in enumerate(sorted(family)) for c in block}
    return "".join(label[c] for c in sorted(label))


def _array_cases():
    for text in ("11", "123", "1233"):
        for mode in ("equal:1", "equal:2", "equal:3", "mixed:1", "mixed:2", "mixed:3"):
            sizemode = parse_sizemode(mode)
            for n in range(len(text) * sizemode.min_size, 11):
                yield text, sizemode, n
    for n in (11, 12, 13):
        yield "12233333333", MixedSize(2), n
    yield "12233333333", EqualSize(1), 12


ARRAY_CASES = list(_array_cases())


@pytest.mark.parametrize("m", [2, 3, 4])
def test_block_weights_pack_the_block_coordinates(m):
    """Base 2 gives each block's coordinate mask; base m its share of a word's packed index."""
    candidates = blocks.candidate_blocks(6, MixedSize(3))
    masks = block_weights(candidates, 2).tolist()
    assert masks == [sum(1 << (c - 1) for c in b) for b in candidates]
    for b, weight in zip(candidates, block_weights(candidates, m).tolist()):
        word = encode_word("".join("2" if c in b else "1" for c in range(1, 7)), m)
        assert weight == word.index


@pytest.mark.parametrize("text", ["11", "123", "1233", "12233333333"])
def test_array_families_match_the_recursion_in_order(text):
    for case_text, sizemode, n in ARRAY_CASES:
        if case_text != text:
            continue
        t = template_from_word(text)
        expected = recursive_families(n, t, sizemode)
        assert enumerate_block_families(n, t, sizemode) == expected, (n, sizemode)
        arrays = block_families(n, t, sizemode)
        assert arrays.masks.tolist() == [sum(1 << (c - 1) for block in f for c in block) for f in expected]
        assert arrays.totals.tolist() == [sum(map(len, f)) for f in expected]
        # a pattern some family has, and one no family has
        patterns = [family_pattern(f) for f in expected]
        for pattern in (patterns[len(expected) // 2], "BA"):
            got = enumerate_block_families(n, t, sizemode, pattern)
            assert got == [f for f, p in zip(expected, patterns) if p == pattern], (n, sizemode, pattern)
            assert bool(got) == (pattern != "BA")


@pytest.mark.parametrize("n", [8, 9, 10, 11])
def test_array_pattern_filter_matches_the_recursion(n):
    """The numpy labels pick the same families as the oracle's labels, past the families of one total."""
    t = template_from_word("1233")
    expected = recursive_families(n, t, MixedSize(2))
    patterns = [family_pattern(f) for f in expected]
    # the palindromes, a pattern with one-coordinate blocks, and the middle family's pattern
    for pattern in ("ABCDDCBA", "ABCD", "ABACDBCD", patterns[len(expected) // 2]):
        got = enumerate_block_families(n, t, MixedSize(2), pattern)
        assert got == [f for f, p in zip(expected, patterns) if p == pattern], pattern
        assert got


@pytest.mark.parametrize(
    "text, sizemode, n, pattern",
    [("1233", MixedSize(2), 9, None), ("123", MixedSize(3), 9, "ABCCBA"), ("12233333333", MixedSize(2), 12, None)],
)
def test_array_families_do_not_depend_on_the_batch_size(monkeypatch, text, sizemode, n, pattern):
    t = template_from_word(text)
    expected = enumerate_block_families(n, t, sizemode, pattern)
    monkeypatch.setattr(blocks, "FAMILY_BATCH", 1)
    assert enumerate_block_families(n, t, sizemode, pattern) == expected


@pytest.mark.parametrize("n", [13, 14])
def test_array_enumeration_working_set_is_bounded_by_the_batch_budget(n):
    """Beyond its output (held twice while the batches are joined), the enumeration keeps a few batches.

    Expanding a whole level at once would hold every prefix's candidate row:
    at n=14 that peaks at about 70 MB against 4.5 MB here.
    """
    tracemalloc.start()
    try:
        arrays = block_families(n, template_from_word("12233333333"), MixedSize(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = arrays.ids.nbytes + arrays.masks.nbytes + arrays.totals.nbytes
    assert peak < 2 * output + 32 * blocks.FAMILY_BATCH


def test_construction_blocks_have_palindromic_pattern():
    """Blocks {2i-1, 2j+2}, {2i, 2j+1}, {2i+1, 2j} always read ABCCBA."""
    for k in range(1, 6):
        n = 2 * k + 4
        for i in range(1, k + 2):
            for j in range(i + 1, k + 2):
                p = make_placement(
                    n,
                    [[2 * i - 1, 2 * j + 2], [2 * i, 2 * j + 1], [2 * i + 1, 2 * j]],
                    {c: 3 for c in range(1, n + 1)
                     if c not in {2 * i - 1, 2 * i, 2 * i + 1, 2 * j, 2 * j + 1, 2 * j + 2}},
                    EqualSize(2),
                )
                assert pattern_of(p) == "ABCCBA"


def test_placement_json_shape():
    p = make_placement(8, [[1, 6], [2, 5], [3, 4]], {7: 1, 8: 2}, EqualSize(2))
    d = p.to_json_dict()
    assert d == {
        "n": 8,
        "blocks": [[1, 6], [2, 5], [3, 4]],
        "reference": {"7": "1", "8": "2"},
        "pattern": "ABCCBA",
    }


def test_placement_validation():
    with pytest.raises(InvalidPlacement):
        make_placement(4, [[1, 2], [2, 3]], {4: 1}, MixedSize(2))  # overlap
    with pytest.raises(InvalidPlacement):
        make_placement(4, [[1], [2]], {3: 1}, EqualSize(1))  # missing reference coord
    with pytest.raises(InvalidPlacement):
        make_placement(4, [[1, 2], [3]], {4: 1}, EqualSize(2))  # size violates mode


def test_parse_sizemode():
    assert parse_sizemode("equal:2") == EqualSize(2)
    assert parse_sizemode("mixed:3") == MixedSize(3)
    with pytest.raises(InvalidPlacement):
        parse_sizemode("weird:1")


@given(st.integers(2, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_random_placements_generate_multinomial_points(m, data):
    n = data.draw(st.integers(3, 6))
    s = data.draw(st.integers(2, min(3, n)))
    counts = [0] * m
    for _ in range(s):
        counts[data.draw(st.integers(0, m - 1))] += 1
    t = template_from_counts(m, tuple(counts))
    placements = list(enumerate_placements(n, t, MixedSize(1)))
    p = placements[data.draw(st.integers(0, len(placements) - 1))]
    assert len(blockset_points(p, t)) == multinomial(t.counts)


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: blocks.Template(3, (1, 1)), InvalidSymbol, "2 counts for alphabet of size 3"),
        (lambda: blocks.Template(2, (1, -1)), EmptyTemplate, "negative multiplicity in (1, -1)"),
        (lambda: template_from_word(""), EmptyTemplate, "template needs at least one letter"),
        (lambda: template_from_word("102"), InvalidSymbol, "bad template word '102'"),
        (lambda: EqualSize(0), InvalidPlacement, "block size must be >= 1, got 0"),
        (lambda: MixedSize(0), InvalidPlacement, "maximum block size must be >= 1, got 0"),
        (lambda: parse_sizemode("equal:x"), InvalidPlacement, "bad size mode 'equal:x'"),
        (lambda: Placement(3, ((),), ((1, 1), (2, 1), (3, 1)), MixedSize(1)), InvalidPlacement, "empty block"),
        (lambda: Placement(3, ((2, 1),), ((3, 1),), MixedSize(2)), InvalidPlacement, "block (2, 1) not sorted"),
        (lambda: Placement(3, ((4,),), ((1, 1),), MixedSize(1)), InvalidPlacement, "coordinate 4 outside [1, 3]"),
        (lambda: Placement(2, ((2,), (1,)), (), MixedSize(1)), InvalidPlacement, "blocks not sorted by minimum element"),
        (lambda: Placement(3, ((1,),), ((3, 1), (2, 1)), MixedSize(1)), InvalidPlacement,
         "reference not sorted by coordinate"),
        (lambda: Placement(2, ((1,),), ((2, 0),), MixedSize(1)), InvalidSymbol, "reference symbol 0 < 1"),
        (lambda: blockset_points(Placement(2, ((1,),), ((2, 3),), MixedSize(1)), template_from_word("1")),
         InvalidSymbol, "reference symbol 3 outside [1, 2]"),
        (lambda: blocks.candidate_blocks(63, MixedSize(1)), CapacityExceeded,
         "block families are enumerated for n <= 62, got n=63"),
        (lambda: blocks.reference_symbols(template_from_word("12"), [3]), InvalidSymbol,
         "reference symbol 3 outside [1, 2]"),
        (lambda: blocks.reference_symbols(template_from_word("12"), []), InvalidSymbol, "empty reference domain"),
    ],
)
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# placement counts


def _closed_form_count(n, t, sizemode, symbols):
    """Placements summed over block-size multisets: n! / ((n-b)! prod size!^count count!) families of b coordinates.

    Each family has symbols^(n-b) references.  This loops over every size
    multiset, so it serves only as an oracle for `placement_count`.
    """
    total = 0
    for sizes in itertools.combinations_with_replacement(sizemode.size_range(), t.s):
        if sum(sizes) <= n:
            families = math.factorial(n) // math.factorial(n - sum(sizes))
            for size in set(sizes):
                families //= math.factorial(size) ** sizes.count(size) * math.factorial(sizes.count(size))
            total += families * symbols ** (n - sum(sizes))
    return total


@pytest.mark.parametrize(
    "counts, sizemode, n",
    [
        ((1, 1, 1), MixedSize(1), 9),  # d1
        ((1, 2, 8), MixedSize(2), 23),  # d2
        ((1, 3, 27), MixedSize(3), 40),  # d3
        ((1, 4, 64), MixedSize(4), 76),  # d4
        ((1, 1, 2), MixedSize(2), 11),  # pq12
        ((1, 1, 2), MixedSize(2), 17),
    ],
    ids=["d1-n9", "d2-n23", "d3-n40", "d4-n76", "pq12-n11", "pq12-n17"],
)
def test_placement_count_matches_the_closed_form_on_the_frontier(counts, sizemode, n):
    t = template_from_counts(3, counts)
    assert blocks.placement_count(n, t, sizemode, 3) == _closed_form_count(n, t, sizemode, 3)


def test_placement_count_matches_the_closed_form_on_small_cells():
    rng = random.Random(31)
    for _ in range(300):
        m = rng.randint(2, 4)
        t = template_from_counts(m, [rng.randint(0, 3) for _ in range(m - 1)] + [rng.randint(1, 3)])
        sizemode = rng.choice([EqualSize, MixedSize])(rng.randint(1, 3))
        n = rng.randint(t.s * sizemode.min_size, t.s * sizemode.min_size + 8)
        symbols = rng.randint(1, 4)
        assert blocks.placement_count(n, t, sizemode, symbols) == _closed_form_count(n, t, sizemode, symbols)


def test_placement_count_refuses_too_few_coordinates():
    with pytest.raises(AmbientTooSmall, match="n=5 cannot hold 3 disjoint blocks of size >= 2"):
        blocks.placement_count(5, template_from_word("123"), EqualSize(2), 3)
