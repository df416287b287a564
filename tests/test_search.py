import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets.blocks import (
    EqualSize,
    MixedSize,
    blockset_points,
    enumerate_placements,
    make_placement,
    pattern_of,
    template_from_counts,
    template_from_word,
)
from blocksets.colourings import (
    Colouring,
    ConstantColouring,
    ContributionColouring,
    ModularCountColouring,
    TableColouring,
    balanced_words,
    flipped_block_word,
    random_table_colouring,
    slot_word_for,
)
from blocksets.search import (
    BudgetExceeded,
    ExtractionContradiction,
    HomogeneousSet,
    NotHomogeneous,
    SubsetColouring,
    extract_abccba,
    find_monochromatic,
    homogeneous_subset_search,
    induced_subset_colouring,
    placements_examined_until,
    verify_absence,
    witness_search,
)
from blocksets.words import Word, all_words, encode_word

T123 = template_from_word("123")
T12 = template_from_word("12", m=3)
T1233 = template_from_word("1233")


class UntabulatedColouring(ModularCountColouring):
    """Builds its table by the generic per-word walk (and stays picklable for worker tests)."""

    dense_table = Colouring.dense_table


def naive_find(colouring, n, t, sizemode):
    """Oracle: first placement whose full point set is one colour."""
    for p in enumerate_placements(n, t, sizemode):
        colours = {colouring.colour_id(w) for w in blockset_points(p, t)}
        if len(colours) == 1:
            return p, colours.pop()
    return None


# ---------------------------------------------------------------------------
# find_monochromatic / verify_absence


def test_find_constant_colouring_returns_unique_placement():
    hit = find_monochromatic(ConstantColouring(0, 1), 3, T123, EqualSize(1))
    assert hit is not None
    assert hit[0].blocks == ((1,), (2,), (3,))
    assert hit[1] == 0


def test_find_degree1_adversarial_colouring_has_no_hit():
    assert find_monochromatic(ContributionColouring(2, 2), 8, T123, MixedSize(1)) is None


def test_find_ones_parity_hit_on_template_12():
    # both points 12 and 21 contain exactly one 1
    hit = find_monochromatic(ModularCountColouring(1, 2), 2, template_from_word("12", m=2), EqualSize(1))
    assert hit is not None
    assert hit[0].blocks == ((1,), (2,))
    assert hit[1] == 1


def test_find_honours_pattern_filter():
    hit = find_monochromatic(ConstantColouring(0, 1), 6, T123, EqualSize(2), pattern="ABCCBA")
    assert hit is not None
    assert hit[0].blocks == ((1, 6), (2, 5), (3, 4))
    assert pattern_of(hit[0]) == "ABCCBA"


def test_find_honours_reference_domain():
    hit = find_monochromatic(
        ConstantColouring(0, 1), 3, T12, EqualSize(1), reference_domain=[3]
    )
    assert hit is not None
    assert all(sym == 3 for _, sym in hit[0].reference)


@pytest.mark.parametrize("seed", range(10))
def test_find_matches_naive_oracle_on_random_tables(seed):
    configs = [
        (4, T123, EqualSize(1), 3),
        (5, T123, MixedSize(1), 4),
        (5, T12, MixedSize(2), 2),
        (6, T123, MixedSize(2), 5),
    ]
    n, t, sizemode, k = configs[seed % len(configs)]
    colouring = random_table_colouring(n, t.m, k, seed=seed)
    assert find_monochromatic(colouring, n, t, sizemode) == naive_find(colouring, n, t, sizemode)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_find_matches_oracle_on_random_configurations(data):
    n = data.draw(st.integers(2, 5))
    s = data.draw(st.integers(1, min(3, n)))
    counts = [0, 0, 0]
    for _ in range(s):
        counts[data.draw(st.integers(0, 2))] += 1
    t = template_from_counts(3, tuple(counts))
    sizemode = MixedSize(data.draw(st.integers(1, 2)))
    colouring = random_table_colouring(
        n, 3, data.draw(st.integers(1, 4)), seed=data.draw(st.integers(0, 200))
    )
    assert find_monochromatic(colouring, n, t, sizemode) == naive_find(
        colouring, n, t, sizemode
    )


def test_verify_absence_constant_colouring_reports_single_placement():
    report = verify_absence(ConstantColouring(0, 1), 3, T123, EqualSize(1))
    assert report.examined == 1
    assert len(report.found) == 1


def test_verify_absence_degree1_up_to_n10():
    c = ContributionColouring(2, 2)
    for n in range(3, 11):
        report = verify_absence(c, n, T123, MixedSize(1))
        assert report.found == []


def test_verify_absence_generalized_boundary_counterexample():
    """At one 2 and degree 2 the palindromic family defeats the colouring.

    The (3, 3)-contribution colouring admits monochromatic size-2 placements
    of 1233 from n=9 on; the first is the mirror-symmetric family below.
    Restricting blocks to size 1 restores absence.
    """
    c = ContributionColouring(3, 3)
    report = verify_absence(c, 9, T1233, MixedSize(2))
    assert len(report.found) == 2
    placement, colour = report.found[0]
    assert placement.blocks == ((1, 9), (2, 8), (3, 7), (4, 6))
    assert placement.reference == ((5, 1),)
    assert {c.colour_id(w) for w in blockset_points(placement, T1233)} == {colour}
    for n in range(4, 10):
        assert verify_absence(c, n, T1233, MixedSize(1)).found == []


def test_verify_absence_degree2_original_parameters():
    """One 1, two 2s, eight 3s with (3, 5)-contribution colouring: clean up to n=13.

    Unlike the p=1 boundary case, here the 2-count equals the degree and the
    layered argument is sound; the exhaustive scan agrees.
    """
    from blocksets.cli import degree_setup

    t, colouring = degree_setup(2)
    assert str(t) == "12233333333"
    assert (colouring.modulus, colouring.length) == (3, 5)
    for n in range(t.s, 14):
        assert verify_absence(colouring, n, t, MixedSize(2)).found == []


def test_verify_absence_two_2s_at_degree_one():
    """One 1, two 2s, four 3s with (2, 3)-contribution colouring at size 1."""
    from blocksets.cli import degree_setup

    t, colouring = degree_setup(1, (2, 4))
    assert str(t) == "1223333"
    for n in range(t.s, 11):
        assert verify_absence(colouring, n, t, MixedSize(1)).found == []


def test_verify_absence_examined_counts():
    report = verify_absence(ConstantColouring(0, 1), 4, T123, EqualSize(1))
    assert report.examined == 12
    assert len(report.found) == 12


def test_all_returned_placements_are_monochromatic():
    colouring = random_table_colouring(4, 3, 2, seed=3)
    report = verify_absence(colouring, 4, T123, EqualSize(1))
    for placement, colour in report.found:
        assert {colouring.colour_id(w) for w in blockset_points(placement, T123)} == {colour}


def test_placements_examined_until_matches_stream_position():
    colouring = ModularCountColouring(1, 2)
    hit = find_monochromatic(colouring, 3, T12, EqualSize(1))
    assert hit is not None
    stream = list(enumerate_placements(3, T12, EqualSize(1)))
    examined = placements_examined_until(3, T12, EqualSize(1), None, None, hit)
    assert stream[examined - 1] == hit[0]
    total = placements_examined_until(3, T12, EqualSize(1), None, None, None)
    assert total == len(stream)


# ---------------------------------------------------------------------------
# determinism across worker counts


def _stable(report):
    d = report.to_json_dict(stable=True)
    d.pop("workers")
    return d


def test_verify_absence_identical_across_worker_counts():
    c = ContributionColouring(2, 2)
    reports = [verify_absence(c, 7, T123, MixedSize(1), workers=w) for w in (1, 2, 8)]
    assert _stable(reports[0]) == _stable(reports[1]) == _stable(reports[2])


def test_find_identical_across_worker_counts():
    colouring = random_table_colouring(5, 3, 2, seed=17)
    hits = [find_monochromatic(colouring, 5, T123, MixedSize(1), workers=w) for w in (1, 2, 8)]
    assert hits[0] == hits[1] == hits[2]
    assert hits[0] is not None  # 2 colours on 90 placements: a hit is expected here


def test_find_keeps_the_first_chunks_hit():
    # every placement is monochromatic, so every worker's chunk reports a hit
    colouring = ConstantColouring(0, 1)
    expected = naive_find(colouring, 5, T123, MixedSize(1))
    hits = [find_monochromatic(colouring, 5, T123, MixedSize(1), workers=w) for w in (1, 2, 8)]
    assert hits == [expected] * 3


def test_pure_python_path_agrees_with_dense_path():
    dense = ModularCountColouring(1, 3)
    slow = UntabulatedColouring(1, 3)
    expected = naive_find(dense, 4, T123, MixedSize(1))
    assert expected is not None
    assert find_monochromatic(dense, 4, T123, MixedSize(1)) == expected
    assert find_monochromatic(slow, 4, T123, MixedSize(1)) == expected
    a = verify_absence(dense, 4, T123, MixedSize(1))
    b = verify_absence(slow, 4, T123, MixedSize(1))
    assert a.found == b.found and a.examined == b.examined
    assert a.found[0] == expected


def test_pure_python_path_identical_across_worker_counts():
    slow = UntabulatedColouring(1, 3)
    reports = [verify_absence(slow, 5, T123, MixedSize(1), workers=w) for w in (1, 2, 8)]
    assert _stable(reports[0]) == _stable(reports[1]) == _stable(reports[2])
    assert reports[0].found[0] == naive_find(slow, 5, T123, MixedSize(1))
    assert [p for p, _ in reports[0].found] == [
        p
        for p in enumerate_placements(5, T123, MixedSize(1))
        if len({slow.colour_id(w) for w in blockset_points(p, T123)}) == 1
    ]


# ---------------------------------------------------------------------------
# witness search


def test_witness_impossible_with_one_colour():
    assert witness_search(2, template_from_word("12", m=2), EqualSize(1), k=1) is None


def test_witness_exists_for_four_colours_at_n5():
    w = witness_search(5, T123, MixedSize(1), k=4)
    assert w is not None
    assert verify_absence(w, 5, T123, MixedSize(1)).found == []


def test_witness_budget_exhaustion_is_distinct():
    with pytest.raises(BudgetExceeded):
        witness_search(5, T123, MixedSize(1), k=4, budget=2)


def naive_witness_exists(n, t, sizemode, k):
    """Oracle: try all k^|U| colourings of the words occurring in placements."""
    constraints = [
        sorted(w.index for w in blockset_points(p, t))
        for p in enumerate_placements(n, t, sizemode)
    ]
    involved = sorted({idx for c in constraints for idx in c})
    position = {idx: i for i, idx in enumerate(involved)}
    for assignment in itertools.product(range(k), repeat=len(involved)):
        if all(len({assignment[position[i]] for i in c}) > 1 for c in constraints):
            return True
    return False


@pytest.mark.parametrize("k", [1, 2])
def test_witness_at_n3_matches_all_colourings_oracle(k):
    got = witness_search(3, T123, MixedSize(1), k=k)
    expected = naive_witness_exists(3, T123, MixedSize(1), k)
    assert (got is not None) == expected
    if got is not None:
        assert verify_absence(got, 3, T123, MixedSize(1)).found == []


def test_witness_proven_impossible_beyond_one_colour():
    """Two colours cannot avoid a monochromatic size-1 copy of 12 in [3]^3."""
    t = template_from_word("12", m=3)
    assert naive_witness_exists(3, t, MixedSize(1), 2) is False
    assert witness_search(3, t, MixedSize(1), k=2) is None
    assert witness_search(3, t, MixedSize(1), k=3) is not None


# ---------------------------------------------------------------------------
# homogeneous subset search


def test_homogeneous_constant_returns_prefix():
    theta = SubsetColouring(9, 2, lambda s: 0)
    assert homogeneous_subset_search(theta, 4).members == (1, 2, 3, 4)


def test_homogeneous_parity_triangle():
    theta = SubsetColouring(6, 2, lambda s: (s[0] + s[1]) % 2, "endpoint-parity")
    hit = homogeneous_subset_search(theta, 3)
    assert hit.members == (1, 3, 5)
    assert hit.colour == 0


def test_homogeneous_pentagon_has_no_triangle():
    edges = {frozenset(((i % 5) + 1, ((i + 1) % 5) + 1)) for i in range(5)}
    theta = SubsetColouring(5, 2, lambda s: 0 if frozenset(s) in edges else 1, "pentagon")
    assert homogeneous_subset_search(theta, 3) is None


def test_homogeneous_result_is_verified():
    theta = SubsetColouring(6, 2, lambda s: (s[0] + s[1]) % 2)
    hit = homogeneous_subset_search(theta, 3)
    for sub in itertools.combinations(hit.members, theta.r):
        assert theta.colour(sub) == hit.colour


# ---------------------------------------------------------------------------
# extraction


def test_extract_constant_base_k1():
    base = ConstantColouring(0, 1)
    theta = induced_subset_colouring(base, 1, 8)
    homog = HomogeneousSet(8, 4, tuple(range(1, 7)), theta.colour((1, 2, 3, 4)))
    placement, colour = extract_abccba(base, 1, homog)
    assert placement.blocks == ((1, 6), (2, 5), (3, 4))
    assert pattern_of(placement) == "ABCCBA"
    assert colour == 0
    assert placement.reference == ((7, 3), (8, 3))


def _position_insensitive_table(k, n, class_colours, colours):
    """Base colouring of words with k+1 1s and k+1 2s in [3]^n, coloured by
    the subsequence of 1s and 2s."""
    entries = {}
    length = 2 * k + 2
    for ones in itertools.combinations(range(n), k + 1):
        rest = [i for i in range(n) if i not in ones]
        for twos in itertools.combinations(rest, k + 1):
            syms = [3] * n
            for i in ones:
                syms[i] = 1
            for i in twos:
                syms[i] = 2
            word = Word(tuple(syms), 3)
            key = tuple(s for s in syms if s != 3)
            entries[word] = class_colours[key]
    return TableColouring(entries, colours, "position-insensitive")


def _class_map(k, overrides, default=0):
    classes = {w.symbols: default for w in balanced_words(k).members}
    for i, colour in overrides.items():
        classes[flipped_block_word(i, k).symbols] = colour
    return classes


def test_extract_worked_scenario_k3():
    k, n = 3, 10
    classes = _class_map(k, {1: 0, 2: 0, 3: 1, 4: 2}, default=1)
    base = _position_insensitive_table(k, n, classes, 3)
    theta = induced_subset_colouring(base, k, n)
    homog = homogeneous_subset_search(theta, 2 * k + 4)
    assert homog is not None and homog.members == tuple(range(1, 11))
    placement, colour = extract_abccba(base, k, homog)
    assert placement.blocks == ((1, 6), (2, 5), (3, 4))
    assert pattern_of(placement) == "ABCCBA"
    points = {str(w) for w in blockset_points(placement, T123)}
    assert "3211231212" in points
    assert "1233211212" in points
    assert {base.colour_id(w) for w in blockset_points(placement, T123)} == {colour}


def test_extract_picks_first_pair_with_repeat_at_end():
    """Branch colours 0, 1, 0 make the pigeonhole pair (1, k+1)."""
    k, n = 2, 8
    classes = _class_map(k, {1: 0, 2: 1, 3: 0}, default=1)
    base = _position_insensitive_table(k, n, classes, 2)
    theta = induced_subset_colouring(base, k, n)
    homog = homogeneous_subset_search(theta, 2 * k + 4)
    placement, colour = extract_abccba(base, k, homog)
    # (i, j) = (1, 3): blocks {1, 8}, {2, 7}, {3, 6}
    assert placement.blocks == ((1, 8), (2, 7), (3, 6))
    assert pattern_of(placement) == "ABCCBA"
    assert colour == 0
    assert {base.colour_id(w) for w in blockset_points(placement, T123)} == {colour}


def test_extract_rejects_non_homogeneous_set():
    base = ConstantColouring(0, 1)
    homog = HomogeneousSet(8, 4, tuple(range(1, 7)), ("wrong",))
    with pytest.raises(NotHomogeneous):
        extract_abccba(base, 1, homog)


def test_extract_contradiction_when_branches_all_differ():
    k, n = 2, 8
    classes = _class_map(k, {1: 0, 2: 1, 3: 2}, default=0)
    base = _position_insensitive_table(k, n, classes, 3)
    theta = induced_subset_colouring(base, k, n)
    homog = homogeneous_subset_search(theta, 2 * k + 4)
    with pytest.raises(ExtractionContradiction):
        extract_abccba(base, k, homog)


def test_extract_requires_matching_set_size():
    base = ConstantColouring(0, 1)
    theta = induced_subset_colouring(base, 1, 8)
    homog = HomogeneousSet(8, 4, tuple(range(1, 6)), theta.colour((1, 2, 3, 4)))
    with pytest.raises(ValueError):
        extract_abccba(base, 1, homog)
