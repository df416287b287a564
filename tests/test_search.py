import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import blocks, cli
from blocksets.blocks import (
    AmbientTooSmall,
    EqualSize,
    InvalidPlacement,
    MixedSize,
    Placement,
    blockset_points,
    enumerate_block_families,
    enumerate_placements,
    make_placement,
    parse_sizemode,
    pattern_of,
    placement_count,
    template_from_counts,
    template_from_word,
)
from blocksets.colourings import (
    Colouring,
    ConstantColouring,
    ContributionColouring,
    DomainError,
    InducedColouring,
    ModularCountColouring,
    TableColouring,
    balanced_words,
    flipped_block_word,
    random_table_colouring,
    slot_word_for,
    table_colouring,
)
from blocksets import search
from blocksets.search import (
    BudgetExceeded,
    ExtractionContradiction,
    Found,
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
from blocksets.words import CapacityExceeded, InvalidSymbol, Word, all_words, encode_word

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


@pytest.mark.parametrize("n", [9, 10])
def test_batched_hit_points_are_the_block_sets_of_the_placements(n):
    """The numpy re-check's points of each pq12 hit are the points `blockset_points` gives its placement."""
    found = verify_absence(ContributionColouring(3, 3), n, T1233, MixedSize(2)).found
    words = np.zeros((len(found), n), np.int8)
    for i, (p, _) in enumerate(found):
        for j, block in enumerate(p.blocks, 1):
            words[i, [c - 1 for c in block]] = 3 + j
        for c, sym in p.reference:
            words[i, c - 1] = sym
    points = search._hit_points(T1233, words)
    assert points.shape == (len(list(T1233.arrangements())), len(found), n)
    for i, (p, _) in enumerate(found):
        assert {Word(tuple(point), 3) for point in points[:, i].tolist()} == blockset_points(p, T1233)


@pytest.mark.parametrize(
    "colouring, n, t",
    [
        (ContributionColouring(3, 3), 9, T1233),
        (ModularCountColouring(1, 3), 6, T123),
        (random_table_colouring(6, 3, 3, seed=5), 6, T123),
    ],
    ids=["contribution", "countmod", "table"],
)
def test_hits_of_a_tampered_table_fail_their_re_check(monkeypatch, colouring, n, t):
    """A scan that reads a wrong table reports placements that are not monochromatic; the re-check refuses them.

    With the table's colours taken mod 2, placements whose points have two
    colours of one parity scan as hits.  The closed forms re-check them in
    numpy (`colour_ids`), the table colouring point by point (`colour_id`).
    """
    dense_table = type(colouring).dense_table
    monkeypatch.setattr(type(colouring), "dense_table", lambda self, k, m: dense_table(self, k, m) % 2)
    with pytest.raises(ExtractionContradiction, match="is not monochromatic"):
        verify_absence(colouring, n, t, MixedSize(2))


@pytest.mark.parametrize(
    "colouring",
    [table_colouring({encode_word("12", 3): 0}), InducedColouring(ConstantColouring(), 1)],
    ids=["partial-table", "induced"],
)
def test_too_few_coordinates_are_refused_before_the_table(monkeypatch, colouring):
    """Three disjoint blocks do not fit in n=2: `verify_absence` says so itself, not the table build."""
    monkeypatch.setattr(type(colouring), "dense_table", lambda *args: pytest.fail("dense_table was called"))
    with pytest.raises(AmbientTooSmall) as refused:
        verify_absence(colouring, 2, T123, MixedSize(1))
    assert str(refused.value) == "n=2 cannot hold 3 disjoint blocks of size >= 1"


def test_placements_examined_until_matches_stream_position():
    colouring = ModularCountColouring(1, 2)
    hit = find_monochromatic(colouring, 3, T12, EqualSize(1))
    assert hit is not None
    stream = list(enumerate_placements(3, T12, EqualSize(1)))
    examined = placements_examined_until(3, T12, EqualSize(1), None, None, hit)
    assert stream[examined - 1] == hit[0]
    total = placements_examined_until(3, T12, EqualSize(1), None, None, None)
    assert total == len(stream)


# (colouring, n, sizemode, pattern, reference domain, family index of the first hit or None)
FIRST_ONLY_CASES = [
    (random_table_colouring(6, 3, 3, seed=1), 6, MixedSize(1), None, None, 12),
    (random_table_colouring(6, 3, 3, seed=9), 6, MixedSize(1), None, None, 10),
    (random_table_colouring(6, 3, 3, seed=11), 6, MixedSize(1), None, None, 15),
    (random_table_colouring(6, 3, 3, seed=6), 6, MixedSize(1), None, (1, 2), 10),
    (random_table_colouring(8, 3, 2, seed=3), 8, MixedSize(2), "ABCCBA", None, 20),
    (ContributionColouring(2, 2), 7, MixedSize(1), None, None, None),
]


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize(
    "colouring, n, sizemode, pattern, domain, family_idx",
    FIRST_ONLY_CASES,
    ids=["seed1", "seed9", "seed11", "domain12-seed6", "pattern-seed3", "no-hit"],
)
def test_first_only_examined_matches_the_recount(colouring, n, sizemode, pattern, domain, family_idx, workers):
    report = verify_absence(colouring, n, T123, sizemode, pattern, domain, workers, first_only=True)
    hit = report.found[0] if report.found else None
    assert report.params["op"] == "find_monochromatic"
    assert hit == find_monochromatic(colouring, n, T123, sizemode, pattern, domain, workers)
    assert report.examined == placements_examined_until(n, T123, sizemode, pattern, domain, hit)
    families = enumerate_block_families(n, T123, sizemode, pattern)
    if family_idx is None:
        assert hit is None
    else:
        # the hit lies past the first chunk whenever the families are split
        assert families.index(hit[0].blocks) == family_idx >= len(families) // 2


# ---------------------------------------------------------------------------
# slab scan


def naive_monochromatic(colouring, n, t, sizemode, pattern=None, domain=None):
    """Oracle: every placement whose full point set is one colour, in canonical order."""
    found = []
    for p in enumerate_placements(n, t, sizemode, pattern, domain):
        colours = {colouring.colour_id(w) for w in blockset_points(p, t)}
        if len(colours) == 1:
            found.append((p, colours.pop()))
    return found


# (colouring, n, template, sizemode, pattern, reference domain)
SLAB_CASES = [
    (random_table_colouring(6, 3, 2, seed=5), 6, T123, MixedSize(1), None, (1, 3)),
    (random_table_colouring(8, 3, 2, seed=3), 8, T123, MixedSize(2), "ABCCBA", None),
    (random_table_colouring(7, 3, 2, seed=8), 7, T123, EqualSize(2), None, None),
    # families of three 2-blocks cover [6]: an empty complement next to k = 1..3
    (random_table_colouring(6, 3, 2, seed=2), 6, T123, MixedSize(2), None, None),
    # one arrangement: every placement is a single point, so every one is a hit
    (random_table_colouring(5, 2, 3, seed=4), 5, template_from_word("11"), MixedSize(2), None, None),
    (ContributionColouring(2, 2), 6, T123, MixedSize(1), None, None),
    # the first hit is in family 15 of 20, past the first slab at budgets 1 and 64
    (random_table_colouring(6, 3, 3, seed=11), 6, T123, MixedSize(1), None, None),
]
SLAB_IDS = ["domain13", "pattern", "equal2", "empty-complement", "template11", "no-hit", "later-slab"]


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("budget", [1, 64, 10**9], ids=["family-per-slab", "small-slabs", "one-slab"])
@pytest.mark.parametrize("colouring, n, t, sizemode, pattern, domain", SLAB_CASES, ids=SLAB_IDS)
def test_slab_scan_matches_the_naive_scan(monkeypatch, colouring, n, t, sizemode, pattern, domain, budget, workers):
    monkeypatch.setattr(search, "SLAB_ENTRIES", budget)
    expected = naive_monochromatic(colouring, n, t, sizemode, pattern, domain)
    report = verify_absence(colouring, n, t, sizemode, pattern, domain, workers)
    assert report.found == expected
    assert report.examined == placements_examined_until(n, t, sizemode, pattern, domain, None)
    first = verify_absence(colouring, n, t, sizemode, pattern, domain, workers, first_only=True)
    hit = expected[0] if expected else None
    assert first.found == expected[:1]
    assert first.examined == placements_examined_until(n, t, sizemode, pattern, domain, hit)


@dataclass(frozen=True)
class ParentOnlyTable(ModularCountColouring):
    """Builds its dense table only in the process that created it."""

    owner: int = field(default_factory=os.getpid)

    def dense_table(self, n, m):
        if os.getpid() != self.owner:
            raise RuntimeError("dense_table called in a worker process")
        return super().dense_table(n, m)


def test_colour_table_is_built_once_in_the_calling_process(monkeypatch):
    monkeypatch.setattr(search, "SLAB_ENTRIES", 1)  # many slabs, so both workers get some
    colouring = ParentOnlyTable(1, 3)
    one = verify_absence(colouring, 6, T123, MixedSize(1), workers=1)
    two = verify_absence(colouring, 6, T123, MixedSize(1), workers=2)
    assert _stable(one) == _stable(two)
    assert one.found == naive_monochromatic(colouring, 6, T123, MixedSize(1))


@dataclass(frozen=True)
class PrebuiltTable(ContributionColouring):
    """Returns a copy of a table built in advance, so a scan allocates exactly one table."""

    table: np.ndarray = field(default=None, compare=False, repr=False)

    def dense_table(self, n, m):
        assert len(self.table) == m**n, f"table prebuilt with {len(self.table)} entries, scan asks for [{m}]^{n}"
        return self.table.copy()


class DirectPrebuiltTable(PrebuiltTable):
    """Declares no neutral symbols, so its full scans visit every reference at n."""

    neutral_symbols = frozenset()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _degree2_prebuilt():
    from blocksets.cli import degree_setup

    t, base = degree_setup(2)
    # the climb over the eight 3s of 12233333333 reads [3]^(n - 7)
    return PrebuiltTable(base.modulus, base.length, base.dense_table(6, 3)), 13, t, MixedSize(2), False, 6


def _degree2_direct():
    from blocksets.cli import degree_setup

    t, base = degree_setup(2)
    return DirectPrebuiltTable(base.modulus, base.length, base.dense_table(13, 3)), 13, t, MixedSize(2), False, 13


def _constant_first_only():
    return ConstantColouring(0, 1), 12, template_from_word("1233333"), MixedSize(1), True, 12


@pytest.mark.parametrize(
    "case",
    [_degree2_prebuilt, _degree2_direct, _constant_first_only],
    ids=["degree2-n13", "degree2-n13-direct", "all-hits-first-only"],
)
def test_scan_working_set_is_bounded_by_the_slab_budget(case):
    """Beyond its table and its family list, a scan allocates a few slab budgets.

    At d=2, n=13 each family covers about 1.8 placements but needs 495
    arrangement deltas, so a budget that counted placements only would put
    all 3,081 families in one slab (about 26 MB of working set here).  Its
    table is built before tracing starts: the incremental contribution build
    alone peaks near four tables, which would hide the scan.  Under a
    constant colouring every placement survives every arrangement, so the
    compare arrays are as large as the slab's placements.
    """
    colouring, n, t, sizemode, first_only, table_length = case()
    table_bytes = colouring.dense_table(table_length, t.m).nbytes
    _, enumeration_peak = _traced_peak(lambda: enumerate_block_families(n, t, sizemode))
    report, peak = _traced_peak(lambda: verify_absence(colouring, n, t, sizemode, first_only=first_only))
    assert report.examined == placements_examined_until(n, t, sizemode, None, None, report.found[0] if report.found else None)
    budget_bytes = search.SLAB_ENTRIES * np.dtype(np.int64).itemsize
    assert peak - table_bytes < enumeration_peak + 16 * budget_bytes


def test_all_hits_scan_working_set_is_bounded_by_its_hits():
    """Under a constant colouring every placement is a hit: 432,054 of `123` mixed:2 at n=9.

    The slabs label their own hits, so the scan holds the hits about twice,
    as the slabs' label words and their concatenation, and never as wider
    rows: its peak stays within 2.5 times the returned arrays, plus the
    slab allowance of the scan tests above.
    """
    n, t, sizemode = 9, T123, MixedSize(2)
    table = ConstantColouring(0, 1).dense_table(n, t.m)
    (examined, hits), peak = _traced_peak(
        lambda: search._scan(table, t, sizemode, None, range(n, n + 1), (1, 2, 3), 1, False, 1)
    )
    words, colours = hits[n]
    assert examined == len(words) == placement_count(n, t, sizemode, 3) == 432_054
    returned = words.nbytes + colours.nbytes
    assert peak < 2.5 * returned + 16 * search.SLAB_ENTRIES * np.dtype(np.int64).itemsize


# ---------------------------------------------------------------------------
# neutral-symbol reduction


class DirectContribution(ContributionColouring):
    """Declares no neutral symbols, so its full scans visit every reference at n."""

    neutral_symbols = frozenset()


class DirectCount(ModularCountColouring):
    neutral_symbols = frozenset()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_reduced_scan_matches_the_naive_and_the_direct_scan(data):
    if data.draw(st.booleans(), "contribution"):
        modulus, length = data.draw(st.integers(2, 3), "modulus"), data.draw(st.integers(1, 3), "length")
        colouring, direct = ContributionColouring(modulus, length), DirectContribution(modulus, length)
        domains = [None, (1, 2), (1, 3), (3,)]
    else:
        symbol, k = data.draw(st.integers(1, 3), "symbol"), data.draw(st.integers(1, 3), "k")
        colouring, direct = ModularCountColouring(symbol, k), DirectCount(symbol, k)
        domains = [None, (1, 2), (1, 3), (3,), (symbol,)]
    t = template_from_word(data.draw(st.sampled_from(["12", "123", "1233"]), "template"), m=3)
    modes = [EqualSize(1), EqualSize(2), MixedSize(1), MixedSize(2)]
    sizemode = data.draw(st.sampled_from([mode for mode in modes if t.s * mode.min_size <= 7]), "sizemode")
    n = data.draw(st.integers(t.s * sizemode.min_size, 7), "n")
    patterns = sorted({pattern_of(p) for p in enumerate_placements(n, t, sizemode, None, [1])})
    pattern = data.draw(st.sampled_from([None] + patterns), "pattern")
    domain = data.draw(st.sampled_from(domains), "domain")
    workers = data.draw(st.sampled_from([1, 2]), "workers")
    reduced = verify_absence(colouring, n, t, sizemode, pattern, domain, workers)
    full = verify_absence(direct, n, t, sizemode, pattern, domain, workers)
    assert reduced.found == full.found == naive_monochromatic(colouring, n, t, sizemode, pattern, domain)
    assert reduced.examined == full.examined == len(list(enumerate_placements(n, t, sizemode, pattern, domain)))


def test_pq12_hits_follow_the_reduced_hits():
    """H(n) = sum_r C(n, r) H12(n - r): the hits at n over {1, 2, 3} from those over {1, 2}."""
    colouring = ContributionColouring(3, 3)
    reduced = {n: 0 for n in range(4, 9)}
    for n, hits, reduced_hits in [(9, 2, 2), (10, 34, 14), (11, 316, 52), (12, 2184, 196)]:
        report = verify_absence(colouring, n, T1233, MixedSize(2))
        assert len(report.found) == hits
        assert report.examined == placements_examined_until(n, T1233, MixedSize(2), None, None, None)
        reduced[n] = len(verify_absence(colouring, n, T1233, MixedSize(2), reference_domain=(1, 2)).found)
        assert reduced[n] == reduced_hits
        assert hits == sum(math.comb(n, n - k) * reduced[k] for k in range(4, n + 1))


@dataclass(frozen=True)
class CountedTable(ContributionColouring):
    """Records each table it builds, and builds tables only in the process that created it."""

    owner: int = field(default_factory=os.getpid)
    built: list = field(default_factory=list, compare=False, repr=False)

    def dense_table(self, n, m):
        if os.getpid() != self.owner:
            raise RuntimeError("dense_table called in a worker process")
        self.built.append(n)
        return super().dense_table(n, m)


@pytest.mark.parametrize("workers", [1, 2])
def test_reduced_scan_builds_one_table_at_the_longest_scanned_length(monkeypatch, workers):
    monkeypatch.setattr(search, "SLAB_ENTRIES", 256)  # many slabs, so both workers get some
    colouring = CountedTable(3, 3)
    report = verify_absence(colouring, 10, T1233, MixedSize(2), workers=workers)
    assert colouring.built == [9]  # 123 is scanned up to n - 1, 12 up to n - 2
    assert _stable(report) == _stable(verify_absence(DirectContribution(3, 3), 10, T1233, MixedSize(2)))


def test_reduced_scan_working_set_is_bounded_by_the_slab_budget():
    """The bound of the direct scan's test holds for a reduced scan, all its lengths together."""
    n = 10
    colouring = PrebuiltTable(3, 3, ContributionColouring(3, 3).dense_table(n - 1, 3))  # the climb's longest scan
    table_bytes = colouring.table.nbytes
    _, enumeration_peak = _traced_peak(lambda: enumerate_block_families(n, T1233, MixedSize(2)))
    report, peak = _traced_peak(lambda: verify_absence(colouring, n, T1233, MixedSize(2)))
    assert len(report.found) == 34
    assert report.examined == placements_examined_until(n, T1233, MixedSize(2), None, None, None)
    budget_bytes = search.SLAB_ENTRIES * np.dtype(np.int64).itemsize
    assert peak - table_bytes < enumeration_peak + 16 * budget_bytes


# ---------------------------------------------------------------------------
# neutral-letter climb


@pytest.mark.parametrize("text", ["12", "123", "1233", "12233"])
@pytest.mark.parametrize("sizemode", [EqualSize(1), EqualSize(2), MixedSize(1), MixedSize(2), MixedSize(3)], ids=str)
def test_placement_count_matches_the_recount(text, sizemode):
    t = template_from_word(text, m=3)
    for n in range(t.s * sizemode.min_size, 11):
        for domain in [None, (1, 2), (3,)]:
            count = placement_count(n, t, sizemode, 3 if domain is None else len(domain))
            assert count == placements_examined_until(n, t, sizemode, None, domain, None)


def _delete_block(placement, b):
    """The placement with block b and its coordinates deleted, the rest renumbered in order."""
    kept = [c for c in range(1, placement.n + 1) if c not in placement.blocks[b]]
    new = {c: i for i, c in enumerate(kept, 1)}
    blocks = [[new[c] for c in block] for j, block in enumerate(placement.blocks) if j != b]
    return make_placement(len(kept), blocks, {new[c]: sym for c, sym in placement.reference}, placement.sizemode)


def test_every_block_deletion_of_a_pq12_hit_is_a_lower_hit_of_its_colour():
    """Lemma (a) on data: 3 is neutral, so deleting any block of a 1233 hit leaves a 123 hit.

    Both lists come from direct scans, which declare no neutral symbols.
    """
    colouring = DirectContribution(3, 3)
    lower = {hit for n in range(3, 11) for hit in verify_absence(colouring, n, T123, MixedSize(2)).found}
    hits = [hit for n in range(4, 12) for hit in verify_absence(colouring, n, T1233, MixedSize(2)).found]
    assert len(hits) == 2 + 34 + 316
    for placement, colour in hits:
        assert all((_delete_block(placement, b), colour) in lower for b in range(4))


def _delete_key(n, blocks, reference, b):
    """`_delete_block` on (n, blocks, reference) keys: no `Placement` is built."""
    kept = [c for c in range(1, n + 1) if c not in blocks[b]]
    new = {c: i for i, c in enumerate(kept, 1)}
    rest = tuple(tuple(new[c] for c in block) for j, block in enumerate(blocks) if j != b)
    return len(kept), rest, tuple((new[c], sym) for c, sym in reference)


def test_a_123_placement_is_a_hit_exactly_when_its_deletions_are_12_hits_of_one_colour():
    """Lemma (b) for j = 1 on data, both ways: 123 holds one 3, which is neutral.

    Every placement has a block of largest minimum, and deleting it leaves a
    12 placement.  So lifting each 12 hit over each block past its last
    block's minimum reaches every 123 placement whose deletions are all 12
    hits; those whose three deletions share one colour must be exactly the
    123 hits, with that colour.  Both lists come from direct scans, which
    declare no neutral symbols.
    """
    colouring = DirectContribution(3, 3)

    def hits(t, lengths):
        found = [hit for n in lengths for hit in verify_absence(colouring, n, t, MixedSize(2)).found]
        return {(p.n, p.blocks, p.reference): c for p, c in found}

    lower, upper = hits(T12, range(2, 10)), hits(T123, range(3, 11))
    joined = {}
    for (n, blocks, reference), colour in lower.items():
        for k in range(1, min(2, 10 - n) + 1):
            for z in itertools.combinations(range(blocks[-1][0] + 1, n + k + 1), k):
                kept = [c for c in range(1, n + k + 1) if c not in z]  # the 12 hit's coordinate c goes to kept[c - 1]
                key = (
                    n + k,
                    tuple(tuple(kept[c - 1] for c in block) for block in blocks) + (z,),
                    tuple((kept[c - 1], sym) for c, sym in reference),
                )
                if all(lower.get(_delete_key(*key, b)) == colour for b in range(3)):
                    joined[key] = colour
    assert len(upper) == 2 + 28 + 224 + 1384
    assert joined == upper


def _scan_hits(table, t, sizemode, lengths, symbols):
    """`search._scan`'s hits of t at each length, through a table that holds the neutral symbol 3 past it."""
    return search._scan(table, t, sizemode, None, lengths, symbols, 3, False, 1)[1]


def _sorted_hits(words, colours):
    """Hits as sorted (label word, colour) rows, so that lists in any order compare."""
    return sorted(zip(map(tuple, words.tolist()), colours.tolist()))


@given(st.lists(st.lists(st.integers(0, 40), max_size=12), max_size=6), st.sampled_from([1, 16, 64]))
def test_slabs_cut_every_part_by_one_cumulative_cost(parts, budget):
    """A slab starts at each row whose cost so far, over all the parts in turn, reaches a new budget."""
    rows = [(part, i, cost) for part, costs in enumerate(parts) for i, cost in enumerate(costs)]
    before = np.cumsum([0] + [cost for *_, cost in rows])[:-1] // budget
    expected: list[list[tuple[int, int, int]]] = []
    for r, (part, i, _) in enumerate(rows):
        if r == 0 or before[r] > before[r - 1]:
            expected.append([])
        if expected[-1] and expected[-1][-1][0] == part:
            expected[-1][-1] = (part, expected[-1][-1][1], i + 1)
        else:
            expected[-1].append((part, i, i + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "SLAB_ENTRIES", budget)
        assert search._slabs(np.array(costs, np.int64) for costs in parts) == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_scan_over_lengths_matches_one_scan_per_length(data):
    """Slabs that straddle lengths find, at each length, exactly the hits of a scan of that length alone.

    Each length's hits come in the same order, and the placements examined
    are the one-length counts summed.
    """
    t = template_from_word(data.draw(st.sampled_from(["12", "122", "1233"]), "template"), m=3)
    modes = [EqualSize(1), EqualSize(2), MixedSize(1), MixedSize(2)]
    sizemode = data.draw(st.sampled_from([mode for mode in modes if t.s * mode.min_size <= 8]), "sizemode")
    n = data.draw(st.integers(t.s * sizemode.min_size, 8), "n")
    lengths = range(data.draw(st.integers(t.s * sizemode.min_size, n), "shortest"), n + 1)
    symbols, pad = data.draw(st.sampled_from([((1, 2), 3), ((1,), 3), ((1, 2, 3), 3), ((1, 3), 2)]), "symbols")
    table = random_table_colouring(n, 3, 2, seed=data.draw(st.integers(0, 99), "seed")).dense_table(n, 3)
    workers = data.draw(st.sampled_from([1, 2]), "workers")
    with pytest.MonkeyPatch.context() as patch:  # at 64 entries a slab holds a few families, and often two lengths
        patch.setattr(search, "SLAB_ENTRIES", data.draw(st.sampled_from([64, search.SLAB_ENTRIES]), "slab"))

        def scan(lengths):
            return search._scan(table, t, sizemode, None, lengths, symbols, pad, False, workers)

        examined, hits = scan(lengths)
        alone = {k: scan(range(k, k + 1)) for k in lengths}
    assert list(hits) == list(reversed(lengths))
    for k, (one_examined, one_hits) in alone.items():
        assert hits[k][0].dtype == one_hits[k][0].dtype == np.int8
        assert np.array_equal(hits[k][0], one_hits[k][0]) and np.array_equal(hits[k][1], one_hits[k][1])
    assert examined == sum(alone[k][0] for k in lengths)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_extension_matches_the_direct_scan_at_every_length(data):
    """The hits of a template with one neutral 3, extended from the hits without it, are those its scan finds."""
    if data.draw(st.booleans(), "contribution"):
        modulus, length = data.draw(st.integers(2, 3), "modulus"), data.draw(st.integers(1, 3), "length")
        colouring = ContributionColouring(modulus, length)
    else:  # 3 is neutral when it is not the counted symbol
        colouring = ModularCountColouring(data.draw(st.integers(1, 2), "symbol"), data.draw(st.integers(1, 3), "k"))
    word = data.draw(st.sampled_from(["13", "123", "1123", "1223"]), "template")
    t, lower_t = template_from_word(word, m=3), template_from_word(word[:-1], m=3)
    modes = [EqualSize(1), EqualSize(2), MixedSize(1), MixedSize(2)]
    sizemode = data.draw(st.sampled_from([mode for mode in modes if t.s * mode.min_size <= 8]), "sizemode")
    n = data.draw(st.integers(t.s * sizemode.min_size, 8), "n")
    symbols = blocks.reference_symbols(t, data.draw(st.sampled_from([None, (1, 2), (3,)]), "domain"))
    table, low, lengths = colouring.dense_table(n, 3), sizemode.min_size, range(t.s * sizemode.min_size, n + 1)
    with pytest.MonkeyPatch.context() as patch:  # small budgets cut many slabs, which straddle lengths
        patch.setattr(search, "SLAB_ENTRIES", data.draw(st.sampled_from([1, 16, 1 << 14]), "slab"))
        lower = _scan_hits(table, lower_t, sizemode, range(lower_t.s * low, n - low + 1), symbols)
        scanned = _scan_hits(table, t, sizemode, lengths, symbols)
        extended = search._extend(table, lower, t, 3, lengths, sizemode.size_range())
    assert extended.keys() == scanned.keys()
    for k in lengths:
        assert _sorted_hits(*extended[k]) == _sorted_hits(*scanned[k])


def test_scan_refuses_ids_past_62_bits_before_any_table(monkeypatch):
    """A constant colour past int64 serves lattice boxes, but a word scan refuses it before evaluating a colour."""
    for method in ("dense_table", "colour_ids", "colour_id"):
        monkeypatch.setattr(ConstantColouring, method, lambda *args, name=method: pytest.fail(f"{name} called"))
    message = r"^a scan holds colour ids below 2\*\*62; constant:\d+ has 2,361,183,241,434,822,606,848 colours$"
    with pytest.raises(CapacityExceeded, match=message):
        verify_absence(ConstantColouring(2**70, 2**71), 4, template_from_word("12"), EqualSize(1))


def test_join_counts_its_candidates_before_building_them(monkeypatch):
    """One lower hit, a block on both coordinates of [2], lifts over the 2-sets of [4] past its minimum.

    Those are {2,3}, {2,4} and {3,4}: 3 candidates of 4 letters.
    """
    lower = {2: (np.array([[4, 4]], np.int8), np.array([7]))}
    monkeypatch.setattr("blocksets.words.MAX_TABLE_ENTRIES", 3 * 4 - 1)
    with pytest.raises(CapacityExceeded, match="the join at n=4 needs 12 entries"):
        search._join(lower, 1, 2, range(4, 5), 3, range(1, 3))
    monkeypatch.setattr("blocksets.words.MAX_TABLE_ENTRIES", 3 * 4)
    words, colours = search._join(lower, 1, 2, range(4, 5), 3, range(1, 3))[4]
    assert words.tolist() == [[4, 5, 5, 4], [4, 5, 4, 5], [4, 4, 5, 5]]
    assert colours.tolist() == [7, 7, 7]


def test_a_hitless_climb_builds_no_position_set_at_n(monkeypatch):
    """d2 at n=19: the `122` certificate has hits at length 11, which climb to no hit of `1223` or above.

    The climb lifts only lengths that hold hits, and the listing at n skips
    every hitless length: no `_subsets(19, ...)` is built.
    """
    calls = []
    subsets = search._subsets
    monkeypatch.setattr(search, "_subsets", lambda n, r: calls.append((n, r)) or subsets(n, r))
    t, colouring = cli.degree_setup(2, None)
    report = verify_absence(colouring, 19, t, MixedSize(2))
    assert len(report.found) == 0 and report.examined == placement_count(19, t, MixedSize(2), 3)
    assert calls and max(n for n, _ in calls) < 19  # the T_0 hits were lifted, and nothing at 19


def _record(monkeypatch, calls, *names):
    """Record the positional arguments of each call of these `search` functions, by name, then make the call."""
    for name in names:
        real = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *args, name=name, real=real: calls.append((name, args)) or real(*args))


def test_a_one_copy_template_extends_its_certificate_hits_once(monkeypatch):
    """`--pq 2,1` at n=13: 1223 holds one neutral 3, so its hits extend from those of 122, scanned up to n - 1.

    122 has 256 hits at 11 over references 1 and 2, so the extension runs;
    it finds no hit of 1223.
    """
    t, colouring = cli.degree_setup(2, (2, 1))
    calls = []
    _record(monkeypatch, calls, "block_families", "_extend", "_join")
    report = verify_absence(colouring, 13, t, MixedSize(2))
    assert [name for name, _ in calls] == ["block_families", "_extend"]
    assert calls[0][1][0] == 12  # the certificate scan's longest length, n - min_size
    assert len(report.found) == 0 and report.examined == placement_count(13, t, MixedSize(2), 3)


def test_a_zero_copy_template_climbs_from_its_own_scan(monkeypatch):
    """`--pq 3,0`: 1222 holds no 3, so the climb is its own scan over references without 3, from n = 4 up."""
    t, colouring = cli.degree_setup(2, (3, 0))
    calls = []
    _record(monkeypatch, calls, "_climb", "_scan", "_extend", "_join")
    report = verify_absence(colouring, 9, t, MixedSize(2))
    assert [name for name, _ in calls] == ["_climb", "_scan"]
    assert calls[0][1][1:3] == (t, 3)  # climbs the 3s
    assert calls[1][1][4:6] == (range(4, 10), (1, 2))  # lengths and reference symbols
    assert report.examined == placement_count(9, t, MixedSize(2), 3)
    monkeypatch.undo()
    assert _stable(report) == _stable(verify_absence(DirectContribution(3, 7), 9, t, MixedSize(2)))


def test_a_patterned_scan_of_a_neutral_colouring_runs_once_at_n(monkeypatch):
    """A pattern is not climbed: its families are built once, at n, and scanned at n only, over every symbol."""
    calls = []
    _record(monkeypatch, calls, "block_families", "_scan", "_climb")
    report = verify_absence(ContributionColouring(3, 3), 9, T1233, MixedSize(2), "ABCDDCBA")
    assert [(name, args[0] if name == "block_families" else args[4:6]) for name, args in calls] == [
        ("_scan", (range(9, 10), (1, 2, 3))),
        ("block_families", 9),
    ]
    assert len(report.found) == 2
    monkeypatch.undo()
    assert _stable(report) == _stable(verify_absence(DirectContribution(3, 3), 9, T1233, MixedSize(2), "ABCDDCBA"))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_climb_matches_the_naive_and_the_direct_scan(data):
    """Templates with a repeated neutral letter, so full scans climb it."""
    if data.draw(st.booleans(), "contribution"):
        modulus, length = data.draw(st.integers(2, 3), "modulus"), data.draw(st.integers(1, 3), "length")
        colouring, direct = ContributionColouring(modulus, length), DirectContribution(modulus, length)
    else:
        symbol, k = data.draw(st.integers(1, 3), "symbol"), data.draw(st.integers(1, 3), "k")
        colouring, direct = ModularCountColouring(symbol, k), DirectCount(symbol, k)
    t = template_from_word(data.draw(st.sampled_from(["1133", "11233", "12233", "1233"]), "template"), m=3)
    modes = [EqualSize(1), EqualSize(2), MixedSize(1), MixedSize(2)]
    sizemode = data.draw(st.sampled_from([mode for mode in modes if t.s * mode.min_size <= 7]), "sizemode")
    n = data.draw(st.integers(t.s * sizemode.min_size, 7), "n")
    domain = data.draw(st.sampled_from([None, (1, 2), (3,)]), "domain")
    workers = data.draw(st.sampled_from([1, 2]), "workers")
    climbed = verify_absence(colouring, n, t, sizemode, None, domain, workers)
    full = verify_absence(direct, n, t, sizemode, None, domain, workers)
    assert climbed.found == full.found == naive_monochromatic(colouring, n, t, sizemode, None, domain)
    assert climbed.examined == full.examined == len(list(enumerate_placements(n, t, sizemode, None, domain)))


# ---------------------------------------------------------------------------
# determinism across worker counts


def _stable(report):
    d = dict(report.to_json_dict(), elapsed_ms=0.0)
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


def _chunk_sum(shared, start, items):
    (scale,) = shared
    return start, [scale(x) for x in items]


def test_map_chunks_does_not_pickle_shared_state():
    """A lambda cannot be pickled, so this fails if the workers are sent `shared`."""
    chunks = search.map_chunks(_chunk_sum, (lambda x: 3 * x,), list(range(7)), workers=2)
    assert chunks == [(0, [0, 3, 6, 9]), (4, [12, 15, 18])]


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked for and runs the chunks here."""

    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "workers, items, cpus, pool",
    [(5000, 7, 2, 2), (5000, 3, 8, 3), (5000, 7, None, 1), (5000, 1, 2, None), (2, 7, 2, 2), (1, 7, 2, None)],
)
def test_map_chunks_pool_has_no_more_processes_than_chunks_or_cpus(monkeypatch, workers, items, cpus, pool):
    """The pool starts all its processes at once, so --workers 5000 must not ask for 5,000; chunks stay the same."""
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    chunks = search.map_chunks(_chunk_sum, (lambda x: 3 * x,), list(range(items)), workers)
    size = max(1, -(-items // workers))
    assert chunks == [(i, [3 * x for x in range(i, min(items, i + size))]) for i in range(0, items, size)]
    assert InProcessPool.sizes == ([] if pool is None else [pool])


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


# (n, template, k, nodes, witness found): total nodes of the recursive search, found by bisecting its budget
WITNESS_NODES = [(5, "123", 4, 150, True), (6, "123", 2, 540, True), (3, "12", 2, 4, False), (4, "12", 3, 405, False)]
# n=7 is past the recursion limit: nodes of the explicit-stack search, confirmed by the same bisection
WITNESS_NODES += [(7, "123", 2, 1806, True), (7, "123", 3, 1806, True)]


@pytest.mark.parametrize("n, text, k, nodes, found", WITNESS_NODES)
def test_witness_search_visits_the_nodes_of_the_recursive_search(n, text, k, nodes, found):
    t = template_from_word(text, m=3)
    with pytest.raises(BudgetExceeded) as info:
        witness_search(n, t, MixedSize(1), k, budget=nodes - 1)
    assert info.value.nodes == nodes
    assert (witness_search(n, t, MixedSize(1), k, budget=nodes) is not None) == found


def _reference_witness_ids(n, t, sizemode, k, budget, reference_domain=None):
    """Oracle: the witness node loop before its per-set counters, colour ids by packed index (or None).

    Each visit of a block set lists the set's uncoloured points and reads the
    colour of every coloured one.  Raises BudgetExceeded as `witness_search` does.
    """
    sets = search._block_sets(n, t, sizemode, reference_domain)
    if sets.shape[1] <= 1:
        return None
    constraints = list(map(tuple, sets.tolist()))
    through = {}
    for cset in constraints:
        for idx in cset:
            through.setdefault(idx, []).append(cset)
    constrained = sorted(through)
    domain = {idx: (1 << k) - 1 for idx in constrained}
    colour = {}
    nodes = 0
    trails = []
    pos = c = 0
    while pos < len(constrained):
        idx = constrained[pos]
        while c < k and not domain[idx] & (1 << c):
            c += 1
        if c < k:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            colour[idx] = c
            trails.append([])
            for cset in through[idx]:
                free = [w for w in cset if w not in colour]
                if len(free) > 1 or any(colour[w] != c for w in cset if w in colour):
                    continue
                if not free or domain[free[0]] == 1 << c:
                    break
                if domain[free[0]] & (1 << c):
                    domain[free[0]] ^= 1 << c
                    trails[-1].append(free[0])
            else:
                pos, c = pos + 1, 0
                continue
        elif pos == 0:
            return None
        else:
            pos -= 1
            idx = constrained[pos]
        c = colour.pop(idx)
        for w in trails.pop():
            domain[w] |= 1 << c
        c += 1
    ids = np.zeros(t.m**n, np.int64)
    ids[list(colour)] = list(colour.values())
    return ids


def _witness_outcome(search_fn, *args):
    try:
        return search_fn(*args)
    except BudgetExceeded as exc:
        return ("budget", exc.nodes)


@pytest.mark.parametrize(
    "text, sizemode, domain",
    [(text, sizemode, None) for text in ["123", "112", "12"] for sizemode in ["mixed:1", "mixed:2", "equal:1"]]
    + [("123", "mixed:1", (1, 2))],
)
def test_witness_search_matches_the_listing_loop(text, sizemode, domain):
    """Same witness table, None, or BudgetExceeded.nodes as the loop that listed each set's free points."""
    t, sizemode = template_from_word(text, m=3), parse_sizemode(sizemode)
    for k, n, budget in itertools.product(range(1, 5), range(t.s * sizemode.min_size, 7), [1, 10, 100, 1000, 5000]):
        want = _witness_outcome(_reference_witness_ids, n, t, sizemode, k, budget, domain)
        got = _witness_outcome(witness_search, n, t, sizemode, k, budget, domain)
        if isinstance(got, TableColouring):
            assert isinstance(want, np.ndarray), (k, n, budget, want)
            assert np.array_equal(got.ids, want), (k, n, budget)
        else:
            assert not isinstance(want, np.ndarray) and got == want, (k, n, budget, got)


def test_witness_at_n8_passes_the_absence_scan():
    w = witness_search(8, T123, MixedSize(1), k=2)
    assert w is not None
    report = verify_absence(w, 8, T123, MixedSize(1))
    assert (report.examined, report.found) == (placements_examined_until(8, T123, MixedSize(1), None, None, None), [])


def test_a_witness_failing_its_absence_check_is_a_contradiction(monkeypatch):
    monkeypatch.setattr(search, "find_monochromatic", lambda *args: object())
    with pytest.raises(ExtractionContradiction, match="^witness failed its own absence check$"):
        witness_search(4, T123, MixedSize(1), 4)


def test_witness_proven_impossible_beyond_one_colour():
    """Two colours cannot avoid a monochromatic size-1 copy of 12 in [3]^3."""
    t = template_from_word("12", m=3)
    assert naive_witness_exists(3, t, MixedSize(1), 2) is False
    assert witness_search(3, t, MixedSize(1), k=2) is None
    assert witness_search(3, t, MixedSize(1), k=3) is not None


@pytest.fixture
def placements_built(monkeypatch):
    """Counts of the `Placement`s built and the `pattern_of` calls made while a test runs."""
    counts = {"Placement": 0, "pattern_of": 0}
    post_init, pattern = Placement.__post_init__, blocks.pattern_of

    def counted_post_init(self):
        counts["Placement"] += 1
        post_init(self)

    def counted_pattern(p):
        counts["pattern_of"] += 1
        return pattern(p)

    monkeypatch.setattr(Placement, "__post_init__", counted_post_init)
    monkeypatch.setattr(blocks, "pattern_of", counted_pattern)
    return counts


@pytest.mark.parametrize("out_format", ["json", "csv", "text"])
def test_verify_thm2_builds_no_placement_or_entry_dict(placements_built, out_format):
    """The closed-form `verify thm2` path re-checks and writes its hits from arrays, in every format."""
    argv = f"verify thm2 --d 2 --pq 1,2 --n 10 --workers 1 --format {out_format}".split()
    out = io.StringIO()
    assert cli.parse_and_dispatch(argv, out, io.StringIO()) == 0
    assert out.getvalue().count('blocks"') == 34  # the hits are written
    assert placements_built == {"Placement": 0, "pattern_of": 0}


@pytest.mark.parametrize(
    "colouring, n, t",
    [(ModularCountColouring(1, 3), 6, T123), (ContributionColouring(3, 3), 7, T123)],
    ids=["countmod", "pq11-reduced"],
)
def test_found_is_decoded_only_when_read(placements_built, colouring, n, t):
    report = verify_absence(colouring, n, t, MixedSize(2))
    assert len(report.found) > 0 and placements_built["Placement"] == 0  # len reads the arrays
    expected = naive_monochromatic(colouring, n, t, MixedSize(2))
    built = placements_built["Placement"]
    assert report.found == expected
    runs = sum(1 for _ in report.found.runs())  # the constructor checks the first hit of each run
    assert placements_built["Placement"] == built + runs < built + len(expected)  # decoded once, on the first read
    assert report.found[:1] == expected[:1] and list(report.found) == expected
    assert placements_built["Placement"] == built + runs


def _decode_reference(found):
    """The per-hit decode: every hit of `found` through the `Placement` constructor."""
    return [
        (Placement(found.n, run.blocks, tuple((c, row[c]) for c in run.free), found.sizemode), row[0])
        for run in found.runs()
        for row in run.rows
    ]


def _blockset_points_reference(p, t):
    """`blockset_points` by writing each block's coordinates once per arrangement."""
    base = [0] * p.n
    for coord, symbol in p.reference:
        if symbol > t.m:
            raise InvalidSymbol(f"reference symbol {symbol} outside [1, {t.m}]")
        base[coord - 1] = symbol
    points = set()
    for arrangement in t.arrangements():
        syms = base[:]
        for block, value in zip(p.blocks, arrangement):
            for coord in block:
                syms[coord - 1] = value
        points.add(Word(tuple(syms), t.m))
    return points


def _colour_id_reference(colouring, w):
    """`TableColouring.colour_id` through the word's length and alphabet pair and a numpy scalar read."""
    c = int(colouring.ids[w.index]) if (w.n, w.m) == (colouring.n, colouring.m) else -1
    if c < 0:
        raise DomainError(f"word {w} outside table domain")
    return c


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returns", call()
    except (ValueError, KeyError) as error:
        return type(error), str(error)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_table_colouring_hits_match_the_per_hit_references(data):
    """The run-wise decode, the gathered points and the direct table reads give what the per-hit roads gave."""
    m, n = data.draw(st.sampled_from([(3, 5), (3, 6), (3, 7), (3, 8), (2, 6), (3, 1)]), "space")
    words = ["1", "2"] if n == 1 else ["11", "12"] if m == 2 else ["11", "123", "1233"]
    t = template_from_word(data.draw(st.sampled_from(words), "template"), m=m)
    modes = [mode for mode in (EqualSize(2), MixedSize(1), MixedSize(2)) if t.s * mode.min_size <= n]
    sizemode = data.draw(st.sampled_from(modes), "sizemode")
    pattern = None
    if data.draw(st.booleans(), "with pattern"):  # the blocks one after another, of drawn sizes
        sizes = [data.draw(st.sampled_from(sizemode.size_range()), "size") for _ in range(t.s)]
        pattern = "".join(chr(ord("A") + j) * size for j, size in enumerate(sizes))
        if len(pattern) > n:
            pattern = None
    domain = data.draw(st.sampled_from([None, (1, 2), (m,), (2, m)]), "domain")
    colouring = random_table_colouring(n, m, data.draw(st.integers(1, 3), "k"), data.draw(st.integers(0, 99), "seed"))
    found = verify_absence(colouring, n, t, sizemode, pattern, domain).found
    expected = _decode_reference(found)
    assert found.decode(0, len(found)) == expected
    assert [hash(entry) for entry in found.entries()] == [hash(entry) for entry in expected]
    assert found.entries() == naive_monochromatic(colouring, n, t, sizemode, pattern, domain)
    holed = TableColouring(np.where(np.arange(m**n) % 5 == 1, -1, colouring.ids), n, m, 3)  # a partial table
    for p, _ in expected[:: max(1, len(expected) // 300)]:
        points = blockset_points(p, t)
        assert list(points) == list(_blockset_points_reference(p, t))  # the same set, built in the same order
        for w in points:
            for table in (colouring, holed):
                assert _outcome(lambda: table.colour_id(w)) == _outcome(lambda: _colour_id_reference(table, w))
    for w in (Word((1,) * (n + 1), m), Word((1,) * n, m + 1)):  # outside the table's length or alphabet
        assert _outcome(lambda: colouring.colour_id(w)) == _outcome(lambda: _colour_id_reference(colouring, w))
        assert _outcome(lambda: colouring.colour_id(w))[0] is DomainError


@pytest.mark.parametrize("value", [0, -1, 4, 8])
@pytest.mark.parametrize("which", ["first", "second"])
def test_a_tampered_label_word_raises_the_constructors_error(which, value):
    """A reference symbol below 1, or a letter above m, on the first or a later hit of a run.

    A letter above m is a block label: 4 joins a coordinate to block 1 (size 2 past mixed:1), and 8 names a
    block past the template's, which leaves block 4 empty.  Either way the labels of that hit differ from its
    run's, so it starts a run of its own and the constructor checks it.
    """
    found = verify_absence(random_table_colouring(6, 3, 2, 3), 6, T123, MixedSize(1)).found
    start = 0
    for run in found.runs():
        if len(run.rows) > 1:
            break
        start += len(run.rows)
    row = start + (which == "second")
    words = found.words.copy()
    words[row, run.free[0] - 1] = value
    tampered = Found(found.n, found.m, found.sizemode, words, found.colours, found.colouring)
    kind, message = _outcome(lambda: tampered.decode(0, len(tampered)))
    assert (kind, message) == _outcome(lambda: _decode_reference(tampered))
    block = f"block {(run.blocks[0][0], run.free[0])} violates size mode mixed:1"
    assert (kind, message) == {
        0: (InvalidSymbol, "reference symbol 0 < 1"),
        -1: (InvalidSymbol, "reference symbol -1 < 1"),
        4: (InvalidPlacement, block),
        8: (InvalidPlacement, "empty block"),
    }[value]


def test_reports_of_more_than_26_blocks_have_no_pattern():
    """Patterns are labelled A..Z; a hit of 27 or more blocks is reported with "pattern": null."""
    report = verify_absence(ModularCountColouring(1, 1), 29, template_from_word("1" + "3" * 27), MixedSize(2))
    found = report.to_json_dict()["found"]
    assert len(found) == 493
    assert {entry["placement"]["pattern"] for entry in found} == {None}
    with pytest.raises(InvalidPlacement):
        pattern_of(report.found[0][0])
    placement = make_placement(26, [[c] for c in range(1, 27)], {}, MixedSize(1))
    assert placement.to_json_dict()["pattern"] == "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


BLOCK_SET_TEMPLATES = [template_from_word("12", m=2), T123, T1233, template_from_word("11")]


@pytest.mark.parametrize("t", BLOCK_SET_TEMPLATES, ids=str)
@pytest.mark.parametrize("sizemode", [EqualSize(1), EqualSize(2), MixedSize(1), MixedSize(2)], ids=str)
def test_block_sets_from_the_family_arrays_match_the_placement_walk(t, sizemode):
    """The witness search's constraints: one sorted row per distinct block set, rows in sorted order."""
    floor = t.s * sizemode.min_size
    for domain in [None, (1, 2), (3,)]:
        if domain and max(domain) > t.m:
            continue
        for n in range(floor, 8):
            placements = enumerate_placements(n, t, sizemode, None, domain)
            want = sorted({tuple(sorted({w.index for w in blockset_points(p, t)})) for p in placements})
            got = search._block_sets(n, t, sizemode, domain)
            assert got.dtype == np.min_scalar_type(t.m**n - 1) and list(map(tuple, got.tolist())) == want, (n, domain)
        with pytest.raises(AmbientTooSmall):
            search._block_sets(floor - 1, t, sizemode, domain)
        with pytest.raises(AmbientTooSmall):
            list(enumerate_placements(floor - 1, t, sizemode, None, domain))


@pytest.mark.parametrize("m, n, key", [(4, 8, np.uint16), (9, 6, np.uint32)])
def test_block_sets_take_the_narrowest_key_that_holds_every_index(m, n, key):
    """[4]^8 ends at index 65,535, the last that uint16 holds; [9]^6 needs uint32."""
    t = template_from_word("123", m=m)
    placements = enumerate_placements(n, t, EqualSize(1))
    want = sorted({tuple(sorted({w.index for w in blockset_points(p, t)})) for p in placements})
    got = search._block_sets(n, t, EqualSize(1), None)
    assert got.dtype == key and list(map(tuple, got.tolist())) == want


def test_witness_search_on_uint16_keys_matches_the_listing_loop():
    """At [4]^8 two colours run out of budget, and three find a witness on 46,620 points."""
    t = template_from_word("123", m=4)
    for k, budget in [(2, 1), (2, 2000), (3, 100), (3, 100_000)]:
        want = _witness_outcome(_reference_witness_ids, 8, t, EqualSize(1), k, budget)
        got = _witness_outcome(witness_search, 8, t, EqualSize(1), k, budget)
        if isinstance(got, TableColouring):
            assert isinstance(want, np.ndarray) and np.array_equal(got.ids, want), (k, budget)
        else:
            assert not isinstance(want, np.ndarray) and got == want == ("budget", budget + 1), (k, budget, got)
    assert isinstance(got, TableColouring)


def test_one_arrangement_template_has_no_witness():
    """Every block set of 11 is one point, monochromatic under any colouring."""
    t = template_from_word("11")
    assert search._block_sets(3, t, MixedSize(1), None).tolist() == [[0], [1], [2], [4]]  # the words with two 1s
    assert witness_search(3, t, MixedSize(1), k=5) is None
    with pytest.raises(AmbientTooSmall):
        witness_search(1, t, MixedSize(1), k=5)


def test_block_sets_past_the_entry_limit_are_refused_before_they_are_built():
    with pytest.raises(CapacityExceeded, match="the block sets at n=20"):
        witness_search(20, T123, MixedSize(2), k=2)
    # 59,280 placements, but a witness would colour all 3^40 words (past the packed int64 index)
    with pytest.raises(CapacityExceeded, match=r"a colouring of \[3\]\^40"):
        witness_search(40, T123, EqualSize(1), k=2, reference_domain=(3,))


def test_witness_search_does_not_import_numpy_ma():
    """`np.unique(..., axis=0)` would import numpy.ma, and with it several MB of resident memory."""
    code = (
        "import sys\n"
        "from blocksets.blocks import MixedSize, template_from_word\n"
        "from blocksets.search import witness_search\n"
        "assert witness_search(5, template_from_word('123'), MixedSize(1), k=4) is not None\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


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
    return table_colouring(entries, colours, "position-insensitive")


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


def test_extract_refuses_k_below_one():
    """k = 0 gives one branch colour, which no second can agree with: bad input, not a failed extraction."""
    homog = HomogeneousSet(4, 2, (1, 2, 3, 4), ((0,),))
    with pytest.raises(ValueError, match=r"^need k >= 1, got 0$"):
        extract_abccba(ConstantColouring(0, 1), 0, homog)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: HomogeneousSet(5, 2, (2, 1), 0), ValueError, "members must be sorted"),
        (lambda: HomogeneousSet(5, 2, (1, 1, 2), 0), ValueError, "members must be distinct: 1 repeats"),
        (lambda: HomogeneousSet(5, 3, (1, 2), 0), ValueError, "2 members but uniformity 3"),
        (lambda: placements_examined_until(
            4, T123, MixedSize(1), None, None, (make_placement(4, [[1], [2]], {3: 1, 4: 1}, MixedSize(1)), 0)
        ), ValueError, "hit placement not in the enumerated space"),
        (lambda: witness_search(3, T123, EqualSize(1), 0), ValueError, "need k >= 1, got 0"),
        (lambda: homogeneous_subset_search(SubsetColouring(5, 3, lambda subset: 0), 2), ValueError,
         "target 2 below uniformity 3"),
    ],
)
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
