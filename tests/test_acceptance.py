"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 5 asserts a refutation.  The (3, 3) layered colouring keeps template
1233 free of monochromatic placements with blocks of size 1 for n <= 10, but
not with blocks of size <= 2: at n=9 the palindromic family
{1,9},{2,8},{3,7},{4,6} is monochromatic when coordinate 5 holds 1 or 2,
because the mirror symmetry gives every arrangement the same sum of
contributions.  The criterion requires the scan to report exactly the
monochromatic placements that an independent oracle finds (2 at n=9, 34 at
n=10), and to examine exactly as many placements.  The oracle copies the
colour rule from the docstring of `contribution_colour` and calls nothing in
blocksets, so a scan that loses, duplicates or invents a hit fails the
criterion.
"""

import collections
import itertools
import math
import os
import time

import numpy as np

from blocksets.blocks import (
    EqualSize,
    MixedSize,
    blockset_points,
    enumerate_placements,
    pattern_of,
    template_from_word,
)
from blocksets.colourings import (
    ContributionColouring,
    TableColouring,
    balanced_words,
    coordinate_sum_colour,
    flipped_block_word,
    random_table_colouring,
    slot_word_for,
    substitute,
)
from blocksets.lattice import (
    GeneratorSet,
    _lambda_tuples,
    cube,
    l1_ball,
    random_lattice_colouring,
    search_generated_ball,
    search_l1_ap,
)
from blocksets.search import (
    extract_abccba,
    find_monochromatic,
    homogeneous_subset_search,
    induced_subset_colouring,
    verify_absence,
    witness_search,
)
from blocksets.words import Word, all_words, encode_word, profile

T123 = template_from_word("123")
T12 = template_from_word("12", m=3)
T112 = template_from_word("112")
T1233 = template_from_word("1233")
T11223 = template_from_word("11223")

WORKERS = min(os.cpu_count() or 1, 8)


def check(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_blockset_cardinality():
    ok = True
    examined = 0
    for n, sizemode in [(5, EqualSize(1)), (5, MixedSize(1)), (6, MixedSize(2))]:
        for placement in enumerate_placements(n, T11223, sizemode):
            examined += 1
            if len(blockset_points(placement, T11223)) != 30:
                ok = False
    check(1, "every valid 5-block placement of 11223 yields exactly 30 points",
          ok and examined > 0, f"{examined} placements checked")


def test_criterion_2_substitution_exactness():
    got = str(substitute(encode_word("2322333222", 3), encode_word("121212", 2)))
    check(2, 'substitute("2322333222", "121212") = "1321333212" byte-exact',
          got == "1321333212", f"got {got}")


def test_criterion_3_balanced_family_and_flipped_words():
    sizes_ok = all(
        balanced_words(k).size == math.comb(2 * k + 2, k + 1) for k in range(0, 7)
    )
    z_ok = [str(flipped_block_word(i, 2)) for i in (1, 2, 3)] == ["211212", "122112", "121221"]
    check(3, "family sizes C(2k+2, k+1) for k <= 6 and the three k=2 flipped words",
          sizes_ok and z_ok)


def test_criterion_4_degree1_absence_up_to_n12():
    colouring = ContributionColouring(2, 2)
    t0 = time.perf_counter()
    total_found = 0
    examined = 0
    for n in range(3, 13):
        report = verify_absence(colouring, n, T123, MixedSize(1), workers=WORKERS)
        total_found += len(report.found)
        examined += report.examined
    elapsed = time.perf_counter() - t0
    check(4, "4-colour layered colouring admits no size-1 monochromatic 123 for n <= 12",
          total_found == 0 and elapsed < 60,
          f"{examined} placements, {elapsed:.1f}s, found {total_found}")


# Criterion 5 checks the scan against an oracle that calls nothing in
# blocksets: its colour rule is copied from the docstring of
# `contribution_colour`, and it enumerates block families and references itself.

_ORACLE_SYMBOLS = (1, 2, 3)
_ORACLE_ARRANGEMENTS = sorted(set(itertools.permutations((1, 2, 3, 3))))
_PALINDROME = ((1, 9), (2, 8), (3, 7), (4, 6))
# Placements of 1233 in [3]^n with blocks of size <= 2, and how many of them
# the (3, 3) colouring leaves monochromatic, for n = 4..10.
_CRITERION_5_EXAMINED = {4: 1, 5: 25, 6: 360, 7: 3885, 8: 34755, 9: 271593, 10: 1913625}
_CRITERION_5_HITS = {4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 2, 10: 34}
_CRITERION_5_PATTERNS_N10 = {"ABCDDCBA": 28, "AABCDDCB": 2, "ABBACDDC": 2, "ABCCBADD": 2}


def _oracle_colour(symbols):
    """(3, 3) contribution vector: each 1 adds e_a, a = #(1s and 2s before it) mod 3."""
    vec = [0, 0, 0]
    seen = 0
    for s in symbols:
        if s == 1:
            vec[seen % 3] = (vec[seen % 3] + 1) % 3
        if s in (1, 2):
            seen += 1
    return tuple(vec)


def _oracle_id(vec):
    # mixed-radix colour id, coordinate 0 least significant
    return vec[0] + 3 * vec[1] + 9 * vec[2]


def _oracle_points(n, blocks, reference):
    """The 12 words of a 1233 placement, as symbol tuples from coordinate 1."""
    words = []
    for arrangement in _ORACLE_ARRANGEMENTS:
        syms = dict(reference)
        for block, value in zip(blocks, arrangement):
            for coord in block:
                syms[coord] = value
        words.append(tuple(syms[c] for c in range(1, n + 1)))
    return words


def _oracle_pattern(blocks):
    owner = {coord: j for j, block in enumerate(blocks) for coord in block}
    labels = {}
    for coord in sorted(owner):
        if owner[coord] not in labels:
            labels[owner[coord]] = "ABCD"[len(labels)]
    return "".join(labels[owner[coord]] for coord in sorted(owner))


def _oracle_families(n):
    """Every set of 4 disjoint blocks of size 1 or 2, blocks by increasing minimum."""

    def extend(blocks, used):
        if len(blocks) == 4:
            yield blocks
            return
        for first in range(blocks[-1][0] + 1 if blocks else 1, n + 1):
            if first in used:
                continue
            yield from extend(blocks + ((first,),), used | {first})
            for second in range(first + 1, n + 1):
                if second not in used:
                    yield from extend(blocks + ((first, second),), used | {first, second})

    return extend((), frozenset())


def _oracle_scan(n):
    """Every 1233 placement in [3]^n with blocks of size 1 or 2.

    Returns the placements examined per largest block size and the
    monochromatic placements as (blocks, reference, colour id).
    """
    weight = {c: 3 ** (n - c) for c in range(1, n + 1)}  # coordinate 1 most significant
    table = np.array(
        [_oracle_id(_oracle_colour(w)) for w in itertools.product(_ORACLE_SYMBOLS, repeat=n)]
    )
    arrangements = np.array(_ORACLE_ARRANGEMENTS) - 1
    references = {
        k: np.array(list(itertools.product(_ORACLE_SYMBOLS, repeat=k)), dtype=np.int64)
        .reshape(3**k, k)
        for k in range(n - 3)
    }
    examined = {1: 0, 2: 0}
    hits = []
    for blocks in _oracle_families(n):
        rest = [c for c in range(1, n + 1) if not any(c in block for block in blocks)]
        refs = references[len(rest)]
        bases = (refs - 1) @ np.array([weight[c] for c in rest], dtype=np.int64)
        offsets = arrangements @ np.array([sum(weight[c] for c in block) for block in blocks])
        colours = table[bases[:, None] + offsets[None, :]]
        largest = max(len(block) for block in blocks)
        examined[largest] += len(refs)
        for row in np.nonzero((colours == colours[:, :1]).all(axis=1))[0]:
            reference = tuple(zip(rest, map(int, refs[row])))
            hits.append((blocks, reference, int(colours[row, 0])))
    return examined, hits


def test_criterion_5_generalization_p1_d2():
    colouring = ContributionColouring(3, 3)
    problems = []
    examined = 0
    hits_per_n = []
    elapsed = 0.0
    for n in range(4, 11):
        t0 = time.perf_counter()
        report = verify_absence(colouring, n, T1233, MixedSize(2), workers=WORKERS)
        size1 = verify_absence(colouring, n, T1233, MixedSize(1), workers=WORKERS)
        elapsed += time.perf_counter() - t0
        oracle_examined, oracle_hits = _oracle_scan(n)
        found = [(p.blocks, p.reference, c) for p, c in report.found]
        examined += report.examined
        hits_per_n.append(len(found))
        if not report.examined == sum(oracle_examined.values()) == _CRITERION_5_EXAMINED[n]:
            problems.append(f"n={n}: examined {report.examined}, oracle {oracle_examined}")
        if len(found) != len(oracle_hits) or set(found) != set(oracle_hits):
            problems.append(f"n={n}: found {len(found)} hits, oracle {len(oracle_hits)}, "
                            f"differing {sorted(set(found) ^ set(oracle_hits))[:2]}")
        if len(oracle_hits) != _CRITERION_5_HITS[n]:
            problems.append(f"n={n}: oracle has {len(oracle_hits)} hits")
        for blocks, reference, c in found:
            colours = {_oracle_id(_oracle_colour(w)) for w in _oracle_points(n, blocks, reference)}
            if colours != {c}:
                problems.append(f"n={n}: {blocks} {reference} has colours {colours}, reported {c}")
        if size1.found or size1.examined != oracle_examined[1]:
            problems.append(f"n={n}: size 1 found {len(size1.found)} in {size1.examined}")
        if n == 9:
            pinned = {
                (_PALINDROME, ((5, 1),), _oracle_id((1, 1, 1))),
                (_PALINDROME, ((5, 2),), _oracle_id((1, 1, 0))),
            }
            middle_3 = {_oracle_colour(w) for w in _oracle_points(9, _PALINDROME, ((5, 3),))}
            if set(found) != pinned or middle_3 != {(2, 0, 0), (0, 1, 1)}:
                problems.append(f"n=9: found {found}, middle 3 colours {middle_3}")
        if n == 10:
            patterns = collections.Counter(_oracle_pattern(blocks) for blocks, _, _ in found)
            if patterns != _CRITERION_5_PATTERNS_N10:
                problems.append(f"n=10: patterns {dict(patterns)}")
    detail = f"{examined} placements, {elapsed:.1f}s, hits for n=4..10 {hits_per_n}"
    if problems:
        detail += f"; {problems[0]}"
    check(5, "27-colour layered colouring: no size-1 monochromatic 1233 for n <= 10, "
          "and its size-<=2 hits are exactly an independent oracle's (palindromes from n=9)",
          not problems and elapsed < 600, detail)


def _position_insensitive_base(k, n, class_colours, colours):
    entries = {}
    for ones in itertools.combinations(range(n), k + 1):
        rest = [i for i in range(n) if i not in ones]
        for twos in itertools.combinations(rest, k + 1):
            syms = [3] * n
            for i in ones:
                syms[i] = 1
            for i in twos:
                syms[i] = 2
            entries[Word(tuple(syms), 3)] = class_colours[tuple(s for s in syms if s != 3)]
    return TableColouring(entries, colours, "worked-scenario")


def test_criterion_6_extraction_worked_scenario():
    k, n = 3, 10
    classes = {w.symbols: 1 for w in balanced_words(k).members}
    classes[flipped_block_word(1, k).symbols] = 0
    classes[flipped_block_word(2, k).symbols] = 0
    classes[flipped_block_word(3, k).symbols] = 1
    classes[flipped_block_word(4, k).symbols] = 2
    base = _position_insensitive_base(k, n, classes, 3)
    theta = induced_subset_colouring(base, k, n)
    homog = homogeneous_subset_search(theta, 2 * k + 4)
    placement, colour = extract_abccba(base, k, homog)
    points = {str(w) for w in blockset_points(placement, T123)}
    recoloured = {base.colour_id(w) for w in blockset_points(placement, T123)}
    ok = (
        homog is not None
        and placement.blocks == ((1, 6), (2, 5), (3, 4))
        and pattern_of(placement) == "ABCCBA"
        and "3211231212" in points
        and "1233211212" in points
        and recoloured == {colour}
    )
    check(6, "worked k=3 scenario extracts blocks {1,6},{2,5},{3,4} with one colour",
          ok, f"blocks {placement.blocks}, colour {colour}")


def test_criterion_7_substitution_bijection():
    t0 = time.perf_counter()
    ok = True
    for k, n in [(1, 6), (2, 8)]:
        fam = balanced_words(k)
        images = set()
        pairs = 0
        for positions in itertools.combinations(range(1, n + 1), 2 * k + 2):
            x = slot_word_for(positions, n)
            for w in fam.members:
                images.add(substitute(x, w))
                pairs += 1
        targets = {
            w for w in all_words(n, 3)
            if profile(w).counts[0] == k + 1 and profile(w).counts[1] == k + 1
        }
        if images != targets or pairs != len(targets):
            ok = False
    elapsed = time.perf_counter() - t0
    check(7, "substitution is a bijection onto balanced words at (k=1,n=6) and (k=2,n=8)",
          ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_8_coordinate_sum_obstruction():
    t0 = time.perf_counter()
    ok = True
    for d in (1, 2, 3):
        for x in itertools.product(range(2 * d), repeat=4):
            for support in itertools.combinations(range(4), d):
                moved = tuple(a + (1 if i in support else 0) for i, a in enumerate(x))
                if coordinate_sum_colour(x, d) == coordinate_sum_colour(moved, d):
                    ok = False
    elapsed = time.perf_counter() - t0
    check(8, "adding d unit coordinates always flips the coordinate-sum colour (d <= 3)",
          ok and elapsed < 5, f"{elapsed:.1f}s")


def test_criterion_9_l1_ball_counts():
    ok = len(l1_ball(GeneratorSet(((1, -1, 0),)), 1)) == 3
    ok = ok and len(l1_ball(GeneratorSet(((1, 0, 0), (0, 2, -1))), 2)) == 13
    shapes = {
        1: ((1, 0, 0),),
        2: ((1, 0, 0), (0, -2, 0)),
        3: ((1, 0, 0), (0, 1, 0), (0, 0, 2)),
    }
    for t, vectors in shapes.items():
        for r in range(0, 4):
            if len(l1_ball(GeneratorSet(vectors), r)) != len(set(_lambda_tuples(t, r))):
                ok = False
    check(9, "l1-ball sizes match coefficient-tuple enumeration (3 at t=r=1, 13 at t=r=2)", ok)


def test_criterion_10_oracles_and_determinism():
    t0 = time.perf_counter()
    ok = True

    def naive_find(colouring, n, t, sizemode):
        for p in enumerate_placements(n, t, sizemode):
            colours = {colouring.colour_id(w) for w in blockset_points(p, t)}
            if len(colours) == 1:
                return p, colours.pop()
        return None

    configs = [
        (4, T123, EqualSize(1), 3),
        (5, T123, MixedSize(1), 4),
        (5, T12, MixedSize(2), 2),
        (6, T123, MixedSize(2), 5),
        (6, T112, EqualSize(2), 3),
    ]
    for seed in range(50):
        n, t, sizemode, k = configs[seed % len(configs)]
        colouring = random_table_colouring(n, t.m, k, seed=seed)
        if find_monochromatic(colouring, n, t, sizemode) != naive_find(colouring, n, t, sizemode):
            ok = False

    # identical outputs for 1 vs 8 workers
    c22 = ContributionColouring(2, 2)
    r1 = verify_absence(c22, 8, T123, MixedSize(1), workers=1)
    r8 = verify_absence(c22, 8, T123, MixedSize(1), workers=8)
    d1, d8 = (dict(r.to_json_dict(), elapsed_ms=0.0) for r in (r1, r8))
    d1.pop("workers"), d8.pop("workers")
    if d1 != d8:
        ok = False
    table = random_table_colouring(5, 3, 2, seed=41)
    if find_monochromatic(table, 5, T123, MixedSize(1), workers=1) != find_monochromatic(
        table, 5, T123, MixedSize(1), workers=8
    ):
        ok = False
    box = cube(0, 3, 3)
    lat = random_lattice_colouring(box, 2, 13)
    if search_l1_ap(lat, box, 1, workers=1) != search_l1_ap(lat, box, 1, workers=8):
        ok = False
    if search_generated_ball(lat, box, 1, 1, 1, workers=1) != search_generated_ball(
        lat, box, 1, 1, 1, workers=8
    ):
        ok = False

    # witness search at n=3 vs the brute-force all-colourings oracle
    def oracle_witness_exists(n, t, sizemode, k):
        constraints = [
            sorted(w.index for w in blockset_points(p, t))
            for p in enumerate_placements(n, t, sizemode)
        ]
        involved = sorted({i for c in constraints for i in c})
        pos = {idx: i for i, idx in enumerate(involved)}
        return any(
            all(len({assignment[pos[i]] for i in c}) > 1 for c in constraints)
            for assignment in itertools.product(range(k), repeat=len(involved))
        )

    for k in (1, 2):
        got = witness_search(3, T123, MixedSize(1), k=k)
        if (got is not None) != oracle_witness_exists(3, T123, MixedSize(1), k):
            ok = False
        if got is not None and verify_absence(got, 3, T123, MixedSize(1)).found:
            ok = False

    elapsed = time.perf_counter() - t0
    check(10, "oracle agreement on 50 seeded tables, 1-vs-8-worker determinism, witness oracle",
          ok and elapsed < 120, f"{elapsed:.1f}s")
