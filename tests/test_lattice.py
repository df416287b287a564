import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import lattice
from blocksets.colourings import ConstantColouring
from blocksets.lattice import (
    Box,
    CoordinateSumColouring,
    EncodingMismatch,
    GeneratorSet,
    InvalidGenerator,
    SupportOverlap,
    _combine,
    _lambda_tuples,
    cube,
    disjoint_generator_sets,
    l1_ball,
    l1_norm,
    parse_box,
    random_lattice_colouring,
    search_generated_ball,
    search_l1_ap,
    vectors_with_l1_norm,
    word_to_lattice,
)
from blocksets.search import ExtractionContradiction
from blocksets.words import CapacityExceeded
from blocksets.words import encode_word


def b2(text):
    return encode_word(text, 2)


# ---------------------------------------------------------------------------
# encoding and norms


def test_word_to_lattice_identity():
    w = b2("121212")
    assert word_to_lattice(w, w) == (0, 0, 0)


def test_word_to_lattice_single_step():
    # w has 1s at {1,3}, v at {1,4}
    assert word_to_lattice(b2("1221"), b2("1212")) == (0, 1)


def test_word_to_lattice_shift():
    # w has 1s at {1,3}, v at {3,5}
    assert word_to_lattice(b2("22121"), b2("12122")) == (2, 2)


def test_word_to_lattice_mismatch():
    with pytest.raises(EncodingMismatch):
        word_to_lattice(b2("11"), b2("12"))
    with pytest.raises(EncodingMismatch):
        word_to_lattice(b2("12"), b2("122"))


@given(st.integers(2, 8), st.data())
@settings(max_examples=50)
def test_word_to_lattice_antisymmetry(n, data):
    ones = data.draw(st.integers(1, n))
    pos_v = data.draw(st.permutations(range(1, n + 1)).map(lambda p: sorted(p[:ones])))
    pos_w = data.draw(st.permutations(range(1, n + 1)).map(lambda p: sorted(p[:ones])))

    def word(positions):
        return encode_word([1 if i in positions else 2 for i in range(1, n + 1)], 2)

    v, w = word(pos_v), word(pos_w)
    forward = word_to_lattice(v, w)
    backward = word_to_lattice(w, v)
    assert tuple(a + b for a, b in zip(forward, backward)) == (0,) * ones


def test_l1_norm():
    assert l1_norm(()) == 0
    assert l1_norm((0, 0, 0)) == 0
    assert l1_norm((1, -1, 0)) == 2
    assert l1_norm((2, 2)) == 4


# ---------------------------------------------------------------------------
# generated balls


def test_ball_single_generator_radius_one():
    u = (1, -1, 0)
    ball = l1_ball(GeneratorSet((u,)), 1)
    assert ball == {(0, 0, 0), u, (-1, 1, 0)}


def test_ball_two_generators_radius_two_has_13_points():
    g = GeneratorSet(((1, 0, 0), (0, 2, -1)))
    assert len(l1_ball(g, 2)) == 13


def test_ball_radius_zero_is_origin():
    g = GeneratorSet(((3, 0), (0, -2)))
    assert l1_ball(g, 0) == {(0, 0)}


def test_ball_size_depends_only_on_t_and_r():
    """Compare against direct coefficient-tuple enumeration for t, r <= 3."""
    shapes = {
        1: [((1, 0, 0, 0),), ((0, -2, 0, 0),), ((1, 1, 1, 0),)],
        2: [((1, 0, 0, 0), (0, 1, 0, 0)), ((2, 0, -1, 0), (0, 3, 0, 0))],
        3: [((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
            ((1, -1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 5))],
    }
    for t, generator_lists in shapes.items():
        for r in range(0, 4):
            expected = len(set(_lambda_tuples(t, r)))
            for vectors in generator_lists:
                assert len(l1_ball(GeneratorSet(vectors), r)) == expected


def test_ball_is_symmetric():
    g = GeneratorSet(((1, -2, 0), (0, 0, 3)))
    ball = l1_ball(g, 2)
    assert {tuple(-x for x in p) for p in ball} == ball


def test_generator_validation():
    with pytest.raises(SupportOverlap):
        GeneratorSet(((1, 0), (1, 1)))
    with pytest.raises(InvalidGenerator):
        GeneratorSet(((0, 0),))
    with pytest.raises(InvalidGenerator):
        GeneratorSet(())


# ---------------------------------------------------------------------------
# boxes


def test_parse_box():
    box = parse_box("0..3^2")
    assert box == cube(0, 3, 2)
    assert parse_box("-2..2^3") == cube(-2, 2, 3)
    with pytest.raises(ValueError):
        parse_box("nope")


@pytest.mark.parametrize("text", ["0..3^0", "0..3^-1", "-2..2^-3"])
def test_parse_box_rejects_dimension_below_1(text):
    with pytest.raises(ValueError, match="n >= 1"):
        parse_box(text)


class Unevaluable(lattice.LatticeColouring):
    def colour_ids(self, points):
        raise AssertionError("colour evaluated")


def test_box_past_the_table_limit_is_refused_before_any_colour():
    box = cube(0, 99, 9)
    message = r"^the box 0\.\.99\^9 needs 1,000,000,000,000,000,000 entries; the limit is 50,000,000$"
    with pytest.raises(CapacityExceeded, match=message):
        search_generated_ball(Unevaluable(), box, 1, 1, 1)
    with pytest.raises(CapacityExceeded):
        random_lattice_colouring(box, 2, 0)


@pytest.mark.parametrize("k", [0, -1])
def test_random_lattice_colouring_needs_one_colour_before_drawing(monkeypatch, k):
    def refuse(*args):
        raise AssertionError("colours were drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=f"^need k >= 1 colours, got {k}$"):
        random_lattice_colouring(cube(0, 3, 2), k, 0)


RANDOM_ENTRIES_DIGESTS = {  # random_lattice_colouring(cube(0, 5, 4), 2, seed): the benchmark ball op's oracle
    0: "3b562e27b9d76a0b9770a44a583a31acf6f07185eba23a826eb28e1097c7c67e",
    1: "ec9b28c8566561ac6bdf2d2b24e739f1b57390086dfb3a04f0cca3e5f533eebe",
    2: "21acaaa1c24bf99846ddf8e5d510c651d515e10d3b354c61621c759e516a88b9",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_ENTRIES_DIGESTS))
def test_random_lattice_colouring_entries_are_unchanged(seed):
    entries = sorted(random_lattice_colouring(cube(0, 5, 4), 2, seed).entries.items())
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == RANDOM_ENTRIES_DIGESTS[seed]


def test_random_lattice_colouring_has_no_colour_below_the_box():
    colouring = random_lattice_colouring(Box((0, 2), (3, 5)), 2, 0)
    for p in [(-1, 2), (0, 1), (-1, 1)]:
        with pytest.raises(KeyError):
            colouring.colour_id(p)


def test_box_points_are_lexicographic():
    pts = list(cube(0, 1, 2).points())
    assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_box_contains():
    box = Box((0, -1), (2, 1))
    assert box.contains((1, 0))
    assert not box.contains((3, 0))
    assert box.size() == 9


# ---------------------------------------------------------------------------
# progression search


def test_ap_constant_colouring_first_candidate():
    hit = search_l1_ap(ConstantColouring(), cube(0, 2, 2), 1)
    assert hit is not None
    x, v = hit
    assert l1_norm(v) == 1
    # canonical order: first x with all of x-v, x, x+v inside is (0, 1), v = (0, -1)
    assert hit == ((0, 1), (0, -1))


def test_ap_sum_invariant_direction_is_found():
    # vectors with coordinate sum 0 leave the sum colouring constant
    hit = search_l1_ap(CoordinateSumColouring(2), cube(0, 2, 3), 2)
    assert hit is not None
    x, v = hit
    assert sum(v) % 4 == 0


def test_ap_parity_colouring_has_no_hit():
    assert search_l1_ap(CoordinateSumColouring(1), cube(0, 3, 2), 1) is None


def test_ap_skips_candidates_leaving_the_box():
    # box too small to fit x-v and x+v for any v of norm 2
    assert search_l1_ap(ConstantColouring(), cube(0, 1, 1), 2) is None


@pytest.mark.parametrize("seed", range(8))
def test_ap_returned_pair_is_verified(seed):
    box = cube(0, 3, 2)
    colouring = random_lattice_colouring(box, 2, seed)
    hit = search_l1_ap(colouring, box, 1)
    if hit is not None:
        x, v = hit
        assert l1_norm(v) == 1
        cs = {colouring.colour_id(tuple(a + s * b for a, b in zip(x, v))) for s in (-1, 0, 1)}
        assert len(cs) == 1


def test_ap_coordinate_sum_consistency():
    """Matching colours constrain sum(v) mod 2d to a small centered window.

    The residue classes [0, d-1] and [d, 2d-1] each span d values, so s, s-t,
    s+t can share a class only when the centered representative of
    t = sum(v) mod 2d has absolute value at most (d-1)//2; for d <= 2 that
    means exactly t = 0.  A shift of d itself always flips the colour.
    """
    for d in (1, 2, 3):
        hit = search_l1_ap(CoordinateSumColouring(d), cube(0, 2 * d, 3), d)
        if hit is not None:
            t = sum(hit[1]) % (2 * d)
            centered = t if t <= d else t - 2 * d
            assert abs(centered) <= (d - 1) // 2
            assert t != d
    # d <= 2 instances do return hits and their v sums to 0 mod 2d
    hit = search_l1_ap(CoordinateSumColouring(2), cube(0, 4, 3), 2)
    assert hit is not None and sum(hit[1]) % 4 == 0


def test_random_ap_search_peaks_below_four_box_tables():
    """The colouring's ids and the search's table are one int64 array of the box each, with no per-point object."""
    box = cube(0, 20, 4)
    tracemalloc.start()
    try:
        search_l1_ap(random_lattice_colouring(box, 2, 0), box, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * np.dtype(np.int64).itemsize * box.size()


def test_ap_identical_across_worker_counts():
    box = cube(0, 3, 3)
    colouring = random_lattice_colouring(box, 2, 23)
    hits = [search_l1_ap(colouring, box, 2, workers=w) for w in (1, 2, 8)]
    assert hits[0] == hits[1] == hits[2]


# ---------------------------------------------------------------------------
# generated-ball search


def reference_ball_search(colouring, box, r, t, d):
    """Per-point scan: centres in lexicographic order, then generator sets in
    canonical order; the first ball inside the box with one colour wins."""
    generator_sets = list(disjoint_generator_sets(box.dimension, t, d))
    lambda_order = list(_lambda_tuples(t, r))
    for centre in box.points():
        for g in generator_sets:
            colour = None
            ok = True
            for lambdas in lambda_order:
                p = _combine(centre, lambdas, g)
                if not box.contains(p):
                    ok = False
                    break
                c = colouring.colour_id(p)
                if colour is None:
                    colour = c
                elif c != colour:
                    ok = False
                    break
            if ok:
                return centre, g
    return None


REFERENCE_BOXES = [cube(0, 3, 2), cube(0, 3, 3), Box((0, -1, 2), (4, 1, 4)), cube(-2, 1, 3), Box((-3,), (4,))]
# t = 4 exceeds every box dimension; at r = 3, d = 2 no ball fits in a side of 5 or less.
REFERENCE_RTD = [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 2, 2), (1, 4, 1), (3, 1, 2)]


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("box", REFERENCE_BOXES, ids=str)
def test_ball_search_matches_the_per_point_scan(box, workers):
    colourings = [random_lattice_colouring(box, k, seed) for seed, k in itertools.product(range(3), (2, 3))]
    colourings += [CoordinateSumColouring(1), CoordinateSumColouring(2), ConstantColouring()]
    if workers > 1:  # each multi-worker call forks a pool, so those runs take fewer colourings
        colourings = [colourings[0], colourings[-2]]
    for colouring in colourings:
        for r, t, d in REFERENCE_RTD:
            expected = reference_ball_search(colouring, box, r, t, d)
            assert search_generated_ball(colouring, box, r, t, d, workers) == expected
            if (r, t) == (1, 1):
                ap = search_l1_ap(colouring, box, d, workers)
                assert ap == (None if expected is None else (expected[0], expected[1].vectors[0]))


def test_ball_search_handles_colour_ids_past_int64():
    box = cube(0, 3, 3)
    assert search_generated_ball(ConstantColouring(2**70, 2**71), box, 1, 2, 1) == search_generated_ball(
        ConstantColouring(), box, 1, 2, 1
    )


def test_ball_search_constant_colouring():
    hit = search_generated_ball(ConstantColouring(), cube(0, 2, 2), 1, 1, 1)
    assert hit is not None
    centre, g = hit
    assert centre == (0, 1) and g.vectors == ((0, -1),)


def test_ball_search_reduces_to_ap_at_r1_t1():
    box = cube(0, 4, 3)
    for seed in range(20):
        colouring = random_lattice_colouring(box, 3, seed)
        ap = search_l1_ap(colouring, box, 1)
        ball = search_generated_ball(colouring, box, 1, 1, 1)
        if ap is None:
            assert ball is None
        else:
            assert ball is not None
            assert ball[0] == ap[0]
            assert ball[1].vectors == (ap[1],)


def test_ball_search_parity_odd_norm_has_no_hit():
    for d in (1, 3):
        assert search_generated_ball(CoordinateSumColouring(1), cube(0, 3, 3), 1, 1, d) is None


def test_ball_search_identical_across_worker_counts():
    box = cube(0, 3, 2)
    colouring = random_lattice_colouring(box, 2, 9)
    hits = [search_generated_ball(colouring, box, 1, 1, 1, workers=w) for w in (1, 2, 8)]
    assert hits[0] == hits[1] == hits[2]


@pytest.mark.parametrize(
    "colouring,x",
    [
        (CoordinateSumColouring(1), (1, 1)),  # x-v, x, x+v alternate in colour
        (ConstantColouring(), (0, 0)),  # x-v leaves the box
    ],
)
def test_lattice_hits_are_rechecked(monkeypatch, colouring, x):
    box = cube(0, 3, 2)
    v = (0, 1)
    monkeypatch.setattr(lattice, "_ball_scan", lambda shared, start, points: (x, GeneratorSet((v,))))
    with pytest.raises(ExtractionContradiction):
        search_l1_ap(colouring, box, 1)
    with pytest.raises(ExtractionContradiction):
        search_generated_ball(colouring, box, 1, 1, 1)


def test_generator_set_enumeration_is_canonical():
    sets = list(disjoint_generator_sets(2, 1, 1))
    assert [g.vectors for g in sets] == [((-1, 0),), ((0, -1),), ((0, 1),), ((1, 0),)]
    pair_sets = list(disjoint_generator_sets(2, 2, 1))
    for g in pair_sets:
        assert g.vectors[0] < g.vectors[1]


def _reference_generator_sets(dimension, t, d):
    """Oracle: the recursion that rebuilt each candidate's support set at every node."""
    candidates = vectors_with_l1_norm(dimension, d)

    def rec(chosen, used, start):
        if len(chosen) == t:
            yield GeneratorSet(chosen)
            return
        for idx in range(start, len(candidates)):
            u = candidates[idx]
            support = {i for i, x in enumerate(u) if x != 0}
            if support & used:
                continue
            yield from rec(chosen + (u,), used | support, idx + 1)

    yield from rec((), set(), 0)


@pytest.mark.parametrize("dimension", range(2, 6))
def test_generator_sets_match_the_support_set_recursion(dimension):
    for t, d in itertools.product(range(1, 4), range(1, 4)):
        want = list(_reference_generator_sets(dimension, t, d))
        assert list(disjoint_generator_sets(dimension, t, d)) == want, (t, d)


def _sets_passing_the_per_set_test(box, r, t, d):
    """Oracle: the generator sets whose ball offsets leave some centre inside the box (first < stop on every axis)."""
    lambda_order = np.array(list(_lambda_tuples(t, r)))
    shape = np.array([h - l + 1 for l, h in zip(box.lo, box.hi)])
    kept = []
    for g in disjoint_generator_sets(box.dimension, t, d):
        offsets = lambda_order @ np.array(g.vectors)
        if np.all(-offsets.min(axis=0) < shape - offsets.max(axis=0)):
            kept.append(g)
    return kept


def _scanned_sets(monkeypatch, colouring, box, r, t, d):
    """The search's hit and every generator set its scan received, in order."""
    scanned = []
    scan = lattice._ball_scan

    def recording_scan(shared, start, generator_sets):
        scanned.extend(generator_sets)
        return scan(shared, start, generator_sets)

    monkeypatch.setattr(lattice, "_ball_scan", recording_scan)
    return search_generated_ball(colouring, box, r, t, d), scanned


def test_ball_search_scans_exactly_the_sets_that_fit(monkeypatch):
    rng = np.random.default_rng(20)
    boxes = [Box((0, -1, 2), (4, 1, 4)), cube(0, 5, 4), cube(-2, 1, 3)]
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        lo = rng.integers(-2, 3, size=dim)
        boxes.append(Box(tuple(map(int, lo)), tuple(map(int, lo + rng.integers(0, 7, size=dim)))))
    partial = 0
    for box in boxes:
        colouring = random_lattice_colouring(box, 2, 0)
        for r, t, d in itertools.product((1, 2, 3), (1, 2), (1, 2, 3)):
            want = _sets_passing_the_per_set_test(box, r, t, d)
            assert _scanned_sets(monkeypatch, colouring, box, r, t, d)[1] == want, (box, r, t, d)
            partial += 0 < len(want) < len(list(disjoint_generator_sets(box.dimension, t, d)))
    assert partial > 0  # some cases drop part of the sets, not all or none


def test_benchmark_ball_scans_no_set(monkeypatch):
    """At r=2 in 0..5 every |u_i| <= 1, so a norm-3 vector needs 3 of the 4 coordinates and two never fit.

    With no set to scan, no colour is evaluated either.
    """
    hit, scanned = _scanned_sets(monkeypatch, Unevaluable(), cube(0, 5, 4), 2, 2, 3)
    assert hit is None and scanned == []


def test_vectors_with_l1_norm_examples():
    assert vectors_with_l1_norm(2, 1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    vs = vectors_with_l1_norm(3, 2)
    assert all(l1_norm(v) == 2 for v in vs)
    assert vs == sorted(vs)
    assert len(vs) == len(set(vs))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GeneratorSet(((1, 0), (0, 0, 1))), InvalidGenerator, "mixed ambient dimensions [2, 3]"),
        (lambda: l1_ball(GeneratorSet(((1,),)), -1), ValueError, "radius must be >= 0, got -1"),
        (lambda: Box((0,), (1, 1)), ValueError, "lo and hi have different dimensions"),
        (lambda: Box((2,), (1,)), ValueError, "empty box (2,)..(1,)"),
        (lambda: search_generated_ball(ConstantColouring(), cube(0, 3, 2), 0, 1, 1), ValueError,
         "need r, t, d >= 1, got r=0 t=1 d=1"),
        (lambda: search_l1_ap(ConstantColouring(), cube(0, 3, 2), 0), ValueError, "need d >= 1, got 0"),
    ],
)
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
