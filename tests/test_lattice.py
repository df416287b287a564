import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import lattice
from blocksets.lattice import (
    Box,
    ConstantLatticeColouring,
    CoordinateSumColouring,
    EncodingMismatch,
    GeneratorSet,
    InvalidGenerator,
    SupportOverlap,
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
    hit = search_l1_ap(ConstantLatticeColouring(), cube(0, 2, 2), 1)
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
    assert search_l1_ap(ConstantLatticeColouring(), cube(0, 1, 1), 2) is None


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


def test_ap_identical_across_worker_counts():
    box = cube(0, 3, 3)
    colouring = random_lattice_colouring(box, 2, 23)
    hits = [search_l1_ap(colouring, box, 2, workers=w) for w in (1, 2, 8)]
    assert hits[0] == hits[1] == hits[2]


# ---------------------------------------------------------------------------
# generated-ball search


def test_ball_search_constant_colouring():
    hit = search_generated_ball(ConstantLatticeColouring(), cube(0, 2, 2), 1, 1, 1)
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
        (ConstantLatticeColouring(), (0, 0)),  # x-v leaves the box
    ],
)
def test_lattice_hits_are_rechecked(monkeypatch, colouring, x):
    box = cube(0, 3, 2)
    v = (0, 1)
    monkeypatch.setattr(lattice, "_ap_scan", lambda shared, start, points: (x, v))
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


def test_vectors_with_l1_norm_examples():
    assert vectors_with_l1_norm(2, 1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    vs = vectors_with_l1_norm(3, 2)
    assert all(l1_norm(v) == 2 for v in vs)
    assert vs == sorted(vs)
    assert len(vs) == len(set(vs))
