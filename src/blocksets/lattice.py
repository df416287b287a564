"""Integer-lattice view of 12-words and l1-ball searches.

Words with a fixed number of 1s map to points of Z^t recording how the 1s
moved relative to a reference word.  On top of that sit exploratory searches
for monochromatic x-v, x, x+v progressions and for monochromatic translates
of l1 balls generated by disjointly-supported vectors, the progressions being
the radius-1 balls of one generator.  Colourings of Z^n are evaluated on arrays
of points, an explicit bounded box at a time, into a dense table; candidates
leaving the box are skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .colourings import Colouring
from .search import ExtractionContradiction, map_chunks
from .words import Word, check_entries

LatticePoint = tuple[int, ...]


class EncodingMismatch(ValueError):
    """Words cannot be compared coordinate-for-coordinate."""


class SupportOverlap(ValueError):
    """Generators are not disjointly supported."""


class InvalidGenerator(ValueError):
    """A generator vector is zero or malformed."""


def word_to_lattice(v: Word, w: Word) -> LatticePoint:
    """Displacement of the 1s of v relative to the 1s of the reference w.

    Both 1-position lists are sorted and matched monotonically; entry i is the
    offset of the i-th 1.  Requires equal lengths and equal 1-counts.
    """
    if v.n != w.n:
        raise EncodingMismatch(f"lengths differ: {v.n} vs {w.n}")
    v_ones = [i for i, s in enumerate(v.symbols, start=1) if s == 1]
    w_ones = [i for i, s in enumerate(w.symbols, start=1) if s == 1]
    if len(v_ones) != len(w_ones):
        raise EncodingMismatch(f"1-counts differ: {len(v_ones)} vs {len(w_ones)}")
    return tuple(c - a for c, a in zip(v_ones, w_ones))


def l1_norm(p: Sequence[int]) -> int:
    return sum(abs(x) for x in p)


@dataclass(frozen=True)
class GeneratorSet:
    """Disjointly-supported nonzero integer vectors in Z^n."""

    vectors: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise InvalidGenerator("need at least one generator")
        dims = {len(u) for u in self.vectors}
        if len(dims) != 1:
            raise InvalidGenerator(f"mixed ambient dimensions {sorted(dims)}")
        seen: set[int] = set()
        for u in self.vectors:
            support = {i for i, x in enumerate(u) if x != 0}
            if not support:
                raise InvalidGenerator(f"zero generator {u}")
            if support & seen:
                raise SupportOverlap(f"generator {u} shares support with an earlier one")
            seen |= support

    @property
    def t(self) -> int:
        return len(self.vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors[0])


def _lambda_tuples(t: int, r: int) -> Iterator[tuple[int, ...]]:
    """Integer tuples of length t with l1 norm at most r, in lexicographic order."""

    def rec(prefix: tuple[int, ...], left: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == t:
            yield prefix
            return
        for value in range(-left, left + 1):
            yield from rec(prefix + (value,), left - abs(value))

    yield from rec((), r)


def _combine(centre: Sequence[int], lambdas: Sequence[int], g: GeneratorSet) -> LatticePoint:
    point = list(centre)
    for coeff, u in zip(lambdas, g.vectors):
        if coeff:
            for i, x in enumerate(u):
                point[i] += coeff * x
    return tuple(point)


def l1_ball(g: GeneratorSet, r: int) -> set[LatticePoint]:
    """All integer combinations of the generators with coefficient l1 norm <= r.

    Disjoint supports make distinct coefficient tuples produce distinct
    points, so the ball size depends only on (t, r).
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    origin = (0,) * g.dimension
    return {_combine(origin, lambdas, g) for lambdas in _lambda_tuples(g.t, r)}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {lo_i, ..., hi_i}^n, bounds inclusive."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi have different dimensions")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box {self.lo}..{self.hi}")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def contains(self, p: Sequence[int]) -> bool:
        return all(l <= x <= h for x, l, h in zip(p, self.lo, self.hi))

    def points(self) -> Iterator[LatticePoint]:
        """All points in lexicographic order."""
        return itertools.product(*(range(l, l + side) for l, side in zip(self.lo, self.shape())))

    def shape(self) -> tuple[int, ...]:
        """Side lengths; every caller tabulates the box, so one past the table limit raises CapacityExceeded."""
        check_entries(f"the box {self}", self.size())
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def size(self) -> int:
        out = 1
        for l, h in zip(self.lo, self.hi):
            out *= h - l + 1
        return out

    def __str__(self) -> str:
        if len(set(self.lo)) == 1 and len(set(self.hi)) == 1:
            return f"{self.lo[0]}..{self.hi[0]}^{self.dimension}"
        return f"{self.lo}..{self.hi}"


def cube(lo: int, hi: int, dimension: int) -> Box:
    return Box((lo,) * dimension, (hi,) * dimension)


def parse_box(text: str) -> Box:
    """Parse the "lo..hi^n" syntax with n >= 1, e.g. "0..3^2" or "-2..2^3"."""
    try:
        bounds, _, dim = text.partition("^")
        lo_s, _, hi_s = bounds.partition("..")
        if int(dim) < 1:
            raise ValueError
        return cube(int(lo_s), int(hi_s), int(dim))
    except ValueError:
        raise ValueError(f"bad box spec {text!r} (expected lo..hi^n with n >= 1)") from None


class LatticeColouring:
    """Pure evaluable map Z^n point -> colour id; subclasses give the ids of int64 points of shape (..., n)."""

    name: str = "lattice"

    def colour_id(self, p: LatticePoint) -> int:
        return int(self.colour_ids(np.array(p, np.int64)))

    def colour_ids(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class CoordinateSumColouring(LatticeColouring):
    """0 iff the coordinate sum mod 2d lies in [0, d-1]; negative sums reduce into [0, 2d)."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"coordsum:d={self.d}"

    def colour_ids(self, points: np.ndarray) -> np.ndarray:
        return (points.sum(axis=-1) % (2 * self.d) >= self.d).astype(np.int64)


@dataclass(frozen=True, eq=False)  # an array field takes no part in == or hashing
class LatticeTableColouring(LatticeColouring):
    """Colouring of a box by a table: point p has colour ids[p - box.lo], `ids` shaped like the box."""

    box: Box
    ids: np.ndarray
    name: str = "lattice-table"

    def colour_ids(self, points: np.ndarray) -> np.ndarray:
        index = points - np.array(self.box.lo)
        if (index < 0).any() or (index >= self.ids.shape).any():
            raise KeyError(f"a point outside the box {self.box}")
        return self.ids[tuple(index[..., i] for i in range(self.box.dimension))]

    @property
    def entries(self) -> dict[LatticePoint, int]:
        """The points and their ids, in lexicographic order (built per call from `ids`)."""
        return dict(zip(self.box.points(), self.ids.ravel().tolist()))


def random_lattice_colouring(box: Box, k: int, seed: int) -> LatticeTableColouring:
    """Seeded uniform random k-colouring of a box."""
    if k < 1:
        raise ValueError(f"need k >= 1 colours, got {k}")
    ids = np.random.default_rng(seed).integers(0, k, size=box.shape())  # the shape refuses a box past the table limit
    return LatticeTableColouring(box, ids, f"random:k={k},seed={seed}")


def vectors_with_l1_norm(dimension: int, d: int) -> list[LatticePoint]:
    """All v in Z^dimension with l1 norm exactly d, in lexicographic order."""
    return [v for v in _lambda_tuples(dimension, d) if l1_norm(v) == d]


def disjoint_generator_sets(dimension: int, t: int, d: int) -> Iterator[GeneratorSet]:
    """Generator sets of t disjointly-supported norm-d vectors, canonical order.

    The vectors within a set are lexicographically increasing, and sets are
    enumerated in lexicographic order of their concatenation.
    """
    return _disjoint_sets(vectors_with_l1_norm(dimension, d), t)


def _disjoint_sets(candidates: list[LatticePoint], t: int) -> Iterator[GeneratorSet]:
    """The sets of t disjointly-supported candidates, in the order of `disjoint_generator_sets`."""
    supports = [sum(1 << i for i, x in enumerate(u) if x != 0) for u in candidates]  # one bit per nonzero coordinate

    def rec(chosen: tuple[LatticePoint, ...], used: int, start: int) -> Iterator[GeneratorSet]:
        if len(chosen) == t:
            yield GeneratorSet(chosen)
            return
        for idx in range(start, len(candidates)):
            if supports[idx] & used:
                continue
            yield from rec(chosen + (candidates[idx],), used | supports[idx], idx + 1)

    yield from rec((), 0, 0)


def _ball_scan(shared: tuple, _start: int, generator_sets: list) -> Optional[tuple[LatticePoint, GeneratorSet]]:
    """Least (centre, vectors) of a monochromatic ball among a chunk of generator sets.

    Every set fits the box, so its centres are a non-empty sub-box; a centre's
    ball is monochromatic where the table window at each offset equals the
    window at the first, and C order is lexicographic order.
    """
    table, lo, lambda_order = shared
    best = None
    for g in generator_sets:
        offsets = lambda_order @ np.array(g.vectors)
        first = -offsets.min(axis=0)
        stop = np.array(table.shape) - offsets.max(axis=0)
        windows = (table[tuple(slice(a + o, b + o) for a, b, o in zip(first, stop, off))] for off in offsets)
        base = next(windows)
        mono = np.ones(base.shape, dtype=bool)
        for window in windows:
            mono &= window == base
            if not mono.any():
                break
        if mono.any():
            index = np.unravel_index(mono.argmax(), mono.shape)  # the first True cell
            centre = tuple(int(i + a + l) for i, a, l in zip(index, first, lo))
            if best is None or (centre, g.vectors) < (best[0], best[1].vectors):
                best = (centre, g)
    return best


def search_generated_ball(
    colouring: LatticeColouring | Colouring, box: Box, r: int, t: int, d: int, workers: int = 1
) -> Optional[tuple[LatticePoint, GeneratorSet]]:
    """Canonically-first monochromatic translate of a generated l1 ball.

    Looks for a centre and t disjointly-supported vectors of 1-norm d whose
    radius-r generated ball, translated to the centre, stays inside the box
    and is monochromatic; the hit is the least (centre, vectors) pair.  If a
    set fits, `colour_ids` fills a dense table of the box one first-coordinate
    slice at a time, the sets are split across the workers, and the hit is
    re-checked against the colouring itself.
    """
    if r < 1 or t < 1 or d < 1:
        raise ValueError(f"need r, t, d >= 1, got r={r} t={t} d={d}")
    shape = box.shape()  # refuses a box past the table limit before any colour
    # On coordinate i a ball spans its centre ± r|u_i|, u the one vector nonzero there: a set fits iff each u does.
    candidates = vectors_with_l1_norm(box.dimension, d)
    fits = [u for u in candidates if all(2 * r * abs(x) <= h - l for x, l, h in zip(u, box.lo, box.hi))]
    generator_sets = list(_disjoint_sets(fits, t))
    if not generator_sets:
        return None
    points = np.empty((*shape[1:], box.dimension), np.int64)  # one first-coordinate slice of the box
    points[..., 1:] = np.moveaxis(np.indices(shape[1:]), 0, -1) + box.lo[1:]
    table = None
    for i in range(shape[0]):
        points[..., 0] = box.lo[0] + i
        ids = colouring.colour_ids(points)
        table = np.empty(shape, ids.dtype) if table is None else table  # int64, or object for ids past it
        table[i] = ids
    lambda_order = list(_lambda_tuples(t, r))
    hits = [h for h in map_chunks(_ball_scan, (table, box.lo, np.array(lambda_order)), generator_sets, workers) if h]
    if not hits:
        return None
    centre, g = min(hits, key=lambda h: (h[0], h[1].vectors))
    if g.t != t or any(l1_norm(u) != d for u in g.vectors):
        raise ExtractionContradiction(f"reported generators {g.vectors} are not {t} vectors of l1 norm {d}")
    ball = [_combine(centre, lambdas, g) for lambdas in lambda_order]
    if not all(box.contains(p) for p in ball) or len({colouring.colour_id(p) for p in ball}) != 1:
        raise ExtractionContradiction(f"ball at {centre} with generators {g.vectors} is not one colour in {box}")
    return centre, g


def search_l1_ap(
    colouring: LatticeColouring | Colouring, box: Box, d: int, workers: int = 1
) -> Optional[tuple[LatticePoint, LatticePoint]]:
    """Canonically-first (x, v) with ||v||_1 = d and x-v, x, x+v one colour.

    x runs over the box in lexicographic order, v over the norm-d vectors in
    lexicographic order; candidates with x-v or x+v outside the box are
    skipped.  Returns None on exhaustion.  This is the r = t = 1 generated-ball
    search, whose single-generator ball is x-v, x, x+v.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    hit = search_generated_ball(colouring, box, 1, 1, d, workers)
    return None if hit is None else (hit[0], hit[1].vectors[0])
