"""Integer-lattice view of 12-words and l1-ball searches.

Words with a fixed number of 1s map to points of Z^t recording how the 1s
moved relative to a reference word.  On top of that sit exploratory searches
for monochromatic x-v, x, x+v progressions and for monochromatic translates
of l1 balls generated by disjointly-supported vectors.  Colourings of Z^n are
evaluated on explicit bounded boxes; candidates leaving the box are skipped.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .colourings import coordinate_sum_colour
from .search import ExtractionContradiction, map_chunks
from .words import Word

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
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        yield from itertools.product(*ranges)

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
    """Parse the "lo..hi^n" syntax, e.g. "0..3^2" or "-2..2^3"."""
    try:
        bounds, _, dim = text.partition("^")
        lo_s, _, hi_s = bounds.partition("..")
        return cube(int(lo_s), int(hi_s), int(dim))
    except ValueError:
        raise ValueError(f"bad box spec {text!r} (expected lo..hi^n)") from None


class LatticeColouring:
    """Pure evaluable map Z^n point -> colour id (evaluated on boxes only)."""

    name: str = "lattice"
    colour_count: int = 1

    def colour_id(self, p: LatticePoint) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class CoordinateSumColouring(LatticeColouring):
    """0 iff the coordinate sum mod 2d lies in [0, d-1]."""

    d: int

    @property
    def colour_count(self) -> int:  # type: ignore[override]
        return 2

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"coordsum:d={self.d}"

    def colour_id(self, p: LatticePoint) -> int:
        return coordinate_sum_colour(p, self.d)


@dataclass(frozen=True)
class ConstantLatticeColouring(LatticeColouring):
    value: int = 0
    colours: int = 1

    @property
    def colour_count(self) -> int:  # type: ignore[override]
        return self.colours

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"constant:{self.value}"

    def colour_id(self, p: LatticePoint) -> int:
        return self.value


@dataclass(frozen=True)
class LatticeTableColouring(LatticeColouring):
    """Explicit point -> colour table (seeded-random tables in practice)."""

    entries: tuple[tuple[LatticePoint, int], ...]
    colours: int
    label: str = "lattice-table"

    @property
    def colour_count(self) -> int:  # type: ignore[override]
        return self.colours

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.label

    @functools.cached_property
    def _lookup(self) -> dict[LatticePoint, int]:
        return dict(self.entries)

    def colour_id(self, p: LatticePoint) -> int:
        return self._lookup[tuple(p)]


def random_lattice_colouring(box: Box, k: int, seed: int) -> LatticeTableColouring:
    """Seeded uniform random k-colouring of a box."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = list(box.points())
    ids = rng.integers(0, k, size=len(pts))
    return LatticeTableColouring(
        tuple((p, int(c)) for p, c in zip(pts, ids)),
        k,
        f"random:k={k},seed={seed}",
    )


def vectors_with_l1_norm(dimension: int, d: int) -> list[LatticePoint]:
    """All v in Z^dimension with l1 norm exactly d, in lexicographic order."""
    out = [v for v in _lambda_tuples(dimension, d) if l1_norm(v) == d]
    out.sort()
    return out


def _ap_scan(shared: tuple, start: int, points: list) -> Optional[tuple[LatticePoint, LatticePoint]]:
    colouring, box, directions = shared
    for x in points:
        cx = colouring.colour_id(x)
        for v in directions:
            minus = tuple(a - b for a, b in zip(x, v))
            plus = tuple(a + b for a, b in zip(x, v))
            if not (box.contains(minus) and box.contains(plus)):
                continue
            if colouring.colour_id(minus) == cx == colouring.colour_id(plus):
                return x, v
    return None


def _ball_scan(shared: tuple, start: int, points: list) -> Optional[tuple[LatticePoint, GeneratorSet]]:
    colouring, box, generator_sets, lambda_order = shared
    for centre in points:
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


def _check_monochromatic(colouring: LatticeColouring, box: Box, points: Sequence[LatticePoint], what: str) -> None:
    """Independent re-check of a reported hit: all points in the box, one colour."""
    if not all(box.contains(p) for p in points) or len({colouring.colour_id(p) for p in points}) != 1:
        raise ExtractionContradiction(f"reported {what} is not a monochromatic set inside {box}")


def search_l1_ap(
    colouring: LatticeColouring,
    box: Box,
    d: int,
    workers: int = 1,
) -> Optional[tuple[LatticePoint, LatticePoint]]:
    """Canonically-first (x, v) with ||v||_1 = d and x-v, x, x+v one colour.

    x runs over the box in lexicographic order, v over the norm-d vectors in
    lexicographic order; candidates with x-v or x+v outside the box are
    skipped.  Returns None on exhaustion.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    directions = vectors_with_l1_norm(box.dimension, d)
    hits = map_chunks(_ap_scan, (colouring, box, directions), list(box.points()), workers)
    hit = next((h for h in hits if h is not None), None)  # the earliest chunk's hit
    if hit is not None:
        x, v = hit
        if l1_norm(v) != d:
            raise ExtractionContradiction(f"reported direction {v} does not have l1 norm {d}")
        minus = tuple(a - b for a, b in zip(x, v))
        plus = tuple(a + b for a, b in zip(x, v))
        _check_monochromatic(colouring, box, (minus, x, plus), f"progression x={x}, v={v}")
    return hit


def disjoint_generator_sets(dimension: int, t: int, d: int) -> Iterator[GeneratorSet]:
    """Generator sets of t disjointly-supported norm-d vectors, canonical order.

    The vectors within a set are lexicographically increasing, and sets are
    enumerated in lexicographic order of their concatenation.
    """
    candidates = vectors_with_l1_norm(dimension, d)

    def rec(chosen: tuple[LatticePoint, ...], used: set[int], start: int) -> Iterator[GeneratorSet]:
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


def search_generated_ball(
    colouring: LatticeColouring,
    box: Box,
    r: int,
    t: int,
    d: int,
    workers: int = 1,
) -> Optional[tuple[LatticePoint, GeneratorSet]]:
    """Canonically-first monochromatic translate of a generated l1 ball.

    Looks for a centre and t disjointly-supported vectors of 1-norm d whose
    radius-r generated ball, translated to the centre, stays inside the box
    and is monochromatic.  With r = t = 1 this asks exactly the x-v, x, x+v
    question and agrees with search_l1_ap.
    """
    if r < 1 or t < 1 or d < 1:
        raise ValueError(f"need r, t, d >= 1, got r={r} t={t} d={d}")
    generator_sets = list(disjoint_generator_sets(box.dimension, t, d))
    lambda_order = list(_lambda_tuples(t, r))
    hits = map_chunks(_ball_scan, (colouring, box, generator_sets, lambda_order), list(box.points()), workers)
    hit = next((h for h in hits if h is not None), None)  # the earliest chunk's hit
    if hit is not None:
        centre, g = hit
        if g.t != t or any(l1_norm(u) != d for u in g.vectors):
            raise ExtractionContradiction(f"reported generators {g.vectors} are not {t} vectors of l1 norm {d}")
        ball = [_combine(centre, lambdas, g) for lambdas in lambda_order]
        _check_monochromatic(colouring, box, ball, f"ball at {centre} with generators {g.vectors}")
    return hit
