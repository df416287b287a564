"""Templates and block-set placements inside [m]^n.

A template is a non-decreasing word (equivalently a multiplicity vector).  A
placement picks pairwise disjoint coordinate blocks, one per template letter
counted with multiplicity, plus a fixed reference symbol for every coordinate
outside the blocks.  The generated point set ("block set") consists of every
word that is constant on each block, agrees with the reference elsewhere, and
whose block constants form a permutation of the template.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .words import CapacityExceeded, InvalidSymbol, Profile, Word, enumerate_with_profile


class EmptyTemplate(ValueError):
    """Template with no letters."""


class ArityMismatch(ValueError):
    """Block count differs from the template length."""


class AmbientTooSmall(ValueError):
    """Not enough coordinates to place the requested blocks."""


class InvalidPlacement(ValueError):
    """Blocks or reference violate the placement invariants."""


@dataclass(frozen=True)
class Template:
    """Multiset of symbols over [m], canonically a non-decreasing word."""

    m: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.m:
            raise InvalidSymbol(f"{len(self.counts)} counts for alphabet of size {self.m}")
        if any(c < 0 for c in self.counts):
            raise EmptyTemplate(f"negative multiplicity in {self.counts}")
        if sum(self.counts) == 0:
            raise EmptyTemplate("template needs at least one letter")

    @property
    def s(self) -> int:
        """Template length (number of blocks a placement must provide)."""
        return sum(self.counts)

    @cached_property
    def _arrangements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(w.symbols for w in enumerate_with_profile(self.s, self.m, Profile(self.counts)))

    def arrangements(self) -> Iterator[tuple[int, ...]]:
        """Distinct permutations of the template letters, lexicographically."""
        return iter(self._arrangements)

    def __str__(self) -> str:
        return "".join(str(symbol) * count for symbol, count in enumerate(self.counts, start=1))


def template_from_counts(m: int, counts: Sequence[int]) -> Template:
    """Template with counts[i] copies of symbol i+1."""
    return Template(m, tuple(counts))


def template_from_word(text: str, m: Optional[int] = None) -> Template:
    """Template from its canonical word, e.g. "11223"."""
    symbols = [int(ch) for ch in text]
    if not symbols:
        raise EmptyTemplate("template needs at least one letter")
    if any(s < 1 for s in symbols):
        raise InvalidSymbol(f"bad template word {text!r}")
    if symbols != sorted(symbols):
        raise InvalidSymbol(f"template word {text!r} is not non-decreasing")
    if m is None:
        m = max(max(symbols), 2)
    counts = [0] * m
    for s in symbols:
        counts[s - 1] += 1
    return Template(m, tuple(counts))


@dataclass(frozen=True)
class EqualSize:
    """All blocks have exactly size d."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidPlacement(f"block size must be >= 1, got {self.d}")

    @property
    def min_size(self) -> int:
        return self.d

    def size_range(self) -> range:
        return range(self.d, self.d + 1)

    def __str__(self) -> str:
        return f"equal:{self.d}"


@dataclass(frozen=True)
class MixedSize:
    """Blocks have any size between 1 and d_max."""

    d_max: int

    def __post_init__(self) -> None:
        if self.d_max < 1:
            raise InvalidPlacement(f"maximum block size must be >= 1, got {self.d_max}")

    @property
    def min_size(self) -> int:
        return 1

    def size_range(self) -> range:
        return range(1, self.d_max + 1)

    def __str__(self) -> str:
        return f"mixed:{self.d_max}"


SizeMode = EqualSize | MixedSize


def parse_sizemode(text: str) -> SizeMode:
    """Parse "equal:2" or "mixed:2"."""
    kind, _, value = text.partition(":")
    if not value.isdigit():
        raise InvalidPlacement(f"bad size mode {text!r}")
    if kind == "equal":
        return EqualSize(int(value))
    if kind == "mixed":
        return MixedSize(int(value))
    raise InvalidPlacement(f"bad size mode {text!r} (expected equal:<d> or mixed:<d>)")


@dataclass(frozen=True)
class Placement:
    """Disjoint blocks plus a reference assignment on the remaining coordinates.

    Blocks are stored sorted by minimum element, which is a canonical form for
    an unordered family of disjoint sets; two placements are equal exactly when
    they have the same block family and reference.  `reference` maps each
    coordinate outside the blocks to its fixed symbol.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    reference: tuple[tuple[int, int], ...]
    sizemode: SizeMode

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise InvalidPlacement("empty block")
            if tuple(sorted(block)) != block:
                raise InvalidPlacement(f"block {block} not sorted")
            if len(block) not in self.sizemode.size_range():
                raise InvalidPlacement(f"block {block} violates size mode {self.sizemode}")
            for coord in block:
                if not 1 <= coord <= self.n:
                    raise InvalidPlacement(f"coordinate {coord} outside [1, {self.n}]")
                if coord in seen:
                    raise InvalidPlacement(f"coordinate {coord} in two blocks")
                seen.add(coord)
        mins = [block[0] for block in self.blocks]
        if mins != sorted(mins):
            raise InvalidPlacement("blocks not sorted by minimum element")
        ref_coords = {coord for coord, _ in self.reference}
        expected = set(range(1, self.n + 1)) - seen
        if ref_coords != expected:
            raise InvalidPlacement("reference does not cover exactly the non-block coordinates")
        if tuple(sorted(self.reference)) != self.reference:
            raise InvalidPlacement("reference not sorted by coordinate")
        for _, symbol in self.reference:
            if symbol < 1:
                raise InvalidSymbol(f"reference symbol {symbol} < 1")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "blocks": [list(block) for block in self.blocks],
            "reference": {str(coord): str(symbol) for coord, symbol in self.reference},
            "pattern": pattern_of(self) if len(self.blocks) <= 26 else None,  # labels run out past Z
        }


def make_placement(
    n: int,
    blocks: Sequence[Sequence[int]],
    reference: Mapping[int, int] | Sequence[tuple[int, int]],
    sizemode: SizeMode,
) -> Placement:
    """Canonicalize raw blocks/reference into a Placement."""
    canon_blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    items = reference.items() if isinstance(reference, Mapping) else reference
    canon_ref = tuple(sorted((int(c), int(s)) for c, s in items))
    return Placement(n, canon_blocks, canon_ref, sizemode)


def pattern_of(p: Placement) -> str:
    """Block membership along the sorted block coordinates, labelled A, B, C, ...

    Labels are assigned by first occurrence, so the first letter is always A:
    the blocks are sorted by minimum, so block j is letter j.
    """
    if len(p.blocks) > 26:
        raise InvalidPlacement("patterns support at most 26 blocks")
    owner = {coord: j for j, block in enumerate(p.blocks) for coord in block}
    return "".join(chr(ord("A") + owner[coord]) for coord in sorted(owner))


def blockset_points(p: Placement, t: Template) -> set[Word]:
    """The words generated by a placement: one per arrangement of the template.

    Every word equals the reference off the blocks and is constant on each
    block; the block constants run over all distinct permutations of the
    template, so the result has multinomial(s; counts) points.  Each point is
    gathered from the reference symbols followed by the arrangement's
    letters, through one map of each coordinate to its entry there.
    """
    if len(p.blocks) != t.s:
        raise ArityMismatch(f"{len(p.blocks)} blocks for template of length {t.s}")
    m, reference = t.m, p.reference
    source = [0] * p.n
    for i, (coord, symbol) in enumerate(reference):
        if symbol > m:
            raise InvalidSymbol(f"reference symbol {symbol} outside [1, {m}]")
        source[coord - 1] = i
    for j, block in enumerate(p.blocks, len(reference)):
        for coord in block:
            source[coord - 1] = j
    symbols = tuple([symbol for _, symbol in reference])
    pick = operator.itemgetter(*source) if p.n > 1 else tuple  # at n = 1 the one entry is the point
    return {Word(pick(symbols + arrangement), m) for arrangement in t.arrangements()}


def family_sort_key(blocks: Sequence[tuple[int, ...]]) -> tuple:
    """Deterministic enumeration key: blocks compared by (size, elements)."""
    return tuple(sorted((len(b), b) for b in blocks))


# Working-set budget of the family enumeration, in (prefix, candidate block)
# pairs tested at once; its temporaries stay within a small multiple of it.
FAMILY_BATCH = 1 << 16


class BlockFamilies(NamedTuple):
    """Block families as arrays, in canonical order: see `block_families`."""

    blocks: tuple[tuple[int, ...], ...]
    ids: np.ndarray
    masks: np.ndarray
    totals: np.ndarray
    bits: np.ndarray  # each block's coordinate mask


def block_families(n: int, t: Template, sizemode: SizeMode, pattern: Optional[str] = None) -> BlockFamilies:
    """Every block family of (n, template, size mode) as arrays, in canonical order.

    Candidate blocks are numbered in (size, elements) order; `blocks[i]` is
    block i.  Row f of `ids` is family f as a strictly increasing row of
    pairwise disjoint block ids, so lexicographic row order is
    `family_sort_key` order.  `masks[f]` has bit c-1 set for each coordinate
    c in the family's blocks (`bits[i]`: block i's), and `totals[f]` counts them.

    Rows grow one block at a time: a prefix's children append a larger id
    whose block misses the prefix's coordinates and leaves room for the
    blocks still to come, none of them smaller.  Prefixes are expanded depth
    first, in batches of at most FAMILY_BATCH (prefix, block) pairs, so rows
    come out sorted and the candidate arrays stay small.  With a pattern, only
    the families whose `pattern_of` it is are kept.
    """
    s = t.s
    if n < s * sizemode.min_size:
        raise AmbientTooSmall(f"n={n} cannot hold {s} disjoint blocks of size >= {sizemode.min_size}")
    blocks = candidate_blocks(n, sizemode)
    size = np.array([len(b) for b in blocks], np.int64)
    bits = block_weights(blocks, 2)
    above = np.array([(1 << n) - (1 << b[0]) for b in blocks], np.int64)  # coordinates past each minimum
    dtype = np.min_scalar_type(len(blocks))
    step = max(1, FAMILY_BATCH // len(blocks))
    out = []

    def expand(ids: np.ndarray, masks: np.ndarray, totals: np.ndarray) -> None:
        rest = s - ids.shape[1]
        if not rest:
            out.append((ids, masks, totals))
            return
        for lo in range(0, len(ids), step):
            p_ids, p_masks, p_totals = ids[lo : lo + step], masks[lo : lo + step], totals[lo : lo + step]
            first = int(p_ids[:, -1].min()) + 1 if p_ids.shape[1] else 0
            fits = (p_masks[:, None] & bits[first:]) == 0
            fits &= p_totals[:, None] + rest * size[first:] <= n
            if p_ids.shape[1]:
                fits &= p_ids[:, -1:] < np.arange(first, len(blocks))
            row, col = np.nonzero(fits)
            col += first
            c_masks, c_totals, c_size = p_masks[row] | bits[col], p_totals[row] + size[col], size[col]
            # later blocks of the child's size lie above its minimum; each other one is larger
            same = np.where(c_size == size[-1], rest - 1, np.maximum(0, (rest - 1) * (c_size + 1) + c_totals - n))
            live = same * c_size <= np.bitwise_count(above[col] & ~c_masks)
            expand(np.column_stack([p_ids[row], col.astype(dtype)])[live], c_masks[live], c_totals[live])

    expand(np.zeros((1, 0), dtype), np.zeros(1, np.int64), np.zeros(1, np.int64))
    ids, masks, totals = (np.concatenate(column) for column in zip(*out))
    if pattern is not None:
        keep = totals == len(pattern)
        ids, masks, totals = ids[keep], masks[keep], totals[keep]
        labels = block_labels(bits, ids, n)
        want = [ord(ch) - ord("A") + 1 for ch in pattern]
        keep = (labels[labels > 0].reshape(len(ids), len(pattern)) == want).all(axis=1)
        ids, masks, totals = ids[keep], masks[keep], totals[keep]
    return BlockFamilies(blocks, ids, masks, totals, bits)


def candidate_blocks(n: int, sizemode: SizeMode) -> tuple[tuple[int, ...], ...]:
    """Every block of [n] the size mode allows, in (size, elements) order: the block ids of `block_families`."""
    if n > 62:
        raise CapacityExceeded(f"block families are enumerated for n <= 62, got n={n}")
    return tuple(b for d in sizemode.size_range() for b in itertools.combinations(range(1, n + 1), d))


def block_weights(blocks: Sequence[tuple[int, ...]], base: int) -> np.ndarray:
    """Each block's weight, the sum of base^(c-1) over its coordinates c: its coordinate mask for base 2.

    A word's packed index is the sum of (symbol - 1) * m^(c-1), so a placement's
    point is its reference's index plus each block's letter less one times its base-m weight.
    """
    return np.array([sum(base ** (c - 1) for c in block) for block in blocks], np.int64)


def block_labels(bits: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Each family's coordinates of [n] labelled by block, in first-occurrence order.

    Row f holds, on each coordinate of a block of family f (`ids` rows index
    `bits`, the blocks' coordinate masks), 1 + the rank of that block's
    minimum, its lowest bit, among the family's minima, and 0 on the other
    coordinates: the letters of `pattern_of`, counted from 1.
    """
    masks = bits[ids]
    rank = np.argsort(np.argsort(masks & -masks, axis=1), axis=1).astype(np.int8)
    member = (bits[:, None] >> np.arange(n) & 1).astype(np.int8)
    return sum((rank[:, j, None] + 1) * member[ids[:, j]] for j in range(ids.shape[1]))


def placement_count(n: int, t: Template, sizemode: SizeMode, symbols: int) -> int:
    """Number of placements with `symbols` reference symbols and no pattern.

    P(N, k), the partitions of N coordinates into k blocks of allowed sizes,
    counts by the block of the first coordinate: P(N, k) = sum over sizes r
    of C(N-1, r-1) P(N-r, k-1).  A family of s blocks over N coordinates of
    [n] picks those coordinates, and has symbols^(n-N) references.
    """
    if n < t.s * sizemode.min_size:
        raise AmbientTooSmall(f"n={n} cannot hold {t.s} disjoint blocks of size >= {sizemode.min_size}")
    partitions, sizes = [1] + [0] * n, sizemode.size_range()  # P(N, 0)
    for _ in range(t.s):
        partitions = [sum(math.comb(N - 1, r - 1) * partitions[N - r] for r in sizes if r <= N) for N in range(n + 1)]
    return sum(math.comb(n, N) * partitions[N] * symbols ** (n - N) for N in range(n + 1))


def enumerate_block_families(
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str] = None,
) -> list[tuple[tuple[int, ...], ...]]:
    """All block families for (n, template, size mode), in canonical order.

    A decode of `block_families`: each family is a tuple of blocks sorted by
    minimum element, and the list order follows `family_sort_key`.
    """
    blocks, ids, *_ = block_families(n, t, sizemode, pattern)
    return [tuple(sorted(blocks[i] for i in row)) for row in ids.tolist()]


def reference_symbols(t: Template, reference_domain: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    if reference_domain is None:
        return tuple(range(1, t.m + 1))
    symbols = tuple(sorted(set(reference_domain)))
    for s in symbols:
        if not 1 <= s <= t.m:
            raise InvalidSymbol(f"reference symbol {s} outside [1, {t.m}]")
    if not symbols:
        raise InvalidSymbol("empty reference domain")
    return symbols


def enumerate_placements(
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str] = None,
    reference_domain: Optional[Sequence[int]] = None,
) -> Iterator[Placement]:
    """Every distinct placement exactly once, in canonical order.

    Block families follow `family_sort_key`; within a family, references are
    enumerated in lexicographic word order over the non-block coordinates.
    """
    symbols = reference_symbols(t, reference_domain)
    for family in enumerate_block_families(n, t, sizemode, pattern):
        in_blocks = {c for block in family for c in block}
        complement = [c for c in range(1, n + 1) if c not in in_blocks]
        for ref_values in itertools.product(symbols, repeat=len(complement)):
            reference = tuple(zip(complement, ref_values))
            yield Placement(n, family, reference, sizemode)
