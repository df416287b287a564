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
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .words import InvalidSymbol, Profile, Word, enumerate_with_profile, multinomial


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

    def word(self) -> Word:
        syms: list[int] = []
        for symbol, count in enumerate(self.counts, start=1):
            syms.extend([symbol] * count)
        return Word(tuple(syms), self.m)

    def arrangements(self) -> Iterator[tuple[int, ...]]:
        """Distinct permutations of the template letters, lexicographically."""
        for w in enumerate_with_profile(self.s, self.m, Profile(self.counts)):
            yield w.symbols

    def arrangement_count(self) -> int:
        return multinomial(self.counts)

    def __str__(self) -> str:
        return str(self.word())


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

    def allows(self, size: int) -> bool:
        return size == self.d

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

    def allows(self, size: int) -> bool:
        return 1 <= size <= self.d_max

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
            if not self.sizemode.allows(len(block)):
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

    @property
    def block_coordinates(self) -> tuple[int, ...]:
        return tuple(sorted(c for block in self.blocks for c in block))

    def reference_map(self) -> dict[int, int]:
        return dict(self.reference)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "blocks": [list(block) for block in self.blocks],
            "reference": {str(coord): str(symbol) for coord, symbol in self.reference},
            "pattern": pattern_of(self),
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

    Labels are assigned by first occurrence, so the first letter is always A.
    """
    if len(p.blocks) > 26:
        raise InvalidPlacement("patterns support at most 26 blocks")
    return _pattern_of_blocks(p.blocks)


def blockset_points(p: Placement, t: Template) -> set[Word]:
    """The words generated by a placement: one per arrangement of the template.

    Every word equals the reference off the blocks and is constant on each
    block; the block constants run over all distinct permutations of the
    template, so the result has multinomial(s; counts) points.
    """
    if len(p.blocks) != t.s:
        raise ArityMismatch(f"{len(p.blocks)} blocks for template of length {t.s}")
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


def _size_multisets(s: int, sizemode: SizeMode, n: int) -> list[tuple[int, ...]]:
    sizes = [
        combo
        for combo in itertools.combinations_with_replacement(sizemode.size_range(), s)
        if sum(combo) <= n
    ]
    sizes.sort()
    return sizes


def _families_for_sizes(n: int, sizes: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All unordered families of disjoint blocks with the given size multiset.

    Blocks of equal size are produced with increasing minimum elements, so each
    unordered family appears exactly once.
    """

    def rec(idx: int, available: tuple[int, ...], prev_min: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if idx == len(sizes):
            yield ()
            return
        size = sizes[idx]
        same_as_prev = idx > 0 and sizes[idx - 1] == size
        for block in itertools.combinations(available, size):
            if same_as_prev and block[0] < prev_min:
                continue
            rest = tuple(c for c in available if c not in block)
            for tail in rec(idx + 1, rest, block[0]):
                yield (block,) + tail

    yield from rec(0, tuple(range(1, n + 1)), 0)


def family_sort_key(blocks: Sequence[tuple[int, ...]]) -> tuple:
    """Deterministic enumeration key: blocks compared by (size, elements)."""
    return tuple(sorted((len(b), b) for b in blocks))


def enumerate_block_families(
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str] = None,
) -> list[tuple[tuple[int, ...], ...]]:
    """All block families for (n, template, size mode), in canonical order.

    Families are unordered; each is returned as a tuple of blocks sorted by
    minimum element.  The list order follows `family_sort_key`.
    """
    s = t.s
    if n < s * sizemode.min_size:
        raise AmbientTooSmall(
            f"n={n} cannot hold {s} disjoint blocks of size >= {sizemode.min_size}"
        )
    families = []
    for sizes in _size_multisets(s, sizemode, n):
        for family in _families_for_sizes(n, sizes):
            canon = tuple(sorted(family, key=lambda b: b[0]))
            families.append(canon)
    families.sort(key=family_sort_key)
    if pattern is not None:
        families = [fam for fam in families if _pattern_of_blocks(fam) == pattern]
    return families


def _pattern_of_blocks(blocks: tuple[tuple[int, ...], ...]) -> str:
    owner = {coord: j for j, block in enumerate(blocks) for coord in block}
    labels: dict[int, str] = {}
    out = []
    for coord in sorted(owner):
        j = owner[coord]
        if j not in labels:
            labels[j] = chr(ord("A") + len(labels))
        out.append(labels[j])
    return "".join(out)


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
