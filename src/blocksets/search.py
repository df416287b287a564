"""Monochromatic block-set searches over [m]^n.

Three kinds of question are answered at desk scale:

* does a colouring admit a monochromatic placement (find / verify-absence)?
* is there a k-colouring avoiding all monochromatic placements (witness)?
* given a colouring of r-subsets, find a homogeneous set and extract a
  monochromatic pattern-ABCCBA copy of template 123 from it.

All searches are deterministic: the placement space has a canonical order and
parallel runs merge worker results back into that order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence, TypeVar

import numpy as np

from .blocks import (
    EqualSize,
    Placement,
    SizeMode,
    Template,
    blockset_points,
    enumerate_block_families,
    enumerate_placements,
    make_placement,
    reference_symbols,
    template_from_word,
)
from .colourings import (
    Colouring,
    InducedColouring,
    TableColouring,
    flipped_block_word,
    slot_word_for,
    substitute,
)
from .words import CapacityExceeded, all_words

R = TypeVar("R")

# Largest colour table a scan builds (400 MB of int64): [3]^16 fits, [3]^17 not.
MAX_TABLE_ENTRIES = 50_000_000


class BudgetExceeded(RuntimeError):
    """Witness search ran out of nodes before reaching an answer."""

    def __init__(self, nodes: int):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes


class NotHomogeneous(ValueError):
    """The provided set is not homogeneous under the induced colouring."""


class ExtractionContradiction(RuntimeError):
    """Extraction failed its internal verification; indicates a bug or bad input."""


@dataclass
class SearchReport:
    """Outcome of a placement scan; identical for any worker count."""

    params: dict
    examined: int
    found: list[tuple[Placement, int]]
    elapsed_ms: float
    workers: int
    budget_exhausted: bool = False

    def to_json_dict(self, stable: bool = False) -> dict:
        return {
            "params": self.params,
            "examined": self.examined,
            "found": [
                {"placement": p.to_json_dict(), "colour": c} for p, c in self.found
            ],
            "elapsed_ms": 0.0 if stable else round(self.elapsed_ms, 3),
            "workers": self.workers,
            "budget_exhausted": self.budget_exhausted,
        }


@dataclass(frozen=True)
class HomogeneousSet:
    """A subset whose r-subsets all share one colour."""

    n: int
    r: int
    members: tuple[int, ...]
    colour: Hashable

    def __post_init__(self) -> None:
        if tuple(sorted(self.members)) != self.members:
            raise ValueError("members must be sorted")
        if len(self.members) < self.r:
            raise ValueError(f"{len(self.members)} members but uniformity {self.r}")


# ---------------------------------------------------------------------------
# placement scanning


def map_chunks(fn: Callable[[tuple, int, list], R], shared: tuple, items: list, workers: int) -> list[R]:
    """fn(shared, start, items[start:start + size]) over `workers` contiguous chunks.

    Results come back in chunk order, so a caller that concatenates them sees
    the items' own order whatever the worker count.  Several chunks run in
    forked worker processes, serially when processes cannot be started.
    """
    size = max(1, -(-len(items) // max(workers, 1)))
    starts = range(0, len(items), size)
    args = ([shared] * len(starts), starts, [items[i : i + size] for i in starts])
    if len(starts) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                return list(pool.map(fn, *args))
        except OSError:
            pass
    return list(map(fn, *args))


def _scan_chunk(shared: tuple, start: int, families: list) -> tuple[int, list[tuple[int, int, int]]]:
    """Scan a contiguous chunk of block families through the colour table.

    Returns (placements examined, hits) where each hit is
    (global family index, reference index, colour id), in canonical order.
    In first-only mode the chunk stops at its first hit.
    """
    colouring, n, t, symbols, first_only = shared
    m = t.m
    table = colouring.dense_table(n, m)
    arrangements = list(t.arrangements())
    examined = 0
    hits: list[tuple[int, int, int]] = []
    for offset, family in enumerate(families):
        in_blocks = {c for block in family for c in block}
        complement = [c for c in range(1, n + 1) if c not in in_blocks]
        block_weights = [sum(m ** (c - 1) for c in block) for block in family]
        deltas = [
            sum((v - 1) * bw for v, bw in zip(arr, block_weights))
            for arr in arrangements
        ]
        examined += len(symbols) ** len(complement)
        bases = np.zeros(1, dtype=np.int64)
        for coord in complement:
            offsets = np.array(
                [(s - 1) * m ** (coord - 1) for s in symbols], dtype=np.int64
            )
            bases = (bases[:, None] + offsets[None, :]).ravel()
        first = table[bases + deltas[0]]
        ok = np.ones(len(bases), dtype=bool)
        for delta in deltas[1:]:
            ok &= table[bases + delta] == first
            if not ok.any():
                break
        for ref_idx in np.nonzero(ok)[0]:
            hits.append((start + offset, int(ref_idx), int(first[ref_idx])))
            if first_only:
                return examined, hits
    return examined, hits


def _placement_from_hit(
    n: int,
    sizemode: SizeMode,
    family: tuple[tuple[int, ...], ...],
    ref_idx: int,
    symbols: tuple[int, ...],
) -> Placement:
    in_blocks = {c for block in family for c in block}
    complement = [c for c in range(1, n + 1) if c not in in_blocks]
    digits = []
    rem = ref_idx
    for _ in complement:
        digits.append(rem % len(symbols))
        rem //= len(symbols)
    digits.reverse()  # reference index counts with the first coordinate most significant
    reference = tuple((coord, symbols[d]) for coord, d in zip(complement, digits))
    return Placement(n, family, reference, sizemode)


def _verify_hit(p: Placement, t: Template, colouring: Colouring, colour: int) -> None:
    for w in blockset_points(p, t):
        got = colouring.colour_id(w)
        if got != colour:
            raise ExtractionContradiction(
                f"reported placement is not monochromatic: {w} has colour {got}, expected {colour}"
            )


def _scan(
    colouring: Colouring,
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str],
    reference_domain: Optional[Sequence[int]],
    workers: int,
    first_only: bool,
) -> tuple[int, list[tuple[Placement, int]]]:
    """Placements examined and the monochromatic ones, each re-verified.

    The scan evaluates every placement through one dense colour table of
    [m]^n, so tables too large to build are refused before any work starts.
    In first-only mode only the canonically first hit is kept.
    """
    if t.m**n > MAX_TABLE_ENTRIES or colouring.colour_count > 2**62:
        raise CapacityExceeded(
            f"a scan of [{t.m}]^{n} needs {t.m**n:,} colour-table entries holding "
            f"{(colouring.colour_count - 1).bit_length()}-bit colour ids; "
            f"the limits are {MAX_TABLE_ENTRIES:,} entries and 62-bit ids"
        )
    symbols = reference_symbols(t, reference_domain)
    families = enumerate_block_families(n, t, sizemode, pattern)
    examined = 0
    hits: list[tuple[int, int, int]] = []
    for chunk_examined, chunk_hits in map_chunks(
        _scan_chunk, (colouring, n, t, symbols, first_only), families, workers
    ):
        examined += chunk_examined
        hits.extend(chunk_hits)  # chunks arrive in order, so hits stay canonical
    found = []
    for family_idx, ref_idx, colour in hits[:1] if first_only else hits:
        placement = _placement_from_hit(n, sizemode, families[family_idx], ref_idx, symbols)
        _verify_hit(placement, t, colouring, colour)
        found.append((placement, colour))
    return examined, found


def find_monochromatic(
    colouring: Colouring,
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str] = None,
    reference_domain: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> Optional[tuple[Placement, int]]:
    """Canonically-first monochromatic placement, or None after exhaustion.

    The per-placement check short-circuits on the first colour mismatch; the
    result is independent of the worker count.
    """
    _, found = _scan(colouring, n, t, sizemode, pattern, reference_domain, workers, True)
    return found[0] if found else None


def placements_examined_until(
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str],
    reference_domain: Optional[Sequence[int]],
    hit: Optional[tuple[Placement, int]],
) -> int:
    """Placements scanned, in canonical order, up to and including a hit.

    With hit=None this is the full placement count for the parameters.
    """
    symbols = reference_symbols(t, reference_domain)
    families = enumerate_block_families(n, t, sizemode, pattern)
    total = 0
    for family in families:
        block_size = sum(len(b) for b in family)
        ref_count = len(symbols) ** (n - block_size)
        if hit is not None and family == hit[0].blocks:
            ref_word = tuple(sym for _, sym in hit[0].reference)
            rank = 0
            for sym in ref_word:
                rank = rank * len(symbols) + symbols.index(sym)
            return total + rank + 1
        total += ref_count
    if hit is not None:
        raise ValueError("hit placement not in the enumerated space")
    return total


def verify_absence(
    colouring: Colouring,
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str] = None,
    reference_domain: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> SearchReport:
    """Examine every placement and report all monochromatic ones.

    For the adversarial colourings the expected found-list is empty; a
    non-empty list is re-verified point by point before being reported.
    """
    t0 = time.perf_counter()
    examined, found = _scan(colouring, n, t, sizemode, pattern, reference_domain, workers, False)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return SearchReport(
        params={
            "op": "verify_absence",
            "colouring": colouring.name,
            "n": n,
            "template": str(t),
            "sizemode": str(sizemode),
            "pattern": pattern,
            "reference_domain": list(reference_domain) if reference_domain else None,
        },
        examined=examined,
        found=found,
        elapsed_ms=elapsed,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# witness search


def witness_search(
    n: int,
    t: Template,
    sizemode: SizeMode,
    k: int,
    budget: int = 1_000_000,
    reference_domain: Optional[Sequence[int]] = None,
) -> Optional[TableColouring]:
    """Backtracking search for a k-colouring of [m]^n with no monochromatic placement.

    Returns a full table colouring (a witness), or None when the search space
    is exhausted (no witness exists).  Raises BudgetExceeded when the node
    limit is hit first; that outcome is never conflated with proven-None.

    Propagation: when all but one point of some placement already share a
    colour, that colour is removed from the last point's domain.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    m = t.m
    constraint_sets: set[frozenset[int]] = set()
    for p in enumerate_placements(n, t, sizemode, None, reference_domain):
        constraint_sets.add(frozenset(w.index for w in blockset_points(p, t)))
    if any(len(c) <= 1 for c in constraint_sets):
        return None  # a one-point block set is monochromatic under every colouring
    constraints = sorted(tuple(sorted(c)) for c in constraint_sets)
    constrained = sorted({idx for c in constraints for idx in c})

    full_mask = (1 << k) - 1
    domain = {idx: full_mask for idx in constrained}
    colour: dict[int, int] = {}
    nodes = 0

    def propagate(trail: list[tuple[int, int]]) -> bool:
        """Propagate almost-complete placements; record domain removals for undo."""
        changed = True
        while changed:
            changed = False
            for c in constraints:
                unassigned = [idx for idx in c if idx not in colour]
                if len(unassigned) > 1:
                    continue
                assigned_colours = {colour[idx] for idx in c if idx in colour}
                if len(assigned_colours) != 1:
                    continue
                (mono,) = assigned_colours
                if not unassigned:
                    return False
                idx = unassigned[0]
                bit = 1 << mono
                if domain[idx] & bit:
                    domain[idx] &= ~bit
                    trail.append((idx, bit))
                    if domain[idx] == 0:
                        return False
                    changed = True
        return True

    def solve(pos: int) -> bool:
        nonlocal nodes
        if pos == len(constrained):
            return True
        idx = constrained[pos]
        for c in range(k):
            if not domain[idx] & (1 << c):
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            colour[idx] = c
            trail: list[tuple[int, int]] = []
            if propagate(trail) and solve(pos + 1):
                return True
            del colour[idx]
            for widx, bit in trail:
                domain[widx] |= bit
        return False

    if not solve(0):
        return None
    entries = {
        w: colour.get(w.index, 0) for w in all_words(n, m)
    }
    witness = TableColouring(entries, k, f"witness:n={n},t={t},k={k}")
    check = find_monochromatic(witness, n, t, sizemode, None, reference_domain)
    if check is not None:
        raise ExtractionContradiction("witness failed its own absence check")
    return witness


# ---------------------------------------------------------------------------
# homogeneous sets and extraction


class SubsetColouring:
    """Colouring of the r-subsets of [n], evaluated through a pure callable."""

    def __init__(
        self,
        n: int,
        r: int,
        fn: Callable[[tuple[int, ...]], Hashable],
        name: str = "subsets",
    ):
        self.n = n
        self.r = r
        self.fn = fn
        self.name = name

    def colour(self, subset: Sequence[int]) -> Hashable:
        return self.fn(tuple(sorted(subset)))


def induced_subset_colouring(base: Colouring, k: int, n: int) -> SubsetColouring:
    """View the induced colouring as a colouring of (2k+2)-subsets of [n].

    The subset marks the slot positions; the colour is the induced tuple of
    base colours over the balanced family.
    """
    ind = InducedColouring(base, k)

    def fn(subset: tuple[int, ...]) -> Hashable:
        return ind.colour_tuple(slot_word_for(subset, n))

    return SubsetColouring(n, 2 * k + 2, fn, name=ind.name)


def homogeneous_subset_search(
    theta: SubsetColouring, target: int
) -> Optional[HomogeneousSet]:
    """First target-size subset (in lexicographic order) whose r-subsets share a colour."""
    if target < theta.r:
        raise ValueError(f"target {target} below uniformity {theta.r}")
    cache: dict[tuple[int, ...], Hashable] = {}

    def colour_of(subset: tuple[int, ...]) -> Hashable:
        if subset not in cache:
            cache[subset] = theta.colour(subset)
        return cache[subset]

    for candidate in itertools.combinations(range(1, theta.n + 1), target):
        subsets = itertools.combinations(candidate, theta.r)
        first = colour_of(next(subsets))
        if all(colour_of(sub) == first for sub in subsets):
            return HomogeneousSet(theta.n, theta.r, candidate, first)
    return None


def extract_abccba(
    base: Colouring, k: int, homog: HomogeneousSet
) -> tuple[Placement, int]:
    """Extract a monochromatic pattern-ABCCBA copy of template 123.

    Given a (2k+4)-set that is homogeneous for the induced colouring, place 2s
    on its first 2k+2 positions, evaluate the base colour of each
    flipped-block substitution, and pick the first pair i < j with equal
    colour (one must exist with k base colours, by pigeonhole).  The blocks
    are the S-relative pairs {2i-1, 2j+2}, {2i, 2j+1}, {2i+1, 2j}; the
    remaining in-set positions carry alternating 1,2 letters and everything
    outside the set is 3.  All six generated points are re-evaluated before
    returning.
    """
    if len(homog.members) != 2 * k + 4 or homog.r != 2 * k + 2:
        raise ValueError(
            f"need a homogeneous set of size {2 * k + 4} with uniformity {2 * k + 2}"
        )
    ind = InducedColouring(base, k)
    n = homog.n
    for subset in itertools.combinations(homog.members, homog.r):
        c = ind.colour_tuple(slot_word_for(subset, n))
        if c != homog.colour:
            raise NotHomogeneous(
                f"subset {subset} has colour {c}, recorded colour {homog.colour}"
            )

    s_list = list(homog.members)
    x = slot_word_for(s_list[: 2 * k + 2], n)
    branch_colours = [
        base.colour_id(substitute(x, flipped_block_word(i, k))) for i in range(1, k + 2)
    ]
    pair = next(
        (
            (i, j)
            for i in range(1, k + 2)
            for j in range(i + 1, k + 2)
            if branch_colours[i - 1] == branch_colours[j - 1]
        ),
        None,
    )
    if pair is None:
        raise ExtractionContradiction(
            f"no two of the {k + 1} branch colours agree: {branch_colours}"
        )
    i, j = pair

    def coord(rel: int) -> int:
        return s_list[rel - 1]

    blocks = [
        (coord(2 * i - 1), coord(2 * j + 2)),
        (coord(2 * i), coord(2 * j + 1)),
        (coord(2 * i + 1), coord(2 * j)),
    ]
    used_rel = {2 * i - 1, 2 * i, 2 * i + 1, 2 * j, 2 * j + 1, 2 * j + 2}
    remaining_rel = [p for p in range(1, 2 * k + 5) if p not in used_rel]
    reference: dict[int, int] = {}
    for pos, rel in enumerate(remaining_rel):
        reference[coord(rel)] = 1 if pos % 2 == 0 else 2
    in_set = set(homog.members)
    block_coords = {c for b in blocks for c in b}
    for c in range(1, n + 1):
        if c not in in_set and c not in block_coords:
            reference[c] = 3

    placement = make_placement(n, blocks, reference, EqualSize(2))
    t123 = template_from_word("123")
    expected = branch_colours[i - 1]
    for w in blockset_points(placement, t123):
        got = base.colour_id(w)
        if got != expected:
            raise ExtractionContradiction(
                f"point {w} has colour {got}, expected {expected}"
            )
    return placement, expected
