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

import functools
import itertools
import math
import multiprocessing
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from .blocks import (
    AmbientTooSmall,
    EqualSize,
    Placement,
    SizeMode,
    Template,
    block_families,
    block_labels,
    block_weights,
    blockset_points,
    candidate_blocks,
    enumerate_block_families,
    make_placement,
    placement_count,
    reference_symbols,
    template_from_word,
)
from .colourings import (
    Colouring,
    ContributionColouring,
    InducedColouring,
    TableColouring,
    alphabet_base,
    flipped_block_word,
    id_to_vector,
    slot_word_for,
    substitute,
)
from .words import CapacityExceeded, InvalidSymbol, Word, check_entries

R = TypeVar("R")

# Working-set budget of one scan slab, in int64 entries: each family counts
# its placements, its block weights and its row of the coordinate mask.
# The scan's temporaries stay within a small multiple of it.
SLAB_ENTRIES = 1 << 14

# Hits handled at a time when they are re-checked, decoded or written; a
# batch's arrays, lists and text stay small next to the hit arrays themselves.
DECODE_BATCH = 1 << 10


class BudgetExceeded(RuntimeError):
    """Witness search ran out of nodes before reaching an answer."""

    def __init__(self, nodes: int):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes


class NotHomogeneous(ValueError):
    """The provided set is not homogeneous under the induced colouring."""


class ExtractionContradiction(RuntimeError):
    """Extraction failed its internal verification; indicates a bug or bad input."""


class Run(NamedTuple):
    """Consecutive hits of one block family, as `Found.runs` yields them.

    `rows` holds one list per hit: its colour id in column 0, letter c of its
    label word in column c (the reference symbol for c in `free`), and for a
    vector-valued colouring the digits of its colour vector from column n + 1.
    """

    blocks: tuple[tuple[int, ...], ...]  # as `Placement.blocks`
    pattern: Optional[str]  # as `Placement.to_json_dict` reports it
    free: tuple[int, ...]  # the coordinates outside the blocks, ascending
    rows: list[list[int]]


class Found(Sequence):
    """A scan's hits as arrays: the label words at n, in canonical order, and their colour ids.

    A label word holds m + j on the coordinates of block j, the blocks
    numbered from 1 by minimum, and its reference symbol on every other
    coordinate, so the hits of one block family are consecutive.  `len` reads
    the arrays; reading an entry decodes every hit, once, to its
    (Placement, colour id) pair, with the constructor's checks made once per
    run of one block family (`decode`).  The CLI writes its reports from the
    arrays (`runs`), with no `Placement` per hit.
    """

    def __init__(
        self, n: int, m: int, sizemode: SizeMode, words: np.ndarray, colours: np.ndarray, colouring: Colouring
    ) -> None:
        self.n, self.m, self.sizemode, self.words, self.colours = n, m, sizemode, words, colours
        self.colouring = colouring  # a vector-valued one reports each id's vector too
        self._entries: Optional[list[tuple[Placement, int]]] = None

    def __len__(self) -> int:
        return len(self.colours)

    def __getitem__(self, index):
        return self.entries()[index]

    def __iter__(self) -> Iterator[tuple[Placement, int]]:
        return iter(self.entries())

    def __eq__(self, other) -> bool:
        if isinstance(other, Found):
            other = other.entries()
        return self.entries() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"Found({len(self)} hits at n={self.n})"

    def entries(self) -> list[tuple[Placement, int]]:
        """Every hit as its (Placement, colour id) pair, decoded on the first call."""
        if self._entries is None:
            self._entries = self.decode(0, len(self))
        return self._entries

    def decode(self, lo: int, hi: int) -> list[tuple[Placement, int]]:
        """Hits lo..hi-1 as (Placement, colour id) pairs.

        The hits of a run share its blocks and free coordinates, so the
        `Placement` constructor checks them once, on the run's first hit, and
        each hit of the run has only its own reference symbols checked (at
        least 1; a label word's letters above m are block labels).  The
        placements of a run share its `blocks` tuple, and their references
        one (coordinate, symbol) pair per coordinate and symbol.
        """
        n, sizemode, setfield = self.n, self.sizemode, object.__setattr__
        pairs = [{s: (c, s) for s in range(1, self.m + 1)} for c in range(n + 1)]
        out = []
        for run in self.runs(lo, hi):
            blocks, free, rows = run.blocks, run.free, run.rows
            pick = operator.itemgetter(*free) if len(free) > 1 else lambda row: tuple([row[c] for c in free])
            Placement(n, blocks, tuple(zip(free, pick(rows[0]))), sizemode)  # raises unless the run's blocks are valid
            shared = [pairs[c] for c in free]
            for row in rows:
                symbols = pick(row)
                try:
                    reference = tuple(map(dict.__getitem__, shared, symbols))
                except KeyError:
                    raise InvalidSymbol(f"reference symbol {next(s for s in symbols if s < 1)} < 1") from None
                placement = object.__new__(Placement)  # the fields the constructor sets, with its checks made above
                setfield(placement, "n", n)
                setfield(placement, "blocks", blocks)
                setfield(placement, "reference", reference)
                setfield(placement, "sizemode", sizemode)
                out.append((placement, row[0]))
        return out

    def runs(self, lo: int = 0, hi: Optional[int] = None) -> Iterator[Run]:
        """Hits lo..hi-1 cut into runs of one block family, DECODE_BATCH hits at most each.

        A run's blocks and pattern are read off its first label word: block j
        holds the coordinates labelled m + j, and the pattern spells the
        labels along the block coordinates, A for block 1 (`pattern_of`).
        """
        n, m = self.n, self.m
        hi = len(self) if hi is None else hi
        for start in range(lo, hi, DECODE_BATCH):
            batch = slice(start, min(hi, start + DECODE_BATCH))
            words, colours = self.words[batch], self.colours[batch]
            columns = [colours[:, None], words]
            if isinstance(self.colouring, ContributionColouring):  # digit a of an id is coordinate a of its vector
                mod = self.colouring.modulus
                columns.append(colours[:, None] // mod ** np.arange(self.colouring.length) % mod)
            rows = np.column_stack(columns).tolist()
            labels = np.where(words > m, words, 0)
            cuts = (np.flatnonzero((labels[1:] != labels[:-1]).any(axis=1)) + 1).tolist()
            for a, b in zip([0] + cuts, cuts + [len(rows)]):
                word = rows[a][1 : n + 1]
                blocks: list[list[int]] = [[] for _ in range(max(word) - m)]
                free = []
                for c, letter in enumerate(word, 1):
                    (blocks[letter - m - 1] if letter > m else free).append(c)
                pattern = "".join([chr(ord("A") - 1 - m + letter) for letter in word if letter > m])
                yield Run(tuple(map(tuple, blocks)), pattern if len(blocks) <= 26 else None, tuple(free), rows[a:b])


@dataclass
class SearchReport:
    """Outcome of a placement scan; identical for any worker count."""

    params: dict
    examined: int
    found: Found
    elapsed_ms: float
    workers: int
    budget_exhausted: bool = False

    def to_json_dict(self, entries: bool = True) -> dict:
        """The report as JSON values, with one dict per hit in its found list.

        A hit's dict holds its decoded placement (`Placement.to_json_dict`),
        its colour id and, for a contribution colouring, its colour vector.
        With entries=False the found list is the `Found` arrays themselves,
        which `cli.emit_report` writes as those dicts would be written.
        """
        found: Found | list[dict] = self.found
        if entries:
            colouring = self.found.colouring
            found = [{"placement": p.to_json_dict(), "colour": c} for p, c in self.found]
            if isinstance(colouring, ContributionColouring):
                for entry in found:
                    entry["vector"] = list(id_to_vector(entry["colour"], colouring.modulus, colouring.length))
        return {
            "params": self.params,
            "examined": self.examined,
            "found": found,
            "elapsed_ms": round(self.elapsed_ms, 3),
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
        for a, b in zip(self.members, self.members[1:]):
            if a == b:
                raise ValueError(f"members must be distinct: {a} repeats")
            if a > b:
                raise ValueError("members must be sorted")
        if len(self.members) < self.r:
            raise ValueError(f"{len(self.members)} members but uniformity {self.r}")


# ---------------------------------------------------------------------------
# placement scanning


_chunk_job: tuple = ()  # (fn, shared) of the pool a forked worker belongs to


def _set_chunk_job(fn: Callable, shared: tuple) -> None:
    global _chunk_job
    _chunk_job = (fn, shared)


def _run_chunk(start: int, items: list):
    fn, shared = _chunk_job
    return fn(shared, start, items)


def map_chunks(fn: Callable[[tuple, int, list], R], shared: tuple, items: list, workers: int) -> list[R]:
    """fn(shared, start, items[start:start + size]) over `workers` contiguous chunks.

    Results come back in chunk order, so a caller that concatenates them sees
    the items' own order whatever the worker count.  Several chunks run in
    forked worker processes, serially when processes cannot be started.  The
    pool has no more processes than chunks or CPUs, since it starts them all
    at once.  The workers inherit fn and shared through the fork; only chunks
    and results are pickled.
    """
    size = max(1, -(-len(items) // max(workers, 1)))
    starts = range(0, len(items), size)
    chunks = [items[i : i + size] for i in starts]
    if len(starts) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
            processes = min(len(chunks), os.cpu_count() or 1)
            with ProcessPoolExecutor(processes, ctx, initializer=_set_chunk_job, initargs=(fn, shared)) as pool:
                return list(pool.map(_run_chunk, starts, chunks))
        except OSError:
            pass
    return [fn(shared, start, chunk) for start, chunk in zip(starts, chunks)]


def _slabs(parts: Iterable[np.ndarray]) -> list[list[tuple[int, int, int]]]:
    """The rows of every part in turn, each part an array of their costs, cut into slabs of about SLAB_ENTRIES.

    A slab is a list of (part, lo, hi) row ranges.  It starts at each row whose working set starts a new budget
    of the one cumulative cost, so it holds at least one row and may straddle parts.
    """
    slabs: list[list[tuple[int, int, int]]] = []
    spent, last = 0, -1
    for part, costs in enumerate(parts):
        if not len(costs):
            continue
        budgets = (np.cumsum(costs) - costs + spent) // SLAB_ENTRIES
        starts = (np.flatnonzero(budgets[1:] > budgets[:-1]) + 1).tolist()
        if budgets[0] > last:
            starts.insert(0, 0)
        else:  # the part's first rows finish the slab before
            slabs[-1].append((part, 0, (starts + [len(costs)])[0]))
        slabs.extend([(part, lo, hi)] for lo, hi in zip(starts, starts[1:] + [len(costs)]))
        spent, last = spent + int(costs.sum()), budgets[-1]
    return slabs


def _reference_bases(
    masks: np.ndarray, totals: np.ndarray, n: int, base: int, symbols: tuple[int, ...], digit_matrices: dict
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(k, families, bases) for each complement size k of the families with these masks and totals.

    `families` indexes the families with k coordinates outside their blocks,
    and row f of `bases` holds the packed index in `base`, 0 on the blocks,
    of each of their |symbols|^k references (`symbols` as digits, ascending)
    in lexicographic order over the complement: one matrix product,
    complement weights (F x k) by the digit matrix of every reference, kept
    in `digit_matrices` across calls.
    """
    # a float product is exact here (every index is below 2^53) and much faster
    powers = float(base) ** np.arange(n)
    outside = (masks[:, None] >> np.arange(n)) & 1 == 0
    for k in sorted(set((n - totals).tolist())):
        fams = np.flatnonzero(totals == n - k)
        if k not in digit_matrices:  # column r spells reference r, first coordinate most significant
            digits = list(itertools.product(symbols, repeat=k))
            digit_matrices[k] = np.array(digits, dtype=np.float64).reshape(len(digits), k).T
        complement = np.nonzero(outside[fams])[1].reshape(len(fams), k)
        yield k, fams, (powers[complement] @ digit_matrices[k]).astype(np.int64)


class WordTable(NamedTuple):
    """The colour ids that a scan reads, one per word over `letters` (ascending symbols of [m]).

    A word of length k is entry mark*base^k + i, where i is its packed index
    in `base`: the sum of digit_c * base^(c-1) over its coordinates c, a
    letter's digit its rank in `letters`.  A table of [m]^n has mark 0,
    base m and the one length n (`Colouring.dense_table`); an alphabet table
    has mark 1, a digit 1 past a word's last coordinate, and every length up
    to its longest (`Colouring.alphabet_table`).
    """

    ids: np.ndarray
    letters: tuple[int, ...]
    base: int
    mark: int


def _scan_chunk(shared: tuple, _start: int, slabs: list) -> tuple[int, Hits]:
    """Scan contiguous slabs of (length, block family) rows through the colour table.

    A level is a (length n', table offset) pair, and a slab's (level, lo, hi)
    ranges hold rows lo..hi-1 of the families of the `block_families` arrays
    at the longest length that lie inside [n'].  Each row is scanned as a
    family of [n'], through the table from the level's offset, so a slab may
    straddle lengths.  Points are packed as the table packs its words (see
    `WordTable`).  A block's weight sums base^(c-1) over its coordinates c,
    the same at every length, and a family's weights are taken in id order:
    the rows of `arrangements` (letters as digits) run over every
    permutation of the template, so the order in which they meet the blocks
    does not change which placements are monochromatic; their last column,
    1, weighs the row's table offset.
    Rows are grouped by complement size n' - total, across lengths (the
    coordinates past n' count as covered), and a group's reference offsets
    are one matrix product (see `_reference_bases`).  Row 0 of
    `arrangements` is gathered and row 1 compared for every (row, reference)
    pair at once; each later row only for the pairs still monochromatic.

    Returns (placements examined, hits as label words by length, for the
    lengths with hits): a slab examines its (row, reference) pairs.  A slab
    labels its own hits in canonical order (see `_scan`), each row with hits
    once, at the slab's longest length, sliced to each n': a hit's base holds
    its reference symbol's digit on each free coordinate and 0 on its
    blocks.  In first-only mode the chunk stops after the first slab with a
    hit and counts the placements up to and including that slab's first
    hit, the one hit it returns.
    """
    table, base, m, letters, symbols, arrangements, weight, families, levels, first_only = shared
    lengths, offsets = zip(*levels)
    count = len(arrangements)
    digit_matrices: dict[int, np.ndarray] = {}
    # the families inside [n'], in order, for the level in hand
    inside = functools.lru_cache(1)(lambda level: np.flatnonzero(families.masks < 1 << lengths[level]))
    examined, found = 0, {}
    for slab in slabs:
        index = np.concatenate([inside(level)[lo:hi] for level, lo, hi in slab])
        spans, top = [hi - lo for _, lo, hi in slab], lengths[slab[0][0]]
        ends = np.cumsum(spans)
        n, offset = (np.repeat([column[level] for level, _, _ in slab], spans) for column in (lengths, offsets))
        ids, totals = families.ids[index], families.totals[index]
        weights = np.column_stack([weight[ids], offset])
        # a one-arrangement template compares arrangement 0 with itself
        deltas = weights @ arrangements[[0, min(1, count - 1)]].T
        masks = families.masks[index] | (1 << top) - (1 << n)
        slab_hits = []
        for k, fams, bases in _reference_bases(masks, totals + top - n, top, base, symbols, digit_matrices):
            colour = table[bases + deltas[fams, :1]]
            fi, ri = np.nonzero(table[bases + deltas[fams, 1:]] == colour)
            for a in range(2, count):
                if not len(fi):
                    break
                keep = table[bases[fi, ri] + weights[fams[fi]] @ arrangements[a]] == colour[fi, ri]
                fi, ri = fi[keep], ri[keep]
            slab_hits.append((fams[fi], ri, bases[fi, ri], colour[fi, ri]))
        row, ref, base_index, colours = (np.concatenate(column) for column in zip(*slab_hits))
        order = np.lexsort((ref, row))
        refs = len(symbols) ** (n - totals)
        if first_only and len(order):
            order = order[:1]
            examined += int(refs[: row[order[0]]].sum()) + int(ref[order[0]]) + 1
        else:
            examined += int(refs.sum())
        if len(order):
            row, colours = row[order], colours[order]
            labelled, inverse = np.unique(row, return_inverse=True)  # each row with hits is labelled once
            labels = block_labels(families.bits, ids[labelled], top)[inverse]
            # the reference digits, in int32 (every index is below MAX_TABLE_ENTRIES), which divides faster;
            # an alphabet table's base is a power of 2, whose digits are bit fields: shifts read the 4,176 hits
            # of the pq12 n=11 climb's scan in 0.06 ms, where division takes 0.27 ms
            index, place = base_index[order].astype(np.int32)[:, None], np.arange(top, dtype=np.int32)
            if base & base - 1:
                digits = index // np.int32(base) ** place % base
            else:
                digits = index >> np.int32(base.bit_length() - 1) * place & base - 1
            words = letters[digits] + labels + (labels > 0) * np.int8(m - letters[0])  # digit 0 on a block
            cuts = np.searchsorted(row, ends).tolist()
            for (level, _, _), lo, hi in zip(slab, [0] + cuts, cuts):
                if hi > lo:  # a family inside [n'] labels nothing past n'
                    found.setdefault(lengths[level], []).append((words[lo:hi, : lengths[level]], colours[lo:hi]))
            if first_only:
                break
    return examined, {k: tuple(map(np.concatenate, zip(*parts))) for k, parts in found.items()}


def _scan(
    table: WordTable,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str],
    lengths: range,
    symbols: tuple[int, ...],
    first_only: bool,
    workers: int,
) -> tuple[int, Hits]:
    """Scan t's families at every length in `lengths`, longest first, through the table.

    The table holds the words over t's letters and the reference `symbols`
    at each length in `lengths`.  The families are the `block_families`
    arrays at the longest length.  The (length, family) rows, longest length
    first, are cut into one slab list (`_slabs`), which goes to the workers
    in one parallel map.  Returns (placements examined, summed over the
    lengths, and hits as label words by length, an entry for every length):
    a hit at k is an int8 word of length k holding its reference symbol on
    each free coordinate, and m + the `block_labels` label on each block
    coordinate, so equal placements have equal words.  The slabs label their
    own hits (`_scan_chunk`), and the chunks come back in slab order, so each
    length's hits are its chunks' parts in turn.
    """
    top, digit = lengths[-1], {letter: d for d, letter in enumerate(table.letters)}
    families = block_families(top, t, sizemode, pattern)
    arrangements = np.array([[digit[letter] for letter in a] for a in t.arrangements()], dtype=np.int64)
    # compare the template reversed first: it moves every letter, so it breaks
    # the most placements (6% survive it at pq12 n=10 and 2.5% at d=2 n=13,
    # against 45% and 14% for arrangement 1)
    arrangements = np.concatenate([arrangements[:1], arrangements[:0:-1]])
    arrangements = np.column_stack([arrangements, np.ones(len(arrangements), np.int64)])  # times a row's offset
    # per level, longest first: (length k, where its words start in the table)
    levels = [(k, table.mark * table.base**k) for k in lengths[::-1]]
    # a row's working set: its placements, its block weights and its row of the coordinate mask
    slabs = _slabs(len(symbols) ** (k - families.totals[families.masks < 1 << k]) + t.s + k for k, _ in levels)
    examined, parts = 0, {k: [(np.empty((0, k), np.int8), np.empty(0, np.int64))] for k, _ in levels}
    shared = (
        table.ids,
        table.base,
        t.m,
        np.array(table.letters, np.int8),
        tuple(digit[symbol] for symbol in symbols),
        arrangements,
        block_weights(families.blocks, table.base),
        families,
        levels,
        first_only,
    )
    for chunk_examined, chunk_hits in map_chunks(_scan_chunk, shared, slabs, workers):
        examined += chunk_examined
        for k, part in chunk_hits.items():
            parts[k].append(part)
        if first_only and chunk_hits:
            break
    return examined, {k: tuple(map(np.concatenate, zip(*part))) for k, part in parts.items()}


Hits = dict[int, tuple[np.ndarray, np.ndarray]]  # length -> (label words, colour ids)


def _subsets(n: int, r: int) -> np.ndarray:
    """The r-subsets of the coordinates 0..n-1, one sorted row each, in lexicographic order."""
    rows = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    return np.fromiter(rows, np.int64, math.comb(n, r) * r).reshape(math.comb(n, r), r)


def _lift(words: np.ndarray, zs: np.ndarray, fills: np.ndarray) -> np.ndarray:
    """Label words of [k] lifted into [k + r] over the r-sets zs.

    Row i puts words[i] on the coordinates outside zs[i], in order, and
    fills[i] on zs[i]: a word of neutral symbols (a placement whose
    references hold them) or one new block label (a placement with the new
    block zs[i]).  The lift keeps the order of the word's coordinates, so
    its blocks keep their order of minima.
    """
    n = words.shape[1] + zs.shape[1]
    in_z = np.zeros((len(zs), n), bool)
    in_z[np.arange(len(zs))[:, None], zs] = True
    out = np.empty((len(zs), n), np.int8)
    out[~in_z] = words.ravel()
    out[in_z] = fills.ravel()
    return out


def _keys(words: np.ndarray) -> np.ndarray:
    """Label words as fixed-width byte strings: no letter is 0, so equal keys are equal words."""
    return np.ascontiguousarray(words).view(f"S{words.shape[1]}").ravel()


def _lifts(lower: Hits, label: int, lengths: range, sizes: range) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """(n, k, zs, counts) for each length n and size k with lower hits at n - k: the candidates that add a block at n.

    A lower hit at n - k, its blocks labelled below `label`, lifts over each
    k-set Z of [n] whose minimum lies past the minimum of its last block, so
    that Z becomes its block of largest minimum, labelled `label`.  `zs`
    holds the k-sets of [n] in lexicographic order, so a hit's sets are a
    tail of them, of length counts[i] for hit i (see `_pairs`).
    """
    # the first coordinate of each lower hit's last block, at each lower length with hits
    lasts = {low: np.argmax(words == label - 1, axis=1) for low, (words, _) in lower.items() if len(words)}
    for n in lengths:
        for k in sizes:
            if n - k in lasts:
                zs = _subsets(n, k)
                yield n, k, zs, len(zs) - np.searchsorted(zs[:, 0], lasts[n - k], side="right")


def _pairs(counts: np.ndarray, ends) -> tuple[np.ndarray, np.ndarray]:
    """(hit, set) index pairs of the candidates in `_lifts`: hit i takes the counts[i] sets before ends[i] (or ends)."""
    hit = np.repeat(np.arange(len(counts)), counts)
    return hit, np.arange(len(hit)) + np.repeat(ends - np.cumsum(counts), counts)


def _extend(table: WordTable, lower: Hits, t: Template, z: int, lengths: range, sizes: range) -> Hits:
    """The hits of t, which holds one copy of the neutral letter z, at each length from the hits of t without it.

    `lower` holds the hits of t without z, as label words, at every length
    the extension reads.  Every arrangement of t puts z on one block, and
    deleting that block, with its coordinates, leaves a point of the deletion
    of the same colour.  So a placement is a hit of t exactly when its s
    one-block deletions are lower hits of one colour.  Each hit of t at n
    thus arises once as a lower hit at n - k lifted over a k-set Z that
    becomes its block of largest minimum (`_lifts`), and such a candidate is
    a hit when the table gives the lower hit's colour at every arrangement
    that puts z off Z: the others are the lower hit's own points.  Such a
    point has the colour of the word left once its block that takes z, a
    lower block B, is deleted, a word over the table's letters: the table
    is an alphabet table (`WordTable`), whose base is a power of 2, so a
    word's entry is its digits as bit fields under the mark bit.  The entry
    of each lower hit with B deleted is packed once per lower hit, B and
    arrangement: its reference digits and each other block's coordinates
    times the arrangement's digit on it, the fields above each coordinate
    of B moved down one.  A candidate's Z digits are then inserted into it,
    the highest first, each at its lower coordinate less the coordinates of
    B below it, which moves the fields above up one.  The candidates of
    every length that share a Z size are checked together, in slabs of about
    SLAB_ENTRIES candidates (`_slabs`) that may straddle lengths; each later
    arrangement only for the candidates still of their hit's colour.  The
    survivors are split by length only to be lifted into label words.  The
    candidates are at most the placements of t a scan would visit, and all
    of them when every placement without z is a hit (a one-block t without z
    has one arrangement); they are fewer as it has fewer hits.
    """
    m, label, bits = t.m, t.m + t.s, table.base.bit_length() - 1
    # the template reversed first, as in `_scan`: it breaks the most candidates
    arrangements = np.array(list(t.arrangements())[::-1], np.int64)
    arrangements = arrangements[arrangements[:, -1] != z]
    carrier = np.argmax(arrangements[:, :-1] == z, axis=1)  # B, the lower block that takes z
    rank = {letter: r for r, letter in enumerate(table.letters)}
    # row a weighs a lower word's reference digits by 1 and each block by arrangement a's digit on it, B by none
    rows = np.array([[1] + [rank.get(letter, 0) for letter in a[:-1]] for a in arrangements], float)
    rows[np.arange(len(rows)), 1 + carrier] = 0
    z_digits = [rank[letter] for letter in arrangements[:, -1].tolist()]
    # entries and coordinate masks fit int32 (an alphabet table has fewer than 2^31 entries), which moves less memory
    below = (np.int32(1) << np.arange(lengths[-1] + 1, dtype=np.int32)) - 1  # the coordinates below each
    # every lower hit, by length in turn and padded with 0s (no letter, on no block): its blocks' coordinates
    # as bit masks, and its entry for each arrangement, SLAB_ENTRIES hits at a time
    widths = [k for k in sorted(lower) if len(lower[k][0])]
    first = dict(zip(widths, np.cumsum([0] + [len(lower[k][0]) for k in widths]).tolist()))
    width = max(widths, default=0)
    low = np.zeros((sum(len(lower[k][0]) for k in widths), width), np.int8)
    for k in widths:
        low[first[k] : first[k] + len(lower[k][0]), :k] = lower[k][0]
    ends = np.repeat(np.array(widths, np.int32), [len(lower[k][0]) for k in widths])  # each one's length
    points, masks = np.empty((len(arrangements), len(low)), np.int32), np.empty((t.s - 1, len(low)), np.int32)
    weights = np.column_stack([2.0 ** (bits * np.arange(width)), 2.0 ** np.arange(width)])
    for lo in range(0, len(low), SLAB_ENTRIES):
        chunk, at = low[lo : lo + SLAB_ENTRIES], slice(lo, lo + SLAB_ENTRIES)
        digits = np.zeros(chunk.shape, np.int8)
        for letter, r in rank.items():
            digits += (chunk == letter) * np.int8(r)
        # the reference digits and each block's coordinates as fields (exact products), and as bits
        packed = np.stack([digits] + [chunk == b for b in range(m + 1, label)]) @ weights
        masks[:, at] = packed[1:, :, 1]
        point, left = (rows @ packed[:, :, 0]).astype(np.int32), masks[carrier, at]
        for gone in range(int(np.bitwise_count(left).max(initial=0))):  # B's coordinates deleted, lowest first
            lowest = left & -left
            keep = (lowest >> gone) ** bits - 1  # the fields below that coordinate's, or all when it is none
            point = point & keep | point >> bits & ~keep
            left ^= lowest
        # and the mark past the word's last field: its length less B's
        points[:, at] = point + (np.int32(1) << bits * (ends[at] - np.bitwise_count(masks[carrier, at])))
    # longest first, as `_scan` returns them: listed so, the hits peak lower (247 vs 266 MB at pq 0,1 n=11)
    out = {n: ([np.empty((0, n), np.int8)], [np.empty(0, np.int64)]) for n in lengths[::-1]}
    lifts = list(_lifts(lower, label, lengths, sizes))
    for k in sorted({size for _, size, _, _ in lifts}):
        parts = [(n, *lower[n - k], counts) for n, size, _, counts in lifts if size == k]  # n, words, colours, counts
        sets = [len(zs) for _, size, zs, _ in lifts if size == k]
        zs, last = np.concatenate([zs for _, size, zs, _ in lifts if size == k]), np.cumsum(sets)  # by length in turn
        places = (zs - np.arange(k))[:, ::-1].T.astype(np.int32)  # the lower coordinate before which each of Z's goes
        for slab in _slabs(counts for *_, counts in parts):  # a hit's candidates (`low` holds its letters once)
            starts = np.cumsum([0] + [hi - lo for _, lo, hi in slab]).tolist()
            counts = np.concatenate([parts[part][3][lo:hi] for part, lo, hi in slab])
            hit, zi = _pairs(counts, np.repeat([last[part] for part, _, _ in slab], np.diff(starts)))
            colour = np.concatenate([parts[part][2][lo:hi] for part, lo, hi in slab])[hit]
            # the slab's lower hits: consecutive rows of `low`, `points` and `masks`, since its parts are the
            # consecutive lengths with hits
            span = slice(first[parts[slab[0][0]][0] - k] + slab[0][1], None)
            for a, j in enumerate(carrier.tolist()):
                if not len(hit):
                    break
                point, mask = points[a, span][hit], masks[j, span][hit]
                for place in places:  # Z's digits inserted, the highest first, each at its field in the word so far:
                    place = place[zi]
                    field = place - np.bitwise_count(mask & below[place])  # its lower coordinate less B's below it
                    field *= bits
                    high = point >> field << field  # the fields from there up, which move up one
                    point += high * (table.base - 1)
                    if z_digits[a]:
                        point += np.int32(z_digits[a]) << field
                keep = table.ids[point] == colour
                hit, zi, colour = hit[keep], zi[keep], colour[keep]
            cuts = np.searchsorted(hit, starts).tolist()
            for (part, _, _), a, b in zip(slab, cuts, cuts[1:]):  # each length's survivors, lifted into it
                n = parts[part][0]
                words = low[span][hit[a:b], : n - k]
                out[n][0].append(_lift(words, zs[zi[a:b]], np.full((b - a, k), label, np.int8)))
                out[n][1].append(colour[a:b])
    return {n: (np.concatenate(words), np.concatenate(colours)) for n, (words, colours) in out.items()}


def _join(lower: Hits, blocks: int, copies: int, lengths: range, m: int, sizes: range) -> Hits:
    """The hits of T at each length from the hits of T-, T with one of its `copies` >= 2 neutral letters z fewer.

    `lower` holds the hits of T- (`blocks` blocks), as label words, at every
    length the join reads.  An arrangement of T puts z on `copies` blocks,
    and deleting any of them, with its coordinates, leaves a point of that
    deletion as a T- placement, of the same colour.  So every deletion of a
    T hit is a T- hit of its colour; and a placement is a T hit when the
    deletions of any s - copies + 1 of its s blocks are T- hits, since those
    blocks meet the z blocks of every arrangement and, with copies >= 2, any
    two of them take z together in some arrangement, so that their colours
    agree.  Each T hit at L thus arises once as a T- hit at L - |Z| lifted
    over Z, with Z the new block of largest minimum (`_lifts`), and is kept
    when the deletions of its first s - copies blocks by minimum are among
    the sorted lower keys.  The candidates of a length are counted, and
    refused past MAX_TABLE_ENTRIES letters, before any is built; they are
    then built and checked a slab of about SLAB_ENTRIES letters at a time.
    """
    label = m + blocks + 1  # the new block's: its minimum is the largest
    keys = {k: np.sort(_keys(words)) for k, (words, _) in lower.items()}
    lifts = list(_lifts(lower, label, lengths, sizes))
    out = {}
    for n in lengths:
        at = [lift for lift in lifts if lift[0] == n]
        check_entries(f"the join at n={n}", n * sum(int(counts.sum()) for *_, counts in at))
        words, colours = [np.empty((0, n), np.int8)], [np.empty(0, np.int64)]
        for slab in _slabs(counts * n for *_, counts in at):  # a hit's candidates, n letters each
            parts = []
            for part, lo, hi in slab:
                _, k, zs, counts = at[part]
                h, z = _pairs(counts[lo:hi], len(zs))
                low, low_colours = lower[n - k][0][lo:hi][h], lower[n - k][1][lo:hi][h]
                parts.append((_lift(low, zs[z], np.full((len(h), k), label, np.int8)), low_colours))
            slab_words, slab_colours = (np.concatenate(column) for column in zip(*parts))
            for b in range(m + 1, label + 1 - copies):
                size, keep = (slab_words == b).sum(axis=1), np.zeros(len(slab_words), bool)
                for k in sizes:
                    rows = np.flatnonzero(size == k)
                    if len(rows) and len(keys[n - k]):
                        chosen = slab_words[rows]
                        rest = chosen[chosen != b].reshape(len(rows), n - k)
                        rest -= rest > b  # the later blocks move one label down
                        query, found = _keys(rest), keys[n - k]
                        keep[rows] = found[np.minimum(np.searchsorted(found, query), len(found) - 1)] == query
                slab_words, slab_colours = slab_words[keep], slab_colours[keep]
            words.append(slab_words)
            colours.append(slab_colours)
        out[n] = (np.concatenate(words), np.concatenate(colours))
    return out


def _climb(
    table: WordTable,
    t: Template,
    z: int,
    n: int,
    sizemode: SizeMode,
    symbols: tuple[int, ...],
    neutral: tuple[int, ...],
    workers: int,
) -> Hits:
    """The hits of t at every length its placements at n delete down to, by climbing the neutral letter z.

    T_j is t with j of its J >= 0 copies of z.  Each deletion of a block of
    a T_j hit leaves a T_{j-1} hit of its colour (see `_extend` and
    `_join`), so J deletions take a hit of t at n to a hit of T_0 no longer
    than n - J*min_size.  T_0 is scanned in full up to there: with no hit, t
    has none, and with J = 0 these are t's hits.  With hits and J >= 1, T_1
    is built up to n - (J-1)*min_size by extending the T_0 hits through the
    table (`_extend`), which replaces them, and T_1 is joined up to t.  The
    table is the alphabet table of T_0's letters and the reference
    `symbols` up to n - max(J-1, 0)*min_size: every colour the scan and the
    extension read is one of such a word, and the joins read none.  No
    family array is built at n unless J = 0.  Hits are label words by
    length, as `_scan` returns them, with their references over `symbols`:
    with neutral references they are wanted at every length, without them
    only at the lengths that reach n.
    """
    count, low, high = t.counts[z - 1], sizemode.min_size, max(sizemode.size_range())

    def sub(j: int) -> Template:
        return Template(t.m, tuple(j if letter == z else c for letter, c in enumerate(t.counts, 1)))

    def lengths(j: int) -> range:
        floor = sub(j).s * low
        return range(floor if neutral else max(floor, n - (count - j) * high), n - (count - j) * low + 1)

    _, found = _scan(table, sub(0), sizemode, None, lengths(0), symbols, False, workers)
    if not any(len(words) for words, _ in found.values()):
        return {}
    if count:
        found = _extend(table, found, sub(1), z, lengths(1), sizemode.size_range())
    for j in range(2, count + 1):
        found = _join(found, sub(j - 1).s, j, lengths(j), t.m, sizemode.size_range())
    return found


def _verify_hit(p: Placement, t: Template, colouring: Colouring, colour: int) -> None:
    for w in blockset_points(p, t):
        got = colouring.colour_id(w)
        if got != colour:
            raise ExtractionContradiction(
                f"reported placement {p} is not monochromatic: {w} has colour {got}, expected {colour}"
            )


def _hit_points(t: Template, words: np.ndarray) -> np.ndarray:
    """The points of hits as int8 words, shape (arrangements, hits, n).

    `words` holds the hits' label words: m + j on the coordinates of block j,
    the reference symbol (at most m) on the rest.  The point for row a of
    `t.arrangements()` puts that arrangement's letters on the blocks in label
    order.  The arrangements run over every permutation of the template, so
    the points are the block set of the hit's placement, whatever the order.
    """
    labels = np.where(words > t.m, words - t.m, 0)
    letters = np.array([(0,) + a for a in t.arrangements()], np.int8)
    return letters[:, labels] + np.where(labels > 0, 0, words)


def _recheck_hits(colouring: Colouring, t: Template, found: Found) -> None:
    """Re-check every hit of `found` without reading the table.

    A closed-form colouring (one with `colour_ids`) evaluates every point of
    DECODE_BATCH hits at a time in numpy from the colouring's rule
    (`_hit_points`), and decodes a hit to its placement only if it fails.
    Any other colouring checks each point of each hit's `blockset_points`
    through `colour_id` (`_verify_hit`), on the placements that then serve
    as `found`'s entries; the benchmark's tracer test pins exactly those
    calls for a table colouring, one `blockset_points` call per hit and one
    `colour_id` call per point.  So that road keeps its objects per hit and
    makes each cheap: `found` checks a run of one block family once as it
    decodes it, `blockset_points` gathers each point through one coordinate
    map, and `TableColouring.colour_id` reads its id array directly.  A hit
    that fails raises ExtractionContradiction.
    """
    if not hasattr(colouring, "colour_ids"):
        for placement, colour in found:
            _verify_hit(placement, t, colouring, colour)
        return
    for lo in range(0, len(found), DECODE_BATCH):
        points = _hit_points(t, found.words[lo : lo + DECODE_BATCH])
        ids = colouring.colour_ids(points)
        wrong = np.argwhere(ids.T != found.colours[lo : lo + DECODE_BATCH, None])
        if len(wrong):
            i, a = wrong[0]
            ((placement, colour),) = found.decode(lo + i, lo + i + 1)
            raise ExtractionContradiction(
                f"reported placement {placement} is not monochromatic: {Word(tuple(points[a, i].tolist()), t.m)} "
                f"has colour {ids[a, i]}, expected {colour}"
            )


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

    The scan stops after the first slab of families that holds a hit; the
    result is independent of the worker count.
    """
    report = verify_absence(colouring, n, t, sizemode, pattern, reference_domain, workers, first_only=True)
    return report.found[0] if report.found else None


def placements_examined_until(
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str],
    reference_domain: Optional[Sequence[int]],
    hit: Optional[tuple[Placement, int]],
) -> int:
    """Placements scanned, in canonical order, up to and including a hit.

    With hit=None this is the full placement count for the parameters.  It
    recounts from the family list what `verify_absence` counts in its scan.
    """
    symbols = reference_symbols(t, reference_domain)
    families = enumerate_block_families(n, t, sizemode, pattern)
    refs = [len(symbols) ** (n - sum(map(len, family))) for family in families]
    if hit is None:
        return sum(refs)
    if hit[0].blocks not in families:
        raise ValueError("hit placement not in the enumerated space")
    rank = 0
    for _, sym in hit[0].reference:
        rank = rank * len(symbols) + symbols.index(sym)
    return sum(refs[: families.index(hit[0].blocks)]) + rank + 1


def verify_absence(
    colouring: Colouring,
    n: int,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str] = None,
    reference_domain: Optional[Sequence[int]] = None,
    workers: int = 1,
    first_only: bool = False,
) -> SearchReport:
    """Examine the placements in canonical order and report the monochromatic ones.

    Every placement is evaluated through one colour table (`WordTable`),
    built once here up to the longest length any scan reads, so tables too
    large to build, or whose ids could pass 2^62, are refused before any
    work starts.  The families come as
    `block_families` id rows, already in canonical order, and are cut into
    slabs of about SLAB_ENTRIES working-set entries each (at least one
    family); workers take equal numbers of slabs, so their shares cost about
    the same.  There are two roads.

    A full scan with no pattern climbs a letter z of [m] that is neutral (a
    coordinate holding it can be deleted without changing a colour) and has
    J < s copies in t, the most such (see `_climb`): t's hits come from a
    full scan of t with no z (an absence certificate when it has no hit), up
    to n - J*min_size, extended once and joined J - 1 times when J >= 1,
    through the alphabet table of its letters up to n - max(J-1, 0)*min_size
    letters (`Colouring.alphabet_table`).  The climb takes only
    the references over the domain's other symbols D, at every length n'
    from the smallest admissible one up to n: deleting the r reference
    coordinates that hold a neutral symbol maps each placement at n, one to
    one, onto a placement at n - r with its references in D, and keeps it
    monochromatic or not, so each hit at n' is expanded over its position
    sets and neutral words.
    `examined` is counted by `placement_count`.  The blocks of [n] are
    read only to sort hits at n, so a climb with none proves absence past
    n = 62 (`candidate_blocks`).

    Any other scan (first_only, a pattern, or no neutral letter to climb)
    runs once at n over the whole domain.  With first_only it stops at the
    canonically first hit, and `examined` counts the placements up to and
    including it (all of them when there is none).

    Every hit, at n or shorter, comes as a label word (see `_scan`): it is
    lifted into [n], sorted into canonical order by its id row and reference
    word at n, and reported as that label word and its colour id (`Found`),
    with no placement built unless the report's entries are read.  Every
    hit is re-checked before it is reported (`_recheck_hits`).
    """
    t0 = time.perf_counter()
    symbols = reference_symbols(t, reference_domain)
    # a neutral letter beside other template letters can be climbed
    letters = [z for z in range(1, t.m + 1) if z in colouring.neutral_symbols and t.counts[z - 1] < t.s]
    climb = max(letters, key=lambda z: t.counts[z - 1]) if letters and pattern is None and not first_only else None
    neutral = tuple(z for z in symbols if z in colouring.neutral_symbols) if climb else ()
    longest = n - max(t.counts[climb - 1] - 1, 0) * sizemode.min_size if climb else n
    if colouring.id_bound(longest) > 2**62:  # the ids of the words of the longest length a scan reads
        raise CapacityExceeded(f"a scan holds colour ids below 2**62; {colouring.name} has {colouring.colour_count:,} colours")
    if climb:
        scanned = tuple(z for z in symbols if z not in neutral)
        # the climb reads words over the scanned symbols and the letters of t without z
        alphabet = tuple(sorted({*scanned, *(a for a in range(1, t.m + 1) if t.counts[a - 1] and a != climb)}))
        base = alphabet_base(len(alphabet))
        over = "{" + ", ".join(map(str, alphabet)) + "}"
        check_entries(f"a scan of the words over {over} up to length {longest}", 2 * base**longest)
    else:
        check_entries(f"a scan of [{t.m}]^{n}", t.m**n)
    # too few coordinates are refused before a table is built; more than 62 only with hits to list
    if n < t.s * sizemode.min_size:
        raise AmbientTooSmall(f"n={n} cannot hold {t.s} disjoint blocks of size >= {sizemode.min_size}")
    if climb:
        examined = placement_count(n, t, sizemode, len(symbols))
        table = WordTable(colouring.alphabet_table(longest, t.m, alphabet), alphabet, base, 1)
        hits = _climb(table, t, climb, n, sizemode, scanned, neutral, workers)
    else:
        table = WordTable(colouring.dense_table(n, t.m), tuple(range(1, t.m + 1)), t.m, 0)
        examined, hits = _scan(table, t, sizemode, pattern, range(n, n + 1), symbols, first_only, workers)
    # every placement at n behind the hits: the deleted coordinates hold neutral references
    listed = sum(len(word) * math.comb(n, k) * len(neutral) ** (n - k) for k, (word, _) in hits.items())
    check_entries(f"listing the {listed:,} monochromatic placements at n={n}", listed * (n + t.s))
    words, colours = [np.empty((0, n), np.int8)], [np.empty(0, np.int64)]
    for k, (word, colour) in hits.items():
        if not len(word):
            continue
        zs = _subsets(n, n - k)
        fills = np.array(list(itertools.product(neutral, repeat=n - k)), np.int8)
        fills = fills.reshape(len(neutral) ** (n - k), n - k)
        hit, fill, z = (index.ravel() for index in np.indices((len(word), len(fills), len(zs))))
        words.append(_lift(word[hit], zs[z], fills[fill]))
        colours.append(colour[hit])
    words, colours = np.concatenate(words), np.concatenate(colours)
    if len(words):
        # their id rows at n, from each block label's coordinates; only these read the blocks of [n]
        blocks = candidate_blocks(n, sizemode)
        bits = block_weights(blocks, 2)
        by_bits = np.argsort(bits).astype(np.min_scalar_type(len(blocks)))
        # one coordinate at a time, so that no int64 array of hits x n is built
        masks = sum((words[:, c, None] == np.arange(t.m + 1, t.m + t.s + 1)) << np.int64(c) for c in range(n))
        rows = np.sort(by_bits[np.searchsorted(bits[by_bits], masks)], axis=1)
        # canonical order: by id row, then reference word (one id row labels its blocks' coordinates alike)
        order = np.lexsort([*words.T[::-1], *rows.T[::-1]])
        words, colours = words[order], colours[order]
    found = Found(n, t.m, sizemode, words, colours, colouring)
    _recheck_hits(colouring, t, found)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return SearchReport(
        params={
            "op": "find_monochromatic" if first_only else "verify_absence",
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


def _block_sets(n: int, t: Template, sizemode: SizeMode, reference_domain: Optional[Sequence[int]]) -> np.ndarray:
    """The distinct block sets of (n, t, size mode) as packed point indices, one sorted row each, rows sorted.

    Each placement's points are its reference base plus the weights of its
    blocks times each arrangement's letters less one (see `block_weights`);
    its row is sorted, and rows of equal point sets are kept once.  The rows
    hold the narrowest unsigned dtype that takes every index of [m]^n
    (`np.min_scalar_type`: uint16 up to [3]^10), so that their sorts and the
    witness search's incidence sort run on narrow keys.  The entries, and the
    words of [m]^n that a witness colours, are counted from the closed form,
    and refused past MAX_TABLE_ENTRIES, before anything is built.
    """
    symbols = reference_symbols(t, reference_domain)
    arrangements = np.array(list(t.arrangements()), np.int64) - 1
    check_entries(f"the block sets at n={n}", placement_count(n, t, sizemode, len(symbols)) * len(arrangements))
    check_entries(f"a colouring of [{t.m}]^{n}", t.m**n)
    families = block_families(n, t, sizemode)
    points = block_weights(families.blocks, t.m)[families.ids] @ arrangements.T
    key, digits = np.min_scalar_type(t.m**n - 1), tuple(symbol - 1 for symbol in symbols)
    rows = [
        (bases[:, :, None] + points[fams, None, :]).reshape(-1, len(arrangements)).astype(key)
        for _, fams, bases in _reference_bases(families.masks, families.totals, n, t.m, digits, {})
    ]
    sets = np.sort(np.concatenate(rows), axis=1)
    sets = sets[np.lexsort(sets.T[::-1])]
    return sets[np.concatenate([[True], (sets[1:] != sets[:-1]).any(axis=1)])]


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

    The block sets come as packed point indices from the `block_families`
    arrays (see `_block_sets`), with no `Placement` or `Word` per point.
    Propagation: when all but one point of some placement already share a
    colour, that colour is removed from the last point's domain.  Points are
    assigned in index order from an explicit stack, so the depth of the search
    is not bounded by Python's recursion limit.  A point is named by its
    position in that order: its block sets, domain and colour are lists
    indexed by position, read off one stable sort of the narrow point keys,
    so no dict has an entry per point.  Colouring a point checks only the
    block sets through it: propagation never colours a point, so any other
    set is as its own last coloured point left it.  Each set keeps counters
    (its uncoloured points, their position sum, a packed count per colour)
    that colouring and uncolouring a point update, so a check reads three ints.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    sets = _block_sets(n, t, sizemode, reference_domain)
    size = sets.shape[1]
    if size <= 1:
        return None  # a one-point block set is monochromatic under every colouring
    # each point's block sets, as rows of `sets` in ascending order: a stable sort of the points groups them
    order = np.argsort(sets.ravel(), kind="stable")
    points = sets.ravel()[order]
    new = np.concatenate([[True], points[1:] != points[:-1]])
    starts = np.flatnonzero(new)
    positions = np.empty(len(order), sets.dtype)  # each entry of `sets` as its point's position
    positions[order] = np.cumsum(new) - 1
    owners, bounds = (order // size).tolist(), starts.tolist() + [len(order)]
    through = [owners[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # per block set: its uncoloured points, the sum of their positions (the last one's position once one is
    # left), and the count of each colour, `width` bits per colour.  Every count is below 2**width, so a set's
    # tally shifted down to colour c's bits equals its coloured points only when all of them have colour c
    free = [size] * len(sets)
    free_sum = positions.reshape(-1, size).sum(axis=1).tolist()
    tally = [0] * len(sets)
    width = size.bit_length()

    domain = [(1 << k) - 1] * len(through)
    colour = [0] * len(through)
    nodes = 0
    trails: list[list[int]] = []  # the positions that lost the colour of each assigned point
    pos = c = 0
    while pos < len(through):
        while c < k and not domain[pos] & (1 << c):
            c += 1
        if c < k:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            colour[pos] = c
            trails.append([])
            rows, bit, shift = through[pos], 1 << c, c * width
            for row in rows:
                free[row] -= 1
                free_sum[row] -= pos
                tally[row] += 1 << shift
            for row in rows:  # c is the only colour its coloured points can share
                left = free[row]
                if left > 1 or tally[row] >> shift != size - left:
                    continue
                last = free_sum[row]
                if not left or domain[last] == bit:
                    break  # the set is monochromatic, or its last point has no colour left
                if domain[last] & bit:
                    domain[last] ^= bit
                    trails[-1].append(last)
            else:
                pos, c = pos + 1, 0
                continue
        elif pos == 0:
            return None
        else:  # every colour of this point failed: go back to the previous one
            pos -= 1
        c = colour[pos]  # undo the colour and its propagation, then try the next
        for row in through[pos]:
            free[row] += 1
            free_sum[row] += pos
            tally[row] -= 1 << c * width
        for w in trails.pop():
            domain[w] |= 1 << c
        c += 1
    ids = np.zeros(t.m**n, np.int64)  # points in no block set take colour 0
    ids[points[starts]] = colour
    witness = TableColouring(ids, n, t.m, k, f"witness:n={n},t={t},k={k}")
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
    colour_of = functools.cache(theta.colour)
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
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
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
    _verify_hit(placement, t123, base, expected)
    return placement, expected
