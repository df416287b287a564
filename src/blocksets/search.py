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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from .blocks import (
    AmbientTooSmall,
    EqualSize,
    Placement,
    SizeMode,
    Template,
    block_families,
    block_labels,
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
    flipped_block_word,
    slot_word_for,
    substitute,
)
from .words import MAX_TABLE_ENTRIES, CapacityExceeded, Word

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
    (Placement, colour id) pair.  The JSON forms are built from the arrays
    (`runs`), with no `Placement` per hit.
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
        """Hits lo..hi-1 as (Placement, colour id) pairs."""
        return [
            (Placement(self.n, run.blocks, tuple((c, row[c]) for c in run.free), self.sizemode), row[0])
            for run in self.runs(lo, hi)
            for row in run.rows
        ]

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

    def json_entries(self) -> list[dict]:
        """Every hit as {"placement": its `Placement.to_json_dict()`, "colour": id}, plus "vector" when vector-valued."""
        out = []
        for run in self.runs():
            for row in run.rows:
                placement = {
                    "n": self.n,
                    "blocks": [list(block) for block in run.blocks],
                    "reference": {str(c): str(row[c]) for c in run.free},
                    "pattern": run.pattern,
                }
                out.append({"placement": placement, "colour": row[0]})
                if len(row) > self.n + 1:
                    out[-1]["vector"] = row[self.n + 1 :]
        return out


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

        With entries=False the found list is the `Found` arrays themselves,
        which `cli.emit_report` writes as those dicts would be written.
        """
        return {
            "params": self.params,
            "examined": self.examined,
            "found": self.found.json_entries() if entries else self.found,
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
        if tuple(sorted(self.members)) != self.members:
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
    workers inherit fn and shared through the fork; only chunks and results
    are pickled.
    """
    size = max(1, -(-len(items) // max(workers, 1)))
    starts = range(0, len(items), size)
    chunks = [items[i : i + size] for i in starts]
    if len(starts) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, ctx, initializer=_set_chunk_job, initargs=(fn, shared)) as pool:
                return list(pool.map(_run_chunk, starts, chunks))
        except OSError:
            pass
    return [fn(shared, start, chunk) for start, chunk in zip(starts, chunks)]


class _Level(NamedTuple):
    """One word length n' a scan visits, and where its words lie in the table of [m]^n."""

    n: int
    offset: int  # where the words of [m]^n', padded with a neutral symbol, start
    multiplicity: int  # placements at n behind each placement at n'


def _block_weights(blocks: Sequence[tuple[int, ...]], m: int) -> np.ndarray:
    """Each block's weight, the sum of m^(c-1) over its coordinates c.

    A word's packed index is the sum of (symbol - 1) * m^(c-1), so the point
    of a placement for an arrangement is its reference base plus the
    arrangement's letters less one times the weights of the blocks they fill.
    """
    return np.array([sum(m ** (c - 1) for c in block) for block in blocks], np.int64)


def _reference_bases(
    masks: np.ndarray, totals: np.ndarray, n: int, m: int, symbols: tuple[int, ...], digit_matrices: dict
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(k, families, bases) for each complement size k of the families with these masks and totals.

    `families` indexes the families with k coordinates outside their blocks,
    and row f of `bases` holds the packed index, 0 on the blocks, of each of
    their |symbols|^k references in lexicographic order over the complement:
    one matrix product, complement weights (F x k) by the digit matrix of
    every reference, kept in `digit_matrices` across calls.
    """
    powers = np.int64(m) ** np.arange(n, dtype=np.int64)
    in_blocks = (masks[:, None] >> np.arange(n)) & 1 == 1
    for k in sorted(set((n - totals).tolist())):
        fams = np.flatnonzero(totals == n - k)
        if k not in digit_matrices:  # column r spells reference r, first coordinate most significant
            digits = list(itertools.product([sym - 1 for sym in symbols], repeat=k))
            digit_matrices[k] = np.array(digits, dtype=np.float64).reshape(len(digits), k).T
        complement = np.nonzero(~in_blocks[fams])[1].reshape(len(fams), k)
        # a float product is exact here (every index is below 2^53) and much faster
        yield k, fams, (powers[complement].astype(np.float64) @ digit_matrices[k]).astype(np.int64)


def _scan_chunk(shared: tuple, _start: int, slabs: list) -> tuple[int, np.ndarray]:
    """Scan contiguous slabs of block families through the colour table.

    Each slab is a (level, lo, hi) range of the `block_families` arrays at
    the longest length: the families lo..hi-1 that lie inside [n'], for the
    level's length n', are scanned as families of [n'], whose words are read
    from the level's slice of the table.  A block's weight sums m^(c-1) over
    its coordinates c, so it is the same at every length, and a family's
    weights are taken in id order: the rows of `arrangements` run over every
    permutation of the template, so the order in which they meet the blocks
    does not change which placements are monochromatic.  Families are grouped
    by complement size k, and a group's reference offsets are one matrix
    product (see `_reference_bases`).  Row 0 of `arrangements` is gathered
    and row 1 compared for every (family, reference) pair at once; each later
    row's deltas are computed, and compared, only for the families with pairs
    still monochromatic.

    Returns (placements examined, hits): each placement counts its level's
    multiplicity, and a hit is a row (level, family index, reference index,
    colour id), in canonical order within its level.  In first-only mode the
    chunk stops after the first slab with a hit and counts the placements up
    to and including that slab's first hit.
    """
    table, m, symbols, arrangements, weight, families, levels, first_only = shared
    count = len(arrangements)
    digit_matrices: dict[int, np.ndarray] = {}
    examined = 0
    hits = [np.empty((0, 4), np.int64)]
    for level, lo, hi in slabs:
        n, offset, multiplicity = levels[level]
        view = table[offset : offset + m**n]
        index = lo + np.flatnonzero(families.masks[lo:hi] < 1 << n)
        ids, masks, totals = families.ids[index], families.masks[index], families.totals[index]
        weights = weight[ids]
        # a one-arrangement template compares arrangement 0 with itself
        deltas = weights @ arrangements[[0, min(1, count - 1)]].T
        slab_hits = []
        for k, fams, bases in _reference_bases(masks, totals, n, m, symbols, digit_matrices):
            colour = view[bases + deltas[fams, :1]]
            fi, ri = np.nonzero(view[bases + deltas[fams, 1:]] == colour)
            first = np.diff(fi, prepend=-1) > 0  # fi is sorted: each live family's first pair
            live, live_weights = np.cumsum(first) - 1, weights[fams[fi[first]]]
            for a in range(2, count):
                if not len(fi):
                    break
                keep = view[bases[fi, ri] + (live_weights @ arrangements[a])[live]] == colour[fi, ri]
                fi, ri, live = fi[keep], ri[keep], live[keep]
            slab_hits.append((fams[fi], ri, colour[fi, ri]))
        fam_idx, ref_idx, colours = (np.concatenate(column) for column in zip(*slab_hits))
        order = np.lexsort((ref_idx, fam_idx))
        refs = len(symbols) ** (n - totals)
        if first_only and len(order):
            f, r = int(fam_idx[order[0]]), int(ref_idx[order[0]])
            return examined + int(refs[:f].sum()) + r + 1, np.array([[level, index[f], r, colours[order[0]]]])
        examined += multiplicity * int(refs.sum())
        level_hits = (np.full(len(order), level), index[fam_idx[order]], ref_idx[order], colours[order])
        hits.append(np.column_stack(level_hits))
    return examined, np.concatenate(hits)


def _scan(
    table: np.ndarray,
    t: Template,
    sizemode: SizeMode,
    pattern: Optional[str],
    lengths: range,
    symbols: tuple[int, ...],
    neutral: tuple[int, ...],
    pad: int,
    first_only: bool,
    workers: int,
) -> tuple[int, Hits]:
    """Scan t's families at every length in `lengths`, longest first, through the table.

    The families are the `block_families` arrays at the longest length, and
    the words of [m]^k are read from the slice of the table whose words hold
    `pad` (a neutral symbol) past coordinate k.  A level's multiplicity counts the
    placements at the longest length behind each of its placements, their
    deleted references taking the `neutral` symbols.  Returns (placements
    examined, hits as label words by length): a hit at k is an int8 word of
    length k holding its reference symbol on each free coordinate, and m +
    the `block_labels` label on each block coordinate, so equal placements
    have equal words.
    """
    top = lengths[-1]
    families = block_families(top, t, sizemode, pattern)
    arrangements = np.array(list(t.arrangements()), dtype=np.int64) - 1
    # compare the template reversed first: it moves every letter, so it breaks
    # the most placements (6% survive it at pq12 n=10 and 2.5% at d=2 n=13,
    # against 45% and 14% for arrangement 1)
    arrangements = np.concatenate([arrangements[:1], arrangements[:0:-1]])
    weight = _block_weights(families.blocks, t.m)
    levels, slabs = [], []
    # longest first, so that the shorter lengths' arrays fit where the longer ones' were
    for k in reversed(lengths):
        offset = (pad - 1) * (len(table) - t.m**k) // (t.m - 1) if len(table) > t.m**k else 0
        # the families at k are the families at the longest length inside [k], in the same order
        inside = np.flatnonzero(families.masks < 1 << k)
        # a slab starts at each family inside [k] whose working set starts a new budget
        costs = len(symbols) ** (k - families.totals[inside]) + t.s + k
        budgets = (np.cumsum(costs) - costs) // SLAB_ENTRIES
        del costs  # one family-length array fewer while the diff runs
        starts = inside[np.diff(budgets, prepend=-1) > 0].tolist()
        slabs.extend((len(levels), lo, hi) for lo, hi in zip(starts, starts[1:] + [len(families.totals)]))
        levels.append(_Level(k, offset, math.comb(top, k) * len(neutral) ** (top - k)))
    examined = 0
    rows = [np.empty((0, 4), np.int64)]
    shared = (table, t.m, symbols, arrangements, weight, families, levels, first_only)
    for chunk_examined, chunk_hits in map_chunks(_scan_chunk, shared, slabs, workers):
        examined += chunk_examined
        rows.append(chunk_hits)
        if first_only and len(chunk_hits):
            break
    rows, hits = np.concatenate(rows), {}
    for level, (k, _, _) in enumerate(levels):
        fam, ref, colour = rows[rows[:, 0] == level, 1:].T
        labels = block_labels(families.blocks, families.ids[fam], k)
        hits[k] = (np.where(labels > 0, labels + t.m, _references(families.masks[fam], ref, k, symbols)), colour)
    return examined, hits


Hits = dict[int, tuple[np.ndarray, np.ndarray]]  # length -> (label words, colour ids)


def _check_entries(what: str, entries: int) -> None:
    """Refuse an array of more than MAX_TABLE_ENTRIES entries before it is built."""
    if entries > MAX_TABLE_ENTRIES:
        raise CapacityExceeded(f"{what} needs {entries:,} entries; the limit is {MAX_TABLE_ENTRIES:,}")


def _references(masks: np.ndarray, ref: np.ndarray, k: int, symbols: tuple[int, ...]) -> np.ndarray:
    """Reference words at k of scan hits: 0 on the coordinates in `masks`, the digits of `ref` on the rest.

    The free coordinates, last first, take the digits of the reference index.
    """
    word, rest = np.zeros((len(ref), k), np.int8), ref.copy()
    for c in range(k - 1, -1, -1):
        free = masks >> c & 1 == 0
        word[free, c] = np.array(symbols, np.int8)[rest[free] % len(symbols)]
        rest[free] //= len(symbols)
    return word


def _subsets(n: int, r: int) -> np.ndarray:
    """The r-subsets of the coordinates 0..n-1, one sorted row each, in lexicographic order."""
    return np.array(list(itertools.combinations(range(n), r)), np.int64).reshape(math.comb(n, r), r)


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


def _join(lower: Hits, blocks: int, copies: int, lengths: range, m: int, sizes: range) -> Hits:
    """The hits of T at each length from the hits of T-, T with one of its `copies` neutral letters z fewer.

    `lower` holds the hits of T- (`blocks` blocks), as label words, at every
    length the join reads.  An arrangement of T puts z on `copies` blocks,
    and deleting any of them, with its coordinates, leaves a point of that
    deletion as a T- placement, of the same colour.  So every deletion of a
    T hit is a T- hit of its colour; and a placement is a T hit when the
    deletions of any s - copies + 1 of its s blocks are T- hits, since those
    blocks meet the z blocks of every arrangement and, with copies >= 2, any
    two of them take z together in some arrangement, so that their colours
    agree.  Each T hit at L thus arises once as a T- hit at L - |Z| lifted
    over Z, with Z the new block of largest minimum, and is kept when the
    deletions of its first s - copies blocks by minimum are among the sorted
    lower keys.  The candidates of a length are counted, and refused past
    MAX_TABLE_ENTRIES letters, before they are built.
    """
    label = m + blocks + 1  # the new block's: its minimum is the largest
    keys = {k: np.sort(_keys(words)) for k, (words, _) in lower.items()}
    out = {}
    for n in lengths:
        lifts = []
        for k in sizes:
            if n - k in lower:
                zs = _subsets(n, k)
                # zs are in lexicographic order, so the sets past a lower hit's last block are a tail of them
                last = np.argmax(lower[n - k][0] == label - 1, axis=1)  # the first coordinate of that block
                lifts.append((k, zs, len(zs) - np.searchsorted(zs[:, 0], last, side="right")))
        _check_entries(f"the join at n={n}", n * sum(int(counts.sum()) for *_, counts in lifts))
        words, colours = [np.empty((0, n), np.int8)], [np.empty(0, np.int64)]
        for k, zs, counts in lifts:
            low, low_colours = lower[n - k]
            h = np.repeat(np.arange(len(low)), counts)
            z = np.arange(len(h)) + np.repeat(len(zs) - np.cumsum(counts), counts)  # hit i takes the last counts[i]
            words.append(_lift(low[h], zs[z], np.full((len(h), k), label, np.int8)))
            colours.append(low_colours[h])
        words, colours = np.concatenate(words), np.concatenate(colours)
        for b in range(m + 1, label + 1 - copies):
            size, keep = (words == b).sum(axis=1), np.zeros(len(words), bool)
            for k in sizes:
                rows = np.flatnonzero(size == k)
                if len(rows) and len(keys[n - k]):
                    rest = words[rows][words[rows] != b].reshape(len(rows), n - k)
                    rest -= rest > b  # the later blocks move one label down
                    query, found = _keys(rest), keys[n - k]
                    keep[rows] = found[np.searchsorted(found, query).clip(max=len(found) - 1)] == query
            words, colours = words[keep], colours[keep]
        out[n] = (words, colours)
    return out


def _climb(
    table: np.ndarray,
    t: Template,
    z: int,
    n: int,
    sizemode: SizeMode,
    symbols: tuple[int, ...],
    neutral: tuple[int, ...],
    workers: int,
) -> Hits:
    """The hits of t at every length its placements at n delete down to, by climbing the neutral letter z.

    T_j is t with j of its J copies of z.  Each deletion of a block of a
    T_j hit leaves a T_{j-1} hit of its colour (see `_join`), so J deletions
    take a hit of t at n to a hit of T_0 no longer than n - J*min_size.  T_0
    is scanned first, stopping at its first hit: with none, t has none.
    Otherwise T_1 is scanned up to n - (J-1)*min_size and joined up to t.
    Hits are label words by length, as `_scan` returns them, with their
    references over `symbols`: with neutral references they are wanted at
    every length, without them only at the lengths that reach n.
    """
    count, low, high = t.counts[z - 1], sizemode.min_size, max(sizemode.size_range())

    def sub(j: int) -> Template:
        return Template(t.m, tuple(j if letter == z else c for letter, c in enumerate(t.counts, 1)))

    def lengths(j: int) -> range:
        floor = sub(j).s * low
        return range(floor if neutral else max(floor, n - (count - j) * high), n - (count - j) * low + 1)

    # one worker: the certificate stops at its first hit, sooner than a pool starts
    _, hits = _scan(table, sub(0), sizemode, None, lengths(0), symbols, neutral, z, True, 1)
    if not any(len(words) for words, _ in hits.values()):
        return {}
    _, found = _scan(table, sub(1), sizemode, None, lengths(1), symbols, neutral, z, False, workers)
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
    calls for a table colouring, one `blockset_points` call per hit.  A hit
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

    The scan evaluates every placement through one dense colour table, built
    once here at the longest length any scan reads (n, unless it climbs), so
    tables too large to build are refused before any work starts.  The
    families come as `block_families` id rows, already in canonical order,
    and are cut into slabs of about SLAB_ENTRIES working-set entries each
    (at least one family); workers take equal numbers of slabs, so their
    shares cost about the same.

    A full scan of a colouring with neutral symbols in the reference domain
    (N: a coordinate holding one can be deleted without changing a colour)
    scans only the references over the other symbols D, at every length n'
    from the smallest admissible one up to n.  Deleting the r reference
    coordinates that hold a neutral symbol maps each placement at n, one to
    one, onto a placement at n - r with its references in D, and keeps it
    monochromatic or not; so `examined` is sum_r C(n, r) |N|^r E_D(n - r)
    and each hit at n' is expanded over its position sets and neutral words.
    The table of [m]^n' is the slice of the one table whose words hold one
    neutral symbol on coordinates n'+1..n.  With first_only, or with no
    neutral symbol or only neutral ones in the domain, the scan runs at n
    over the whole domain.  Every hit, at n or shorter, scanned or climbed,
    comes as a label word (see `_scan`): it is lifted into [n], sorted into
    canonical order by its id row and reference word at n, and reported as
    that label word and its colour id (`Found`), with no placement built
    unless the report's entries are read.  Every hit is re-checked before it
    is reported (`_recheck_hits`).
    With first_only the scan stops at the canonically first hit, and
    `examined` counts the placements up to and including it (all of them
    when there is none).

    A full scan with no pattern climbs instead when a template letter z is
    neutral and repeats beside other letters (the one with most copies,
    J >= 2 of them): by the lemmas in `_climb` and `_join` the hits of t come
    from scans of t with no z (an absence certificate) and with one z, at
    most n - (J-1)*min_size long, then one join per further z.  `examined`
    is then the closed-form `placement_count`, and no family array is built
    at n.
    """
    t0 = time.perf_counter()
    symbols = reference_symbols(t, reference_domain)
    neutral = () if first_only else tuple(z for z in symbols if z in colouring.neutral_symbols)
    if len(neutral) == len(symbols):
        neutral = ()
    scanned = tuple(z for z in symbols if z not in neutral)
    # a neutral template letter that repeats beside other letters can be climbed
    letters = [z for z in range(1, t.m + 1) if z in colouring.neutral_symbols and 2 <= t.counts[z - 1] < t.s]
    climb = max(letters, key=lambda z: t.counts[z - 1]) if letters and pattern is None and not first_only else None
    longest = n - (t.counts[climb - 1] - 1) * sizemode.min_size if climb else n
    if t.m**longest > MAX_TABLE_ENTRIES or colouring.colour_count > 2**62:
        raise CapacityExceeded(
            f"a scan of [{t.m}]^{longest} needs {t.m**longest:,} colour-table entries holding "
            f"{(colouring.colour_count - 1).bit_length()}-bit colour ids; "
            f"the limits are {MAX_TABLE_ENTRIES:,} entries and 62-bit ids"
        )
    # too few coordinates, or more than 62 (`candidate_blocks`), are refused before a table is built
    if n < t.s * sizemode.min_size:
        raise AmbientTooSmall(f"n={n} cannot hold {t.s} disjoint blocks of size >= {sizemode.min_size}")
    blocks = candidate_blocks(n, sizemode)
    if climb:
        examined = placement_count(n, t, sizemode, len(symbols))
        hits = _climb(colouring.dense_table(longest, t.m), t, climb, n, sizemode, scanned, neutral, workers)
    else:
        table, pad = colouring.dense_table(n, t.m), neutral[0] if neutral else 1
        lengths = range(t.s * sizemode.min_size if neutral else n, n + 1)
        examined, hits = _scan(table, t, sizemode, pattern, lengths, scanned, neutral, pad, first_only, workers)
    # every placement at n behind the hits: the deleted coordinates hold neutral references
    listed = sum(len(word) * math.comb(n, k) * len(neutral) ** (n - k) for k, (word, _) in hits.items())
    _check_entries(f"listing the {listed:,} monochromatic placements at n={n}", listed * (n + t.s))
    words, colours = [np.empty((0, n), np.int8)], [np.empty(0, np.int64)]
    for k, (word, colour) in hits.items():
        zs = _subsets(n, n - k)
        fills = np.array(list(itertools.product(neutral, repeat=n - k)), np.int8)
        fills = fills.reshape(len(neutral) ** (n - k), n - k)
        hit, fill, z = (index.ravel() for index in np.indices((len(word), len(fills), len(zs))))
        words.append(_lift(word[hit], zs[z], fills[fill]))
        colours.append(colour[hit])
    words, colours = np.concatenate(words), np.concatenate(colours)
    # their id rows at n, from each block label's coordinates
    bits = np.array([sum(1 << (c - 1) for c in b) for b in blocks], np.int64)
    by_bits = np.argsort(bits).astype(np.min_scalar_type(len(blocks)))
    # one coordinate at a time, so that no int64 array of hits x n is built
    masks = sum((words[:, c, None] == np.arange(t.m + 1, t.m + t.s + 1)) << np.int64(c) for c in range(n))
    rows = np.sort(by_bits[np.searchsorted(bits[by_bits], masks)], axis=1)
    # canonical order: by id row, then reference word (one id row labels its blocks' coordinates alike)
    order = np.lexsort([*words.T[::-1], *rows.T[::-1]])
    found = Found(n, t.m, sizemode, words[order], colours[order], colouring)
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
    blocks times each arrangement's letters less one (see `_block_weights`);
    its row is sorted, and rows of equal point sets are kept once.  The
    entries, and the words of [m]^n that a witness colours, are counted from
    the closed form, and refused past MAX_TABLE_ENTRIES, before anything is
    built.
    """
    symbols = reference_symbols(t, reference_domain)
    arrangements = np.array(list(t.arrangements()), np.int64) - 1
    _check_entries(f"the block sets at n={n}", placement_count(n, t, sizemode, len(symbols)) * len(arrangements))
    _check_entries(f"a colouring of [{t.m}]^{n}", t.m**n)
    families = block_families(n, t, sizemode)
    points = _block_weights(families.blocks, t.m)[families.ids] @ arrangements.T
    rows = [
        (bases[:, :, None] + points[fams, None, :]).reshape(-1, len(arrangements))
        for _, fams, bases in _reference_bases(families.masks, families.totals, n, t.m, symbols, {})
    ]
    sets = np.sort(np.concatenate(rows), axis=1)
    sets = sets[np.lexsort(sets.T[::-1])]
    return sets[np.concatenate([[True], (np.diff(sets, axis=0) != 0).any(axis=1)])]


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
    is not bounded by Python's recursion limit.  Colouring a point checks only
    the block sets through it: propagation never colours a point, so any other
    set is as its own last coloured point left it.  Each set keeps counters
    (its uncoloured points, their index sum, a packed count per colour) that
    colouring and uncolouring a point update, so a check reads three ints.
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
    starts = np.flatnonzero(np.diff(points, prepend=-1))
    constrained = points[starts].tolist()
    owners, bounds = (order // size).tolist(), starts.tolist() + [len(order)]
    through = {idx: owners[lo:hi] for idx, lo, hi in zip(constrained, bounds, bounds[1:])}
    # per block set: its uncoloured points, the sum of their indices (the last one's index once one is left),
    # and the count of each colour, `width` bits per colour.  Every count is below 2**width, so a set's tally
    # shifted down to colour c's bits equals its coloured points only when all of them have colour c
    free = [size] * len(sets)
    free_sum = sets.sum(axis=1).tolist()
    tally = [0] * len(sets)
    width = size.bit_length()

    domain = {idx: (1 << k) - 1 for idx in constrained}
    colour: dict[int, int] = {}
    nodes = 0
    trails: list[list[int]] = []  # the points that lost the colour of each assigned point
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
            rows, bit, shift = through[idx], 1 << c, c * width
            for row in rows:
                free[row] -= 1
                free_sum[row] -= idx
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
            idx = constrained[pos]
        c = colour.pop(idx)  # undo the colour and its propagation, then try the next
        for row in through[idx]:
            free[row] += 1
            free_sum[row] += idx
            tally[row] -= 1 << c * width
        for w in trails.pop():
            domain[w] |= 1 << c
        c += 1
    ids = np.zeros(t.m**n, np.int64)  # points in no block set take colour 0
    ids[list(colour)] = list(colour.values())
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
