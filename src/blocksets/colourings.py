"""Colourings of [m]^n and the substitution machinery behind them.

Colour values are dense integer ids.  Colourings whose natural colours are
vectors or tuples expose both forms, with a fixed mixed-radix bijection
(coordinate 0 least significant) between the two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .words import MAX_ALPHABET, CapacityExceeded, InvalidSymbol, Word, all_words, check_entries, profile


class DomainError(KeyError):
    """Word outside a table colouring's domain."""

    __str__ = Exception.__str__  # the bare message: a KeyError quotes it


class SubstitutionMismatch(ValueError):
    """Slot word and insert word are incompatible."""


class NotSlotWord(ValueError):
    """Word is not in the induced colouring's domain (2s marking slots, rest 3s)."""


class IndexOutOfRange(ValueError):
    """Block index outside [1, k+1]."""


def vector_to_id(vector: Sequence[int], modulus: int) -> int:
    """Mixed-radix encoding of a Z_modulus vector, coordinate 0 least significant."""
    idx = 0
    for v in reversed(vector):
        idx = idx * modulus + v
    return idx


def id_to_vector(idx: int, modulus: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(idx % modulus)
        idx //= modulus
    return tuple(out)


class Colouring:
    """Pure evaluable map Word -> colour id, with a declared colour bound.

    Evaluation must be deterministic and side-effect free; instances are safe
    to share across workers.  `neutral_symbols` holds the symbols z such that
    deleting a coordinate holding z never changes a colour; unpatterned full
    scans climb one and skip the references that use them (see
    `search.verify_absence`).

    The closed-form colourings also give `colour_ids(words)`: the ids of
    int8 symbol rows of shape (..., n), computed from their rule in numpy and
    never from a table, so that `search.verify_absence` can re-check the
    hits its table scan reports independently of that table.
    """

    name: str = "colouring"
    colour_count: int = 1
    neutral_symbols: frozenset[int] = frozenset()

    def colour_id(self, w: Word) -> int:
        raise NotImplementedError

    def dense_table(self, n: int, m: int) -> np.ndarray:
        """Colour ids for all of [m]^n indexed by packed word index.

        Raises when a word of [m]^n has no colour.  Subclasses may override
        with a faster construction; the generic path walks every word.
        """
        table = np.empty(m**n, dtype=np.int64)
        for w in all_words(n, m):
            table[w.index] = self.colour_id(w)
        return table

    def alphabet_table(self, n: int, m: int, letters: tuple[int, ...]) -> np.ndarray:
        """Colour ids of the words over `letters`, ascending symbols of [m], of every length up to n.

        A word of length k is entry b^k + i, where i is its packed index over
        the letters (a letter's digit is its rank, coordinate 1 least
        significant) in base b = `alphabet_base(len(letters))`: its packed
        index with a digit 1 past its last coordinate, which stays past it
        when digits are inserted or deleted below.  The table has 2*b^n
        entries; those of no word hold -1.  Subclasses may override with a
        per-length recurrence; the generic path walks every word.
        """
        words = [itertools.product(letters, repeat=k) for k in range(n + 1)]
        return _alphabet_table([[self.colour_id(Word(w[::-1], m)) for w in length] for length in words], len(letters))

    def id_bound(self, n: int) -> int:
        """A bound on the ids of the words of at most n letters: `colour_count`, unless a subclass knows less."""
        return self.colour_count


def alphabet_base(letters: int) -> int:
    """The base of an alphabet table's packed indices: the least power of 2 that is 2 or more and `letters` or more."""
    return 1 << max(1, (letters - 1).bit_length())


def _alphabet_table(slices: Sequence, letters: int) -> np.ndarray:
    """The alphabet table (see `Colouring.alphabet_table`) of each length's ids in packed order, length 0 first.

    The entries of length k, from base^k, are a k-dimensional array of side
    `base` whose axis c is coordinate c + 1; the ids fill its corner of side
    `letters`.
    """
    base = alphabet_base(letters)
    table = np.full(2 * base ** (len(slices) - 1), -1, np.int64)
    for k, ids in enumerate(slices):
        words = table[base**k : 2 * base**k].reshape((base,) * k, order="F")
        words[(slice(letters),) * k] = np.reshape(ids, (letters,) * k, order="F")
    return table


@dataclass(frozen=True)
class ConstantColouring(Colouring):
    """Every word gets the same colour."""

    value: int = 0
    colours: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.colours:
            raise ValueError(f"need 0 <= value < colours, got {self}")

    @property
    def colour_count(self) -> int:  # type: ignore[override]
        return self.colours

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"constant:{self.value}"

    def colour_id(self, w: Word) -> int:
        return self.value

    def colour_ids(self, words: np.ndarray) -> np.ndarray:
        return np.full(words.shape[:-1], self.value)  # words or lattice points; int64, or object past it

    def dense_table(self, n: int, m: int) -> np.ndarray:
        return np.full(m**n, self.value, dtype=np.int64)


@dataclass(frozen=True)
class ModularCountColouring(Colouring):
    """Colour by the number of occurrences of one symbol, modulo k."""

    symbol: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"need modulus >= 1, got {self}")

    @property
    def colour_count(self) -> int:  # type: ignore[override]
        return self.modulus

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"countmod:s={self.symbol},k={self.modulus}"

    @property
    def neutral_symbols(self) -> frozenset[int]:  # type: ignore[override]
        return frozenset(range(1, MAX_ALPHABET + 1)) - {self.symbol}

    def colour_id(self, w: Word) -> int:
        return sum(1 for s in w.symbols if s == self.symbol) % self.modulus

    def colour_ids(self, words: np.ndarray) -> np.ndarray:
        return (words == self.symbol).sum(axis=-1, dtype=np.int64) % self.modulus

    def dense_table(self, n: int, m: int) -> np.ndarray:
        """Incremental table over packed indices.

        Each new (most significant) coordinate adds m contiguous index
        blocks, one per symbol; the block for `symbol` has its count bumped.
        """
        table = np.zeros(1, dtype=np.int64)
        for _ in range(n):
            bumped = (table + 1) % self.modulus
            table = np.concatenate([bumped if s == self.symbol else table for s in range(1, m + 1)])
        return table

    def alphabet_table(self, n: int, m: int, letters: tuple[int, ...]) -> np.ndarray:
        """Per-length recurrence: each word of length k + 1 is one of length k with a letter appended."""
        tables = [np.zeros(1, dtype=np.int64)]
        for _ in range(n):
            bumped = (tables[-1] + 1) % self.modulus
            tables.append(np.concatenate([bumped if s == self.symbol else tables[-1] for s in letters]))
        return _alphabet_table(tables, len(letters))


def contribution_colour(x: Word, modulus: int, length: int) -> tuple[int, ...]:
    """Layered colouring of words over [3]: each 1 adds a basis vector.

    The 1 at coordinate i contributes e_a where a counts the 1s and 2s strictly
    before i, modulo `length`; contributions add modulo `modulus`.  Coordinates
    holding 2 or 3 contribute nothing.
    """
    if x.m != 3:
        raise InvalidSymbol(f"contribution colouring needs alphabet [3], got [{x.m}]")
    vec = [0] * length
    seen_12 = 0
    for s in x.symbols:
        if s == 1:
            a = seen_12 % length
            vec[a] = (vec[a] + 1) % modulus
        if s in (1, 2):
            seen_12 += 1
    return tuple(vec)


@dataclass(frozen=True)
class ContributionColouring(Colouring):
    """Adversarial colouring with colours in Z_modulus^length.

    Built so that moving a single 1 between blocks shifts exactly one basis
    contribution; the colour depends only on the subsequence of 1s and 2s.
    """

    modulus: int
    length: int
    neutral_symbols = frozenset({3})

    def __post_init__(self) -> None:
        if self.modulus < 2 or self.length < 1:
            raise ValueError(f"need modulus >= 2 and length >= 1, got {self}")

    @property
    def colour_count(self) -> int:  # type: ignore[override]
        return self.modulus**self.length

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"contribution:m={self.modulus},l={self.length}"

    def vector(self, w: Word) -> tuple[int, ...]:
        return contribution_colour(w, self.modulus, self.length)

    def colour_id(self, w: Word) -> int:
        return vector_to_id(self.vector(w), self.modulus)

    def colour_ids(self, words: np.ndarray) -> np.ndarray:
        """`colour_id` of int8 words over [3]: the 1 at i adds e_a, a = the 1s and 2s before i mod `length`.

        Only the digits a below the words' largest count of 1s and 2s (and
        below `length`) can be nonzero, so only those are summed; ids that
        could reach 2**63 are refused.  The words are read a coordinate at a
        time, as contiguous rows, so that the running counts run down them.
        """
        if words.size and (words.min() < 1 or words.max() > 3):
            raise InvalidSymbol("contribution colouring needs alphabet [3]")
        rows = np.ascontiguousarray(words.reshape(math.prod(words.shape[:-1]), words.shape[-1]).T)
        ones, counted = rows == 1, rows <= 2
        upto = np.cumsum(counted, axis=0, dtype=np.min_scalar_type(len(rows)))
        most = int(upto[-1].max(initial=0)) if len(rows) else 0
        reach = min(self.length, most)
        if self.id_bound(most) > 2**63:  # deleting the 3s leaves a word of at most `most` letters, of the same colour
            raise CapacityExceeded(f"{self.name} ids of words with {reach} or more 1s and 2s pass int64")
        slot = (upto - counted) % self.length
        ids = np.zeros(rows.shape[1:], np.int64)
        for a in range(reach):  # the id's digit a, modulus^a, is coordinate a of the vector
            ids += (ones & (slot == a)).sum(axis=0, dtype=np.int64) % self.modulus * self.modulus**a
        return ids.reshape(words.shape[:-1])

    def dense_table(self, n: int, m: int) -> np.ndarray:
        """Incremental table over packed indices.

        Appending a symbol at the next (most significant) coordinate updates
        the colour from the prefix colour and the prefix's count of 1s-and-2s
        (mod `length`); the three symbol choices become three contiguous index
        blocks, filled in place in one preallocated table.
        """
        if m != 3:
            raise InvalidSymbol(f"contribution colouring needs alphabet [3], got [{m}]")
        mod, length = self.modulus, self.length
        table = np.zeros(3**n, dtype=np.int64)
        count12 = np.zeros(3**n, dtype=np.min_scalar_type(length))
        for size in (3**i for i in range(n)):
            prefix, two, three = table[:size], table[size : 2 * size], table[2 * size : 3 * size]
            two[:], three[:] = prefix, prefix
            power = np.power(mod, count12[:size], dtype=np.int64)
            np.floor_divide(prefix, power, out=three)  # borrowed as a buffer: the digit that a 1 bumps
            np.remainder(three, mod, out=three)
            np.multiply(power, 1 - mod, out=power, where=three == mod - 1)  # it wraps to 0
            prefix += power
            three[:] = two
            count12[2 * size : 3 * size] = count12[:size]
            count12[size : 2 * size] = (count12[:size] + 1) % length
            count12[:size] = count12[size : 2 * size]
        return table

    def id_bound(self, n: int) -> int:
        """A word of n letters reaches only the digits below min(n, length)."""
        return self.modulus ** min(n, self.length)

    def alphabet_table(self, n: int, m: int, letters: tuple[int, ...]) -> np.ndarray:
        """Per-length recurrence over words of 1s and 2s: appending a 1 to a word of k letters adds e_(k mod length).

        A word with 3s, neutral here, takes the generic walk.
        """
        if m != 3 or not set(letters) <= {1, 2}:
            return super().alphabet_table(n, m, letters)
        mod, tables = self.modulus, [np.zeros(1, dtype=np.int64)]
        for k in range(n):
            table, power = tables[-1], mod ** (k % self.length)
            bumped = table + np.where(table // power % mod == mod - 1, (1 - mod) * power, power)
            tables.append(np.concatenate([bumped if s == 1 else table for s in letters]))
        return _alphabet_table(tables, len(letters))


@dataclass(frozen=True, eq=False)  # an array field takes no part in == or hashing
class TableColouring(Colouring):
    """Colouring of [m]^n by a packed table: word w has colour ids[w.index], or none where that id is -1."""

    ids: np.ndarray
    n: int
    m: int
    colour_count: int = 1
    name: str = "table"

    def colour_id(self, w: Word) -> int:
        c = self.ids.item(w.index) if len(w.symbols) == self.n and w.m == self.m else -1
        if c < 0:
            raise DomainError(f"word {w} outside table domain")
        return c

    def dense_table(self, n: int, m: int) -> np.ndarray:
        """A copy of the table, so that `colour_id` never reads the array a scan was given."""
        if (n, m) != (self.n, self.m) or self.ids.min() < 0:
            raise DomainError(f"table {self.name} does not cover exactly [{m}]^{n}")
        return self.ids.copy()

    @property
    def entries(self) -> dict[Word, int]:
        """The coloured words and their ids, in `all_words` order."""
        return {w: c for w, c in zip(all_words(self.n, self.m), self.ordered_ids().tolist()) if c >= 0}

    def ordered_ids(self) -> np.ndarray:
        """The ids in `all_words` order, -1 included (`ids` has coordinate 1 least significant)."""
        return self.ids.reshape((self.m,) * self.n).transpose().ravel()


def table_colouring(entries: dict[Word, int], colour_count: Optional[int] = None, name: str = "table") -> TableColouring:
    """The table colouring with these entries; `colour_count` defaults to the largest id plus one."""
    shapes = {(w.n, w.m) for w in entries}
    if len(shapes) != 1 or min(entries.values()) < 0:
        raise DomainError(f"table {name} needs words of one length and alphabet, with ids >= 0")
    ((n, m),) = shapes
    check_entries(f"table {name} of [{m}]^{n}", m**n)
    ids = np.full(m**n, -1, np.int64)
    ids[[w.index for w in entries]] = list(entries.values())
    return TableColouring(ids, n, m, max(entries.values()) + 1 if colour_count is None else colour_count, name)


def random_table_colouring(n: int, m: int, k: int, seed: int) -> TableColouring:
    """Seeded uniform random k-colouring of [m]^n (reproducible across runs)."""
    if k < 1:
        raise ValueError(f"need k >= 1 colours, got {k}")
    name = f"random:k={k},seed={seed}"
    check_entries(f"table {name} of [{m}]^{n}", m**n)
    return TableColouring(np.random.default_rng(seed).integers(0, k, size=m**n), n, m, k, name)


def substitute(x: Word, w: Word) -> Word:
    """Insert the letters of w, in order, at the positions of the 2s in x.

    x must contain no 1s and exactly len(w) 2s; elsewhere x is unchanged.
    """
    slots = [i for i, s in enumerate(x.symbols) if s == 2]
    if any(s == 1 for s in x.symbols):
        raise SubstitutionMismatch(f"slot word {x} contains a 1")
    if len(slots) != w.n:
        raise SubstitutionMismatch(f"{len(slots)} slots in {x} but {w.n} letters in {w}")
    syms = list(x.symbols)
    for pos, letter in zip(slots, w.symbols):
        syms[pos] = letter
    return Word(tuple(syms), x.m)


@dataclass(frozen=True)
class BalancedFamily:
    """All length-(2k+2) words over [2] with exactly k+1 1s, lexicographically."""

    k: int
    members: tuple[Word, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def balanced_words(k: int) -> BalancedFamily:
    """The balanced binary family of parameter k; its size is C(2k+2, k+1)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    length = 2 * k + 2
    members = []
    for ones in itertools.combinations(range(length), k + 1):
        syms = [2] * length
        for pos in ones:
            syms[pos] = 1
        members.append(Word(tuple(syms), 2))
    members.sort(key=lambda w: w.symbols)
    return BalancedFamily(k, tuple(members))


def flipped_block_word(i: int, k: int) -> Word:
    """k+1 copies of "12" with the i-th copy flipped to "21"."""
    if not 1 <= i <= k + 1:
        raise IndexOutOfRange(f"block index {i} outside [1, {k + 1}]")
    syms: list[int] = []
    for block in range(1, k + 2):
        syms.extend((2, 1) if block == i else (1, 2))
    return Word(tuple(syms), 2)


def is_slot_word(x: Word, k: int) -> bool:
    """True when x has exactly 2k+2 2s and no 1s."""
    p = profile(x)
    return p.counts[0] == 0 and p.counts[1] == 2 * k + 2


def slot_word_for(positions: Sequence[int], n: int) -> Word:
    """Word over [3] with 2s at the given 1-based positions and 3s elsewhere."""
    syms = [3] * n
    for pos in positions:
        if not 1 <= pos <= n:
            raise ValueError(f"slot position {pos} is outside [1, {n}]")
        syms[pos - 1] = 2
    return Word(tuple(syms), 3)


@dataclass(frozen=True)
class InducedColouring(Colouring):
    """Colour a slot word by the tuple of base colours of all substitutions.

    Defined on words with exactly 2k+2 2s and no 1s; the colour is the tuple
    (base(sub(x, w)) for w in the balanced family), in family order.
    """

    base: Colouring
    k: int
    family: BalancedFamily = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", balanced_words(self.k))

    @property
    def colour_count(self) -> int:  # type: ignore[override]
        return self.base.colour_count ** self.family.size

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"induced:base={self.base.name},k={self.k}"

    def colour_tuple(self, x: Word) -> tuple[int, ...]:
        if not is_slot_word(x, self.k):
            raise NotSlotWord(f"{x} does not have exactly {2 * self.k + 2} 2s and no 1s")
        return tuple(self.base.colour_id(substitute(x, w)) for w in self.family.members)

    def colour_id(self, x: Word) -> int:
        return vector_to_id(self.colour_tuple(x), self.base.colour_count)
