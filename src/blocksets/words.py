"""Words over a small alphabet [m] = {1, ..., m}.

A word is a fixed-length sequence of symbols from [m], printed as a digit
string ("1321333212").  Words pack into an integer index (digits symbol-1 in
base m, coordinate 1 least significant) so that colour tables and search
ranges can be dense arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class InvalidSymbol(ValueError):
    """A symbol fell outside {1, ..., m} (or m outside the supported range)."""


class CapacityExceeded(ValueError):
    """Word too long for the packed 63-bit index, or a scan's colour table or hit lists too large."""


class ProfileMismatch(ValueError):
    """Profile counts do not describe words of the requested length."""


# Packed indices stay below 2**63 so dense tables can use int64 arrays.
PACKED_INDEX_BITS = 63

MIN_ALPHABET = 2
MAX_ALPHABET = 9  # keeps the digit-string format unambiguous

# Largest colour table a scan builds (400 MB of int64): [3]^16 fits, [3]^17 not.
# Colourings, boxes, joins, block sets and listings are held to it too; a listed
# hit is its label word (n int8 letters) and colour id, and is decoded to a
# `Placement` only for a table colouring's re-check or on request.
MAX_TABLE_ENTRIES = 50_000_000


def check_entries(what: str, entries: int) -> None:
    """Refuse an array of more than MAX_TABLE_ENTRIES entries before it is built; no other code reads the limit."""
    if entries > MAX_TABLE_ENTRIES:
        raise CapacityExceeded(f"{what} needs {entries:,} entries; the limit is {MAX_TABLE_ENTRIES:,}")


def packed_capacity(m: int) -> int:
    """Largest word length n with m**n <= 2**PACKED_INDEX_BITS."""
    n = 0
    total = 1
    limit = 1 << PACKED_INDEX_BITS
    while total * m <= limit:
        total *= m
        n += 1
    return n


_PACKED_CAPACITY = {m: packed_capacity(m) for m in range(MIN_ALPHABET, MAX_ALPHABET + 1)}


def _check_alphabet(m: int) -> None:
    if not MIN_ALPHABET <= m <= MAX_ALPHABET:
        raise InvalidSymbol(f"alphabet size must be in [{MIN_ALPHABET}, {MAX_ALPHABET}], got {m}")


@dataclass(frozen=True)
class Word:
    """Immutable word over [m]; equality and hashing follow the symbol tuple."""

    symbols: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        symbols, m = self.symbols, self.m
        if not MIN_ALPHABET <= m <= MAX_ALPHABET:
            _check_alphabet(m)  # raises
        for s in symbols:
            if not 1 <= s <= m:
                raise InvalidSymbol(f"symbol {s} outside [1, {m}]")
        if len(symbols) > _PACKED_CAPACITY[m]:
            raise CapacityExceeded(f"length {len(symbols)} exceeds packed capacity {_PACKED_CAPACITY[m]} for m={m}")

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def index(self) -> int:
        """Packed index: digits symbol-1 in base m, coordinate 1 least significant."""
        idx, m = 0, self.m
        for s in reversed(self.symbols):
            idx = idx * m + (s - 1)
        return idx

    def __str__(self) -> str:
        return "".join(str(s) for s in self.symbols)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, m={self.m})"

    def with_symbol(self, coord: int, symbol: int) -> "Word":
        """New word with 1-based coordinate `coord` set to `symbol`."""
        if not 1 <= coord <= self.n:
            raise IndexError(f"coordinate {coord} outside [1, {self.n}]")
        syms = list(self.symbols)
        syms[coord - 1] = symbol
        return Word(tuple(syms), self.m)


@dataclass(frozen=True)
class Profile:
    """Occurrence counts (n_1, ..., n_m) of each symbol."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ProfileMismatch(f"negative count in {self.counts}")

    @property
    def total(self) -> int:
        return sum(self.counts)


def encode_word(symbols: str | Sequence[int] | Iterable[int], m: int) -> Word:
    """Build a Word from a digit string or a sequence of symbols in [m]."""
    if isinstance(symbols, str):
        syms = []
        for ch in symbols:
            if not ch.isdigit() or ch == "0":
                raise InvalidSymbol(f"character {ch!r} is not a symbol in [1, {m}]")
            syms.append(int(ch))
        return Word(tuple(syms), m)
    return Word(tuple(symbols), m)


def decode_word(index: int, n: int, m: int) -> Word:
    """Inverse of Word.index for words of length n over [m]."""
    _check_alphabet(m)
    if index < 0 or index >= m**n:
        raise ValueError(f"index {index} outside [0, {m}^{n})")
    syms = []
    for _ in range(n):
        syms.append(index % m + 1)
        index //= m
    return Word(tuple(syms), m)


def profile(w: Word) -> Profile:
    """Count how many of each symbol occur in w."""
    counts = [0] * w.m
    for s in w.symbols:
        counts[s - 1] += 1
    return Profile(tuple(counts))


def multinomial(counts: Sequence[int]) -> int:
    """Number of distinct arrangements of a multiset with these multiplicities."""
    total = sum(counts)
    result = 1
    for c in counts:
        result *= math.comb(total, c)
        total -= c
    return result


def enumerate_with_profile(n: int, m: int, p: Profile) -> Iterator[Word]:
    """All words of length n over [m] with profile p, in lexicographic order.

    Yields multinomial(n; p) distinct words.  Raises ProfileMismatch when the
    counts cannot describe a length-n word over [m].
    """
    _check_alphabet(m)
    if len(p.counts) != m:
        raise ProfileMismatch(f"profile has {len(p.counts)} counts, alphabet has {m}")
    if p.total != n:
        raise ProfileMismatch(f"profile sums to {p.total}, expected length {n}")

    remaining = list(p.counts)
    prefix: list[int] = []

    def rec() -> Iterator[Word]:
        if len(prefix) == n:
            yield Word(tuple(prefix), m)
            return
        for s in range(1, m + 1):
            if remaining[s - 1] > 0:
                remaining[s - 1] -= 1
                prefix.append(s)
                yield from rec()
                prefix.pop()
                remaining[s - 1] += 1

    return rec()


def all_words(n: int, m: int) -> Iterator[Word]:
    """All words of [m]^n in lexicographic order."""
    _check_alphabet(m)
    for syms in itertools.product(range(1, m + 1), repeat=n):
        yield Word(syms, m)
