"""Independent oracles for the benchmark's output checks.

Nothing here calls into blocksets: placements arrive as plain data (the CLI's
JSON form) and are expanded, counted and coloured by code written from the
definitions, so a wrong answer from the program cannot also fool its check.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from typing import Callable, Mapping, Sequence

Symbols = tuple[int, ...]


class WrongAnswer(Exception):
    """An op returned an answer that failed its output check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@functools.cache
def arrangements(template: str) -> list[Symbols]:
    """Distinct permutations of the template letters."""
    return sorted(set(itertools.permutations(int(ch) for ch in template)))


def placement_words(placement: Mapping, template: str) -> list[Symbols]:
    """The words a placement generates, from its JSON form.

    `placement` has "n", "blocks" (lists of 1-based coordinates) and
    "reference" (coordinate -> symbol, both as strings).
    """
    base = [0] * placement["n"]
    for coord, symbol in placement["reference"].items():
        base[int(coord) - 1] = int(symbol)
    blocks = placement["blocks"]
    expect(len(blocks) == len(template), f"{len(blocks)} blocks for template {template}")
    covered = sorted(c for block in blocks for c in block) + [int(c) for c in placement["reference"]]
    expect(sorted(covered) == list(range(1, placement["n"] + 1)), f"placement {placement} does not partition [1, n]")
    words = []
    for arrangement in arrangements(template):
        syms = base[:]
        for block, value in zip(blocks, arrangement):
            for coord in block:
                syms[coord - 1] = value
        words.append(tuple(syms))
    return words


def placement_json(n: int, blocks: Sequence[Sequence[int]], reference: Sequence[tuple[int, int]]) -> dict:
    """Plain-data form of a placement, the same shape the CLI emits."""
    return {
        "n": n,
        "blocks": [list(block) for block in blocks],
        "reference": {str(coord): str(symbol) for coord, symbol in reference},
    }


def contribution_id(word: Symbols, modulus: int, length: int) -> int:
    """Colour id of the layered contribution colouring, from its definition.

    The 1 at coordinate i adds the basis vector e_a, where a counts the 1s and
    2s before i modulo `length`; the vector is encoded mixed-radix with entry 0
    least significant.
    """
    vec = [0] * length
    seen = 0
    for s in word:
        if s == 1:
            vec[seen % length] += 1
        if s in (1, 2):
            seen += 1
    return sum((v % modulus) * modulus**i for i, v in enumerate(vec))


def check_monochromatic(found: Sequence[Mapping], template: str, colour_of: Callable[[Symbols], int]) -> None:
    """Every found entry is monochromatic in its reported colour."""
    for entry in found:
        for word in placement_words(entry["placement"], template):
            got = colour_of(word)
            expect(got == entry["colour"], f"{word} has colour {got}, reported {entry['colour']}")


def _family_shapes(s: int, dmax: int, n: int) -> list[tuple[int, ...]]:
    return [
        sizes
        for sizes in itertools.combinations_with_replacement(range(1, dmax + 1), s)
        if sum(sizes) <= n
    ]


def placement_count(n: int, s: int, dmax: int, symbols: int) -> int:
    """Closed-form number of placements of s disjoint blocks of size <= dmax.

    For a block-size multiset with total size b, the unordered families number
    n! / (prod size! * (n-b)! * prod multiplicity!), and each has symbols^(n-b)
    references.
    """
    total = 0
    for sizes in _family_shapes(s, dmax, n):
        b = sum(sizes)
        denominator = math.factorial(n - b)
        for size in sizes:
            denominator *= math.factorial(size)
        for size in set(sizes):
            denominator *= math.factorial(sizes.count(size))
        total += math.factorial(n) // denominator * symbols ** (n - b)
    return total


def canonical_families(n: int, s: int, dmax: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every family of s disjoint blocks of size <= dmax, in canonical scan order.

    A family lists its blocks by minimum element; families are ordered by their
    blocks sorted as (size, elements).
    """
    out = []

    def rec(start: int, used: frozenset, chosen: tuple) -> None:
        if len(chosen) == s:
            out.append(chosen)
            return
        for first in range(start, n + 1):
            if first in used:
                continue
            later = [c for c in range(first + 1, n + 1) if c not in used]
            for size in range(1, dmax + 1):
                for rest in itertools.combinations(later, size - 1):
                    block = (first,) + rest
                    rec(first + 1, used | set(block), chosen + (block,))

    rec(1, frozenset(), ())
    out.sort(key=lambda fam: sorted((len(b), b) for b in fam))
    return out


def placement_code(n: int, blocks: Sequence[Sequence[int]], reference: Sequence[tuple]) -> str:
    """A placement as a short string, for set comparisons.

    Character i is the letter of the block holding coordinate i (a for the
    first block, b for the second, ...) or its single-digit reference symbol.
    """
    code: list = [None] * n
    marks = [(c, letter) for letter, block in zip(string.ascii_lowercase, blocks) for c in block]
    marks += [(int(c), str(symbol)) for c, symbol in reference]
    for c, mark in marks:
        expect(1 <= c <= n and code[c - 1] is None, f"placement {blocks} {reference} does not partition [1, {n}]")
        code[c - 1] = mark
    expect(None not in code, f"placement {blocks} {reference} does not cover [1, {n}]")
    return "".join(code)


def found_key(entry: Mapping) -> tuple[str, int]:
    """A found entry (JSON form) as (placement code, colour)."""
    placement = entry["placement"]
    return placement_code(placement["n"], placement["blocks"], list(placement["reference"].items())), entry["colour"]


def check_distinct(keys: Sequence[tuple[str, int]]) -> None:
    """No found entry, given by its key, is reported twice."""
    expect(len(set(keys)) == len(keys), f"{len(keys) - len(set(keys))} found entries are duplicates")


def monochromatic_placements(
    n: int, template: str, dmax: int, symbols: Sequence[int], table: Mapping[Symbols, int]
) -> list[tuple[str, int]]:
    """Every monochromatic placement, as (placement code, colour), in canonical scan order.

    Scans all placements of `template` with blocks of size <= dmax: families in
    `canonical_families` order, references in lexicographic order over the
    non-block coordinates.  `table` colours every word of symbols^n.
    """
    base = len(symbols)
    rank = {v: i for i, v in enumerate(symbols)}
    # word -> flat index, with coordinate 1 least significant
    flat = [0] * base**n
    for word, colour in table.items():
        flat[sum(rank[s] * base**i for i, s in enumerate(word))] = colour
    out = []
    for family in canonical_families(n, len(template), dmax):
        in_blocks = {c for block in family for c in block}
        complement = [c for c in range(1, n + 1) if c not in in_blocks]
        deltas = [
            sum(rank[v] * base ** (c - 1) for block, v in zip(family, arrangement) for c in block)
            for arrangement in arrangements(template)
        ]
        first, rest = deltas[0], deltas[1:]
        starts = [0]  # flat index of each reference's word, in the order of itertools.product
        for c in complement:
            starts = [at + i * base ** (c - 1) for at in starts for i in range(base)]
        for ref, at in zip(itertools.product(symbols, repeat=len(complement)), starts):
            colour = flat[at + first]
            if all(flat[at + d] == colour for d in rest):
                out.append((placement_code(n, family, list(zip(complement, ref))), colour))
    return out


def examined_until(placement: Mapping, s: int, dmax: int, symbols: Sequence[int]) -> int:
    """Placements up to and including `placement`, in canonical scan order.

    References run in lexicographic order over the non-block coordinates.
    """
    n = placement["n"]
    target = tuple(tuple(b) for b in placement["blocks"])
    total = 0
    for family in canonical_families(n, s, dmax):
        size = sum(len(b) for b in family)
        if family == target:
            rank = 0
            for coord in sorted(placement["reference"], key=int):
                rank = rank * len(symbols) + symbols.index(int(placement["reference"][coord]))
            return total + rank + 1
        total += len(symbols) ** (n - size)
    raise WrongAnswer(f"placement {placement} is not in the placement space")


def check_witness(colouring: Mapping[str, int], n: int, k: int) -> None:
    """A witness colours all of [3]^n with k colours and leaves no placement of
    template 123 with single-coordinate blocks monochromatic."""
    expect(len(colouring) == 3**n, f"witness colours {len(colouring)} words, expected {3**n}")
    table = {}
    for text, colour in colouring.items():
        expect(len(text) == n and set(text) <= set("123"), f"bad witness word {text!r}")
        expect(0 <= colour < k, f"witness colour {colour} outside [0, {k})")
        table[tuple(int(ch) for ch in text)] = colour
    perms = list(itertools.permutations((1, 2, 3)))
    for coords in itertools.combinations(range(n), 3):
        rest = [c for c in range(n) if c not in coords]
        for ref in itertools.product((1, 2, 3), repeat=len(rest)):
            syms = [0] * n
            for c, v in zip(rest, ref):
                syms[c] = v
            colours = set()
            for perm in perms:
                for c, v in zip(coords, perm):
                    syms[c] = v
                colours.add(table[tuple(syms)])
            expect(len(colours) > 1, f"witness leaves {coords} with reference {ref} monochromatic")


def lambda_tuples(t: int, r: int) -> list[tuple[int, ...]]:
    """Integer t-tuples with l1 norm at most r."""
    return [
        lam
        for lam in itertools.product(range(-r, r + 1), repeat=t)
        if sum(abs(x) for x in lam) <= r
    ]


def check_ball(
    hit: Mapping, colour_of: Callable[[tuple[int, ...]], int], lo: int, hi: int, r: int, t: int, d: int
) -> None:
    """A reported generated ball lies in the box and is monochromatic."""
    centre = hit["centre"]
    gens = hit["generators"]
    expect(len(gens) == t, f"{len(gens)} generators, expected {t}")
    support: set[int] = set()
    for u in gens:
        expect(len(u) == len(centre), f"generator {u} has the wrong dimension")
        expect(sum(abs(x) for x in u) == d, f"generator {u} does not have l1 norm {d}")
        own = {i for i, x in enumerate(u) if x}
        expect(not own & support, f"generator {u} overlaps an earlier support")
        support |= own
    colours = set()
    for lam in lambda_tuples(t, r):
        point = tuple(c + sum(l * u[i] for l, u in zip(lam, gens)) for i, c in enumerate(centre))
        expect(all(lo <= x <= hi for x in point), f"ball point {point} leaves the box")
        colours.add(colour_of(point))
    expect(len(colours) == 1, f"ball at {centre} has colours {sorted(colours)}")
