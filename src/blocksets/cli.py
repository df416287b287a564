"""Command-line surface: evaluate colourings, enumerate placements, run searches.

Reports are emitted as JSON (schema-stable), CSV (one found-entry per row) or
text (human-oriented).  Exit codes: 0 completed, 1 usage error, 2 node budget
exceeded, 3 internal error (a result failed its own re-check).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import os
import sys
import time
from typing import Iterator, Optional, Sequence

from . import blocks, colourings, lattice, search
from .words import check_entries, encode_word


class UsageError(ValueError):
    """Invalid flags or flag combinations; aggregated before reporting."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with status 2."""

    def error(self, message: str):
        raise UsageError(message)


def _default_workers() -> int:
    return min(os.cpu_count() or 1, 8)


# ---------------------------------------------------------------------------
# colouring spec strings


def parse_word_colouring(spec: str, seed: int = 0, n: int = 0, m: int = 3) -> colourings.Colouring:
    """Parse specs like "contribution:m=2,l=2", "table:@file.json",
    "induced:base=<spec>,k=2", "random:k=4", "constant:c=0,k=1",
    "countmod:s=1,k=2"."""
    kind, _, rest = spec.partition(":")
    if kind == "contribution":
        opts = _parse_opts(spec, {"m", "l"})
        return colourings.ContributionColouring(opts["m"], opts["l"])
    if kind == "table":
        if not rest.startswith("@"):
            raise UsageError(f"table spec needs a file: table:@file.json, got {spec!r}")
        return _load_table(rest[1:])
    if kind == "induced":
        if not rest.startswith("base="):
            raise UsageError(f"induced spec needs base=<spec>,k=<int>, got {spec!r}")
        body = rest[len("base="):]
        cut = body.rfind(",k=")
        if cut < 0:
            raise UsageError(f"induced spec needs a trailing ,k=<int>, got {spec!r}")
        base = parse_word_colouring(body[:cut], seed, n, m)
        return colourings.InducedColouring(base, _int(body[cut + 3:], f"option k of colouring {spec!r}"))
    if kind == "random":
        opts = _parse_opts(spec, {"k"})
        if n <= 0:
            raise UsageError("random colouring needs a word length from --n")
        return colourings.random_table_colouring(n, m, opts["k"], seed)
    if kind == "constant":
        opts = _parse_opts(spec, {"c", "k"}, optional=True)
        return colourings.ConstantColouring(opts.get("c", 0), opts.get("k", 1))
    if kind == "countmod":
        opts = _parse_opts(spec, {"s", "k"})
        return colourings.ModularCountColouring(opts["s"], opts["k"])
    raise UsageError(f"unknown colouring spec {spec!r}")


def parse_lattice_colouring(spec: str, box: lattice.Box, seed: int = 0) -> lattice.LatticeColouring | colourings.Colouring:
    """Parse "coordsum:d=2", "constant:c=0,k=1" or "random:k=4" over a box."""
    kind = spec.partition(":")[0]
    if kind == "coordsum":
        return lattice.CoordinateSumColouring(_parse_opts(spec, {"d"})["d"])
    if kind == "constant":
        opts = _parse_opts(spec, {"c", "k"}, optional=True)
        return colourings.ConstantColouring(opts.get("c", 0), opts.get("k", 1))
    if kind == "random":
        return lattice.random_lattice_colouring(box, _parse_opts(spec, {"k"})["k"], seed)
    raise UsageError(f"unknown lattice colouring spec {spec!r}")


def _int(text: object, what: str) -> int:
    """`text` as an int; anything else is a usage error naming `what`, the flag, option or file it came from."""
    with contextlib.suppress(ValueError):
        if type(text) in (int, str):  # a float or bool would be truncated
            return int(text)
    raise UsageError(f"{what}: expected an integer, got {text!r}")


def _parse_opts(spec: str, keys: set[str], optional: bool = False) -> dict[str, int]:
    """The integer options key=value,... after the colon of a colouring spec."""
    opts: dict[str, int] = {}
    rest = spec.partition(":")[2]
    if rest:
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq or key not in keys:
                raise UsageError(f"bad colouring option {part!r} (expected one of {sorted(keys)})")
            opts[key] = _int(value, f"option {key} of colouring {spec!r}")
    if not optional:
        missing = keys - opts.keys()
        if missing:
            raise UsageError(f"colouring spec missing options: {sorted(missing)}")
    return opts


def _load_table(path: str) -> colourings.TableColouring:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not raw:
        raise UsageError(f"table file {path} must be a non-empty JSON object")
    m = max([2] + [_int(ch, f"table file {path} key {word!r}") for word in raw for ch in word])
    entries = {encode_word(word, m): _int(cid, f"table file {path} value of {word!r}") for word, cid in raw.items()}
    return colourings.table_colouring(entries, name=f"table:@{path}")


# ---------------------------------------------------------------------------
# report output


def emit_report(report: dict, out_format: str, stream, stable: bool = False) -> None:
    """Serialize a report dict.  JSON is schema-stable; CSV flattens the found
    list one entry per row; text is human-oriented.  A scan's `search.Found`
    and a witness's `colourings.TableColouring` are written from their arrays
    in every format, as their plain forms would be: the entry dicts of
    `SearchReport.to_json_dict()`, and the object of each coloured word's
    digit string ("1321") and id, which is one cell or line in CSV and text."""
    if stable and "elapsed_ms" in report:
        report = dict(report, elapsed_ms=0.0)
    if out_format == "json":
        for key, value in report.items():
            if isinstance(value, (search.Found, colourings.TableColouring)):
                # the pure-Python encoder that indent= runs costs as much as a scan on a long list of hits
                head, tail = json.dumps(dict(report, **{key: []}), sort_keys=True, indent=2).split(f'\n  "{key}": []')
                stream.write(f'{head}\n  "{key}": ')
                if isinstance(value, search.Found):
                    _write_found(value, stream)
                else:
                    stream.write(_digit_object(value, "  "))
                stream.write(tail + "\n")
                return
        json.dump(report, stream, sort_keys=True, indent=2)
        stream.write("\n")
    elif out_format in ("csv", "text"):
        report = {k: _digit_object(v, None) if isinstance(v, colourings.TableColouring) else v for k, v in report.items()}
        (_emit_csv if out_format == "csv" else _emit_text)(report, stream)
    else:
        raise UsageError(f"unknown format {out_format!r}")


def _separators(pad: Optional[str]) -> tuple[str, str, str]:
    """What json.dumps writes after the opening bracket, between the items and before the closing bracket
    of a list or object whose line is indented by `pad` (indent=2), or that shares its line (pad None)."""
    return ("", ", ", "") if pad is None else (f"\n{pad}  ", f",\n{pad}  ", f"\n{pad}")


def _laid_out(brackets: str, items: list[str], separators: tuple[str, str, str]) -> str:
    """Laid-out items in brackets, as json.dumps writes a list or object."""
    opening, between, closing = separators
    return f"{brackets[0]}{opening}{between.join(items)}{closing}{brackets[1]}" if items else brackets


def _found_runs(found: search.Found, pad: Optional[str]) -> Iterator[tuple[str, list[str], Iterator]]:
    """Each run of hits (`Found.runs`) as %-templates, and one tuple a hit that fills them in.

    The templates are a found entry laid out (`_laid_out`) at `pad` and the
    values of its keys: colour, placement and, for a vector-valued colouring,
    vector.  The hits of a run share their blocks, n and pattern, so the
    templates are built once, with the reference keys sorted as strings; each
    hit fills in its colour, reference symbols and vector digits, the columns
    of its row.
    """
    seps = [_separators(None if pad is None else pad + "  " * depth) for depth in range(4)]  # by depth in the entry
    for run in found.runs():
        blocks = _laid_out("[]", [_laid_out("[]", [str(c) for c in block], seps[3]) for block in run.blocks], seps[2])
        keys = sorted(run.free, key=str)
        reference = _laid_out("{}", [f'"{c}": "%d"' for c in keys], seps[2])
        pattern = "null" if run.pattern is None else f'"{run.pattern}"'
        placement = [f'"blocks": {blocks}', f'"n": {found.n}', f'"pattern": {pattern}', f'"reference": {reference}']
        cells = ["%d", _laid_out("{}", placement, seps[1])]
        digits = range(found.n + 1, len(run.rows[0]))
        if digits:
            cells.append(_laid_out("[]", ["%d"] * len(digits), seps[1]))
        entry = _laid_out("{}", [f'"{k}": {cell}' for k, cell in zip(("colour", "placement", "vector"), cells)], seps[0])
        # one column alone comes as an int, which % takes too
        yield entry, cells, map(operator.itemgetter(0, *keys, *digits), run.rows)


def _write_found(found: search.Found, stream) -> None:
    """A scan's found list, as json.dump(report, stream, sort_keys=True, indent=2) writes its entry dicts, one run at a time."""
    if not len(found):
        stream.write("[]")
        return
    separator = "[\n"
    for entry, _, hits in _found_runs(found, "    "):
        entry = "    " + entry
        stream.write(separator + ",\n".join([entry % hit for hit in hits]))
        separator = ",\n"
    stream.write("\n  ]")


def _digit_object(table: colourings.TableColouring, pad: Optional[str]) -> str:
    """A witness table's digit string -> id object, laid out at `pad`; `all_words` order sorts its keys."""
    keys = map("".join, itertools.product("123456789"[: table.m], repeat=table.n))
    items = [f'"{key}": {c}' for key, c in zip(keys, table.ordered_ids().tolist()) if c >= 0]
    return _laid_out("{}", items, _separators(pad))


def _emit_csv(report: dict, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    found = report.get("found")
    if found is None:
        keys = sorted(report)
        writer.writerow(keys)
        writer.writerow([_cell(report[k]) for k in keys])
        return
    if isinstance(found, search.Found):
        vectors = len(found) > 0 and isinstance(found.colouring, colourings.ContributionColouring)
        writer.writerow(["colour", "placement", "vector"][: 2 + vectors])
        for _, cells, hits in _found_runs(found, None):
            # digits filled in for %d never change whether a cell needs quotes
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow(cells)
            stream.write("".join([line.getvalue() % hit for hit in hits]))
        return
    keys = sorted({k for entry in found for k in entry}) or ["colour", "placement"]
    writer.writerow(keys)
    for entry in found:
        writer.writerow([_cell(entry.get(k)) for k in keys])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int, float)):
        return str(value)
    return json.dumps(value, sort_keys=True)


def _emit_text(report: dict, stream) -> None:
    for key in sorted(report):
        value = report[key]
        if key in ("vector", "tuple") and isinstance(value, list):
            stream.write(f"{key}: ({', '.join(str(v) for v in value)})\n")
        elif key == "found" and isinstance(value, search.Found):
            stream.write(f"found: {len(value)}\n")
            for entry, _, hits in _found_runs(value, None):
                line = f"  {entry}\n"
                stream.write("".join([line % hit for hit in hits]))
        elif key == "found" and isinstance(value, list):
            stream.write(f"found: {len(value)}\n")
            for entry in value:
                stream.write(f"  {json.dumps(entry, sort_keys=True)}\n")
        elif key == "points" and isinstance(value, list):
            stream.write(f"points: {len(value)}\n")
            for word in value:
                stream.write(f"  {word}\n")
        else:
            stream.write(f"{key}: {_cell(value)}\n")


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process (a build takes milliseconds); parsing leaves it unchanged."""
    parser = _Parser(prog="blocksets", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, workers: bool = True, colouring: bool = False) -> None:
        if colouring:  # a random colouring is drawn from --seed
            p.add_argument("--colouring", required=True)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--output", default=None, help="write the report to this path")
        p.add_argument("--stable", action="store_true", help="zero timing fields")
        if workers:
            p.add_argument("--workers", type=int, default=_default_workers())

    colour = top.add_parser("colour").add_subparsers(dest="subcommand", required=True)
    p = colour.add_parser("eval", help="evaluate a colouring on one word")
    p.add_argument("--word", required=True)
    p.add_argument("--m", type=int, default=3)
    common(p, workers=False, colouring=True)
    p.set_defaults(format="text")

    blockset = top.add_parser("blockset").add_subparsers(dest="subcommand", required=True)
    p = blockset.add_parser("points", help="list the words a placement generates")
    p.add_argument("--template", required=True)
    p.add_argument("--blocks", required=True, help='e.g. "1,6;2,5;3,4"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reference", default="", help="symbols for the non-block coordinates, in order")
    common(p, workers=False)
    p.set_defaults(format="text")
    p = blockset.add_parser("enum", help="enumerate placements")
    p.add_argument("--template", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size-mode", required=True)
    p.add_argument("--pattern", default=None)
    p.add_argument("--reference-domain", default=None, help='symbols, e.g. "12"')
    p.add_argument("--limit", type=int, default=None)
    common(p, workers=False)

    searchp = top.add_parser("search").add_subparsers(dest="subcommand", required=True)
    p = searchp.add_parser("mono", help="find the first monochromatic placement")
    p.add_argument("--template", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size-mode", required=True)
    p.add_argument("--pattern", default=None)
    p.add_argument("--reference-domain", default=None)
    common(p, colouring=True)
    p = searchp.add_parser("witness", help="search for a colouring with no monochromatic placement")
    p.add_argument("--template", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size-mode", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    common(p, workers=False)

    verify = top.add_parser("verify").add_subparsers(dest="subcommand", required=True)
    p = verify.add_parser("thm2", help="exhaustive absence check for the layered colouring at degree d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pq", default=None, help="override template as 1 2^p 3^q, e.g. --pq 1,2")
    p.add_argument("--equal-size", action="store_true", help="equal-size blocks instead of sizes <= d")
    p.add_argument("--max-size", type=int, default=None,
                   help="verify blocks of size <= this instead of <= d (e.g. d-1)")
    common(p)

    extract = top.add_parser("extract").add_subparsers(dest="subcommand", required=True)
    p = extract.add_parser("thm3", help="extract a monochromatic ABCCBA copy of 123")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", default=None, help="comma-separated homogeneous set (found by search if omitted)")
    common(p, workers=False, colouring=True)

    latticep = top.add_parser("lattice").add_subparsers(dest="subcommand", required=True)
    box_help = 'lo..hi^n with n >= 1, e.g. "0..3^2"; a negative lo needs the = form, --box=-2..2^3'
    p = latticep.add_parser("ap", help="monochromatic x-v, x, x+v search")
    p.add_argument("--box", required=True, help=box_help)
    p.add_argument("--d", type=int, required=True)
    common(p, colouring=True)
    p = latticep.add_parser("ball", help="monochromatic generated-ball search")
    p.add_argument("--box", required=True, help=box_help)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p, colouring=True)

    return parser


def _parse_blocks(text: str) -> list[list[int]]:
    return [[_int(c, f"--blocks {text!r}") for c in chunk.split(",")] for chunk in text.split(";")]


def _check_args(args: argparse.Namespace) -> None:
    """Validate parsed flags in place, aggregating every problem into one message.

    `--template` and `--size-mode` are replaced by the objects they name.
    """
    problems: list[str] = []

    def at_least(name: str, floor: int) -> None:
        value = getattr(args, name, None)
        if value is not None and value < floor:
            problems.append(f"--{name.replace('_', '-')} must be >= {floor}, got {value}")

    at_least("workers", 1)
    at_least("budget", 1)
    if hasattr(args, "template"):
        try:
            args.template = blocks.template_from_word(args.template)
        except ValueError as exc:
            problems.append(str(exc))
    at_least("n", 0)
    at_least("d", 1)
    at_least("k", 1)
    at_least("r", 1)
    at_least("t", 1)
    at_least("max_size", 1)
    at_least("limit", 0)
    if hasattr(args, "size_mode"):
        try:
            args.size_mode = blocks.parse_sizemode(args.size_mode)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise UsageError("; ".join(problems))


# ---------------------------------------------------------------------------
# dispatch


def _run_colour_eval(args: argparse.Namespace) -> dict:
    word = encode_word(args.word, args.m)
    colouring = parse_word_colouring(args.colouring, args.seed, word.n, args.m)
    report = {
        "op": "colour_eval",
        "word": str(word),
        "colouring": colouring.name,
        "id": colouring.colour_id(word),
    }
    if isinstance(colouring, colourings.ContributionColouring):
        report["vector"] = list(colouring.vector(word))
    if isinstance(colouring, colourings.InducedColouring):
        report["tuple"] = list(colouring.colour_tuple(word))
    return report


def _run_blockset_points(args: argparse.Namespace) -> dict:
    raw_blocks = _parse_blocks(args.blocks)
    in_blocks = sorted(c for b in raw_blocks for c in b)
    complement = [c for c in range(1, args.n + 1) if c not in in_blocks]
    if len(args.reference) != len(complement):
        raise UsageError(
            f"reference has {len(args.reference)} symbols for {len(complement)} non-block coordinates"
        )
    reference = {c: _int(ch, "--reference") for c, ch in zip(complement, args.reference)}
    sizes = {len(b) for b in raw_blocks}
    sizemode = blocks.EqualSize(sizes.pop()) if len(sizes) == 1 else blocks.MixedSize(max(sizes))
    placement = blocks.make_placement(args.n, raw_blocks, reference, sizemode)
    points = sorted(blocks.blockset_points(placement, args.template), key=lambda w: w.symbols)
    return {
        "op": "blockset_points",
        "template": str(args.template),
        "placement": placement.to_json_dict(),
        "points": [str(w) for w in points],
        "count": len(points),
    }


def _run_blockset_enum(args: argparse.Namespace) -> dict:
    """The placements, counted first and refused as a scan's listing is: n + s entries a placement."""
    n, t, sizemode, pattern, domain = args.n, args.template, args.size_mode, args.pattern, _reference_domain(args)
    symbols = len(blocks.reference_symbols(t, domain))
    if pattern is None:
        count = blocks.placement_count(n, t, sizemode, symbols)
    else:  # s first-occurrence letters, each a block of an allowed size, fit each |pattern|-subset of [n] once
        letters = [chr(ord("A") + j) for j in range(t.s)]
        fits = list(dict.fromkeys(pattern)) == letters and all(pattern.count(c) in sizemode.size_range() for c in letters)
        count = math.comb(n, len(pattern)) * symbols ** max(n - len(pattern), 0) if fits else 0
    count = count if args.limit is None else min(count, args.limit)
    check_entries(f"listing the {count:,} placements at n={n}", count * (n + t.s))
    out = []
    truncated = False
    for placement in blocks.enumerate_placements(n, t, sizemode, pattern, domain):
        if args.limit is not None and len(out) >= args.limit:
            truncated = True
            break
        out.append(placement.to_json_dict())
    return {
        "op": "blockset_enum",
        "params": {
            "template": str(args.template),
            "n": args.n,
            "sizemode": str(args.size_mode),
            "pattern": args.pattern,
        },
        "placements": out,
        "count": len(out),
        "truncated": truncated,
    }


def _reference_domain(args: argparse.Namespace) -> Optional[list[int]]:
    if not args.reference_domain:
        return None
    return [_int(ch, "--reference-domain") for ch in args.reference_domain]


def _run_search_mono(args: argparse.Namespace) -> dict:
    colouring = parse_word_colouring(args.colouring, args.seed, args.n, args.template.m)
    return search.verify_absence(
        colouring, args.n, args.template, args.size_mode, args.pattern, _reference_domain(args),
        args.workers, first_only=True,
    ).to_json_dict(entries=False)


def _run_search_witness(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    nodes = None
    try:
        witness = search.witness_search(args.n, args.template, args.size_mode, args.k, args.budget)
        status = "none" if witness is None else "witness"
    except search.BudgetExceeded as exc:
        witness, status, nodes = None, "budget_exceeded", exc.nodes
    elapsed = (time.perf_counter() - t0) * 1000.0
    report = {
        "params": {
            "op": "witness_search",
            "n": args.n,
            "template": str(args.template),
            "sizemode": str(args.size_mode),
            "k": args.k,
            "budget": args.budget,
        },
        "status": status,
        "colouring": witness,
        "elapsed_ms": round(elapsed, 3),
        "budget_exhausted": nodes is not None,
    }
    if nodes is not None:
        report["nodes"] = nodes
    return report


def degree_setup(d: int, pq: Optional[tuple[int, int]] = None) -> tuple[blocks.Template, colourings.ContributionColouring]:
    """Template and colouring for the degree-d absence run.

    Default template is one 1, d 2s and d^3 3s with colour parameters
    (d+1, d^2+1); the p,q override uses one 1, p 2s, q 3s with vector length
    p*d+1.
    """
    if pq is None:
        counts = (1, d, d**3)
        length = d * d + 1
    else:
        p, q = pq
        counts = (1, p, q)
        length = p * d + 1
    return blocks.template_from_counts(3, counts), colourings.ContributionColouring(d + 1, length)


def _run_verify_thm2(args: argparse.Namespace) -> dict:
    pq = None
    if args.pq:
        p, _, q = args.pq.partition(",")
        pq = (_int(p, f"--pq {args.pq!r}"), _int(q, f"--pq {args.pq!r}"))
    t, colouring = degree_setup(args.d, pq)
    size = args.d if args.max_size is None else args.max_size
    sizemode = blocks.EqualSize(size) if args.equal_size else blocks.MixedSize(size)
    return search.verify_absence(colouring, args.n, t, sizemode, workers=args.workers).to_json_dict(entries=False)


def _run_extract_thm3(args: argparse.Namespace) -> dict:
    k = args.k
    base = parse_word_colouring(args.colouring, args.seed, args.n, 3)
    params = {"op": "extract_abccba", "colouring": base.name, "k": k, "n": args.n}
    theta = search.induced_subset_colouring(base, k, args.n)
    if args.set:
        members = tuple(sorted(_int(c, "--set") for c in args.set.split(",")))
        homog = search.HomogeneousSet(args.n, 2 * k + 2, members, None)  # checks the members before any is coloured
        homog = dataclasses.replace(homog, colour=theta.colour(members[: 2 * k + 2]))
    else:
        homog = search.homogeneous_subset_search(theta, 2 * k + 4)
        if homog is None:
            return {"params": params, "status": "no_homogeneous_set", "found": []}
    placement, colour_id = search.extract_abccba(base, k, homog)
    return {
        "params": params,
        "status": "found",
        "set": list(homog.members),
        "found": [{"placement": placement.to_json_dict(), "colour": colour_id}],
    }


def _run_lattice(args: argparse.Namespace) -> dict:
    """`lattice ap` is the r = t = 1 ball search; its report names x and v."""
    box = lattice.parse_box(args.box)
    colouring = parse_lattice_colouring(args.colouring, box, args.seed)
    params = {"colouring": colouring.name, "box": str(box), "d": args.d}
    t0 = time.perf_counter()
    if args.subcommand == "ap":
        hit = lattice.search_l1_ap(colouring, box, args.d, args.workers)
        params["op"] = "search_l1_ap"
        found = [] if hit is None else [{"x": list(hit[0]), "v": list(hit[1])}]
    else:
        hit = lattice.search_generated_ball(colouring, box, args.r, args.t, args.d, args.workers)
        params.update(op="search_generated_ball", r=args.r, t=args.t)
        found = [] if hit is None else [{"centre": list(hit[0]), "generators": [list(u) for u in hit[1].vectors]}]
    elapsed = (time.perf_counter() - t0) * 1000.0
    return {
        "params": params,
        "found": found,
        "elapsed_ms": round(elapsed, 3),
        "workers": args.workers,
        "budget_exhausted": False,
    }


_HANDLERS = {
    ("colour", "eval"): _run_colour_eval,
    ("blockset", "points"): _run_blockset_points,
    ("blockset", "enum"): _run_blockset_enum,
    ("search", "mono"): _run_search_mono,
    ("search", "witness"): _run_search_witness,
    ("verify", "thm2"): _run_verify_thm2,
    ("extract", "thm3"): _run_extract_thm3,
    ("lattice", "ap"): _run_lattice,
    ("lattice", "ball"): _run_lattice,
}


def parse_and_dispatch(argv: Sequence[str], stdout=None, stderr=None) -> int:
    """Parse flags, run the matching operation, emit one report.

    Usage errors produce a single aggregated message on stderr and exit code
    1, never a partial report; a report whose status is `budget_exceeded`
    exits 2.  Running out of memory exits 1 with one message too: stdout
    holds nothing when it happens while the report is built, and the part of
    the report already written when it happens while a scan's found list is
    written.  A result that fails its own re-check (`ExtractionContradiction`)
    is an internal error: one message on stderr, no report, exit code 3.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(list(argv))
        _check_args(args)
        report = _HANDLERS[(args.command, args.subcommand)](args)
        try:
            if args.output:
                with open(args.output, "w") as fh:
                    emit_report(report, args.format, fh, args.stable)
            else:
                emit_report(report, args.format, stdout, args.stable)
        except OSError as exc:
            stderr.write(f"blocksets: error: cannot write report: {exc}\n")
            return 1
    except (UsageError, ValueError, KeyError, OSError) as exc:
        stderr.write(f"blocksets: error: {exc}\n")
        return 1
    except MemoryError:
        stderr.write("blocksets: error: out of memory while building the report\n")
        return 1
    except search.ExtractionContradiction as exc:
        stderr.write(f"blocksets: internal error: {exc}\n")
        return 3
    return 2 if report.get("status") == "budget_exceeded" else 0


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
