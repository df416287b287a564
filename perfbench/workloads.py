"""The benchmark's workloads: op lists, inputs built from a seed, output checks.

Every op is one call of a public blocksets entry point: the CLI's
`parse_and_dispatch` where a verb exists, the library function otherwise.
Entry points are looked up on their module at call time, so the tracer's
wrappers see them.  Each op's answer is checked by `checks`, which does not
call into blocksets.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional

from blocksets import blocks, cli, colourings, lattice, search

from checks import (
    check_ball,
    check_distinct,
    check_monochromatic,
    check_witness,
    contribution_id,
    examined_until,
    expect,
    found_key,
    monochromatic_placements,
    placement_code,
    placement_count,
    placement_json,
)


@dataclass
class CliResult:
    code: int
    out: str
    err: str

    @cached_property
    def report(self) -> dict:
        return json.loads(self.out)


@dataclass
class Op:
    """One timed call.

    `placements` gives the placements the call covered (scans: examined;
    witness searches: the placements their constraints range over), or is None
    for ops outside `placements_per_s`.  An op with `workers=2` is the twin of
    a 1-worker op: it runs only in the traced run's untraced repetitions, for
    `parallel.speedup_2w` and the 1-vs-2-worker check.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], None]
    workers: int = 1
    placements: Optional[Callable[[Any], int]] = None


@dataclass
class Outcome:
    op: Op
    seconds: float
    result: Any = None
    error: Optional[str] = None  # the op raised
    wrong: Optional[str] = None  # the op answered and the answer failed its check

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


@dataclass
class Workload:
    name: str
    build: Callable[[int], Any]
    ops: Callable[[Any, int], list[Op]]
    speedup: Optional[tuple[str, str]] = None  # (1-worker op, its 2-worker twin)


def run_ops(ops: list[Op], between: Optional[Callable[[float], Any]] = None) -> list[Outcome]:
    """Run ops in order, then check every answer.

    An op that raises is recorded as failed and the rest still run; checks run
    after all ops so that a slow check never shifts a later op's timing.
    `between`, if given, runs untimed before the first op and after each op,
    with the time of the op before it (0 before the first).
    """
    outcomes = []
    if between:
        between(0.0)
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # one failing op must not abort the run
            outcomes.append(Outcome(op, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append(Outcome(op, time.perf_counter() - start, result))
        if between:
            between(outcomes[-1].seconds)
    answered = {o.op.name: o.result for o in outcomes if o.error is None}
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        try:
            outcome.op.check(outcome.result, answered)
        except Exception as exc:  # a malformed answer can break the checker itself
            outcome.wrong = f"{type(exc).__name__}: {exc}"
    return outcomes


def cli_call(argv: list[str]) -> Callable[[], CliResult]:
    def call() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        code = cli.parse_and_dispatch(argv, stdout=out, stderr=err)
        return CliResult(code, out.getvalue(), err.getvalue())

    return call


def with_workers(argv: list[str], workers: int) -> list[str]:
    return argv + ["--workers", str(workers)]


def same_as(twin: str, key: Callable[[Any], Any]) -> Callable[[Any, dict], None]:
    """Check that an op answers exactly as its 1-worker twin did."""

    def check(result: Any, answered: dict) -> None:
        if twin in answered:
            expect(key(result) == key(answered[twin]), f"answer differs from {twin}")

    return check


def cli_answer(result: CliResult) -> tuple:
    """A CLI report without its worker count, for twin comparisons."""
    report = dict(result.report)
    report.pop("workers", None)
    return result.code, report


def examined(result: CliResult) -> int:
    return result.report["examined"]


# ---------------------------------------------------------------------------
# absence scans of the layered contribution colouring (verify thm2)


def verify_check(n: int, template: str, modulus: int, length: int, hits: int) -> Callable[[CliResult, dict], None]:
    def check(result: CliResult, answered: dict) -> None:
        expect(result.code == 0, f"exit code {result.code}: {result.err.strip()}")
        report = result.report
        want = placement_count(n, len(template), 2, 3)
        expect(report["examined"] == want, f"examined {report['examined']}, expected {want}")
        expect(len(report["found"]) == hits, f"{len(report['found'])} found, expected {hits}")
        check_distinct([found_key(entry) for entry in report["found"]])
        check_monochromatic(report["found"], template, lambda w: contribution_id(w, modulus, length))

    return check


def pq12_ops(inputs: Any, seed: int) -> list[Op]:
    argv = "verify thm2 --d 2 --pq 1,2 --n 11 --stable".split()
    return [
        Op("verify-w1", cli_call(with_workers(argv, 1)), verify_check(11, "1233", 3, 3, 316), 1, examined),
        Op("verify-w2", cli_call(with_workers(argv, 2)), same_as("verify-w1", cli_answer), 2),
    ]


def no_inputs(seed: int) -> None:
    return None


# ---------------------------------------------------------------------------
# hit-heavy scans of a seeded random colouring


@dataclass
class RandomColouring:
    colouring: colourings.TableColouring
    table: dict  # symbol tuple -> colour, for the checks
    template: blocks.Template
    sizemode: blocks.MixedSize


def build_random(seed: int) -> RandomColouring:
    colouring = colourings.random_table_colouring(9, 3, 2, seed)
    table = {w.symbols: c for w, c in colouring.entries.items()}
    return RandomColouring(colouring, table, blocks.template_from_word("123"), blocks.MixedSize(2))


def found_json(found: list) -> list[dict]:
    return [{"placement": placement_json(p.n, p.blocks, p.reference), "colour": c} for p, c in found]


def hits_ops(inputs: RandomColouring, seed: int) -> list[Op]:
    """The ops, and their expected answer, computed once here, before any op is timed."""
    total = placement_count(9, 3, 2, 3)
    mono_placements = monochromatic_placements(9, "123", 2, (1, 2, 3), inputs.table)
    expected = set(mono_placements)

    def check_verify(report: search.SearchReport, answered: dict) -> None:
        expect(report.examined == total, f"examined {report.examined}, expected {total}")
        keys = [(placement_code(p.n, p.blocks, p.reference), colour) for p, colour in report.found]
        check_distinct(keys)
        got = set(keys)
        expect(
            got == expected,
            f"{len(got - expected)} found entries are wrong and {len(expected - got)} are missing",
        )

    def check_mono(result: CliResult, answered: dict) -> None:
        expect(result.code == 0, f"exit code {result.code}: {result.err.strip()}")
        (hit,) = result.report["found"]
        placement = hit["placement"]
        expect(found_key(hit) == mono_placements[0], f"search mono hit {hit} is not the first")
        want = examined_until(placement, 3, 2, (1, 2, 3))
        expect(result.report["examined"] == want, f"examined {result.report['examined']}, expected {want}")
        if "verify_absence" in answered:
            (first,) = found_json(answered["verify_absence"].found[:1])
            expect(found_key(hit) == found_key(first), f"search mono hit {hit} is not verify_absence's first {first}")

    mono = f"search mono --colouring random:k=2 --seed {seed} --template 123 --n 9 --size-mode mixed:2".split()
    return [
        Op(
            "verify_absence",
            lambda: search.verify_absence(inputs.colouring, 9, inputs.template, inputs.sizemode, workers=1),
            check_verify,
            1,
            lambda r: r.examined,
        ),
        Op("search-mono", cli_call(with_workers(mono, 1)), check_mono, 1, examined),
    ]


# ---------------------------------------------------------------------------
# witness search and lattice ball search (pure Python, no scan)

# No ball of these parameters fits in the box, whatever the colouring: at r=2
# a generator u reaches centre +- 2u, so inside 0..5 every |u_i| <= 1, a
# norm-3 generator needs 3 coordinates, and two disjoint ones need 6 > 4.
# The answer is therefore `none` for every seed.  Its check rejects any
# reported ball but cannot catch a search that gives up early; the op is here
# for its time, which is that of the exhaustive scan.
BALL_BOX = (0, 5, 4)  # lo, hi, dimension
BALL = dict(r=2, t=2, d=3)


def build_lattice(seed: int) -> dict:
    lo, hi, dim = BALL_BOX
    colouring = lattice.random_lattice_colouring(lattice.cube(lo, hi, dim), 2, seed)
    return dict(colouring.entries)


def witness_ops(table: dict, seed: int) -> list[Op]:
    def witness(n: int, k: int, extra: tuple[str, ...] = ()) -> Op:
        argv = f"search witness --template 123 --n {n} --size-mode mixed:1 --k {k}".split() + list(extra)
        space = placement_count(n, 3, 1, 3)

        def check(result: CliResult, answered: dict) -> None:
            status = result.report.get("status")
            if extra and result.code == 2:  # only the budgeted cell may run out of budget
                expect(status == "budget_exceeded", f"exit code 2 with status {status}")
                return
            expect(result.code == 0, f"exit code {result.code}: {result.err.strip()}")
            if extra:  # the budgeted cell may settle either way
                expect(status in ("witness", "none"), f"status {status}")
            else:
                expect(status == "witness", f"status {status}, expected a witness")
            if status == "witness":
                check_witness(result.report["colouring"], n, k)

        return Op(f"witness-n{n}-k{k}", cli_call(argv), check, 1, lambda r: space)

    lo, hi, dim = BALL_BOX
    ball = (
        f"lattice ball --colouring random:k=2 --seed {seed} --box {lo}..{hi}^{dim} "
        f"--r {BALL['r']} --t {BALL['t']} --d {BALL['d']} --stable"
    ).split()

    def check_ball_op(result: CliResult, answered: dict) -> None:
        expect(result.code == 0, f"exit code {result.code}: {result.err.strip()}")
        for hit in result.report["found"]:
            check_ball(hit, table.__getitem__, lo, hi, **BALL)

    return [
        witness(6, 2),
        witness(6, 3),
        witness(6, 4),
        witness(7, 3, ("--budget", "1000")),
        Op("lattice-ball", cli_call(with_workers(ball, 1)), check_ball_op),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("absence-pq12", no_inputs, pq12_ops, ("verify-w1", "verify-w2")),
        Workload("hits-random", build_random, hits_ops),
        Workload("witness-lattice", build_lattice, witness_ops),
    )
}
