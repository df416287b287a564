"""Tests of the benchmark itself: its oracles, output checks, op boundary and tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from blocksets import blocks, colourings, search, words
from blocksets.words import all_words

import checks
import workloads
from checks import WrongAnswer
from tracing import Tracer
from workloads import CliResult, Op, cli_call, run_ops

ROOT = Path(__file__).resolve().parents[2]


def run_op(op: Op):
    (outcome,) = run_ops([op])
    assert not outcome.failed, outcome.error or outcome.wrong
    return outcome.result


def tampered(result: CliResult, edit) -> CliResult:
    report = copy.deepcopy(result.report)
    edit(report)
    return CliResult(result.code, json.dumps(report), result.err)


def rejects(check, result, answered=None) -> bool:
    try:
        check(result, answered or {})
    except WrongAnswer:
        return True
    return False


# ---------------------------------------------------------------------------
# the oracles agree with the program on small cases


@pytest.mark.parametrize("n,template,dmax", [(6, "123", 1), (7, "123", 2), (8, "1233", 2), (9, "123", 2)])
def test_placement_count_matches_enumeration(n, template, dmax):
    t = blocks.template_from_word(template)
    families = blocks.enumerate_block_families(n, t, blocks.MixedSize(dmax))
    want = sum(3 ** (n - sum(len(b) for b in fam)) for fam in families)
    assert checks.placement_count(n, t.s, dmax, 3) == want


def test_canonical_families_match_scan_order():
    t = blocks.template_from_word("123")
    assert checks.canonical_families(8, 3, 2) == blocks.enumerate_block_families(8, t, blocks.MixedSize(2))


def test_contribution_id_matches_colouring():
    colouring = colourings.ContributionColouring(3, 5)
    for w in all_words(6, 3):
        assert checks.contribution_id(w.symbols, 3, 5) == colouring.colour_id(w)


def test_monochromatic_placements_match_program():
    t = blocks.template_from_word("123")
    colouring = colourings.random_table_colouring(6, 3, 2, 3)
    table = {w.symbols: c for w, c in colouring.entries.items()}
    report = search.verify_absence(colouring, 6, t, blocks.MixedSize(2))
    want = [checks.found_key(e) for e in workloads.found_json(report.found)]
    assert checks.monochromatic_placements(6, "123", 2, (1, 2, 3), table) == want
    assert len(want) > 1


def test_placement_code_rejects_malformed_placements():
    assert checks.placement_code(5, [(1,), (2, 4), (3,)], [(5, 2)]) == "abcb2"
    for blocks, reference in (
        ([(1,), (2, 4), (3,)], [(4, 2)]),  # coordinate 4 twice
        ([(1,), (2, 4), (3,)], []),  # coordinate 5 uncovered
        ([(1,), (2, 4), (3,)], [(6, 2)]),  # coordinate outside [1, n]
    ):
        with pytest.raises(WrongAnswer):
            checks.placement_code(5, blocks, reference)


def test_examined_until_matches_program():
    t = blocks.template_from_word("123")
    hit = search.find_monochromatic(colourings.random_table_colouring(6, 3, 2, 4), 6, t, blocks.MixedSize(2))
    placement, _ = hit
    data = checks.placement_json(placement.n, placement.blocks, placement.reference)
    want = search.placements_examined_until(6, t, blocks.MixedSize(2), None, None, hit)
    assert checks.examined_until(data, 3, 2, (1, 2, 3)) == want


# ---------------------------------------------------------------------------
# every output check rejects a tampered answer


def test_verify_check_rejects_tampered_reports():
    check = workloads.verify_check(9, "1233", 3, 3, hits=2)
    good = run_op(Op("v", cli_call("verify thm2 --d 2 --pq 1,2 --n 9 --stable --workers 1".split()), check))

    def recolour(r):
        r["found"][0]["colour"] += 1

    def move_reference(r):
        ref = r["found"][0]["placement"]["reference"]
        coord = next(iter(ref))
        ref[coord] = "1" if ref[coord] != "1" else "2"

    def duplicate(r):
        r["found"][1] = r["found"][0]

    for edit in (
        lambda r: r.update(examined=r["examined"] - 1),
        lambda r: r["found"].pop(),
        duplicate,
        recolour,
        move_reference,
    ):
        assert rejects(check, tampered(good, edit))
    assert rejects(check, CliResult(1, good.out, "usage error"))


@pytest.fixture(scope="module")
def hits_run():
    inputs = workloads.build_random(0)
    ops = workloads.hits_ops(inputs, 0)
    outcomes = run_ops(ops)
    assert [o.failed for o in outcomes] == [False, False]
    return {o.op.name: o for o in outcomes}


def test_hits_checks_reject_tampered_answers(hits_run):
    va = hits_run["verify_absence"]
    mono = hits_run["search-mono"]
    answered = {name: o.result for name, o in hits_run.items()}

    short = copy.copy(va.result)
    short.examined -= 1
    assert rejects(va.op.check, short, answered)

    def with_found(found):
        report = copy.copy(va.result)
        report.found = found
        return report

    (placement, colour), *rest = va.result.found
    assert rejects(va.op.check, with_found([(placement, 1 - colour)] + rest), answered)
    assert rejects(va.op.check, with_found([(placement, colour)]), answered)  # hits after the first dropped
    assert rejects(va.op.check, with_found(va.result.found[:-1]), answered)  # the last hit dropped
    assert rejects(va.op.check, with_found(va.result.found[:-1] + va.result.found[:1]), answered)  # a duplicate

    # dropping the first hit makes search mono disagree with verify_absence
    assert rejects(mono.op.check, mono.result, dict(answered, verify_absence=with_found(rest)))
    assert rejects(mono.op.check, tampered(mono.result, lambda r: r.update(examined=r["examined"] + 1)), answered)
    second = workloads.found_json(rest[:1])[0]
    assert rejects(mono.op.check, tampered(mono.result, lambda r: r.update(found=[second])), {})


def test_witness_checks_reject_tampered_answers():
    ops = {op.name: op for op in workloads.witness_ops(workloads.build_lattice(0), 0)}
    op = ops["witness-n6-k3"]
    good = run_op(op)

    def flatten(r):
        r["colouring"] = {w: 0 for w in r["colouring"]}

    def drop_word(r):
        r["colouring"].pop(next(iter(r["colouring"])))

    for edit in (flatten, drop_word, lambda r: r.update(status="none")):
        assert rejects(op.check, tampered(good, edit))
    assert rejects(op.check, CliResult(2, json.dumps({"status": "budget_exceeded"}), ""))
    budget = ops["witness-n7-k3"]
    assert rejects(budget.check, CliResult(2, json.dumps({"status": "witness"}), ""))
    assert not rejects(budget.check, CliResult(2, json.dumps({"status": "budget_exceeded"}), ""))


def test_ball_check_rechecks_every_point():
    hit = {"centre": [2, 2, 2, 2], "generators": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    ball = dict(lo=0, hi=5, r=2, t=2, d=1)
    checks.check_ball(hit, lambda p: 0, **ball)
    with pytest.raises(WrongAnswer):
        checks.check_ball(hit, lambda p: int(p == (4, 2, 2, 2)), **ball)
    with pytest.raises(WrongAnswer):
        checks.check_ball(dict(hit, centre=[1, 2, 2, 2]), lambda p: 0, **ball)
    with pytest.raises(WrongAnswer):
        checks.check_ball(dict(hit, generators=[[1, 0, 0, 0], [1, 0, 0, 0]]), lambda p: 0, **ball)

    # The workload's ball (r=2, t=2, norm-3 generators) cannot fit in 0..5^4,
    # so the op's check must reject any reported ball, even on a constant colouring.
    table = {p: 0 for p in itertools.product(range(6), repeat=4)}
    ops = {op.name: op for op in workloads.witness_ops(table, 0)}
    fake = {"centre": [2, 2, 2, 2], "generators": [[1, 1, 1, 0], [0, 0, 0, 3]]}
    found = CliResult(0, json.dumps({"found": [fake]}), "")
    none = CliResult(0, json.dumps({"found": []}), "")
    assert rejects(ops["lattice-ball"].check, found)
    assert not rejects(ops["lattice-ball"].check, none)


# ---------------------------------------------------------------------------
# the op boundary


def boom():
    raise RecursionError("maximum recursion depth exceeded")


def test_raised_exception_is_a_failed_op_and_the_run_continues():
    calls = []
    ops = [
        Op("first", lambda: calls.append("first") or 1, lambda r, a: None),
        Op("raises", boom, lambda r, a: None),
        Op("wrong", lambda: calls.append("wrong") or 2, lambda r, a: checks.expect(r == 3, "not 3")),
        Op("last", lambda: calls.append("last") or 4, lambda r, a: None),
    ]
    outcomes = run_ops(ops)
    assert calls == ["first", "wrong", "last"]
    assert [o.failed for o in outcomes] == [False, True, True, False]
    assert outcomes[1].error.startswith("RecursionError") and outcomes[1].wrong is None
    assert outcomes[2].wrong == "WrongAnswer: not 3"


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_spans_counts_and_restore():
    originals = (search.verify_absence, blocks.enumerate_block_families, words.Word.__post_init__)
    t = blocks.template_from_word("123")
    colouring = colourings.random_table_colouring(6, 3, 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        report = search.verify_absence(colouring, 6, t, blocks.MixedSize(2))
        assert search.enumerate_block_families is not originals[1]
    finally:
        tracer.uninstall()
    assert (search.verify_absence, search.enumerate_block_families, words.Word.__post_init__) == originals
    assert blocks.enumerate_block_families is originals[1]

    m = tracer.layer_metrics()
    assert m["search.examined"] == report.examined
    assert m["search.hits"] == len(report.found) > 0
    assert m["blocks.blockset_points.calls"] == len(report.found)
    assert m["colourings.colour_id.calls"] == 6 * len(report.found)
    assert m["words.Word.count"] >= 6 * len(report.found)
    assert m["colourings.dense_table.calls"] == 1 and m["colourings.dense_table.bytes"] == 8 * 3**6
    ((scan, _, _, _, whole),) = [s for s in tracer.spans if s[2] == "search.verify_absence"]
    children = sum(s[4] for s in tracer.spans if s[1] == scan)
    assert m["search.scan_self_s"] == pytest.approx(whole - children)
    assert 0 < m["search.reverify_s"] <= children


def test_generator_span_counts_only_its_own_steps():
    tracer = Tracer()
    tracer.install()
    try:
        placements = list(blocks.enumerate_placements(5, blocks.template_from_word("123"), blocks.MixedSize(1)))
    finally:
        tracer.uninstall()
    assert len(placements) == checks.placement_count(5, 3, 1, 3)
    by_name = {s[2]: s for s in tracer.spans}
    gen = by_name["blocks.enumerate_placements"]
    families = by_name["blocks.enumerate_block_families"]
    assert families[1] == gen[0]  # enumerate_block_families runs inside the generator's steps
    assert 0 < families[4] <= gen[4]


# ---------------------------------------------------------------------------
# the command line


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "absence-pq12", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
