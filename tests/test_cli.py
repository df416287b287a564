import hashlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blocksets import cli, lattice, search
from blocksets.blocks import EqualSize, MixedSize, template_from_word
from blocksets.cli import (
    _HANDLERS,
    UsageError,
    _default_workers,
    build_parser,
    degree_setup,
    emit_report,
    parse_and_dispatch,
    parse_word_colouring,
)
from blocksets.colourings import (
    ContributionColouring,
    DomainError,
    InducedColouring,
    ModularCountColouring,
    TableColouring,
    random_table_colouring,
)
from blocksets.search import find_monochromatic, placements_examined_until, verify_absence


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = parse_and_dispatch(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# colour eval


def test_colour_eval_prints_vector():
    code, out, _ = run_cli("colour", "eval", "--colouring", "contribution:m=2,l=2", "--word", "121")
    assert code == 0
    assert "(0, 0)" in out


def test_colour_eval_json():
    report = run_json(
        "colour", "eval", "--colouring", "contribution:m=2,l=2", "--word", "211", "--format", "json"
    )
    assert report["vector"] == [1, 1]
    assert report["id"] == 3


# ---------------------------------------------------------------------------
# blockset


def test_blockset_points_30_words():
    report = run_json(
        "blockset", "points", "--template", "11223", "--blocks", "1;2;3;4;5", "--n", "5",
        "--format", "json",
    )
    assert report["count"] == 30
    assert len(set(report["points"])) == 30


def test_blockset_points_with_reference():
    report = run_json(
        "blockset", "points", "--template", "123", "--blocks", "1,6;2,5;3,4", "--n", "10",
        "--reference", "1212", "--format", "json",
    )
    assert "3211231212" in report["points"]
    assert report["placement"]["pattern"] == "ABCCBA"


def test_blockset_enum_with_pattern():
    report = run_json(
        "blockset", "enum", "--template", "123", "--n", "6", "--size-mode", "equal:2",
        "--pattern", "ABCCBA",
    )
    assert report["count"] == 1
    assert report["placements"][0]["blocks"] == [[1, 6], [2, 5], [3, 4]]


# ---------------------------------------------------------------------------
# search / verify


def test_search_mono_finds_hit():
    report = run_json(
        "search", "mono", "--colouring", "countmod:s=1,k=2", "--template", "12", "--n", "2",
        "--size-mode", "equal:1", "--workers", "1",
    )
    assert len(report["found"]) == 1
    assert report["found"][0]["placement"]["blocks"] == [[1], [2]]


def test_verify_thm2_d1_is_clean():
    report = run_json("verify", "thm2", "--d", "1", "--n", "8", "--workers", "1")
    assert report["found"] == []
    assert report["examined"] == 13608


def test_verify_thm2_pq_override():
    template, colouring = degree_setup(2, (1, 2))
    assert str(template) == "1233"
    assert colouring.modulus == 3 and colouring.length == 3
    report = run_json(
        "verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "6", "--workers", "1"
    )
    assert report["params"]["template"] == "1233"
    assert report["params"]["sizemode"] == "mixed:2"
    assert report["found"] == []


def test_verify_thm2_both_size_thresholds():
    """The size-<=d reading admits palindromic hits at n=9; size <= d-1 is clean."""
    full = run_json("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--workers", "1")
    assert len(full["found"]) == 2
    assert full["found"][0]["placement"]["pattern"] == "ABCDDCBA"
    reduced = run_json(
        "verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--max-size", "1",
        "--workers", "1",
    )
    assert reduced["found"] == []
    assert reduced["params"]["sizemode"] == "mixed:1"


@pytest.mark.parametrize("workers", ["1", "2", "8"])
@pytest.mark.parametrize(
    "n, size, pattern, domain",
    [(6, 1, None, "12"), (8, 2, "ABCCBA", None)],
)
def test_search_mono_examined_matches_the_recount(n, size, pattern, domain, workers):
    argv = ["search", "mono", "--colouring", "random:k=2", "--seed", "3", "--template", "123",
            "--n", str(n), "--size-mode", f"mixed:{size}", "--workers", workers]
    argv += ["--pattern", pattern] if pattern else ["--reference-domain", domain]
    report = run_json(*argv)
    t, sizemode = template_from_word("123"), MixedSize(size)
    ref_domain = [int(ch) for ch in domain] if domain else None
    colouring = parse_word_colouring("random:k=2", 3, n, 3)
    hit = find_monochromatic(colouring, n, t, sizemode, pattern, ref_domain)
    assert hit is not None and len(report["found"]) == 1
    assert report["found"][0]["placement"] == hit[0].to_json_dict()
    assert report["examined"] == placements_examined_until(n, t, sizemode, pattern, ref_domain, hit)
    assert report["params"]["op"] == "find_monochromatic"
    assert report["params"]["pattern"] == pattern and report["params"]["reference_domain"] == ref_domain


def test_scan_verbs_share_one_report_schema():
    mono = run_json(
        "search", "mono", "--colouring", "contribution:m=3,l=3", "--template", "1233", "--n", "9",
        "--size-mode", "mixed:2", "--workers", "1",
    )
    thm2 = run_json("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--workers", "1")
    assert mono.keys() == thm2.keys()
    assert mono["params"].keys() == thm2["params"].keys()
    assert (mono["params"]["op"], thm2["params"]["op"]) == ("find_monochromatic", "verify_absence")
    assert mono["found"][0] == thm2["found"][0]


def test_library_report_equals_cli_stable_json():
    template, colouring = degree_setup(2, (1, 2))
    library = dict(verify_absence(colouring, 9, template, MixedSize(2), workers=1).to_json_dict(), elapsed_ms=0.0)
    cli = run_json("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--stable", "--workers", "1")
    assert library == cli
    assert [len(entry["vector"]) for entry in cli["found"]] == [3, 3]


def test_search_witness_status_and_exit():
    code, out, _ = run_cli(
        "search", "witness", "--template", "12", "--n", "2", "--size-mode", "equal:1", "--k", "1"
    )
    assert code == 0
    assert json.loads(out)["status"] == "none"

    code, out, _ = run_cli(
        "search", "witness", "--template", "123", "--n", "4", "--size-mode", "mixed:1", "--k", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "witness"
    assert len(report["colouring"]) == 81


def test_search_witness_budget_exit_code_2():
    code, out, _ = run_cli(
        "search", "witness", "--template", "123", "--n", "5", "--size-mode", "mixed:1",
        "--k", "4", "--budget", "2",
    )
    assert code == 2
    assert json.loads(out)["status"] == "budget_exceeded"


def test_search_witness_deep_search_ends_in_budget_exceeded():
    """At n=7 the search assigns about 1,000 points in a row, past Python's recursion limit."""
    code, out, err = run_cli(
        "search", "witness", "--template", "123", "--n", "7", "--size-mode", "mixed:1",
        "--k", "3", "--budget", "1000", "--stable",
    )
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert (report["status"], report["nodes"], report["budget_exhausted"]) == ("budget_exceeded", 1001, True)


# sha256 of the `--stable` reports of the recursive search
WITNESS_N6_DIGESTS = {
    2: "075ab89b2998dc41cf2efcb4c02ffc242739f1a2bd6ff428099004e755373470",
    3: "c03c5eccf2eb3b5982e35f7766496bf244dc4d0571e45fae5e07e6fc7813f110",
    4: "72088cf81b533c641e4b2700a14e8314775402d85073ce7578bfdc1d5b213f99",
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_search_witness_n6_reports_are_unchanged(k):
    code, out, _ = run_cli(
        "search", "witness", "--template", "123", "--n", "6", "--size-mode", "mixed:1", "--k", str(k), "--stable"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WITNESS_N6_DIGESTS[k]


# sha256 of the `--stable` n=7 reports of the search that rescanned every block set at each node
WITNESS_N7_DIGESTS = {
    2: "1db25daf5e3155d42cbc36d087eac50df2307dc003e51439d466ce1534ee32ef",
    3: "d8f6f82b3fd9eb48ae866d851c4570e03a349df0398b3d4d4a8f960fbf081a77",
    4: "4355c80bc43fbcef9bc7fc92f0bd001ce3915bfd9b39db909657b15177979366",
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_search_witness_n7_reports_are_unchanged(k):
    code, out, _ = run_cli(
        "search", "witness", "--template", "123", "--n", "7", "--size-mode", "mixed:1", "--k", str(k), "--stable"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WITNESS_N7_DIGESTS[k]


def _witness_report(monkeypatch, *argv):
    """The report dict that `search witness --template 123 ... --stable` hands to `emit_report`."""
    reports = []
    monkeypatch.setattr(cli, "emit_report", lambda report, *rest: reports.append(report))
    code, _, err = run_cli("search", "witness", "--template", "123", *argv, "--stable")
    assert code == 0, err
    return reports[0]


@pytest.mark.parametrize("n, k", list(itertools.product(range(3, 6), range(2, 5))))
def test_witness_report_colouring_is_the_table_entries_by_digit_string(monkeypatch, n, k):
    report = _witness_report(monkeypatch, "--n", str(n), "--size-mode", "mixed:1", "--k", str(k))
    witness = search.witness_search(n, template_from_word("123"), MixedSize(1), k)
    assert report["status"] == "witness"
    assert list(report["colouring"].items()) == [(str(w), c) for w, c in witness.entries.items()]


def test_witness_report_colouring_skips_uncoloured_words(monkeypatch):
    table = random_table_colouring(4, 3, 3, 5)
    table.ids[::7] = -1
    monkeypatch.setattr(search, "witness_search", lambda *args: table)
    report = _witness_report(monkeypatch, "--n", "4", "--size-mode", "mixed:1", "--k", "3")
    assert list(report["colouring"].items()) == [(str(w), c) for w, c in table.entries.items()]
    assert len(report["colouring"]) == 81 - 12 and "1111" not in report["colouring"]


WITNESS_N3_COLOURING = (
    '{"111": 0, "112": 0, "113": 0, "121": 0, "122": 0, "123": 1, "131": 0, "132": 0, "133": 0, '
    '"211": 0, "212": 0, "213": 0, "221": 0, "222": 0, "223": 0, "231": 0, "232": 0, "233": 0, '
    '"311": 0, "312": 0, "313": 0, "321": 0, "322": 0, "323": 0, "331": 0, "332": 0, "333": 0}'
)
WITNESS_N3_PARAMS = '{"budget": 1000000, "k": 2, "n": 3, "op": "witness_search", "sizemode": "mixed:1", "template": "123"}'


def _csv_quoted(text):
    return '"' + text.replace('"', '""') + '"'


@pytest.mark.parametrize(
    "out_format, expected",
    [
        (
            "csv",
            "budget_exhausted,colouring,elapsed_ms,params,status\n"
            + ",".join(["False", _csv_quoted(WITNESS_N3_COLOURING), "0.0", _csv_quoted(WITNESS_N3_PARAMS), "witness\n"]),
        ),
        (
            "text",
            f"budget_exhausted: False\ncolouring: {WITNESS_N3_COLOURING}\nelapsed_ms: 0.0\n"
            f"params: {WITNESS_N3_PARAMS}\nstatus: witness\n",
        ),
    ],
)
def test_search_witness_csv_and_text_bytes_are_pinned(out_format, expected):
    code, out, err = run_cli(
        "search", "witness", "--template", "123", "--n", "3", "--size-mode", "mixed:1", "--k", "2", "--stable",
        "--format", out_format,
    )
    assert (code, err, out) == (0, "", expected)


# sha256 of the `--stable` `verify thm2 --d 2 --pq 1,2` reports of the scan that visits every reference
PQ12_DIGESTS = {
    (9, 1): "39bcf9f433adba27648ea6ac2d4d7a8a08a15978890fc41c15f04c88b230316b",
    (9, 2): "ad79149833701a729bc0c1afe42f4ce3d44d944726def8470a384d46df523a20",
    (10, 1): "0c7c893283ea36e8dacd214a2edec54483253c9038a1f0ac883885f656ede8d5",
    (10, 2): "d97b07b969ee1e36beb63d3a363ffe9f7cfe83d745ce435d36bba1d29f56955a",
    (11, 1): "03352d32b48f786ec964d7dce1ec9a7017e104f146b519a0906e026ce1a3660a",
    (11, 2): "fd71eef7d9f25ba7ad2537227e1d9795e579bcddbe72653472b0d8e552cbbbbc",
    # 2,184 hits with reference coordinates 10 to 12, written by the pure-Python JSON encoder
    (12, 1): "db81f268d840f0f6c0d8d131da551ec4ac39ede2ececa290b4077044e08fcad9",
}


@pytest.mark.parametrize("n, workers", sorted(PQ12_DIGESTS))
def test_verify_thm2_pq12_reports_are_unchanged(n, workers):
    code, out, _ = run_cli(
        "verify", "thm2", "--d", "2", "--pq", "1,2", "--n", str(n), "--workers", str(workers), "--stable"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PQ12_DIGESTS[n, workers]


# template 123 has no repeated neutral letter, so these scans do not climb: they
# scan references without the neutral symbol 3 from n=3 up to n and lift the hits
PQ11_DIGESTS = {
    (9, 1): "56d10a94d40064788415c6314843ea3cffa47fedd984c16563499a32c176ef51",  # 224 hits
    (9, 2): "e6be23543d8c029a80ed72966c4cff8b0ee2a4c9572c220b327f2dfb414c1e59",
    (10, 1): "dbae39b0c0c7ea0bdb315c35fdf26e9a3f4f3f50725b1c03b110c3341f782f88",  # 1,384 hits
    (10, 2): "de3aa72b31916058e0fa54902d2ed85d6fd65afbe5d1b59084cf80bc58b26211",
}


@pytest.mark.parametrize("n, workers", sorted(PQ11_DIGESTS))
def test_verify_thm2_pq11_reduced_scan_reports_are_unchanged(n, workers):
    code, out, _ = run_cli(
        "verify", "thm2", "--d", "2", "--pq", "1,1", "--n", str(n), "--workers", str(workers), "--stable"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PQ11_DIGESTS[n, workers]


# sha256 of the `--stable` reports of the benchmark's hit-heavy random-table scan, one per seed
RANDOM_TABLE_DIGESTS = {
    11: "358e741b0d04c66cfcf972517833c294c4aebb0e06532bdf00ebbfce63de8d74",
    12: "34ce15d624326290bcc91ac5a4228e408785920cc29ba57d3ef95e2884249c65",
    13: "457ee9fac3f45825952f7f90cb8571620134862de783d955cac07d1a66392f86",
}


@pytest.mark.parametrize("seed", sorted(RANDOM_TABLE_DIGESTS))
def test_search_mono_random_table_reports_are_unchanged(seed):
    code, out, err = run_cli(
        "search", "mono", "--colouring", "random:k=2", "--seed", str(seed), "--template", "123", "--n", "9",
        "--size-mode", "mixed:2", "--workers", "1", "--stable",
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RANDOM_TABLE_DIGESTS[seed]


# (exit code, sha256 of stdout, stderr) of runs on a full table file of [3]^3: a word's colour is its
# count of distinct symbols mod 2, so the six permutations of 123 share colour 1
FULL_TABLE_DIGESTS = {
    ("search", "mono", "--template", "123", "--n", "3", "--size-mode", "mixed:1", "--workers", "1"): (
        0, "472a3ba14a6d48ed9a81bbf3e69f3c146d8a54a2180fa778bd7dbba80b1121ef", ""
    ),
    ("search", "mono", "--template", "113", "--n", "3", "--size-mode", "mixed:1", "--workers", "1"): (
        0, "9094a9c6eedacbfc8c1287e6f9a57f95d32bd156bb976c247bacaddc12478f62", ""
    ),
    ("search", "mono", "--template", "12", "--n", "3", "--size-mode", "mixed:1", "--workers", "1"): (
        1, hashlib.sha256(b"").hexdigest(), "blocksets: error: table table:@full.json does not cover exactly [2]^3\n"
    ),
    ("colour", "eval", "--word", "213"): (0, "3745f09a5486bd9a3aca05dedfaba50dcf09302d3f666ebc077a6ccb3402aeb8", ""),
    ("colour", "eval", "--word", "113", "--format", "json"): (
        0, "04d9f156a1c40a8799a69a6df78789e46b427a006bb02feacc1ba7f548f50346", ""
    ),
}


@pytest.mark.parametrize("argv", sorted(FULL_TABLE_DIGESTS))
def test_full_table_file_reports_are_unchanged(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    table = {"".join(map(str, w)): len(set(w)) % 2 for w in itertools.product((1, 2, 3), repeat=3)}
    Path("full.json").write_text(json.dumps(table))
    code, out, err = run_cli(*argv, "--colouring", "table:@full.json", "--stable")
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == FULL_TABLE_DIGESTS[argv]


def test_search_witness_mixed2_budget_ends_after_the_last_node():
    code, out, err = run_cli(
        "search", "witness", "--template", "123", "--n", "6", "--size-mode", "mixed:2",
        "--k", "2", "--budget", "3000", "--stable",
    )
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert (report["status"], report["nodes"], report["budget_exhausted"]) == ("budget_exceeded", 3001, True)


# ---------------------------------------------------------------------------
# extract


def test_extract_thm3_with_explicit_set(tmp_path):
    # constant base colouring via a table over the words the pipeline touches
    report = run_json(
        "extract", "thm3", "--colouring", "constant:c=0,k=1", "--k", "1", "--n", "8",
        "--set", "1,2,3,4,5,6",
    )
    assert report["status"] == "found"
    assert report["found"][0]["placement"]["blocks"] == [[1, 6], [2, 5], [3, 4]]
    assert report["found"][0]["placement"]["pattern"] == "ABCCBA"


def test_extract_thm3_searches_for_set():
    report = run_json(
        "extract", "thm3", "--colouring", "constant:c=0,k=1", "--k", "1", "--n", "7"
    )
    assert report["status"] == "found"
    assert report["set"] == [1, 2, 3, 4, 5, 6]


def test_extract_thm3_from_table_file(tmp_path):
    """Worked scenario driven end-to-end through the table file format."""
    import itertools

    from blocksets.colourings import balanced_words, flipped_block_word

    k, n = 2, 8
    classes = {w.symbols: 1 for w in balanced_words(k).members}
    classes[flipped_block_word(1, k).symbols] = 0
    classes[flipped_block_word(2, k).symbols] = 1
    classes[flipped_block_word(3, k).symbols] = 0
    table = {}
    for ones in itertools.combinations(range(n), k + 1):
        rest = [i for i in range(n) if i not in ones]
        for twos in itertools.combinations(rest, k + 1):
            syms = [3] * n
            for i in ones:
                syms[i] = 1
            for i in twos:
                syms[i] = 2
            table["".join(map(str, syms))] = classes[tuple(s for s in syms if s != 3)]
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(table))
    report = run_json(
        "extract", "thm3", "--colouring", f"table:@{path}", "--k", "2", "--n", "8"
    )
    assert report["status"] == "found"
    assert report["found"][0]["placement"]["blocks"] == [[1, 8], [2, 7], [3, 6]]
    assert report["found"][0]["colour"] == 0


def test_extract_thm3_rejects_non_homogeneous_set(tmp_path):
    """First-coordinate-sensitive colouring: {1..6} is not homogeneous."""
    import itertools

    n = 6
    table = {}
    for ones in itertools.combinations(range(n), 2):
        rest = [i for i in range(n) if i not in ones]
        for twos in itertools.combinations(rest, 2):
            syms = [3] * n
            for i in ones:
                syms[i] = 1
            for i in twos:
                syms[i] = 2
            table["".join(map(str, syms))] = 1 if syms[0] == 1 else 0
    path = tmp_path / "positional.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(
        "extract", "thm3", "--colouring", f"table:@{path}", "--k", "1", "--n", "6",
        "--set", "1,2,3,4,5,6",
    )
    assert code == 1
    assert out == ""
    assert "colour" in err


# ---------------------------------------------------------------------------
# lattice


def test_lattice_ap_parity_none():
    report = run_json(
        "lattice", "ap", "--colouring", "coordsum:d=1", "--box", "0..3^2", "--d", "1",
        "--workers", "1",
    )
    assert report["found"] == []


def test_lattice_ball_constant_hit():
    report = run_json(
        "lattice", "ball", "--colouring", "constant:c=0,k=1", "--box", "0..2^2",
        "--r", "1", "--t", "1", "--d", "1", "--workers", "1",
    )
    assert report["found"] == [{"centre": [0, 1], "generators": [[0, -1]]}]


def test_lattice_ap_seeded_random_is_reproducible():
    args = (
        "lattice", "ap", "--colouring", "random:k=2", "--box", "0..3^2", "--d", "1",
        "--seed", "5", "--stable", "--workers", "1",
    )
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


@pytest.mark.parametrize("verb", [("ap",), ("ball", "--r", "1", "--t", "1")])
@pytest.mark.parametrize("colouring", ["coordsum:d=2", "random:k=2"])
def test_lattice_box_past_the_table_limit_exits_1_at_once(verb, colouring):
    t0 = time.perf_counter()
    code, out, err = run_cli(
        "lattice", *verb, "--colouring", colouring, "--box", "0..99^9", "--d", "1", "--workers", "1",
    )
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    assert "the box 0..99^9 has 1,000,000,000,000,000,000 points" in err
    assert "the limit is 50,000,000" in err


def test_lattice_box_dimension_below_1_exits_1():
    code, out, err = run_cli("lattice", "ap", "--colouring", "coordsum:d=2", "--box", "0..3^-1", "--d", "1")
    assert code == 1 and out == ""
    assert "bad box spec '0..3^-1'" in err


@pytest.mark.parametrize(
    "verb, message",
    [
        (("ap", "--d", "0"), "--d must be >= 1, got 0"),
        (("ball", "--r", "0", "--t", "1", "--d", "1"), "--r must be >= 1, got 0"),
        (("ball", "--r", "1", "--t", "0", "--d", "0"), "--d must be >= 1, got 0; --t must be >= 1, got 0"),
    ],
)
def test_lattice_flags_below_1_exit_1_before_the_colouring_is_drawn(monkeypatch, verb, message):
    def refuse(*args):
        raise AssertionError("the box colouring was drawn")

    monkeypatch.setattr(lattice, "random_lattice_colouring", refuse)
    code, out, err = run_cli("lattice", verb[0], "--colouring", "random:k=2", "--box", "0..14^5", *verb[1:])
    assert (code, out, err) == (1, "", f"blocksets: error: {message}\n")


def test_lattice_negative_box_bound_needs_the_equals_form():
    report = run_json(
        "lattice", "ap", "--colouring", "coordsum:d=2", "--box=-2..2^3", "--d", "2", "--workers", "1",
    )
    assert report["params"]["box"] == "-2..2^3"
    code, out, err = run_cli("lattice", "ap", "--colouring", "coordsum:d=2", "--box", "-2..2^3", "--d", "2")
    assert code == 1 and out == "" and "--box" in err


# sha256 of the `--stable` reports of the lattice verbs, one per colouring kind and verb
LATTICE_DIGESTS = {
    "lattice ap --colouring constant:c=0,k=1 --box 0..3^2 --d 1 --workers 1":
        "1fea864a74b54f6fcaefa08de90f28d4c137be16984e05a932ad9adb38377cc8",
    "lattice ball --colouring constant:c=1,k=3 --box 0..3^3 --r 1 --t 2 --d 1 --workers 2":
        "d9816cfbf9751d74b31b8e61741fb76b59d59df2fcda1875fb31c4f94cbf1e6b",
    "lattice ap --colouring coordsum:d=2 --box 0..4^3 --d 2 --workers 1":
        "8339b30ca22038d6ed95324e25620107305184337324a727188afae555dd6157",
    "lattice ball --colouring random:k=3 --seed 7 --box 0..4^3 --r 1 --t 1 --d 1 --workers 1":
        "42dbf341d24eb870983f3065dd8d0dc17b1309334b4dd7ac6a6f8dc731a98b63",
    # the benchmark's ball op: no monochromatic ball in the box
    "lattice ball --colouring random:k=2 --seed 0 --box 0..5^4 --r 2 --t 2 --d 3 --workers 1":
        "a5aa77b98a84337fa0cac476836c16ed9971b31808007baa91e94f605ae31f1b",
}


@pytest.mark.parametrize("argv", sorted(LATTICE_DIGESTS))
def test_lattice_reports_are_unchanged(argv):
    code, out, err = run_cli(*shlex.split(argv), "--stable")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_DIGESTS[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("ap", "--colouring", "constant:c=5,k=2", "--d", "1"),
        ("ap", "--colouring", "constant:c=0,k=0", "--d", "1"),
        ("ap", "--colouring", "constant:c=-1,k=1", "--d", "1"),
        ("ball", "--colouring", "constant:c=3,k=3", "--r", "1", "--t", "1", "--d", "1"),
    ],
)
def test_lattice_constant_out_of_range_exits_1(argv):
    code, out, err = run_cli("lattice", *argv, "--box", "0..3^2", "--workers", "1")
    assert (code, out) == (1, "")
    assert err.startswith("blocksets: error: need 0 <= value < colours, got ConstantColouring(")


def test_lattice_coordsum_below_d_1_exits_1():
    code, out, err = run_cli("lattice", "ap", "--colouring", "coordsum:d=0", "--box", "0..3^2", "--d", "1")
    assert (code, out, err) == (1, "", "blocksets: error: d must be >= 1, got 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "mono", "--template", "12", "--n", "2", "--size-mode", "equal:1"),
        ("lattice", "ap", "--box", "0..3^2", "--d", "1", "--workers", "1"),
    ],
)
@pytest.mark.parametrize("k", [0, -1])
def test_random_colouring_below_one_colour_exits_1(argv, k):
    code, out, err = run_cli(*argv, "--colouring", f"random:k={k}")
    assert (code, out, err) == (1, "", f"blocksets: error: need k >= 1 colours, got {k}\n")


# ---------------------------------------------------------------------------
# formats, errors, exit codes


def test_stable_json_is_byte_identical():
    args = ("verify", "thm2", "--d", "1", "--n", "6", "--stable", "--workers", "2")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2
    assert json.loads(out1)["elapsed_ms"] == 0.0


def test_csv_row_count_is_found_plus_header():
    code, out, _ = run_cli(
        "search", "mono", "--colouring", "constant:c=0,k=1", "--template", "123", "--n", "3",
        "--size-mode", "equal:1", "--format", "csv", "--workers", "1",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 1 + 1  # header + one found entry

    code, out, _ = run_cli(
        "verify", "thm2", "--d", "1", "--n", "4", "--format", "csv", "--workers", "1"
    )
    rows = out.strip().splitlines()
    assert len(rows) == 1  # header only, nothing found


def test_json_report_round_trips():
    report = run_json("verify", "thm2", "--d", "1", "--n", "5", "--workers", "1")
    again = json.loads(json.dumps(report, sort_keys=True))
    assert again == report


def json_dump_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emitted(report: dict) -> str:
    stream = io.StringIO()
    emit_report(report, "json", stream)
    return stream.getvalue()


def pq(p, q, n, **kwargs):
    """The library report of `verify thm2 --d 2 --pq p,q --n n`."""
    template, colouring = degree_setup(2, (p, q))
    return lambda: verify_absence(colouring, n, template, MixedSize(2), **kwargs)


T123 = template_from_word("123")


@pytest.mark.parametrize(
    "report",
    [
        # vector-valued colours, reference keys "10" before "9"
        pq(1, 2, 10),
        pq(1, 2, 9),
        # 2,184 hits, reference keys 10 to 12 sorted as strings, runs cut at DECODE_BATCH
        pq(1, 2, 12),
        # a reduced scan: hits at every length lifted into [9]
        pq(1, 1, 9),
        # no vector
        lambda: verify_absence(ModularCountColouring(1, 3), 6, T123, MixedSize(2)),
        lambda: verify_absence(random_table_colouring(7, 3, 2, seed=1), 7, T123, MixedSize(2), first_only=True),
        lambda: verify_absence(random_table_colouring(7, 3, 2, seed=1), 7, T123, MixedSize(2)),
        lambda: verify_absence(random_table_colouring(8, 3, 2, seed=3), 8, T123, MixedSize(2), "ABCCBA"),
        lambda: verify_absence(ContributionColouring(3, 3), 9, template_from_word("1233"), MixedSize(2), None, (1, 3)),
        lambda: verify_absence(random_table_colouring(7, 3, 2, seed=2), 7, T123, EqualSize(2)),
        # nothing found
        lambda: verify_absence(ContributionColouring(2, 2), 6, T123, MixedSize(1)),
        # "pattern": null past 26 blocks
        lambda: verify_absence(ModularCountColouring(1, 1), 29, template_from_word("1" + "3" * 27), MixedSize(2)),
    ],
    ids=[
        "contribution", "pq12-n9", "pq12-n12", "pq11-n9", "countmod", "search-mono", "random-table", "pattern",
        "reference-domain", "equal-size", "empty", "no-pattern",
    ],
)
def test_found_list_writer_writes_the_bytes_of_json_dump(monkeypatch, report):
    """The found list written from a scan's arrays has the bytes json.dump gives its dicts (`to_json_dict`)."""
    report = report()
    expected = json_dump_text(report.to_json_dict())
    monkeypatch.setattr(json, "dump", None)  # the found list must not go through the encoder
    assert emitted(report.to_json_dict(entries=False)) == expected


@pytest.mark.parametrize("out_format", ["csv", "text"])
def test_csv_and_text_of_a_scan_match_its_dicts(out_format):
    report = dict(pq(1, 2, 10, workers=1)().to_json_dict(), elapsed_ms=0.0)
    assert len(report["found"]) > 1
    expected = io.StringIO()
    emit_report(report, out_format, expected)
    code, out, err = run_cli(
        "verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "10", "--workers", "1", "--stable", "--format", out_format
    )
    assert (code, err, out) == (0, "", expected.getvalue())


def test_found_list_writer_bytes_through_the_cli(tmp_path):
    """Reports with a found list of placements are written exactly as json.dump writes them, to a file too."""
    argvs = [
        ("search", "mono", "--colouring", "random:k=2", "--seed", "3", "--template", "123", "--n", "8",
         "--size-mode", "mixed:2", "--workers", "1"),
        ("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--workers", "1"),
        ("verify", "thm2", "--d", "1", "--n", "6", "--workers", "1"),
        ("extract", "thm3", "--colouring", "constant:c=0,k=1", "--k", "1", "--n", "8", "--set", "1,2,3,4,5,6"),
    ]
    for i, argv in enumerate(argvs):
        path = tmp_path / f"report{i}.json"
        code, out, _ = run_cli(*argv, "--output", str(path))
        text = path.read_text()
        assert (code, out) == (0, "") and "found" in json.loads(text)
        assert text == json_dump_text(json.loads(text))


def test_reports_without_placements_keep_json_dump():
    """Lattice reports have found entries without a placement; they and reports without a found list use json.dump."""
    reports = [
        {"found": [{"x": [0, 1], "v": [1, 0]}], "params": {"op": "search_l1_ap"}},
        {"found": [{"colour": 1, "placement": {"n": 1}}]},
        {"status": "none", "colouring": None},
    ]
    for report in reports:
        assert emitted(report) == json_dump_text(report)


def test_failed_re_check_exits_3_without_a_report(monkeypatch):
    """A scan whose hits fail their re-check is an internal error: exit 3, one message, no traceback or report."""
    dense_table = ContributionColouring.dense_table
    monkeypatch.setattr(ContributionColouring, "dense_table", lambda self, n, m: dense_table(self, n, m) % 2)
    code, out, err = run_cli("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--workers", "1")
    assert (code, out) == (3, "")
    assert err.startswith("blocksets: internal error: reported placement Placement(n=9,")
    assert "is not monochromatic" in err and err.count("\n") == 1


def test_out_of_memory_exits_1_without_a_report(monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("blocksets.search.verify_absence", out_of_memory)
    code, out, err = run_cli("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--workers", "1")
    assert (code, out) == (1, "")
    assert err == "blocksets: error: out of memory while building the report\n"


class FullStream(io.StringIO):
    """A stream that runs out of memory on its second write of found entries."""

    def __init__(self):
        super().__init__()
        self.entry_writes = 0

    def write(self, text):
        self.entry_writes += '"colour"' in text
        if self.entry_writes > 1:
            raise MemoryError
        return super().write(text)


def test_out_of_memory_while_writing_exits_1():
    """The found list is written from arrays at emit time; running out of memory there is one line, no traceback."""
    out, err = FullStream(), io.StringIO()
    argv = ["verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "10", "--workers", "1"]
    assert parse_and_dispatch(argv, stdout=out, stderr=err) == 1
    assert err.getvalue() == "blocksets: error: out of memory while building the report\n"
    # stdout holds what was written before: the head and the entries of the first block family
    head, entries = out.getvalue().split('\n  "found": [\n')
    assert head.startswith('{\n  "budget_exhausted": false,') and entries.count('"colour"') == 2


@pytest.mark.parametrize(
    "argv",
    [
        "blockset points --template 123 --blocks 1;2;3 --n 3",
        "blockset enum --template 123 --n 3 --size-mode equal:1",
        "search witness --template 123 --n 3 --size-mode equal:1 --k 2",
        "verify thm2 --d 1 --n 3 --workers 1",
    ],
)
def test_seed_is_refused_where_no_colouring_is_drawn(argv):
    assert run_cli(*argv.split())[0] == 0
    code, out, err = run_cli(*argv.split(), "--seed", "1")
    assert (code, out) == (1, "")
    assert err == "blocksets: error: unrecognized arguments: --seed 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        "colour eval --colouring random:k=2 --word 12",
        "search mono --colouring random:k=2 --template 12 --n 3 --size-mode equal:1 --workers 1",
        "extract thm3 --colouring constant:c=0,k=1 --k 1 --n 6 --set 1,2,3,4,5,6",
        "lattice ap --colouring random:k=2 --box 0..2^2 --d 1 --workers 1",
        "lattice ball --colouring random:k=2 --box 0..2^2 --r 1 --t 1 --d 1 --workers 1",
    ],
)
def test_seed_is_accepted_with_a_colouring(argv):
    assert run_cli(*argv.split(), "--seed", "1")[0] == 0


def test_usage_error_exit_1_no_partial_report():
    code, out, err = run_cli("verify", "thm2", "--d", "0", "--n", "4")
    assert code == 1
    assert out == ""
    assert "error" in err

    code, out, err = run_cli("no-such-command")
    assert code == 1
    assert out == ""


def test_usage_errors_are_aggregated():
    code, out, err = run_cli(
        "search", "mono", "--colouring", "countmod:s=1,k=2", "--template", "321",
        "--n", "-1", "--size-mode", "weird:2",
    )
    assert code == 1
    assert out == ""
    # one line mentioning each problem
    assert "321" in err and "-1" in err and "weird" in err


def test_verify_thm2_max_size_0_is_rejected():
    code, out, err = run_cli("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "9", "--max-size", "0")
    assert (code, out) == (1, "")
    assert err == "blocksets: error: --max-size must be >= 1, got 0\n"


def test_verify_thm2_d_and_n_problems_are_aggregated():
    code, out, err = run_cli("verify", "thm2", "--d", "0", "--n", "-1")
    assert (code, out) == (1, "")
    assert err == "blocksets: error: --n must be >= 0, got -1; --d must be >= 1, got 0\n"


def test_blockset_enum_negative_limit_is_rejected():
    argv = ("blockset", "enum", "--template", "123", "--n", "6", "--size-mode", "equal:2")
    code, out, err = run_cli(*argv, "--limit", "-1")
    assert (code, out) == (1, "")
    assert err == "blocksets: error: --limit must be >= 0, got -1\n"
    report = run_json(*argv, "--limit", "0")
    assert (report["count"], report["truncated"]) == (0, True)


def test_output_file_and_unwritable_path(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        "verify", "thm2", "--d", "1", "--n", "4", "--output", str(path), "--workers", "1"
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["found"] == []

    code, _, err = run_cli(
        "verify", "thm2", "--d", "1", "--n", "4",
        "--output", str(tmp_path / "missing" / "report.json"), "--workers", "1",
    )
    assert code == 1
    assert "cannot write report" in err


def test_table_colouring_spec(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"12": 0, "21": 0, "11": 1, "22": 1}))
    colouring = parse_word_colouring(f"table:@{path}")
    assert isinstance(colouring, TableColouring)
    report = run_json(
        "colour", "eval", "--colouring", f"table:@{path}", "--word", "21", "--m", "2",
        "--format", "json",
    )
    assert report["id"] == 0


def test_induced_colouring_spec():
    colouring = parse_word_colouring("induced:base=contribution:m=2,l=2,k=1")
    assert isinstance(colouring, InducedColouring)
    assert isinstance(colouring.base, ContributionColouring)
    assert colouring.k == 1


# ---------------------------------------------------------------------------
# scans that cannot be answered exit 1 without a traceback


def test_scan_of_induced_colouring_exits_1():
    code, out, err = run_cli(
        "search", "mono", "--colouring", "induced:base=contribution:m=2,l=2,k=1",
        "--template", "123", "--n", "6", "--size-mode", "equal:1", "--workers", "1",
    )
    assert code == 1 and out == ""
    assert "does not have exactly 4 2s and no 1s" in err


def test_scan_of_partial_table_exits_1(tmp_path):
    path = tmp_path / "partial.json"
    # every point the only 123 placement in [3]^3 generates, and nothing else
    path.write_text(json.dumps({w: 0 for w in ("123", "132", "213", "231", "312", "321")}))
    code, out, err = run_cli(
        "search", "mono", "--colouring", f"table:@{path}",
        "--template", "123", "--n", "3", "--size-mode", "equal:1", "--workers", "1",
    )
    assert code == 1 and out == ""
    assert f"table table:@{path} does not cover exactly [3]^3" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search", "mono", "--colouring", "countmod:s=1,k=0", "--template", "123", "--n", "4",
          "--size-mode", "equal:1", "--workers", "1"), "need modulus >= 1"),
        (("search", "mono", "--colouring", "countmod:s=1,k=-2", "--template", "123", "--n", "4",
          "--size-mode", "equal:1", "--workers", "1"), "need modulus >= 1"),
        (("colour", "eval", "--colouring", "countmod:s=1,k=0", "--word", "123"), "need modulus >= 1"),
        (("colour", "eval", "--colouring", "constant:c=5,k=1", "--word", "123"), "need 0 <= value < colours"),
        (("colour", "eval", "--colouring", "constant:c=0,k=0", "--word", "123"), "need 0 <= value < colours"),
        (("colour", "eval", "--colouring", "constant:c=-1,k=2", "--word", "123"), "need 0 <= value < colours"),
        (("search", "mono", "--colouring", "constant:c=5,k=1", "--template", "123", "--n", "3",
          "--size-mode", "equal:1", "--workers", "1"), "need 0 <= value < colours"),
    ],
)
def test_bad_colour_bounds_exit_1(argv, message):
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    assert err.startswith("blocksets: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("n", [31, 34])
def test_verify_thm2_degree3_reports_absence_past_the_table_limit(n):
    """d=3 is one 1, three 2s and 27 3s with blocks of size <= 3: a direct scan would need [3]^n."""
    report = run_json("verify", "thm2", "--d", "3", "--n", str(n), "--workers", "1")
    examined = 0  # families of 31 blocks by size multiset, n! / ((n-b)! prod size!^count count!), 3^(n-b) references
    for sizes in itertools.combinations_with_replacement(range(1, 4), 31):
        if sum(sizes) <= n:
            families = math.factorial(n) // math.factorial(n - sum(sizes))
            for size in set(sizes):
                families //= math.factorial(size) ** sizes.count(size) * math.factorial(sizes.count(size))
            examined += families * 3 ** (n - sum(sizes))
    assert (report["examined"], report["found"]) == (examined, [])


def test_scan_past_the_table_limit_exits_1_at_once():
    # the pq12 template 1233 climbs its two 3s, so its longest scan at n=18 is [3]^17
    t0 = time.perf_counter()
    code, out, err = run_cli("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "18", "--workers", "1")
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    assert "a scan of [3]^17 needs 129,140,163 colour-table entries" in err
    assert "the limits are 50,000,000 entries" in err


def test_hits_past_the_listing_limit_exit_1():
    """pq12 at n=17 reads [3]^16, inside the table limit, but has millions of hits to list.

    The listing is counted from the climb's hits before it is built, so the
    run ends with one message instead of running out of memory.
    """
    code, out, err = run_cli("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "17", "--workers", "1")
    assert (code, out) == (1, "")
    assert err == (
        "blocksets: error: listing the 6,538,048 monochromatic placements at n=17 "
        "needs 137,299,008 entries; the limit is 50,000,000\n"
    )


# ---------------------------------------------------------------------------
# malformed input: one line on stderr that names the flag, option or file


@pytest.fixture
def table_files(tmp_path, monkeypatch):
    """Table files in the working directory, so that messages name them as the flags do."""
    monkeypatch.chdir(tmp_path)
    for name, table in [("key.json", {"1a": 0}), ("value.json", {"12": "x"}), ("t.json", {"12": 0, "21": 1})]:
        (tmp_path / name).write_text(json.dumps(table))
    (tmp_path / "list.json").write_text("[]")


MONO_123 = ("search", "mono", "--template", "123", "--n", "4", "--size-mode", "mixed:1", "--workers", "1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (MONO_123 + ("--colouring", "random:k=x"), "option k of colouring 'random:k=x': expected an integer, got 'x'"),
        (("lattice", "ap", "--colouring", "coordsum:d=x", "--box", "0..3^2", "--d", "1"),
         "option d of colouring 'coordsum:d=x': expected an integer, got 'x'"),
        (("colour", "eval", "--colouring", "induced:base=constant,k=x", "--word", "2233"),
         "option k of colouring 'induced:base=constant,k=x': expected an integer, got 'x'"),
        (MONO_123 + ("--colouring", "constant", "--reference-domain", "1x"),
         "--reference-domain: expected an integer, got 'x'"),
        (("blockset", "points", "--template", "123", "--blocks", "1;2;3", "--n", "5", "--reference", "1x"),
         "--reference: expected an integer, got 'x'"),
        (("extract", "thm3", "--colouring", "constant:c=0,k=1", "--k", "1", "--n", "8", "--set", "1,2,x"),
         "--set: expected an integer, got 'x'"),
        (("colour", "eval", "--colouring", "table:@key.json", "--word", "12"),
         "table file key.json key '1a': expected an integer, got 'a'"),
        (("colour", "eval", "--colouring", "table:@value.json", "--word", "12"),
         "table file value.json value of '12': expected an integer, got 'x'"),
        (("blockset", "points", "--template", "123", "--blocks", "1;2;x", "--n", "5", "--reference", "11"),
         "--blocks '1;2;x': expected an integer, got 'x'"),
        (("verify", "thm2", "--d", "2", "--pq", "1,x", "--n", "5", "--workers", "1"),
         "--pq '1,x': expected an integer, got 'x'"),
    ],
)
def test_malformed_numbers_name_their_flag_and_value(table_files, argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (1, "", f"blocksets: error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("colour", "eval", "--colouring", "table:x", "--word", "11"),
         "table spec needs a file: table:@file.json, got 'table:x'"),
        (("colour", "eval", "--colouring", "induced:x", "--word", "11"),
         "induced spec needs base=<spec>,k=<int>, got 'induced:x'"),
        (("colour", "eval", "--colouring", "induced:base=constant", "--word", "11"),
         "induced spec needs a trailing ,k=<int>, got 'induced:base=constant'"),
        (("search", "mono", "--colouring", "random:k=2", "--template", "123", "--n", "0", "--size-mode", "mixed:1"),
         "random colouring needs a word length from --n"),
        (("colour", "eval", "--colouring", "foo:x", "--word", "11"), "unknown colouring spec 'foo:x'"),
        (("lattice", "ap", "--colouring", "foo", "--box", "0..3^2", "--d", "1"), "unknown lattice colouring spec 'foo'"),
        (("colour", "eval", "--colouring", "constant:q=2", "--word", "11"),
         "bad colouring option 'q=2' (expected one of ['c', 'k'])"),
        (("colour", "eval", "--colouring", "countmod:s=1", "--word", "11"), "colouring spec missing options: ['k']"),
        (("colour", "eval", "--colouring", "table:@list.json", "--word", "11"),
         "table file list.json must be a non-empty JSON object"),
        (("blockset", "points", "--template", "123", "--blocks", "1;2;3", "--n", "5", "--reference", "1"),
         "reference has 1 symbols for 2 non-block coordinates"),
        (("colour", "eval", "--colouring", "table:@t.json", "--word", "11", "--m", "2"),
         "word 11 outside table domain"),
    ],
)
def test_spec_and_domain_errors_exit_1_with_one_line(table_files, argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (1, "", f"blocksets: error: {message}\n")


TABLE_ONE_SHAPE = "needs words of one length and alphabet, with ids >= 0"


@pytest.mark.parametrize(
    "table, verb, message",
    [
        ({"12": 1.5, "21": 0, "11": 0, "22": 0}, "eval", "table file bad.json value of '12': expected an integer, got 1.5"),
        ({"12": True, "21": 0, "11": 0, "22": 0}, "eval", "table file bad.json value of '12': expected an integer, got True"),
        ({"": 0}, "eval", "word 12 outside table domain"),  # the colouring of [2]^0
        ({"12": -1, "21": 0, "11": 0, "22": 0}, "eval", f"table table:@bad.json {TABLE_ONE_SHAPE}"),
        ({"12": -1, "21": 0, "11": 0, "22": 0}, "mono", f"table table:@bad.json {TABLE_ONE_SHAPE}"),
        ({"12": 0, "1": 1}, "eval", f"table table:@bad.json {TABLE_ONE_SHAPE}"),
        ({"3" * 17: 0}, "eval", "table table:@bad.json of [3]^17 needs 129,140,163 entries; the limit is 50,000,000"),
    ],
    ids=["float", "bool", "empty-word", "negative", "negative-scan", "two-lengths", "past-the-limit"],
)
def test_malformed_table_files_exit_1_with_one_line(tmp_path, monkeypatch, table, verb, message):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(json.dumps(table))
    if verb == "eval":
        argv = ("colour", "eval", "--word", "12", "--m", "2")
    else:
        argv = ("search", "mono", "--template", "12", "--n", "2", "--size-mode", "equal:1", "--workers", "1")
    code, out, err = run_cli(*argv, "--colouring", "table:@bad.json")
    assert (code, out, err) == (1, "", f"blocksets: error: {message}\n")


def test_domain_error_is_a_key_error_with_a_bare_message():
    error = DomainError("word 11 outside table domain")
    assert isinstance(error, KeyError) and str(error) == "word 11 outside table domain"


def test_too_few_coordinates_exit_1_before_the_table(table_files):
    for colouring in ("table:@t.json", "induced:base=constant,k=1"):
        argv = ("search", "mono", "--colouring", colouring, "--template", "123", "--n", "2", "--size-mode", "mixed:1")
        code, out, err = run_cli(*argv, "--workers", "1")
        assert (code, out, err) == (1, "", "blocksets: error: n=2 cannot hold 3 disjoint blocks of size >= 1\n")


# ---------------------------------------------------------------------------
# report forms


def test_colour_eval_csv_has_one_header_and_one_row():
    code, out, _ = run_cli("colour", "eval", "--colouring", "contribution:m=2,l=2", "--word", "121", "--format", "csv")
    assert (code, out) == (0, 'colouring,id,op,vector,word\n"contribution:m=2,l=2",0,colour_eval,"[0, 0]",121\n')


def test_search_mono_text_lists_the_found_entries():
    code, out, _ = run_cli(
        "search", "mono", "--colouring", "countmod:s=1,k=2", "--template", "12", "--n", "2",
        "--size-mode", "equal:1", "--workers", "1", "--format", "text", "--stable",
    )
    assert code == 0
    assert "found: 1\n" in out
    assert '  {"colour": 1, "placement": {"blocks": [[1], [2]], "n": 2, "pattern": "AB", "reference": {}}}\n' in out


def test_colour_eval_of_an_induced_colouring_prints_its_tuple():
    code, out, _ = run_cli("colour", "eval", "--colouring", "induced:base=countmod:s=1,k=2,k=1", "--word", "322223")
    assert code == 0 and "tuple: (0, 0, 0, 0, 0, 0)\n" in out


def test_extract_thm3_without_a_homogeneous_set():
    report = run_json("extract", "thm3", "--colouring", "constant:c=0,k=1", "--k", "1", "--n", "5")
    params = {"op": "extract_abccba", "colouring": "constant:0", "k": 1, "n": 5}
    assert report == {"params": params, "status": "no_homogeneous_set", "found": []}


def test_module_entry_point_exits_with_the_dispatch_code():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for d, code in [("1", 0), ("0", 1)]:
        argv = ["verify", "thm2", "--d", d, "--n", "4", "--workers", "1", "--stable"]
        run = [sys.executable, "-m", "blocksets.cli", *argv]
        result = subprocess.run(run, env=env, capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == run_cli(*argv)
        assert result.returncode == code


# ---------------------------------------------------------------------------
# documentation


def _readme_cli_examples() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("blocksets ")]


def test_parser_is_built_once_and_parsing_leaves_it_unchanged():
    parser = build_parser()
    assert build_parser() is parser
    witness = "search witness --template 123 --n 4 --size-mode mixed:1 --k 2".split()
    first = parser.parse_args(witness + ["--budget", "5", "--format", "csv", "--stable"])
    again = parser.parse_args(witness)
    assert (first.budget, first.format, first.stable) == (5, "csv", True)
    assert (again.budget, again.format, again.stable) == (1_000_000, "json", False)
    with pytest.raises(UsageError):
        parser.parse_args(witness + ["--k", "x"])
    assert parser.parse_args("colour eval --colouring countmod:s=1,k=2 --word 12".split()).format == "text"
    mono = parser.parse_args("search mono --colouring countmod:s=1,k=2 --template 12 --n 2 --size-mode equal:1".split())
    assert (mono.workers, mono.format) == (_default_workers(), "json")
    assert run_cli(*witness, "--stable")[0] == 0


def test_readme_examples_run():
    verbs = set()
    for argv in _readme_cli_examples():
        args = build_parser().parse_args(argv)
        verbs.add((args.command, args.subcommand))
        if hasattr(args, "workers"):
            argv = argv + ["--workers", "1"]
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, ""), argv
        assert out
    assert verbs == set(_HANDLERS)


def test_unknown_report_format_is_a_usage_error():
    with pytest.raises(UsageError, match="^unknown format 'yaml'$"):
        emit_report({"found": []}, "yaml", io.StringIO())
