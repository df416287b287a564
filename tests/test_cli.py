import io
import json
import time

import pytest

from blocksets.cli import parse_and_dispatch, parse_word_colouring, degree_setup
from blocksets.colourings import ContributionColouring, InducedColouring, TableColouring


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


def test_scan_past_the_table_limit_exits_1_at_once():
    t0 = time.perf_counter()
    code, out, err = run_cli("verify", "thm2", "--d", "2", "--pq", "1,2", "--n", "17", "--workers", "1")
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    assert "a scan of [3]^17 needs 129,140,163 colour-table entries" in err
    assert "the limits are 50,000,000 entries" in err
