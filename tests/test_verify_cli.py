"""The verification suites, report formats, cache, and CLI surface."""

import csv
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import pytest

from descpoly.cli import main
from descpoly.families import (
    derangement_count,
    derangement_poly,
    schroder_number,
    separable_poly,
)
from descpoly.polynomials import IntPolynomial
from descpoly.verify import (
    CASE_FIRST_SEEN,
    DISCREPANCY,
    FAIL,
    PASS,
    SUITES,
    PolyCache,
    conjectures_suite,
    tables_suite,
    verify_suite,
)


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_tables_suite_passes_with_one_discrepancy():
    report = tables_suite()
    counts = report.counts()
    assert report.passed
    assert counts[FAIL] == 0
    assert counts[DISCREPANCY] == 1
    flagged = [r for r in report.records if r.status == DISCREPANCY]
    assert flagged[0].id == "tables.D.7.t2"


def test_verify_suite_dispatch_and_unknown():
    report = verify_suite("conjectures", 12)
    assert report.passed and report.suite == "conjectures"
    with pytest.raises(KeyError):
        verify_suite("nonsense")


def test_report_json_deterministic_and_time_free():
    a = verify_suite("tables").to_json_obj()
    b = verify_suite("tables").to_json_obj()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "wall" not in json.dumps(a)


def test_report_csv_has_one_row_per_check():
    report = verify_suite("tables")
    lines = report.to_csv().splitlines()
    assert len(lines) == len(report.records) + 1
    assert lines[0] == "id,subject,status,expected,actual"


def test_cache_roundtrip(tmp_path):
    cache = PolyCache(tmp_path)
    p = cache.get("D", 7)
    assert p == derangement_poly(7)
    path = cache.path("D", 7)
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["format_version"] == 1 and data["coeffs"] == [0, 32, 392, 896, 480, 54]
    # a second read comes from disk and must agree with a fresh computation
    again = PolyCache(tmp_path).get("D", 7)
    assert again == derangement_poly(7)
    for family in PolyCache.FAMILIES:
        for n in (1, 4, 6):
            assert PolyCache(tmp_path).get(family, n) == PolyCache.FAMILIES[family](n)


def test_cache_rejects_unknown_family(tmp_path):
    with pytest.raises(KeyError):
        PolyCache(tmp_path).get("Z", 3)


# Each edit leaves a file that parses; the cache must not serve it.
BAD_ENTRIES = {
    "format_version": lambda d: d.update(format_version=0),
    "family": lambda d: d.update(family="D"),
    "n": lambda d: d.update(n=4),
    "n-not-an-integer": lambda d: d.update(n=5.0),
    "float-coefficient": lambda d: d["coeffs"].__setitem__(1, 20.0),
    "string-coefficient": lambda d: d["coeffs"].__setitem__(1, "20"),
    "bool-coefficient": lambda d: d["coeffs"].__setitem__(0, True),
    "coeffs-not-a-list": lambda d: d.update(coeffs="1,20,48,20,1"),
    "degree-n": lambda d: d["coeffs"].append(1),
    "not-palindromic": lambda d: d.update(coeffs=[7, 7]),
}


@pytest.mark.parametrize("edit", sorted(BAD_ENTRIES))
def test_cache_recomputes_and_rewrites_a_bad_entry(tmp_path, edit):
    cache = PolyCache(tmp_path)
    good = cache.get("S", 5)
    path = cache.path("S", 5)
    stored = path.read_text()
    data = json.loads(stored)
    BAD_ENTRIES[edit](data)
    path.write_text(json.dumps(data))
    assert cache.get("S", 5) == good == separable_poly(5)
    assert path.read_text() == stored
    assert sorted(p.name for p in tmp_path.iterdir()) == ["S_5.json"]


@pytest.mark.parametrize("content", ["", "{", "[1, 20, 48, 20, 1]", "null"])
def test_cache_recomputes_an_unreadable_entry(tmp_path, content):
    cache = PolyCache(tmp_path)
    cache.path("D", 6).write_text(content)
    assert cache.get("D", 6) == derangement_poly(6)
    assert json.loads(cache.path("D", 6).read_text())["family"] == "D"


def test_cli_serves_no_bad_cache_entry(tmp_path, capsys):
    (tmp_path / "S_5.json").write_text(
        json.dumps({"format_version": 1, "family": "S", "n": 5, "coeffs": [7, 7]}))
    assert main(["--cache-dir", str(tmp_path), "poly", "S", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1+20t+48t^2+20t^3+t^4"


@pytest.mark.parametrize("family", sorted(PolyCache.FAMILIES))
@pytest.mark.parametrize("n", [0, -1])
def test_cache_refuses_n_below_1_before_reading(tmp_path, capsys, family, n):
    planted = tmp_path / f"{family}_{n}.json"
    planted.write_text(
        json.dumps({"format_version": 1, "family": family, "n": n, "coeffs": []}))
    with pytest.raises(ValueError, match="need n >= 1"):
        PolyCache(tmp_path).get(family, n)
    assert main(["--cache-dir", str(tmp_path), "poly", family, str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need n >= 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [planted.name]


# Hand-edited entries that pass every structural check (integer
# coefficients, degree below n) but count the wrong number of permutations:
# d_5 = 44, 4! = 24 and 4! - d_4 = 15.
@pytest.mark.parametrize("family, n, coeffs", [
    ("D", 5, [0, 8, 24, 13]),
    ("A", 4, [1, 11, 11, 2]),
    ("Dtilde", 4, [1, 7, 7, 1]),
])
def test_cache_rejects_a_wrong_value_at_1(tmp_path, capsys, family, n, coeffs):
    path = tmp_path / f"{family}_{n}.json"
    path.write_text(json.dumps({"format_version": 1, "family": family, "n": n,
                                "coeffs": coeffs}))
    good = PolyCache.FAMILIES[family](n)
    assert sum(coeffs) != good(1) and len(coeffs) <= n
    assert main(["--format", "json", "--cache-dir", str(tmp_path), "poly", family, str(n)]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == list(good.coeffs)
    assert json.loads(path.read_text())["coeffs"] == list(good.coeffs)
    # the rewritten entry is served
    assert PolyCache(tmp_path).get(family, n) == good


# Entries of S and Gamma that pass every structural check but count the
# wrong number of separable permutations (r_4 = 90): S_5(1) = 92, and 9 + 9x
# gives 9*2^4 + 9*2^2 = 180; the last has degree 3 > (5-1)/2.
@pytest.mark.parametrize("family, coeffs, text", [
    ("S", [1, 21, 48, 21, 1], "1+20t+48t^2+20t^3+t^4"),
    ("Gamma", [9, 9], "1+16x+10x^2"),
    ("Gamma", [1, 16, 10, 4], "1+16x+10x^2"),
])
def test_cache_recomputes_a_planted_S_or_Gamma_entry(tmp_path, capsys, family, coeffs, text):
    path = tmp_path / f"{family}_5.json"
    path.write_text(json.dumps({"format_version": 1, "family": family, "n": 5,
                                "coeffs": coeffs}))
    good = PolyCache.FAMILIES[family](5)
    assert main(["--cache-dir", str(tmp_path), "poly", family, "5"]) == 0
    assert capsys.readouterr().out.strip() == text
    assert json.loads(path.read_text())["coeffs"] == list(good.coeffs)
    assert PolyCache(tmp_path).get(family, 5) == good


# ---------------------------------------------------------------------------
# CLI


def test_cli_sweep(capsys):
    assert main(["sweep", "9 8 4 1 3 2 7 5 6"]) == 0
    assert capsys.readouterr().out.strip() == "((1-1)-((1-(1+(1-1)))+(1-(1+1))))"
    assert main(["sweep", "2413"]) == 1
    out = capsys.readouterr().out
    assert "NotSeparable" in out and "2413" in out


def test_cli_sweep_json(capsys):
    assert main(["--format", "json", "sweep", "231"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"separable": True, "word": "((1+1)-1)"}


def test_cli_tree(capsys):
    assert main(["tree", "984132756"]) == 0
    out = capsys.readouterr().out
    assert "(- (- _ _) (+ (- _ (+ _ (- _ _))) (- _ (+ _ _))))" in out
    assert "chains: 3 (odd 2, even 1)" in out


IDENTITY_1500 = " ".join(map(str, range(1, 1501)))


def test_cli_sweep_and_tree_on_a_deep_input(capsys):
    # the identity is a left comb of depth 1499, past the recursion limit
    assert main(["sweep", IDENTITY_1500]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "(" * 1499 + "1" + "+1)" * 1499
    assert main(["tree", IDENTITY_1500]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(+ " * 1499 + "_" + " _)" * 1499
    assert lines[1] == "chains: 1499 (odd 1499, even 0)"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_tree_too_deep_for_json(capsys, fmt):
    assert main(["--format", fmt, "tree", IDENTITY_1500]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tree nested deeper than the json module")
    assert captured.err.count("\n") == 1


def test_cli_poly(capsys):
    assert main(["poly", "D", "6"]) == 0
    assert capsys.readouterr().out.strip() == "16t+104t^2+120t^3+24t^4+t^5"
    assert main(["poly", "S", "4", "--method", "enum"]) == 0
    assert capsys.readouterr().out.strip() == "1+10t+10t^2+t^3"
    assert main(["poly", "Gamma", "6"]) == 0
    assert capsys.readouterr().out.strip() == "1+30x+61x^2"
    assert main(["poly", "Dtilde", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1+7t+7t^2"


def test_cli_poly_resource_cap(capsys):
    assert main(["poly", "S", "12", "--method", "enum"]) == 3


@pytest.mark.parametrize("argv", [
    ["poly", "S", "9", "--method", "enum"],
    ["poly", "Gamma", "9", "--method", "enum"],
    ["gamma", "N", "12"],
    ["rc-index", "19"],
])
def test_cli_every_resource_cap_exits_3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_poly_gamma_by_enumeration(capsys):
    assert main(["poly", "Gamma", "6", "--method", "enum"]) == 0
    assert capsys.readouterr().out.strip() == "1+30x+61x^2"


@pytest.mark.parametrize("family", ["D", "A", "Dtilde"])
def test_cli_poly_at_n_600_in_a_fresh_interpreter(family):
    """Past the default recursion limit: the memo is filled in increasing
    order, so no order recurses through all the ones below it."""
    result = subprocess.run(
        [sys.executable, "-m", "descpoly", "--format", "json", "poly", family, "600"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr[-500:]
    value = sum(json.loads(result.stdout)["coeffs"])
    derangements = derangement_count(600)
    assert value == {"D": derangements, "A": math.factorial(600),
                     "Dtilde": math.factorial(600) - derangements}[family]


def _cli_at_640_digits(*argv):
    """``python -m descpoly`` under a 640-digit cap on int <-> str."""
    return subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "descpoly", *argv],
        capture_output=True, text=True,
    )


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int <-> str digit limit")
def test_cli_prints_and_caches_past_the_digit_limit(tmp_path):
    """400! has 869 digits: the command lifts the cap for its own process,
    and the library modules, or ``main`` called from Python, leave it."""
    result = _cli_at_640_digits("poly", "D", "400")
    assert result.returncode == 0, result.stderr[-500:]
    terms = result.stdout.strip().split("+")
    assert sum(int(term.split("t")[0] or 1) for term in terms) == derangement_count(400)

    cache = tmp_path / "cache"
    first = _cli_at_640_digits("--cache-dir", str(cache), "poly", "A", "400")
    assert first.returncode == 0, first.stderr[-500:]
    entry = cache / "A_400.json"
    assert [p.name for p in cache.iterdir()] == [entry.name]
    written = entry.stat().st_mtime_ns
    second = _cli_at_640_digits("--cache-dir", str(cache), "poly", "A", "400")
    assert (second.returncode, second.stdout) == (0, first.stdout)
    assert entry.stat().st_mtime_ns == written  # a hit, not a rewrite

    probe = ("import sys, descpoly.families\n"
             "from descpoly.cli import main\n"
             "before = sys.get_int_max_str_digits()\n"
             "main(['poly', 'D', '3'])\n"
             "print(before, sys.get_int_max_str_digits(), file=sys.stderr)")
    result = subprocess.run([sys.executable, "-X", "int_max_str_digits=640", "-c", probe],
                            capture_output=True, text=True)
    assert result.stderr.split() == ["640", "640"]


def test_cli_poly_cache(tmp_path, capsys):
    assert main(["--cache-dir", str(tmp_path), "poly", "A", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1+26t+66t^2+26t^3+t^4"
    assert (tmp_path / "A_5.json").exists()


def test_cli_gamma(capsys):
    assert main(["gamma", "S", "5"]) == 0
    assert capsys.readouterr().out.strip() == "gamma_0=1 gamma_1=16 gamma_2=10"
    assert main(["gamma", "N", "4"]) == 0
    assert capsys.readouterr().out.strip() == "gamma_0=1 gamma_1=3"


@pytest.mark.parametrize("family", ["S", "A", "N"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_cli_gamma_rejects_n_below_one(capsys, family, n):
    # N goes through an enumeration oracle, S and A through the recurrences;
    # all three refuse an empty order with the same line.
    assert main(["gamma", family, n]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need n >= 1\n"


def test_cli_rc_index(capsys):
    assert main(["rc-index", "4"]) == 0
    assert capsys.readouterr().out.strip() == "c_1^3 + c_1c_2 + 2c_2c_1 + c_3"
    assert main(["rc-index", "4", "--eval", "2"]) == 0
    assert capsys.readouterr().out.strip() == "22"
    assert main(["rc-index", "4", "--ab"]) == 0
    assert capsys.readouterr().out.strip() == "1+10t+10t^2+t^3"


def test_cli_rc_index_at_its_cap(capsys):
    # one past it, rc-index 19, exits 3 in test_cli_every_resource_cap_exits_3
    assert main(["rc-index", "18", "--eval", "2"]) == 0
    assert capsys.readouterr().out == f"{schroder_number(18)}\n"


def test_cli_bij(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("(- (+ _ _) _)\n")
    assert main(["bij", "psi", "--tree", str(tree_file)]) == 0
    assert capsys.readouterr().out.strip() == "(- _ (+ _ _))"
    back = tmp_path / "back.txt"
    back.write_text("(- _ (+ _ _))")
    assert main(["bij", "phi", "--tree", str(back)]) == 0
    assert capsys.readouterr().out.strip() == "(- (+ _ _) _)"
    # JSON input form
    jf = tmp_path / "tree.json"
    jf.write_text(json.dumps({"label": "-", "left": {"label": "+", "left": None, "right": None}, "right": None}))
    assert main(["bij", "psi", "--tree", str(jf)]) == 0


@pytest.mark.parametrize("direction", ["psi", "phi"])
def test_cli_bij_on_a_json_null_tree(tmp_path, capsys, direction):
    # DiskTree.to_json writes the empty tree of order 1 as null
    jf = tmp_path / "tree.json"
    jf.write_text("null\n")
    assert main(["bij", direction, "--tree", str(jf)]) == 0
    assert capsys.readouterr().out == "_\n"


def test_cli_bij_tree_without_a_key(tmp_path, capsys):
    jf = tmp_path / "tree.json"
    jf.write_text('{"label": "+", "left": null}')
    assert main(["bij", "psi", "--tree", str(jf)]) == 2
    assert capsys.readouterr().err == "error: tree node without the key 'right'\n"


def test_cli_bij_domain_error(tmp_path, capsys):
    tree_file = tmp_path / "bad.txt"
    tree_file.write_text("(- _ _)")  # in neither family at k=1
    assert main(["bij", "psi", "--tree", str(tree_file)]) == 2


def test_cli_verify_tables(capsys):
    assert main(["verify", "tables"]) == 0
    out = capsys.readouterr().out
    assert "documented-discrepancy" in out
    assert "suite tables:" in out and " 0 fail" in out


def test_cli_verify_writes_nothing_to_the_cache(tmp_path, capsys):
    # the JSON report, unlike the text one, holds no timings
    assert main(["--format", "json", "verify", "tables"]) == 0
    report = capsys.readouterr().out
    assert main(["--format", "json", "--cache-dir", str(tmp_path), "verify", "tables"]) == 0
    assert capsys.readouterr().out == report
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_json(capsys):
    assert main(["--format", "json", "verify", "conjectures", "--max-n", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "conjectures" and data["passed"] is True


@pytest.mark.parametrize("argv, digest", [
    ("--format json verify tables",
     "ad656d6d263e4c8d1fdf9a0dc1c8590b8e7174ac179494c46b936a3f11c9a469"),
    ("--format json verify identities --max-n 6",
     "617e9543cb3d57504dcfb7f0254555cc24efd47cadfb5942cd56cf6a8d4334ec"),
    ("--format csv verify tables",
     "71a78cda9162462712a6cb66a7806e8f85860e16a5af5fda5ba868cbf1afd0d5"),
    ("--format json verify bijection --max-n 8",
     "cf3667a8f67aaff5968417e35b5a6fa49fc3e1e1d3e1902d42905b69c0820197"),
    ("--format json verify identities",
     "e798f4b17ac9139b613b7c47183d04c9945db9a3e95af5cd229732ba9c7c8463"),
    ("--format json verify identities --max-n 2",
     "5bcf13b6606cc5fece5965e105324c7459ef42c4b0e02df6a4b0ea14463ed3c3"),
    ("--format json verify conjectures --max-n 3",
     "b9e7ed11d94087b91a6316224b1862d829a3eff54fbf0cfe0d3fd8756e76f00d"),
])
def test_cli_verify_report_is_pinned(argv, digest):
    result = subprocess.run([sys.executable, "-m", "descpoly", *argv.split()],
                            capture_output=True)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == digest


def test_cli_usage_error(capsys):
    # argparse exits with status 2 on malformed arguments
    with pytest.raises(SystemExit) as exc:
        main(["poly", "D", "notanumber"])
    assert exc.value.code == 2
    # a bad permutation is a domain error with the same exit code
    assert main(["sweep", "10 2"]) == 2


def test_cli_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "descpoly", "poly", "D", "6"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "16t+104t^2+120t^3+24t^4+t^5"


def test_conjectures_suite_same_under_python_O():
    # -O strips assert statements; no suite may depend on any: the pinned
    # tables, the identities, the Sturm counts and the Gessel expansions of the
    # conjectures suite, and the searches and maps of the bijection suite
    # with every invariant check they make.
    for suite in (["tables"], ["identities", "--max-n", "6"], ["conjectures"],
                  ["bijection", "--max-n", "7"]):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "descpoly", "--format", "json",
                 "verify", *suite],
                capture_output=True, text=True,
            )
            for flags in ([], ["-O"])
        ]
        plain, optimized = [(r.returncode, r.stdout) for r in runs]
        assert plain[0] == 0 and json.loads(plain[1])
        assert optimized == plain, suite


def _left_comb_text(m):
    return "(+ " * m + "_" + " _)" * m


def _left_comb_json(m):
    return '{"label": "+", "left": ' * m + "null" + ', "right": null}' * m


@pytest.mark.parametrize("form", ["txt", "json"])
def test_cli_bij_on_a_deep_left_comb(tmp_path, form):
    # 1500 levels: past the interpreter's recursion limit and the json
    # module's depth.  The comb is in both families, so phi maps it to
    # itself.
    text = _left_comb_text(1500)
    tree_file = tmp_path / f"comb.{form}"
    tree_file.write_text(text if form == "txt" else _left_comb_json(1500))
    for fmt in ("text", "json"):
        result = subprocess.run(
            [sys.executable, "-m", "descpoly", "--format", fmt, "bij", "phi",
             "--tree", str(tree_file)],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        out = result.stdout.strip()
        assert (out if fmt == "text" else json.loads(out)["output"]) == text


def test_cli_bij_invariant_failure_exits_1(tmp_path, capsys, monkeypatch):
    import descpoly.bijection as bijection

    # A planner move that puts node 1 back where it was: the image is not
    # in family one, and psi's post-condition says so.
    monkeypatch.setattr(bijection, "psi_plan",
                        lambda tree: [bijection.SurgeryOp(1, "lock-left", 2, "I")])
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("(- (+ _ _) _)")
    assert main(["bij", "psi", "--tree", str(tree_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: psi lands in family one")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
def test_cli_internal_error_exits_1_with_one_line(error, capsys, monkeypatch):
    import descpoly.cli as cli

    def broken(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_sweep", broken)
    assert main(["sweep", "21"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "identities", "--max-n", "0"],
    ["verify", "conjectures", "--max-n", "-5"],
    ["verify", "bijection", "--max-n", "0"],
    ["verify", "tables", "--max-n", "-1"],
    ["verify", "tables", "--max-n", "6"],
])
def test_cli_verify_rejects_a_vacuous_max_n(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name, max_n", [("identities", 0), ("conjectures", -5),
                                          ("bijection", 0), ("tables", 3)])
def test_verify_suite_rejects_a_vacuous_max_n(name, max_n):
    with pytest.raises(ValueError):
        verify_suite(name, max_n)


@pytest.mark.parametrize("max_n", [True, False, 2.5, 3.0, "3"])
def test_verify_suite_refuses_a_max_n_that_is_no_int(monkeypatch, max_n):
    # Refused before the suite runs: True would run depth 1, and 2.5 would
    # fail inside the suite with a TypeError from range.
    monkeypatch.setitem(SUITES, "bijection", None)
    with pytest.raises(ValueError, match=rf"^max_n must be an int of at least 1, got {max_n!r}$"):
        verify_suite("bijection", max_n)


@pytest.mark.parametrize("max_n", range(1, 8))
def test_bijection_suite_passes_below_n_8(max_n):
    # The case-coverage check expects only the search cases seen by max_n.
    report = verify_suite("bijection", max_n)
    assert report.passed
    (coverage,) = [r for r in report.records if r.id == "bijection.case-coverage"]
    assert coverage.expected == coverage.actual
    assert coverage.expected == repr(sorted(
        case for case, first in CASE_FIRST_SEEN.items() if first <= max_n))


def test_bijection_suite_tree_round_trip_fails_on_a_duplicated_tree(monkeypatch):
    # One enumerated tree replaced by a copy of another: each tree still
    # comes back from its own permutation, but the trees' permutations are
    # no longer the separable ones, each once.
    import descpoly.trees as trees

    enumerate_trees = trees.enumerate_trees

    def corrupted(n, n_minus=None):
        out = list(enumerate_trees(n, n_minus))
        if n_minus is None and len(out) > 1:
            out[1] = out[0]
        return iter(out)

    def tree_records(report):
        return {r.id: r.status for r in report.records if ".roundtrip.tree." in r.id}

    expected = {f"bijection.roundtrip.tree.{n}": "pass" for n in range(1, 6)}
    assert tree_records(verify_suite("bijection", 5)) == expected
    monkeypatch.setattr(trees, "enumerate_trees", corrupted)
    expected.update({f"bijection.roundtrip.tree.{n}": "fail" for n in range(2, 6)})
    assert tree_records(verify_suite("bijection", 5)) == expected


def test_verify_bijection_json_is_the_same_under_two_hash_seeds():
    outputs = []
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "descpoly", "--format", "json", "verify", "bijection",
             "--max-n", "5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr[-500:]
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_every_suite_with_a_depth_takes_max_n_alone():
    for name, suite in SUITES.items():
        params = list(inspect.signature(suite).parameters)
        assert params == ([] if name == "tables" else ["max_n"]), name
    assert verify_suite("conjectures", 6).to_json_obj() == conjectures_suite(6).to_json_obj()


@pytest.mark.parametrize("argv, payload", [
    (["poly", "S", "4"], {"coeffs": [1, 10, 10, 1], "family": "S", "n": 4}),
    (["gamma", "S", "5"], {"darga": 4, "family": "S", "gammas": [1, 16, 10], "n": 5,
                           "start": 0}),
    (["tree", "2143"], {"tree": "(+ (- _ _) (- _ _))",
                        "json": {"label": "+", "left": {"label": "-", "left": None, "right": None},
                                 "right": {"label": "-", "left": None, "right": None}}}),
])
def test_cli_csv_is_one_header_and_one_row(argv, payload, capsys):
    assert main(["--format", "csv", *argv]) == 0
    header, row, *rest = csv.reader(io.StringIO(capsys.readouterr().out))
    assert rest == [] and header == sorted(payload)
    # list and dict cells are JSON text, the rest plain text
    assert row == [json.dumps(v) if isinstance(v, (list, dict)) else str(v)
                   for v in map(payload.get, header)]
