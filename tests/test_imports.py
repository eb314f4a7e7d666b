"""The import contract: ``import descpoly`` is lazy, each subcommand loads
only the modules it uses, no subcommand loads ``dataclasses`` (or the
``inspect`` it pulls in), and the package keeps its public names.

Each check of ``sys.modules`` runs in a fresh interpreter.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import descpoly
from descpoly import cli
from descpoly.families import PolyCache
from descpoly.verify import SUITES

# The public names, by the module the package imported each from before it
# became lazy.
OLD_HOMES = {
    "bijection": [
        "FamilyError", "InvariantError", "Violation", "bijection_certificate",
        "classify", "family_one_violations", "family_two_violations",
        "find_adjoint", "find_repair_chain", "order_independence_certificate",
        "phi", "psi",
    ],
    "families": [
        "BRUTE_FORCE_CAP", "ResourceCapError", "catalan", "complement_poly",
        "complement_spiral_report", "cubic_equation_residual",
        "derangement_count", "derangement_poly", "desarrangement_histogram",
        "eulerian_gamma", "eulerian_poly", "gamma_poly", "narayana_poly",
        "schroder_number", "separable_gamma", "separable_poly",
        "separable_split", "spiral_report", "verify_series_identity",
    ],
    "gessel": ["GesselGamma", "gessel_gamma", "two_var_poly"],
    "permutations": [
        "Permutation", "all_permutations", "derangements", "desarrangements",
        "insert_value", "is_separable", "parse_permutation",
        "separable_permutations",
    ],
    "polynomials": [
        "GammaVector", "IntPolynomial", "NotPalindromicError",
        "gamma_decompose", "is_palindromic", "is_unimodal",
    ],
    "realroots": ["is_real_rooted", "real_root_count"],
    "rcindex": ["RCIndex", "gamma_from_shapes", "monomial_of_shape", "rc_index"],
    "trees": [
        "DiskTree", "InvalidTreeError", "TreeShape", "enumerate_shapes",
        "enumerate_trees", "perm_to_tree", "tree_to_word", "word_to_tree",
    ],
    "verify": ["PolyCache", "VerificationReport", "verify_suite"],
    "words": [
        "InvalidWordError", "NotSeparableError", "SchroderWord",
        "enumerate_words", "sweep", "word_to_perm",
    ],
}
OLD_NAMES = sorted(name for names in OLD_HOMES.values() for name in names)


# Modules that cost a command start-up time and that no command needs.
HEAVY = {"dataclasses", "inspect"}


def modules_after(code: str) -> set[str]:
    """Every module in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    return set(json.loads(result.stderr.splitlines()[-1]))


def submodules(modules: set[str]) -> set[str]:
    """The descpoly submodules among ``modules``, without the package and
    its ``__main__``."""
    return {m.split(".", 1)[1] for m in modules
            if m.startswith("descpoly.")} - {"__main__"}


def modules_after_command(*argv: str) -> set[str]:
    """Every module that ``python -m descpoly ARGV`` leaves loaded."""
    return modules_after(
        "import runpy, sys\n"
        f"sys.argv = ['descpoly', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('descpoly', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
    )


def loaded_by_command(*argv: str) -> set[str]:
    """The submodules that ``python -m descpoly ARGV`` loads."""
    return submodules(modules_after_command(*argv))


def test_import_descpoly_loads_no_submodule():
    assert submodules(modules_after("import descpoly")) == set()


def test_help_loads_only_the_cli():
    assert loaded_by_command("--help") == {"cli"}


def test_sweep_and_tree_load_only_their_modules():
    assert loaded_by_command("sweep", "2413") == {"cli", "nested", "permutations", "value",
                                                  "words"}
    assert loaded_by_command("tree", "2143") == {"cli", "nested", "permutations", "value",
                                                 "words", "trees"}


def test_poly_from_the_cache_loads_no_verification_module(tmp_path):
    loaded = loaded_by_command("poly", "S", "24", "--cache-dir", str(tmp_path))
    assert "families" in loaded
    assert loaded.isdisjoint({"bijection", "gessel", "verify", "realroots"})


def test_poly_loads_no_enumeration_module():
    # the enumeration oracles import nested and permutations when they run
    assert loaded_by_command("poly", "D", "200") == {"cli", "errors", "families",
                                                     "polynomials", "value"}


def test_rc_index_loads_no_tree_module():
    # the index comes from the chain grammar, not from a walk over shapes
    assert loaded_by_command("rc-index", "5") == {"cli", "errors", "polynomials", "rcindex",
                                                  "value"}


# The modules each verify suite loads: the suite's own, imported when it
# runs, on top of cli, verify, families and what families imports.
SUITE_MODULES = {
    "tables": {"nested", "permutations", "rcindex", "trees", "words"},
    "identities": {"nested", "permutations", "rcindex", "trees", "words"},
    "bijection": {"bijection", "nested", "permutations", "trees", "words"},
    "conjectures": {"gessel", "realroots"},
}
SUITE_ARGS = {"tables": (), "identities": ("--max-n", "3"), "bijection": ("--max-n", "3"),
              "conjectures": ("--max-n", "4")}


@pytest.mark.parametrize("suite", sorted(SUITE_MODULES))
def test_each_verify_suite_loads_only_its_modules(suite):
    modules = modules_after_command("verify", suite, *SUITE_ARGS[suite])
    common = {"cli", "errors", "families", "polynomials", "value", "verify"}
    assert submodules(modules) == common | SUITE_MODULES[suite]
    assert not modules & HEAVY


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("sweep", "2413"),
    ("sweep", "2143"),
    ("tree", "2143"),
    ("poly", "S", "5"),
    ("poly", "A", "5", "--method", "enum"),
    ("gamma", "S", "5"),
    ("rc-index", "5"),
    ("rc-index", "5", "--ab"),
    ("bij", "psi", "--tree", "{tree}"),
    ("bij", "phi", "--tree", "{tree}"),
], ids=" ".join)
def test_no_command_loads_dataclasses_or_inspect(argv, tmp_path):
    tree = tmp_path / "t.tree"
    tree.write_text("(- (+ _ _) _)")
    modules = modules_after_command(*(a.format(tree=tree) for a in argv))
    assert "descpoly.cli" in modules
    assert not modules & HEAVY


def test_poly_from_the_cache_loads_neither_dataclasses_nor_inspect(tmp_path):
    for _ in range(2):  # a write, then a read
        modules = modules_after_command("poly", "S", "6", "--cache-dir", str(tmp_path))
        assert "descpoly.families" in modules and not modules & HEAVY
    assert (tmp_path / "S_6.json").is_file()


def test_no_module_imports_dataclasses():
    package = Path(descpoly.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert len(list(package.rglob("*.py"))) > 10
    assert found == []


def test_public_names_are_the_old_ones():
    assert sorted(descpoly.__all__) == OLD_NAMES
    assert len(OLD_NAMES) == 71
    namespace = {}
    exec("from descpoly import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == OLD_NAMES
    assert set(OLD_NAMES) <= set(dir(descpoly))


def test_the_benchmark_worker_imports_only_public_names():
    # Read, not imported: importing the worker would start its clock.
    worker = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    tree = ast.parse(worker.read_text(encoding="utf-8"), filename=str(worker))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "descpoly"
             for alias in node.names]
    assert len(names) > 10
    assert sorted(set(names) - set(descpoly.__all__)) == []


@pytest.mark.parametrize("module", sorted(OLD_HOMES))
def test_each_name_is_the_object_at_its_old_home(module):
    home = importlib.import_module(f"descpoly.{module}")
    for name in OLD_HOMES[module]:
        assert getattr(descpoly, name) is getattr(home, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonsense"):
        descpoly.nonsense  # noqa: B018


def test_parser_choices_match_the_tables():
    assert cli.FAMILY_NAMES == tuple(sorted(PolyCache.FAMILIES))
    assert cli.SUITE_NAMES == tuple(sorted(SUITES))
