"""Exact combinatorics of separable permutations and descent polynomials.

The package provides, in pure exact arithmetic:

* permutations with descent-type statistics, direct and skew sums, pattern
  containment, derangements and desarrangements (``permutations``);
* the sweeping decomposition of separable permutations into Schröder
  words, and back (``words``);
* di-sk trees with their right-chain structure, chain flips, and shape
  classes (``trees``);
* the cut-and-paste bijection behind the gamma-positivity of the
  separable descent polynomial (``bijection``);
* the polynomial families S, D, A, their recurrences, gamma
  decompositions, spiral interleaving and real-rootedness certificates
  (``polynomials``, ``families``, ``realroots``);
* the joint (ides, des) gamma expansion (``gessel``) and the
  noncommutative rc-index (``rcindex``);
* pinned verification suites and a small CLI (``verify``, ``cli``).

``import descpoly`` loads none of these modules.  A public name is looked
up in ``_HOMES`` on first use, its module imported, and the object kept
in the package namespace (the module ``__getattr__`` of PEP 562), so a
process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_HOMES = {
    "bijection": (
        "FamilyError", "Violation", "bijection_certificate", "classify",
        "family_one_violations", "family_two_violations", "find_adjoint",
        "find_repair_chain", "order_independence_certificate", "phi", "psi",
    ),
    "errors": ("InvariantError", "ResourceCapError"),
    "families": (
        "BRUTE_FORCE_CAP", "PolyCache", "catalan", "complement_poly",
        "complement_spiral_report", "cubic_equation_residual",
        "derangement_count", "derangement_poly", "desarrangement_histogram",
        "eulerian_gamma", "eulerian_poly", "gamma_poly", "narayana_poly",
        "schroder_number", "separable_gamma", "separable_poly",
        "separable_split", "spiral_report", "verify_series_identity",
    ),
    "gessel": ("GesselGamma", "gessel_gamma", "two_var_poly"),
    "permutations": (
        "Permutation", "all_permutations", "derangements", "desarrangements",
        "insert_value", "is_separable", "parse_permutation",
        "separable_permutations",
    ),
    "polynomials": (
        "GammaVector", "IntPolynomial", "NotPalindromicError",
        "gamma_decompose", "is_palindromic", "is_unimodal",
    ),
    "realroots": ("is_real_rooted", "real_root_count"),
    "rcindex": ("RCIndex", "gamma_from_shapes", "monomial_of_shape", "rc_index"),
    "trees": (
        "DiskTree", "InvalidTreeError", "TreeShape", "enumerate_shapes",
        "enumerate_trees", "perm_to_tree", "tree_to_word", "word_to_tree",
    ),
    "verify": ("VerificationReport", "verify_suite"),
    "words": (
        "InvalidWordError", "NotSeparableError", "SchroderWord",
        "enumerate_words", "sweep", "word_to_perm",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
