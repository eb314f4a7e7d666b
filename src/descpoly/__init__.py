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
"""

from .bijection import (
    FamilyError,
    InvariantError,
    Violation,
    bijection_certificate,
    classify,
    family_one_violations,
    family_two_violations,
    find_adjoint,
    find_repair_chain,
    order_independence_certificate,
    phi,
    psi,
)
from .families import (
    BRUTE_FORCE_CAP,
    ResourceCapError,
    catalan,
    complement_poly,
    complement_spiral_report,
    cubic_equation_residual,
    derangement_count,
    derangement_poly,
    desarrangement_histogram,
    eulerian_gamma,
    eulerian_poly,
    gamma_poly,
    narayana_poly,
    schroder_number,
    separable_gamma,
    separable_poly,
    separable_split,
    spiral_report,
    verify_series_identity,
)
from .gessel import GesselGamma, Indeterminate, gessel_gamma, two_var_poly
from .permutations import (
    Permutation,
    all_permutations,
    derangements,
    desarrangements,
    insert_value,
    is_separable,
    parse_permutation,
    separable_permutations,
)
from .polynomials import (
    GammaVector,
    IntPolynomial,
    NotPalindromicError,
    gamma_decompose,
    is_palindromic,
    is_unimodal,
)
from .realroots import is_real_rooted, real_root_count
from .rcindex import RCIndex, gamma_from_shapes, monomial_of_shape, rc_index
from .trees import (
    DiskTree,
    InvalidTreeError,
    TreeShape,
    enumerate_shapes,
    enumerate_trees,
    perm_to_tree,
    tree_to_word,
    word_to_tree,
)
from .verify import PolyCache, VerificationReport, verify_suite
from .words import (
    InvalidWordError,
    NotSeparableError,
    SchroderWord,
    enumerate_words,
    sweep,
    word_to_perm,
)

__version__ = "0.1.0"
