"""Every order, count and depth argument goes through one gate,
``value.need``: an ``int``, not a bool, of at least its bound.

An ``int`` below the bound is refused with ``need {name} >= {least}``,
the line the CLI prints; anything else that is no ``int`` with one wording
at every entry.  Each entry refuses before it does any work.
"""

import re

import pytest

import descpoly.bijection
from descpoly import families
from descpoly.bijection import bijection_certificate, order_independence_certificate
from descpoly.families import PolyCache
from descpoly.gessel import two_var_poly
from descpoly.permutations import all_permutations, identity, separable_permutations
from descpoly.polynomials import IntPolynomial, gamma_decompose
from descpoly.rcindex import gamma_from_shapes, rc_index
from descpoly.trees import DiskTree, enumerate_shapes, enumerate_trees
from descpoly.verify import SUITES, verify_suite
from descpoly.words import enumerate_words

# (entry, argument name, least value, call with the argument)
SITES = [
    ("catalan", "n", 0, families.catalan),
    ("derangement_count", "n", 0, families.derangement_count),
    ("schroder_number", "n", 1, families.schroder_number),
    ("separable_poly", "n", 1, families.separable_poly),
    ("complement_poly enum", "n", 1, lambda v: families.complement_poly(v, "enum")),
    ("derangement_poly", "n", 1, families.derangement_poly),
    ("eulerian_poly", "n", 1, families.eulerian_poly),
    ("complement_poly", "n", 1, families.complement_poly),
    ("gamma_poly", "n", 1, families.gamma_poly),
    ("separable_split", "n", 1, families.separable_split),
    ("separable_split_enum", "n", 1, families.separable_split_enum),
    ("narayana_poly", "n", 1, families.narayana_poly),
    ("cubic_equation_residual", "order", 1, families.cubic_equation_residual),
    ("spiral_report", "n", 2, families.spiral_report),
    ("complement_spiral_report", "n", 2, families.complement_spiral_report),
    ("verify_series_identity n", "n", 2, lambda v: families.verify_series_identity(v, 5)),
    ("verify_series_identity order", "order", 1,
     lambda v: families.verify_series_identity(4, v)),
    ("two_var_poly", "n", 1, two_var_poly),
    ("all_permutations", "n", 0, all_permutations),
    ("separable_permutations", "n", 0, separable_permutations),
    ("identity", "n", 0, identity),
    ("rc_index", "n", 1, rc_index),
    ("gamma_from_shapes n", "n", 1, lambda v: gamma_from_shapes(v, 0)),
    ("gamma_from_shapes k", "k", 0, lambda v: gamma_from_shapes(5, v)),
    ("enumerate_shapes", "n", 1, enumerate_shapes),
    ("enumerate_trees", "n", 1, enumerate_trees),
    ("enumerate_trees n_minus", "n_minus", 0, lambda v: enumerate_trees(4, n_minus=v)),
    ("enumerate_words", "n", 1, enumerate_words),
    ("gamma_decompose darga", "darga", 0, lambda v: gamma_decompose(IntPolynomial((1,)), v)),
]

# The entries whose work can be watched: each is replaced by None, so any
# use of it before the refusal would fail otherwise.
WATCHED = [
    ("order_independence_certificate", "trials", 1, "classify",
     lambda v: order_independence_certificate(DiskTree.parse("(- (+ _ _) _)"), trials=v)),
    ("bijection_certificate n", "n", 1, "enumerate_trees", lambda v: bijection_certificate(v, 0)),
    ("bijection_certificate k", "k", 0, "enumerate_trees", lambda v: bijection_certificate(5, v)),
]

NOT_INTS = [True, 2.5, "3"]


def _refusals(name, least):
    """(value, anchored message) for the int below the bound and each non-int."""
    yield least - 1, f"^need {name} >= {least}$"
    for value in NOT_INTS:
        yield value, f"^{name} must be an int of at least {least}, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("name, least, call", [site[1:] for site in SITES],
                         ids=[site[0] for site in SITES])
def test_every_entry_refuses_what_need_refuses(name, least, call):
    for value, message in _refusals(name, least):
        with pytest.raises(ValueError, match=message):
            call(value)  # an enumerator is not iterated: it refuses at the call
    call(least)  # the bound itself is taken


@pytest.mark.parametrize("name, least, hidden, call", [site[1:] for site in WATCHED],
                         ids=[site[0] for site in WATCHED])
def test_the_certificates_refuse_before_any_work(monkeypatch, name, least, hidden, call):
    monkeypatch.setattr(descpoly.bijection, hidden, None)
    for value, message in _refusals(name, least):
        with pytest.raises(ValueError, match=message):
            call(value)


def test_verify_suite_refuses_before_the_suite_runs(monkeypatch):
    monkeypatch.setitem(SUITES, "bijection", None)
    for value, message in _refusals("max_n", 1):
        with pytest.raises(ValueError, match=message):
            verify_suite("bijection", value)


def test_the_cache_refuses_before_touching_a_file(tmp_path):
    for value, message in _refusals("n", 1):
        with pytest.raises(ValueError, match=message):
            PolyCache(tmp_path).get("S", value)
    assert list(tmp_path.iterdir()) == []


def test_a_memoized_order_does_not_admit_its_bool():
    # A one-argument call keys a bool apart from the equal int, so the
    # gate runs on the miss and refuses it.
    families.separable_poly(1)
    with pytest.raises(ValueError, match="^n must be an int of at least 1, got True$"):
        families.separable_poly(True)


@pytest.mark.parametrize("member", [families.separable_poly, families.derangement_poly,
                                    families.eulerian_poly, families.gamma_poly],
                         ids=lambda member: member.__name__)
@pytest.mark.parametrize("method", ["recurrence", "enum"])
def test_a_memoized_order_with_its_method_does_not_admit_its_bool_or_float(member, method):
    # With an explicit method the memo's key is a tuple, where True == 1
    # and 2.0 == 2; the memo keys each argument's type too, so the gate
    # runs on the miss.
    for n, other in ((1, True), (2, 2.0)):
        member(n, method)
        with pytest.raises(ValueError, match=f"^n must be an int of at least 1, got {other!r}$"):
            member(other, method)
