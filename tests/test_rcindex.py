"""The rc-index: listings, evaluations, substitution, gamma via shapes."""

from collections import Counter

import pytest

from descpoly.families import catalan, schroder_number, separable_gamma, separable_poly
from descpoly.polynomials import IntPolynomial
from descpoly.rcindex import (
    RCIndex,
    format_monomial,
    gamma_from_shapes,
    monomial_of_shape,
    rc_index,
)
from descpoly.trees import enumerate_shapes, perm_to_tree
from descpoly.permutations import parse_permutation

SCHRODER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]


def test_format_monomial():
    assert format_monomial(()) == "1"
    assert format_monomial((1, 1, 1)) == "c_1^3"
    assert format_monomial((2, 1)) == "c_2c_1"
    assert format_monomial((1, 4, 3)) == "c_1c_4c_3"
    assert format_monomial((2, 2, 1, 1, 3)) == "c_2^2c_1^2c_3"


def test_listings():
    assert str(rc_index(1)) == "1"
    assert str(rc_index(2)) == "c_1"
    assert str(rc_index(3)) == "c_1^2 + c_2"
    assert str(rc_index(4)) == "c_1^3 + c_1c_2 + 2c_2c_1 + c_3"
    assert rc_index(5).as_dict() == {
        (1, 1, 1, 1): 1, (1, 1, 2): 1, (1, 2, 1): 2, (2, 1, 1): 3,
        (2, 2): 2, (1, 3): 1, (3, 1): 3, (4,): 1,
    }
    assert rc_index(6).as_dict() == {
        (1, 1, 1, 1, 1): 1, (1, 1, 1, 2): 1, (1, 1, 2, 1): 2, (1, 2, 1, 1): 3,
        (2, 1, 1, 1): 4, (1, 2, 2): 2, (2, 1, 2): 3, (2, 2, 1): 5,
        (1, 1, 3): 1, (1, 3, 1): 3, (3, 1, 1): 6, (2, 3): 2, (3, 2): 3,
        (1, 4): 1, (4, 1): 4, (5,): 1,
    }


def test_monomial_of_running_example():
    shape = perm_to_tree(parse_permutation("984132756")).shape()
    assert shape.chain_lengths() == (1, 4, 3)


def test_comb_monomials():
    # left comb: n-1 chains of length one; right comb: one long chain
    from descpoly.permutations import identity
    from descpoly.trees import DiskTree

    left = perm_to_tree(identity(6)).shape()
    assert left.chain_lengths() == (1,) * 5
    comb = DiskTree.parse("(+ _ (- _ (+ _ (- _ (+ _ _)))))")
    assert comb.shape().chain_lengths() == (5,)


def test_evaluations():
    assert rc_index(4).evaluate(1) == 5
    assert rc_index(4).evaluate(2) == 8 + 4 + 8 + 2 == 22
    for n in range(1, 11):
        idx = rc_index(n)
        assert idx.evaluate(1) == catalan(n - 1)
        assert idx.class_count() == catalan(n - 1)
    for n in range(1, 10):
        assert rc_index(n).evaluate(2) == SCHRODER[n - 1]


def test_evaluate_with_mapping_and_missing_generator():
    idx = rc_index(4)
    values = {1: 2, 2: 2, 3: 2}
    assert idx.evaluate(values) == 22
    with pytest.raises(KeyError):
        idx.evaluate({1: 2, 2: 2})


def test_substitution_recovers_descent_polynomial():
    assert str(rc_index(4).substitute_ab()) == "1+10t+10t^2+t^3"
    assert str(rc_index(2).substitute_ab()) == "1+t"
    for n in range(1, 10):
        assert rc_index(n).substitute_ab() == separable_poly(n)


def test_distinct_terms_are_compositions_of_n_minus_1():
    for n in range(2, 10):
        assert rc_index(n).distinct_terms() == 2 ** (n - 2)


def test_gamma_from_shapes():
    assert gamma_from_shapes(4, 0) == 1
    assert gamma_from_shapes(4, 1) == 1 + 2 * (1 + 2) == 7
    assert gamma_from_shapes(5, 2) == 10
    for n in range(1, 11):
        gv = separable_gamma(n)
        for k in range((n - 1) // 2 + 1):
            assert gamma_from_shapes(n, k) == gv[k]
    with pytest.raises(ValueError):
        gamma_from_shapes(4, 2)


def test_pinned_multiplicity_in_order_nine():
    # three hinge patterns are drawn for c_1 c_4 c_3; enumeration pins 4
    assert rc_index(9).multiplicity((1, 4, 3)) == 4


def test_json_form():
    obj = rc_index(4).to_json_obj()
    assert obj["n"] == 4
    assert {"factors": [2, 1], "mult": 2} in obj["terms"]


def test_gamma_from_shapes_equals_a_count_over_labelings():
    # Independent of rc_index: every labeling of every shape, from its own
    # right_chains, counted at its minus count when its odd chains all
    # start '+' (family one); each shape contributes 2^(even chains).
    for n in range(1, 10):
        counts = [0] * ((n - 1) // 2 + 1)
        for shape in enumerate_shapes(n):
            for tree in shape.labelings():
                chains = tree.right_chains().chains
                if all(c.starts_with == "+" for c in chains if c.is_odd):
                    counts[tree.n_minus()] += 1
        assert [gamma_from_shapes(n, k) for k in range(len(counts))] == counts, n


def test_grammar_equals_the_shape_walk():
    # The walk the grammar replaced: every shape's chain lengths, counted.
    for n in range(1, 12):
        walk = Counter(monomial_of_shape(s) for s in enumerate_shapes(n))
        assert rc_index(n).as_dict() == walk, n


def test_order_eighteen_at_the_cap():
    idx = rc_index(18)
    assert idx.distinct_terms() == 2 ** 16
    assert idx.evaluate(1) == catalan(17)
    assert idx.evaluate(2) == schroder_number(18)
    assert idx.substitute_ab() == separable_poly(18)


def test_gamma_from_shapes_to_order_sixty():
    for n in range(1, 61):
        gv = separable_gamma(n)
        assert [gamma_from_shapes(n, k) for k in range((n - 1) // 2 + 1)] == list(gv.gammas), n


def _substitute_per_factor(idx):
    """One polynomial product per factor of every term."""
    total = IntPolynomial.zero()
    for factors, mult in idx.terms:
        prod = IntPolynomial.one()
        for l in factors:
            if l % 2 == 0:
                prod = prod * IntPolynomial.monomial(l // 2, 2)
            else:
                prod = prod * IntPolynomial((1, 1)).shift((l - 1) // 2)
        total = total + prod * mult
    return total


def test_grouped_substitution_equals_the_per_factor_product():
    for n in range(1, 13):
        idx = rc_index(n)
        assert idx.substitute_ab() == _substitute_per_factor(idx), n
    # Terms that are no order's compositions, a zero factor, cancelling ones.
    for terms in ({(2, 3): 3, (5,): -1, (1, 1): 4, (4, 4, 1): 2, (3, 2): 1},
                  {(2,): 1, (1, 1): -1, (1, 1, 0): 1}, {}):
        idx = RCIndex(6, terms)
        assert idx.substitute_ab() == _substitute_per_factor(idx), terms
