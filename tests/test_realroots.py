"""Sturm root counting against polynomials with known root structure."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from descpoly.families import derangement_poly, gamma_poly, separable_poly
from descpoly.polynomials import IntPolynomial
from descpoly.realroots import is_real_rooted, real_root_count


def test_known_small_cases():
    assert real_root_count(IntPolynomial((1, 4, 1))) == 2       # disc 12 > 0
    assert real_root_count(IntPolynomial((1, 0, 1))) == 0       # t^2 + 1
    assert real_root_count(IntPolynomial((0, 1))) == 1
    assert real_root_count(IntPolynomial((5,))) == 0
    assert real_root_count(IntPolynomial((0, 0, 0, 1))) == 3    # t^3
    assert real_root_count(IntPolynomial((-2, 0, 1))) == 2      # t^2 - 2


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        real_root_count(IntPolynomial(()))


def test_multiplicity():
    # (t - 1)^2 (t^2 + 1) has two real roots with multiplicity
    p = IntPolynomial((1, -2, 1)) * IntPolynomial((1, 0, 1))
    assert real_root_count(p) == 2
    assert not is_real_rooted(p)


linear_factors = st.lists(st.integers(-6, 6), min_size=1, max_size=5)
quad_factors = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(1, 5)), max_size=2
)


@given(linear_factors, quad_factors)
def test_constructed_factorizations(roots, quads):
    # product of (t - r) and irreducible (t^2 + bt + c) with b^2 < 4c
    p = IntPolynomial.one()
    for r in roots:
        p = p * IntPolynomial((-r, 1))
    complex_pairs = 0
    for b, extra in quads:
        c = (b * b) // 4 + extra  # forces discriminant b^2 - 4c < 0
        p = p * IntPolynomial((c, b, 1))
        complex_pairs += 1
    assert real_root_count(p) == len(roots)
    assert is_real_rooted(p) == (complex_pairs == 0)


def _sympy_real_root_count(p):
    """Real roots with multiplicity: sympy's count_roots counts distinct
    roots, so it runs on each square-free factor, weighted by its power."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(p.coeffs)), x)
    _, factors = poly.sqf_list()
    return sum(mult * factor.count_roots() for factor, mult in factors)


small_factor = st.lists(st.integers(-5, 5), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(small_factor, st.integers(1, 3)), min_size=1, max_size=4),
       st.integers(-3, 3).filter(bool))
def test_real_root_count_against_sympy(factors, scale):
    # products of random low-degree factors, some raised to a power, so
    # that repeated, complex and irrational roots all occur
    p = IntPolynomial((scale,))
    for coeffs, power in factors:
        p = p * IntPolynomial(coeffs) ** power
    assert real_root_count(p) == _sympy_real_root_count(p)


def test_descent_polynomials_real_rooted_evidence():
    for n in range(2, 41):
        assert is_real_rooted(separable_poly(n)), n
        assert is_real_rooted(derangement_poly(n)), n


def test_separable_real_rootedness_through_gamma():
    """S_n(t) = sum gamma_k t^k (1+t)^(n-1-2k) with every gamma_k >= 0 is
    real-rooted exactly when Gamma_n(x) = sum gamma_k x^k is: a root x < 0
    of Gamma_n gives the real factor t - x(1+t)^2, and the negative roots
    of S_n pair off as (r, 1/r), each pair with x = r/(1+r)^2.  Gamma_n has
    half the degree, so its Sturm chain reaches n = 70 cheaply."""
    verdicts = {}
    for n in range(2, 71):
        gamma = gamma_poly(n)
        assert all(c > 0 for c in gamma.coeffs), n
        verdicts[n] = is_real_rooted(gamma)
        assert verdicts[n], n
    for n in range(2, 41):
        assert verdicts[n] == is_real_rooted(separable_poly(n)), n
