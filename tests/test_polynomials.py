"""Exact polynomial arithmetic and gamma decompositions."""

import pytest
from hypothesis import given, strategies as st

from descpoly.polynomials import (
    GammaVector,
    IntPolynomial,
    NotPalindromicError,
    format_poly,
    gamma_decompose,
    is_palindromic,
    is_unimodal,
)

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


@given(coeff_lists, coeff_lists)
def test_ring_axioms_spot(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


@given(coeff_lists, st.integers(-5, 5))
def test_evaluation_is_ring_hom(a, x):
    p = IntPolynomial(a)
    q = p * p + p
    assert q(x) == p(x) * p(x) + p(x)


def test_normalization_and_degree():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).is_zero()
    with pytest.raises(ValueError):
        IntPolynomial(()).degree


def test_negative_exponents_raise():
    with pytest.raises(ValueError, match="^negative exponent$"):
        IntPolynomial((1, 2)).shift(-1)
    # the zero polynomial checks k before returning itself
    with pytest.raises(ValueError, match="^negative exponent$"):
        IntPolynomial.zero().shift(-2)
    with pytest.raises(ValueError, match="^negative exponent$"):
        IntPolynomial.monomial(-1, 5)
    assert IntPolynomial((1, 2)).shift(0) == IntPolynomial((1, 2))
    assert IntPolynomial.monomial(0, 5) == IntPolynomial((5,))


def test_truncate_below_order_zero_is_the_zero_polynomial():
    p = IntPolynomial((1, 2, 3))
    assert p.truncate(2) == p and p.truncate(1) == IntPolynomial((1, 2))
    assert p.truncate(0) == IntPolynomial((1,))
    for order in (-1, -2, -3, -4, -10):
        assert p.truncate(order).is_zero(), order


def test_arithmetic_with_a_non_polynomial_is_a_type_error():
    p = IntPolynomial((1, 2))
    for op in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: 1 - p,
               lambda: p - None, lambda: p * 1.5, lambda: 1.5 * p, lambda: p + "t",
               lambda: p * None):
        with pytest.raises(TypeError):
            op()
    assert p * 3 == 3 * p == IntPolynomial((3, 6))
    assert p * IntPolynomial((0, 1)) == IntPolynomial((0, 1, 2))


def test_derivative():
    p = IntPolynomial((5, 3, 0, 2))  # 5 + 3t + 2t^3
    assert p.derivative() == IntPolynomial((3, 0, 6))


def test_format():
    assert format_poly(IntPolynomial((0, 16, 104))) == "16t+104t^2"
    assert format_poly(IntPolynomial((1, -1, 1))) == "1-t+t^2"
    assert format_poly(IntPolynomial(())) == "0"
    assert format_poly(IntPolynomial((0, 0, 0, 0, 0, 1))) == "t^5"


def test_json_roundtrip():
    p = IntPolynomial((3, 0, -2))
    assert IntPolynomial(p.to_json()) == p


def test_unimodal():
    assert is_unimodal(IntPolynomial((1, 4, 1)))
    assert is_unimodal(IntPolynomial((0, 16, 104, 120, 24, 1)))
    assert not is_unimodal(IntPolynomial((2, 1, 2)))
    assert is_unimodal(IntPolynomial((1,)))
    # support starts at the first nonzero coefficient
    assert is_unimodal(IntPolynomial((0, 0, 5, 5, 2)))


def test_palindromic_darga():
    # darga of 1 + t is 1; darga of t is 2
    assert is_palindromic(IntPolynomial((1, 1)), 1)
    assert is_palindromic(IntPolynomial((0, 1)), 2)
    assert not is_palindromic(IntPolynomial((1, 1)), 2)
    assert is_palindromic(IntPolynomial((1,)), 0)


def test_gamma_examples():
    # 1 + 4t + t^2 = (1+t)^2 + 2t
    v = gamma_decompose(IntPolynomial((1, 4, 1)), 2)
    assert v.start == 0 and v.gammas == (1, 2)
    # the monomial t at darga 2 has gamma_1 = 1
    v = gamma_decompose(IntPolynomial((0, 1)), 2)
    assert v.start == 1 and v.gammas == (1,)


def test_gamma_rejects_non_palindromic():
    # 8t + 24t^2 + 12t^3 is not palindromic at darga 4 (8 != 12)
    with pytest.raises(NotPalindromicError):
        gamma_decompose(IntPolynomial((0, 8, 24, 12)), 4)
    with pytest.raises(NotPalindromicError):
        gamma_decompose(IntPolynomial((1, 1)), 3)


@given(
    st.integers(0, 4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
)
def test_gamma_roundtrip_from_vector(start, gammas):
    # Build a polynomial from an arbitrary gamma vector, then re-peel it.
    while gammas and gammas[-1] == 0:
        gammas.pop()
    if not gammas or gammas[0] == 0:
        gammas = [1] + gammas
    darga = 2 * (start + len(gammas) - 1)  # smallest darga fitting the vector
    vec = GammaVector(darga, start, tuple(gammas))
    p = vec.to_polynomial()
    back = gamma_decompose(p, darga)
    assert back.to_polynomial() == p
    assert back.gammas == vec.gammas and back.start == vec.start


def test_gamma_zero_polynomial():
    v = gamma_decompose(IntPolynomial(()), 5)
    assert v.gammas == () and v.to_polynomial().is_zero()
