"""Polynomial families: tables, recurrences vs enumeration, spiral, identities."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from descpoly.families import (
    BRUTE_FORCE_CAP,
    ResourceCapError,
    SpiralCheck,
    SpiralReport,
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
    power_tail,
    schroder_number,
    separable_gamma,
    separable_gamma_histogram,
    separable_poly,
    separable_split,
    separable_split_enum,
    spiral_report,
    verify_series_identity,
)
from descpoly.gessel import gessel_gamma, two_var_poly
from descpoly.polynomials import IntPolynomial, gamma_decompose, is_palindromic, is_unimodal

SCHRODER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]


def test_separable_table():
    assert str(separable_poly(3)) == "1+4t+t^2"
    assert str(separable_poly(4)) == "1+10t+10t^2+t^3"
    assert str(separable_poly(5)) == "1+20t+48t^2+20t^3+t^4"
    assert str(separable_poly(6)) == "1+35t+161t^2+161t^3+35t^4+t^5"


def test_separable_gamma_table():
    assert separable_gamma(3).gammas == (1, 2)
    assert separable_gamma(4).gammas == (1, 7)
    assert separable_gamma(5).gammas == (1, 16, 10)
    assert separable_gamma(6).gammas == (1, 30, 61)


def test_separable_row_sums_are_schroder():
    for n, s in enumerate(SCHRODER, start=1):
        assert separable_poly(n)(1) == s == schroder_number(n)


def test_method_agreement():
    for n in range(1, 9):
        assert separable_poly(n, "enum") == separable_poly(n)
        assert derangement_poly(n, "enum") == derangement_poly(n)
        assert eulerian_poly(n, "enum") == eulerian_poly(n)
        assert complement_poly(n, "enum") == complement_poly(n)
    with pytest.raises(ValueError):
        separable_poly(4, "montecarlo")


def test_derangement_table_and_corrected_degree7():
    assert str(derangement_poly(2)) == "t"
    assert str(derangement_poly(3)) == "2t"
    assert str(derangement_poly(4)) == "4t+4t^2+t^3"
    assert str(derangement_poly(5)) == "8t+24t^2+12t^3"
    assert str(derangement_poly(6)) == "16t+104t^2+120t^3+24t^4+t^5"
    d7 = derangement_poly(7)
    # the t^2 coefficient is forced to 392 by the row sum (1854 derangements)
    assert d7.coeffs == (0, 32, 392, 896, 480, 54)
    assert d7(1) == derangement_count(7) == 1854


def test_derangement_row_sums():
    for n in range(2, 11):
        assert derangement_poly(n)(1) == derangement_count(n)


def test_derangement_count_starts_at_d0():
    assert [derangement_count(n) for n in range(6)] == [1, 0, 1, 2, 9, 44]
    for n in (-1, -5):
        with pytest.raises(ValueError, match="^need n >= 0$"):
            derangement_count(n)


def test_derangement_degree_and_leading_facts():
    # even size: monic of degree n-1; odd size: degree n-2
    for n in range(2, 14):
        d = derangement_poly(n)
        if n % 2 == 0:
            assert d.degree == n - 1 and d.coeffs[-1] == 1
        else:
            assert d.degree == n - 2
        assert d[1] == 2 ** (n - 2)


def test_eulerian_and_complement():
    assert derangement_poly(1) == IntPolynomial.zero()
    assert eulerian_poly(1) == complement_poly(1) == IntPolynomial.one()
    assert eulerian_poly(2) == IntPolynomial((1, 1))
    assert eulerian_poly(4) == IntPolynomial((1, 11, 11, 1))
    for n in range(1, 11):
        assert eulerian_poly(n)(1) == math.factorial(n)
        assert complement_poly(n) == eulerian_poly(n) - derangement_poly(n)
    assert complement_poly(4) == IntPolynomial((1, 7, 7))


def test_eulerian_gamma_is_no_double_descent_count():
    from collections import Counter

    from descpoly.permutations import all_permutations

    for n in range(1, 8):
        hist = Counter(
            p.des() for p in all_permutations(n) if p.double_descents() == 0
        )
        gv = eulerian_gamma(n)
        assert all(gv[k] == hist.get(k, 0) for k in range(n))


def test_narayana_gamma_positive():
    for n in range(1, 8):
        nar = narayana_poly(n)
        assert nar(1) == catalan(n)
        assert gamma_decompose(nar, n - 1).is_nonnegative()


def test_gamma_poly_three_ways():
    assert str(gamma_poly(3)) == "1+2t"
    assert str(gamma_poly(4)) == "1+7t"
    assert str(gamma_poly(6)) == "1+30t+61t^2"
    for n in range(1, 11):
        assert tuple(gamma_poly(n).coeffs) == separable_gamma(n).gammas
    for n in range(1, 8):
        assert gamma_poly(n, "enum") == gamma_poly(n)
    with pytest.raises(ResourceCapError):
        gamma_poly(BRUTE_FORCE_CAP + 1, "enum")
    with pytest.raises(ValueError, match="unknown method"):
        gamma_poly(5, "sum")


# Orders above the recursion limit, in an interpreter whose memo tables
# start empty: the closed forms ask for no lower order, and the complement,
# read as A - D, must keep the memo misses of both recurrences shallow.
_ABOVE_A_LOW_RECURSION_LIMIT = """
import json, sys
from descpoly.families import complement_poly, gamma_poly, separable_poly, separable_split
sys.setrecursionlimit(30)
split = separable_split(40)
print(json.dumps([list(gamma_poly(40).coeffs), [list(p.coeffs) for p in split],
                  list(separable_poly(40).coeffs), list(complement_poly(40).coeffs)]))
"""


def test_gamma_and_split_recurrences_stay_shallow():
    result = subprocess.run([sys.executable, "-c", _ABOVE_A_LOW_RECURSION_LIMIT],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    gamma, split, separable, complement = json.loads(result.stdout)
    assert gamma == list(gamma_poly(40).coeffs)
    assert split == [list(p.coeffs) for p in separable_split(40)]
    assert separable == list(separable_poly(40).coeffs)
    assert complement == list(complement_poly(40).coeffs)


def _triple_convolution(lin, n_max):
    """P_1..P_{n_max} by the convolution written out in full, O(n^2)
    products per order: P_n = lin P_{n-1}
    + t sum_j P_j (P_{n-j-1} + sum_i P_i P_{n-j-i})."""
    t = IntPolynomial.t()
    p = [None, IntPolynomial.one()]
    for n in range(2, n_max + 1):
        acc = lin * p[n - 1]
        for j in range(1, n - 1):
            inner = p[n - j - 1]
            for i in range(1, n - j):
                inner = inner + p[i] * p[n - j - i]
            acc = acc + t * p[j] * inner
        p.append(acc)
    return p


def _split_recurrence(n_max):
    """(S^+_n, S^-_n) for n = 1..n_max by the root-label recurrence, both
    components 1 at n = 1: a '+'-rooted tree is any left subtree plus a
    '-'-rooted (possibly empty) right subtree, and dually, so
    S^+_n = sum_j S_j S^-_{n-j} and S^-_n = t sum_j S_j S^+_{n-j}."""
    s = _triple_convolution(IntPolynomial((1, 1)), n_max)
    t = IntPolynomial.t()
    split = [None, (IntPolynomial.one(), IntPolynomial.one())]
    for n in range(2, n_max + 1):
        plus = minus = IntPolynomial.zero()
        for j in range(1, n):
            plus = plus + s[j] * split[n - j][1]
            minus = minus + s[j] * split[n - j][0]
        split.append((plus, t * minus))
    return split


def test_closed_forms_match_the_triple_convolution():
    for name, lin, member in (("S", IntPolynomial((1, 1)), separable_poly),
                              ("Gamma", IntPolynomial.one(), gamma_poly)):
        reference = _triple_convolution(lin, 40)
        for n in range(1, 41):
            assert member(n) == reference[n], (name, n)


def test_split_recurrence_matches_the_closed_form():
    reference = _split_recurrence(40)
    for n in range(1, 41):
        assert separable_split(n) == reference[n], n


# SHA-256 of json.dumps([[S_n], [Gamma_n], [[S^+_n, S^-_n]]]) over
# n = 1..200, each member as its coefficient list, as the convolution
# recurrences computed them before the closed forms replaced them.
MEMBERS_TO_200_SHA256 = "9c7537068ea822e7b81bc6f40e4af48accdc1d3ded9b6882a2fa42d0ab88d806"


def test_members_to_200_match_the_recurrence_digest():
    ns = range(1, 201)
    text = json.dumps([[list(separable_poly(n).coeffs) for n in ns],
                       [list(gamma_poly(n).coeffs) for n in ns],
                       [[list(p.coeffs) for p in separable_split(n)] for n in ns]])
    assert hashlib.sha256(text.encode()).hexdigest() == MEMBERS_TO_200_SHA256


def test_gamma_poly_is_the_gamma_vector_of_S_to_200():
    for n in range(1, 201):
        assert gamma_poly(n).coeffs == separable_gamma(n).gammas, n


def test_S_and_Gamma_at_n_1000():
    s, gamma, r = separable_poly(1000), gamma_poly(1000), schroder_number(1000)
    assert s.degree == 999 and is_palindromic(s, 999)
    assert s(1) == r
    assert gamma.degree <= 499
    assert sum(g << (999 - 2 * k) for k, g in enumerate(gamma.coeffs)) == r


def test_schroder_number_recurrence():
    assert all(schroder_number(n) == separable_poly(n)(1) for n in range(1, 61))
    with pytest.raises(ValueError, match="^need n >= 1$"):
        schroder_number(0)


def test_coefficient_recurrences_match_the_derivative_form():
    # A_n = (1 + (n-1)t) A_{n-1} + t(1-t) A'_{n-1}, and the complement
    # adds (-t)^(n-1) to the same operator; checked through the orders
    # the benchmark reads, since the library reads the complement as A - D.
    t = IntPolynomial.t()

    def step(p, n):
        return IntPolynomial((1, n - 1)) * p + t * (IntPolynomial.one() - t) * p.derivative()

    a = c = IntPolynomial.one()
    for n in range(2, 301):
        a, c = step(a, n), step(c, n) + IntPolynomial.monomial(n - 1, (-1) ** (n - 1))
        assert eulerian_poly(n) == a and complement_poly(n) == c, n
        assert a - c == derangement_poly(n), n
        assert c(1) == math.factorial(n) - derangement_count(n), n


def test_split_convention_and_agreement():
    assert separable_split(1) == (IntPolynomial.one(), IntPolynomial.one())
    assert separable_split(2) == (IntPolynomial.one(), IntPolynomial.t())
    for n in range(2, 8):
        plus, minus = separable_split(n)
        assert plus + minus == separable_poly(n)
        assert (plus, minus) == separable_split_enum(n)


def test_separable_palindromic_unimodal():
    for n in range(1, 13):
        s = separable_poly(n)
        assert is_palindromic(s, n - 1)
        assert is_unimodal(s)


def test_derangement_not_palindromic():
    assert not is_palindromic(derangement_poly(5), 4)
    # no darga makes 16t+104t^2+120t^3+24t^4+t^5 palindromic
    assert not any(is_palindromic(derangement_poly(6), d) for d in range(12))


def test_spiral_reports():
    r4 = spiral_report(4)
    assert r4.passed and r4.equalities == ("d(4,1) = d(4,2) = 4",)
    r7 = spiral_report(7)
    assert r7.passed
    # the degree-7 chain includes 32 < 54 < 392
    values = {(c.lower, c.upper) for c in r7.checks}
    assert (32, 54) in values and (54, 392) in values
    for n in range(2, 41):
        assert spiral_report(n).passed
        assert is_unimodal(derangement_poly(n))


def test_complement_spiral_reports():
    r4 = complement_spiral_report(4)
    assert r4.passed and r4.equalities == ("e(4,2) = e(4,1) = 7",)
    for n in range(2, 41):
        assert complement_spiral_report(n).passed
        assert is_unimodal(complement_poly(n))


def _check(desc, lo, hi, allow_equal):
    return SpiralCheck(desc, lo, hi, not allow_equal, lo <= hi if allow_equal else lo < hi)


def _indexed_spiral_report(n):
    """The derangement spiral written out index by index, as in its
    docstring, to pin the chain-driven report."""
    d = derangement_poly(n)
    checks, equalities = [], []
    m = n // 2
    for k in range(1, m):
        if n % 2 == 0:
            checks.append(_check(f"d({n},{n-k}) < d({n},{k})", d[n - k], d[k], False))
            allow = n == 4 and k == 1
            if allow and d[k] == d[n - k - 1]:
                equalities.append(f"d({n},{k}) = d({n},{n-k-1}) = {d[k]}")
            op = "<=" if allow else "<"
            checks.append(_check(f"d({n},{k}) {op} d({n},{n-k-1})", d[k], d[n - k - 1], allow))
        else:
            checks.append(_check(f"d({n},{k}) < d({n},{n-1-k})", d[k], d[n - 1 - k], False))
            checks.append(_check(f"d({n},{n-1-k}) < d({n},{k+1})", d[n - 1 - k], d[k + 1], False))
    return SpiralReport(n, "derangement", tuple(checks), tuple(equalities))


def _indexed_complement_spiral_report(n):
    e = complement_poly(n)
    checks, equalities = [], []
    if n % 2 == 0:
        for k in range(0, n // 2 - 1):
            checks.append(_check(f"e({n},{k}) < e({n},{n-2-k})", e[k], e[n - 2 - k], False))
            allow = n == 4 and k == 0
            if allow and e[n - 2 - k] == e[k + 1]:
                equalities.append(f"e({n},{n-2-k}) = e({n},{k+1}) = {e[k+1]}")
            op = "<=" if allow else "<"
            checks.append(_check(f"e({n},{n-2-k}) {op} e({n},{k+1})", e[n - 2 - k], e[k + 1], allow))
    else:
        checks.append(_check(f"e({n},0) <= e({n},{n-1})", e[0], e[n - 1], True))
        checks.append(_check(f"e({n},{n-1}) <= e({n},0)", e[n - 1], e[0], True))
        checks.append(_check(f"e({n},{n-1}) < e({n},{n-2})", e[n - 1], e[n - 2], False))
        for k in range(1, (n - 1) // 2):
            checks.append(_check(f"e({n},{n-1-k}) < e({n},{k})", e[n - 1 - k], e[k], False))
            checks.append(_check(f"e({n},{k}) < e({n},{n-2-k})", e[k], e[n - 2 - k], False))
    return SpiralReport(n, "complement", tuple(checks), tuple(equalities))


@pytest.mark.parametrize("n", range(2, 61))
def test_spiral_reports_match_the_indexed_inequalities(n):
    assert spiral_report(n) == _indexed_spiral_report(n)
    assert complement_spiral_report(n) == _indexed_complement_spiral_report(n)


def test_spiral_reports_reject_n_below_2():
    for report in (spiral_report, complement_spiral_report):
        with pytest.raises(ValueError, match="need n >= 2"):
            report(1)


def test_member_gate_errors():
    for member in (separable_poly, gamma_poly, derangement_poly, eulerian_poly,
                   complement_poly):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            member(0)
        with pytest.raises(ValueError, match="^need n >= 1$"):
            member(0, "bogus")
        with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
            member(3, "bogus")
        with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
            member(BRUTE_FORCE_CAP + 1, "bogus")
        with pytest.raises(ResourceCapError, match="^enumeration capped at n = 8, got 9$"):
            member(BRUTE_FORCE_CAP + 1, "enum")


@pytest.mark.parametrize("n", [0, -2])
def test_enumeration_oracles_reject_n_below_one(n):
    # The oracles that take no method meet the one check every enumeration
    # passes through, and refuse an empty order as the members do.
    for oracle in (narayana_poly, separable_gamma_histogram, desarrangement_histogram,
                   separable_split_enum, two_var_poly, gessel_gamma):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            oracle(n)


def test_power_tail_recurrence():
    # T_r(n) = r T_r(n-1) for r < n, with the binomial correction otherwise
    for r in range(1, 7):
        for n in range(2, 9):
            if 1 <= r <= n - 1:
                assert power_tail(r, n) == r * power_tail(r, n - 1)


def test_series_identity():
    assert verify_series_identity(4, 10)
    assert verify_series_identity(2, 3)
    for n in range(2, 11):
        assert verify_series_identity(n, 12)


def test_cubic_residual_vanishes():
    residual = cubic_equation_residual(10)
    assert len(residual) == 11
    assert all(c.is_zero() for c in residual)


def test_cubic_residual_needs_an_order_of_at_least_one():
    residual = cubic_equation_residual(1)
    assert len(residual) == 2
    assert all(c.is_zero() for c in residual)
    for order in (0, -1):
        with pytest.raises(ValueError, match="need order >= 1"):
            cubic_equation_residual(order)


def test_desarrangement_histogram():
    assert desarrangement_histogram(6).coeffs == (0, 16, 104, 120, 24, 1)
    assert desarrangement_histogram(2).coeffs == (0, 1)
    for n in range(2, 9):
        assert desarrangement_histogram(n) == derangement_poly(n)


def test_unique_top_desarrangement_for_even_n():
    from descpoly.permutations import Permutation, desarrangements

    for n in (4, 6):
        top = [p for p in desarrangements(n) if p.ides() == n - 1]
        assert top == [Permutation(range(n, 0, -1))]


def test_separable_gamma_histogram():
    for n in range(1, 9):
        hist = separable_gamma_histogram(n)
        gv = separable_gamma(n)
        assert all(hist[k] == gv[k] for k in range((n - 1) // 2 + 1))


def test_enumeration_cap_is_a_constant():
    assert BRUTE_FORCE_CAP == 8
    with pytest.raises(ResourceCapError):
        separable_poly(9, "enum")
