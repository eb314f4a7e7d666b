"""Two-variable descent statistics and the joint gamma expansion."""

import hashlib
import math
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import descpoly.gessel as gessel
from descpoly.bijection import InvariantError
from descpoly.cli import main
from descpoly.families import BRUTE_FORCE_CAP, eulerian_poly, separable_gamma
from descpoly.gessel import (
    BivariatePolynomial,
    GesselGamma,
    _symmetric_coordinates,
    gessel_gamma,
    two_var_poly,
)
from descpoly.permutations import all_permutations


# The basis as coefficient grids, by repeated multiplication: the reference
# route that the expansions are checked against.
def _mul(a, b):
    out = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def _power(base, n):
    result = {(0, 0): 1}
    for _ in range(n):
        result = _mul(result, base)
    return result


def basis_element(n, i, j):
    """(st)^i (1+st)^j (s+t)^(n-1-j-2i) as a coefficient grid."""
    st_, one_plus_st, s_plus_t = {(1, 1): 1}, {(0, 0): 1, (1, 1): 1}, {(1, 0): 1, (0, 1): 1}
    return _mul(_power(st_, i),
                _mul(_power(one_plus_st, j), _power(s_plus_t, n - 1 - j - 2 * i)))


def test_two_var_small_by_hand():
    # S_2: identity contributes 1, the transposition contributes s t
    assert two_var_poly(2).as_dict() == {(0, 0): 1, (1, 1): 1}
    # S_3 has four permutations with one descent and one inverse descent
    assert two_var_poly(3).as_dict() == {(0, 0): 1, (1, 1): 4, (2, 2): 1}


def test_two_var_symmetry_and_totals():
    for n in range(1, 8):
        poly = two_var_poly(n)
        assert poly.is_symmetric()
        assert sum(v for _, v in poly.coeffs) == math.factorial(n)
        # setting s = 1 collapses to the one-variable descent histogram
        from descpoly.families import eulerian_poly
        collapsed = poly.substitute_s(1)
        assert all(eulerian_poly(n)[k] == v for k, v in collapsed.items())


def enumerated_grid(n):
    """sum over S_n of s^ides t^des by walking S_n: the oracle the binomial
    grid is held to."""
    return dict(Counter((p.ides(), p.des()) for p in all_permutations(n)))


def test_binomial_grid_equals_the_enumeration():
    for n in range(1, BRUTE_FORCE_CAP + 1):
        assert two_var_poly(n).as_dict() == enumerated_grid(n), n


def test_grid_and_gammas_through_n_50():
    for n in range(1, 51):
        poly = two_var_poly(n)
        assert poly.is_symmetric()
        assert sum(v for _, v in poly.coeffs) == math.factorial(n)
        collapsed = poly.substitute_s(1)
        assert [collapsed.get(k, 0) for k in range(n)] == list(eulerian_poly(n).coeffs)
        g = gessel_gamma(n)
        assert g.is_nonnegative() and g.dominates_separable_gamma(), n


def test_two_var_poly_has_no_enumeration_cap():
    # n = 9 used to raise ResourceCapError, as the grid walked S_n.  Only
    # the identity has (ides, des) = (0, 0), and only its reverse (8, 8).
    poly = two_var_poly(9)
    assert sum(v for _, v in poly.coeffs) == math.factorial(9)
    assert poly.is_symmetric() and poly[(0, 0)] == poly[(8, 8)] == 1
    assert poly.substitute_s(1) == dict(enumerate(eulerian_poly(9).coeffs))


def test_basis_element_small():
    assert basis_element(2, 0, 1) == {(0, 0): 1, (1, 1): 1}
    assert basis_element(2, 0, 0) == {(1, 0): 1, (0, 1): 1}
    assert basis_element(3, 1, 0) == {(1, 1): 1}


def test_gamma_expansion_small():
    g2 = gessel_gamma(2)
    assert isinstance(g2, GesselGamma) and g2.as_dict() == {(0, 1): 1}
    g3 = gessel_gamma(3)
    assert g3.as_dict() == {(0, 2): 1, (1, 0): 2}


def test_two_var_poly_is_memoized():
    assert two_var_poly(6) is two_var_poly(6)
    assert gessel_gamma(6).as_dict() == {
        (0, 5): 1, (1, 1): 1, (1, 2): 21, (1, 3): 30, (2, 0): 28, (2, 1): 108}


def test_gamma_expansion_reconstructs():
    for n in range(2, BRUTE_FORCE_CAP + 1):
        g = gessel_gamma(n)
        assert isinstance(g, GesselGamma)
        total: dict = {}
        for (i, j), coeff in g.gammas:
            for mono, v in basis_element(n, i, j).items():
                total[mono] = total.get(mono, 0) + coeff * v
        total = {k: v for k, v in total.items() if v}
        assert total == two_var_poly(n).as_dict()


def test_nonnegative_and_dominates_edge():
    for n in range(2, BRUTE_FORCE_CAP + 1):
        g = gessel_gamma(n)
        assert isinstance(g, GesselGamma)
        assert g.is_nonnegative()
        assert g.dominates_separable_gamma()
        gv = separable_gamma(n)
        for k in range((n - 1) // 2 + 1):
            assert g.edge_coefficient(k) >= gv[k]


@st.composite
def symmetric_combinations(draw):
    """{(b, m): c} with b <= 4, m <= 6, and its grid sum c (st)^b (s+t)^m,
    expanded with math.comb."""
    coords = draw(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 6)),
        st.integers(-50, 50).filter(bool), max_size=8))
    grid = {}
    for (b, m), c in coords.items():
        for k in range(m + 1):
            key = (b + m - k, b + k)
            grid[key] = grid.get(key, 0) + c * math.comb(m, k)
    return coords, grid


@settings(max_examples=200, deadline=None)
@given(symmetric_combinations())
@example(({}, {}))
@example(({(0, 2): 1, (1, 0): -2}, {(2, 0): 1, (0, 2): 1}))   # s^2 + t^2
def test_symmetric_coordinates_recover_the_combination(case):
    coords, grid = case
    assert _symmetric_coordinates(grid) == coords


def _s_plus_t_power(n):
    return {(n - k, k): math.comb(n, k) for k in range(n + 1)}


# Grids, as functions of n, that no gamma expansion of order n reaches.
OUTSIDE_THE_BASIS = {
    "not-symmetric": lambda n: {(0, 0): 1, (1, 0): 1},
    "unequal-mirror-images": lambda n: {(2, 1): 3, (1, 2): 2},
    "s-plus-t-to-the-n": _s_plus_t_power,
    "st-to-the-n": lambda n: {(0, 0): 1, (n, n): 1},
    "non-palindromic-row": lambda n: {(0, 0): 1, (1, 1): 1},
}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", OUTSIDE_THE_BASIS)
def test_grid_outside_the_basis_raises_invariant_error(kind, n, monkeypatch):
    make = OUTSIDE_THE_BASIS[kind]
    monkeypatch.setattr(gessel, "two_var_poly", lambda m: BivariatePolynomial(make(m)))
    with pytest.raises(InvariantError, match=rf"n = {n} is outside the gamma basis"):
        gessel_gamma(n)


@pytest.mark.parametrize("kind", ["not-symmetric", "s-plus-t-to-the-n", "st-to-the-n"])
def test_cli_conjectures_on_a_grid_outside_the_basis_exits_1(kind, monkeypatch, capsys):
    make = OUTSIDE_THE_BASIS[kind]
    monkeypatch.setattr(gessel, "two_var_poly", lambda m: BivariatePolynomial(make(m)))
    assert main(["verify", "conjectures"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the (ides, des) grid of n = 2 ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_default_conjectures_report_is_pinned():
    result = subprocess.run(
        [sys.executable, "-m", "descpoly", "--format", "json", "verify", "conjectures"],
        capture_output=True,
    )
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "63f84353c8004e4c5aea78d7adfe8d3840386422457dcfb9b520a5c78f9f95d2")


@pytest.mark.parametrize("n", range(1, 9))
def test_keyed_lookups_equal_the_dict(n):
    # present keys, and absent ones inside and around the grid
    keys = [(a, b) for a in range(-1, n + 2) for b in range(-1, n + 2)]
    grid = two_var_poly(n)
    assert [grid[key] for key in keys] == [grid.as_dict().get(key, 0) for key in keys]
    g = gessel_gamma(n)
    assert [g[key] for key in keys] == [g.as_dict().get(key, 0) for key in keys]
    assert ([g.edge_coefficient(k) for k in range(-1, n + 1)]
            == [g.as_dict().get((k, n - 1 - 2 * k), 0) for k in range(-1, n + 1)])
