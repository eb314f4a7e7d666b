"""Two-variable descent statistics and the joint gamma expansion."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import descpoly.gessel as gessel
from descpoly.bijection import InvariantError
from descpoly.families import separable_gamma
from descpoly.gessel import (
    GesselGamma,
    Indeterminate,
    _solve_exact,
    basis_element,
    basis_index,
    gessel_gamma,
    two_var_poly,
)


def test_two_var_small_by_hand():
    # S_2: identity contributes 1, the transposition contributes s t
    assert two_var_poly(2).as_dict() == {(0, 0): 1, (1, 1): 1}
    # S_3 has four permutations with one descent and one inverse descent
    assert two_var_poly(3).as_dict() == {(0, 0): 1, (1, 1): 4, (2, 2): 1}


def test_two_var_symmetry_and_totals():
    import math

    for n in range(1, 8):
        poly = two_var_poly(n)
        assert poly.is_symmetric()
        assert sum(v for _, v in poly.coeffs) == math.factorial(n)
        # setting s = 1 collapses to the one-variable descent histogram
        from descpoly.families import eulerian_poly
        collapsed = poly.substitute_s(1)
        assert all(eulerian_poly(n)[k] == v for k, v in collapsed.items())


def test_basis_index_count():
    assert basis_index(2) == [(0, 0), (0, 1)]
    assert len(basis_index(7)) == 16


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
    for n in range(2, 7):
        g = gessel_gamma(n)
        assert isinstance(g, GesselGamma)
        total: dict = {}
        for (i, j), coeff in g.gammas:
            for mono, v in basis_element(n, i, j).items():
                total[mono] = total.get(mono, 0) + coeff * v
        total = {k: v for k, v in total.items() if v}
        assert total == two_var_poly(n).as_dict()


def test_nonnegative_and_dominates_edge():
    for n in range(2, 8):
        g = gessel_gamma(n)
        if isinstance(g, Indeterminate):
            # accepted outcome, but the solver is unique through n = 7
            raise AssertionError(f"unexpected rank deficiency at n={n}: {g}")
        assert g.is_nonnegative()
        assert g.dominates_separable_gamma()
        gv = separable_gamma(n)
        for k in range((n - 1) // 2 + 1):
            assert g.edge_coefficient(k) >= gv[k]


def test_rank_reported():
    g = gessel_gamma(5)
    assert g.rank == len(basis_index(5))


def _fraction_solve(rows, rhs):
    """Gauss-Jordan elimination over Q with unit pivots: the reference for
    the fraction-free solve, as (rank, consistent, solution or None)."""
    m, cols = len(rows), len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    rank, pivots = 0, []
    for col in range(cols):
        pivot = next((r for r in range(rank, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(m):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    consistent = all(row[cols] == 0 for row in a[rank:])
    if not consistent or rank < cols:
        return rank, consistent, None
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = a[r][cols]
    return rank, True, solution


@st.composite
def linear_systems(draw):
    """m x cols systems of rank at most r, as a product of an m x r and an
    r x cols matrix; the right side is in the column space or drawn freely."""
    m, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, cols)))
    entries = st.integers(-4, 4)
    left = [[draw(entries) for _ in range(r)] for _ in range(m)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(r)]
    rows = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(cols)]
            for i in range(m)]
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(cols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [draw(entries) for _ in range(m)]
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(linear_systems())
@example(([[1, 2], [2, 4]], [1, 3]))            # rank 1, inconsistent
@example(([[1, 2], [2, 4]], [1, 2]))            # rank 1, a line of solutions
@example(([[0, 2], [3, 1], [1, 1]], [2, 4, 2]))  # overdetermined, unique
def test_fraction_free_solve_matches_rational_elimination(system):
    rows, rhs = system
    rank, consistent, solution = _solve_exact(rows, rhs)
    ref_rank, ref_consistent, ref_solution = _fraction_solve(rows, rhs)
    assert (rank, consistent) == (ref_rank, ref_consistent)
    if ref_solution is None:
        assert solution is None
    else:
        numerators, denominator = solution
        assert denominator != 0
        assert [Fraction(x, denominator) for x in numerators] == ref_solution


def test_rank_deficient_and_non_integer_verdicts(monkeypatch):
    unknowns = len(basis_index(4))
    monkeypatch.setattr(gessel, "_solve_exact", lambda rows, rhs: (3, True, None))
    assert gessel_gamma(4) == Indeterminate(4, 3, unknowns, True)
    assert gessel_gamma(4).solution_space_dim == unknowns - 3
    monkeypatch.setattr(gessel, "_solve_exact", lambda rows, rhs: (4, False, None))
    assert gessel_gamma(4).solution_space_dim is None
    monkeypatch.setattr(gessel, "_solve_exact",
                        lambda rows, rhs: (unknowns, True, ([2] * (unknowns - 1) + [3], -2)))
    with pytest.raises(InvariantError, match="non-integer"):
        gessel_gamma(4)
