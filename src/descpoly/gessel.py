"""Joint (ides, des) statistics and their two-variable gamma expansion.

``two_var_poly(n)`` gives sum over S_n of s^ides * t^des as an exact
coefficient grid, from binomials rather than by enumerating S_n, so with
no cap on n.  The polynomial is symmetric in (s, t) because inversion
swaps the two statistics.

``gessel_gamma(n)`` expresses that polynomial in the basis

    (s t)^i (1 + s t)^j (s + t)^(n - 1 - j - 2i),     i, j >= 0, j + 2i <= n-1.

The expansion is unique when it exists.  A symmetric polynomial is one
polynomial in e1 = s + t and e2 = s t, and a basis element is
e2^i (1 + e2)^j e1^m with m = n - 1 - j - 2i.  So the coefficient of e1^m
is a polynomial in e2 whose one-variable gamma expansion at darga
n - 1 - m, itself unique, gives the gamma_{i, j} with that m.  Lin proved
the coefficients nonnegative ("Proof of Gessel's gamma-positivity
conjecture", Electron. J. Combin. 23, 2016); that they dominate the
separable gamma coefficients along the edge j = n - 1 - 2i is evidence.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import sub

from .errors import InvariantError
from .families import separable_gamma
from .polynomials import IntPolynomial, gamma_decompose
from .value import Value, need, sorted_get

Grid = dict[tuple[int, int], int]


class BivariatePolynomial(Value):
    """Exact grid of coefficients: coeff[(a, b)] multiplies s^a t^b."""

    __slots__ = ("coeffs",)
    coeffs: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, grid: Grid):
        super().__init__(tuple(sorted((k, v) for k, v in grid.items() if v)))

    def as_dict(self) -> Grid:
        return dict(self.coeffs)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return sorted_get(self.coeffs, key)

    def is_symmetric(self) -> bool:
        g = self.as_dict()
        return all(g.get((b, a), 0) == v for (a, b), v in g.items())

    def substitute_s(self, s_value: int) -> dict[int, int]:
        """Collapse to a polynomial in t at an integer s."""
        out: dict[int, int] = {}
        for (a, b), v in self.coeffs:
            out[b] = out.get(b, 0) + v * s_value**a
        return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def two_var_poly(n: int) -> BivariatePolynomial:
    """sum over S_n of s^ides t^des, memoized as the other families are:
    ``gessel_gamma`` and the symmetry check of the conjectures suite read
    the same grid.

    The grid comes from binomials by the identity of Carlitz, Roselle and
    Scoville (J. Combin. Theory 1, 1966; Petersen, Math. Mag. 86, 2013)

        sum_{i,j>=0} C(ij+n-1, n) s^i t^j
            = sum_pi s^(ides+1) t^(des+1) / ((1-s)^(n+1) (1-t)^(n+1)):

    the binomials for i, j <= n, times (1-s)^(n+1) (1-t)^(n+1) as n+1
    first differences along each axis, hold the counts at exponents 1..n.

    >>> two_var_poly(2).as_dict()
    {(0, 0): 1, (1, 1): 1}
    """
    need("n", n, 1)
    grid = [[comb(i * j + n - 1, n) for j in range(n + 1)] for i in range(n + 1)]
    for _ in range(2):   # along t, then, transposed, along s
        for _ in range(n + 1):
            grid = [[row[0], *map(sub, row[1:], row)] for row in grid]
        grid = list(zip(*grid))
    return BivariatePolynomial({(a - 1, b - 1): grid[a][b]
                                for a in range(1, n + 1) for b in range(1, n + 1)})


class GesselGamma(Value):
    __slots__ = ("n", "gammas")
    n: int
    gammas: tuple[tuple[tuple[int, int], int], ...]   # ((i, j), gamma), sorted

    def as_dict(self) -> Grid:
        return dict(self.gammas)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return sorted_get(self.gammas, key)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for _, v in self.gammas)

    def edge_coefficient(self, k: int) -> int:
        """gamma at (i, j) = (k, n - 1 - 2k), comparable with the separable
        gamma vector."""
        return self[(k, self.n - 1 - 2 * k)]

    def dominates_separable_gamma(self) -> bool:
        gv = separable_gamma(self.n)
        return all(self.edge_coefficient(k) >= gv[k] for k in range((self.n - 1) // 2 + 1))


def _symmetric_coordinates(grid: Grid) -> dict[tuple[int, int], int]:
    """Write a symmetric grid as sum c (st)^b (s+t)^m; returns {(b, m): c}.

    The terms of total degree d form h_d(s, t), and h_d(1, t) =
    sum_b c_b t^b (1+t)^(d-2b) is a gamma expansion of darga d, palindromic
    exactly when h_d is symmetric.  So gamma_decompose reads off the c_b
    with m = d - 2b, and raises its ValueError on an asymmetric grid.

    >>> _symmetric_coordinates({(0, 0): 1, (1, 1): 4, (2, 2): 1})
    {(0, 0): 1, (1, 0): 4, (2, 0): 1}
    """
    rows: dict[int, dict[int, int]] = {}
    for (a, c), coeff in grid.items():
        rows.setdefault(a + c, {})[c] = coeff
    coords: dict[tuple[int, int], int] = {}
    for d, row in rows.items():
        vec = gamma_decompose(IntPolynomial(row.get(c, 0) for c in range(d + 1)), d)
        coords.update(((b, d - 2 * b), g) for b, g in vec.items() if g)
    return coords


def gessel_gamma(n: int) -> GesselGamma:
    """Expand two_var_poly(n) in the gamma basis, one gamma_decompose per
    power of s + t; a grid outside the basis raises InvariantError.

    >>> gessel_gamma(2).as_dict()
    {(0, 1): 1}
    """
    grid = two_var_poly(n).as_dict()
    gammas = []
    try:
        rows: dict[int, dict[int, int]] = {}
        for (b, m), coeff in _symmetric_coordinates(grid).items():
            rows.setdefault(m, {})[b] = coeff
        for m, row in rows.items():
            vec = gamma_decompose(
                IntPolynomial(row.get(b, 0) for b in range(max(row) + 1)), n - 1 - m)
            gammas += [((i, vec.darga - 2 * i), g) for i, g in vec.items() if g]
    except ValueError as exc:
        raise InvariantError(
            f"the (ides, des) grid of n = {n} is outside the gamma basis: {exc}") from exc
    return GesselGamma(n, tuple(sorted(gammas)))
