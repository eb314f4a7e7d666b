"""Joint (ides, des) statistics and their two-variable gamma expansion.

``two_var_poly(n)`` enumerates sum over S_n of s^ides * t^des as an exact
coefficient grid.  The polynomial is symmetric in (s, t) because inversion
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

from .errors import InvariantError
from .families import _check_cap, separable_gamma
from .permutations import all_permutations
from .polynomials import IntPolynomial, gamma_decompose
from .value import Value

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
        return dict(self.coeffs).get(key, 0)

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
    """sum over S_n of s^ides t^des, by direct enumeration, memoized as
    the other families are: ``gessel_gamma`` and the symmetry check of
    the conjectures suite read the same grid.

    >>> two_var_poly(2).as_dict()
    {(0, 0): 1, (1, 1): 1}
    """
    _check_cap(n)
    grid: Grid = {}
    for p in all_permutations(n):
        key = (p.ides(), p.des())
        grid[key] = grid.get(key, 0) + 1
    return BivariatePolynomial(grid)


class GesselGamma(Value):
    __slots__ = ("n", "gammas")
    n: int
    gammas: tuple[tuple[tuple[int, int], int], ...]   # ((i, j), gamma)

    def as_dict(self) -> Grid:
        return dict(self.gammas)

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.as_dict().get(key, 0)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for _, v in self.gammas)

    def edge_coefficient(self, k: int) -> int:
        """gamma at (i, j) = (k, n - 1 - 2k), comparable with the separable
        gamma vector."""
        return self[(k, self.n - 1 - 2 * k)]

    def dominates_separable_gamma(self) -> bool:
        gv = separable_gamma(self.n)
        return all(
            self.edge_coefficient(k) >= gv[k]
            for k in range((self.n - 1) // 2 + 1)
        )


def _symmetric_coordinates(grid: Grid) -> dict[tuple[int, int], int]:
    """Write a symmetric grid as sum c (st)^b (s+t)^m; returns {(b, m): c}.

    The lex-leading monomial s^a t^c of a symmetric polynomial has a >= c,
    and it leads (st)^c (s+t)^(a-c) too, so subtracting that element times
    its coefficient lowers the leading monomial.  A leading monomial with
    a < c means the grid was not symmetric.

    >>> _symmetric_coordinates({(0, 0): 1, (1, 1): 4, (2, 2): 1})
    {(2, 0): 1, (1, 0): 4, (0, 0): 1}
    """
    residual = {k: v for k, v in grid.items() if v}
    coords: dict[tuple[int, int], int] = {}
    while residual:
        a, c = max(residual)
        if a < c:
            raise ValueError("not symmetric in s and t")
        coeff = coords[(c, a - c)] = residual[(a, c)]
        # subtract coeff * sum_k C(m, k) s^(a-k) t^(c+k), C(m, k) by running ratios
        m = a - c
        for k in range(m + 1):
            key = (a - k, c + k)
            left = residual.get(key, 0) - coeff
            if left:
                residual[key] = left
            else:
                del residual[key]
            coeff = coeff * (m - k) // (k + 1)
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
