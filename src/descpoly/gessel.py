"""Joint (ides, des) statistics and their two-variable gamma expansion.

``two_var_poly(n)`` enumerates sum over S_n of s^ides * t^des as an exact
coefficient grid.  The polynomial is symmetric in (s, t) because inversion
swaps the two statistics.

``gessel_gamma(n)`` expresses that polynomial in the basis

    (s t)^i (1 + s t)^j (s + t)^(n - 1 - j - 2i),     i, j >= 0, j + 2i <= n-1,

by solving an exact linear system.  Uniqueness of the expansion is not
assumed: the solver reports the rank, and returns an Indeterminate marker
carrying the solution-space dimension whenever the basis fails to be
independent.  When the expansion exists the coefficients are conjecturally
nonnegative and dominate the separable gamma coefficients along the edge
j = n - 1 - 2i.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import InvariantError
from .families import _check_cap, separable_gamma
from .permutations import all_permutations
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


def _mul(a: Grid, b: Grid) -> Grid:
    out: Grid = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def _power(base: Grid, n: int) -> Grid:
    result: Grid = {(0, 0): 1}
    for _ in range(n):
        result = _mul(result, base)
    return result


_ST: Grid = {(1, 1): 1}
_ONE_PLUS_ST: Grid = {(0, 0): 1, (1, 1): 1}
_S_PLUS_T: Grid = {(1, 0): 1, (0, 1): 1}


def basis_element(n: int, i: int, j: int) -> Grid:
    """(st)^i (1+st)^j (s+t)^(n-1-j-2i) as a coefficient grid."""
    return _mul(_power(_ST, i), _mul(_power(_ONE_PLUS_ST, j), _power(_S_PLUS_T, n - 1 - j - 2 * i)))


def basis_index(n: int) -> list[tuple[int, int]]:
    """(i, j) pairs with j + 2i <= n - 1 in lexicographic order."""
    return [
        (i, j)
        for i in range((n - 1) // 2 + 1)
        for j in range(n - 1 - 2 * i + 1)
    ]


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


class Indeterminate(NamedTuple):
    """The linear system has no unique solution; carries rank data."""

    n: int
    rank: int
    unknowns: int
    consistent: bool

    @property
    def solution_space_dim(self) -> Optional[int]:
        return self.unknowns - self.rank if self.consistent else None


class GesselGamma(Value):
    __slots__ = ("n", "gammas", "rank")
    n: int
    gammas: tuple[tuple[tuple[int, int], int], ...]   # ((i, j), gamma)
    rank: int

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


def _solve_exact(rows: list[list[int]], rhs: list[int]) -> tuple[int, bool, Optional[tuple[list[int], int]]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).

    Returns (rank, consistent, solution), where a unique solution comes as
    integer numerators over one common nonzero denominator and is None
    otherwise.  Each step replaces every other row r by
    (pivot * r - r[col] * pivot row) / previous pivot, a division that is
    exact; afterwards every pivot row holds the last pivot in its pivot
    column and zeros in the other pivot columns.
    """
    m, cols = len(rows), len(rows[0]) if rows else 0
    a = [list(row) + [y] for row, y in zip(rows, rhs)]
    rank = 0
    pivots: list[int] = []
    previous = 1
    for col in range(cols):
        pivot = next((r for r in range(rank, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        pv = top[col]
        for r in range(m):
            if r != rank:
                factor = a[r][col]
                a[r] = [(pv * x - factor * y) // previous for x, y in zip(a[r], top)]
        previous = pv
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    consistent = all(
        row[cols] == 0 or any(x != 0 for x in row[:cols]) for row in a[rank:]
    )
    if not consistent or rank < cols:
        return rank, consistent, None
    solution = [0] * cols
    for r, col in enumerate(pivots):
        solution[col] = a[r][cols]
    return rank, True, (solution, previous)


def gessel_gamma(n: int):
    """Expand two_var_poly(n) in the gamma basis, or report Indeterminate.

    >>> gessel_gamma(2).as_dict()
    {(0, 1): 1}
    """
    poly = two_var_poly(n).as_dict()
    index = basis_index(n)
    elements = [basis_element(n, i, j) for i, j in index]
    monomials = sorted(set().union(poly.keys(), *[e.keys() for e in elements]))
    rows = [[e.get(mono, 0) for e in elements] for mono in monomials]
    rhs = [poly.get(mono, 0) for mono in monomials]
    rank, consistent, solution = _solve_exact(rows, rhs)
    if solution is None:
        return Indeterminate(n, rank, len(index), consistent)
    numerators, denominator = solution
    quotients = [divmod(x, denominator) for x in numerators]
    if any(rest for _, rest in quotients):
        raise InvariantError(f"the gamma expansion of n = {n} has a non-integer coefficient")
    gammas = tuple(
        (ij, q) for ij, (q, _) in zip(index, quotients) if q != 0
    )
    return GesselGamma(n, gammas, rank)
