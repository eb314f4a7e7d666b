"""The descent polynomial families and their recurrences.

All polynomials live in exact integer arithmetic:

* ``separable_poly(n)``    - S_n(t), descents over 2413/3142-avoiders;
* ``derangement_poly(n)``  - D_n(t), descents over fixed-point-free
  permutations, with coefficients d(n, k);
* ``eulerian_poly(n)``     - A_n(t), descents over all of S_n;
* ``complement_poly(n)``   - descents over permutations with a fixed point,
  so A_n - D_n;
* ``gamma_poly(n)``        - the gamma polynomial of S_n(t) in x.

Each family satisfies a defining recurrence, and the enumeration methods
recompute small cases from scratch as independent oracles, up to
``BRUTE_FORCE_CAP``; each oracle over permutations is a histogram over the
permutations of n that one predicate admits.  Each recurrence asks for the
orders below n in increasing order, so every memo miss finds the orders
below it cached and the recursion stays a few calls deep at any n.

The derangement coefficients satisfy, with the boundary value d(n, n-1)
equal to 1 for even n and 0 for odd n,

    d(n, k) = (k + 1) d(n-1, k) + (n - k) d(n-1, k-1)      (k < n - 1),

and interleave in a strict *spiral*: reading the support from its two ends
inward gives an increasing chain, with the single permitted equality
d(4, 1) = d(4, 2) = 4.  The complement family satisfies the same spiral
over its own support, with the analogous equality at n = 4.

``PolyCache`` stores members of the five families on disk, one checked
JSON file per (family, n).
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import ResourceCapError
from .polynomials import (
    GammaVector,
    IntPolynomial,
    binomial,
    gamma_decompose,
    is_palindromic,
)

# Largest n that the enumeration oracles run at.
BRUTE_FORCE_CAP = 8

ONE_PLUS_T = IntPolynomial((1, 1))


def _check_cap(n: int) -> None:
    """The check every enumeration passes through: 1 <= n <= the cap."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > BRUTE_FORCE_CAP:
        raise ResourceCapError(f"enumeration capped at n = {BRUTE_FORCE_CAP}, got {n}")


def catalan(n: int) -> int:
    return binomial(2 * n, n) // (n + 1)


def derangement_count(n: int) -> int:
    """d_n = (-1)^n + n d_{n-1}, d_0 = 1."""
    d = 1
    for m in range(1, n + 1):
        d = (-1) ** m + m * d
    return d


def schroder_number(n: int) -> int:
    """Number of separable permutations of n (1, 2, 6, 22, 90, ...)."""
    return separable_poly(n)(1)


def _histogram(exponents) -> IntPolynomial:
    """The polynomial whose coefficient k counts the k's in ``exponents``."""
    coeffs: list[int] = []
    for k in exponents:
        if k >= len(coeffs):
            coeffs.extend([0] * (k - len(coeffs) + 1))
        coeffs[k] += 1
    return IntPolynomial(coeffs)


def _descent_histogram(n: int, keep=None, stat=lambda p: p.des()) -> IntPolynomial:
    """Histogram of ``stat`` over the permutations of n that ``keep``
    admits (all of them for None): the one enumeration every oracle runs."""
    from .permutations import all_permutations

    _check_cap(n)
    return _histogram(stat(p) for p in all_permutations(n) if keep is None or keep(p))


def _by_enumeration(n: int, method: str) -> bool:
    """Whether a family member is asked for by enumeration, after checking
    n and the method name."""
    if n < 1:
        raise ValueError("need n >= 1")
    if method not in ("enum", "recurrence"):
        raise ValueError(f"unknown method {method!r}")
    return method == "enum"


# ---------------------------------------------------------------------------
# S_n(t)


@lru_cache(maxsize=None)
def separable_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of separable permutations.

    >>> str(separable_poly(4))
    '1+10t+10t^2+t^3'

    The recurrence convolves smaller cases:

        S_n = (1+t) S_{n-1}
              + t * sum_j S_j (S_{n-j-1} + sum_i S_i S_{n-j-i}).

    The inner sums are the self-convolutions C_m = sum_i S_i S_{m-i}, and
    sum_j S_j S_{n-j-1} is C_{n-1}; each C_m is computed once and cached
    (``_self_convolution``), so an order costs O(n) products.
    """
    if _by_enumeration(n, method):
        from .permutations import is_separable

        return _descent_histogram(n, is_separable)
    return _convolution_recurrence(separable_poly, ONE_PLUS_T, n)


def _convolution_recurrence(member, lin: IntPolynomial, n: int) -> IntPolynomial:
    """P_n = lin P_{n-1} + t (C_{n-1} + sum_{j=1}^{n-2} P_j C_{n-j}), P_1 = 1.

    ``member(j)`` is P_j; the orders below n are asked for in increasing
    order, so each memo miss finds the order below it cached.
    """
    if n == 1:
        return IntPolynomial.one()
    p = [None] * n  # p[j] = P_j for 1 <= j < n
    for j in range(1, n):
        p[j] = member(j)
    acc = _self_convolution(member, n - 1)
    for j in range(1, n - 1):
        acc = acc + p[j] * _self_convolution(member, n - j)
    return lin * p[n - 1] + acc.shift(1)


@lru_cache(maxsize=None)
def _self_convolution(member, m: int) -> IntPolynomial:
    """C_m = sum_{i=1}^{m-1} P_i P_{m-i} for P_i = member(i), all cached."""
    acc = IntPolynomial.zero()
    for i in range(1, (m + 1) // 2):
        acc = acc + member(i) * member(m - i)
    acc = acc + acc
    if m % 2 == 0:
        acc = acc + member(m // 2) * member(m // 2)
    return acc


@lru_cache(maxsize=None)
def separable_split(n: int) -> tuple[IntPolynomial, IntPolynomial]:
    """(S^+, S^-): descent polynomials of di-sk trees by root label.

    Convention: both components are 1 at n = 1 (empty tree on either side),
    so S_n = S^+ + S^- only from n = 2 on.  A '+'-rooted tree is any left
    subtree plus a '-'-rooted (possibly empty) right subtree, and dually:

        S^+_n = sum_j S_j S^-_{n-j},   S^-_n = t * sum_j S_j S^+_{n-j}.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (IntPolynomial.one(), IntPolynomial.one())
    splits = [None] * n  # splits[j] = (S^+_j, S^-_j) for 1 <= j < n
    for j in range(1, n):
        splits[j] = separable_split(j)
    plus = IntPolynomial.zero()
    minus = IntPolynomial.zero()
    t = IntPolynomial.t()
    for j in range(1, n):
        sj = separable_poly(j)
        split = splits[n - j]
        plus = plus + sj * split[1]
        minus = minus + sj * split[0]
    return (plus, t * minus)


def separable_split_enum(n: int) -> tuple[IntPolynomial, IntPolynomial]:
    """Oracle for separable_split by enumerating trees rooted '+' and '-'."""
    from .nested import LABELS
    from .trees import enumerate_trees

    _check_cap(n)
    if n == 1:
        return (IntPolynomial.one(), IntPolynomial.one())
    return tuple(_histogram(t.n_minus() for t in enumerate_trees(n) if t.root[0] == label)
                 for label in LABELS)


def separable_gamma(n: int) -> GammaVector:
    """Gamma vector of S_n(t) at darga n-1; nonnegative for every n."""
    return gamma_decompose(separable_poly(n), n - 1)


@lru_cache(maxsize=None)
def gamma_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Gamma polynomial of S_n(t) as a polynomial in x.

    Satisfies the same convolution recurrence as S_n with (1+t) replaced by
    1 and the outer t by x, and runs through the same code, with its own
    cached self-convolutions C_m = sum_i Gamma_i Gamma_{m-i}.

    >>> gamma_poly(6).coeffs
    (1, 30, 61)

    ``"enum"`` counts the separable permutations with no double descent
    by descents (``separable_gamma_histogram``).
    """
    if _by_enumeration(n, method):
        return separable_gamma_histogram(n)
    return _convolution_recurrence(gamma_poly, IntPolynomial.one(), n)


def cubic_equation_residual(order: int) -> list[IntPolynomial]:
    """Coefficients of z^0..z^order in z + (1+t)zS + tzS^2 + tS^3 - S.

    S(t, z) is the generating function sum_n S_n(t) z^n truncated to
    z^order; the residual vanishes termwise in that range.
    """
    series = [IntPolynomial.zero()] + [separable_poly(n) for n in range(1, order + 1)]

    def mul(a: list[IntPolynomial], b: list[IntPolynomial]) -> list[IntPolynomial]:
        out = [IntPolynomial.zero() for _ in range(order + 1)]
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j in range(0, order + 1 - i):
                if not b[j].is_zero():
                    out[i + j] = out[i + j] + ca * b[j]
        return out

    t = IntPolynomial.t()
    s2 = mul(series, series)
    s3 = mul(s2, series)
    residual = [IntPolynomial.zero() for _ in range(order + 1)]
    residual[1] = residual[1] + IntPolynomial.one()          # z
    for m in range(order):                                   # (1+t) z S
        residual[m + 1] = residual[m + 1] + ONE_PLUS_T * series[m]
    for m in range(order):                                   # t z S^2
        residual[m + 1] = residual[m + 1] + t * s2[m]
    for m in range(order + 1):                               # t S^3 - S
        residual[m] = residual[m] + t * s3[m] - series[m]
    return residual


# ---------------------------------------------------------------------------
# D_n(t), A_n(t) and the complement


def _descent_recurrence(member, n: int, first: IntPolynomial, top: int) -> IntPolynomial:
    """c(n, k) = (k + 1) c(n-1, k) + (n - k) c(n-1, k-1) for k < n, plus
    ``top`` at k = n - 1, where ``member(m)`` is the family's order m and
    ``first`` its order 1."""
    if n == 1:
        return first
    for m in range(1, n):
        prev = member(m)
    c = (0,) + prev.coeffs + (0,) * (n - len(prev.coeffs))  # c[k + 1] = c(n-1, k)
    coeffs = [(k + 1) * c[k + 1] + (n - k) * c[k] for k in range(n)]
    coeffs[n - 1] += top
    return IntPolynomial(coeffs)


@lru_cache(maxsize=None)
def derangement_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of derangements, D_1 = 0, D_2 = t.

    >>> str(derangement_poly(6))
    '16t+104t^2+120t^3+24t^4+t^5'

    The coefficient recurrence of A_n holds below the top; the term
    (-1)^n t^(n-1) sets the boundary d(n, n-1).
    """
    if _by_enumeration(n, method):
        return _descent_histogram(n, lambda p: p.is_derangement())
    return _descent_recurrence(derangement_poly, n, IntPolynomial.zero(), (-1) ** n)


@lru_cache(maxsize=None)
def eulerian_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of all permutations, A_1 = 1.

    a(n, k) = (k + 1) a(n-1, k) + (n - k) a(n-1, k-1), the coefficients of
    A_n = (1 + (n-1) t) A_{n-1} + t (1 - t) A'_{n-1}.
    """
    if _by_enumeration(n, method):
        return _descent_histogram(n)
    return _descent_recurrence(eulerian_poly, n, IntPolynomial.one(), 0)


@lru_cache(maxsize=None)
def complement_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of non-derangements (permutations with a fixed
    point); equals A_n - D_n and satisfies the recurrence of A_n with the
    extra term (-t)^(n-1).
    """
    if _by_enumeration(n, method):
        return _descent_histogram(n, lambda p: not p.is_derangement())
    return _descent_recurrence(complement_poly, n, IntPolynomial.one(), (-1) ** (n - 1))


def eulerian_gamma(n: int) -> GammaVector:
    return gamma_decompose(eulerian_poly(n), n - 1)


def narayana_poly(n: int) -> IntPolynomial:
    """Descent polynomial over 231-avoiding permutations (enumeration)."""
    from .permutations import Permutation

    pat = Permutation((2, 3, 1))
    return _descent_histogram(n, lambda p: not p.contains_pattern(pat))


def separable_gamma_histogram(n: int) -> IntPolynomial:
    """gamma_k of S_n realized as separable permutations with dd = 0."""
    from .permutations import is_separable

    return _descent_histogram(n, lambda p: p.double_descents() == 0 and is_separable(p))


def desarrangement_histogram(n: int) -> IntPolynomial:
    """Inverse-descent histogram over desarrangements; equals D_n(t).

    >>> desarrangement_histogram(6).coeffs
    (0, 16, 104, 120, 24, 1)
    """
    return _descent_histogram(n, lambda p: p.is_desarrangement(), lambda p: p.ides())


# ---------------------------------------------------------------------------
# spiral interleaving


class SpiralCheck(NamedTuple):
    description: str
    lower: int
    upper: int
    strict: bool
    ok: bool


class SpiralReport(NamedTuple):
    n: int
    family: str
    checks: tuple[SpiralCheck, ...]
    equalities: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _outside_in(lo: int, hi: int, top_first: bool) -> list[int]:
    """lo..hi read from the two ends inward, starting at hi when
    ``top_first`` and at lo otherwise."""
    order = []
    while lo <= hi:
        if top_first:
            order.append(hi)
            hi -= 1
        else:
            order.append(lo)
            lo += 1
        top_first = not top_first
    return order


def _compare(name: str, n: int, c: IntPolynomial, a: int, b: int,
             allow_equal: bool) -> SpiralCheck:
    """The check c(n, a) < c(n, b), or <= when ``allow_equal``."""
    lo, hi = c[a], c[b]
    op = "<=" if allow_equal else "<"
    return SpiralCheck(f"{name}({n},{a}) {op} {name}({n},{b})", lo, hi, not allow_equal,
                       lo <= hi if allow_equal else lo < hi)


def _spiral(family: str, name: str, n: int, c: IntPolynomial, order: list[int],
            checks: tuple[SpiralCheck, ...] = ()) -> SpiralReport:
    """The coefficients of c strictly rising along ``order``, after
    ``checks``.  The one permitted equality is the innermost pair at n = 4."""
    out = list(checks)
    equalities: list[str] = []
    for i, (a, b) in enumerate(zip(order, order[1:])):
        allow = n == 4 and i == len(order) - 2
        if allow and c[a] == c[b]:
            equalities.append(f"{name}({n},{a}) = {name}({n},{b}) = {c[b]}")
        out.append(_compare(name, n, c, a, b, allow))
    return SpiralReport(n, family, tuple(out), tuple(equalities))


def spiral_report(n: int) -> SpiralReport:
    """Interleaving inequalities for the derangement coefficients d(n, .),
    the support 1..deg D_n read outside-in from the top end for even n:

    Even n = 2m:  d(n, n-k) < d(n, k) < d(n, n-k-1) for 1 <= k <= m-1,
    except d(4, 1) = d(4, 2).  Odd n = 2m+1:
    d(n, k) < d(n, n-1-k) < d(n, k+1) for 1 <= k <= m-1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    order = _outside_in(1, n - 1, True) if n % 2 == 0 else _outside_in(1, n - 2, False)
    return _spiral("derangement", "d", n, derangement_poly(n), order)


def complement_spiral_report(n: int) -> SpiralReport:
    """Mirrored interleaving for the complement coefficients e(n, .).

    The support starts at 0 instead of 1, which swaps the parity roles.
    Even n:  e(n, k) < e(n, n-2-k) < e(n, k+1) for 0 <= k <= n/2 - 2,
    except e(4, 1) = e(4, 2).  Odd n:  e(n, 0) = e(n, n-1) = 1 and
    e(n, n-1-k) < e(n, k) < e(n, n-2-k) for 1 <= k <= (n-1)/2 - 1, with the
    boundary e(n, n-1) < e(n, n-2) opening the chain.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    e = complement_poly(n)
    if n % 2 == 0:
        return _spiral("complement", "e", n, e, _outside_in(0, n - 2, False))
    pair = (_compare("e", n, e, 0, n - 1, True), _compare("e", n, e, n - 1, 0, True))
    return _spiral("complement", "e", n, e, [n - 1] + _outside_in(1, n - 2, True), pair)


# ---------------------------------------------------------------------------
# the rational generating-function identity


def power_tail(r: int, n: int) -> int:
    """T_r(n) = sum_{k=0}^{min(n,r)} (-1)^k C(r, k) r^(n-k)."""
    return sum((-1) ** k * binomial(r, k) * r ** (n - k) for k in range(min(n, r) + 1))


def verify_series_identity(n: int, order: int) -> bool:
    """Check D_n(t) / (1-t)^(n+1) = sum_r t^(r-1) T_r(n) through t^order.

    The left side is expanded with 1/(1-t)^(n+1) = sum_j C(n+j, n) t^j; both
    sides are exact integer series.

    >>> verify_series_identity(4, 10)
    True
    """
    if n < 2 or order < 1:
        raise ValueError("need n >= 2 and order >= 1")
    binom_series = IntPolynomial(tuple(binomial(n + j, n) for j in range(order + 1)))
    lhs = (derangement_poly(n) * binom_series).truncate(order)
    rhs = IntPolynomial.zero()
    for r in range(1, order + 2):
        rhs = rhs + IntPolynomial.monomial(r - 1, power_tail(r, n))
    return lhs == rhs.truncate(order)


# ---------------------------------------------------------------------------
# polynomial cache


class PolyCache:
    """One small JSON file per (family, n); diffable and auditable.

    A stored entry is served only when its ``format_version``, ``family``
    and ``n`` fields match, its coefficients are integers, its degree is
    below n, for S it is palindromic of darga n - 1, and for D, A and
    Dtilde its value at 1 is d_n, n! and n! - d_n, the number of
    permutations it ranges over.  Otherwise it counts as a miss: the
    polynomial is recomputed and the file rewritten.  An n below 1 is
    refused before any file is read.
    Writes go through a temporary file in the same directory and
    ``os.replace``, so a reader never sees half a file.
    """

    FORMAT_VERSION = 1
    FAMILIES = {
        "S": separable_poly,
        "D": derangement_poly,
        "A": eulerian_poly,
        "Dtilde": complement_poly,
        "Gamma": gamma_poly,
    }
    VALUE_AT_ONE = {
        "D": derangement_count,
        "A": math.factorial,
        "Dtilde": lambda n: math.factorial(n) - derangement_count(n),
    }

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path(self, family: str, n: int) -> Path:
        return self.directory / f"{family}_{n}.json"

    def get(self, family: str, n: int) -> IntPolynomial:
        if family not in self.FAMILIES:
            raise KeyError(f"unknown family {family!r}")
        if n < 1:
            raise ValueError("need n >= 1")
        p = self.path(family, n)
        poly = self._read(p, family, n)
        if poly is not None:
            return poly
        poly = self.FAMILIES[family](n)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(
                json.dumps(
                    {
                        "format_version": self.FORMAT_VERSION,
                        "family": family,
                        "n": n,
                        "coeffs": poly.to_json(),
                    },
                    indent=1,
                )
            )
            os.replace(tmp, p)
        finally:
            tmp.unlink(missing_ok=True)
        return poly

    def _read(self, p: Path, family: str, n: int) -> Optional[IntPolynomial]:
        """The stored polynomial, or None for a missing or bad entry."""
        try:
            data = json.loads(p.read_text())
        except (OSError, ValueError, RecursionError):
            return None
        if not (isinstance(data, dict)
                and data.get("format_version") == self.FORMAT_VERSION
                and data.get("family") == family
                and type(data.get("n")) is int and data["n"] == n):
            return None
        coeffs = data.get("coeffs")
        if (type(coeffs) is not list or len(coeffs) > n
                or any(type(c) is not int for c in coeffs)):
            return None
        poly = IntPolynomial(coeffs)
        if family == "S" and not is_palindromic(poly, n - 1):
            return None
        count = self.VALUE_AT_ONE.get(family)
        if count is not None and poly(1) != count(n):
            return None
        return poly
