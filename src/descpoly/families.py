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
``BRUTE_FORCE_CAP``.  Each recurrence asks for the orders below n in
increasing order, so every memo miss finds the orders below it cached and
the recursion stays a few calls deep at any n.

The derangement coefficients satisfy, with the boundary value d(n, n-1)
equal to 1 for even n and 0 for odd n,

    d(n, k) = (k + 1) d(n-1, k) + (n - k) d(n-1, k-1)      (k < n - 1),

and interleave in a strict *spiral*: reading positions outside-in (highest,
lowest, next-highest, ...) gives an increasing chain, with the single
permitted equality d(4, 1) = d(4, 2) = 4.  The complement family satisfies
the mirrored spiral with the analogous equality at n = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .nested import LABELS
from .permutations import (
    all_permutations,
    derangements,
    desarrangements,
    separable_permutations,
)
from .polynomials import GammaVector, IntPolynomial, binomial, gamma_decompose

# Largest n that the enumeration oracles run at.
BRUTE_FORCE_CAP = 8

ONE_PLUS_T = IntPolynomial((1, 1))


class ResourceCapError(ValueError):
    """Raised for a request past a fixed resource cap: enumeration past
    ``BRUTE_FORCE_CAP``, or an rc-index past its ceiling."""


def _check_cap(n: int) -> None:
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
    if n < 1:
        raise ValueError("need n >= 1")
    if method == "enum":
        _check_cap(n)
        return _histogram(p.des() for p in separable_permutations(n))
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
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
    if n < 1:
        raise ValueError("need n >= 1")
    if method == "enum":
        return separable_gamma_histogram(n)
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
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


def _descent_step(prev: IntPolynomial, n: int, top: int) -> IntPolynomial:
    """c(n, k) = (k + 1) c(n-1, k) + (n - k) c(n-1, k-1) for k < n, plus
    ``top`` at k = n - 1."""
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
    if n < 1:
        raise ValueError("need n >= 1")
    if method == "enum":
        _check_cap(n)
        return _histogram(p.des() for p in derangements(n))
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
    if n == 1:
        return IntPolynomial.zero()
    for m in range(1, n):
        prev = derangement_poly(m)
    return _descent_step(prev, n, (-1) ** n)


@lru_cache(maxsize=None)
def eulerian_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of all permutations, A_1 = 1.

    a(n, k) = (k + 1) a(n-1, k) + (n - k) a(n-1, k-1), the coefficients of
    A_n = (1 + (n-1) t) A_{n-1} + t (1 - t) A'_{n-1}.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if method == "enum":
        _check_cap(n)
        return _histogram(p.des() for p in all_permutations(n))
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
    if n == 1:
        return IntPolynomial.one()
    for m in range(1, n):
        prev = eulerian_poly(m)
    return _descent_step(prev, n, 0)


@lru_cache(maxsize=None)
def complement_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of non-derangements (permutations with a fixed
    point); equals A_n - D_n and satisfies the recurrence of A_n with the
    extra term (-t)^(n-1).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if method == "enum":
        _check_cap(n)
        return _histogram(p.des() for p in all_permutations(n) if not p.is_derangement())
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
    if n == 1:
        return IntPolynomial.one()
    for m in range(1, n):
        prev = complement_poly(m)
    return _descent_step(prev, n, (-1) ** (n - 1))


def eulerian_gamma(n: int) -> GammaVector:
    return gamma_decompose(eulerian_poly(n), n - 1)


def narayana_poly(n: int) -> IntPolynomial:
    """Descent polynomial over 231-avoiding permutations (enumeration)."""
    from .permutations import Permutation

    _check_cap(n)
    pat = Permutation((2, 3, 1))
    return _histogram(p.des() for p in all_permutations(n) if not p.contains_pattern(pat))


def no_double_descent_histogram(perms) -> IntPolynomial:
    """Coefficient k counts members with no double descent and k descents."""
    return _histogram(p.des() for p in perms if p.double_descents() == 0)


def separable_gamma_histogram(n: int) -> IntPolynomial:
    """gamma_k of S_n realized as separable permutations with dd = 0."""
    _check_cap(n)
    return no_double_descent_histogram(separable_permutations(n))


def desarrangement_histogram(n: int) -> IntPolynomial:
    """Inverse-descent histogram over desarrangements; equals D_n(t).

    >>> desarrangement_histogram(6).coeffs
    (0, 16, 104, 120, 24, 1)
    """
    _check_cap(n)
    return _histogram(p.ides() for p in desarrangements(n))


# ---------------------------------------------------------------------------
# spiral interleaving


@dataclass(frozen=True)
class SpiralCheck:
    description: str
    lower: int
    upper: int
    strict: bool
    ok: bool


@dataclass(frozen=True)
class SpiralReport:
    n: int
    family: str
    checks: tuple[SpiralCheck, ...]
    equalities: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _compare(desc: str, lo: int, hi: int, allow_equal: bool) -> SpiralCheck:
    ok = lo <= hi if allow_equal else lo < hi
    return SpiralCheck(desc, lo, hi, not allow_equal, ok)


def spiral_report(n: int) -> SpiralReport:
    """Interleaving inequalities for the derangement coefficients d(n, .).

    Even n = 2m:  d(n, n-k) < d(n, k) < d(n, n-k-1) for 1 <= k <= m-1,
    except d(4, 1) = d(4, 2).  Odd n = 2m+1:
    d(n, k) < d(n, n-1-k) < d(n, k+1) for 1 <= k <= m-1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    d = derangement_poly(n)
    checks: list[SpiralCheck] = []
    equalities: list[str] = []
    m = n // 2
    if n % 2 == 0:
        for k in range(1, m):
            checks.append(_compare(f"d({n},{n-k}) < d({n},{k})", d[n - k], d[k], False))
            allow = n == 4 and k == 1
            if allow and d[k] == d[n - k - 1]:
                equalities.append(f"d({n},{k}) = d({n},{n-k-1}) = {d[k]}")
            checks.append(
                _compare(f"d({n},{k}) <= d({n},{n-k-1})" if allow else f"d({n},{k}) < d({n},{n-k-1})",
                         d[k], d[n - k - 1], allow)
            )
    else:
        for k in range(1, m):
            checks.append(_compare(f"d({n},{k}) < d({n},{n-1-k})", d[k], d[n - 1 - k], False))
            checks.append(_compare(f"d({n},{n-1-k}) < d({n},{k+1})", d[n - 1 - k], d[k + 1], False))
    return SpiralReport(n, "derangement", tuple(checks), tuple(equalities))


def complement_spiral_report(n: int) -> SpiralReport:
    """Mirrored interleaving for the complement coefficients e(n, .).

    The support starts at 0 instead of 1, which swaps the parity roles.
    Even n:  e(n, k) < e(n, n-2-k) < e(n, k+1) for 0 <= k <= n/2 - 2,
    except e(4, 1) = e(4, 2).  Odd n:  e(n, 0) = e(n, n-1) = 1 and
    e(n, n-1-k) < e(n, k) < e(n, n-2-k) for 1 <= k <= (n-1)/2 - 1, with the
    boundary e(n, n-1) < e(n, n-2) closing the chain.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    e = complement_poly(n)
    checks: list[SpiralCheck] = []
    equalities: list[str] = []
    if n % 2 == 0:
        for k in range(0, n // 2 - 1):
            checks.append(_compare(f"e({n},{k}) < e({n},{n-2-k})", e[k], e[n - 2 - k], False))
            allow = n == 4 and k == 0
            if allow and e[n - 2 - k] == e[k + 1]:
                equalities.append(f"e({n},{n-2-k}) = e({n},{k+1}) = {e[k+1]}")
            checks.append(
                _compare(f"e({n},{n-2-k}) <= e({n},{k+1})" if allow else f"e({n},{n-2-k}) < e({n},{k+1})",
                         e[n - 2 - k], e[k + 1], allow)
            )
    else:
        checks.append(_compare(f"e({n},0) <= e({n},{n-1})", e[0], e[n - 1], True))
        checks.append(_compare(f"e({n},{n-1}) <= e({n},0)", e[n - 1], e[0], True))
        if n >= 3:
            checks.append(_compare(f"e({n},{n-1}) < e({n},{n-2})", e[n - 1], e[n - 2], False))
        for k in range(1, (n - 1) // 2):
            checks.append(_compare(f"e({n},{n-1-k}) < e({n},{k})", e[n - 1 - k], e[k], False))
            checks.append(_compare(f"e({n},{k}) < e({n},{n-2-k})", e[k], e[n - 2 - k], False))
    return SpiralReport(n, "complement", tuple(checks), tuple(equalities))


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
