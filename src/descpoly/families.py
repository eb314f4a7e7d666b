"""The descent polynomial families and their recurrences.

All polynomials live in exact integer arithmetic:

* ``separable_poly(n)``    - S_n(t), descents over 2413/3142-avoiders;
* ``derangement_poly(n)``  - D_n(t), descents over fixed-point-free
  permutations, with coefficients d(n, k);
* ``eulerian_poly(n)``     - A_n(t), descents over all of S_n;
* ``complement_poly(n)``   - descents over permutations with a fixed point,
  so A_n - D_n;
* ``gamma_poly(n)``        - the gamma polynomial of S_n(t) in x.

S_n, its root-label split and Gamma_n come in closed form by Lagrange
inversion, one order at a time.  D_n and A_n follow one coefficient
recurrence from order 0, the empty permutation, that asks for the orders
below n in increasing order, so the recursion stays a few calls deep at
any n; the complement is read as A_n - D_n.  The enumeration
methods recompute small cases from scratch as independent oracles, up to
``BRUTE_FORCE_CAP``; each oracle over permutations is a histogram over the
permutations of n that one predicate admits.

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
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import ResourceCapError
from .polynomials import GammaVector, IntPolynomial, gamma_decompose, is_palindromic
from .value import need

# Largest n that the enumeration oracles run at.
BRUTE_FORCE_CAP = 8


def _check_cap(n: int) -> None:
    """The check every enumeration passes through: 1 <= n <= the cap."""
    need("n", n, 1)
    if n > BRUTE_FORCE_CAP:
        raise ResourceCapError(f"enumeration capped at n = {BRUTE_FORCE_CAP}, got {n}")


def catalan(n: int) -> int:
    need("n", n, 0)
    return math.comb(2 * n, n) // (n + 1)


def derangement_count(n: int) -> int:
    """d_n = (-1)^n + n d_{n-1}, d_0 = 1."""
    need("n", n, 0)
    d = 1
    for m in range(1, n + 1):
        d = (-1) ** m + m * d
    return d


def schroder_number(n: int) -> int:
    """Number of separable permutations of n (1, 2, 6, 22, 90, ...), the large
    Schroder number r_{n-1}: (m+1) r_m = 3(2m-1) r_{m-1} - (m-2) r_{m-2}."""
    need("n", n, 1)
    r = [1, 2]
    for m in range(2, n):
        r.append((3 * (2 * m - 1) * r[-1] - (m - 2) * r[-2]) // (m + 1))
    return r[n - 1]


def _histogram(exponents) -> IntPolynomial:
    """The polynomial whose coefficient k counts the k's in ``exponents``."""
    tally = Counter(exponents)
    return IntPolynomial(tally[k] for k in range(max(tally, default=-1) + 1))


def _descent_histogram(n: int, keep=None, stat=lambda p: p.des()) -> IntPolynomial:
    """Histogram of ``stat`` over the permutations of n that ``keep``
    admits (all of them for None): the one enumeration every oracle runs."""
    from .permutations import all_permutations

    _check_cap(n)
    return _histogram(stat(p) for p in all_permutations(n) if keep is None or keep(p))


def _by_enumeration(n: int, method: str) -> bool:
    """Whether a family member is asked for by enumeration, after checking
    n and the method name."""
    need("n", n, 1)
    if method not in ("enum", "recurrence"):
        raise ValueError(f"unknown method {method!r}")
    return method == "enum"


# ---------------------------------------------------------------------------
# S_n(t), its root-label split and its gamma polynomial


def _lagrange_sum(n: int, m: int) -> list[int]:
    """[t^k] (1/n) sum_c C(n+c-1, c) C(m, k-c) C(n, n-1-k-c) for k < n.

    Each k starts from the binomial rows; each step in c multiplies and
    exactly divides by the term ratio, a quotient of small integers."""
    row_n, row_m, rising = [1], [1], [1]  # C(n, i), C(m, i), C(n-1+i, i)
    for i in range(n):
        row_n.append(row_n[-1] * (n - i) // (i + 1))
        row_m.append(row_m[-1] * (m - i) // (i + 1))
        rising.append(rising[-1] * (n + i) // (i + 1))
    coeffs = []
    for k in range(n):
        lo, hi = max(0, k - m), min(k, n - 1 - k)
        j = n - 1 - k - lo
        term = total = rising[lo] * row_m[k - lo] * row_n[j] if lo <= hi else 0
        for c in range(lo, hi):
            term = term * ((n + c) * (k - c) * j) // ((c + 1) * (m - k + c + 1) * (n - j + 1))
            total += term
            j -= 1
        coeffs.append(total // n)
    return coeffs


@lru_cache(maxsize=None, typed=True)
def separable_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of separable permutations.

    >>> str(separable_poly(4))
    '1+10t+10t^2+t^3'

    The generating function S = sum_n S_n z^n solves the cubic of
    ``cubic_equation_residual``, so z = S / phi(S) with
    phi(u) = (1+u)(1+tu)/(1-tu^2), and Lagrange inversion (Stanley, EC2,
    Thm 5.4.2) gives each order on its own, with no lower orders:

        S_n = (1/n) [u^(n-1)] phi(u)^n,
        [t^k] S_n = (1/n) sum_c C(n+c-1, c) C(n, k-c) C(n, n-1-k-c).
    """
    if _by_enumeration(n, method):
        from .permutations import is_separable

        return _descent_histogram(n, is_separable)
    return IntPolynomial(_lagrange_sum(n, n))


@lru_cache(maxsize=None)
def separable_split(n: int) -> tuple[IntPolynomial, IntPolynomial]:
    """(S^+, S^-): descent polynomials of di-sk trees by root label.

    Convention: both components are 1 at n = 1 (empty tree on either side),
    so S_n = S^+ + S^- only from n = 2 on.  A '+'-rooted tree is any left
    subtree plus a '-'-rooted (possibly empty) right subtree, and dually,
    so S^+ = S/(1+tS) and Lagrange inversion gives the sum of
    ``separable_poly`` with C(n-2, k-c) for C(n, k-c).  S^-_n is S^+_n
    read backwards over degrees 0..n-1, t^(n-1) S^+_n(1/t).
    """
    need("n", n, 1)
    if n == 1:
        return (IntPolynomial.one(), IntPolynomial.one())
    plus = _lagrange_sum(n, n - 2)
    return (IntPolynomial(plus), IntPolynomial(plus[::-1]))


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


@lru_cache(maxsize=None, typed=True)
def gamma_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Gamma polynomial of S_n(t) as a polynomial in x.

    Gamma_n(x) = S_n(t) / (1+t)^(n-1) at x = t/(1+t)^2, and
    phi(u/(1+t)) = (1+u+xu^2)/(1-xu^2), so by Lagrange inversion
    Gamma_n = (1/n) [u^(n-1)] ((1+u+xu^2)/(1-xu^2))^n and, with a = n-1-2k,

        [x^k] Gamma_n = (1/n) C(n, a) sum_b C(n-a, b) C(n+k-b-1, k-b).

    >>> gamma_poly(6).coeffs
    (1, 30, 61)

    ``"enum"`` counts the separable permutations with no double descent
    by descents (``separable_gamma_histogram``).
    """
    if _by_enumeration(n, method):
        return separable_gamma_histogram(n)
    coeffs = []
    outer, first = n, 1  # C(n, a) and C(n+k-1, k) at k = 0
    for k in range((n + 1) // 2):
        a = n - 1 - 2 * k
        term = total = first
        for b in range(k):
            term = term * ((n - a - b) * (k - b)) // ((b + 1) * (n + k - b - 1))
            total += term
        coeffs.append(outer * total // n)
        outer = outer * (a * (a - 1)) // ((n - a + 1) * (n - a + 2))
        first = first * (n + k) // (k + 1)
    return IntPolynomial(coeffs)


def cubic_equation_residual(order: int) -> list[IntPolynomial]:
    """Coefficients of z^0..z^order in z + (1+t)zS + tzS^2 + tS^3 - S.

    S(t, z) is the generating function sum_n S_n(t) z^n truncated to
    z^order; the residual vanishes termwise in that range.
    """
    need("order", order, 1)
    zero = IntPolynomial.zero()
    s1 = [zero] + [separable_poly(n) for n in range(1, order + 1)]
    s2 = [sum((s1[i] * s1[m - i] for i in range(m + 1)), zero) for m in range(order + 1)]
    s3 = [sum((s2[i] * s1[m - i] for i in range(m + 1)), zero) for m in range(order + 1)]
    t = IntPolynomial.t()
    residual = [t * s3[m] - s1[m] for m in range(order + 1)]  # t S^3 - S
    residual[1] = residual[1] + IntPolynomial.one()           # z
    for m in range(order):                                    # (1+t) z S + t z S^2
        residual[m + 1] = residual[m + 1] + IntPolynomial((1, 1)) * s1[m] + t * s2[m]
    return residual


# ---------------------------------------------------------------------------
# D_n(t), A_n(t) and the complement


def _descent_recurrence(member, n: int, top: int) -> IntPolynomial:
    """c(n, k) = (k + 1) c(n-1, k) + (n - k) c(n-1, k-1) for k < n, plus
    ``top`` at k = n - 1, where ``member(m)`` is the family's order m;
    order 0, the empty permutation, is 1."""
    prev = IntPolynomial.one()
    for m in range(1, n):
        prev = member(m)
    c = (0,) + prev.coeffs + (0,) * (n - len(prev.coeffs))  # c[k + 1] = c(n-1, k)
    coeffs = [(k + 1) * c[k + 1] + (n - k) * c[k] for k in range(n)]
    coeffs[n - 1] += top
    return IntPolynomial(coeffs)


@lru_cache(maxsize=None, typed=True)
def derangement_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of derangements, D_1 = 0, D_2 = t.

    >>> str(derangement_poly(6))
    '16t+104t^2+120t^3+24t^4+t^5'

    The coefficient recurrence of A_n holds below the top; the term
    (-1)^n t^(n-1) sets the boundary d(n, n-1).
    """
    if _by_enumeration(n, method):
        return _descent_histogram(n, lambda p: p.is_derangement())
    return _descent_recurrence(derangement_poly, n, (-1) ** n)


@lru_cache(maxsize=None, typed=True)
def eulerian_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of all permutations, A_1 = 1.

    a(n, k) = (k + 1) a(n-1, k) + (n - k) a(n-1, k-1), the coefficients of
    A_n = (1 + (n-1) t) A_{n-1} + t (1 - t) A'_{n-1}.
    """
    if _by_enumeration(n, method):
        return _descent_histogram(n)
    return _descent_recurrence(eulerian_poly, n, 0)


def complement_poly(n: int, method: str = "recurrence") -> IntPolynomial:
    """Descent polynomial of non-derangements (permutations with a fixed
    point), read as A_n - D_n; ``"enum"`` counts them directly.
    """
    if _by_enumeration(n, method):
        return _descent_histogram(n, lambda p: not p.is_derangement())
    return eulerian_poly(n) - derangement_poly(n)


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
    need("n", n, 2)
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
    need("n", n, 2)
    e = complement_poly(n)
    if n % 2 == 0:
        return _spiral("complement", "e", n, e, _outside_in(0, n - 2, False))
    pair = (_compare("e", n, e, 0, n - 1, True), _compare("e", n, e, n - 1, 0, True))
    return _spiral("complement", "e", n, e, [n - 1] + _outside_in(1, n - 2, True), pair)


# ---------------------------------------------------------------------------
# the rational generating-function identity


def power_tail(r: int, n: int) -> int:
    """T_r(n) = sum_{k=0}^{min(n,r)} (-1)^k C(r, k) r^(n-k)."""
    return sum((-1) ** k * math.comb(r, k) * r ** (n - k) for k in range(min(n, r) + 1))


def verify_series_identity(n: int, order: int) -> bool:
    """Check D_n(t) / (1-t)^(n+1) = sum_r t^(r-1) T_r(n) through t^order.

    The left side is expanded with 1/(1-t)^(n+1) = sum_j C(n+j, n) t^j; both
    sides are exact integer series.

    >>> verify_series_identity(4, 10)
    True
    """
    need("n", n, 2)
    need("order", order, 1)
    binom_series = IntPolynomial(math.comb(n + j, n) for j in range(order + 1))
    lhs = (derangement_poly(n) * binom_series).truncate(order)
    return lhs == IntPolynomial(power_tail(r, n) for r in range(1, order + 2))


# ---------------------------------------------------------------------------
# polynomial cache


class PolyCache:
    """One small JSON file per (family, n); diffable and auditable.

    A stored entry is served only when its ``format_version``, ``family``
    and ``n`` fields match, its coefficients are integers, its degree is
    below n, for S it is palindromic of darga n - 1, and it counts the
    permutations it ranges over: its value at 1 is r_{n-1}, d_n, n! and
    n! - d_n for S, D, A and Dtilde, and for Gamma, of degree at most
    (n-1)/2, sum_k gamma_k 2^(n-1-2k) = S_n(1).  Otherwise it counts as a
    miss: the polynomial is recomputed and the file rewritten.  An n that
    is no ``int`` of at least 1 is refused before any file is read.  Writes
    go through a temporary file in the same directory and ``os.replace``,
    so a reader never sees half a file.
    """

    FORMAT_VERSION = 1
    FAMILIES = {
        "S": separable_poly,
        "D": derangement_poly,
        "A": eulerian_poly,
        "Dtilde": complement_poly,
        "Gamma": gamma_poly,
    }
    COUNTS = {
        "S": schroder_number,
        "D": derangement_count,
        "A": math.factorial,
        "Dtilde": lambda n: math.factorial(n) - derangement_count(n),
        "Gamma": schroder_number,
    }

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path(self, family: str, n: int) -> Path:
        return self.directory / f"{family}_{n}.json"

    def get(self, family: str, n: int) -> IntPolynomial:
        if family not in self.FAMILIES:
            raise KeyError(f"unknown family {family!r}")
        need("n", n, 1)
        p = self.path(family, n)
        poly = self._read(p, family, n)
        if poly is not None:
            return poly
        poly = self.FAMILIES[family](n)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps({"format_version": self.FORMAT_VERSION, "family": family,
                                       "n": n, "coeffs": poly.to_json()}, indent=1))
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
        if family == "Gamma":
            if len(coeffs) > (n + 1) // 2:
                return None
            count = sum(g << (n - 1 - 2 * k) for k, g in enumerate(coeffs))
        else:
            count = poly(1)
        return poly if count == self.COUNTS[family](n) else None
