"""Exact integer polynomials in one variable, and gamma decompositions.

A polynomial is a sequence of arbitrary-precision integer coefficients
indexed by exponent, with trailing zeros stripped.  The zero polynomial is
the empty sequence and has no degree.

A polynomial p(t) = a_r t^r + ... + a_s t^s (a_r, a_s nonzero) is
*palindromic of darga n* when n = r + s and a_{r+i} = a_{s-i} for all i.
For example 1 + t has darga 1 and the monomial t has darga 2.  Every such
polynomial is an integer combination

    p(t) = sum_k gamma_k * t^k * (1 + t)^(n - 2k),

and the gamma coefficients are unique.  When they are all nonnegative the
polynomial is called gamma-positive, which forces it to be palindromic and
unimodal.
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from operator import add, sub
from typing import Iterable, Iterator

from .value import Value


class NotPalindromicError(ValueError):
    """Raised when a gamma decomposition is requested at the wrong darga."""


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPolynomial(Value):
    """Dense integer polynomial; ``coeffs[k]`` is the coefficient of t^k."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _strip(list(coeffs)))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def t(cls) -> "IntPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def low_degree(self) -> int:
        """Least exponent with a nonzero coefficient."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no support")
        return next(k for k, c in enumerate(self.coeffs) if c)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(starmap(add, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(starmap(sub, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("negative exponent")
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncate(self, order: int) -> "IntPolynomial":
        """Drop all terms of exponent > ``order``."""
        return IntPolynomial(self.coeffs[: max(order + 1, 0)])

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        return format_poly(self, "t")

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


def format_poly(p: IntPolynomial, var: str = "t") -> str:
    """Compact text form: ``16t+104t^2+120t^3+24t^4+t^5``; ``0`` when zero."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            sign = "-" if c < 0 else ""
            power = var if k == 1 else f"{var}^{k}"
            term = f"{sign}{mag}{power}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def is_unimodal(p: IntPolynomial) -> bool:
    """True when the coefficients rise then fall over the support.

    >>> is_unimodal(IntPolynomial((1, 4, 1)))
    True
    >>> is_unimodal(IntPolynomial((2, 1, 2)))
    False
    >>> is_unimodal(IntPolynomial((1,)))
    True
    """
    if p.is_zero():
        return True
    seq = p.coeffs[p.low_degree :]
    k = 0
    while k + 1 < len(seq) and seq[k] <= seq[k + 1]:
        k += 1
    while k + 1 < len(seq) and seq[k] >= seq[k + 1]:
        k += 1
    return k == len(seq) - 1


def is_palindromic(p: IntPolynomial, darga: int) -> bool:
    """True when p is palindromic of the given darga (zero counts as yes).

    >>> is_palindromic(IntPolynomial((0, 1)), 2)
    True
    >>> is_palindromic(IntPolynomial((1, 1)), 1)
    True
    >>> is_palindromic(IntPolynomial((1, 1)), 3)
    False
    """
    if p.is_zero():
        return True
    r, s = p.low_degree, p.degree
    if r + s != darga:
        return False
    return all(p[r + i] == p[s - i] for i in range(s - r + 1))


class GammaVector(Value):
    """Gamma coefficients gamma_start .. gamma_{floor(darga/2)} of a polynomial."""

    __slots__ = ("darga", "start", "gammas")
    darga: int
    start: int
    gammas: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        i = k - self.start
        return self.gammas[i] if 0 <= i < len(self.gammas) else 0

    def items(self):
        return [(self.start + i, g) for i, g in enumerate(self.gammas)]

    def is_nonnegative(self) -> bool:
        return all(g >= 0 for g in self.gammas)

    def to_polynomial(self) -> IntPolynomial:
        """Reconstruct sum_k gamma_k t^k (1+t)^(darga-2k)."""
        one_plus_t = IntPolynomial((1, 1))
        acc = IntPolynomial.zero()
        for k, g in self.items():
            acc = acc + (one_plus_t ** (self.darga - 2 * k)).shift(k) * g
        return acc

    def to_json(self) -> dict:
        return {"darga": self.darga, "start": self.start, "gammas": list(self.gammas)}


def gamma_decompose(p: IntPolynomial, darga: int) -> GammaVector:
    """Peel off the unique gamma expansion of a palindromic polynomial.

    Working upward from the lowest exponent k in the support, the residual
    coefficient of t^k is gamma_k, because every later basis element
    t^j (1+t)^(darga-2j) with j > k has no t^k term.  A nonzero residual at
    the end means p was not palindromic of this darga.

    >>> gamma_decompose(IntPolynomial((1, 4, 1)), 2).gammas
    (1, 2)
    >>> gamma_decompose(IntPolynomial((0, 1)), 2).gammas
    (1,)
    """
    if darga < 0:
        raise ValueError("darga must be nonnegative")
    if p.is_zero():
        return GammaVector(darga, 0, ())
    r, s = p.low_degree, p.degree
    if r + s != darga or not is_palindromic(p, darga):
        raise NotPalindromicError(
            f"not palindromic of darga {darga}: support [{r}, {s}], "
            f"coefficients {list(p.coeffs)}"
        )
    residual = list(p.coeffs)
    gammas = []
    for k in range(r, darga // 2 + 1):
        g = residual[k]
        gammas.append(g)
        if g:
            # subtract g t^k (1+t)^m in place, C(m, i) by running ratios
            m, c = darga - 2 * k, g
            for i in range(m + 1):
                residual[k + i] -= c
                c = c * (m - i) // (i + 1)
    if any(residual):
        raise NotPalindromicError(
            f"nonzero residual {IntPolynomial(residual)!r} at darga {darga}")
    while gammas and gammas[-1] == 0:
        gammas.pop()
    return GammaVector(darga, r, tuple(gammas))
