"""Exact real-root counting by Sturm sequences over the integers.

The Sturm chain p, p', -rem(p, p'), ... is built fraction-free as a
primitive polynomial remainder sequence (Collins, "Subresultants and
reduced polynomial remainder sequences", JACM 14, 1967).  Each step takes
the pseudo-remainder prem(a, b) = lc(b)^(deg a - deg b + 1) rem(a, b),
negates it, flips its sign once more when lc(b) < 0 and the exponent is
odd, and divides it by its positive content.  Only positive factors
separate the result from the true -rem(a, b), so the signs, and with them
the sign variations, are those of the Sturm chain.

The count is taken with multiplicity.  The chain of p ends in a positive
multiple of g = gcd(p, p'), and V(-inf) - V(+inf) over it counts the
distinct real roots of p.  Summed over p, g, gcd(g, g'), ..., it counts
each root as often as its multiplicity.  No floating point is involved
anywhere, so ``is_real_rooted`` is a decision procedure.
"""

from __future__ import annotations

from math import gcd

from .polynomials import IntPolynomial

Coeffs = list[int]   # c[k] multiplies t^k; the last entry is nonzero


def _primitive(c: Coeffs) -> Coeffs:
    """c divided by its positive content, with trailing zeros dropped."""
    while c and c[-1] == 0:
        c.pop()
    content = gcd(*c) if c else 1
    return c if content == 1 else [x // content for x in c]


def _sturm_step(a: Coeffs, b: Coeffs) -> Coeffs:
    """A positive multiple of -rem(a, b), primitive; [] when b divides a."""
    db, lead = len(b) - 1, b[-1]
    exponent = len(a) - len(b) + 1
    rem = a
    for shift in range(exponent - 1, -1, -1):
        top = rem[shift + db]
        rem = [lead * x for x in rem[: shift + db]]
        if top:
            for i in range(db):
                rem[shift + i] -= top * b[i]
    sign = -1 if lead < 0 and exponent % 2 else 1
    return _primitive([-sign * x for x in rem])


def _sign_changes(signs: list[bool]) -> int:
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _variations_at_infinity(chain: list[Coeffs]) -> int:
    """V(-inf) - V(+inf) over a chain of nonzero polynomials."""
    plus = [c[-1] > 0 for c in chain]
    minus = [positive != (len(c) % 2 == 0) for c, positive in zip(chain, plus)]
    return _sign_changes(minus) - _sign_changes(plus)


def real_root_count(p: IntPolynomial) -> int:
    """Real roots counted with multiplicity, exactly.

    >>> real_root_count(IntPolynomial((1, 4, 1)))
    2
    >>> real_root_count(IntPolynomial((1, 0, 1)))
    0
    >>> real_root_count(IntPolynomial((0, 0, 1)))
    2
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every number as a root")
    g = _primitive(list(p.coeffs))
    total = 0
    while len(g) > 1:
        chain = [g, _primitive([k * c for k, c in enumerate(g)][1:])]
        while len(chain[-1]) > 1:
            rem = _sturm_step(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(rem)
        total += _variations_at_infinity(chain)
        g = chain[-1]   # a multiple of gcd(g, g')
    return total


def is_real_rooted(p: IntPolynomial) -> bool:
    """True when every complex root is real (count equals degree)."""
    return real_root_count(p) == p.degree
