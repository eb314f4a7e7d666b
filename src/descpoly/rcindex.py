"""The rc-index: a noncommutative weight on tree-shape classes.

Flipping all labels on one right chain is an involution on di-sk trees, and
the flips on the r different chains commute, so each unlabeled shape
carries an orbit of exactly 2^r labeled trees.  Separable permutations in
one orbit share the shape, so the orbits are counted by the Catalan number
C_{n-1}.

Each shape gets the noncommutative monomial c_{l_1} c_{l_2} ... c_{l_r} of
its right-chain lengths, taken in chain order; the rc-index is the multiset
sum of these monomials over all shapes.  Substituting every c_l := 1 counts
the shapes (Catalan), c_l := 2 counts the labeled trees (large Schröder),
and the substitution

    c_l  ->  2 t^(l/2)            (l even)
    c_l  ->  t^((l-1)/2) (1 + t)  (l odd)

recovers the descent polynomial of separable permutations, exposing the
gamma coefficients as  gamma_k = sum of 2^(even-chain count)  over shapes
with exactly n - 1 - 2k odd chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

from .families import ResourceCapError
from .polynomials import IntPolynomial
from .trees import TreeShape, enumerate_shapes

NCMonomial = tuple[int, ...]

# Largest order rc_index builds: it walks all C_{n-1} shapes, 742900 at
# n = 14, and the count grows about fourfold per order.
RC_INDEX_MAX_N = 14


def monomial_of_shape(shape: TreeShape) -> NCMonomial:
    """Right-chain lengths in chain order (a composition of the size)."""
    return shape.chain_lengths()


def format_monomial(factors: NCMonomial) -> str:
    """Run-length rendering: (1, 1, 1) -> 'c_1^3', (2, 1) -> 'c_2c_1'."""
    if not factors:
        return "1"
    parts = []
    run_val, run_len = factors[0], 1
    for v in factors[1:]:
        if v == run_val:
            run_len += 1
        else:
            parts.append((run_val, run_len))
            run_val, run_len = v, 1
    parts.append((run_val, run_len))
    return "".join(
        f"c_{v}" + (f"^{m}" if m > 1 else "") for v, m in parts
    )


@dataclass(frozen=True)
class RCIndex:
    """Multiset of chain-length monomials over the C_{n-1} shape classes."""

    n: int
    terms: tuple[tuple[NCMonomial, int], ...]

    def __init__(self, n: int, terms: Mapping[NCMonomial, int]):
        object.__setattr__(self, "n", n)
        # Display order: more factors first, lexicographic within a count.
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))),
        )

    def as_dict(self) -> dict[NCMonomial, int]:
        return dict(self.terms)

    def multiplicity(self, factors: NCMonomial) -> int:
        return self.as_dict().get(tuple(factors), 0)

    def class_count(self) -> int:
        return sum(m for _, m in self.terms)

    def distinct_terms(self) -> int:
        return len(self.terms)

    def evaluate(self, values: Union[int, Mapping[int, int]]) -> int:
        """Substitute an integer for every generator c_l and sum.

        ``values`` is either one integer for all generators or a mapping
        from chain length to value; a missing generator is an error.
        """
        total = 0
        for factors, mult in self.terms:
            prod = 1
            for l in factors:
                if isinstance(values, int):
                    prod *= values
                else:
                    if l not in values:
                        raise KeyError(f"no value supplied for generator c_{l}")
                    prod *= values[l]
            total += mult * prod
        return total

    def substitute_ab(self) -> IntPolynomial:
        """Apply c_l -> 2t^(l/2) (l even), t^((l-1)/2)(1+t) (l odd); the
        result is the descent polynomial of separable permutations."""
        one_plus_t = IntPolynomial((1, 1))
        total = IntPolynomial.zero()
        for factors, mult in self.terms:
            prod = IntPolynomial.one()
            for l in factors:
                if l % 2 == 0:
                    prod = prod * IntPolynomial.monomial(l // 2, 2)
                else:
                    prod = prod * one_plus_t.shift((l - 1) // 2)
            total = total + prod * mult
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "1"
        parts = []
        for factors, mult in self.terms:
            head = "" if mult == 1 else str(mult)
            parts.append(head + format_monomial(factors))
        return " + ".join(parts)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"factors": list(f), "mult": m} for f, m in self.terms
            ],
        }


@lru_cache(maxsize=None)
def rc_index(n: int) -> RCIndex:
    """The rc-index of order n: one monomial per shape class.

    >>> str(rc_index(4))
    'c_1^3 + c_1c_2 + 2c_2c_1 + c_3'
    >>> rc_index(4).evaluate(2)
    22

    Raises ResourceCapError past ``RC_INDEX_MAX_N``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > RC_INDEX_MAX_N:
        raise ResourceCapError(f"rc-index capped at n = {RC_INDEX_MAX_N}, got {n}")
    terms: dict[NCMonomial, int] = {}
    for shape in enumerate_shapes(n):
        mono = monomial_of_shape(shape)
        terms[mono] = terms.get(mono, 0) + 1
    return RCIndex(n, terms)


def gamma_from_shapes(n: int, k: int) -> int:
    """gamma_k of the separable descent polynomial via shape classes:
    sum of 2^(number of even chains) over shapes with n-1-2k odd chains.

    The shapes are read from ``rc_index(n)``: each of its monomials is one
    chain-length multiset with its multiplicity, so every shape's chain
    lengths are computed once per n, for both routes.

    >>> gamma_from_shapes(4, 1)
    7
    """
    if not 0 <= k <= (n - 1) // 2:
        raise ValueError(f"k = {k} out of range for n = {n}")
    total = 0
    for factors, mult in rc_index(n).terms:
        odd = sum(l % 2 for l in factors)
        if odd == n - 1 - 2 * k:
            total += mult * 2 ** (len(factors) - odd)
    return total
