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

The index is built from the chain grammar, not by walking the shapes.  A
shape with m >= 1 nodes is its root's right chain, of some length l, with
the left subtrees L_1, ..., L_l of that chain's nodes, top to bottom.  In
chain order the chains of L_1 come first, as its nodes precede the root in
in-order, then the root's chain, then those of L_2, ..., L_l:

    M(shape) = M(L_1) c_l M(L_2) ... M(L_l).

So the shapes of m nodes are counted per monomial from the shapes of fewer
nodes and the concatenations of l - 1 of them (sequences, in the sense of
Flajolet and Sedgewick, *Analytic Combinatorics*, ch. I).  The commutative
image of the same grammar, with a chain of length l weighted y^(l // 2),
twice that when l is even, gives the shape sums of ``gamma_from_shapes``
for every n in polynomial time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Union

from .errors import ResourceCapError
from .polynomials import IntPolynomial
from .value import Value

NCMonomial = tuple[int, ...]

# Largest order rc_index builds: the index of order n has 2^(n-2) terms,
# 65536 at n = 18, and the grammar tables grow about twofold per order.
RC_INDEX_MAX_N = 18


def monomial_of_shape(shape) -> NCMonomial:
    """Right-chain lengths of a ``TreeShape`` in chain order (a composition
    of the size)."""
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


class RCIndex(Value):
    """Multiset of chain-length monomials over the C_{n-1} shape classes."""

    __slots__ = ("n", "terms")
    n: int
    terms: tuple[tuple[NCMonomial, int], ...]

    def __init__(self, n: int, terms: Mapping[NCMonomial, int]):
        # Display order: more factors first, lexicographic within a count.
        super().__init__(n, tuple(sorted(terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))))

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
        result is the descent polynomial of separable permutations.

        A term's image is (1+t)^odd 2^even t^shift, with shift the sum of
        l // 2, so the terms are summed per (odd, even, shift) first.
        """
        groups: dict[tuple[int, int, int], int] = {}
        for factors, mult in self.terms:
            odd = sum(l % 2 for l in factors)
            key = (odd, len(factors) - odd, sum(l // 2 for l in factors))
            groups[key] = groups.get(key, 0) + mult
        one_plus_t = IntPolynomial((1, 1))
        total = IntPolynomial.zero()
        for (odd, even, shift), mult in groups.items():
            total = total + (one_plus_t ** odd * (mult << even)).shift(shift)
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


def _mul_into(out: dict[NCMonomial, int], left: Mapping[NCMonomial, int],
              right: Mapping[NCMonomial, int], middle: NCMonomial = ()) -> None:
    """Add every product left-term * middle * right-term into ``out``."""
    get = out.get
    for head, x in left.items():
        head += middle
        for tail, y in right.items():
            key = head + tail
            out[key] = get(key, 0) + x * y


@lru_cache(maxsize=None)
def _shapes(m: int) -> dict[NCMonomial, int]:
    """Monomial -> number of shapes with m nodes: over the root chain's
    length l and the size s of L_1, M(L_1) c_l times a concatenation of
    l - 1 subtrees with the m - l - s nodes left.  Read only."""
    if m == 0:
        return {(): 1}
    out: dict[NCMonomial, int] = {}
    for l in range(1, m + 1):
        for s in range(m - l + 1):
            _mul_into(out, _shapes(s), _concat(l - 1, m - l - s), (l,))
    return out


@lru_cache(maxsize=None)
def _concat(k: int, t: int) -> dict[NCMonomial, int]:
    """Monomial -> number of sequences of k shapes, empty ones included,
    with t nodes in all: the first shape's monomial, then the rest's.
    Read only."""
    if k == 0:
        return {(): 1} if t == 0 else {}
    out: dict[NCMonomial, int] = {}
    for s in range(t + 1):
        _mul_into(out, _shapes(s), _concat(k - 1, t - s))
    return out


@lru_cache(maxsize=None)
def rc_index(n: int) -> RCIndex:
    """The rc-index of order n: one monomial per shape class, counted from
    the chain grammar over the shapes of n - 1 nodes.

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
    return RCIndex(n, _shapes(n - 1))


@lru_cache(maxsize=None)
def _shape_sums(m: int) -> tuple[IntPolynomial, IntPolynomial]:
    """G_m and [z^m] G^2, polynomials in y, for the commutative image

        G = sum over shapes of z^size y^(sum of l // 2) 2^(even chains).

    The grammar gives G = 1 + sum over l of the chain weight z^l G^l;
    summing the odd and the even l as geometric series leaves
    G = 1 + z G + y z^2 (G^2 + G^3).  A shape with m nodes and o odd
    chains has sum of l // 2 = (m - o) / 2, so [y^k] G_m sums
    2^(even chains) over the shapes with m - 2k odd chains.  (With u per
    odd chain instead, F_m(u) = u^m G_m(u^-2) and the equation reads
    F_m = u F_{m-1} + [z^(m-2)](F^2 + F^3).)  The lower orders are filled
    first, so no order recurses through all the ones below it.
    """
    if m == 0:
        one = IntPolynomial.one()
        return one, one
    g, sq = zip(*(_shape_sums(j) for j in range(m)))
    g_m = g[m - 1]
    if m >= 2:
        cubed = sum((g[i] * sq[m - 2 - i] for i in range(m - 1)), IntPolynomial.zero())
        g_m = g_m + (sq[m - 2] + cubed).shift(1)
    g += (g_m,)
    return g_m, sum((g[i] * g[m - i] for i in range(m + 1)), IntPolynomial.zero())


def gamma_from_shapes(n: int, k: int) -> int:
    """gamma_k of the separable descent polynomial via shape classes:
    sum of 2^(number of even chains) over shapes with n-1-2k odd chains.

    The sums come from the commutative image of the chain grammar
    (``_shape_sums``), not from ``rc_index``, so every n is in reach.

    >>> gamma_from_shapes(4, 1)
    7
    """
    if not 0 <= k <= (n - 1) // 2:
        raise ValueError(f"k = {k} out of range for n = {n}")
    return _shape_sums(n - 1)[0][k]
