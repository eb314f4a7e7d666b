"""Schröder words and the sweeping decomposition of separable permutations.

A Schröder word of length n is a fully parenthesized expression built from
n copies of the atom "1" joined by the operators ⊕ (written ``+``) and
⊖ (written ``-``), subject to the right-chain restriction: no operator node
whose *right* operand is an operator node with the same operator.  The two
nestings ``(A+(B+C))`` and ``(A-(B-C))`` can never arise because the sweep
always merges the leftmost eligible pair first, producing ``((A+B)+C)``
instead.

The expression is held as ``(op, left, right)`` tuples with ``None`` for
the atom: the node type of ``nested``, which di-sk trees share.  ``1`` is
only how the text form spells the atom.

The sweep reads a permutation as a list of blocks, each covering an
interval of values.  Whenever the two adjacent blocks with the least index
hold consecutive values they merge: ``+`` if the left block is the smaller
interval, ``-`` if it is the larger.  A permutation sweeps down to a single
block exactly when it avoids 2413 and 3142.  ``sweep`` applies this rule in
one left-to-right pass over a stack of blocks, in linear time.

Every walker over an expression goes through ``nested.index``, which
numbers its operators by in-order without recursion, so words of any depth
are handled.

Grammar for the textual form (whitespace ignored on parse, never emitted):

    W  ::=  "1"  |  "(" W op W ")"
    op ::=  "+"  |  "-"
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .nested import LABELS, MINUS, PLUS, CheckedTree, Index, Node, sizes
from .permutations import (
    PATTERN_2413,
    PATTERN_3142,
    Permutation,
    find_pattern,
    separating_pass,
)
from .value import need


class InvalidWordError(ValueError):
    """Raised for expressions violating the right-chain restriction."""


class NotSeparableError(ValueError):
    """Sweep failure; carries one witness occurrence of 2413 or 3142."""

    def __init__(self, perm: Permutation, pattern: Permutation, positions: tuple[int, ...]):
        self.perm = perm
        self.pattern = pattern
        self.positions = positions
        super().__init__(
            f"{perm} is not separable: pattern {pattern} at positions {positions}"
        )


class SchroderWord(CheckedTree):
    """A valid Schröder word, wrapping its expression tree."""

    __slots__ = ()

    _ATOM = "1"
    _OPENS = {PLUS: "(", MINUS: "("}
    _MIDS = {PLUS: PLUS, MINUS: MINUS}
    _OP_AT = 1
    _ERROR = InvalidWordError

    @staticmethod
    def _tokens(text: str) -> str:
        return "".join(text.split())

    @property
    def expr(self) -> Node:
        """The expression: ``(op, left, right)`` triples, None for ``1``."""
        return self._root

    def operators(self) -> tuple[str, ...]:
        """Operators in left-to-right textual order.

        >>> SchroderWord.parse("((1+1)-1)").operators()
        ('+', '-')
        """
        return self.labels()

    __str__ = CheckedTree._text


def sweep(p: Permutation) -> SchroderWord:
    """Decompose a separable permutation into its Schröder word.

    One left-to-right pass over a stack of blocks, each an expression
    covering an interval of values (see ``separating_pass``): every entry
    is pushed as a leaf, then the top two blocks merge while their
    intervals are adjacent, ``+`` when the lower block is on the left and
    ``-`` when it is on the right.  The word is the one the leftmost-first
    rule of the module docstring gives: the stack never holds a mergeable
    pair, so each merge joins the leftmost adjacent pair of the whole
    block sequence that can merge, as that rule would.  Linear time.

    >>> str(sweep(Permutation((9, 8, 4, 1, 3, 2, 7, 5, 6))))
    '((1-1)-((1-(1+(1-1)))+(1-(1+1))))'

    Raises NotSeparableError exactly when p contains 2413 or 3142.  Its
    witness is the lexicographically first occurrence of 2413 by
    positions, else of 3142, found among the leftmost entries of the
    blocks the pass leaves.  Both patterns are simple and every block is
    separable, so an occurrence takes at most one entry of any block;
    moving each of its entries to the leftmost entry of that block keeps
    the pattern and moves no position right.
    """
    if not p.word:
        raise ValueError("the empty permutation has no Schröder word")
    parts, lo, hi = separating_pass(p.word, _join)
    if len(parts) > 1:
        # A block over the values lo..hi holds hi - lo + 1 entries.
        starts = list(accumulate((b - a + 1 for a, b in zip(lo, hi[:-1])), initial=0))
        firsts = [p.word[s] for s in starts]
        rank = {v: r for r, v in enumerate(sorted(firsts), 1)}
        residue = Permutation(rank[v] for v in firsts)
        for pattern in (PATTERN_2413, PATTERN_3142):
            hit = find_pattern(residue, pattern)
            if hit is not None:
                raise NotSeparableError(p, pattern, tuple(starts[i - 1] + 1 for i in hit))
        raise AssertionError(f"sweep stuck on {p} with no forbidden pattern")
    return SchroderWord(parts[0])


def _join(increasing: bool, left: Node, right: Node) -> tuple:
    return (PLUS if increasing else MINUS, left, right)


def index_values(ix: Index) -> list[int]:
    """One-line notation of the permutation of an expression or di-sk tree
    numbered by ``nested.index``: ``+`` is the direct sum, ``-`` the skew
    sum.

    Leaf j is the left empty subtree of node j or the right one of node
    j - 1.  Top down, each node passes its children the number of values
    below their subtrees: under ``+`` the right operand lies above the
    left one, under ``-`` below it.
    """
    nodes, left, right = ix.nodes, ix.left, ix.right
    size = sizes(ix)
    values = [1] * (len(nodes) + 1)
    below = [0] * len(nodes)
    for v in reversed(ix.post):
        base = below[v]
        l, r = left[v], right[v]
        if nodes[v][0] == PLUS:
            lbase, rbase = base, base + size[l] + 1
        else:
            lbase, rbase = base + size[r] + 1, base
        if l:
            below[l] = lbase
        else:
            values[v] = lbase + 1
        if r:
            below[r] = rbase
        else:
            values[v + 1] = rbase + 1
    return values[1:]


def word_to_perm(w: SchroderWord) -> Permutation:
    """Inverse of sweep: evaluate the expression with ``+`` as direct sum
    and ``-`` as skew sum on singleton permutations.

    >>> str(word_to_perm(SchroderWord.parse("((1+1)-1)")))
    '231'
    """
    return Permutation(index_values(w._index()))


def enumerate_words(n: int) -> Iterator[SchroderWord]:
    """Generate every Schröder word with n leaves exactly once.

    Counts follow the large Schröder numbers 1, 2, 6, 22, 90, 394, 1806, ...
    """
    need("n", n, 1)
    return (SchroderWord(expr, _validate=False) for expr in _gen_exprs(n))


@lru_cache(maxsize=None)
def _gen_exprs(n: int) -> tuple[Node, ...]:
    if n == 1:
        return (None,)
    out: list[Node] = []
    for i in range(1, n):
        lefts = _gen_exprs(i)
        for right in _gen_exprs(n - i):
            for left in lefts:
                for op in LABELS:
                    # The right operand may not repeat the operator at its root.
                    if right is None or right[0] != op:
                        out.append((op, left, right))
    return tuple(out)
