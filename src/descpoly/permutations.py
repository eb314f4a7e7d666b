"""Permutations in one-line notation and their descent-type statistics.

A permutation of [n] = {1, ..., n} is stored as the tuple
(pi(1), ..., pi(n)).  All indices in the public interface are 1-based to
match standard combinatorial usage; positions i in [n-1] with
pi(i) > pi(i+1) are descents.

Double descents use the boundary convention pi(0) = pi(n+1) = +infinity:
position i in [n] is a double descent when pi(i-1) > pi(i) > pi(i+1), so
i = 1 is one exactly when pi(1) > pi(2), and i = n never is.  Ascents use
the convention pi(n+1) = +infinity, so position n is always an ascent.
"""

from __future__ import annotations

import itertools
from operator import and_, gt, lt, ne
from typing import Iterable, Iterator, Sequence

from .value import Value


class Permutation(Value):
    """Immutable permutation of {1, ..., n} in one-line notation."""

    __slots__ = ("word",)
    word: tuple[int, ...]

    def __init__(self, word: Iterable[int]):
        w = tuple(word)
        if set(map(type, w)) - {int} or sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
        object.__setattr__(self, "word", w)

    @property
    def n(self) -> int:
        return len(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __getitem__(self, i: int) -> int:
        """1-based value access: p[i] = pi(i)."""
        if not 1 <= i <= len(self.word):
            raise IndexError(f"position {i} out of range 1..{len(self.word)}")
        return self.word[i - 1]

    def __str__(self) -> str:
        if self.n and max(self.word) <= 9:
            return "".join(str(v) for v in self.word)
        return " ".join(str(v) for v in self.word)

    def descent_set(self) -> frozenset[int]:
        """Positions i in [n-1] with pi(i) > pi(i+1).

        >>> sorted(Permutation((9, 8, 4, 1, 3, 2, 7, 5, 6)).descent_set())
        [1, 2, 3, 5, 7]
        """
        w = self.word
        return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])

    def des(self) -> int:
        w = self.word
        return sum(map(gt, w, w[1:]))

    def double_descents(self) -> int:
        """Count positions i with pi(i-1) > pi(i) > pi(i+1), boundaries +inf.

        >>> Permutation((2, 1)).double_descents()
        1
        >>> Permutation((1, 3, 2)).double_descents()
        0
        """
        w = self.word
        falls = [True, *map(gt, w, w[1:])]   # falls[i]: pi(i) > pi(i+1), pi(0) = +inf
        return sum(map(and_, falls, falls[1:]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.word)
        for i, v in enumerate(self.word):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def ides(self) -> int:
        """Number of descents of the inverse permutation.

        Equivalently the number of i in [n-1] such that i+1 appears to the
        left of i in the word.

        >>> Permutation((2, 3, 1)).ides()
        1
        """
        w = self.word
        pos = sorted(range(len(w)), key=w.__getitem__)   # pos[v - 1]: where v sits
        return sum(map(gt, pos, pos[1:]))

    def reverse(self) -> "Permutation":
        return Permutation(tuple(reversed(self.word)))

    def complement(self) -> "Permutation":
        n = len(self.word)
        return Permutation(tuple(n + 1 - v for v in self.word))

    def direct_sum(self, other: "Permutation") -> "Permutation":
        """Block-diagonal sum: self on 1..k, other shifted up by k.

        >>> str(Permutation((1, 2, 3)).direct_sum(Permutation((2, 1))))
        '12354'
        """
        k = len(self.word)
        return Permutation(self.word + tuple(v + k for v in other.word))

    def skew_sum(self, other: "Permutation") -> "Permutation":
        """Block-antidiagonal sum: self shifted up by len(other), then other.

        >>> str(Permutation((1, 2, 3)).skew_sum(Permutation((2, 1))))
        '34521'
        """
        l = len(other.word)
        return Permutation(tuple(v + l for v in self.word) + other.word)

    def contains_pattern(self, pattern: "Permutation") -> bool:
        return find_pattern(self, pattern) is not None

    def avoids(self, *patterns: "Permutation") -> bool:
        return all(not self.contains_pattern(p) for p in patterns)

    def is_derangement(self) -> bool:
        return all(map(ne, self.word, itertools.count(1)))

    def first_ascent(self) -> int:
        """Least i in [n] with pi(i) < pi(i+1), where pi(n+1) = +infinity."""
        w = self.word
        return next(itertools.compress(itertools.count(1), map(lt, w, w[1:])), len(w))

    def is_desarrangement(self) -> bool:
        """True when the first ascent is even.

        >>> Permutation((6, 5, 3, 2, 4, 1)).is_desarrangement()
        True
        >>> Permutation((3, 2, 1, 5, 6, 4)).is_desarrangement()
        False
        """
        return self.first_ascent() % 2 == 0


def find_pattern(p: Permutation, pattern: Permutation) -> tuple[int, ...] | None:
    """Positions (1-based, increasing) of the lexicographically first
    occurrence, or None.

    Depth-first search over positions, with the chosen ones on a list, so
    it does not recurse whatever the pattern's length.  The next chosen
    entry must relate to all previously chosen ones the way the pattern
    dictates; when none fits, the last choice moves right.

    >>> find_pattern(Permutation((2, 4, 1, 3)), Permutation((2, 4, 1, 3)))
    (1, 2, 3, 4)
    >>> find_pattern(Permutation((1, 2, 3)), Permutation((2, 1))) is None
    True
    """
    w, pat = p.word, pattern.word
    m = len(pat)
    chosen: list[int] = []
    i = 0
    while len(chosen) < m:
        j = len(chosen)
        # Entries still to be placed cannot fit if too few positions remain.
        if i > len(w) - (m - j):
            if not chosen:
                return None
            i = chosen.pop() + 1
            continue
        v = w[i]
        if all((v > w[c]) == (pat[j] > pat[jj]) for jj, c in enumerate(chosen)):
            chosen.append(i)
        i += 1
    return tuple(c + 1 for c in chosen)


def insert_value(p: Permutation, j: int) -> Permutation:
    """Append j and bump the entries >= j, a bijection S_{n-1} x [n] -> S_n.

    The image sigma has sigma(n) = j and sigma(i) = pi(i) + 1 when
    pi(i) >= j, else pi(i).  It preserves ides exactly when j - 1 is an
    inverse descent of p (j appears to the left of j - 1) or j = n, and
    otherwise increases ides by one; so each p admits ides(p) + 1
    preserving choices of j and n - 1 - ides(p) incrementing ones.

    >>> str(insert_value(Permutation((2, 3, 1)), 2))
    '3412'
    >>> str(insert_value(Permutation((1,)), 1))
    '21'
    """
    n = len(p.word) + 1
    if not 1 <= j <= n:
        raise ValueError(f"insertion value {j} out of range 1..{n}")
    return Permutation(tuple(v + 1 if v >= j else v for v in p.word) + (j,))


def _words(n: int) -> Iterator[tuple[int, ...]]:
    """The words of 1..n, lexicographic; n < 0 is refused at the call."""
    if n < 0:
        raise ValueError("need n >= 0")
    return itertools.permutations(range(1, n + 1))


def identity(n: int) -> Permutation:
    return Permutation(next(_words(n)))  # 1 2 ... n comes first


def _unchecked(word: tuple[int, ...]) -> Permutation:
    """The Permutation of a word the library generated itself, not
    validated again; every other word goes through ``Permutation``."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "word", word)
    return p


def all_permutations(n: int) -> Iterator[Permutation]:
    return map(_unchecked, _words(n))


def derangements(n: int) -> Iterator[Permutation]:
    return (p for p in all_permutations(n) if p.is_derangement())


def desarrangements(n: int) -> Iterator[Permutation]:
    return (p for p in all_permutations(n) if p.is_desarrangement())


PATTERN_2413 = Permutation((2, 4, 1, 3))
PATTERN_3142 = Permutation((3, 1, 4, 2))


def separating_pass(word: Sequence[int], join=None) -> tuple[list, list[int], list[int]]:
    """Blocks left by one left-to-right stack pass over a permutation.

    This is the separating-tree construction of Bose, Buss and Lubiw
    ("Pattern matching for permutations", IPL 65, 1998).  A block is a run
    of consecutive entries whose values form an interval.  Each entry is
    pushed as a block of its own, then the top two blocks merge while
    their intervals are adjacent.  Every entry is pushed once and every
    merge pops one block, so the pass is linear.  The word is separable,
    that is it avoids 2413 and 3142, exactly when one block is left.

    Each block carries a part: None for a single entry, and
    ``join(increasing, left_part, right_part)`` for a merge, where
    ``increasing`` says the left block holds the smaller values.  Without
    ``join`` the parts stay None.  Returns the parts and, alongside, each
    block's least and greatest value, left to right.

    >>> separating_pass((2, 1, 3)), separating_pass((2, 4, 1, 3))[1]
    (([None], [1], [3]), [2, 4, 1, 3])
    """
    lo: list[int] = []
    hi: list[int] = []
    parts: list = []
    for v in word:
        a = b = v
        part = None
        while lo:
            if hi[-1] + 1 == a:
                increasing = True
                a = lo.pop()
                hi.pop()
            elif b + 1 == lo[-1]:
                increasing = False
                b = hi.pop()
                lo.pop()
            else:
                break
            left_part = parts.pop()
            if join is not None:
                part = join(increasing, left_part, part)
        lo.append(a)
        hi.append(b)
        parts.append(part)
    return parts, lo, hi


def _one_block(word: Sequence[int]) -> bool:
    return len(separating_pass(word)[0]) <= 1


def is_separable(p: Permutation) -> bool:
    """True when p avoids both 2413 and 3142, decided by the linear
    ``separating_pass``."""
    return _one_block(p.word)


def separable_permutations(n: int) -> Iterator[Permutation]:
    return map(_unchecked, filter(_one_block, _words(n)))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation.

    Accepts space- or comma-separated values, or for n <= 9 a single token
    of digits.

    >>> parse_permutation("9 8 4 1 3 2 7 5 6").word[:3]
    (9, 8, 4)
    >>> parse_permutation("231").word
    (2, 3, 1)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    tokens = text.replace(",", " ").split()
    if len(tokens) == 1 and len(tokens[0]) > 1 and tokens[0].isdigit():
        return Permutation(int(ch) for ch in tokens[0])
    return Permutation(int(tok) for tok in tokens)
