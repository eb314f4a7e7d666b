"""Seeded input generators for the benchmark.

Nothing here imports descpoly: every input is built from a
``random.Random`` and plain lists, so the code under test never helps to
make its own inputs.  Everything is iterative, because the deep shapes
(combs of thousands of nodes) exceed Python's recursion limit.

A binary tree with m nodes is a pair of child arrays ``(left, right)``
indexed by node id, with -1 for an empty subtree and node 0 as the root.
One such tree serves two readings: labelled with ``+``/``-`` it is a di-sk
tree, and with every empty subtree read as the atom ``1`` it is the
expression tree of a Schröder word on m + 1 leaves.
"""

from __future__ import annotations

import json
import random

PLUS, MINUS = "+", "-"
OTHER = {PLUS: MINUS, MINUS: PLUS}

PATTERN_2413 = (2, 4, 1, 3)


# -- shapes -----------------------------------------------------------------

def _split_random(rng: random.Random, size: int, depth: int) -> int:
    return rng.randrange(size)


def _split_comb(rng: random.Random, size: int, depth: int) -> int:
    return 0


def _split_zigzag(rng: random.Random, size: int, depth: int) -> int:
    return 0 if depth % 2 == 0 else size - 1


SPLITS = {"split": _split_random, "comb": _split_comb, "zigzag": _split_zigzag}


def shape(rng: random.Random, m: int, kind: str = "split") -> tuple[list[int], list[int]]:
    """Binary tree with m >= 1 nodes.

    ``split`` draws the left subtree's size uniformly (logarithmic expected
    depth); ``comb`` is a single right chain and ``zigzag`` alternates
    right and left children, both of depth m - 1.
    """
    split = SPLITS[kind]
    left, right = [-1], [-1]
    stack = [(0, m, 0)]
    while stack:
        v, size, depth = stack.pop()
        ls = split(rng, size, depth)
        for child, sub in ((left, ls), (right, size - 1 - ls)):
            if sub:
                child[v] = len(left)
                left.append(-1)
                right.append(-1)
                stack.append((child[v], sub, depth + 1))
    return left, right


def inorder(left: list[int], right: list[int]) -> list[int]:
    out: list[int] = []
    stack: list[int] = []
    v = 0
    while stack or v != -1:
        while v != -1:
            stack.append(v)
            v = left[v]
        v = stack.pop()
        out.append(v)
        v = right[v]
    return out


def right_chains(left: list[int], right: list[int]) -> list[list[int]]:
    """Right chains, each listed from its head (the root or a left child)."""
    heads = [0] + [c for c in left if c != -1]
    chains = []
    for v in heads:
        chain = [v]
        while right[chain[-1]] != -1:
            chain.append(right[chain[-1]])
        chains.append(chain)
    return chains


# -- labels -----------------------------------------------------------------

def chain_labels(rng: random.Random, left: list[int], right: list[int],
                 odd_starts_plus: bool = False) -> list[str]:
    """Alternating labels along every right chain, so the tree is di-sk.

    With ``odd_starts_plus`` every chain of odd length starts with ``+``,
    which is exactly gamma family one.
    """
    labels = [PLUS] * len(left)
    for chain in right_chains(left, right):
        label = rng.choice((PLUS, MINUS))
        if odd_starts_plus and len(chain) % 2 == 1:
            label = PLUS
        for v in chain:
            labels[v] = label
            label = OTHER[label]
    return labels


def family_two_labels(rng: random.Random, left: list[int], right: list[int],
                      attempts: int = 200) -> list[str] | None:
    """Di-sk labels whose first in-order node is ``+`` with no two in-order
    neighbours both ``-`` (gamma family two), or None if none was found."""
    order = inorder(left, right)
    parent_of_right = {c: v for v, c in enumerate(right) if c != -1}
    for _ in range(attempts):
        labels = [PLUS] * len(left)
        prev = MINUS  # forbids a leading '-'
        for v in order:
            options = [PLUS] if prev == MINUS else [PLUS, MINUS]
            if v in parent_of_right:
                forced = OTHER[labels[parent_of_right[v]]]
                options = [forced] if forced in options else []
            if not options:
                break
            labels[v] = prev = rng.choice(options)
        else:
            return labels
    return None


# -- readings of a labelled tree ----------------------------------------------

def _emit(left, right, labels, fmt: str) -> str:
    """Word text ``(L op R)`` with leaf ``1`` or tree text ``(op L R)``
    with ``_`` for an empty subtree."""
    empty = "1" if fmt == "word" else "_"
    out: list[str] = []
    stack: list = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item == -1:
            out.append(empty)
        elif fmt == "word":
            stack.extend((")", right[item], labels[item], left[item], "("))
        else:
            stack.extend((")", right[item], " ", left[item], " ", labels[item], "("))
    return "".join(out)


def word_text(left, right, labels) -> str:
    return _emit(left, right, labels, "word")


def tree_text(left, right, labels) -> str:
    return _emit(left, right, labels, "tree")


def tree_json(left, right, labels) -> str:
    """The ``{"label", "left", "right"}`` form, nested; for small trees."""
    nodes: list = [None] * len(left)
    for v in reversed(_preorder(left, right)):
        nodes[v] = {
            "label": labels[v],
            "left": nodes[left[v]] if left[v] != -1 else None,
            "right": nodes[right[v]] if right[v] != -1 else None,
        }
    return json.dumps(nodes[0])


def _preorder(left, right) -> list[int]:
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(c for c in (right[v], left[v]) if c != -1)
    return out


def evaluate(left, right, labels) -> list[int]:
    """The permutation of the word: ``+`` is a direct sum, ``-`` a skew sum."""
    m = len(left)
    leaves = [0] * m
    for v in reversed(_preorder(left, right)):
        leaves[v] = sum(leaves[c] if c != -1 else 1 for c in (left[v], right[v]))
    perm: list[int] = []
    stack = [(0, 1)]  # (node or -1 for a leaf, lowest value of its interval)
    while stack:
        v, lo = stack.pop()
        if v == -1:
            perm.append(lo)
            continue
        a, b = left[v], right[v]
        na = leaves[a] if a != -1 else 1
        nb = leaves[b] if b != -1 else 1
        if labels[v] == PLUS:
            stack.extend(((b, lo + na), (a, lo)))
        else:
            stack.extend(((b, lo), (a, lo + nb)))
    return perm


# -- workload inputs ------------------------------------------------------------

def separable(rng: random.Random, n: int, kind: str = "split") -> tuple[list[int], str]:
    """A separable permutation of n >= 2 and its Schröder word.

    The word obeys the right-chain restriction, so it is the unique valid
    word of the permutation and hence what a correct sweep must return.
    """
    left, right = shape(rng, n - 1, kind)
    labels = chain_labels(rng, left, right)
    return evaluate(left, right, labels), word_text(left, right, labels)


def non_separable(rng: random.Random, n: int, witness: str) -> tuple[list[int], tuple[int, ...]]:
    """A permutation of n >= 6 holding 2413 at the front or at the end.

    ``2413 (+) q`` or ``q (+) 2413`` with q separable: every occurrence of
    2413 or 3142 lies inside the planted block, so a pattern search that
    scans from the left must exhaust q first when the block is at the end.
    Returns the permutation and the planted positions (1-based).
    """
    q, _ = separable(rng, n - 4)
    if witness == "front":
        return list(PATTERN_2413) + [v + 4 for v in q], (1, 2, 3, 4)
    m = len(q)
    return q + [v + m for v in PATTERN_2413], (m + 1, m + 2, m + 3, m + 4)


def family_one_tree(rng: random.Random, m: int) -> tuple[list[int], list[int], list[str]]:
    left, right = shape(rng, m)
    return left, right, chain_labels(rng, left, right, odd_starts_plus=True)


def family_two_tree(rng: random.Random, m: int) -> tuple[list[int], list[int], list[str]]:
    while True:
        left, right = shape(rng, m)
        labels = family_two_labels(rng, left, right)
        if labels is not None:
            return left, right, labels
