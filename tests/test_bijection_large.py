"""The gamma bijection past the exhaustive range: random and deep trees.

Trees are built here, iteratively and without the library, as child
arrays over in-order ids 1..m (0 for an empty subtree) and a label per id,
then turned into ``(label, left, right)`` triples bottom-up.  Results are
compared by text, never with ``==`` on nested roots, which recurses in C
once per level.
"""

import random

from hypothesis import given, settings, strategies as st

from descpoly.bijection import classify, order_independence_certificate, phi, psi
from descpoly.trees import DiskTree

PLUS, MINUS = "+", "-"


def _triples(root, left, right, labels):
    """Nested triples of the arrays, children before parents."""
    order = [root]
    for v in order:
        order += [c for c in (left[v], right[v]) if c]
    out = [None] * len(left)
    for v in reversed(order):
        out[v] = (labels[v], out[left[v]], out[right[v]])
    return out[root]


def _split(m, pick):
    """A binary tree on in-order ids 1..m: each interval of ids gets the
    root ``pick(lo, hi, parent, is_right)`` and splits around it."""
    left, right = [0] * (m + 1), [0] * (m + 1)
    root = 0
    todo = [(1, m, 0, False)]
    while todo:
        lo, hi, parent, is_right = todo.pop()
        if lo > hi:
            continue
        r = pick(lo, hi, parent, is_right)
        if not parent:
            root = r
        elif is_right:
            right[parent] = r
        else:
            left[parent] = r
        todo.append((lo, r - 1, r, False))
        todo.append((r + 1, hi, r, True))
    return root, left, right


def family_one_tree(m, rng):
    """Uniform roots, then each odd right chain starts '+' and each even
    chain starts at random; labels alternate down a chain."""
    root, left, right = _split(m, lambda lo, hi, parent, is_right: rng.randint(lo, hi))
    is_right_child = [False] * (m + 1)
    for v in range(1, m + 1):
        is_right_child[right[v]] = True
    labels = [None] * (m + 1)
    for t in range(1, m + 1):
        if is_right_child[t]:
            continue
        chain = [t]
        while right[chain[-1]]:
            chain.append(right[chain[-1]])
        label = PLUS if len(chain) % 2 else rng.choice((PLUS, MINUS))
        for v in chain:
            labels[v] = label
            label = MINUS if label == PLUS else PLUS
    return DiskTree(_triples(root, left, right, labels))


def family_two_tree(m, rng):
    """In-order labels first ('+' first, no two '-' in a row), then a
    random tree over them: a right child's label differs from its
    parent's, and a root keeps a right subtree only where a label other
    than its own follows it in the interval, so every right chain
    alternates."""
    labels = [None, PLUS]
    for _ in range(m - 1):
        labels.append(PLUS if labels[-1] == MINUS else rng.choice((PLUS, MINUS)))
    # next_other[i]: the first id after i whose label differs from i's.
    next_other = [m + 1] * (m + 2)
    for i in range(m - 1, 0, -1):
        next_other[i] = i + 1 if labels[i + 1] != labels[i] else next_other[i + 1]

    def pick(lo, hi, parent, is_right):
        return rng.choice([
            r for r in range(lo, hi + 1)
            if not (is_right and labels[r] == labels[parent])
            and (r == hi or next_other[r] <= hi)
        ])

    root, left, right = _split(m, pick)
    return DiskTree(_triples(root, left, right, labels))


def _check_round_trip(tree, forward, backward, seed):
    text = tree.to_text()
    before = classify(tree)
    image = forward(tree)
    after = classify(image)
    assert backward(image).to_text() == text
    assert image.n_minus() == tree.n_minus()
    # Exactly the fixed points lie in both families.
    assert (after.in_dt1, after.in_dt2) == (before.in_dt2, before.in_dt1)
    assert order_independence_certificate(tree, trials=3, seed=seed)


@settings(max_examples=12, deadline=None)
@given(st.integers(50, 500), st.randoms(use_true_random=False))
def test_phi_then_psi_on_random_family_one_trees(m, rng):
    tree = family_one_tree(m, rng)
    assert classify(tree).in_dt1
    _check_round_trip(tree, phi, psi, m)


@settings(max_examples=12, deadline=None)
@given(st.integers(50, 500), st.randoms(use_true_random=False))
def test_psi_then_phi_on_random_family_two_trees(m, rng):
    tree = family_two_tree(m, rng)
    assert classify(tree).in_dt2
    _check_round_trip(tree, psi, phi, m)


def test_maps_on_a_deep_left_spine():
    # A left spine of 1000 chains of two nodes, locked into one group 1000
    # levels deep; random chain starts leave many '-' pairs to repair.
    rng = random.Random(3)
    m = 2000
    left, right = [0] * (m + 1), [0] * (m + 1)
    labels = [None] * (m + 1)
    for j in range(m // 2):
        v, r = 2 * j + 1, 2 * j + 2      # in-order: spine node, its right child
        right[v] = r
        if j:
            left[v] = v - 2
        labels[v] = rng.choice((PLUS, MINUS))
        labels[r] = MINUS if labels[v] == PLUS else PLUS
    tree = DiskTree(_triples(m - 1, left, right, labels))
    assert classify(tree).in_dt1 and not classify(tree).in_dt2
    image = phi(tree)
    assert classify(image).in_dt2
    assert psi(image).to_text() == tree.to_text()
