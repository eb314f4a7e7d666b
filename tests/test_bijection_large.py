"""The gamma bijection past the exhaustive range: random and deep trees.

Trees are built here, iteratively and without the library, as child
arrays over in-order ids 1..m (0 for an empty subtree) and a label per id,
then turned into ``(label, left, right)`` triples bottom-up.  Results are
compared by text, never with ``==`` on nested roots, which recurses in C
once per level.

``apply_ops`` is held to a test-local image rebuilt the same way, on every
tree of either family with n <= 8 and on the deep left spine.  The
searches, which read each group through ``trees._group_walk``, are held to
a test-local copy that reads the groups of ``test_deep.keyword_view``, the
right-chain view built by the reversed post-order rule that decides lock
against hang node by node, as the library once did: ``right_chains`` now
runs the searches' walk, so it is no independent reference.  Every search
result and plan is checked, on every tree with n <= 9, on the random trees
and on the deep left spine.
"""

import random

from hypothesis import given, settings, strategies as st

from descpoly.bijection import (
    AdjointResult,
    RepairResult,
    SurgeryOp,
    apply_ops,
    classify,
    family_one_violations,
    family_two_violations,
    find_adjoint,
    find_repair_chain,
    order_independence_certificate,
    phi,
    phi_plan,
    psi,
    psi_plan,
)
from descpoly.nested import index
from descpoly.trees import DiskTree, enumerate_trees
from test_deep import keyword_view

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


# ---------------------------------------------------------------------------
# the searches as they read the right-chain view


def _run_end(view, run, pos, step, label):
    """The last position of ``run`` reached from ``pos`` by steps of
    ``step`` onto chains that start with ``label``."""
    while 0 <= pos + step < len(run) and view.chains[run[pos + step] - 1].starts_with == label:
        pos += step
    return pos


def _hang_label(tree, group):
    return None if group.hang_node is None else tree.labels()[group.hang_node - 1]


def view_adjoint(tree, view, chain_index):
    """The adjoint of an odd '-'-starting chain of a family-two tree, read
    from the view's chain records, group runs and levels."""
    c = view.chains[chain_index - 1]
    group = view.groups[c.group - 1]
    run = group.chains
    pos = run.index(c.index)
    if _hang_label(tree, group) in (None, PLUS):
        adjoint = view.chains[run[_run_end(view, run, pos, -1, MINUS) - 1] - 1]
        if c.level == 0:
            case = "I" if adjoint.length == 1 else "II"
        else:
            case = "III" if adjoint.length == 1 else "IV"
        return AdjointResult(adjoint.index, case, None)
    end = _run_end(view, run, pos, 1, PLUS)
    pivot = view.chains[run[end + 1] - 1].terminal if end + 1 < len(run) else group.hang_node
    return AdjointResult(run[end], "V" if c.length == 1 else "VI", pivot)


def _view_lock_run_repair(view, run, pos, case, attach_node):
    l_chain = view.chains[run[_run_end(view, run, pos, 1, MINUS)] - 1]
    attach_kind = "lock-left" if case % 2 else "attach-right"
    return RepairResult(l_chain.index, case, l_chain.tail, attach_kind, attach_node)


def view_repair(tree, view, violation):
    """The repair chain of a family-two violation of a family-one tree,
    read from the view."""
    kind, nodes = violation
    ix = tree._index()
    if kind == "first-node-minus" or ix.right[nodes[0]]:
        case, s = (1, 1) if kind == "first-node-minus" else (3, nodes[1])
        group = view.groups[view.chains[tree.chain_index_of(s) - 1].group - 1]
        return _view_lock_run_repair(view, group.chains, 0, case, s)
    x, y = nodes
    k_idx = tree.chain_index_of(x)
    group = view.groups[view.chains[k_idx - 1].group - 1]
    z_idx = tree.chain_index_of(y)
    if y == view.chains[z_idx - 1].terminal:
        hang = _hang_label(tree, group)
        if hang in (None, PLUS):
            return _view_lock_run_repair(view, group.chains, group.chains.index(z_idx),
                                         2 if hang is None else 4, x)
    run = group.chains
    end = _run_end(view, run, run.index(k_idx), -1, PLUS)
    if end == 0:
        return RepairResult(k_idx, 5, x, "lock-left", view.chains[run[0] - 1].terminal)
    return RepairResult(k_idx, 6, x, "attach-right", view.chains[run[end - 1] - 1].tail)


def assert_searches_agree_with_the_view(tree):
    """Each search result and each plan of the tree's families is the
    view's; returns the number of sites searched."""
    m = classify(tree)
    view = keyword_view(tree)
    sites = 0
    if m.in_dt2:
        ops = []
        for v in family_one_violations(tree):
            ci = tree.chain_index_of(v.nodes[0])
            found = view_adjoint(tree, view, ci)
            assert find_adjoint(tree, ci) == found, (tree, v)
            adj_tail = tree.chain_nodes()[found.chain - 1][-1]
            ops.append(SurgeryOp(adj_tail, "attach-right", v.nodes[-1], found.case)
                       if found.case in ("I", "II", "III", "IV") else
                       SurgeryOp(v.nodes[-1], "attach-right", adj_tail, found.case))
        assert psi_plan(tree) == ops, tree
        sites += len(ops)
    if m.in_dt1:
        ops = []
        for v in family_two_violations(tree):
            found = view_repair(tree, view, v)
            assert find_repair_chain(tree, v) == found, (tree, v)
            ops.append(SurgeryOp(found.cut_node, found.attach_kind, found.attach_node,
                                 str(found.case)))
        assert phi_plan(tree) == ops, tree
        sites += len(ops)
    return sites


def test_searches_agree_with_the_view_to_n9():
    sites = sum(assert_searches_agree_with_the_view(t)
                for n in range(1, 10) for t in enumerate_trees(n))
    assert sites > 1948  # the pinned results to n = 8, and n = 9's


def _check_round_trip(tree, forward, backward, seed):
    text = tree.to_text()
    before = classify(tree)
    image = forward(tree)
    assert_searches_agree_with_the_view(tree)
    assert_searches_agree_with_the_view(image)
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


def deep_left_spine():
    """A left spine of 1000 chains of two nodes, locked into one group 1000
    levels deep; random chain starts leave many '-' pairs to repair."""
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
    return DiskTree(_triples(m - 1, left, right, labels))


def test_maps_on_a_deep_left_spine():
    tree = deep_left_spine()
    assert classify(tree).in_dt1 and not classify(tree).in_dt2
    image = phi(tree)
    assert classify(image).in_dt2
    assert psi(image).to_text() == tree.to_text()


def test_searches_agree_with_the_view_on_a_deep_left_spine():
    tree = deep_left_spine()
    assert assert_searches_agree_with_the_view(tree) > 100
    assert assert_searches_agree_with_the_view(phi(tree)) > 100


@settings(max_examples=4, deadline=None)
@given(st.integers(1000, 2000), st.randoms(use_true_random=False))
def test_order_independence_on_large_family_one_trees(m, rng):
    tree = family_one_tree(m, rng)
    assert classify(tree).in_dt1
    assert order_independence_certificate(tree, trials=2, seed=m)


@settings(max_examples=4, deadline=None)
@given(st.integers(1000, 2000), st.randoms(use_true_random=False))
def test_order_independence_on_large_family_two_trees(m, rng):
    tree = family_two_tree(m, rng)
    assert classify(tree).in_dt2
    assert order_independence_certificate(tree, trials=2, seed=m)


def rebuilt_image(tree, ops):
    """``apply_ops`` as the moves' image was built before it was numbered
    from its links: the moves on copied child arrays, then ``_triples``'
    breadth-first rebuild and a checked ``DiskTree``.  Takes valid moves."""
    ix = tree._index()
    if not ix.post:
        return tree
    left, right, parent = list(ix.left), list(ix.right), list(ix.parent)
    for op in ops:
        u, v = op.cut_node, op.attach_node
        p = parent[u]
        if left[p] == u:
            left[p] = 0
        else:
            right[p] = 0
        if op.attach_kind == "attach-right":
            right[v] = u
        else:
            left[v] = u
        parent[u] = v
    return DiskTree(_triples(ix.post[-1], left, right, [None, *tree.labels()]))


def assert_same_image(tree, ops):
    """``apply_ops`` gives the rebuilt image's index, post order, key and
    text, and its kept index is ``nested.index`` of its own root, node for
    node (compared flat: the nested roots may be deep)."""
    image, want = apply_ops(tree, ops), rebuilt_image(tree, ops)
    ix, fresh, want_ix = image._index(), index(image.root), want._index()
    assert ix[1:] == fresh[1:] == want_ix[1:]
    assert len(ix.nodes) == len(fresh.nodes)
    assert all(a is b for a, b in zip(ix.nodes, fresh.nodes))
    assert image._key() == want._key()
    assert image.to_text() == want.to_text()


def test_apply_ops_is_the_rebuilt_image_to_n8():
    # Every tree of either family: its plan as one batch and each move alone.
    moves = 0
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            m = classify(tree)
            plans = [plan(tree) for plan, member in ((psi_plan, m.in_dt2), (phi_plan, m.in_dt1))
                     if member]
            for ops in plans:
                assert_same_image(tree, ops)
                for op in ops:
                    assert_same_image(tree, [op])
                moves += len(ops)
    assert moves > 0


def test_apply_ops_is_the_rebuilt_image_on_a_deep_left_spine():
    tree = deep_left_spine()
    ops = phi_plan(tree)
    assert len(ops) > 100
    assert_same_image(tree, ops)
    image = apply_ops(tree, ops)
    assert_same_image(image, psi_plan(image))
