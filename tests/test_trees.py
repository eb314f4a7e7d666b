"""Di-sk trees: chain views, flips, shapes, conversions, serialization."""

import hashlib
import itertools
import json
from functools import lru_cache

import pytest

from descpoly.families import catalan, schroder_number, separable_poly
from descpoly.nested import check
from descpoly.permutations import identity, parse_permutation, separable_permutations
from descpoly.trees import (
    DiskTree,
    InvalidTreeError,
    TreeShape,
    enumerate_shapes,
    _gen_trees,
    enumerate_trees,
    perm_to_tree,
    tree_to_word,
    word_to_tree,
)
from descpoly.words import SchroderWord, enumerate_words, sweep

SCHRODER = [1, 2, 6, 22, 90, 394, 1806]

RUNNING_EXAMPLE = parse_permutation("984132756")


def test_alternation_validator():
    DiskTree.parse("(- (+ _ _) _)")
    DiskTree.parse("(+ _ (- _ (+ _ _)))")
    with pytest.raises(InvalidTreeError):
        DiskTree.parse("(+ _ (+ _ _))")
    with pytest.raises(InvalidTreeError):
        DiskTree.parse("(- (+ _ _) (- _ _))")


def test_validator_accepts_exactly_schroder_many():
    # brute force over all label assignments of all shapes
    for n in range(1, 8):
        accepted = 0
        for shape in enumerate_shapes(n):
            m = shape.size
            for labels in itertools.product("+-", repeat=m):
                it = iter(labels)

                def build(s):
                    if s is None:
                        return None
                    lab = next(it)
                    return (lab, build(s[0]), build(s[1]))

                candidate = build(shape.structure)
                try:
                    DiskTree(candidate)
                    accepted += 1
                except InvalidTreeError:
                    pass
        assert accepted == SCHRODER[n - 1]


def test_word_tree_correspondence():
    w = sweep(RUNNING_EXAMPLE)
    t = word_to_tree(w)
    assert t.labels() == ("-", "-", "-", "+", "-", "+", "-", "+")
    assert t.minus_positions() == RUNNING_EXAMPLE.descent_set()
    assert tree_to_word(t).expr == w.expr
    single = word_to_tree(SchroderWord.parse("(1+1)"))
    assert single.size == 1 and single.labels() == ("+",)


def test_word_tree_roundtrip_exhaustive():
    from descpoly.words import enumerate_words

    for n in range(1, 8):
        for w in enumerate_words(n):
            t = word_to_tree(w)
            assert tree_to_word(t).expr == w.expr
            assert word_to_tree(t.to_word()) == t


def test_words_and_trees_share_one_node_type():
    from descpoly.words import enumerate_words

    checked = [sweep(RUNNING_EXAMPLE), SchroderWord.parse("((1+1)-1)"), SchroderWord.parse("1")]
    for w in [*checked, *enumerate_words(5)]:
        t = word_to_tree(w)
        assert t.root is w.expr
        back = t.to_word()
        assert back.expr is t.root and tree_to_word(t).expr is t.root
        assert back._index() is t._index()
    for w in checked:
        assert word_to_tree(w)._index() is w._index()
    for t in [*enumerate_trees(5), DiskTree.parse("(- (+ _ _) _)"), perm_to_tree(RUNNING_EXAMPLE)]:
        w = t.to_word()
        assert w.expr is t.root and w._index() is t._index()
        assert word_to_tree(w).root is t.root


def test_enumerated_values_keep_no_numbering_until_a_view_asks():
    from descpoly.words import enumerate_words, word_to_perm

    for w, t in zip(enumerate_words(5), enumerate_trees(5)):
        # walks that hand back a new object number an enumerated value
        # afresh and keep nothing
        str(w), repr(w), word_to_perm(w), t.to_text(), t.to_perm()
        assert w._ix is None and t._ix is None
        # a view keeps the numbering it shares, on both sides
        assert word_to_tree(w)._index() is w._ix is not None
        assert t.to_word()._index() is t._ix is not None
    for value in (sweep(RUNNING_EXAMPLE), SchroderWord.parse("((1+1)-1)"),
                  DiskTree.parse("(- (+ _ _) _)"), perm_to_tree(RUNNING_EXAMPLE)):
        assert value._ix is not None and value._index() is value._ix


def test_perm_to_tree_statistic():
    t = perm_to_tree(RUNNING_EXAMPLE)
    assert t.n_minus() == RUNNING_EXAMPLE.des() == 5
    for n in range(1, 8):
        for p in separable_permutations(n):
            assert perm_to_tree(p).n_minus() == p.des()


def test_identity_gives_all_plus_left_comb():
    t = perm_to_tree(identity(6))
    assert t.n_minus() == 0
    view = t.right_chains()
    assert view.lengths() == (1,) * 5
    assert all(c.level == 0 for c in view.chains)
    assert [c.attachment for c in view.chains] == ["lock"] * 4 + ["root-group"]


def test_right_comb_single_chain():
    t = DiskTree.parse("(+ _ (- _ (+ _ (- _ _))))")
    view = t.right_chains()
    assert view.r == 1 and view.lengths() == (4,)


def test_running_example_chain_view():
    view = perm_to_tree(RUNNING_EXAMPLE).right_chains()
    assert view.lengths() == (1, 4, 3)
    assert view.r_odd == 2 and view.r_even == 1
    assert [c.level for c in view.chains] == [0, 0, 1]
    assert [c.attachment for c in view.chains] == ["lock", "root-group", "hang"]
    assert [c.group for c in view.chains] == [1, 1, 2]
    # the hanging group records its hang node (the chain-2 non-terminal 6)
    assert view.groups[1].hang_node == 6


def test_same_level_terminals_share_a_left_chain():
    # within every group, each terminal is the left child of the next
    for n in range(2, 8):
        for t in enumerate_trees(n):
            view = t.right_chains()
            parent = t._index().parent
            for g in view.groups:
                run = [view.chains[ci - 1] for ci in g.chains]
                for lower, upper in zip(run, run[1:]):
                    assert parent[lower.terminal] == upper.terminal
                    assert lower.level == upper.level == g.level


def _chain_view_by_definition(root):
    """Chains and groups read off the definitions of the ``trees`` module,
    by a recursive walk (the trees here are shallow).

    A terminal is the root or a left child.  A chain locks when its
    terminal is the left child of another chain's terminal, and keeps that
    chain's level; it hangs when its terminal is the left child of a
    non-terminal, one level below that node's chain.  A group is a chain
    that does not lock together with the chains locked below it, whose
    terminals are the left spine under its own; it hangs from the parent
    of that top terminal.
    """
    label, left, right, parent = {}, {}, {}, {}

    def visit(node):
        if node is None:
            return 0
        l = visit(node[1])
        i = len(label) + 1
        label[i] = node[0]
        r = visit(node[2])
        left[i], right[i] = l, r
        for child in (l, r):
            if child:
                parent[child] = i
        return i

    visit(root)
    terminals = [v for v in label if v not in parent or left[parent[v]] == v]
    chains, chain_of = [], {}
    for t in terminals:
        nodes = [t]
        while right[nodes[-1]]:
            nodes.append(right[nodes[-1]])
        chains.append(tuple(nodes))
        for v in nodes:
            chain_of[v] = len(chains)

    def attachment(t):
        if t not in parent:
            return "root-group"
        return "lock" if parent[t] in terminals else "hang"

    def level(t):
        a = attachment(t)
        if a == "root-group":
            return 0
        above = chains[chain_of[parent[t]] - 1][0]
        return level(above) + (a == "hang")

    def top(t):
        return top(parent[t]) if attachment(t) == "lock" else t

    runs = {}
    for nodes in chains:
        t = top(nodes[0])
        if t not in runs:
            spine = [t]
            while left[spine[-1]]:
                spine.append(left[spine[-1]])
            runs[t] = tuple(chain_of[v] for v in reversed(spine))
    ordered = sorted(runs.values())
    group_of = {ci: g for g, run in enumerate(ordered, 1) for ci in run}
    chain_rows = [(ci, nodes, label[nodes[0]], level(nodes[0]), attachment(nodes[0]),
                   group_of[ci]) for ci, nodes in enumerate(chains, 1)]
    group_rows = [(g, run, level(chains[run[-1] - 1][0]),
                   parent.get(chains[run[-1] - 1][0]))
                  for g, run in enumerate(ordered, 1)]
    return chain_rows, group_rows


def test_chain_view_matches_its_definitions():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            view = t.right_chains()
            chains = [(c.index, c.nodes, c.starts_with, c.level, c.attachment, c.group)
                      for c in view.chains]
            groups = [(g.index, g.chains, g.level, g.hang_node) for g in view.groups]
            assert (chains, groups) == _chain_view_by_definition(t.root), t


@pytest.mark.parametrize("kind", ["word", "tree"])
def test_equality_is_equality_of_text_forms(kind):
    # every value of n <= 6 against a fresh parse of every value
    if kind == "word":
        values = [w for n in range(1, 7) for w in enumerate_words(n)]
        texts = [str(w) for w in values]
        parsed = [SchroderWord.parse(text) for text in texts]
    else:
        values = [t for n in range(1, 7) for t in enumerate_trees(n)]
        texts = [t.to_text() for t in values]
        parsed = [DiskTree.parse(text) for text in texts]
    for a, text_a in zip(values, texts):
        for b, text_b in zip(parsed, texts):
            assert (a == b) is (text_a == text_b)
            assert (a != b) is (text_a != text_b)
            if text_a == text_b:
                assert hash(a) == hash(b)


def test_flip_chain_involution_and_commutation():
    t = perm_to_tree(RUNNING_EXAMPLE)
    r = t.right_chains().r
    for i in range(1, r + 1):
        assert t.flip_chain(i).flip_chain(i) == t
    for i, j in itertools.combinations(range(1, r + 1), 2):
        assert t.flip_chain(i).flip_chain(j) == t.flip_chain(j).flip_chain(i)
    with pytest.raises(ValueError):
        t.flip_chain(r + 1)
    # Only an int is a chain index: a bool or float that equals one is not.
    for i in (True, 1.0, 2.0, False):
        with pytest.raises(ValueError, match=rf"^chain index {i} out of range 1\.\.{r}$"):
            t.flip_chain(i)


def test_flip_commutation_exhaustive_small():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            r = t.right_chains().r
            for i, j in itertools.combinations(range(1, r + 1), 2):
                assert t.flip_chain(i).flip_chain(j) == t.flip_chain(j).flip_chain(i)


def test_orbit_size_is_two_to_the_r():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            r = t.right_chains().r
            orbit = {t}
            frontier = [t]
            while frontier:
                u = frontier.pop()
                for i in range(1, r + 1):
                    v = u.flip_chain(i)
                    if v not in orbit:
                        orbit.add(v)
                        frontier.append(v)
            assert len(orbit) == 2**r
            assert len({u.shape().key() for u in orbit}) == 1


def test_orbits_are_shape_classes():
    for n in range(1, 8):
        trees = list(enumerate_trees(n))
        by_shape = {}
        for t in trees:
            by_shape.setdefault(t.shape().key(), []).append(t)
        assert len(by_shape) == catalan(n - 1)
        for members in by_shape.values():
            r = members[0].right_chains().r
            assert len(members) == 2**r


def test_shape_chain_types_n4():
    types = sorted(s.chain_lengths() for s in enumerate_shapes(4))
    assert types == [(1, 1, 1), (1, 2), (2, 1), (2, 1), (3,)]


def test_shape_labelings_cover_all_trees():
    for n in range(1, 7):
        from_shapes = set()
        for s in enumerate_shapes(n):
            for t in s.labelings():
                from_shapes.add(t)
        assert from_shapes == set(enumerate_trees(n))


def test_flips_and_labelings_are_pinned():
    # The text of every chain flip of every tree to n = 8 and of every
    # labeling of every shape to n = 9: a changed label or id on any small
    # derived tree changes a digest.  The view is built afresh per call,
    # and equal each time.
    flips = []
    for n in range(1, 9):
        for t in enumerate_trees(n):
            view = t.right_chains()
            assert t.right_chains() == view
            flips.extend(t.flip_chain(i).to_text() for i in range(1, view.r + 1))
    labelings = [t.to_text() for n in range(1, 10)
                 for s in enumerate_shapes(n) for t in s.labelings()]
    assert (len(flips), len(labelings)) == (48638, 52465)
    assert hashlib.sha256("\n".join(flips).encode()).hexdigest() == (
        "afc6b122b0f2fdfaaad68462a9de30e955c14e16aa34cfa5271b4b34ec80bb0b")
    assert hashlib.sha256("\n".join(labelings).encode()).hexdigest() == (
        "0540fc2996fd214e6d37bb9511aa799c4dfabcd34b9ea699ad4a114f8fb223bd")


def test_counts():
    for n, count in enumerate(SCHRODER, start=1):
        assert sum(1 for _ in enumerate_trees(n)) == count
    for n in range(1, 11):
        assert sum(1 for _ in enumerate_shapes(n)) == catalan(n - 1)


def test_orbit_weight_sum_matches_tree_count():
    for n in range(1, 11):
        total = sum(2**s.r for s in enumerate_shapes(n))
        if n <= 7:
            assert total == SCHRODER[n - 1]
    assert sum(2**s.r for s in enumerate_shapes(10)) == 206098


def test_text_serialization_roundtrip():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert DiskTree.parse(t.to_text()) == t
            assert DiskTree.from_json(t.to_json()) == t
            assert t.to_json() == json.dumps(t.to_json_obj())


@pytest.mark.parametrize("text, message", [
    ('{"label": "+", "left": null}', "'right'"),
    ('{"left": null, "right": null}', "'label'"),
    ('{"label": "+", "left": 3, "right": null}', "not 3"),
    ('{"label": "*", "left": null, "right": null}', "bad label"),
    ('{"label": "+", "left": null, "right": {"label": "+", "left": null, "right": null}}',
     "does not alternate"),
    ('[1, 2]', "a tree is a node object or null"),
    ('{', "^malformed JSON: "),
    ('', "^malformed JSON: "),
    ('{"label": "+", "left": null, "right": null', "^malformed JSON: "),
    # A node has exactly the keys label, left and right, whatever an
    # extra key holds: a node object, a list, any other object or value.
    ('{"label": "+", "left": null, "right": null, '
     '"x": {"label": "*", "left": null, "right": null}}', "^tree node with the unknown key 'x'$"),
    ('{"label": "+", "left": null, "right": null, '
     '"x": {"label": "-", "left": null, "right": null}}', "^tree node with the unknown key 'x'$"),
    ('{"label": "+", "left": null, "right": null, "x": [1, 2]}',
     "^tree node with the unknown key 'x'$"),
    ('{"label": "+", "left": null, "right": null, "x": {"a": 1}}',
     "^tree node with the unknown key 'a'$"),
    ('{"label": "+", "left": null, "right": null, "x": 3}', "^tree node with the unknown key 'x'$"),
    ('{"label": "-", "left": {"label": "+", "left": null, "right": null, "x": null}, '
     '"right": null}', "^tree node with the unknown key 'x'$"),
])
def test_from_json_rejects_malformed_trees(text, message):
    with pytest.raises(InvalidTreeError, match=message):
        DiskTree.from_json(text)


@pytest.mark.parametrize("text", ["", "(+ _", "(+ _ _) _", "+ _ _", "(_ + _)", "(+ _ _ _)",
                                  "(* _ _)", "(+ (+ _ _) _ )x"])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(InvalidTreeError):
        DiskTree.parse(text)


def test_enumerators_refuse_an_order_below_1_at_the_call():
    for make in (enumerate_words, enumerate_shapes, enumerate_trees):
        for n in (0, -1):
            with pytest.raises(ValueError, match="^need n >= 1$"):
                make(n)  # not iterated: the check runs at the call
    assert list(enumerate_words(1)) == [SchroderWord.parse("1")]
    assert list(enumerate_shapes(1)) == [TreeShape(None)]


def test_empty_tree():
    t = DiskTree(None)
    assert t.size == 0 and t.n == 1
    assert t.to_text() == "_"
    assert DiskTree.parse("_") == t
    assert t.right_chains().r == 0


def test_minus_count_buckets_keep_order_and_share_roots():
    for n in range(1, 8):
        trees = list(enumerate_trees(n))
        seen = 0
        for k in range(n):
            bucket = list(enumerate_trees(n, n_minus=k))
            expected = [t for t in trees if t.n_minus() == k]
            assert [t.root for t in bucket] == [t.root for t in expected]
            # the memoized roots themselves, not copies
            assert all(a.root is b.root for a, b in zip(bucket, expected))
            seen += len(bucket)
        assert seen == len(trees)
        # A count above the top is a true empty bucket; a negative count
        # is no count at all, and is refused at the call.
        assert list(enumerate_trees(n, n_minus=n)) == []
        with pytest.raises(ValueError, match="^need n_minus >= 0$"):
            enumerate_trees(n, n_minus=-1)


def test_chain_nodes_are_the_chains_of_the_view():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert t.chain_nodes() == tuple(c.nodes for c in t.right_chains().chains)
            for c in t.right_chains().chains:
                assert all(t.chain_index_of(v) == c.index for v in c.nodes)
            # Only the int id of a node has a chain: a bool or float does not.
            for v in (True, 1.0, float(t.size), 0, t.size + 1):
                with pytest.raises(KeyError):
                    t.chain_index_of(v)


# The generator as it stood before each order carried its minus counts:
# one memo entry per forbidden root label, and the buckets from a walk over
# every tree.  Kept as the reference for order and bucket contents.
@lru_cache(maxsize=None)
def _reference_gen_trees(m, forbidden_root):
    if m == 0:
        return (None,)
    out = []
    for lab in [l for l in "+-" if l != forbidden_root]:
        for i in range(m):
            for left in _reference_gen_trees(i, None):
                for right in _reference_gen_trees(m - 1 - i, lab):
                    out.append((lab, left, right))
    return tuple(out)


def _reference_buckets(m):
    buckets = [[] for _ in range(m + 1)]
    for root in _reference_gen_trees(m, None):
        count, stack = 0, [root]
        while stack:
            node = stack.pop()
            if node is not None:
                count += node[0] == "-"
                stack += (node[1], node[2])
        buckets[count].append(root)
    return buckets


def test_enumeration_matches_the_reference_generator():
    for n in range(1, 9):
        assert [t.root for t in enumerate_trees(n)] == list(_reference_gen_trees(n - 1, None))
        for k, expected in enumerate(_reference_buckets(n - 1)):
            assert [t.root for t in enumerate_trees(n, n_minus=k)] == expected, (n, k)
    for m in range(1, 8):
        roots, _ = _gen_trees(m)
        half = len(roots) // 2
        assert 2 * half == len(roots)
        assert all(r[0] == "+" for r in roots[:half]) and all(r[0] == "-" for r in roots[half:])


def test_generation_orders_are_pinned():
    # The census benchmark prints enumerate_trees(7) and enumerate_words(8)
    # in generation order, so the orders themselves, and every bucket's,
    # are pinned by the SHA-256 of their text forms.
    trees, buckets, words = [], [], []
    for n in range(1, 10):
        trees += [f"n={n}", *(t.to_text() for t in enumerate_trees(n))]
        words += [f"n={n}", *(str(w) for w in enumerate_words(n))]
        for k in range(n):
            buckets += [f"n={n} k={k}", *(t.to_text() for t in enumerate_trees(n, n_minus=k))]
    digests = [hashlib.sha256("\n".join(lines).encode()).hexdigest()
               for lines in (trees, buckets, words)]
    assert digests == [
        "069fd9efade5b1c756f168f7e04e3af75d3ba292f1a63840d5fb6a19e77b1a99",
        "42e6651f14bbf3c1dd11a35cd1bc534e63eb45e932c0dd07b50bf9bab4bc6c0a",
        "b93c3d0a97faa2f25aaf39cdcc92bc0a432efe356b8b1651721ef902cbe648cd",
    ]


def test_words_and_trees_enumerate_one_set_of_checked_roots():
    # The two generators build one set of triples, in two orders, and
    # every triple passes the one check that words and trees share.
    for n in range(1, 9):
        roots = [t.root for t in enumerate_trees(n)]
        assert set(roots) == {w.expr for w in enumerate_words(n)}
        assert len(set(roots)) == len(roots) == schroder_number(n)
        for root in roots:
            check(root, InvalidTreeError)


def test_bucket_sizes_are_the_descent_polynomial():
    # Node i is '-' exactly when i is a descent, so the bucket sizes are
    # the coefficients of S_n(t), here from the Lagrange sum.
    for n in range(1, 11):
        sizes = [sum(1 for _ in enumerate_trees(n, n_minus=k)) for k in range(n)]
        assert sizes == list(separable_poly(n).coeffs), n
        assert list(enumerate_trees(n, n_minus=n)) == []
        with pytest.raises(ValueError, match="^need n_minus >= 0$"):
            enumerate_trees(n, n_minus=-1)
