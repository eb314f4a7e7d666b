"""Deep and large inputs: every step from sweep to the tree views and back.

The permutations are built here, iteratively and without the library, from
a split tree: each node splits its entries into a left and a right block
and joins them by a direct (``+``) or skew (``-``) sum.  Round trips are
compared by text or by flat tuples, never with ``==`` on nested roots,
which recurses in C once per level.
"""

import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from descpoly.permutations import Permutation, is_separable, parse_permutation
from descpoly.trees import DiskTree, InvalidTreeError, perm_to_tree, word_to_tree
from descpoly.words import NotSeparableError, SchroderWord, sweep, word_to_perm

BIG = 10**5


def split_tree_permutation(n, left_size, op_at):
    """One-line notation of the permutation of a split tree on n entries.

    ``left_size(size, depth)`` gives the entries of a node's left block and
    ``op_at(depth)`` its operator.
    """
    word = [0] * n
    todo = [(0, 1, n, 0)]   # first position, least value, entries, depth
    while todo:
        pos, low, size, depth = todo.pop()
        if size == 1:
            word[pos] = low
            continue
        k = left_size(size, depth)
        plus = op_at(depth) == "+"
        left_low = low if plus else low + size - k
        right_low = low + k if plus else low
        todo.append((pos, left_low, k, depth + 1))
        todo.append((pos + k, right_low, size - k, depth + 1))
    return word


def alternating(depth):
    return "+" if depth % 2 == 0 else "-"


def right_comb(n):
    """A single right chain; its text is (1+(1-(1+ ... 1)))."""
    m = n - 1
    text = "".join(f"(1{alternating(d)}" for d in range(m)) + "1" + ")" * m
    return split_tree_permutation(n, lambda size, depth: 1, alternating), text


def left_comb(n):
    """The identity: a single left chain, ((1+1)+1)..."""
    return list(range(1, n + 1)), "(" * (n - 1) + "1" + "+1)" * (n - 1)


def zigzag(n):
    """Right child at even depths, left child at odd ones, depth n - 2."""
    prefix, suffix = [], []
    for d in range(n - 1):
        op = alternating(d)
        prefix.append(f"(1{op}" if d % 2 == 0 else "(")
        suffix.append(")" if d % 2 == 0 else f"{op}1)")
    text = "".join(prefix) + "1" + "".join(reversed(suffix))

    def left_size(size, depth):
        return 1 if depth % 2 == 0 else size - 1

    return split_tree_permutation(n, left_size, alternating), text


def random_split(n, rng):
    """Uniform left block sizes and operators: logarithmic expected depth."""
    def op_at(depth):
        return rng.choice("+-")

    return split_tree_permutation(n, lambda size, depth: rng.randrange(1, size), op_at)


def through_every_view(values, word_text=None):
    """parse, sweep, text, parse_expr, word_to_tree, right_chains, tree
    text, DiskTree.parse, to_perm, word_to_perm and is_separable."""
    p = parse_permutation(" ".join(map(str, values)))
    word = sweep(p)
    text = str(word)
    if word_text is not None:
        assert text == word_text
    again = SchroderWord.parse(text)
    assert str(again) == text and again.n == len(values)
    assert again.minus_positions() == p.descent_set()
    tree = word_to_tree(again)
    view = tree.right_chains()
    assert sum(view.lengths()) == tree.size == len(values) - 1
    tree_text = tree.to_text()
    parsed = DiskTree.parse(tree_text)
    assert parsed.to_text() == tree_text
    assert parsed.labels() == tree.labels() == again.operators()
    assert parsed.to_perm().word == p.word
    assert word_to_perm(again).word == p.word
    assert str(parsed.to_word()) == text
    assert is_separable(p)
    return view


def test_repr_of_a_deep_word():
    # the identity of length 1500 sweeps to a left comb deeper than the
    # recursion limit
    word = sweep(Permutation(tuple(range(1, 1501))))
    text = str(word)
    assert repr(word) == f"SchroderWord.parse({text!r})"
    assert str(SchroderWord.parse(text)) == text
    assert repr(word_to_tree(word)) == f"DiskTree.parse({word_to_tree(word).to_text()!r})"


@pytest.mark.parametrize("build", [sweep, perm_to_tree], ids=["word", "tree"])
def test_equality_of_deep_words_and_trees(build):
    # a left comb of 1499 nodes: == on its nested root recurses past the
    # recursion limit, the values' own == does not
    identity = Permutation(tuple(range(1, 1501)))
    a, b = build(identity), build(identity)
    assert a == b and not a != b and hash(a) == hash(b)
    # the same comb with its deepest label flipped
    other = build(Permutation((2, 1, *range(3, 1501))))
    assert a != other and not a == other



def test_hash_of_3e5_level_trees_in_a_fresh_interpreter():
    # Hashing the nested root in C overflowed the C stack at this depth and
    # killed the interpreter, so the check runs in a process of its own.
    code = (
        "from descpoly.permutations import Permutation\n"
        "from descpoly.trees import perm_to_tree\n"
        "identity = Permutation(tuple(range(1, 300001)))\n"
        "a, b = perm_to_tree(identity), perm_to_tree(identity)\n"
        "assert a is not b and a.root is not b.root\n"
        "assert hash(a) == hash(b)\n"
        "print({a: 'found'}[b])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "found\n", "")

def test_right_comb_of_1e5():
    values, text = right_comb(BIG)
    view = through_every_view(values, text)
    assert view.r == 1


def test_identity_of_1e5_is_a_left_comb():
    values, text = left_comb(BIG)
    view = through_every_view(values, text)
    assert view.r == BIG - 1 and view.groups[0].chains[-1] == BIG - 1


def test_zigzag_of_1e5():
    values, text = zigzag(BIG)
    view = through_every_view(values, text)
    # every left child starts a chain of two nodes, bar the innermost one
    assert view.r == BIG // 2


def test_random_split_of_1e5():
    through_every_view(random_split(BIG, random.Random(1)))


def test_deep_non_separable_input():
    # 2413 in front of the comb and behind it.  The stack pass leaves the
    # comb as one block and each entry of 2413 as its own, and the witness
    # is searched for among those blocks' leftmost entries.
    values, _ = right_comb(BIG)
    front = Permutation([2, 4, 1, 3] + [v + 4 for v in values])
    last = Permutation(values + [BIG + v for v in (2, 4, 1, 3)])
    for p, positions in ((front, (1, 2, 3, 4)), (last, tuple(range(BIG + 1, BIG + 5)))):
        assert not is_separable(p)
        with pytest.raises(NotSeparableError) as exc:
            sweep(p)
        assert exc.value.pattern.word == (2, 4, 1, 3)
        assert exc.value.positions == positions


def test_cli_sweep_of_a_comb_with_the_pattern_last():
    n = 15000
    values, _ = right_comb(n)
    text = " ".join(map(str, values + [n + v for v in (2, 4, 1, 3)]))
    result = subprocess.run(
        [sys.executable, "-m", "descpoly", "--format", "json", "sweep", text],
        capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == 1, result.stderr
    report = json.loads(result.stdout)
    assert report["pattern"] == "2413"
    assert report["positions"] == [n + 1, n + 2, n + 3, n + 4]


def test_a_pattern_as_long_as_the_input():
    # one chosen position per pattern entry, kept on a list, not the stack
    word = Permutation(range(1, 1501))
    assert word.contains_pattern(word)


@settings(max_examples=40, deadline=None)
@given(st.integers(50, 2000), st.randoms(use_true_random=False))
def test_round_trips_on_random_separable_permutations(n, rng):
    p = Permutation(random_split(n, rng))
    word = sweep(p)
    assert word_to_perm(word) == p
    assert word.minus_positions() == p.descent_set()
    text = str(word)
    assert str(SchroderWord.parse(text)) == text
    tree = word_to_tree(word)
    tree_text = tree.to_text()
    parsed = DiskTree.parse(tree_text)
    assert parsed.to_text() == tree_text
    assert parsed.to_perm() == p
    assert DiskTree.from_json(tree.to_json()).to_text() == tree_text
    assert is_separable(p)


def _left_comb_tree(m):
    """(+ (+ ... (+ _ _) _) _): m '+' nodes, each a chain of its own."""
    return DiskTree.parse("(+ " * m + "_" + " _)" * m)


def _right_comb_tree(m):
    """(+ _ (- _ (+ _ ...))): one alternating chain of m nodes."""
    labels = ["+-"[d % 2] for d in range(m)]
    return DiskTree.parse("".join(f"({l} _ " for l in labels) + "_" + ")" * m)


def test_shape_walks_on_combs_of_1e4():
    m = 10**4
    left = _left_comb_tree(m).shape()
    assert left.chain_lengths() == (1,) * m
    assert left.size == m and left.key() == "1" * m + "0" * (m + 1)
    right = _right_comb_tree(m).shape()
    assert right.chain_lengths() == (m,)
    assert right.key() == "10" * m + "0"
    labelings = list(right.labelings())
    assert [t.to_text() for t in labelings] == [
        _right_comb_tree(m).to_text(), _right_comb_tree(m).flip_chain(1).to_text()]


def test_shapes_of_1500_levels_compare_hash_and_print():
    # the dataclass ==, hash and repr recursed once per level of the
    # nested structure
    identity = Permutation(tuple(range(1, 1501)))
    a, b = perm_to_tree(identity).shape(), perm_to_tree(identity).shape()
    assert a.structure is not b.structure
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == f"<TreeShape {a.key()}>"
    other = perm_to_tree(Permutation((2, 1, *range(3, 1501)))).shape()
    assert a == other  # the labels differ, the shape does not
    assert a != _right_comb_tree(1499).shape()


def test_hash_of_a_3e5_level_shape_in_a_fresh_interpreter():
    # Hashing the nested structure in C overflowed the C stack at this
    # depth and killed the interpreter, so the check runs in a process of
    # its own.
    code = (
        "from descpoly.permutations import Permutation\n"
        "from descpoly.trees import perm_to_tree\n"
        "identity = Permutation(tuple(range(1, 300001)))\n"
        "a, b = perm_to_tree(identity).shape(), perm_to_tree(identity).shape()\n"
        "assert hash(a) == hash(b) and a == b\n"
        "print({a: 'found'}[b])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "found\n", "")


def test_flip_chain_on_combs_of_1e4():
    m = 10**4
    right = _right_comb_tree(m)
    flipped = right.flip_chain(1)
    assert flipped.labels() == tuple("-+"[d % 2] for d in range(m))
    assert flipped.flip_chain(1).to_text() == right.to_text()
    left = _left_comb_tree(m)
    # chain i of the left comb is its i-th node in in-order
    once = left.flip_chain(m)
    assert once.labels() == ("+",) * (m - 1) + ("-",)
    assert once.to_text() == "(- " + "(+ " * (m - 1) + "_" + " _)" * m


def _deep_json(m, inner="null", spacing=" "):
    """m nested left children around ``inner``; with one space, the text
    to_json writes."""
    s = spacing
    return f'{{"label":{s}"+",{s}"left":{s}' * m + inner + f',{s}"right":{s}null}}' * m


def test_json_form_at_depth():
    for tree in (_left_comb_tree(10**4), _right_comb_tree(10**4)):
        text = tree.to_json()
        assert DiskTree.from_json(text).to_text() == tree.to_text()
    comb = DiskTree.from_json(_deep_json(3000) + "\n")
    assert comb.to_text() == _left_comb_tree(3000).to_text()


@pytest.mark.parametrize("text", [
    # other JSON for the same tree than to_json writes
    _deep_json(3000, spacing=""),
    _deep_json(3000, '{"label": "-", "left": null, "right": null, "note": 1}'),
    # not trees
    _deep_json(3000, '{"label": "+", "left": null}'),
    _deep_json(3000, '{"label": "*", "left": null, "right": null}'),
    _deep_json(3000, "[1]"),
    _deep_json(3000, "_"),
    _deep_json(3000, "(+ _ _)"),
    _deep_json(3000)[:-1],
    _deep_json(3000) + "}",
])
def test_json_form_past_the_json_module_is_only_what_to_json_writes(text):
    with pytest.raises(InvalidTreeError, match="deeper than the json module"):
        DiskTree.from_json(text)
