"""Di-sk trees: plus/minus labeled binary trees with alternating right chains.

A di-sk tree on m nodes is a binary tree whose every node carries ``+`` or
``-`` such that along every *right chain* the labels alternate.  A right
chain is a maximal run of right-child edges; its first node (called the
chain's *terminal*) is the root or a left child, and its remaining nodes
are reached by repeatedly taking right children.  Nodes are identified by
their 1-based in-order index throughout, and chains are ordered by their
terminals' in-order indices.

Di-sk trees with n-1 nodes are in bijection with Schröder words of n
leaves (drop the leaves of the expression tree) and hence with separable
permutations of n: the i-th in-order node is ``-`` exactly when i is a
descent of the permutation.  Dropping the leaves changes no value: a
word's expression and a tree's root are the same ``(label, left, right)``
tuples over ``None`` (see ``nested``), so the conversions between words
and trees share the value and its in-order numbering.

Chains hinge together by left edges in two ways.  If the terminal of a
later chain is the left child of an *earlier chain's terminal* the two
chains are **locked** and sit at the same level; if it is the left child of
a non-terminal node the later chain **hangs** one level deeper.  The chains
of one level that are locked to each other form a *group*: their terminals
lie on a single left chain, and each non-root group hangs from a specific
node of a chain one level up.

Text serialization is the nested form ``(label left right)`` with ``_``
for an empty subtree, e.g. ``(- (+ _ _) _)``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from .nested import MINUS, PLUS, CheckedTree, Index, Node, index, rebuild, render
from .permutations import Permutation
from .value import Value, need
from .words import SchroderWord, index_values, sweep

# Unlabeled structures are frozen pairs (left, right); None is empty.
ShapeNode = Optional[tuple]


class InvalidTreeError(ValueError):
    """Raised when a right chain fails to alternate, or for a malformed
    text or JSON form."""


TOO_DEEP_FOR_JSON = "tree nested deeper than the json module can handle"


# Tokens of the text form per label: "(label " before the left subtree,
# a space between the subtrees.
_OPENS = {PLUS: "(+ ", MINUS: "(- "}
_MIDS = {PLUS: " ", MINUS: " "}
_FLIP = {PLUS: MINUS, MINUS: PLUS}
# The same for the JSON form, as json.dumps writes it; token for token,
# it is the text form with other spellings.
_JSON_OPENS = {l: f'{{"label": "{l}", "left": ' for l in (PLUS, MINUS)}
_JSON_MIDS = {l: ', "right": ' for l in (PLUS, MINUS)}
_JSON_KEYS = frozenset(("label", "left", "right"))
_JSON_AS_TEXT = [(_JSON_OPENS[l], _OPENS[l]) for l in (PLUS, MINUS)] + [
    (_JSON_MIDS[PLUS], _MIDS[PLUS]), ("null", "_"), ("}", ")")]


def _chain_walk(ix: Index) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The right chains of an indexed tree, and the chain of each id.

    Chains are tuples of in-order ids, terminal first, ordered by their
    terminals.  A chain's nodes follow its terminal in in-order, so a scan
    over the ids meets each chain first at its terminal, and follows the
    right links from there.
    """
    right = ix.right
    chain_of = [0] * len(right)
    chains = []
    for t in range(1, len(right)):
        if chain_of[t]:
            continue
        c = len(chains) + 1
        chain_of[t] = c
        nodes = [t]
        v = right[t]
        while v:
            chain_of[v] = c
            nodes.append(v)
            v = right[v]
        chains.append(tuple(nodes))
    return tuple(chains), chain_of


class ChainRecord(NamedTuple):
    """One right chain: 1-based ids, ordered terminal first.  The field
    ``index`` hides the tuple method of that name, here and on groups."""

    index: int                 # position in chain order, 1-based
    nodes: tuple[int, ...]     # in-order node ids along the chain
    starts_with: str           # label of the terminal
    level: int
    attachment: str            # "root-group" | "lock" | "hang"
    group: int                 # group id, 1-based in chain order

    @property
    def terminal(self) -> int:
        return self.nodes[0]

    @property
    def tail(self) -> int:
        return self.nodes[-1]

    @property
    def length(self) -> int:
        return len(self.nodes)

    @property
    def is_odd(self) -> bool:
        return len(self.nodes) % 2 == 1


class GroupRecord(NamedTuple):
    """A maximal lock-connected run of chains (terminals on one left chain)."""

    index: int
    chains: tuple[int, ...]    # chain indices, bottom-up along the run
    level: int
    hang_node: Optional[int]   # node the group hangs from; None for the root group


class RightChainView(NamedTuple):
    chains: tuple[ChainRecord, ...]
    groups: tuple[GroupRecord, ...]

    @property
    def r(self) -> int:
        return len(self.chains)

    @property
    def r_odd(self) -> int:
        return sum(1 for c in self.chains if c.is_odd)

    @property
    def r_even(self) -> int:
        return sum(1 for c in self.chains if not c.is_odd)

    def lengths(self) -> tuple[int, ...]:
        return tuple(c.length for c in self.chains)


class DiskTree(CheckedTree):
    """Immutable di-sk tree with lazily computed structure views.

    The empty tree (root None) is allowed: it corresponds to the one-leaf
    word and the singleton permutation.
    """

    # The chain walk and the right-chain view, each set on first use.
    __slots__ = ("_walk_memo", "_view_memo")

    _ATOM = "_"
    _OPENS = _OPENS
    _MIDS = _MIDS
    _OP_AT = 0
    _ERROR = InvalidTreeError

    @staticmethod
    def _tokens(text: str) -> list[str]:
        return text.replace("(", " ( ").replace(")", " ) ").split()

    @property
    def root(self) -> Node:
        return self._root

    # -- basic views ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of nodes (= n - 1 for the length-n permutation)."""
        return self.n - 1

    def n_minus(self) -> int:
        return self.labels().count(MINUS)

    def _walk(self) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
        try:
            return self._walk_memo
        except AttributeError:
            self._walk_memo = _chain_walk(self._kept_index())
            return self._walk_memo

    def chain_nodes(self) -> tuple[tuple[int, ...], ...]:
        """In-order ids of each right chain, terminal first, in chain order.

        One walk, cached on the tree.  It is all that family membership
        reads, what the bijection's searches read beside the links, and
        the first step of ``right_chains``.
        """
        return self._walk()[0]

    def right_chains(self) -> RightChainView:
        """Decompose into right chains with order, level, lock/hang, groups.

        The chains come from ``chain_nodes``; levels, groups and the
        lock/hang attachments are built here, on the first call, and
        cached.  It is the public view (the CLI's ``tree`` command); the
        bijection's searches read the few groups they need from the links.
        """
        try:
            return self._view_memo
        except AttributeError:
            pass
        ix = self._kept_index()
        left, parent = ix.left, ix.parent
        raw_chains, chain_of = self._walk()

        # Per chain: its level, its group key (the hang node, 0 for the root
        # group) and its attachment.  Lock keeps the level and key of the
        # parent chain; hang descends one level and keys a new group.
        # Parents come first in reversed post-order, so the chain a terminal
        # attaches to, whose terminal is an ancestor, is settled before it.
        r = len(raw_chains)
        level, key, attachment = [0] * (r + 1), [0] * (r + 1), ["root-group"] * (r + 1)
        for t in reversed(ix.post):
            p = parent[t]
            if p == 0 or left[p] != t:
                continue
            ci, pc = chain_of[t], chain_of[p]
            if p == raw_chains[pc - 1][0]:
                level[ci], key[ci], attachment[ci] = level[pc], key[pc], "lock"
            else:
                level[ci], key[ci], attachment[ci] = level[pc] + 1, p, "hang"

        # The runs of each group key, bottom-up, numbered in first-chain order.
        runs: dict[int, list[int]] = {}
        for ci in range(1, r + 1):
            runs.setdefault(key[ci], []).append(ci)
        group_id = {k: g for g, k in enumerate(runs, 1)}
        # Records made positionally from columns: a keyword call per record
        # made the whole view about twice as slow.
        chains = tuple(map(ChainRecord._make, zip(
            range(1, r + 1), raw_chains, [ix.nodes[nodes[0]][0] for nodes in raw_chains],
            level[1:], attachment[1:], [group_id[k] for k in key[1:]])))
        groups = tuple(map(GroupRecord._make, zip(
            range(1, len(runs) + 1), map(tuple, runs.values()),
            [level[run[0]] for run in runs.values()], [k or None for k in runs])))
        self._view_memo = RightChainView(chains, groups)
        return self._view_memo

    def chain_index_of(self, node_id: int) -> int:
        """Chain (1-based index in chain order) containing the given node."""
        chain_of = self._walk()[1]
        if not 1 <= node_id < len(chain_of):
            raise KeyError(node_id)
        return chain_of[node_id]

    # -- conversions ------------------------------------------------------

    def to_word(self) -> SchroderWord:
        """The word whose expression is this tree's root, sharing its
        in-order numbering."""
        return SchroderWord._from_index(self._kept_index())

    def to_perm(self) -> Permutation:
        return Permutation(index_values(self._index()))

    def shape(self) -> "TreeShape":
        ix = self._index()
        left, right = ix.left, ix.right
        out: list[ShapeNode] = [None] * len(left)
        for v in ix.post:
            out[v] = (out[left[v]], out[right[v]])
        return TreeShape(out[ix.post[-1]] if ix.post else None)

    def flip_chain(self, i: int) -> "DiskTree":
        """Reverse every label on the i-th right chain (1-based chain order).

        An involution; flips on different chains commute, so the orbit of a
        tree under all of them has size 2^r.
        """
        chains = self.chain_nodes()
        if not 1 <= i <= len(chains):
            raise ValueError(f"chain index {i} out of range 1..{len(chains)}")
        labels = [None, *self.labels()]
        for v in chains[i - 1]:
            labels[v] = _FLIP[labels[v]]
        ix = self._index()
        return DiskTree._from_index(ix._replace(nodes=rebuild(ix, labels)))

    # -- serialization ----------------------------------------------------

    to_text = CheckedTree._text

    def to_json_obj(self):
        """Nested ``{"label", "left", "right"}`` objects, None when empty."""
        ix = self._index()
        nodes, left, right = ix.nodes, ix.left, ix.right
        out = [None] * len(nodes)
        for v in ix.post:
            out[v] = {"label": nodes[v][0], "left": out[left[v]], "right": out[right[v]]}
        return out[ix.post[-1]] if ix.post else None

    def to_json(self) -> str:
        """JSON text of ``to_json_obj``, as ``json.dumps`` writes it, at any
        depth."""
        return render(self._index(), "null", _JSON_OPENS, _JSON_MIDS, "}")

    @classmethod
    def from_json(cls, text: str) -> "DiskTree":
        """Read the JSON form; each object's keys and subtree types are
        checked as it is decoded, labels and alternation as the tree is
        built.  Text that is no JSON at all raises InvalidTreeError too.

        Past the depth where the ``json`` module gives up (it recurses once
        per level, about a thousand), the text ``to_json`` writes is still
        read, as the text form it spells token for token; any other JSON
        that deep raises InvalidTreeError.
        """
        try:
            root = json.loads(text, object_hook=_json_node)
        except json.JSONDecodeError as exc:
            raise InvalidTreeError(f"malformed JSON: {exc}") from None
        except RecursionError:
            spelled = written = text.strip()
            for old, new in _JSON_AS_TEXT:
                spelled = spelled.replace(old, new)
            try:
                tree = cls.parse(spelled)
            except InvalidTreeError:
                tree = None
            if tree is None or tree.to_json() != written:
                raise InvalidTreeError(
                    f"{TOO_DEEP_FOR_JSON}, and not as to_json writes it") from None
            return tree
        if root is not None and type(root) is not tuple:
            raise InvalidTreeError(f"a tree is a node object or null, not {root!r}")
        return cls(root)


def _json_node(obj: dict) -> tuple:
    """One object as a node, children first: exactly the keys of ``_JSON_KEYS``."""
    if not _JSON_KEYS.issuperset(obj):
        key = next(key for key in obj if key not in _JSON_KEYS)
        raise InvalidTreeError(f"tree node with the unknown key {key!r}")
    try:
        label, left, right = obj["label"], obj["left"], obj["right"]
    except KeyError as exc:
        raise InvalidTreeError(f"tree node without the key {exc.args[0]!r}") from None
    for child in (left, right):
        if child is not None and type(child) is not tuple:
            raise InvalidTreeError(f"a subtree is a node object or null, not {child!r}")
    return (label, left, right)


class TreeShape(Value):
    """Unlabeled binary-tree structure; canonical key is the preorder bits.

    ``==``, ``hash`` and ``repr`` go through the flat ``key``: on the nested
    structure itself they would recurse once per level.
    """

    __slots__ = ("structure",)
    structure: ShapeNode

    def __init__(self, structure: ShapeNode):
        # Its own, as the base's costs about twice as much: one is built
        # for every shape enumerated.
        object.__setattr__(self, "structure", structure)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"<TreeShape {self.key()}>"

    def __reduce__(self):
        # Through the flat key, as the nested structure would pickle and
        # copy one level per frame.
        return _shape_of_key, (self.key(),)

    def _index(self) -> Index:
        return index(self.structure, 0)

    @property
    def size(self) -> int:
        return len(self._index().nodes) - 1

    def key(self) -> str:
        """Preorder bitstring: '1' for a node, '0' for an empty subtree."""
        out: list[str] = []
        stack = [self.structure]
        while stack:
            node = stack.pop()
            if node is None:
                out.append("0")
            else:
                out.append("1")
                stack += (node[1], node[0])
        return "".join(out)

    def chain_lengths(self) -> tuple[int, ...]:
        """Right-chain lengths in chain order (a composition of size), from
        the same chain walk as ``DiskTree.right_chains``."""
        return tuple(map(len, _chain_walk(self._index())[0]))

    @property
    def r(self) -> int:
        return len(self.chain_lengths())

    def labelings(self) -> Iterator[DiskTree]:
        """All 2^r di-sk trees with this shape (choose each chain's start).

        Bit i of the mask sets chain i's start, ``+`` for 0; labels then
        alternate down each chain.
        """
        ix = self._index()
        chains = _chain_walk(ix)[0]
        for mask in range(1 << len(chains)):
            labels: list = [None] * len(ix.left)
            for i, nodes in enumerate(chains):
                label = MINUS if (mask >> i) & 1 else PLUS
                for v in nodes:
                    labels[v] = label
                    label = _FLIP[label]
            yield DiskTree._from_index(ix._replace(nodes=rebuild(ix, labels)))


def _shape_of_key(key: str) -> TreeShape:
    """The shape with the preorder bits ``key``, built without recursion:
    read backwards, a ``1`` joins the two subtrees last built."""
    stack: list = []
    for bit in reversed(key):
        stack.append(None if bit == "0" else (stack.pop(), stack.pop()))
    return TreeShape(stack[0])


def word_to_tree(w: SchroderWord) -> DiskTree:
    """Drop the leaves of the expression tree, keeping operator nodes.

    The tree's root is the word's expression and the two share one
    in-order numbering: the i-th operator of the word (textual order) is
    the i-th in-order node of the tree, so the right-chain restriction on
    words is exactly the alternation condition on trees.
    """
    return DiskTree._from_index(w._kept_index())


def tree_to_word(t: DiskTree) -> SchroderWord:
    return t.to_word()


def perm_to_tree(p: Permutation) -> DiskTree:
    """Tree of a separable permutation; node i is '-' iff i is a descent.

    >>> perm_to_tree(Permutation((9, 8, 4, 1, 3, 2, 7, 5, 6))).n_minus()
    5
    """
    return word_to_tree(sweep(p))


@lru_cache(maxsize=None)
def _gen_shapes(m: int) -> tuple[ShapeNode, ...]:
    if m == 0:
        return (None,)
    out: list[ShapeNode] = []
    for i in range(m):
        for left in _gen_shapes(i):
            for right in _gen_shapes(m - 1 - i):
                out.append((left, right))
    return tuple(out)


def enumerate_shapes(n: int) -> Iterator[TreeShape]:
    """All unlabeled binary trees with n-1 nodes (Catalan many)."""
    need("n", n, 1)
    return (TreeShape(s) for s in _gen_shapes(n - 1))


@lru_cache(maxsize=None)
def _gen_trees(m: int) -> tuple[tuple[Node, ...], tuple[int, ...]]:
    """The di-sk tree roots on m nodes, and each root's number of ``-``
    labels.  Each label in turn roots every left subtree with every right
    subtree that does not repeat it, the rule ``nested.check`` holds
    trees to."""
    if m == 0:
        return (None,), (0,)
    roots: list[Node] = []
    counts: list[int] = []
    for lab, own in ((PLUS, 0), (MINUS, 1)):
        for i in range(m):
            lefts, left_counts = _gen_trees(i)
            rights, right_counts = _gen_trees(m - 1 - i)
            for left, left_count in zip(lefts, left_counts):
                base = own + left_count
                for right, right_count in zip(rights, right_counts):
                    if right is None or right[0] != lab:
                        roots.append((lab, left, right))
                        counts.append(base + right_count)
    return tuple(roots), tuple(counts)


def enumerate_trees(n: int, n_minus: Optional[int] = None) -> Iterator[DiskTree]:
    """All di-sk trees with n-1 nodes, large-Schröder many; with
    ``n_minus``, only those with that many ``-`` labels, in the same order.

    Alternation is enforced locally: a right child never repeats its
    parent's label.  Each order is generated once per process, in one
    memo entry that carries every root's minus count, summed as the tree
    is built; a bucket is that memo read through a filter on the counts,
    so it yields the memoized roots themselves.
    """
    need("n", n, 1)
    if n_minus is not None:
        need("n_minus", n_minus, 0)
    roots, counts = _gen_trees(n - 1)
    if n_minus is not None:
        roots = (t for t, c in zip(roots, counts) if c == n_minus)
    return (DiskTree(t, _validate=False) for t in roots)
