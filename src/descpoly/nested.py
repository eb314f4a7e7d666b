"""Binary trees of ``(label, left, right)`` triples, walked without recursion.

A Schröder word's expression and a di-sk tree are one and the same value:
nested ``(label, left, right)`` tuples with ``None`` for an empty subtree.
The word's atom ``1`` and the tree's ``_`` are only how the two text forms
spell ``None``.  Unlabeled tree shapes are ``(left, right)`` pairs over
``None``.  Every walker over any of them goes through :func:`index`, one
explicit-stack pass that numbers the nodes by in-order and records the
links between them.  The other helpers here are plain loops over that
record, so no walker recurses and inputs of any depth take linear time.

:class:`CheckedTree` is the value both wrap: a ``(label, left, right)``
tree over ``+`` and ``-`` whose right chains alternate, with its in-order
numbering, label tuple, text form and equality.  ``SchroderWord`` and
``DiskTree`` only name their spelling and add their own methods.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, NamedTuple, Optional, Sequence

# A (label, left, right) node, or None for the empty subtree.
Node = Optional[tuple]

PLUS = "+"
MINUS = "-"
LABELS = (PLUS, MINUS)

# Marks a ')' on the parser's stack.
_CLOSE = object()


class Index(NamedTuple):
    """A tree numbered 1..m by in-order; 0 stands for an empty subtree.

    ``nodes[i]`` is the i-th node (``nodes[0]`` is None),
    ``left``, ``right`` and ``parent`` hold in-order ids, and ``post``
    lists the ids children first, so ``reversed(post)`` puts every parent
    before its children.
    """

    nodes: list
    left: list[int]
    right: list[int]
    parent: list[int]
    post: list[int]

    @property
    def root(self) -> Node:
        return self.nodes[self.post[-1]] if self.post else None


def index(root: Any, left_at: int = 1) -> Index:
    """Number the nodes of a tree by in-order, with an explicit stack.

    A node's children are its items ``left_at`` and ``left_at + 1``: 1 for
    ``(label, left, right)`` triples, 0 for the ``(left, right)`` pairs of
    unlabeled shapes.

    Each node is pushed once on the way down its left spine and popped
    once, when it gets its id.  A right child's parent is known when the
    child is pushed; a left child's parent is the node popped right after
    the child's subtree is complete, which is when the climb below ends.
    """
    nodes = [None]
    left = [0]
    right = [0]
    parent = [0]
    post: list[int] = []
    stack: list[tuple[Any, int]] = []
    push, pop = stack.append, stack.pop
    add_node, add_left, add_right = nodes.append, left.append, right.append
    add_parent, add_post = parent.append, post.append
    lo, hi = left_at, left_at + 1
    node, up, done, i = root, 0, 0, 0
    while True:
        while node is not None:
            push((node, up))
            node, up = node[lo], 0
        if not stack:
            break
        node, up = pop()
        i += 1
        add_node(node)
        if node[lo] is None:
            add_left(0)
        else:
            add_left(done)
            parent[done] = i
        add_right(0)
        add_parent(up)
        if up:
            right[up] = i
        node = node[hi]
        if node is None:
            # The subtree of i is complete, and with it every subtree that
            # i ends through right links; only right links are set yet.
            add_post(i)
            done = i
            while parent[done]:
                done = parent[done]
                add_post(done)
        else:
            up = i
    return Index(nodes, left, right, parent, post)


def sizes(ix: Index) -> list[int]:
    """Number of nodes in the subtree of each id (0 for the empty id)."""
    left, right = ix.left, ix.right
    size = [0] * len(left)
    for v in ix.post:
        size[v] = size[left[v]] + size[right[v]] + 1
    return size


def check(root: Node, error: type[Exception]) -> Index:
    """``index(root)`` of a tree that words and di-sk trees both accept.

    Every node is a ``(label, left, right)`` tuple with a label from
    ``LABELS``, and no right child repeats its parent's label: the
    right-chain restriction of words is the alternation of di-sk trees.
    Raises ``error`` otherwise.
    """
    malformed = "not a tree of (label, left, right) tuples over None"
    try:
        ix = index(root)
    except (IndexError, KeyError, TypeError):
        raise error(malformed) from None
    for node in islice(ix.nodes, 1, None):
        if node.__class__ is not tuple or len(node) != 3:
            raise error(malformed)
        label, _, right = node
        if label not in LABELS:
            raise error(f"bad label {label!r}")
        if right is not None and right[0] == label:
            raise error("right chain does not alternate")
    return ix


def rebuild(ix: Index, labels: Sequence) -> list:
    """Fresh triples of the same shape; entry i is the subtree of id i
    (entry 0 is None), and node i takes the label ``labels[i]``."""
    left, right = ix.left, ix.right
    out = [None] * len(left)
    for v in ix.post:
        out[v] = (labels[v], out[left[v]], out[right[v]])
    return out


def render(ix: Index, leaf: str, opens: dict, mids: dict, close: str = ")") -> str:
    """Text of the tree as ``open left mid right close`` per node.

    Every node writes three tokens and every empty subtree one, ``leaf``,
    so a subtree of k nodes spans 4k + 1 tokens.  Top down, each node's
    first token is placed from its parent's, into a list prefilled with
    ``leaf``.  ``opens`` and ``mids`` map a label to its tokens.
    """
    nodes, left, right = ix.nodes, ix.left, ix.right
    size = sizes(ix)
    out = [leaf] * (4 * size[ix.post[-1]] + 1 if ix.post else 1)
    start = [0] * len(nodes)
    for v in reversed(ix.post):
        s = start[v]
        label = nodes[v][0]
        l = left[v]
        mid = s + 4 * size[l] + 2
        out[s] = opens[label]
        out[mid] = mids[label]
        out[s + 4 * size[v]] = close
        start[l] = s + 1
        start[right[v]] = mid + 1
    return "".join(out)


def parse(tokens: Sequence[str], atom: str, op_at: int, error: type[Exception]) -> Node:
    """Build triples from ``( item item item )`` groups, without recursion.

    Inside a group the label is item ``op_at`` (0 or 1) and the other two
    items are the subtrees, tuples or None, which ``atom`` stands for.
    Only the grammar is checked here; alternation is left to ``check``.
    The tokens are read from the end with one stack of values: ``)``
    pushes a marker, ``(`` pops the group's three items and its marker and
    pushes the node.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    pos = len(tokens)
    for tok in reversed(tokens):
        pos -= 1
        if tok == atom:
            push(None)
        elif tok == ")":
            push(_CLOSE)
        elif tok == "(":
            if len(stack) < 4:
                raise error(f"unmatched '(' at offset {pos}")
            a, b, r = pop(), pop(), pop()
            if pop() is not _CLOSE:
                raise error(f"group at offset {pos} does not hold three items")
            op, l = (a, b) if op_at == 0 else (b, a)
            if (op not in LABELS
                    or not (l is None or l.__class__ is tuple)
                    or not (r is None or r.__class__ is tuple)):
                raise error(f"group at offset {pos} is not a label and two subtrees")
            push((op, l, r))
        elif tok in LABELS:
            push(tok)
        else:
            raise error(f"unexpected {tok!r} at offset {pos}")
    if len(stack) != 1 or stack[0] is _CLOSE or stack[0] in LABELS:
        raise error("input is not a single tree")
    return stack[0]


class CheckedTree:
    """A tree of ``(label, left, right)`` triples over ``+`` and ``-`` with
    alternating right chains: a Schröder word's expression and a di-sk
    tree's root alike.

    A subclass names its text spelling: ``_ATOM`` for an empty subtree,
    ``_OPENS`` and ``_MIDS`` per label (see ``render``), ``_OP_AT`` and
    ``_tokens`` for ``parse``, and ``_ERROR``, raised for a value or text
    that is not such a tree.

    The in-order numbering is kept by a value that was checked, and from
    the first walk that hands back data keyed by in-order ids (the labels,
    a tree's chains, the flat key that ``==`` and ``hash`` compare), which
    are kept too, or that shares the numbering with a view
    (``word_to_tree``, ``to_word``); those go through ``_kept_index``.
    Walks that hand back a whole new object, the text form or the
    permutation, number an unchecked value afresh each time, so the
    thousands of words an enumeration yields stay small when they are only
    evaluated.
    """

    __slots__ = ("_root", "_ix", "_labels")

    _ATOM: str
    _OPENS: dict
    _MIDS: dict
    _OP_AT: int
    _ERROR: type[Exception]

    def __init__(self, root: Node, _validate: bool = True):
        self._root = root
        self._ix = check(root, self._ERROR) if _validate else None
        self._labels = None

    @classmethod
    def _from_index(cls, ix: Index):
        """An unchecked value whose in-order numbering is already known."""
        value = cls(ix.root, _validate=False)
        value._ix = ix
        return value

    def _index(self) -> Index:
        """The value numbered by in-order: the kept numbering, or a fresh
        one that is not kept."""
        ix = self._ix
        return index(self._root) if ix is None else ix

    def _kept_index(self) -> Index:
        """The numbering, kept from now on."""
        if self._ix is None:
            self._ix = index(self._root)
        return self._ix

    @property
    def n(self) -> int:
        """Number of empty subtrees: a word's leaves, a tree's size + 1."""
        return len(self._index().nodes)

    def labels(self) -> tuple[str, ...]:
        """Labels in in-order; entry i-1 holds node i's.  Kept with the
        numbering."""
        if self._labels is None:
            nodes = islice(self._kept_index().nodes, 1, None)
            self._labels = tuple([node[0] for node in nodes])
        return self._labels

    def minus_positions(self) -> frozenset[int]:
        """1-based in-order positions of the ``-`` labels."""
        return frozenset(i for i, label in enumerate(self.labels(), 1) if label == MINUS)

    def _text(self) -> str:
        return render(self._index(), self._ATOM, self._OPENS, self._MIDS)

    @classmethod
    def parse(cls, text: str):
        """Read the text form.  Raises the class's error for text off the
        grammar, and for a right chain that does not alternate."""
        return cls(parse(cls._tokens(text), cls._ATOM, cls._OP_AT, cls._ERROR))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.parse({self._text()!r})"

    def __reduce__(self):
        # Through the flat text, which ``parse`` checks again: the nested
        # root would pickle one level per frame, and the memos are not kept.
        return type(self).parse, (self._text(),)

    def _key(self) -> tuple:
        # The in-order labels and the post-order of the in-order ids fix the
        # tree.  Both are flat, where the C-level == and hash of the nested
        # root recurse once per level and overflow the C stack on deep trees.
        return self.labels(), tuple(self._kept_index().post)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
