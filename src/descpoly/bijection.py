"""The cut-and-paste bijection between two families of di-sk trees.

Fix the node count m = n - 1 and a target minus-count k.  Two subsets of
di-sk trees have the same cardinality, namely the k-th gamma coefficient of
the descent polynomial of separable permutations:

* **family one** - every odd right chain starts with ``+`` (equivalently
  r_odd = m - 2k once the tree has k minus labels);
* **family two** - the first in-order node is ``+`` and no two in-order
  consecutive nodes are both ``-`` (the image of the permutations with no
  double descent).

The forward map ``psi`` repairs each odd ``-``-starting chain C by locating
a unique odd ``+``-starting partner chain (its *adjoint* C*) at the same
level and moving one end node (with its left subtree) between them; both
chains become even, dropping r_odd by two.  The backward map ``phi``
locates, for each family-two violation, a unique even chain L and moves its
last node back.  The two searches split into six mirrored cases each,
tagged I..VI and 1..6; matching tags are inverse to each other.  All the
elementary moves on one tree touch pairwise disjoint chains, so they can be
applied in any order.

``bijection_certificate`` checks a whole bucket by mapping each family-two
tree there and back and counting both families, never storing a tree.

Every post-condition and case-analysis claim is checked with an explicit
``InvariantError``, so the checks stay on under ``python -O``.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, NamedTuple, Optional

from .errors import InvariantError
from .nested import MINUS, PLUS, index_links
from .trees import DiskTree, _group_walk, enumerate_trees
from .value import need


class FamilyError(ValueError):
    """Input tree is outside the family a map or search expects."""


def _ensure(ok: bool, claim: str, *context) -> None:
    """Raise InvariantError unless ``ok``; ``context`` is formatted only
    then, so a passing check costs no repr of a tree."""
    if not ok:
        raise InvariantError(claim + "".join(f"; {c!r}" for c in context))


class Violation(NamedTuple):
    kind: str                 # "odd-chain-starts-minus" | "first-node-minus"
    nodes: tuple[int, ...]    #   | "consecutive-minus-pair"


class GammaFamilyMembership(NamedTuple):
    n: int
    n_minus: int
    in_dt1: bool
    in_dt2: bool
    violations: tuple[Violation, ...]
    r_odd: int

    @property
    def odd_chain_excess(self) -> int:
        """r_odd minus its family-one value (n - 1 - 2k at k = n_minus);
        even and positive on family two minus family one."""
        return self.r_odd - (self.n - 1 - 2 * self.n_minus)


def family_two_violations(tree: DiskTree) -> tuple[Violation, ...]:
    labels = tree.labels()
    out = []
    if labels and labels[0] == MINUS:
        out.append(Violation("first-node-minus", (1,)))
    for i in range(len(labels) - 1):
        if labels[i] == MINUS and labels[i + 1] == MINUS:
            out.append(Violation("consecutive-minus-pair", (i + 1, i + 2)))
    return tuple(out)


def family_one_violations(tree: DiskTree) -> tuple[Violation, ...]:
    labels = tree.labels()
    return tuple(
        Violation("odd-chain-starts-minus", nodes)
        for nodes in tree.chain_nodes()
        if len(nodes) % 2 == 1 and labels[nodes[0] - 1] == MINUS
    )


def classify(tree: DiskTree) -> GammaFamilyMembership:
    """Membership of the tree in the two gamma families at its own minus
    count k = ``tree.n_minus()``.

    Family one is read off the chain walk ``tree.chain_nodes()`` (chain
    starts and lengths) and family two off the labels alone; neither needs
    a chain's group, which the searches and ``right_chains`` read through
    ``trees._group_walk``.

    >>> m = classify(DiskTree.parse("(- (+ _ _) _)"))
    >>> m.n_minus, m.in_dt1, m.in_dt2, m.odd_chain_excess
    (1, False, True, 2)
    """
    v1 = family_one_violations(tree)
    v2 = family_two_violations(tree)
    membership = GammaFamilyMembership(
        n=tree.n,
        n_minus=tree.n_minus(),
        in_dt1=not v1,
        in_dt2=not v2,
        violations=v1 + v2,
        r_odd=sum(len(nodes) % 2 for nodes in tree.chain_nodes()),
    )
    if membership.in_dt2 and not membership.in_dt1:
        excess = membership.odd_chain_excess
        _ensure(excess > 0 and excess % 2 == 0,
                "family two minus family one has a positive even odd-chain excess",
                tree, excess)
    return membership


# ---------------------------------------------------------------------------
# searches


class AdjointResult(NamedTuple):
    chain: int                # chain index of the adjoint C*
    case: str                 # "I".."VI"
    pivot: Optional[int]      # N_* node id (cases V/VI), else None


class RepairResult(NamedTuple):
    chain: int                # chain index of L
    case: int                 # 1..6
    cut_node: int             # tail of L
    attach_kind: str          # "lock-left" (cases 1,3,5) | "attach-right" (2,4,6)
    attach_node: int          # new parent of the cut node


def _group(tree: DiskTree, memo: dict, ci: int) -> tuple[list, int, Optional[int]]:
    """Chain ``ci``'s group from ``trees._group_walk``: its run, the
    position of ``ci`` in it, and the hang node.  ``memo`` lives for one
    plan, so each group is walked once however many sites it holds."""
    try:
        return memo[ci]
    except KeyError:
        pass
    chains, chain_of = tree._walk()
    run, hang = _group_walk(tree._kept_index(), chains, chain_of, ci)
    for pos, nodes in enumerate(run):
        memo[chain_of[nodes[0]]] = (run, pos, hang)
    return memo[ci]


def _run_end(labels: tuple[str, ...], run: list, pos: int, step: int, label: str) -> int:
    """The last position of ``run`` reached from ``pos`` by steps of
    ``step`` (+1 up, -1 down) onto chains that start with ``label``."""
    while 0 <= pos + step < len(run) and labels[run[pos + step][0] - 1] == label:
        pos += step
    return pos


def find_adjoint(tree: DiskTree, chain_index: int) -> AdjointResult:
    """Adjoint of the odd ``-``-starting chain C, with its case tag.

    Cases I/II (C at level 0) and III/IV (C hangs below a ``+`` node) scan
    *down* the lock run below C, through even ``-``-starting chains, to the
    first odd chain, which necessarily starts ``+``.  Cases V/VI (C hangs
    below a ``-`` node) scan *up* for the nearest ``-``-starting chain; its
    terminal is the pivot N_* (defaulting to the hang node itself), and the
    adjoint is the chain whose terminal is the pivot's left child.

    Raises FamilyError for an index that is not an ``int`` in 1..r (a
    bool or float included), for a chain C that is not odd and
    ``-``-starting, and for a tree outside family two, naming its
    violations.
    """
    chains = tree.chain_nodes()
    if type(chain_index) is not int or not 1 <= chain_index <= len(chains):
        raise FamilyError(f"chain index {chain_index} out of range 1..{len(chains)}")
    nodes = chains[chain_index - 1]
    if not (len(nodes) % 2 == 1 and tree.labels()[nodes[0] - 1] == MINUS):
        raise FamilyError(f"chain {chain_index} is not an odd '-'-starting chain")
    outside = family_two_violations(tree)
    if outside:
        raise FamilyError(f"find_adjoint expects a tree in family two: {outside}")
    return _adjoint(tree, {}, chain_index)


def _adjoint(tree: DiskTree, memo: dict, ci: int) -> AdjointResult:
    """``find_adjoint`` on an odd ``-``-starting chain ``ci`` of the tree."""
    labels, chain_of = tree.labels(), tree._walk()[1]
    run, pos, hang = _group(tree, memo, ci)
    hang_label = None if hang is None else labels[hang - 1]

    if hang_label in (None, PLUS):
        end = _run_end(labels, run, pos, -1, MINUS)
        _ensure(end > 0 and len(run[end - 1]) % 2 == 1
                and not any(len(nodes) % 2 for nodes in run[end:pos]),
                "the even '-'-starting chains below C rest on an odd chain",
                tree, ci)
        adjoint = run[end - 1]
        if hang is None:
            case = "I" if len(adjoint) == 1 else "II"
        else:
            case = "III" if len(adjoint) == 1 else "IV"
        return AdjointResult(chain_of[adjoint[0]], case, None)

    # Hang node labeled '-': the adjoint is where the '+'-starting run stops.
    end = _run_end(labels, run, pos, 1, PLUS)
    adjoint = run[end]
    pivot = run[end + 1][0] if end + 1 < len(run) else hang
    _ensure(end != pos, "a chain is not its own adjoint", tree, ci)
    _ensure(len(adjoint) % 2 == 1 and labels[adjoint[0] - 1] == PLUS,
            "the adjoint is an odd '+'-starting chain", tree, ci)
    case = "V" if len(run[pos]) == 1 else "VI"
    return AdjointResult(chain_of[adjoint[0]], case, pivot)


def _lock_run_repair(tree: DiskTree, violation: Violation, run: list, pos: int, case: int,
                     attach_node: int) -> RepairResult:
    """Cases 1-4: L is the last chain of the maximal ``-``-starting run
    upward from ``run[pos]``, and is even and ends ``+``."""
    labels, chain_of = tree.labels(), tree._walk()[1]
    l_nodes = run[_run_end(labels, run, pos, 1, MINUS)]
    _ensure(len(l_nodes) % 2 == 0 and labels[l_nodes[-1] - 1] == PLUS,
            "L is even and ends '+'", tree, violation)
    attach_kind = "lock-left" if case % 2 else "attach-right"
    return RepairResult(chain_of[l_nodes[0]], case, l_nodes[-1], attach_kind, attach_node)


def find_repair_chain(tree: DiskTree, violation: Violation) -> RepairResult:
    """The even chain L fixing one family-two violation, with its case tag.

    Case 1 (tree starts ``-``) and the consecutive-pair cases 2-4 walk up a
    lock run through ``-``-starting chains, cases 1 and 3 from a ``-`` node
    opening its group; cases 5/6 (pair under a ``-`` hang node) read L
    straight off the pair and walk down the ``+``-starting run below it.
    Cases 1/3/5 relocate L's last node to the front of its group; cases
    2/4/6 append it to a chain below.

    Raises FamilyError for a violation outside ``family_two_violations``,
    and for a tree outside family one, naming its violations.
    """
    own = family_two_violations(tree)
    if violation not in own:
        raise FamilyError(f"not a family-two violation: {violation}")
    outside = family_one_violations(tree)
    if outside:
        raise FamilyError(f"find_repair_chain expects a tree in family one: {outside}")
    return _repair(tree, {}, own[own.index(violation)])


def _repair(tree: DiskTree, memo: dict, violation: Violation) -> RepairResult:
    """``find_repair_chain`` on a violation the tree itself reported."""
    labels, ix = tree.labels(), tree._kept_index()
    chains, chain_of = tree._walk()
    kind, nodes = violation

    if kind == "first-node-minus" or ix.right[nodes[0]]:
        # Case 1: node 1 is '-'.  Case 3: the pair straddles a hang, y being
        # the first node of the group hanging at N = right child of x.
        case, s, hang_node = (1, 1, None) if kind == "first-node-minus" else (
            3, nodes[1], ix.right[nodes[0]])
        run, pos, hang = _group(tree, memo, chain_of[s])
        _ensure(run[pos][0] == s and labels[s - 1] == MINUS
                and pos == 0 and hang == hang_node
                and (hang is None or labels[hang - 1] == PLUS),
                "s is a '-' node opening a group that hangs at no node or at a '+' node",
                tree, violation)
        return _lock_run_repair(tree, violation, run, 0, case, s)

    x, y = nodes
    k_idx = chain_of[x]
    k_nodes = chains[k_idx - 1]
    _ensure(k_nodes[-1] == x, "the first node of a '-' pair ends its chain",
            tree, violation)
    run, pos, hang = _group(tree, memo, k_idx)
    _ensure(ix.parent[k_nodes[0]] == y, "y is the parent of the terminal of x's chain",
            tree, violation)

    z_idx = chain_of[y]
    if y == chains[z_idx - 1][0]:
        # Lock pair inside one group: dispatch on the group's hang node.
        z_run, z_pos, _ = _group(tree, memo, z_idx)
        _ensure(z_run is run, "a lock pair lies in one group", tree, violation)
        hang_label = None if hang is None else labels[hang - 1]
        if hang_label in (None, PLUS):
            return _lock_run_repair(tree, violation, run, z_pos,
                                    2 if hang_label is None else 4, x)
        # Hang node '-': fall through, the pivot is y and L is x's chain.
    else:
        # The pair straddles levels: y is the hang node of x's group.
        _ensure(hang == y, "y is the hang node of x's group", tree, violation)

    # Cases 5/6: L is the even '+'-starting chain ending at x.
    _ensure(len(k_nodes) % 2 == 0 and labels[k_nodes[0] - 1] == PLUS,
            "x's chain is even and starts '+'", tree, violation)
    end = _run_end(labels, run, pos, -1, PLUS)
    if end == 0:
        return RepairResult(k_idx, 5, x, "lock-left", run[0][0])
    one_l = run[end - 1]
    _ensure(len(one_l) % 2 == 0 and labels[one_l[-1] - 1] == PLUS,
            "the chain below is even and ends '+'", tree, violation)
    return RepairResult(k_idx, 6, x, "attach-right", one_l[-1])


# ---------------------------------------------------------------------------
# surgery


class SurgeryOp(NamedTuple):
    cut_node: int
    attach_kind: str          # "attach-right" | "lock-left"
    attach_node: int
    case: str                 # "I".."VI" or "1".."6"


def apply_ops(tree: DiskTree, ops: Iterable[SurgeryOp]) -> DiskTree:
    """Apply cut-and-paste moves; each cut node keeps its left subtree.

    The moves edit copies of the tree's links, and ``nested.index_links``
    numbers the image from them by ``nested.index``'s in-order walk.  The
    labels are the tree's own, checked or generated by the checking rule,
    so they are not checked again; the walk checks that each right chain
    still alternates and that it reaches every node.  A move of another
    kind, or on anything but the ``int`` id of a node, raises before it
    edits a link.
    """
    labels = [None, *tree.labels()]
    ix = tree._index()
    left, right, parent = list(ix.left), list(ix.right), list(ix.parent)
    m = len(left) - 1
    # The checks are inline: this loop runs once per move of every map.
    for op in ops:
        u, v, kind = op.cut_node, op.attach_node, op.attach_kind
        if kind not in ("attach-right", "lock-left"):
            raise InvariantError(f"unknown attach kind; {op!r}; {tree!r}")
        if type(u) is not int or type(v) is not int or not (0 < u <= m and 0 < v <= m):
            raise InvariantError(f"a move's nodes are ints in 1..{m}; {op!r}; {tree!r}")
        p = parent[u]
        if p == 0:
            raise InvariantError(f"cannot cut the root; {op!r}; {tree!r}")
        if left[p] == u:
            left[p] = 0
        elif right[p] == u:
            right[p] = 0
        else:
            raise InvariantError(f"the cut node is no child of its parent; {op!r}; {tree!r}")
        if kind == "attach-right":
            if right[v]:
                raise InvariantError(f"the target has a right child; {op!r}; {tree!r}")
            right[v] = u
        else:
            if left[v]:
                raise InvariantError(f"the target has a left child; {op!r}; {tree!r}")
            left[v] = u
        parent[u] = v
    root = ix.post[-1] if ix.post else 0
    return DiskTree._from_index(index_links(left, right, labels, root, InvariantError))


def psi_plan(tree: DiskTree) -> list[SurgeryOp]:
    """Moves taking a family-two tree to family one (empty on fixed points).

    The odd ``-``-starting chains come from the chain walk; each adjoint
    search reads only its chain's group, through ``trees._group_walk``,
    walked once per group for the whole plan.
    """
    labels = tree.labels()
    chains, chain_of = tree._walk()
    memo: dict = {}
    ops = []
    for violation in family_one_violations(tree):
        ci = chain_of[violation.nodes[0]]
        c_tail = violation.nodes[-1]
        found = _adjoint(tree, memo, ci)
        adj_tail = chains[found.chain - 1][-1]
        _ensure(labels[adj_tail - 1] == PLUS and labels[c_tail - 1] == MINUS,
                "the adjoint ends '+' and C ends '-'", tree, ci)
        if found.case in ("I", "II", "III", "IV"):
            ops.append(SurgeryOp(adj_tail, "attach-right", c_tail, found.case))
        else:
            ops.append(SurgeryOp(c_tail, "attach-right", adj_tail, found.case))
    return ops


def phi_plan(tree: DiskTree) -> list[SurgeryOp]:
    """Moves taking a family-one tree back to family two, each group
    walked once for the whole plan."""
    memo: dict = {}
    ops = []
    for violation in family_two_violations(tree):
        found = _repair(tree, memo, violation)
        ops.append(
            SurgeryOp(found.cut_node, found.attach_kind, found.attach_node, str(found.case))
        )
    return ops


def _map(tree: DiskTree, to_family_one: bool) -> tuple[DiskTree, list[SurgeryOp]]:
    """Apply psi's plan (``to_family_one``) or phi's, check that the image
    lands in the other family with the same minus count, and return the
    image with the moves."""
    ops = (psi_plan if to_family_one else phi_plan)(tree)
    image = apply_ops(tree, ops)
    out = classify(image)
    _ensure((out.in_dt1 if to_family_one else out.in_dt2) and out.n_minus == tree.n_minus(),
            "psi lands in family one" if to_family_one else "phi lands in family two",
            tree, image)
    return image, ops


def psi(tree: DiskTree) -> DiskTree:
    """Forward bijection; the input must lie in family two."""
    if not classify(tree).in_dt2:
        raise FamilyError("psi expects a tree with '+' first node and no '-' pair")
    return _map(tree, True)[0]


def phi(tree: DiskTree) -> DiskTree:
    """Backward bijection; the input must lie in family one."""
    if not classify(tree).in_dt1:
        raise FamilyError("phi expects a tree whose odd chains all start '+'")
    return _map(tree, False)[0]


def order_independence_certificate(
    tree: DiskTree, trials: int = 10, seed: int = 0
) -> bool:
    """Re-run the map applying one move at a time in random orders.

    After each single move the remaining violation sites are re-derived
    from scratch, which is a stronger check than permuting a fixed plan.
    Returns True when every trial reproduces the batch result.  ``trials``
    is held to ``value.need`` at 1: zero trials would try no order at all.
    """
    need("trials", trials, 1)
    m = classify(tree)
    if not (m.in_dt1 or m.in_dt2):
        raise FamilyError("tree belongs to neither family")
    batch = _map(tree, m.in_dt2)[0]
    planner = psi_plan if m.in_dt2 else phi_plan
    rng = random.Random(seed)
    for _ in range(trials):
        current = tree
        while True:
            sites = planner(current)
            if not sites:
                break
            current = apply_ops(current, [sites[rng.randrange(len(sites))]])
        if current != batch:
            return False
    return True


def bijection_certificate(n: int, k: int) -> dict:
    """Exhaustive check of the two families at (n, k); JSON-ready record.

    One pass over the bucket ``enumerate_trees(n, n_minus=k)`` classifies
    each tree once and counts both families.  Each family-two tree is
    mapped by psi and its image back by phi, each leg checked as
    ``psi``/``phi`` check it; no tree is kept.  ``bijection_ok`` says every
    round trip returned its own tree and the counts agree.  That is the
    whole bijection: phi∘psi = id makes psi injective, and psi lands in
    family one, of equal size, so it is onto and phi inverts it.  Hence the
    phi plans ran on exactly family one, and the case histogram counts
    each member's own plan once.  n and k are held to ``value.need`` at 1
    and 0: a k below 0 is an empty bucket that would pass checking nothing.
    """
    need("n", n, 1)
    need("k", k, 0)
    dt1 = dt2 = returned = 0
    histogram: Counter[str] = Counter()
    for t in enumerate_trees(n, n_minus=k):
        m = classify(t)
        dt1 += m.in_dt1
        if not m.in_dt2:
            continue
        dt2 += 1
        image, ops = _map(t, True)
        back, back_ops = _map(image, False)
        histogram.update(op.case for op in ops + back_ops)
        returned += back == t
    return {
        "n": n,
        "k": k,
        "dt1_count": dt1,
        "dt2_count": dt2,
        "bijection_ok": returned == dt2 == dt1,
        "case_histogram": dict(sorted(histogram.items())),
    }
