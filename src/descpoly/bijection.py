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

Every post-condition and case-analysis claim is checked with an explicit
``InvariantError``, so the checks stay on under ``python -O``.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Optional

from .errors import InvariantError
from .nested import rebuild
from .trees import ChainRecord, DiskTree, GroupRecord, RightChainView
from .words import MINUS, PLUS

ADJOINT_CASES = ("I", "II", "III", "IV", "V", "VI")
REPAIR_CASES = (1, 2, 3, 4, 5, 6)


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
    k: int
    n_minus: int
    in_dt1: bool
    in_dt2: bool
    violations: tuple[Violation, ...]
    r_odd: int

    @property
    def odd_chain_excess(self) -> int:
        """r_odd minus its family-one value (n - 1 - 2k); even and positive
        on family two minus family one."""
        return self.r_odd - (self.n - 1 - 2 * self.k)


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


def classify(tree: DiskTree, k: Optional[int] = None) -> GammaFamilyMembership:
    """Membership of the tree in the two gamma families at minus-count k.

    Family one is read off the chain walk ``tree.chain_nodes()`` (chain
    starts and lengths) and family two off the labels alone; neither needs
    the levels, groups and attachments of ``right_chains``.
    """
    n_minus = tree.n_minus()
    if k is None:
        k = n_minus
    v1 = family_one_violations(tree)
    v2 = family_two_violations(tree)
    membership = GammaFamilyMembership(
        n=tree.n,
        k=k,
        n_minus=n_minus,
        in_dt1=(n_minus == k and not v1),
        in_dt2=(n_minus == k and not v2),
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


def _group_of(view: RightChainView, chain: ChainRecord) -> GroupRecord:
    return view.groups[chain.group - 1]


def _hang_label(tree: DiskTree, group: GroupRecord) -> Optional[str]:
    if group.hang_node is None:
        return None
    return tree.labels()[group.hang_node - 1]


def find_adjoint(tree: DiskTree, chain_index: int) -> AdjointResult:
    """Adjoint of the odd ``-``-starting chain C, with its case tag.

    Cases I/II (C at level 0) and III/IV (C hangs below a ``+`` node) scan
    *down* the lock run below C, through even ``-``-starting chains, to the
    first odd chain, which necessarily starts ``+``.  Cases V/VI (C hangs
    below a ``-`` node) scan *up* for the nearest ``-``-starting chain; its
    terminal is the pivot N_* (defaulting to the hang node itself), and the
    adjoint is the chain whose terminal is the pivot's left child.

    Raises FamilyError for an index outside 1..r, or for a chain C that is
    not odd and ``-``-starting.
    """
    view = tree.right_chains()
    if not 1 <= chain_index <= view.r:
        raise FamilyError(f"chain index {chain_index} out of range 1..{view.r}")
    c = view.chains[chain_index - 1]
    if not (c.is_odd and c.starts_with == MINUS):
        raise FamilyError(f"chain {chain_index} is not an odd '-'-starting chain")
    group = _group_of(view, c)
    run = group.chains
    pos = run.index(chain_index)
    hang = _hang_label(tree, group)

    if hang is None or hang == PLUS:
        for cj in reversed(run[:pos]):
            cand = view.chains[cj - 1]
            if cand.is_odd:
                _ensure(cand.starts_with == PLUS, "the first odd chain below starts '+'",
                        tree, chain_index, cj)
                if c.level == 0:
                    case = "I" if cand.length == 1 else "II"
                else:
                    case = "III" if cand.length == 1 else "IV"
                return AdjointResult(cj, case, None)
            _ensure(cand.starts_with == MINUS, "an even chain below starts '-'",
                    tree, chain_index, cj)
        raise InvariantError(f"no adjoint below chain {chain_index} in {tree!r}")

    # Hang node labeled '-': look upward for the pivot.
    pivot = None
    adjoint_idx = None
    for offset, cj in enumerate(run[pos + 1 :], start=pos + 1):
        cand = view.chains[cj - 1]
        if cand.starts_with == MINUS:
            pivot = cand.terminal
            adjoint_idx = run[offset - 1]
            break
    if pivot is None:
        pivot = group.hang_node
        adjoint_idx = run[-1]
    _ensure(adjoint_idx != chain_index, "a chain is not its own adjoint", tree, chain_index)
    adjoint = view.chains[adjoint_idx - 1]
    _ensure(adjoint.is_odd and adjoint.starts_with == PLUS,
            "the adjoint is an odd '+'-starting chain", tree, chain_index)
    case = "V" if c.length == 1 else "VI"
    return AdjointResult(adjoint_idx, case, pivot)


def _lock_run_repair(tree: DiskTree, view: RightChainView, violation: Violation,
                     run: tuple[int, ...], pos: int, case: int,
                     attach_node: int) -> RepairResult:
    """Cases 1-4: L is the last chain of the maximal ``-``-starting run
    upward from ``run[pos]``, and is even and ends ``+``."""
    while pos + 1 < len(run) and view.chains[run[pos + 1] - 1].starts_with == MINUS:
        pos += 1
    l_chain = view.chains[run[pos] - 1]
    _ensure(not l_chain.is_odd and tree.labels()[l_chain.tail - 1] == PLUS,
            "L is even and ends '+'", tree, violation)
    attach_kind = "lock-left" if case % 2 else "attach-right"
    return RepairResult(l_chain.index, case, l_chain.tail, attach_kind, attach_node)


def find_repair_chain(tree: DiskTree, violation: Violation) -> RepairResult:
    """The even chain L fixing one family-two violation, with its case tag.

    Case 1 (tree starts ``-``) and the consecutive-pair cases 2-4 walk up a
    lock run through ``-``-starting chains; cases 5/6 (pair under a ``-``
    hang node) read L straight off the pair.  Cases 1/3/5 relocate L's last
    node to the front of its group; cases 2/4/6 append it to a chain below.

    Raises FamilyError for a violation that is not one of the tree's: not
    ``(1,)`` on a ``-`` first node, nor a pair ``(x, x + 1)`` of ``-`` nodes.
    """
    labels = tree.labels()
    kind, nodes = violation.kind, violation.nodes
    if kind == "first-node-minus":
        ours = nodes == (1,) and labels[:1] == (MINUS,)
    else:
        ours = (kind == "consecutive-minus-pair" and len(nodes) == 2
                and 1 <= nodes[0] < len(labels) and nodes[1] == nodes[0] + 1
                and labels[nodes[0] - 1] == labels[nodes[0]] == MINUS)
    if not ours:
        raise FamilyError(f"not a family-two violation: {violation}")
    view = tree.right_chains()
    ix = tree._index()
    left, right, parent = ix.left, ix.right, ix.parent

    if kind == "first-node-minus":
        first = view.chains[0]
        _ensure(first.terminal == 1 and first.starts_with == MINUS,
                "the first chain starts at node 1 with '-'", tree)
        group = _group_of(view, first)
        _ensure(group.hang_node is None and group.chains[0] == first.index,
                "the first chain opens the root group", tree)
        return _lock_run_repair(tree, view, violation, group.chains, 0, 1, first.terminal)

    x, y = nodes

    if right[x]:
        # The pair straddles a hang: y is the first node of the group
        # hanging at N = right child of x, and N is labeled '+'.
        n_node = right[x]
        _ensure(labels[n_node - 1] == PLUS, "the hang node is '+'", tree, violation)
        first_idx = tree.chain_index_of(y)
        first = view.chains[first_idx - 1]
        _ensure(first.terminal == y, "y starts its chain", tree, violation)
        group = _group_of(view, first)
        _ensure(group.hang_node == n_node and group.chains[0] == first_idx,
                "y's chain opens the group hanging at the right child of x",
                tree, violation)
        return _lock_run_repair(tree, view, violation, group.chains, 0, 3, y)

    k_idx = tree.chain_index_of(x)
    k_chain = view.chains[k_idx - 1]
    _ensure(k_chain.tail == x, "the first node of a '-' pair ends its chain",
            tree, violation)
    group = _group_of(view, k_chain)
    p = parent[k_chain.terminal]
    _ensure(p == y, "y is the parent of the terminal of x's chain", tree, violation)

    z_idx = tree.chain_index_of(y)
    if y == view.chains[z_idx - 1].terminal:
        # Lock pair inside one group: dispatch on the group's hang node.
        _ensure(view.chains[z_idx - 1].group == k_chain.group,
                "a lock pair lies in one group", tree, violation)
        hang = _hang_label(tree, group)
        if hang is None or hang == PLUS:
            return _lock_run_repair(tree, view, violation, group.chains,
                                    group.chains.index(z_idx), 2 if hang is None else 4, x)
        # Hang node '-': fall through, the pivot is y and L is x's chain.
    else:
        # The pair straddles levels: y is the hang node of x's group.
        _ensure(group.hang_node == y, "y is the hang node of x's group", tree, violation)

    # Cases 5/6: L is the even '+'-starting chain ending at x.
    _ensure(not k_chain.is_odd and k_chain.starts_with == PLUS,
            "x's chain is even and starts '+'", tree, violation)
    pos = group.chains.index(k_idx)
    one_l_idx = None
    for cj in reversed(group.chains[:pos]):
        if view.chains[cj - 1].starts_with == MINUS:
            one_l_idx = cj
            break
    if one_l_idx is None:
        first_terminal = view.chains[group.chains[0] - 1].terminal
        return RepairResult(k_idx, 5, x, "lock-left", first_terminal)
    one_l = view.chains[one_l_idx - 1]
    _ensure(not one_l.is_odd and labels[one_l.tail - 1] == PLUS,
            "the chain below is even and ends '+'", tree, violation)
    return RepairResult(k_idx, 6, x, "attach-right", one_l.tail)


# ---------------------------------------------------------------------------
# surgery


class SurgeryOp(NamedTuple):
    cut_node: int
    attach_kind: str          # "attach-right" | "lock-left"
    attach_node: int
    case: str                 # "I".."VI" or "1".."6"


def apply_ops(tree: DiskTree, ops: Iterable[SurgeryOp]) -> DiskTree:
    """Apply cut-and-paste moves; each cut node keeps its left subtree."""
    ix = tree._index()
    if not ix.post:
        return tree  # empty tree, nothing to do
    left, right, parent = list(ix.left), list(ix.right), list(ix.parent)
    root = ix.post[-1]
    # The checks are inline: this loop runs once per move of every map.
    for op in ops:
        u, v = op.cut_node, op.attach_node
        p = parent[u]
        if p == 0:
            raise InvariantError(f"cannot cut the root; {op!r}; {tree!r}")
        if left[p] == u:
            left[p] = 0
        elif right[p] == u:
            right[p] = 0
        else:
            raise InvariantError(f"the cut node is no child of its parent; {op!r}; {tree!r}")
        if op.attach_kind == "attach-right":
            if right[v]:
                raise InvariantError(f"the target has a right child; {op!r}; {tree!r}")
            right[v] = u
        else:
            if left[v]:
                raise InvariantError(f"the target has a left child; {op!r}; {tree!r}")
            left[v] = u
        parent[u] = v
    # Parents before children (a breadth-first list grown while it is
    # read), then the new triples children first, under the old ids.
    order = [root]
    for v in order:
        if left[v]:
            order.append(left[v])
        if right[v]:
            order.append(right[v])
    order.reverse()
    return DiskTree(rebuild(ix._replace(left=left, right=right, post=order))[root])


def psi_plan(tree: DiskTree) -> list[SurgeryOp]:
    """Moves taking a family-two tree to family one (empty on fixed points).

    The odd ``-``-starting chains come from the chain walk; the full
    ``right_chains`` view is built only when there is one to repair.
    """
    labels = tree.labels()
    ops = []
    for violation in family_one_violations(tree):
        c_idx = tree.chain_index_of(violation.nodes[0])
        c_tail = violation.nodes[-1]
        found = find_adjoint(tree, c_idx)
        adj_tail = tree.right_chains().chains[found.chain - 1].tail
        _ensure(labels[adj_tail - 1] == PLUS and labels[c_tail - 1] == MINUS,
                "the adjoint ends '+' and C ends '-'", tree, c_idx)
        if found.case in ("I", "II", "III", "IV"):
            ops.append(SurgeryOp(adj_tail, "attach-right", c_tail, found.case))
        else:
            ops.append(SurgeryOp(c_tail, "attach-right", adj_tail, found.case))
    return ops


def phi_plan(tree: DiskTree) -> list[SurgeryOp]:
    """Moves taking a family-one tree back to family two."""
    ops = []
    for violation in family_two_violations(tree):
        found = find_repair_chain(tree, violation)
        ops.append(
            SurgeryOp(found.cut_node, found.attach_kind, found.attach_node, str(found.case))
        )
    return ops


def _apply_checked(tree: DiskTree, ops: list[SurgeryOp], n_minus: int,
                   to_family_one: bool) -> DiskTree:
    """Apply a map's plan and check that the image lands in the other
    family with the same minus count."""
    result = apply_ops(tree, ops)
    out = classify(result)
    lands = out.in_dt1 if to_family_one else out.in_dt2
    _ensure(lands and out.n_minus == n_minus,
            "psi lands in family one" if to_family_one else "phi lands in family two",
            tree, result)
    return result


def psi(tree: DiskTree) -> DiskTree:
    """Forward bijection; the input must lie in family two."""
    m = classify(tree)
    if not m.in_dt2:
        raise FamilyError("psi expects a tree with '+' first node and no '-' pair")
    return _apply_checked(tree, psi_plan(tree), m.n_minus, True)


def phi(tree: DiskTree) -> DiskTree:
    """Backward bijection; the input must lie in family one."""
    m = classify(tree)
    if not m.in_dt1:
        raise FamilyError("phi expects a tree whose odd chains all start '+'")
    return _apply_checked(tree, phi_plan(tree), m.n_minus, False)


def order_independence_certificate(
    tree: DiskTree, trials: int = 10, seed: int = 0
) -> bool:
    """Re-run the map applying one move at a time in random orders.

    After each single move the remaining violation sites are re-derived
    from scratch, which is a stronger check than permuting a fixed plan.
    Returns True when every trial reproduces the batch result.
    """
    m = classify(tree)
    if m.in_dt2:
        batch, planner = psi(tree), psi_plan
    elif m.in_dt1:
        batch, planner = phi(tree), phi_plan
    else:
        raise FamilyError("tree belongs to neither family")
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

    Only the trees with k minus labels can belong to either family, so
    only that bucket of ``enumerate_trees(n, n_minus=k)`` is classified.
    Each member is mapped once, psi on family two and phi on family one,
    and its plan feeds both the case histogram and the map, which checks
    its image as ``psi``/``phi`` do.  The record certifies that psi is
    injective, that its images are exactly family one, and that phi
    undoes psi on family two and psi undoes phi on family one.
    """
    from .trees import enumerate_trees

    dt1 = []
    dt2 = []
    for t in enumerate_trees(n, n_minus=k):
        m = classify(t, k)
        if m.in_dt1:
            dt1.append(t)
        if m.in_dt2:
            dt2.append(t)
    histogram: dict[str, int] = {}
    images: dict[DiskTree, DiskTree] = {}      # psi on family two
    preimages: dict[DiskTree, DiskTree] = {}   # phi on family one
    for members, planner, out, to_family_one in ((dt2, psi_plan, images, True),
                                                 (dt1, phi_plan, preimages, False)):
        for t in members:
            ops = planner(t)
            for op in ops:
                histogram[op.case] = histogram.get(op.case, 0) + 1
            out[t] = _apply_checked(t, ops, k, to_family_one)
    ok = (
        len(set(images.values())) == len(dt2) == len(dt1)
        and all(preimages.get(image) == t for t, image in images.items())
        and all(images.get(back) == t for t, back in preimages.items())
    )
    return {
        "n": n,
        "k": k,
        "dt1_count": len(dt1),
        "dt2_count": len(dt2),
        "bijection_ok": ok,
        "case_histogram": dict(sorted(histogram.items())),
    }
