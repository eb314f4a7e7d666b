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
from .nested import MINUS, PLUS, rebuild
from .trees import ChainRecord, DiskTree, GroupRecord, RightChainView, enumerate_trees


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


def _run_end(view: RightChainView, run: tuple[int, ...], pos: int, step: int,
             label: str) -> int:
    """The last position of ``run`` reached from ``pos`` by steps of
    ``step`` (+1 up, -1 down) onto chains that start with ``label``."""
    while 0 <= pos + step < len(run) and view.chains[run[pos + step] - 1].starts_with == label:
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

    if hang in (None, PLUS):
        end = _run_end(view, run, pos, -1, MINUS)
        _ensure(end > 0 and view.chains[run[end - 1] - 1].is_odd
                and not any(view.chains[cj - 1].is_odd for cj in run[end:pos]),
                "the even '-'-starting chains below C rest on an odd chain",
                tree, chain_index)
        adjoint = view.chains[run[end - 1] - 1]
        if c.level == 0:
            case = "I" if adjoint.length == 1 else "II"
        else:
            case = "III" if adjoint.length == 1 else "IV"
        return AdjointResult(adjoint.index, case, None)

    # Hang node labeled '-': the adjoint is where the '+'-starting run stops.
    end = _run_end(view, run, pos, 1, PLUS)
    adjoint_idx = run[end]
    pivot = view.chains[run[end + 1] - 1].terminal if end + 1 < len(run) else group.hang_node
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
    l_chain = view.chains[run[_run_end(view, run, pos, 1, MINUS)] - 1]
    _ensure(not l_chain.is_odd and tree.labels()[l_chain.tail - 1] == PLUS,
            "L is even and ends '+'", tree, violation)
    attach_kind = "lock-left" if case % 2 else "attach-right"
    return RepairResult(l_chain.index, case, l_chain.tail, attach_kind, attach_node)


def find_repair_chain(tree: DiskTree, violation: Violation) -> RepairResult:
    """The even chain L fixing one family-two violation, with its case tag.

    Case 1 (tree starts ``-``) and the consecutive-pair cases 2-4 walk up a
    lock run through ``-``-starting chains, cases 1 and 3 from a ``-`` node
    opening its group; cases 5/6 (pair under a ``-`` hang node) read L
    straight off the pair and walk down the ``+``-starting run below it.
    Cases 1/3/5 relocate L's last node to the front of its group; cases
    2/4/6 append it to a chain below.

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

    if kind == "first-node-minus" or ix.right[nodes[0]]:
        # Case 1: node 1 is '-'.  Case 3: the pair straddles a hang, y being
        # the first node of the group hanging at N = right child of x.
        case, s, hang_node = (1, 1, None) if kind == "first-node-minus" else (
            3, nodes[1], ix.right[nodes[0]])
        first = view.chains[tree.chain_index_of(s) - 1]
        group = _group_of(view, first)
        _ensure(first.terminal == s and first.starts_with == MINUS
                and group.chains[0] == first.index and group.hang_node == hang_node
                and _hang_label(tree, group) in (None, PLUS),
                "s is a '-' node opening a group that hangs at no node or at a '+' node",
                tree, violation)
        return _lock_run_repair(tree, view, violation, group.chains, 0, case, s)

    x, y = nodes
    k_idx = tree.chain_index_of(x)
    k_chain = view.chains[k_idx - 1]
    _ensure(k_chain.tail == x, "the first node of a '-' pair ends its chain",
            tree, violation)
    group = _group_of(view, k_chain)
    _ensure(ix.parent[k_chain.terminal] == y, "y is the parent of the terminal of x's chain",
            tree, violation)

    z_idx = tree.chain_index_of(y)
    if y == view.chains[z_idx - 1].terminal:
        # Lock pair inside one group: dispatch on the group's hang node.
        _ensure(view.chains[z_idx - 1].group == k_chain.group,
                "a lock pair lies in one group", tree, violation)
        hang = _hang_label(tree, group)
        if hang in (None, PLUS):
            return _lock_run_repair(tree, view, violation, group.chains,
                                    group.chains.index(z_idx), 2 if hang is None else 4, x)
        # Hang node '-': fall through, the pivot is y and L is x's chain.
    else:
        # The pair straddles levels: y is the hang node of x's group.
        _ensure(group.hang_node == y, "y is the hang node of x's group", tree, violation)

    # Cases 5/6: L is the even '+'-starting chain ending at x.
    _ensure(not k_chain.is_odd and k_chain.starts_with == PLUS,
            "x's chain is even and starts '+'", tree, violation)
    run = group.chains
    end = _run_end(view, run, run.index(k_idx), -1, PLUS)
    if end == 0:
        return RepairResult(k_idx, 5, x, "lock-left", view.chains[run[0] - 1].terminal)
    one_l = view.chains[run[end - 1] - 1]
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
    labels = [None, *tree.labels()]
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
    return DiskTree(rebuild(ix._replace(left=left, right=right, post=order), labels)[root])


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
        planner = psi_plan
    elif m.in_dt1:
        planner = phi_plan
    else:
        raise FamilyError("tree belongs to neither family")
    batch = _apply_checked(tree, planner(tree), m.n_minus, m.in_dt2)
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
    each member's own plan once.
    """
    dt1 = dt2 = returned = 0
    histogram: Counter[str] = Counter()
    for t in enumerate_trees(n, n_minus=k):
        m = classify(t, k)
        dt1 += m.in_dt1
        if not m.in_dt2:
            continue
        dt2 += 1
        image = t
        for planner, to_family_one in ((psi_plan, True), (phi_plan, False)):
            ops = planner(image)
            histogram.update(op.case for op in ops)
            image = _apply_checked(image, ops, k, to_family_one)
        returned += image == t
    return {
        "n": n,
        "k": k,
        "dt1_count": dt1,
        "dt2_count": dt2,
        "bijection_ok": returned == dt2 == dt1,
        "case_histogram": dict(sorted(histogram.items())),
    }
