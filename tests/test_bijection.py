"""The gamma bijection: fixtures, exhaustive inverses, order independence."""

import hashlib
import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import descpoly.bijection
import descpoly.nested
from descpoly.bijection import (
    AdjointResult,
    FamilyError,
    InvariantError,
    RepairResult,
    SurgeryOp,
    Violation,
    apply_ops,
    bijection_certificate,
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
from descpoly.families import separable_gamma
from descpoly.trees import DiskTree, enumerate_trees

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "bijection_cases.json").read_text()
)


def test_classify_membership_basics():
    # one '-' node: in family one at k=1 (single odd chain starts '-'? no:
    # the chain is the single node '-', which is odd and starts '-')
    t = DiskTree.parse("(- _ _)")
    m = classify(t)
    assert m.n_minus == 1 and not m.in_dt1 and not m.in_dt2
    # '+' root with '-' right child: single even chain, in both families
    t = DiskTree.parse("(+ _ (- _ _))")
    m = classify(t)
    assert m.in_dt1 and m.in_dt2
    assert psi(t) == t and phi(t) == t


def test_minimal_case_I_instance():
    # odd '-' chain locked above an odd '+' chain
    t = DiskTree.parse("(- (+ _ _) _)")
    m = classify(t)
    assert m.in_dt2 and not m.in_dt1
    found = find_adjoint(t, t.chain_index_of(2))
    assert found.case == "I"
    assert t.right_chains().chains[found.chain - 1].nodes == (1,)
    image = psi(t)
    assert image == DiskTree.parse("(- _ (+ _ _))")
    assert phi(image) == t


def test_find_adjoint_rejects_wrong_chain():
    t = DiskTree.parse("(- (+ _ _) _)")
    with pytest.raises(FamilyError):
        find_adjoint(t, t.chain_index_of(1))


def test_find_adjoint_rejects_an_index_outside_the_chains():
    t = DiskTree.parse("(- (+ _ _) _)")
    r = t.right_chains().r
    for i in (0, -1, r + 1):
        with pytest.raises(FamilyError, match=rf"^chain index {i} out of range 1\.\.{r}$"):
            find_adjoint(t, i)


@pytest.mark.parametrize("text, violation", [
    ("(- _ (+ _ _))", Violation("first-node-minus", (5,))),
    ("(+ _ (- _ _))", Violation("first-node-minus", (1,))),
    ("(- (- _ _) _)", Violation("consecutive-minus-pair", (0, 1))),
    ("(- (- _ _) _)", Violation("consecutive-minus-pair", (2, 3))),
    ("(- (- _ _) (+ _ _))", Violation("consecutive-minus-pair", (1, 3))),
    ("(- (+ _ _) _)", Violation("consecutive-minus-pair", (1, 2))),
    ("(- (- _ _) _)", Violation("consecutive-minus-pair", (1, 2, 3))),
    ("(- (- _ _) _)", Violation("odd-chain-starts-minus", (1,))),
    ("(- (- _ _) _)", Violation("consecutive-minus-pair", [1, 2])),
])
def test_find_repair_chain_rejects_violations_not_of_the_tree(text, violation):
    # a wrong node, a '+' node, a pair off the tree or not adjacent, a
    # family-one kind, list nodes the tree never reports: the caller's
    # input, not a failed invariant
    t = DiskTree.parse(text)
    assert violation not in family_two_violations(t)
    with pytest.raises(FamilyError, match="^not a family-two violation: "):
        find_repair_chain(t, violation)


def _family_two_rule(labels):
    """The family-two violations read straight off the in-order labels: a
    '-' first node, and each pair (x, x + 1) of consecutive '-' nodes."""
    text = "".join(labels)
    rule = {Violation("first-node-minus", (1,))} if text.startswith("-") else set()
    rule.update(Violation("consecutive-minus-pair", (x, x + 1))
                for x in range(1, len(text)) if text[x - 1:x + 1] == "--")
    return rule


def test_find_repair_chain_accepts_exactly_the_rule_to_n6():
    # Every candidate of the three kinds, with node tuples of length 0-2
    # over 0..n, on every tree with n <= 6: a candidate off the rule is
    # refused as no violation of the tree; the rule's violations are found
    # on family one, and everywhere else the tree is refused, naming its
    # family-one violations.
    kinds = ("first-node-minus", "consecutive-minus-pair", "odd-chain-starts-minus")
    accepted = listed = refused = 0
    for n in range(1, 7):
        for t in enumerate_trees(n):
            rule = _family_two_rule(t.labels())
            listed += len(rule)
            outside = family_one_violations(t)
            for kind, length in itertools.product(kinds, range(3)):
                for nodes in itertools.product(range(n + 1), repeat=length):
                    v = Violation(kind, nodes)
                    if v not in rule:
                        with pytest.raises(FamilyError, match="^not a family-two violation: "):
                            find_repair_chain(t, v)
                        continue
                    accepted += 1
                    if not outside:
                        assert type(find_repair_chain(t, v)) is RepairResult
                        continue
                    with pytest.raises(FamilyError) as refusal:
                        find_repair_chain(t, v)
                    assert str(refusal.value) == (
                        f"find_repair_chain expects a tree in family one: {outside}"), (t, v)
                    refused += 1
    assert accepted == listed > refused > 0


def test_find_adjoint_refuses_only_outside_family_two_to_n6():
    # Every chain index 0..r+1 on every tree with n <= 6: an index off the
    # chains or a chain that is not odd and '-'-starting is refused; the
    # others are found on family two, and everywhere else the tree is
    # refused, naming its family-two violations.
    searched = refused = 0
    for n in range(1, 7):
        for t in enumerate_trees(n):
            outside = family_two_violations(t)
            chains = t.right_chains().chains
            for i in range(len(chains) + 2):
                if not (1 <= i <= len(chains) and chains[i - 1].is_odd
                        and chains[i - 1].starts_with == "-"):
                    with pytest.raises(FamilyError, match=rf"^chain (index )?{i} "):
                        find_adjoint(t, i)
                    continue
                searched += 1
                if not outside:
                    assert type(find_adjoint(t, i)) is AdjointResult
                    continue
                with pytest.raises(FamilyError) as refusal:
                    find_adjoint(t, i)
                assert str(refusal.value) == (
                    f"find_adjoint expects a tree in family two: {outside}"), (t, i)
                refused += 1
    assert searched > refused > 0


def test_no_map_or_certificate_calls_the_public_searches(monkeypatch):
    # The maps search the sites they derived themselves with the private
    # searches, so the public searches' family check costs them nothing.
    def refuse(*args):
        raise RuntimeError("a public search was called")

    for name in ("find_adjoint", "find_repair_chain"):
        monkeypatch.setattr(descpoly.bijection, name, refuse)
    source = DiskTree.parse(FIXTURES["forty_node_pair"]["source"])
    image = psi(source)
    assert phi(image) == source
    assert order_independence_certificate(source) and order_independence_certificate(image)
    for k in range(4):
        cert = bijection_certificate(7, k)
        assert cert["bijection_ok"] and cert["dt1_count"] == separable_gamma(7)[k]


def test_phi_plan_is_the_checked_search_to_n8():
    # phi_plan searches its own sites unchecked; the moves are those the
    # public, checked search gives for each of the tree's violations.
    for n in range(1, 9):
        for t in enumerate_trees(n):
            if not classify(t).in_dt1:
                continue
            moves = []
            for v in family_two_violations(t):
                found = find_repair_chain(t, v)
                moves.append(SurgeryOp(found.cut_node, found.attach_kind,
                                       found.attach_node, str(found.case)))
            assert phi_plan(t) == moves, t


def test_minimal_repair_case_1():
    # single '-' root at n = 2 is the smallest family-two violation
    t = DiskTree.parse("(- _ (+ _ _))")
    viols = family_two_violations(t)
    assert viols == (Violation("first-node-minus", (1,)),)
    found = find_repair_chain(t, viols[0])
    assert found.case == 1
    assert t.right_chains().chains[found.chain - 1].nodes == (1, 2)


@pytest.mark.parametrize("fixture", FIXTURES["adjoint_cases"], ids=lambda f: f["case"])
def test_adjoint_case_fixture(fixture):
    t = DiskTree.parse(fixture["tree"])
    m = classify(t)
    assert m.in_dt2 and not m.in_dt1
    chain = t.chain_index_of(fixture["chain_terminal"])
    found = find_adjoint(t, chain)
    assert found.case == fixture["case"]
    assert t.right_chains().chains[found.chain - 1].terminal == fixture["adjoint_terminal"]
    assert found.pivot == fixture["pivot"]
    # full map round trip on the fixture
    assert phi(psi(t)) == t


@pytest.mark.parametrize("fixture", FIXTURES["repair_cases"], ids=lambda f: f["case"])
def test_repair_case_fixture(fixture):
    t = DiskTree.parse(fixture["tree"])
    m = classify(t)
    assert m.in_dt1 and not m.in_dt2
    violation = Violation(fixture["violation_kind"], tuple(fixture["violation_nodes"]))
    assert violation in family_two_violations(t)
    found = find_repair_chain(t, violation)
    assert found.case == int(fixture["case"])
    assert t.right_chains().chains[found.chain - 1].terminal == fixture["repair_terminal"]
    assert found.cut_node == fixture["cut_node"]
    assert found.attach_kind == fixture["attach_kind"]
    assert found.attach_node == fixture["attach_node"]
    # Equal nodes of another number type are the tree's violation too, and
    # the search runs on the tree's own copy of it.
    as_floats = Violation(violation.kind, tuple(map(float, violation.nodes)))
    assert find_repair_chain(t, as_floats) == found
    assert psi(phi(t)) == t


def test_forty_node_pair_fixture():
    source = DiskTree.parse(FIXTURES["forty_node_pair"]["source"])
    image = DiskTree.parse(FIXTURES["forty_node_pair"]["image"])
    assert source.size == image.size == 40
    assert source.n_minus() == image.n_minus()
    assert classify(source).in_dt2 and not classify(source).in_dt1
    assert classify(image).in_dt1 and not classify(image).in_dt2
    assert psi(source) == image
    assert phi(image) == source
    cases = sorted(op.case for op in psi_plan(source))
    assert cases == FIXTURES["forty_node_pair"]["forward_cases"]
    assert len(cases) == 5 and len(set(cases)) == 5
    # five operation sites, order-independent over many random orders
    assert order_independence_certificate(source, trials=25, seed=7)
    assert order_independence_certificate(image, trials=25, seed=8)


def test_psi_requires_family_two():
    with pytest.raises(FamilyError):
        psi(DiskTree.parse("(- _ _)"))
    with pytest.raises(FamilyError):
        phi(DiskTree.parse("(- (+ _ _) _)"))  # family two but not one


def test_label_multiset_preserved():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            m = classify(t)
            if m.in_dt2:
                assert psi(t).n_minus() == t.n_minus()
            if m.in_dt1:
                assert phi(t).n_minus() == t.n_minus()


def test_odd_chain_excess_positive_even():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            m = classify(t)
            if m.in_dt2 and not m.in_dt1:
                assert m.odd_chain_excess > 0 and m.odd_chain_excess % 2 == 0


def test_psi_lands_exactly_on_target_odd_count():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            m = classify(t)
            if m.in_dt2:
                image = psi(t)
                assert image.right_chains().r_odd == t.n - 1 - 2 * m.n_minus
                assert not family_one_violations(image)
            if m.in_dt1:
                assert not family_two_violations(phi(t))


def test_exhaustive_bijection_and_gamma_counts():
    for n in range(1, 8):
        for k in range((n - 1) // 2 + 1):
            cert = bijection_certificate(n, k)
            assert cert["bijection_ok"], (n, k)
            assert cert["dt1_count"] == cert["dt2_count"] == separable_gamma(n)[k]


def test_case_coverage_by_n8():
    seen = set()
    for k in range(4):
        seen.update(bijection_certificate(8, k)["case_histogram"])
    assert seen == {"I", "II", "III", "IV", "V", "VI", "1", "2", "3", "4", "5", "6"}


def test_every_search_result_to_n8_is_pinned():
    # Every adjoint and repair found on a family member up to n = 8: each
    # chain, case tag, pivot, cut node and attach node, not only the counts.
    lines = []
    for n in range(1, 9):
        for t in enumerate_trees(n):
            m = classify(t)
            if m.in_dt2:
                lines.extend(repr(find_adjoint(t, t.chain_index_of(v.nodes[0])))
                             for v in family_one_violations(t))
            if m.in_dt1:
                lines.extend(repr(find_repair_chain(t, v))
                             for v in family_two_violations(t))
    assert len(lines) == 1948
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "813fc8690655018adee3c4f549bd1ec84eaff666fb427383d91d39084c4018e0"


def test_order_independence_exhaustive_small():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            m = classify(t)
            if m.in_dt1 ^ m.in_dt2:
                assert order_independence_certificate(t, trials=10, seed=n)


def test_single_site_instances_trivially_order_independent():
    t = DiskTree.parse("(- (+ _ _) _)")
    assert len(psi_plan(t)) == 1
    assert order_independence_certificate(t, trials=3, seed=0)


@pytest.mark.parametrize("trials", [0, -5])
def test_order_independence_refuses_no_trials(monkeypatch, trials):
    # Refused before any work: no plan is taken, and a tree in neither
    # family gets the same answer.
    monkeypatch.setattr(descpoly.bijection, "psi_plan", None)
    for text in ("(- (+ _ _) _)", "(- _ _)"):
        with pytest.raises(ValueError, match="^need trials >= 1$"):
            order_independence_certificate(DiskTree.parse(text), trials=trials)


@pytest.mark.parametrize("k", [-1, True, 1.0])
def test_certificate_refuses_a_k_that_is_no_minus_count(monkeypatch, k):
    # Refused before any tree is enumerated: a negative k is an empty
    # bucket that would pass while checking nothing, and a bool or float
    # would be written into the record as given.
    monkeypatch.setattr(descpoly.bijection, "enumerate_trees", None)
    message = ("^need k >= 0$" if type(k) is int
               else rf"^k must be an int of at least 0, got {k!r}$")
    with pytest.raises(ValueError, match=message):
        bijection_certificate(5, k)


@pytest.mark.parametrize("n", [0, -1, True, 2.5, 3.0])
def test_certificate_refuses_an_n_that_is_no_order(monkeypatch, n):
    # Refused before any tree is enumerated: a bool or float would
    # otherwise be counted as an order and written into the record.
    monkeypatch.setattr(descpoly.bijection, "enumerate_trees", None)
    message = ("^need n >= 1$" if type(n) is int
               else rf"^n must be an int of at least 1, got {n!r}$")
    with pytest.raises(ValueError, match=message):
        bijection_certificate(n, 0)


def test_certificate_above_the_top_k_is_a_true_zero():
    # gamma_3 of S_5 is 0: no tree with 3 minus labels on 4 nodes is in
    # either family.
    assert separable_gamma(5)[3] == 0
    assert bijection_certificate(5, 3) == {
        "n": 5, "k": 3, "dt1_count": 0, "dt2_count": 0,
        "bijection_ok": True, "case_histogram": {},
    }


def _certificate_by_direct_loop(n, k):
    """The certificate's counts and histogram the plain way: every tree
    with k minus labels classified, and each member's plan taken on its
    own."""
    dt1 = dt2 = 0
    histogram = {}
    for t in enumerate_trees(n):
        if t.n_minus() != k:
            continue
        m = classify(t)
        plans = []
        if m.in_dt2:
            dt2 += 1
            plans.append(psi_plan(t))
        if m.in_dt1:
            dt1 += 1
            plans.append(phi_plan(t))
        for plan in plans:
            for op in plan:
                histogram[op.case] = histogram.get(op.case, 0) + 1
    return dt1, dt2, dict(sorted(histogram.items()))


@pytest.mark.parametrize("n", range(1, 8))
def test_certificate_equals_a_direct_loop(n):
    for k in range((n - 1) // 2 + 1):
        cert = bijection_certificate(n, k)
        assert cert["bijection_ok"]
        got = (cert["dt1_count"], cert["dt2_count"], cert["case_histogram"])
        assert got == _certificate_by_direct_loop(n, k), (n, k)


@pytest.mark.parametrize("broken, claim", [
    ("psi_plan", "psi lands in family one"),
    ("phi_plan", "phi lands in family two"),
])
def test_certificate_catches_a_map_that_moves_nothing(monkeypatch, broken, claim):
    # (5, 1) has members outside the other family, so an empty plan leaves
    # an image in the wrong family, on the way there or on the way back.
    monkeypatch.setattr(descpoly.bijection, broken, lambda tree: [])
    with pytest.raises(InvariantError, match=claim):
        bijection_certificate(5, 1)


@pytest.mark.parametrize("call, broken, claim", [
    (lambda: psi(DiskTree.parse("(- (+ _ _) _)")), "psi_plan", "psi lands in family one"),
    (lambda: phi(DiskTree.parse("(- _ (+ _ _))")), "phi_plan", "phi lands in family two"),
    (lambda: order_independence_certificate(DiskTree.parse("(- (+ _ _) _)")),
     "psi_plan", "psi lands in family one"),
    (lambda: bijection_certificate(5, 1), "psi_plan", "psi lands in family one"),
], ids=["psi", "phi", "order_independence", "certificate"])
def test_every_entry_point_checks_where_its_map_lands(monkeypatch, call, broken, claim):
    # Each tree above is outside the other family, so a plan that moves
    # nothing leaves the image in the wrong family, and every entry point
    # must say so with the map's own claim.
    monkeypatch.setattr(descpoly.bijection, broken, lambda tree: [])
    with pytest.raises(InvariantError, match=claim):
        call()


def test_certificate_catches_a_round_trip_that_does_not_return(monkeypatch):
    good = bijection_certificate(5, 1)
    monkeypatch.setattr(DiskTree, "__eq__", lambda self, other: False)
    bad = bijection_certificate(5, 1)
    assert good["bijection_ok"] and not bad["bijection_ok"]
    assert {**bad, "bijection_ok": True} == good


def test_certificate_working_memory_is_constant():
    # With the bucket already generated, the certificate keeps counts
    # only: no tree outlives its own round trip.
    list(enumerate_trees(8, n_minus=3))
    tracemalloc.start()
    try:
        bijection_certificate(8, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_census_at_n10_is_pinned():
    records = [bijection_certificate(10, k) for k in range(5)]
    gamma = separable_gamma(10)
    assert [gamma[k] for k in range(5)] == [1, 156, 2898, 10200, 5641]
    for k, cert in enumerate(records):
        assert cert["bijection_ok"], k
        assert cert["dt1_count"] == cert["dt2_count"] == gamma[k], k
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "95726a109a24b777a50d7427599eebcccacfc5aca77aca928fd384a34afbaeb3"


def test_invariant_error_is_an_assertion_error():
    assert issubclass(InvariantError, AssertionError)


# A move that cuts node 1 and puts it back where it was: apply_ops accepts
# it, and psi's post-condition must catch that the image is not in family
# one, also with assert statements stripped.
_WRONG_MOVE_UNDER_O = """
import sys
import descpoly.bijection as b
from descpoly.trees import DiskTree

assert sys.flags.optimize == 1
assert False, "assert statements run"
b.psi_plan = lambda tree: [b.SurgeryOp(1, "lock-left", 2, "I")]
try:
    b.psi(DiskTree.parse("(- (+ _ _) _)"))
except b.InvariantError as exc:
    print("raised:", exc)
else:
    print("returned")
"""


# Node 2 attached below node 1, inside its own subtree: the walk from the
# root no longer reaches nodes 1 and 2, and apply_ops must say so, also
# with assert statements stripped.
_CUT_INTO_ITS_OWN_SUBTREE = """
import sys
from descpoly.bijection import InvariantError, SurgeryOp, apply_ops
from descpoly.trees import DiskTree

assert sys.flags.optimize == 1
assert False, "assert statements run"
try:
    image = apply_ops(DiskTree.parse("(+ (- (+ _ _) _) _)"),
                      [SurgeryOp(2, "attach-right", 1, "I")])
except InvariantError as exc:
    print("raised:", exc)
else:
    print("returned", image)
"""


def test_apply_ops_refuses_a_move_that_drops_nodes():
    t = DiskTree.parse("(+ (- (+ _ _) _) _)")
    with pytest.raises(InvariantError, match="^the walk from the root reaches 1 of 3 nodes$"):
        apply_ops(t, [SurgeryOp(2, "attach-right", 1, "I")])


def test_apply_ops_refuses_a_move_that_drops_nodes_under_python_O():
    result = subprocess.run(
        [sys.executable, "-O", "-c", _CUT_INTO_ITS_OWN_SUBTREE],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised: the walk from the root reaches 1 of 3 nodes\n"


def test_apply_ops_refuses_a_right_chain_that_does_not_alternate():
    # node 1 ('+') moved onto the right of node 3 ('+')
    t = DiskTree.parse("(- (+ _ _) (+ _ _))")
    with pytest.raises(InvariantError, match="^right chain does not alternate$"):
        apply_ops(t, [SurgeryOp(1, "attach-right", 3, "I")])


def test_the_maps_number_their_images_without_a_fresh_walk(monkeypatch):
    # The moves' image is numbered from its links; nested.index and
    # nested.check are the triple walks, which the images must not need.
    tree = DiskTree.parse("(+ (- _ (+ (- _ (+ _ _)) _)) _)")
    assert classify(tree).in_dt1 and len(phi_plan(tree)) == 2
    calls = []
    for name in ("index", "check"):
        walk = getattr(descpoly.nested, name)
        monkeypatch.setattr(descpoly.nested, name,
                            lambda *a, _walk=walk, _name=name: calls.append(_name) or _walk(*a))
    image = phi(tree)
    assert psi(image) == tree and image != tree
    assert calls == []


def test_psi_post_condition_holds_under_python_O():
    result = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_MOVE_UNDER_O],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: psi lands in family one")
