"""The value and record types: repr, equality, hash, immutability, copies.

These pin what the types show to callers, whatever they are built on:
the field ``repr``, ``==`` within one class, ``hash`` of the field tuple
(so set and dict orders stay put), assignment raising ``AttributeError``,
and pickling and copying.  ``VerificationReport`` alone stays mutable and
unhashable.
"""

import copy
import pickle

import pytest

from descpoly.bijection import (
    AdjointResult,
    RepairResult,
    SurgeryOp,
    Violation,
    classify,
)
from descpoly.families import spiral_report
from descpoly.gessel import BivariatePolynomial, GesselGamma, gessel_gamma
from descpoly.permutations import Permutation
from descpoly.polynomials import GammaVector, IntPolynomial, gamma_decompose
from descpoly.rcindex import RCIndex
from descpoly.trees import DiskTree, TreeShape
from descpoly.verify import CheckRecord, VerificationReport
from descpoly.words import SchroderWord

TREE = "(+ (- _ _) (- _ _))"


def _view():
    return DiskTree.parse(TREE).right_chains()


CHAIN_1 = "ChainRecord(index=1, nodes=(1,), starts_with='-', level=0, attachment='lock', group=1)"
CHAIN_2 = ("ChainRecord(index=2, nodes=(2, 3), starts_with='+', level=0, "
           "attachment='root-group', group=1)")
GROUP_1 = "GroupRecord(index=1, chains=(1, 2), level=0, hang_node=None)"
CHECK_1 = "SpiralCheck(description='d(4,3) < d(4,1)', lower=1, upper=4, strict=True, ok=True)"
CHECK_2 = "SpiralCheck(description='d(4,1) <= d(4,2)', lower=4, upper=4, strict=False, ok=True)"

# (name, factory, repr, fields); the factory builds a fresh equal value.
VALUES = [
    ("Permutation", lambda: Permutation((2, 1)), "Permutation(word=(2, 1))",
     {"word": (2, 1)}),
    ("IntPolynomial", lambda: IntPolynomial((1, 4, 1, 0)), "IntPolynomial((1, 4, 1))",
     {"coeffs": (1, 4, 1)}),
    ("GammaVector", lambda: gamma_decompose(IntPolynomial((1, 4, 1)), 2),
     "GammaVector(darga=2, start=0, gammas=(1, 2))",
     {"darga": 2, "start": 0, "gammas": (1, 2)}),
    ("BivariatePolynomial", lambda: BivariatePolynomial({(0, 0): 1, (1, 1): 1, (2, 0): 0}),
     "BivariatePolynomial(coeffs=(((0, 0), 1), ((1, 1), 1)))",
     {"coeffs": (((0, 0), 1), ((1, 1), 1))}),
    ("GesselGamma", lambda: gessel_gamma(3),
     "GesselGamma(n=3, gammas=(((0, 2), 1), ((1, 0), 2)))",
     {"n": 3, "gammas": (((0, 2), 1), ((1, 0), 2))}),
    ("RCIndex", lambda: RCIndex(3, {(2,): 1, (1, 1): 1}),
     "RCIndex(n=3, terms=(((1, 1), 1), ((2,), 1)))",
     {"n": 3, "terms": (((1, 1), 1), ((2,), 1))}),
    ("TreeShape", lambda: TreeShape((None, (None, None))), "<TreeShape 10100>",
     {"structure": (None, (None, None))}),
]

RECORDS = [
    ("Violation", lambda: Violation("first-node-minus", (1,)),
     "Violation(kind='first-node-minus', nodes=(1,))",
     {"kind": "first-node-minus", "nodes": (1,)}),
    ("GammaFamilyMembership", lambda: classify(DiskTree.parse(TREE)),
     "GammaFamilyMembership(n=4, n_minus=2, in_dt1=False, in_dt2=False, "
     "violations=(Violation(kind='odd-chain-starts-minus', nodes=(1,)), "
     "Violation(kind='first-node-minus', nodes=(1,))), r_odd=1)",
     {"n": 4, "n_minus": 2, "in_dt1": False, "in_dt2": False,
      "violations": (Violation("odd-chain-starts-minus", (1,)),
                     Violation("first-node-minus", (1,))),
      "r_odd": 1}),
    ("AdjointResult", lambda: AdjointResult(2, "V", 4),
     "AdjointResult(chain=2, case='V', pivot=4)", {"chain": 2, "case": "V", "pivot": 4}),
    ("RepairResult", lambda: RepairResult(1, 2, 3, "attach-right", 5),
     "RepairResult(chain=1, case=2, cut_node=3, attach_kind='attach-right', attach_node=5)",
     {"chain": 1, "case": 2, "cut_node": 3, "attach_kind": "attach-right", "attach_node": 5}),
    ("SurgeryOp", lambda: SurgeryOp(1, "lock-left", 2, "I"),
     "SurgeryOp(cut_node=1, attach_kind='lock-left', attach_node=2, case='I')",
     {"cut_node": 1, "attach_kind": "lock-left", "attach_node": 2, "case": "I"}),
    ("ChainRecord", lambda: _view().chains[0], CHAIN_1,
     {"index": 1, "nodes": (1,), "starts_with": "-", "level": 0, "attachment": "lock",
      "group": 1}),
    ("GroupRecord", lambda: _view().groups[0], GROUP_1,
     {"index": 1, "chains": (1, 2), "level": 0, "hang_node": None}),
    ("RightChainView", _view,
     f"RightChainView(chains=({CHAIN_1}, {CHAIN_2}), groups=({GROUP_1},))", None),
    ("SpiralCheck", lambda: spiral_report(4).checks[0], CHECK_1,
     {"description": "d(4,3) < d(4,1)", "lower": 1, "upper": 4, "strict": True, "ok": True}),
    ("SpiralReport", lambda: spiral_report(4),
     f"SpiralReport(n=4, family='derangement', checks=({CHECK_1}, {CHECK_2}), "
     "equalities=('d(4,1) = d(4,2) = 4',))", None),
    ("CheckRecord", lambda: CheckRecord("tables.S.1", "S_1", "pass", "(1,)", "(1,)"),
     "CheckRecord(id='tables.S.1', subject='S_1', status='pass', expected='(1,)', "
     "actual='(1,)')",
     {"id": "tables.S.1", "subject": "S_1", "status": "pass", "expected": "(1,)",
      "actual": "(1,)"}),
]
FROZEN = VALUES + RECORDS


@pytest.mark.parametrize("name, make, text, fields", FROZEN, ids=[c[0] for c in FROZEN])
def test_repr_and_fields(name, make, text, fields):
    value = make()
    assert type(value).__name__ == name
    assert repr(value) == text
    for field, expected in (fields or {}).items():
        assert getattr(value, field) == expected


@pytest.mark.parametrize("name, make, text, fields", FROZEN, ids=[c[0] for c in FROZEN])
def test_equal_values_hash_their_field_tuple(name, make, text, fields):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if name == "TreeShape":
        assert hash(a) == hash(a.key())
    elif fields is not None:
        assert hash(a) == hash(tuple(fields.values()))


@pytest.mark.parametrize("name, make, text, fields", VALUES, ids=[c[0] for c in VALUES])
def test_values_differ_from_tuples_and_other_values(name, make, text, fields):
    value = make()
    as_tuple = tuple(fields.values())
    assert not isinstance(value, tuple)
    assert value != as_tuple and not value == as_tuple
    assert value != as_tuple[0]
    assert value != object()
    assert all(value != other() for other_name, other, *_ in VALUES if other_name != name)


def test_unequal_values_of_one_class():
    assert Permutation((2, 1)) != Permutation((1, 2))
    assert IntPolynomial((1, 1)) != IntPolynomial((1, 2))
    assert TreeShape((None, None)) != TreeShape(((None, None), None))
    assert gamma_decompose(IntPolynomial((1, 4, 1)), 2) != gamma_decompose(
        IntPolynomial((1, 2, 1)), 2)
    assert Violation("first-node-minus", (1,)) != Violation("first-node-minus", (2,))


def test_fields_by_position_or_keyword():
    vec = gamma_decompose(IntPolynomial((1, 4, 1)), 2)
    assert GammaVector(darga=2, start=0, gammas=(1, 2)) == vec
    assert GammaVector(2, 0, gammas=(1, 2)) == vec
    assert GesselGamma(gammas=(((0, 2), 1), ((1, 0), 2)), n=3) == gessel_gamma(3)
    assert TreeShape(structure=None) == TreeShape(None)
    for wrong in (lambda: GammaVector(2, 0), lambda: GammaVector(2, 0, (1,), 4),
                  lambda: GammaVector(2, 0, (1,), darga=2),
                  lambda: GammaVector(2, 0, (1,), other=1),
                  lambda: GesselGamma(n=3), lambda: TreeShape()):
        with pytest.raises(TypeError):
            wrong()


@pytest.mark.parametrize("name, make, text, fields", FROZEN, ids=[c[0] for c in FROZEN])
def test_assignment_raises_attribute_error(name, make, text, fields):
    value = make()
    field = next(iter(fields)) if fields else "chains" if name == "RightChainView" else "n"
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.no_such_field = 0
    assert repr(value) == before


@pytest.mark.parametrize("name, make, text, fields", FROZEN, ids=[c[0] for c in FROZEN])
def test_pickle_and_copy_keep_the_value(name, make, text, fields):
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def _left_comb(depth: int, node):
    root = None
    for _ in range(depth):
        root = node(root)
    return root


# Trees at a depth where the nested root itself would pickle or copy one
# level per frame, past the recursion limit, and the empty trees.
DEEP = {
    "DiskTree": lambda depth: DiskTree(_left_comb(depth, lambda t: ("+", t, None))),
    "SchroderWord": lambda depth: SchroderWord(_left_comb(depth, lambda t: ("-", t, None))),
    "TreeShape": lambda depth: TreeShape(_left_comb(depth, lambda t: (None, t))),
}


@pytest.mark.parametrize("name", sorted(DEEP))
@pytest.mark.parametrize("depth", [0, 3000])
def test_pickle_and_copy_at_any_depth(name, depth):
    value = DEEP[name](depth)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_pickled_tree_leaves_its_memos_behind():
    used = DiskTree.parse(TREE)
    used.right_chains()
    assert pickle.dumps(used) == pickle.dumps(DiskTree.parse(TREE))
    twin = pickle.loads(pickle.dumps(used))
    assert twin.right_chains() == used.right_chains()


def test_verification_report_is_mutable_and_unhashable():
    report = VerificationReport("tables")
    assert repr(report) == "VerificationReport(suite='tables', records=[], wall_time=0.0)"
    record = CheckRecord("a", "b", "pass", "1", "1")
    report.records.append(record)
    report.wall_time = 1.5
    report.suite = "identities"
    assert repr(report) == (f"VerificationReport(suite='identities', records=[{record!r}], "
                            "wall_time=1.5)")
    assert VerificationReport("tables") == VerificationReport("tables")
    assert VerificationReport("tables") != VerificationReport("identities")
    assert VerificationReport("tables").records is not VerificationReport("tables").records
    with pytest.raises(TypeError):
        hash(report)
    assert copy.deepcopy(report) == report
