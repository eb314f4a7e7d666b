"""Verification suites: pinned tables, bijections, identities, conjectures.

Each suite runs a list of checks and returns a report.  A check ends in one
of three states:

* ``pass`` / ``fail`` in the obvious way;
* ``documented-discrepancy`` for the one known inconsistency between a
  previously circulated table and what internal consistency forces: the
  degree-7 derangement polynomial's t^2 coefficient (row sums pin 392, not
  the circulated 382).

Reports serialize deterministically: records are sorted by id and wall
time is excluded from the JSON form.

Each suite imports the modules it uses when it runs, so that a process
loads only its suite's modules: ``conjectures`` none of the tree and word
modules, ``tables`` and ``identities`` none of ``bijection``, ``gessel``
and ``realroots``.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

from . import families
from .families import PolyCache  # noqa: F401  (re-exported under its old name)
from .value import Value, need

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "documented-discrepancy"

SCHRODER = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098)

# Pinned coefficient tables (ascending exponent).
S_TABLE = {
    1: (1,),
    2: (1, 1),
    3: (1, 4, 1),
    4: (1, 10, 10, 1),
    5: (1, 20, 48, 20, 1),
    6: (1, 35, 161, 161, 35, 1),
}
S_GAMMA_TABLE = {1: (1,), 2: (1,), 3: (1, 2), 4: (1, 7), 5: (1, 16, 10), 6: (1, 30, 61)}
D_TABLE = {
    2: (0, 1),
    3: (0, 2),
    4: (0, 4, 4, 1),
    5: (0, 8, 24, 12),
    6: (0, 16, 104, 120, 24, 1),
}
# The circulated degree-7 table shows 382 at t^2; the recurrence and the
# row sum (1854 derangements of 7) force 392.
D7_COMPUTED = (0, 32, 392, 896, 480, 54)
D7_CIRCULATED_T2 = 382
# The n at which each search case of the bijection first appears.
CASE_FIRST_SEEN = {"I": 3, "1": 3, "II": 5, "V": 5, "2": 5, "3": 5, "5": 5,
                   "III": 6, "VI": 7, "4": 7, "6": 7, "IV": 8}
# Depths of the conjectures suite's palindromy and Sturm checks and its Gessel grids.
ROOTS_MAX_N = 12
GESSEL_MAX_N = 7
PHI_TABLE = {
    1: {(): 1},
    2: {(1,): 1},
    3: {(1, 1): 1, (2,): 1},
    4: {(1, 1, 1): 1, (1, 2): 1, (2, 1): 2, (3,): 1},
    5: {
        (1, 1, 1, 1): 1, (1, 1, 2): 1, (1, 2, 1): 2, (2, 1, 1): 3,
        (2, 2): 2, (1, 3): 1, (3, 1): 3, (4,): 1,
    },
    6: {
        (1, 1, 1, 1, 1): 1, (1, 1, 1, 2): 1, (1, 1, 2, 1): 2, (1, 2, 1, 1): 3,
        (2, 1, 1, 1): 4, (1, 2, 2): 2, (2, 1, 2): 3, (2, 2, 1): 5,
        (1, 1, 3): 1, (1, 3, 1): 3, (3, 1, 1): 6, (2, 3): 2, (3, 2): 3,
        (1, 4): 1, (4, 1): 4, (5,): 1,
    },
}


class CheckRecord(NamedTuple):
    id: str
    subject: str
    status: str
    expected: str
    actual: str


class VerificationReport(Value):
    """The one mutable value: a suite appends records, and the runner sets
    the wall time."""

    __slots__ = ("suite", "records", "wall_time")
    suite: str
    records: list[CheckRecord]
    wall_time: float

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite: str):
        self.suite = suite
        self.records = []
        self.wall_time = 0.0

    def check(self, cid: str, subject: str, expected, actual) -> None:
        status = PASS if expected == actual else FAIL
        self.records.append(CheckRecord(cid, subject, status, repr(expected), repr(actual)))

    def check_true(self, cid: str, subject: str, ok: bool) -> None:
        self.records.append(CheckRecord(cid, subject, PASS if ok else FAIL, "true", repr(ok)))

    def note_discrepancy(self, cid: str, subject: str, expected, actual) -> None:
        self.records.append(CheckRecord(cid, subject, DISCREPANCY, repr(expected), repr(actual)))

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.records)

    def counts(self) -> dict[str, int]:
        tally = Counter(r.status for r in self.records)
        return {status: tally[status] for status in (PASS, FAIL, DISCREPANCY)}

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=lambda r: r.id)

    def to_json_obj(self) -> dict:
        return {
            "format_version": 1,
            "suite": self.suite,
            "passed": self.passed,
            "counts": self.counts(),
            "records": [r._asdict() for r in self.sorted_records()],
        }

    def to_text(self) -> str:
        lines = []
        for r in self.sorted_records():
            line = f"[{r.status:>4}] {r.id}: {r.subject}"
            if r.status != PASS:
                line += f" (expected {r.expected}, got {r.actual})"
            lines.append(line)
        c = self.counts()
        lines.append(
            f"suite {self.suite}: {c[PASS]} pass, {c[FAIL]} fail, "
            f"{c[DISCREPANCY]} documented-discrepancy "
            f"({self.wall_time:.2f}s)"
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["id,subject,status,expected,actual"]
        for r in self.sorted_records():
            rows.append(",".join('"' + f.replace('"', '""') + '"' for f in r))
        return "\n".join(rows)


def tables_suite() -> VerificationReport:
    """Pinned polynomial tables, gamma vectors, rc-index listings, counts."""
    from . import rcindex
    from .permutations import separable_permutations
    from .trees import enumerate_shapes, enumerate_trees
    from .words import enumerate_words

    s = VerificationReport("tables")
    for n, coeffs in S_TABLE.items():
        s.check(f"tables.S.{n}", f"separable descent polynomial, n={n}",
                coeffs, families.separable_poly(n).coeffs)
        s.check(f"tables.S-gamma.{n}", f"gamma vector of S_{n}",
                S_GAMMA_TABLE[n], families.separable_gamma(n).gammas)
    for n, coeffs in D_TABLE.items():
        s.check(f"tables.D.{n}", f"derangement descent polynomial, n={n}",
                coeffs, families.derangement_poly(n).coeffs)
    d7 = families.derangement_poly(7)
    s.check("tables.D.7", "derangement descent polynomial, n=7 (computed)",
            D7_COMPUTED, d7.coeffs)
    s.check("tables.D.7.rowsum", "row sum equals the derangement count 1854",
            families.derangement_count(7), d7(1))
    s.note_discrepancy(
        "tables.D.7.t2",
        "circulated t^2 coefficient fails the row-sum check; 392 is forced",
        D7_CIRCULATED_T2, d7[2],
    )
    for n, table in PHI_TABLE.items():
        s.check(f"tables.rc-index.{n}", f"rc-index listing, n={n}",
                table, rcindex.rc_index(n).as_dict())
    for n, count in enumerate(SCHRODER[:7], start=1):
        s.check(f"tables.count.words.{n}", f"Schröder words of {n} leaves",
                count, sum(1 for _ in enumerate_words(n)))
        s.check(f"tables.count.trees.{n}", f"di-sk trees for n={n}",
                count, sum(1 for _ in enumerate_trees(n)))
        s.check(f"tables.count.separable.{n}", f"separable permutations of {n}",
                count, sum(1 for _ in separable_permutations(n)))
    for n in range(1, 11):
        chain_counts = [sh.r for sh in enumerate_shapes(n)]
        s.check(f"tables.count.shapes.{n:02d}", f"shape classes for n={n}",
                families.catalan(n - 1), len(chain_counts))
        s.check(f"tables.count.orbit-sum.{n:02d}",
                f"sum of 2^r over shapes equals the Schröder number, n={n}",
                SCHRODER[n - 1], sum(2**r for r in chain_counts))
    return s


def bijection_suite(max_n: int = 8) -> VerificationReport:
    """Round trips, statistic transport, family counts, inverse maps."""
    from .bijection import bijection_certificate, classify, order_independence_certificate
    from .permutations import separable_permutations
    from .trees import enumerate_trees, perm_to_tree
    from .words import enumerate_words, sweep, word_to_perm

    s = VerificationReport("bijection")
    cases_seen: set[str] = set()
    ok_order = True
    for n in range(1, max_n + 1):
        perms = list(separable_permutations(n))
        words = [sweep(p) for p in perms]
        trees = list(enumerate_trees(n))
        tree_perms = [t.to_perm() for t in trees]
        ok_round = all(word_to_perm(w) == p for w, p in zip(words, perms))
        ok_stat = (all(w.minus_positions() == p.descent_set() for w, p in zip(words, perms))
                   and all(p.descent_set() == t.minus_positions()
                           for p, t in zip(tree_perms, trees)))
        # every tree comes back from its permutation, and the trees'
        # permutations are the separable ones, each once
        ok_tree = (all(perm_to_tree(p) == t for p, t in zip(tree_perms, trees))
                   and Counter(tree_perms) == Counter(perms))
        for t in trees:
            m = classify(t)
            if m.in_dt1 != m.in_dt2 and not order_independence_certificate(
                    t, trials=10, seed=n):
                ok_order = False
        s.check_true(f"bijection.roundtrip.perm.{n}",
                     f"sweep then rebuild is the identity, n={n}", ok_round)
        s.check_true(f"bijection.statistic.{n}",
                     f"'-' positions equal the descent set, n={n}", ok_stat)
        ok_word = all(
            sweep(word_to_perm(w)).expr == w.expr for w in enumerate_words(n)
        )
        s.check_true(f"bijection.roundtrip.word.{n}",
                     f"rebuild then sweep is the identity, n={n}", ok_word)
        s.check_true(f"bijection.roundtrip.tree.{n}",
                     f"tree/word conversion round trip, n={n}", ok_tree)
        gamma = families.separable_gamma(n)
        for k in range((n - 1) // 2 + 1):
            cert = bijection_certificate(n, k)
            s.check(f"bijection.family-count.{n}.{k}",
                    f"family sizes equal gamma_{{{n},{k}}}",
                    (gamma[k], gamma[k], True),
                    (cert["dt1_count"], cert["dt2_count"], cert["bijection_ok"]))
            cases_seen.update(cert["case_histogram"])
    s.check("bijection.case-coverage",
            f"the search cases first seen by n={max_n} all appear",
            sorted(case for case, first in CASE_FIRST_SEEN.items() if first <= max_n),
            sorted(cases_seen))
    s.check_true("bijection.order-independence",
                 f"10 random application orders agree, n<={max_n}", ok_order)
    return s


def identities_suite(max_n: int = 8) -> VerificationReport:
    """Sum rules, recurrences vs enumeration, generating function checks.

    Only the enumeration-backed checks follow max_n, clamped at
    ``BRUTE_FORCE_CAP``; the series, cubic, rc-index and gamma-shapes
    checks run at fixed ranges.
    """
    from . import rcindex
    from .permutations import all_permutations

    s = VerificationReport("identities")
    enum_n = min(max_n, families.BRUTE_FORCE_CAP)
    members = (("S", families.separable_poly), ("D", families.derangement_poly),
               ("A", families.eulerian_poly))
    ok_add = True
    for n in range(1, enum_n + 1):
        for a in range(1, n):
            for p in all_permutations(a):
                for q in all_permutations(n - a):
                    d = p.direct_sum(q)
                    k = p.skew_sum(q)
                    if not (
                        d.des() == p.des() + q.des()
                        and d.ides() == p.ides() + q.ides()
                        and k.des() == p.des() + q.des() + 1
                        and k.ides() == p.ides() + q.ides() + 1
                    ):
                        ok_add = False
        for name, member in members:
            s.check(f"identities.method.{name}.{n}",
                    f"{name} recurrence equals enumeration, n={n}",
                    member(n, "enum"), member(n))
        if n >= 2:
            s.check(f"identities.desarrangement.{n}",
                    f"inverse-descent histogram over desarrangements is D_{n}",
                    families.derangement_poly(n), families.desarrangement_histogram(n))
        ks = range((n - 1) // 2 + 1)
        gamma, histogram = families.separable_gamma(n), families.separable_gamma_histogram(n)
        s.check(f"identities.gamma-perms.{n}",
                f"gamma counts no-double-descent separable permutations, n={n}",
                tuple(gamma[k] for k in ks), tuple(histogram[k] for k in ks))
        s.check(f"identities.split.{n}", f"root-label split recurrences, n={n}",
                families.separable_split_enum(n), families.separable_split(n))
    s.check_true("identities.sum-statistics",
                 f"descent/inverse-descent additivity of the two sums, n<={enum_n}",
                 ok_add)
    for n in range(2, 11):
        s.check_true(f"identities.series.{n:02d}",
                     f"rational generating identity for derangements, n={n}, order 12",
                     families.verify_series_identity(n, 12))
    residual = families.cubic_equation_residual(10)
    s.check_true("identities.cubic",
                 "cubic functional equation residual vanishes through z^10",
                 all(c.is_zero() for c in residual))
    for n in range(1, 10):
        ri = rcindex.rc_index(n)
        s.check(f"identities.rc-eval-1.{n}", f"rc-index at 1 is Catalan, n={n}",
                families.catalan(n - 1), ri.evaluate(1))
        s.check(f"identities.rc-eval-2.{n}", f"rc-index at 2 is Schröder, n={n}",
                SCHRODER[n - 1], ri.evaluate(2))
        s.check(f"identities.rc-substitute.{n}",
                f"rc-index substitution recovers S_{n}",
                families.separable_poly(n), ri.substitute_ab())
    for n in range(1, 11):
        ks = range((n - 1) // 2 + 1)
        gamma = families.separable_gamma(n)
        s.check(f"identities.gamma-shapes.{n:02d}",
                f"shape-weighted sum gives the gamma vector, n={n}",
                tuple(gamma[k] for k in ks), tuple(rcindex.gamma_from_shapes(n, k) for k in ks))
    return s


def conjectures_suite(max_n: int = 40) -> VerificationReport:
    """Evidence runs: spiral interleaving to max_n, S palindromy and
    real-rootedness to ``ROOTS_MAX_N``, gamma grids to ``GESSEL_MAX_N``.

    Everything here is evidence at the stated ranges, not proof.
    """
    from .gessel import gessel_gamma, two_var_poly
    from .polynomials import is_palindromic, is_unimodal
    from .realroots import is_real_rooted

    s = VerificationReport("conjectures")
    for n in range(2, max_n + 1):
        rep = families.spiral_report(n)
        s.check_true(f"conjectures.spiral.D.{n:02d}",
                     f"derangement spiral interleaving (evidence), n={n}",
                     rep.passed)
        if n == 4:
            s.check("conjectures.spiral.D.04.equality",
                    "the single permitted equality d(4,1) = d(4,2) = 4",
                    ("d(4,1) = d(4,2) = 4",), rep.equalities)
        rep2 = families.complement_spiral_report(n)
        s.check_true(f"conjectures.spiral.complement.{n:02d}",
                     f"complement spiral interleaving (evidence), n={n}",
                     rep2.passed)
        s.check_true(f"conjectures.unimodal.{n:02d}",
                     f"derangement and complement polynomials unimodal, n={n}",
                     is_unimodal(families.derangement_poly(n))
                     and is_unimodal(families.complement_poly(n)))
    for n in range(2, ROOTS_MAX_N + 1):
        sn = families.separable_poly(n)
        s.check_true(f"conjectures.palindromic.S.{n:02d}",
                     f"S_{n} palindromic and unimodal",
                     is_palindromic(sn, n - 1) and is_unimodal(sn))
        s.check_true(f"conjectures.real-rooted.{n:02d}",
                     f"S_{n} and D_{n} real-rooted (evidence)",
                     is_real_rooted(sn) and is_real_rooted(families.derangement_poly(n)))
    for n in range(2, GESSEL_MAX_N + 1):
        g = gessel_gamma(n)
        s.check_true(f"conjectures.gessel.{n}",
                     f"two-variable gamma grid nonnegative and dominating (evidence), n={n}",
                     g.is_nonnegative() and g.dominates_separable_gamma())
        s.check_true(f"conjectures.gessel-symmetry.{n}",
                     f"joint statistic polynomial symmetric, n={n}",
                     two_var_poly(n).is_symmetric())
    return s


SUITES: dict[str, Callable[..., VerificationReport]] = {
    "tables": tables_suite,
    "bijection": bijection_suite,
    "identities": identities_suite,
    "conjectures": conjectures_suite,
}


def verify_suite(name: str, max_n: Optional[int] = None) -> VerificationReport:
    """Run one named suite, optionally overriding its exhaustive depth.

    Raises ValueError for a depth that is no ``int`` of at least 1
    (``value.need``) and for any depth given to ``tables``, which has none.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_n is not None:
        need("max_n", max_n, 1)
        if name == "tables":
            raise ValueError("the tables suite has no depth to set")
    start = time.monotonic()
    report = SUITES[name]() if max_n is None else SUITES[name](max_n)
    report.wall_time = time.monotonic() - start
    return report
