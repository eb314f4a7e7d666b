"""Acceptance gate: the six pinned criteria, each with its stated budget.

Every check here is exact (integer arithmetic); the only tolerances are
wall-clock budgets on the enumeration-heavy criteria.  Each criterion
prints one summary line; run with ``pytest -s tests/test_acceptance.py``
to see them.
"""

import time

from descpoly.bijection import (
    bijection_certificate,
    classify,
    order_independence_certificate,
)
from descpoly.families import (
    catalan,
    complement_poly,
    complement_spiral_report,
    cubic_equation_residual,
    derangement_count,
    derangement_poly,
    desarrangement_histogram,
    eulerian_poly,
    separable_gamma,
    separable_poly,
    spiral_report,
    verify_series_identity,
)
from descpoly.gessel import GesselGamma, gessel_gamma
from descpoly.permutations import all_permutations, separable_permutations
from descpoly.polynomials import is_palindromic, is_unimodal
from descpoly.realroots import is_real_rooted
from descpoly.rcindex import gamma_from_shapes, rc_index
from descpoly.trees import enumerate_shapes, enumerate_trees, word_to_tree
from descpoly.verify import D7_COMPUTED, D_TABLE, PHI_TABLE, S_GAMMA_TABLE, S_TABLE
from descpoly.words import enumerate_words, sweep, word_to_perm

SCHRODER = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098)


def _report(criterion: str, started: float, budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)"
    if budget is not None:
        assert elapsed < budget, f"{criterion} exceeded {budget}s ({elapsed:.2f}s)"
        line += f" [budget {budget:.0f}s]"
    print(line)


def test_criterion_1_table_reproduction():
    started = time.monotonic()
    for n, coeffs in S_TABLE.items():
        assert separable_poly(n).coeffs == coeffs
        assert separable_gamma(n).gammas == S_GAMMA_TABLE[n]
    for n, coeffs in D_TABLE.items():
        assert derangement_poly(n).coeffs == coeffs
    d7 = derangement_poly(7)
    assert d7.coeffs == D7_COMPUTED
    assert d7[2] == 392  # documented discrepancy: 382 was circulated
    assert d7(1) == 1854 == derangement_count(7)  # the row-sum arbiter
    _report("1 (tables)", started, budget=10.0)


def test_criterion_2_counting():
    started = time.monotonic()
    for n in range(1, 8):
        expected = SCHRODER[n - 1]
        assert sum(1 for _ in separable_permutations(n)) == expected
        assert sum(1 for _ in enumerate_words(n)) == expected
        assert sum(1 for _ in enumerate_trees(n)) == expected
    for n in range(1, 11):
        shapes = list(enumerate_shapes(n))
        assert len(shapes) == catalan(n - 1)
        assert sum(2**s.r for s in shapes) == SCHRODER[n - 1]
    _report("2 (counting)", started)


def _bijection_block(n_range) -> set[str]:
    cases_seen: set[str] = set()
    for n in n_range:
        for p in separable_permutations(n):
            w = sweep(p)
            assert word_to_perm(w) == p
            assert word_to_tree(w).to_perm() == p
            assert w.minus_positions() == p.descent_set()
        for k in range((n - 1) // 2 + 1):
            cert = bijection_certificate(n, k)
            assert cert["bijection_ok"]
            gamma_k = separable_gamma(n)[k]
            assert cert["dt1_count"] == cert["dt2_count"] == gamma_k
            cases_seen.update(cert["case_histogram"])
        for t in enumerate_trees(n):
            m = classify(t)
            if m.in_dt1 ^ m.in_dt2:
                assert order_independence_certificate(t, trials=10, seed=n)
    return cases_seen


def test_criterion_3_bijection_suite_n8():
    started = time.monotonic()
    cases = _bijection_block(range(1, 9))
    assert cases == {"I", "II", "III", "IV", "V", "VI", "1", "2", "3", "4", "5", "6"}
    _report("3 (bijection, n<=8)", started, budget=60.0)


def test_criterion_3_bijection_suite_n9():
    started = time.monotonic()
    _bijection_block([9])
    _report("3 (bijection, n=9)", started, budget=600.0)


def test_criterion_4_identity_suite():
    started = time.monotonic()
    # additivity of descents and inverse descents under both sums
    for total in range(2, 9):
        for a in range(1, total):
            for p in all_permutations(a):
                for q in all_permutations(total - a):
                    d, k = p.direct_sum(q), p.skew_sum(q)
                    assert d.des() == p.des() + q.des()
                    assert d.ides() == p.ides() + q.ides()
                    assert k.des() == p.des() + q.des() + 1
                    assert k.ides() == p.ides() + q.ides() + 1
    for n in range(2, 11):
        assert verify_series_identity(n, 12)
    for n in range(1, 9):
        assert separable_poly(n, "enum") == separable_poly(n)
        assert derangement_poly(n, "enum") == derangement_poly(n)
        assert eulerian_poly(n, "enum") == eulerian_poly(n)
    assert all(c.is_zero() for c in cubic_equation_residual(10))
    for n, table in PHI_TABLE.items():
        assert rc_index(n).as_dict() == table
    for n in range(1, 10):
        idx = rc_index(n)
        assert idx.evaluate(1) == catalan(n - 1)
        assert idx.evaluate(2) == SCHRODER[n - 1]
        assert idx.substitute_ab() == separable_poly(n)
    for n in range(1, 11):
        gv = separable_gamma(n)
        for k in range((n - 1) // 2 + 1):
            assert gamma_from_shapes(n, k) == gv[k]
    for n in range(2, 9):
        assert desarrangement_histogram(n) == derangement_poly(n)
    _report("4 (identities)", started)


def test_criterion_5_proven_properties():
    started = time.monotonic()
    equalities = []
    for n in range(2, 41):
        rep = spiral_report(n)
        assert rep.passed
        equalities.extend(rep.equalities)
    assert equalities == ["d(4,1) = d(4,2) = 4"]  # exactly one permitted
    for n in range(1, 13):
        s = separable_poly(n)
        assert is_unimodal(s) and is_palindromic(s, n - 1)
    for n in range(2, 41):
        assert complement_spiral_report(n).passed
        assert is_unimodal(complement_poly(n))
    _report("5 (proven properties)", started)


def test_criterion_6_conjecture_evidence():
    started = time.monotonic()
    for n in range(2, 13):
        assert is_real_rooted(separable_poly(n))
        assert is_real_rooted(derangement_poly(n))
    for n in range(2, 8):
        g = gessel_gamma(n)
        assert isinstance(g, GesselGamma)
        assert g.is_nonnegative()
        assert g.dominates_separable_gamma()
    _report("6 (conjecture evidence)", started)
