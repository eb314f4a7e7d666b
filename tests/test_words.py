"""Schröder words: sweep, grammar, enumeration, the descent correspondence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from descpoly.permutations import (
    PATTERN_2413,
    PATTERN_3142,
    Permutation,
    all_permutations,
    find_pattern,
    is_separable,
    parse_permutation,
    separable_permutations,
)
from descpoly.words import (
    InvalidWordError,
    NotSeparableError,
    SchroderWord,
    enumerate_words,
    sweep,
    word_to_perm,
)

SCHRODER = [1, 2, 6, 22, 90, 394, 1806]


def test_sweep_worked_example():
    w = sweep(parse_permutation("984132756"))
    assert str(w) == "((1-1)-((1-(1+(1-1)))+(1-(1+1))))"


def test_sweep_singleton():
    assert str(sweep(Permutation((1,)))) == "1"


def test_sweep_rejects_the_two_minimal_non_separables():
    for word in ((2, 4, 1, 3), (3, 1, 4, 2)):
        with pytest.raises(NotSeparableError) as exc:
            sweep(Permutation(word))
        assert exc.value.positions == (1, 2, 3, 4)


def test_sweep_failure_carries_a_real_witness():
    # all 30 non-separable permutations of 5 produce a genuine occurrence
    failures = 0
    for p in all_permutations(5):
        try:
            sweep(p)
        except NotSeparableError as exc:
            failures += 1
            values = [p[i] for i in exc.positions]
            ranks = sorted(range(4), key=lambda a: values[a])
            rel = [0] * 4
            for r, a in enumerate(ranks, 1):
                rel[a] = r
            assert tuple(rel) == exc.pattern.word
    assert failures == 120 - 90


def test_word_grammar_roundtrip():
    for text in ("1", "(1+1)", "(1-1)", "((1-1)-((1-(1+(1-1)))+(1-(1+1))))"):
        assert str(SchroderWord.parse(text)) == text
    assert str(SchroderWord.parse(" ( 1 + 1 ) ")) == "(1+1)"


def test_word_grammar_rejects_bad_input():
    for text in ("", "(1+1", "1+1", "(1*1)", "(1+1))", "11"):
        with pytest.raises(InvalidWordError):
            SchroderWord.parse(text)


def test_right_chain_restriction_rejected():
    # a right operand repeating its parent's operator cannot arise
    for text in ("(1+(1+1))", "(1-(1-1))", "((1+1)-(1-(1-1)))"):
        with pytest.raises(InvalidWordError):
            SchroderWord.parse(text)
    # mixed nesting is fine
    SchroderWord.parse("(1+(1-1))")
    SchroderWord.parse("(1-(1+1))")


@pytest.mark.parametrize("expr", [
    ("x", None, None),                       # not an operator
    ("+", None, ("+", None, None)),          # right-chain restriction
    ("x", "1", "1"),                         # the atom is None, not "1"
    ("+", None, None, None),
    ["+", None, None],
    "1",
])
def test_constructor_rejects_what_is_not_a_word(expr):
    with pytest.raises(InvalidWordError):
        SchroderWord(expr)


def test_word_to_perm_small():
    assert str(word_to_perm(SchroderWord.parse("(1+1)"))) == "12"
    assert str(word_to_perm(SchroderWord.parse("(1-1)"))) == "21"
    assert str(word_to_perm(SchroderWord.parse("((1+1)-1)"))) == "231"


def test_word_to_perm_inverts_sweep_exhaustive():
    for n in range(1, 8):
        for p in separable_permutations(n):
            assert word_to_perm(sweep(p)) == p


def test_sweep_inverts_word_to_perm_exhaustive():
    for n in range(1, 8):
        for w in enumerate_words(n):
            p = word_to_perm(w)
            assert is_separable(p)
            assert sweep(p).expr == w.expr


def test_roundtrip_randomized_larger():
    rng = random.Random(181)
    for n in (9, 10, 11):
        for _ in range(60):
            # random separable permutation built from random sums
            p = _random_separable(rng, n)
            assert word_to_perm(sweep(p)) == p


def _random_separable(rng, n):
    if n == 1:
        return Permutation((1,))
    k = rng.randint(1, n - 1)
    left, right = _random_separable(rng, k), _random_separable(rng, n - k)
    return left.direct_sum(right) if rng.random() < 0.5 else left.skew_sum(right)


def test_operator_sequence_matches_descents():
    p = parse_permutation("984132756")
    w = sweep(p)
    assert w.operators() == ("-", "-", "-", "+", "-", "+", "-", "+")
    assert w.minus_positions() == p.descent_set()
    assert SchroderWord.parse("(1+1)").operators() == ("+",)
    for n in range(1, 8):
        for q in separable_permutations(n):
            assert sweep(q).minus_positions() == q.descent_set()


def test_enumeration_counts_and_uniqueness():
    for n, count in enumerate(SCHRODER, start=1):
        words = list(enumerate_words(n))
        assert len(words) == count
        assert len({str(w) for w in words}) == count
    assert {str(w) for w in enumerate_words(2)} == {"(1+1)", "(1-1)"}


def test_enumeration_descent_histogram_n4():
    from collections import Counter
    hist = Counter(len(w.minus_positions()) for w in enumerate_words(4))
    assert [hist[k] for k in range(4)] == [1, 10, 10, 1]


def _whole_input_witness(p):
    """The first 2413, else 3142, searched for over every entry."""
    for pattern in (PATTERN_2413, PATTERN_3142):
        hit = find_pattern(p, pattern)
        if hit is not None:
            return pattern, hit
    return None


def _sweep_witness(p):
    try:
        sweep(p)
    except NotSeparableError as exc:
        return exc.pattern, exc.positions
    return None


def test_sweep_agrees_with_pattern_avoidance_exhaustive():
    # is_separable runs the same stack pass as sweep, so the independent
    # reference is the pattern search over the whole input; sweep fails
    # exactly when it finds a pattern, and with the same witness.
    failures = 0
    for n in range(1, 9):
        for p in all_permutations(n):
            expected = _whole_input_witness(p)
            assert _sweep_witness(p) == expected
            failures += expected is not None
    assert failures == 2 + 30 + 326 + 3234 + 31762   # n! minus Schröder numbers


@settings(max_examples=60, deadline=None)
@given(st.integers(9, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_is_separable_agrees_with_pattern_avoidance_random(word):
    p = Permutation(word)
    assert is_separable(p) == p.avoids(PATTERN_2413, PATTERN_3142)


@settings(max_examples=200, deadline=None)
@given(st.integers(9, 14).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_witness_is_the_first_occurrence_in_the_whole_input_random(word):
    p = Permutation(word)
    assert _sweep_witness(p) == _whole_input_witness(p)
