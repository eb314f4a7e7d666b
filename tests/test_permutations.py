"""Permutation statistics against brute-force definitions."""

import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from descpoly.permutations import (
    PATTERN_2413,
    PATTERN_3142,
    Permutation,
    all_permutations,
    derangements,
    desarrangements,
    find_pattern,
    identity,
    insert_value,
    is_separable,
    parse_permutation,
    separable_permutations,
)

perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(Permutation)


def test_constructor_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_descent_set_examples():
    p = parse_permutation("984132756")
    assert sorted(p.descent_set()) == [1, 2, 3, 5, 7]
    assert p.des() == 5
    assert identity(6).descent_set() == frozenset()
    # 123 + 21 = 12354 has a single descent
    q = Permutation((1, 2, 3)).direct_sum(Permutation((2, 1)))
    assert str(q) == "12354" and q.des() == 1


def test_double_descent_convention():
    # boundary values are +infinity: position 1 counts, position n never
    assert Permutation((2, 1)).double_descents() == 1
    assert Permutation((1, 3, 2)).double_descents() == 0
    assert Permutation((2, 3, 1)).double_descents() == 0
    assert identity(5).double_descents() == 0
    # exactly two members of S_3 have no double descent and one descent
    hits = [p for p in all_permutations(3) if p.double_descents() == 0 and p.des() == 1]
    assert len(hits) == 2


def test_ides_examples():
    assert Permutation((2, 3, 1)).ides() == 1
    assert identity(4).ides() == 0
    assert Permutation((3, 4, 1, 2)).ides() == 1


@given(perms)
def test_ides_is_inverse_descents(p):
    assert p.ides() == p.inverse().des()


def test_ides_matches_inverse_exhaustive():
    for n in range(1, 9):
        for p in all_permutations(n):
            assert p.ides() == p.inverse().des()


def test_sum_examples():
    P = Permutation
    assert str(P((2, 1)).direct_sum(P((1, 2, 3)))) == "21345"
    assert str(P((1, 2, 3)).skew_sum(P((2, 1)))) == "34521"
    assert str(P((2, 1)).skew_sum(P((1, 2, 3)))) == "54123"
    assert str(P((1,)).direct_sum(P((1,))).skew_sum(P((1,)))) == "231"
    assert str(P((1,)).direct_sum(P((1,)).skew_sum(P((1,))))) == "132"
    two_sided = P((1, 2)).skew_sum(P((2, 3, 1)).skew_sum(P((3, 1, 4, 2))))
    assert str(two_sided) == "896753142"


def test_sum_statistics_additivity_exhaustive():
    # des/ides additivity for all pairs with total length <= 7 (the n = 8
    # slice runs in the acceptance suite)
    for total in range(2, 8):
        for a in range(1, total):
            for p in all_permutations(a):
                for q in all_permutations(total - a):
                    d, k = p.direct_sum(q), p.skew_sum(q)
                    assert d.des() == p.des() + q.des()
                    assert d.ides() == p.ides() + q.ides()
                    assert k.des() == p.des() + q.des() + 1
                    assert k.ides() == p.ides() + q.ides() + 1


@given(perms)
def test_reverse_involution(p):
    n = len(p)
    assert p.reverse().des() == n - 1 - p.des()
    assert is_separable(p) == is_separable(p.reverse())


def _naive_find(p, pattern):
    """1-based positions of the first occurrence: ``combinations`` yields
    position sets in lexicographic order."""
    m = len(pattern)
    for positions in itertools.combinations(range(len(p.word)), m):
        values = [p.word[i] for i in positions]
        order = sorted(range(m), key=lambda i: values[i])
        rel = [0] * m
        for rank, i in enumerate(order, start=1):
            rel[i] = rank
        if tuple(rel) == pattern.word:
            return tuple(i + 1 for i in positions)
    return None


def test_pattern_examples():
    p = Permutation((2, 4, 1, 3))
    assert p.contains_pattern(p)
    big = parse_permutation("984132756")
    assert not big.contains_pattern(PATTERN_2413)
    assert not big.contains_pattern(PATTERN_3142)
    assert not identity(5).contains_pattern(Permutation((2, 1)))


def test_pattern_against_naive_oracle_exhaustive():
    patterns = [Permutation(w) for m in range(1, 5)
                for w in itertools.permutations(range(1, m + 1))]
    for n in range(1, 7):
        for p in all_permutations(n):
            for pat in patterns:
                hit = find_pattern(p, pat)
                assert hit == _naive_find(p, pat)
                assert p.contains_pattern(pat) == (hit is not None)


@given(perms, st.sampled_from([(2, 4, 1, 3), (3, 1, 4, 2), (1, 2, 3), (3, 2, 1), (2, 1, 4, 3)]))
def test_pattern_against_naive_oracle_random(p, pat_word):
    pat = Permutation(pat_word)
    hit = find_pattern(p, pat)
    assert hit == _naive_find(p, pat)
    assert p.contains_pattern(pat) == (hit is not None)


def test_pattern_witness_positions_are_an_occurrence():
    p = Permutation((2, 4, 1, 3))
    hit = find_pattern(p, PATTERN_2413)
    assert hit == (1, 2, 3, 4)
    assert find_pattern(p, PATTERN_3142) is None


def test_derangement_and_desarrangement():
    assert Permutation((6, 5, 3, 2, 4, 1)).is_desarrangement()
    assert not Permutation((3, 2, 1, 5, 6, 4)).is_desarrangement()
    for n in range(1, 6):
        assert not identity(n).is_derangement()
    assert list(desarrangements(2)) == [Permutation((2, 1))]


def test_derangements_equinumerous_with_desarrangements():
    for n in range(1, 8):
        num_der = sum(1 for p in all_permutations(n) if p.is_derangement())
        num_des = sum(1 for p in all_permutations(n) if p.is_desarrangement())
        assert num_der == num_des


def test_insert_value_examples():
    assert str(insert_value(Permutation((2, 3, 1)), 2)) == "3412"
    assert insert_value(Permutation((2, 3, 1)), 2).ides() == 1
    assert str(insert_value(Permutation((1,)), 1)) == "21"
    with pytest.raises(ValueError):
        insert_value(Permutation((1, 2)), 4)


def test_insert_value_is_bijection_and_tracks_ides():
    # ides is preserved for j - 1 an inverse descent of p and for j = n
    # (together ides(p) + 1 choices), and incremented otherwise; that split
    # is what produces the (k+1) / (n-k) derangement coefficient recurrence.
    import math

    for n in range(2, 7):
        images = set()
        for p in all_permutations(n - 1):
            inv_desc = {i for i in range(1, n - 1)
                        if p.word.index(i + 1) < p.word.index(i)}
            preserving = 0
            for j in range(1, n + 1):
                sigma = insert_value(p, j)
                images.add(sigma.word)
                keeps = (j - 1) in inv_desc or j == n
                assert sigma.ides() == p.ides() + (0 if keeps else 1), (p, j)
                preserving += keeps
            assert preserving == p.ides() + 1
        assert len(images) == math.factorial(n)


def test_parse_permutation_forms():
    assert parse_permutation("9 8 4 1 3 2 7 5 6").word == (9, 8, 4, 1, 3, 2, 7, 5, 6)
    assert parse_permutation("2,3,1").word == (2, 3, 1)
    assert parse_permutation("231").word == (2, 3, 1)
    assert parse_permutation("10 3 1 2 4 5 6 7 8 9").word[0] == 10
    with pytest.raises(ValueError):
        parse_permutation("")


def test_negative_orders_are_refused_at_the_call():
    for make in (all_permutations, separable_permutations, derangements,
                 desarrangements, identity):
        for n in (-1, -2, -3):
            with pytest.raises(ValueError, match="^need n >= 0$"):
                make(n)  # not iterated: the check runs at the call
    for make in (all_permutations, separable_permutations, derangements, desarrangements):
        assert list(make(0)) == [Permutation(())]
    assert identity(0) == Permutation(()) and identity(3) == Permutation((1, 2, 3))


# The statistics as position loops over the word, the way the library
# counted them before it counted with C-level builtins: the references the
# builtins are held to.
def des_loop(w):
    return len(frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i]))


def ides_loop(w):
    pos = [0] * (len(w) + 1)
    for i, v in enumerate(w):
        pos[v] = i
    return sum(1 for i in range(1, len(w)) if pos[i + 1] < pos[i])


def double_descents_loop(w):
    count = 0
    for i in range(1, len(w) + 1):
        left_bigger = i == 1 or w[i - 2] > w[i - 1]
        right_smaller = i < len(w) and w[i - 1] > w[i]
        if left_bigger and right_smaller:
            count += 1
    return count


def is_derangement_loop(w):
    return all(v != i + 1 for i, v in enumerate(w))


def first_ascent_loop(w):
    for i in range(1, len(w)):
        if w[i - 1] < w[i]:
            return i
    return len(w)


def test_statistics_equal_the_position_loops_exhaustive():
    for n in range(9):
        for p in all_permutations(n):
            w = p.word
            got = (p.des(), p.ides(), p.double_descents(), p.is_derangement(),
                   p.first_ascent())
            want = (des_loop(w), ides_loop(w), double_descents_loop(w),
                    is_derangement_loop(w), first_ascent_loop(w))
            assert got == want, w
            assert type(got[3]) is bool


def test_enumerated_permutations_are_checked_ones():
    # all_permutations and separable_permutations skip the constructor's
    # check; what they yield must be indistinguishable from a checked value.
    for n in range(8):
        for make in (all_permutations, separable_permutations):
            for p in make(n):
                q = Permutation(p.word)
                assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
                back = pickle.loads(pickle.dumps(p))
                assert type(back) is Permutation and back == q and hash(back) == hash(q)


@pytest.mark.parametrize("word", [(1, 1), (0, 1), (2, 3)])
def test_constructor_still_validates(word):
    with pytest.raises(ValueError, match="^not a permutation of 1..2"):
        Permutation(word)


@pytest.mark.parametrize("word", [(1.0, 2.0), (1, 2.0), (True, 2), (2, True), ("1", "2")])
def test_constructor_refuses_entries_that_are_not_ints(word):
    # 1.0 and True sort, compare and hash like 1, but print otherwise.
    with pytest.raises(ValueError, match="^not a permutation of 1..2"):
        Permutation(word)
