"""Lyndon enumeration, listing order, extension/collapse, published listings.

The counting oracle is independent of the enumerator: it counts all words
over the odd alphabet by dynamic programming and then inverts the
Chen-Fox-Lyndon factorization identity  sum a(n) x^n = prod (1-x^n)^(-L(n))
to extract Lyndon counts L(n).
"""

from math import comb

import pytest

from zetaforge.lyndon import (
    ExtendedCandidate,
    candidate_pool,
    candidate_words,
    collapse_word,
    extend_word,
    listing_key,
    lyndon_factorization,
    odd_lyndon_words,
    published_basis,
)
from zetaforge.words import admissible_words, compositions, is_admissible, is_lyndon, weight


# ------------------------------------------------------------------- oracle

def oracle_lyndon_counts(max_w: int) -> dict[int, int]:
    """Lyndon-word counts over the alphabet of odd letters >= 3, graded by
    total letter sum, via Euler-transform inversion of the all-words series."""
    a = [0] * (max_w + 1)
    a[0] = 1
    for n in range(1, max_w + 1):
        a[n] = sum(a[n - k] for k in range(3, n + 1, 2))
    P = [0] * (max_w + 1)
    P[0] = 1
    counts: dict[int, int] = {}
    for n in range(1, max_w + 1):
        counts[n] = a[n] - P[n]
        if counts[n]:
            Q = [0] * (max_w + 1)
            for i in range(max_w + 1):
                if P[i]:
                    k = 0
                    while i + n * k <= max_w:
                        Q[i + n * k] += P[i] * comb(counts[n] + k - 1, k)
                        k += 1
            P = Q
    return counts


# -------------------------------------------------------------- enumeration

def test_lyndon_counts_match_factorization_oracle():
    counts = oracle_lyndon_counts(30)
    for w in range(1, 31):
        assert len(odd_lyndon_words(w)) == counts[w], w


def test_lyndon_counts_frozen():
    # weights 2..12, then the two published weights
    assert [len(odd_lyndon_words(w)) for w in range(2, 13)] == [
        0, 1, 0, 1, 0, 1, 1, 1, 1, 2, 2,
    ]
    assert len(odd_lyndon_words(27)) == 73
    assert len(odd_lyndon_words(28)) == 92


def test_lyndon_words_equal_the_filtered_compositions():
    # the enumeration builds compositions into odd parts >= 3 directly; the
    # definition filters every composition into parts >= 3
    for w in range(3, 29):
        filtered = [
            word for word in compositions(w, 3)
            if all(m % 2 == 1 for m in word) and is_lyndon(word)
        ]
        assert odd_lyndon_words(w) == sorted(filtered, key=listing_key), w
    assert (len(odd_lyndon_words(27)), len(odd_lyndon_words(28))) == (73, 92)


def test_lyndon_words_are_lyndon_with_odd_parts():
    for w in range(3, 22):
        for x in odd_lyndon_words(w):
            assert is_lyndon(x)
            assert weight(x) == w
            assert all(m >= 3 and m % 2 == 1 for m in x)


def test_listing_order_frozen():
    # depth ascending, then lexicographically descending
    assert odd_lyndon_words(11) == [(11,), (5, 3, 3)]
    assert odd_lyndon_words(12) == [(9, 3), (7, 5)]
    # (5,5,5) and (3,3,3,3,3) are periodic, hence absent; (7,3,5) beats both
    # of its rotations and is a genuine third depth-3 word.
    assert odd_lyndon_words(15) == [(15,), (9, 3, 3), (7, 5, 3), (7, 3, 5)]


def test_listing_key_orders_by_depth_then_reverse_lex():
    assert listing_key((9, 3)) < listing_key((7, 5))
    assert listing_key((11,)) < listing_key((5, 3, 3))
    assert sorted([(5, 3, 3), (11,), (9, 3)], key=listing_key) == [
        (11,), (9, 3), (5, 3, 3),
    ]


# -------------------------------------------------------- extend / collapse

def test_extend_frozen_cases():
    assert extend_word((7, 5), 0) == (7, 5)
    assert extend_word((7, 5), 1) == (6, 4, 1, 1)
    assert extend_word((9, 3), 1) == (8, 2, 1, 1)
    assert extend_word((7, 5, 7, 5, 3), 2) == (6, 4, 6, 4, 3, 1, 1, 1, 1)


def test_extend_preserves_weight_and_collapse_inverts():
    for w in range(3, 22):
        for x in odd_lyndon_words(w):
            n = 0
            while 2 * n <= len(x):
                ext = extend_word(x, n)
                assert weight(ext) == w
                assert is_admissible(ext)
                assert collapse_word(ext) == (x, n)
                n += 1


def test_extend_rejects_bad_requests():
    with pytest.raises(ValueError):
        extend_word((7, 5), 2)  # depth 2 < 2n = 4
    with pytest.raises(ValueError):
        extend_word((7, 5), -1)
    with pytest.raises(ValueError):
        extend_word((3, 2, 1), 1)  # head indices must stay >= 2 after lowering


def test_collapse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        collapse_word((2, 1))  # odd trailing-1 run
    with pytest.raises(ValueError):
        collapse_word((1, 2))  # not admissible
    with pytest.raises(ValueError):
        collapse_word((3, 1, 1))  # body shorter than the lowered block
    with pytest.raises(ValueError):
        collapse_word((5, 1, 1, 1, 1))  # body depth 1 < 2n = 4


# ------------------------------------------------------------ candidate pool

def test_candidate_pool_weight_12_frozen():
    pool = candidate_pool(12)
    assert [c.word for c in pool] == [(9, 3), (7, 5), (8, 2, 1, 1), (6, 4, 1, 1)]
    assert [(c.source, c.n) for c in pool] == [
        ((9, 3), 0), ((7, 5), 0), ((9, 3), 1), ((7, 5), 1),
    ]
    assert candidate_words(12) == frozenset(
        {(9, 3), (7, 5), (8, 2, 1, 1), (6, 4, 1, 1)}
    )


def test_candidate_pool_structure():
    for w in range(3, 18):
        pool = candidate_pool(w)
        words = [c.word for c in pool]
        assert len(set(words)) == len(words)
        for c in pool:
            assert isinstance(c, ExtendedCandidate)
            assert weight(c.word) == w
            assert is_admissible(c.word)
            assert extend_word(c.source, c.n) == c.word
        plain = [c.word for c in pool if c.n == 0]
        assert plain == odd_lyndon_words(w)


# ---------------------------------------------------- Lyndon factorization

def _longest_lyndon_prefixes(w):
    """The factorization by brute force: the longest Lyndon prefix, then
    the same on the rest."""
    factors = []
    while w:
        n = max(k for k in range(1, len(w) + 1) if is_lyndon(w[:k]))
        factors.append(w[:n])
        w = w[n:]
    return factors


def test_duval_factorization_is_the_longest_lyndon_prefix_factorization():
    for w in range(2, 13):
        for x in admissible_words(w):
            assert lyndon_factorization(x) == _longest_lyndon_prefixes(x), x


def test_lyndon_factorization_examples():
    # under the max-rotation convention a larger index is the smaller letter,
    # so Z(2)Z(3) and Z(2,1)Z(3) are no Lyndon words, while Z(3)Z(2) is
    assert lyndon_factorization((2, 3)) == [(2,), (3,)]
    assert lyndon_factorization((2, 1, 3)) == [(2, 1), (3,)]
    assert lyndon_factorization((3, 2)) == [(3, 2)]
    assert lyndon_factorization((2, 1, 2, 1)) == [(2, 1), (2, 1)]
    assert lyndon_factorization((2, 2, 1)) == [(2, 2, 1)]
    assert lyndon_factorization(()) == []


# -------------------------------------------------------- published listings

def test_published_basis_counts_and_membership():
    for w, expected in ((27, 73), (28, 92)):
        listing = published_basis(w)
        assert len(listing) == expected
        assert len(set(listing)) == expected
        assert all(weight(x) == w for x in listing)


def test_published_basis_collapses_onto_lyndon_sets():
    for w in (27, 28):
        listing = published_basis(w)
        sources = [collapse_word(x)[0] for x in listing]
        assert sorted(sources) == sorted(odd_lyndon_words(w))


def test_published_basis_twofold_elements_frozen():
    two27 = [x for x in published_basis(27) if collapse_word(x)[1] == 2]
    two28 = [x for x in published_basis(28) if collapse_word(x)[1] == 2]
    assert two27 == [(6, 4, 6, 4, 3, 1, 1, 1, 1)]
    assert two28 == [(8, 6, 6, 4, 1, 1, 1, 1)]


def test_published_basis_unlisted_weight():
    with pytest.raises(ValueError):
        published_basis(26)
