"""Index words, binary encoding, duality, Lyndon test, elimination order.

Oracles used here are deliberately independent implementations: composition
enumeration via gap bitmasks, rotation lists built explicitly, and the
binary encoding rebuilt character by character.
"""

import random

import pytest

from zetaforge.lyndon import candidate_words
from zetaforge.words import (
    admissible_words,
    check_word,
    compositions,
    dual,
    elim_key,
    from_binary,
    is_admissible,
    is_lyndon,
    parse_word,
    render_word,
    to_binary,
    weight,
)


# ------------------------------------------------------------------ oracles

def oracle_compositions(total: int) -> set:
    """Compositions of ``total`` via the gap-bitmask bijection: each of the
    2**(total-1) subsets of the total-1 gaps between unit cells is one cut
    pattern."""
    if total == 0:
        return {()}
    out = set()
    for mask in range(1 << (total - 1)):
        parts, run = [], 1
        for gap in range(total - 1):
            if mask >> gap & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.add(tuple(parts))
    return out


def oracle_is_lyndon(w) -> bool:
    rotations = [w[i:] + w[:i] for i in range(1, len(w))]
    return all(w > r for r in rotations)


def oracle_to_binary(w) -> str:
    chars = []
    for k in w:
        chars.extend("X" * (k - 1))
        chars.append("Y")
    return "".join(chars)


# -------------------------------------------------------------- basic words

def test_weight_depth_admissible():
    assert weight((6, 4, 1, 1)) == 12
    assert len((6, 4, 1, 1)) == 4
    assert is_admissible((2, 1))
    assert not is_admissible((1, 2))
    assert not is_admissible(())


def test_check_word_rejects_bad_input():
    for bad in ((), (0,), (2, -1), (2.0, 1), [2, 1]):
        with pytest.raises(ValueError):
            check_word(bad)
    assert check_word((2, 1)) == (2, 1)


def test_compositions_match_bitmask_oracle():
    for total in range(0, 11):
        assert set(compositions(total)) == oracle_compositions(total)


def test_compositions_min_part():
    assert set(compositions(6, 3)) == {(6,), (3, 3)}
    assert set(compositions(7, 3)) == {(7,), (3, 4), (4, 3)}


def test_admissible_count_is_power_of_two():
    for w in range(2, 12):
        words = admissible_words(w)
        assert len(words) == 2 ** (w - 2)
        assert words == sorted(words)
        assert all(x[0] >= 2 and weight(x) == w for x in words)
    assert admissible_words(1) == []


# ---------------------------------------------------------- binary encoding

def test_binary_encoding_frozen_cases():
    assert to_binary((2,)) == "XY"
    assert to_binary((2, 1)) == "XYY"
    assert to_binary((3,)) == "XXY"
    assert to_binary((2, 3)) == "XYXXY"


def test_binary_round_trip_all_small_words():
    for w in range(2, 10):
        for x in admissible_words(w):
            b = to_binary(x)
            assert b == oracle_to_binary(x)
            assert len(b) == w
            assert from_binary(b) == x


def test_from_binary_rejects_garbage():
    with pytest.raises(ValueError):
        from_binary("XYX")  # trailing X: no index decomposition
    with pytest.raises(ValueError):
        from_binary("XZY")


# ------------------------------------------------------------------ duality

def test_dual_frozen_cases():
    assert dual((2,)) == (2,)  # self-dual
    assert dual((3,)) == (2, 1)
    assert dual((4,)) == (2, 1, 1)
    assert dual((6, 4, 1, 1)) == (4, 1, 1, 2, 1, 1, 1, 1)


def test_dual_is_weight_preserving_involution():
    for w in range(2, 10):
        for x in admissible_words(w):
            d = dual(x)
            assert is_admissible(d)
            assert weight(d) == w
            assert len(d) == w - len(x)
            assert dual(d) == x


def test_dual_rejects_non_admissible():
    with pytest.raises(ValueError):
        dual((1, 2))


# ------------------------------------------------------------------- Lyndon

def test_is_lyndon_frozen_cases():
    assert is_lyndon((7,))
    assert is_lyndon((3, 1))
    assert is_lyndon((9, 3))
    assert is_lyndon((2, 1, 1))
    assert not is_lyndon((1, 3))
    assert not is_lyndon((2, 2))
    assert not is_lyndon((3, 9))
    assert not is_lyndon((5, 3, 5, 3))  # periodic


def test_is_lyndon_matches_rotation_oracle():
    for total in range(1, 9):
        for x in compositions(total):
            assert is_lyndon(x) == oracle_is_lyndon(x), x


# -------------------------------------------------------------- text format

def test_render_parse_round_trip():
    assert render_word((6, 4, 1, 1)) == "Z(6,4,1,1)"
    assert parse_word("Z(6,4,1,1)") == (6, 4, 1, 1)
    for w in range(2, 9):
        for x in admissible_words(w):
            assert parse_word(render_word(x)) == x


def test_parse_word_rejects_garbage():
    for bad in ("Z()", "Z(2,)", "Z(2", "W(2)", "Z(a)", "Z(2, 1)x", "Z(0)",
                # spellings of real words that render_word never writes
                "Z(1_0)", "Z(+3,2)", "Z( 2)", "Z(\uff12)", "Z(02,1)", " Z(2)", "Z(2,1) "):
        with pytest.raises(ValueError):
            parse_word(bad)


# ------------------------------------------------------- elimination order

def test_elim_key_fields():
    pool = candidate_words(4)  # empty at weight 4
    assert pool == frozenset()
    k = elim_key((2, 2), pool)
    assert (k.non_candidate, k.non_lyndon, k.depth, k.tiebreak) == (
        True,
        True,
        2,
        (2, 2),
    )


def test_elim_order_prefers_non_candidates_then_non_lyndon_then_deep():
    pool = candidate_words(12)

    def key(w):
        return elim_key(w, pool)

    # (9,3) is a pool candidate, (2,10) is not: the non-candidate dies first.
    assert key((2, 10)) > key((9, 3))
    # among non-candidates, non-Lyndon (3,9) dies before Lyndon (11,1)
    assert key((3, 9)) > key((11, 1))
    # among non-candidate Lyndon words, deeper dies first
    assert key((10, 1, 1)) > key((11, 1))
    # equal class and depth: lexicographically larger dies first
    assert key((11, 1)) > key((10, 2))
    assert key((10, 2)) < key((11, 1))


def test_elim_order_is_total_and_consistent():
    pool = candidate_words(9)
    words = admissible_words(9)
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.choice(words) for _ in range(3))
        ka, kb, kc = (elim_key(x, pool) for x in (a, b, c))
        assert (ka < kb) + (ka == kb) + (ka > kb) == 1
        if ka > kb and kb > kc:
            assert ka > kc
        if ka == kb:
            assert a == b  # the key is injective at fixed weight
