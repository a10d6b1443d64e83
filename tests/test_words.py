"""Index words, binary encoding, duality, Lyndon test, elimination order
(:func:`zetaforge.lyndon.elimination_order`).

Oracles used here are deliberately independent implementations: composition
enumeration via gap bitmasks, rotation lists built explicitly, and the
binary encoding rebuilt character by character.
"""

import pytest

from oracles import from_binary, to_binary
from zetaforge.lyndon import candidate_words, elimination_order
from zetaforge.words import (
    admissible_words,
    code,
    compositions,
    decoder,
    dual,
    dual_codes,
    is_admissible,
    is_lyndon,
    parse_word,
    render_word,
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


def test_decoder_lists_every_composition_in_enumeration_order():
    # each decoder is built from the lower ones; its keys and their order
    # are the enumeration's
    for total in range(0, 15):
        assert list(decoder(total).items()) == [(code(x), x) for x in compositions(total)]


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


def test_dual_codes_reverse_and_swap_the_encoding():
    swap = str.maketrans("XY", "YX")
    for w in range(2, 12):
        expected = {code(x): code(from_binary(to_binary(x).translate(swap)[::-1]))
                    for x in admissible_words(w)}
        assert dual_codes(w) == expected


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

def test_elimination_order_at_weight_4():
    assert candidate_words(4) == frozenset()  # no candidate at weight 4
    # non-Lyndon Z(2,2) first, then the Lyndon words deepest first
    assert elimination_order(4) == {(2, 2): 0, (2, 1, 1): 1, (3, 1): 2, (4,): 3}


def test_elim_order_prefers_non_candidates_then_non_lyndon_then_deep():
    rank = elimination_order(12)
    # non-Lyndon Z(3,9) dies before the deeper non-candidate Lyndon Z(10,1,1)
    assert rank[(3, 9)] < rank[(10, 1, 1)]
    # among Lyndon words, the shallow non-candidate Z(12) dies before the
    # deeper candidate Z(6,4,1,1)
    assert (6, 4, 1, 1) in candidate_words(12)
    assert rank[(12,)] < rank[(6, 4, 1, 1)]
    # among non-candidate Lyndon words, deeper dies first
    assert rank[(10, 1, 1)] < rank[(11, 1)]
    # equal class and depth: lexicographically larger dies first
    assert rank[(11, 1)] < rank[(10, 2)]
    # the candidates survive longest
    assert list(rank)[-4:] == [(8, 2, 1, 1), (6, 4, 1, 1), (9, 3), (7, 5)]


def test_elim_order_is_total_and_consistent():
    rank = elimination_order(9)
    words = list(rank)
    assert sorted(words) == admissible_words(9)  # every admissible word once
    assert list(rank.values()) == list(range(len(words)))  # keys in column order
    lyndon = [is_lyndon(x) for x in words]
    assert lyndon == sorted(lyndon)  # the non-Lyndon words first
    assert candidate_words(9) == {(9,)} and words[-1] == (9,)  # the candidate last


def test_non_lyndon_candidate_dies_before_every_lyndon_word_at_weight_18():
    # the 1-fold extension of Z(5,5,5,3), the first candidate that is not Lyndon
    x = (4, 4, 5, 3, 1, 1)
    assert x in candidate_words(18) and not is_lyndon(x)
    rank = elimination_order(18)
    assert rank[x] < min(k for y, k in rank.items() if is_lyndon(y))
