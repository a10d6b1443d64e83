"""Product algebras, relation streams, and the truncated-sum oracle.

Independent oracles: the stuffle is re-derived from the order-preserving
surjection-pair picture (choose which result slots receive letters of each
factor) and from the leading-letter recursion on index tuples, the shuffle
from the leading-letter recursion on strings and from its definition (every
placement of one factor's letters), the regularized relation from Y
insertions into the string encoding, and the numeric evaluator from explicit
nested loops.  The implementations under test use different algorithms (a
table over suffix pairs on integer word codes for both products, closed
forms for the regularized relation and single-index stuffles, prefix-sum
dynamic programming for evaluation).  The recursions also fix
the key order of every expansion, which reaches the checkpoint bytes.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import zetaforge.algebra as algebra_mod
from zetaforge.algebra import (
    CELL_MEMO_WEIGHT,
    _product_codes,
    _suffix_pair_codes,
    add_scaled,
    add_term,
    check_kinds,
    describe,
    eval_expansion,
    eval_truncated,
    expand_relation,
    expansion_tolerance,
    hoffman_relation,
    lc_mul,
    mono_mul,
    relation_codes,
    relation_descriptors,
    relation_dump,
    shuffle_words,
    stuffle,
    truncation_tail_bound,
    weight_pairs,
)
from zetaforge.words import (
    admissible_words,
    decoder,
    from_binary,
    is_admissible,
    parse_word,
    to_binary,
    weight,
)


# ------------------------------------------------------------------ oracles

def oracle_stuffle(u, v):
    """Order-preserving surjection pairs: the product of two nested sums of
    depths p and q is a sum over result depths r and over choices of which r
    slots carry a letter of u and which carry a letter of v (both in order,
    jointly covering all slots); slots hit twice add their indices."""
    p, q = len(u), len(v)
    out = {}
    for r in range(max(p, q), p + q + 1):
        for upos in combinations(range(r), p):
            uset = set(upos)
            for vpos in combinations(range(r), q):
                if uset | set(vpos) != set(range(r)):
                    continue
                word = [0] * r
                for i, pos in enumerate(upos):
                    word[pos] += u[i]
                for j, pos in enumerate(vpos):
                    word[pos] += v[j]
                t = tuple(word)
                out[t] = out.get(t, 0) + 1
    return out


def recursion_stuffle(u, v):
    """Leading-letter recursion on index tuples: the a-leading, b-leading
    and merged terms, in that order, each word kept where it first
    appears."""
    out = {}

    def rec(x, y, prefix):
        if not x or not y:
            w = prefix + x + y
            out[w] = out.get(w, 0) + 1
            return
        rec(x[1:], y, prefix + (x[0],))
        rec(x, y[1:], prefix + (y[0],))
        rec(x[1:], y[1:], prefix + (x[0] + y[0],))

    rec(u, v, ())
    return out


def insertion_hoffman(v):
    """stuffle((1), v) minus the word of each Y inserted into the string
    encoding of v, front first."""
    out = recursion_stuffle((1,), v)
    b = to_binary(v)
    for i in range(len(b) + 1):
        add_term(out, from_binary(b[:i] + "Y" + b[i:]), -1)
    return out


def enumerated_shuffle_binary(a, b):
    """The definition: every choice of the positions that ``a`` takes in
    the interleaving, the letters of ``b`` filling the rest in order."""
    out = {}
    n = len(a) + len(b)
    for positions in combinations(range(n), len(a)):
        letters = [""] * n
        for ai, p in enumerate(positions):
            letters[p] = a[ai]
        bi = 0
        for i in range(n):
            if not letters[i]:
                letters[i] = b[bi]
                bi += 1
        word = "".join(letters)
        out[word] = out.get(word, 0) + 1
    return out


def oracle_shuffle_binary(a, b):
    """Leading-letter recursion on encoded strings."""
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    out = {}
    for s, c in oracle_shuffle_binary(a[1:], b).items():
        key = a[0] + s
        out[key] = out.get(key, 0) + c
    for s, c in oracle_shuffle_binary(a, b[1:]).items():
        key = b[0] + s
        out[key] = out.get(key, 0) + c
    return out


def oracle_shuffle_words(u, v):
    from zetaforge.words import from_binary, to_binary

    out = {}
    for s, c in oracle_shuffle_binary(to_binary(u), to_binary(v)).items():
        w = from_binary(s)
        out[w] = out.get(w, 0) + c
    return out


def oracle_eval(word, n_max):
    """Nested loops, usable for depth <= 3 and small cutoffs."""
    if len(word) == 1:
        return sum(n ** -word[0] for n in range(1, n_max + 1))
    if len(word) == 2:
        m1, m2 = word
        return sum(
            n1 ** -m1 * n2 ** -m2
            for n1 in range(2, n_max + 1)
            for n2 in range(1, n1)
        )
    m1, m2, m3 = word
    return sum(
        n1 ** -m1 * n2 ** -m2 * n3 ** -m3
        for n1 in range(3, n_max + 1)
        for n2 in range(2, n1)
        for n3 in range(1, n2)
    )


def delannoy(p, q):
    table = [[1] * (q + 1) for _ in range(p + 1)]
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            table[i][j] = table[i - 1][j] + table[i][j - 1] + table[i - 1][j - 1]
    return table[p][q]


# --------------------------------------------------------------- lc helpers

def test_add_term_drops_cancelled_keys():
    lc = {}
    add_term(lc, (3,), Fraction(2))
    add_term(lc, (3,), Fraction(-2))
    assert lc == {}
    add_scaled(lc, {(3,): Fraction(1), (2, 1): Fraction(4)}, Fraction(1, 2))
    assert lc == {(3,): Fraction(1, 2), (2, 1): Fraction(2)}


def test_mono_mul_keeps_canonical_factor_order():
    assert mono_mul(((2,),), ((3,),)) == ((3,), (2,))
    assert mono_mul(((3,), (2,)), ((2,),)) == ((3,), (2,), (2,))
    # equal weight: ascending word breaks the tie
    assert mono_mul(((5,),), ((3, 2),)) == ((3, 2), (5,))


def test_lc_mul_distributes():
    a = {((2,),): Fraction(2)}
    b = {((3,),): Fraction(1, 2), ((2,),): Fraction(1)}
    assert lc_mul(a, b) == {
        ((3,), (2,)): Fraction(1),
        ((2,), (2,)): Fraction(2),
    }


def test_check_kinds():
    assert check_kinds(("stuffle",)) == frozenset({"stuffle"})
    with pytest.raises(ValueError):
        check_kinds(("stuffle", "nonsense"))
    with pytest.raises(ValueError):
        check_kinds(())


# ----------------------------------------------------------------- products

def test_stuffle_frozen_cases():
    assert stuffle((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert stuffle((2,), (2,)) == {(2, 2): 2, (4,): 1}
    # the divergent letter: used transiently by the regularized relations
    assert stuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1, (3,): 1}


def test_shuffle_frozen_cases():
    assert shuffle_words((2,), (2,)) == {(2, 2): 2, (3, 1): 4}
    assert shuffle_words((2,), (3,)) == {(2, 3): 1, (3, 2): 3, (4, 1): 6}


def test_stuffle_matches_surjection_oracle():
    for wu in range(2, 5):
        for wv in range(2, 5):
            for u in admissible_words(wu):
                for v in admissible_words(wv):
                    assert stuffle(u, v) == oracle_stuffle(u, v), (u, v)


def test_shuffle_words_matches_the_enumeration_definition():
    words = [x for w in range(2, 9) for x in admissible_words(w)]
    pairs = [(u, v) for u in words for v in words if weight(u) + weight(v) <= 10]
    assert len(pairs) == 769
    for u, v in pairs:
        expected = {
            from_binary(s): c
            for s, c in enumerated_shuffle_binary(to_binary(u), to_binary(v)).items()
        }
        assert shuffle_words(u, v) == expected, (u, v)


def test_code_expansions_decode_to_the_word_expansions_in_order():
    for w in range(4, 12):
        decode = decoder(w)
        for desc in relation_descriptors(w, ("stuffle", "shuffle", "hoffman")):
            k, combo, product = relation_codes(desc)
            decoded = [(decode[x], c) for x, c in combo.items()]
            if desc[0] == "hoffman":
                expected = insertion_hoffman(desc[1])
                assert list(hoffman_relation(desc[1]).items()) == decoded, desc
            else:
                u, v = desc[1:]
                oracle, expand = {"stuffle": (recursion_stuffle, stuffle),
                                  "shuffle": (oracle_shuffle_words, shuffle_words)}[desc[0]]
                expected = oracle(u, v)
                assert list(expand(v, u).items()) == list(oracle(v, u).items()), desc
            assert (k, product) == (w, None if desc[0] == "hoffman" else (u, v)), desc
            assert decoded == list(expected.items()), desc
            assert list(expand_relation(desc)[0].items()) == decoded, desc


def test_the_closed_form_of_a_single_index_stuffle_matches_the_suffix_pair_table():
    # a stuffle with a single index first is written down directly; it
    # gives the suffix-pair table's terms, coefficients and key order, for
    # the stuffle((1), v) of every regularized relation and every stuffle
    # pair whose first factor has depth 1
    cases = [((1,), v) for w in range(3, 14) for v in admissible_words(w - 1)]
    cases += [(u, v) for w in range(4, 14) for u, v in weight_pairs(w) if len(u) == 1]
    assert len(cases) == 3974
    for u, v in cases:
        expected = list(_suffix_pair_codes("stuffle", u, v).items())
        assert list(_product_codes("stuffle", u, v).items()) == expected, (u, v)


def test_a_changed_expansion_leaves_every_later_expansion_unchanged():
    # weight 8 is within the cell memo's bound, so the whole product of a
    # pair is a cell there, and a caller may change what it gets back
    u, v = (2, 1), (2, 1, 2)
    expansions = [
        lambda: stuffle(u, v),
        lambda: shuffle_words(u, v),
        lambda: _product_codes("stuffle", u, v),
        lambda: _product_codes("shuffle", u, v),
        lambda: _product_codes("stuffle", (1,), (3, 2, 2)),
        lambda: relation_codes(("stuffle", u, v))[1],
        lambda: relation_codes(("shuffle", u, v))[1],
        lambda: relation_codes(("hoffman", (3, 2, 2)))[1],
        lambda: relation_codes(("stuffle", (2, 1), (2,)))[1],  # a cell of (2,1)*(2,1,2)
    ]
    expected = [list(expand().items()) for expand in expansions]
    for expand in expansions:
        got = expand()
        for key in list(got):
            got[key] += 7
        got[next(iter(got))] = 0
        got[-1] = 1
    assert [list(expand().items()) for expand in expansions] == expected


_EXPANSIONS_DIGEST = """
import hashlib, sys
from zetaforge.algebra import relation_codes, relation_descriptors

def digest(w):
    h = hashlib.sha256()
    for desc in relation_descriptors(w, ("stuffle", "shuffle", "hoffman")):
        h.update(repr(list(relation_codes(desc)[1].items())).encode())
    return h.hexdigest()
"""


def test_expansions_do_not_depend_on_the_weights_expanded_before():
    # expanding weights 12, 7 and 11 in turn gives each weight's expansions,
    # key order included, as a fresh interpreter expanding that weight alone
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    fresh = [
        subprocess.run(
            [sys.executable, "-c", _EXPANSIONS_DIGEST + f"print(digest({w}))"],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        ).stdout.strip()
        for w in (12, 7, 11)
    ]
    namespace: dict = {}
    exec(_EXPANSIONS_DIGEST, namespace)
    assert [namespace["digest"](w) for w in (12, 7, 11)] == fresh
    # from an empty memo, weights 3 to 13 in ascending and in descending
    # order give the same expansions and leave the same cells, never more
    # than the nonempty suffix pairs of total weight at most the bound, of
    # either kind (index words for the stuffle, encodings for the shuffle)
    bound = 2 * sum((n - 1) * 2 ** (n - 2) for n in range(2, CELL_MEMO_WEIGHT + 1))
    assert bound == 1538
    runs = []
    for weights in (range(3, 14), range(13, 2, -1)):
        algebra_mod._cells.clear()
        digests, most = {}, 0
        for w in weights:
            digests[w] = namespace["digest"](w)
            most = max(most, len(algebra_mod._cells))
        assert most <= bound
        cells = sorted((cell, list(out.items())) for cell, out in algebra_mod._cells.items())
        runs.append((digests, cells))
    assert runs[0] == runs[1]


def test_shuffle_words_rejects_a_non_admissible_factor():
    with pytest.raises(ValueError, match="admissible"):
        shuffle_words((1, 2), (2,))


def test_shuffle_matches_recursion_oracle():
    rng = random.Random(11)
    cases = [
        (u, v)
        for wu in range(2, 5)
        for wv in range(2, 5)
        for u in admissible_words(wu)
        for v in admissible_words(wv)
    ]
    for u, v in rng.sample(cases, 40):
        assert shuffle_words(u, v) == oracle_shuffle_words(u, v), (u, v)


def test_product_coefficient_sums():
    # stuffle: Delannoy(p, q) interleavings-with-merges;
    # shuffle: binomial(wu + wv, wu) interleavings of the encodings
    for u, v in [((2,), (3,)), ((2, 1), (2,)), ((2, 2), (3, 1)), ((2, 1, 1), (2,))]:
        assert sum(stuffle(u, v).values()) == delannoy(len(u), len(v))
        assert sum(shuffle_words(u, v).values()) == math.comb(
            weight(u) + weight(v), weight(u)
        )


def test_products_are_weight_homogeneous():
    for u, v in [((2, 1), (3,)), ((2, 2), (2, 1)), ((4,), (2, 1, 1))]:
        wsum = weight(u) + weight(v)
        assert all(weight(x) == wsum for x in stuffle(u, v))
        assert all(weight(x) == wsum for x in shuffle_words(u, v))
        assert all(is_admissible(x) for x in shuffle_words(u, v))


def test_stuffle_truncated_identity_is_exact():
    # the stuffle identity holds at every finite cutoff, so the numeric gap
    # is pure float roundoff
    rng = random.Random(3)
    for _ in range(25):
        wu, wv = rng.randint(2, 5), rng.randint(2, 5)
        u = rng.choice(admissible_words(wu))
        v = rng.choice(admissible_words(wv))
        lhs = eval_expansion(stuffle(u, v), 400)
        rhs = eval_truncated(u, 400) * eval_truncated(v, 400)
        assert abs(lhs - rhs) < 1e-12


# -------------------------------------------------- regularized and duality

def test_hoffman_frozen_cases():
    assert hoffman_relation((2,)) == {(3,): 1, (2, 1): -1}
    assert hoffman_relation((2, 1)) == {(2, 2): 1, (3, 1): 1, (2, 1, 1): -1}


def test_hoffman_terms_admissible_and_homogeneous():
    for w in range(3, 9):
        for v in admissible_words(w - 1):
            rel = hoffman_relation(v)
            assert rel, v
            assert all(is_admissible(x) and weight(x) == w for x in rel)


def test_expand_relation_duality_frozen_cases():
    assert expand_relation(("duality", (3,))) == ({(3,): 1, (2, 1): -1}, None)
    assert expand_relation(("duality", (4,))) == ({(4,): 1, (2, 1, 1): -1}, None)
    assert expand_relation(("duality", (2,))) == ({}, None)  # self-dual


def test_expand_relation_products_and_regularized():
    u, v = (2,), (3,)
    combo, product = expand_relation(("stuffle", u, v))
    assert product == (u, v)
    assert combo == {x: Fraction(c) for x, c in stuffle(u, v).items()}
    combo, product = expand_relation(("shuffle", u, v))
    assert product == (u, v)
    assert combo == {x: Fraction(c) for x, c in shuffle_words(u, v).items()}
    combo, product = expand_relation(("hoffman", (2, 1)))
    assert product is None
    assert combo == {x: Fraction(c) for x, c in hoffman_relation((2, 1)).items()}
    assert all(type(c) is int for c in combo.values())
    with pytest.raises(ValueError):
        expand_relation(("mystery", (2, 1)))


def test_describe_names_the_instance():
    assert describe(("shuffle", (2,), (3, 1))) == "shuffle Z(2)*Z(3,1)"
    assert describe(("hoffman", (2, 1))) == "hoffman Z(2,1)"


def test_relation_descriptors_follow_the_kind_order():
    # the selection's own order never matters: kinds come in RELATION_KINDS order
    descs = relation_descriptors(5, ("duality", "shuffle", "hoffman", "stuffle"))
    assert [d[0] for d in descs] == ["stuffle"] * 2 + ["shuffle"] * 2 + ["hoffman"] * 4 + ["duality"] * 4
    assert descs[2:4] == [("shuffle", u, v) for u, v in weight_pairs(5)]


# ------------------------------------------------------------ relation gen

def test_weight_pairs_cover_all_splits():
    pairs = list(weight_pairs(6))
    assert len(pairs) == 7
    for u, v in pairs:
        assert weight(u) + weight(v) == 6
        assert is_admissible(u) and is_admissible(v)
        assert (weight(u), u) <= (weight(v), v)
    assert len(set(pairs)) == len(pairs)


def dump_terms(line):
    """A dump line read back: its word terms, its trailing product term
    ``(coefficient, (u, v))`` or None, and its label after ``# kind:``."""
    body, _, label = line.partition(" # kind: ")
    terms, product = {}, None
    for term in body.removeprefix("0 = ").split(" + "):
        coeff, _, factors = term.partition("*")
        words = tuple(parse_word(f) for f in factors.replace(")*", ")|").split("|"))
        if len(words) == 2:
            product = (int(coeff), words)
        else:
            terms[words[0]] = int(coeff)
    return terms, product, label


def test_gen_relations_weight_4():
    rels = [dump_terms(line) for line in relation_dump(4)]
    assert [label.split()[0] for _, _, label in rels] == ["pair", "hoffman", "hoffman"]
    # stuffle minus shuffle of (2)*(2): (4) + 2(2,2) - 2(2,2) - 4(3,1)
    assert rels[0] == ({(4,): 1, (3, 1): -4}, None, "pair Z(2)*Z(2)")
    assert rels[1][0] == {(2, 2): 1, (3, 1): 1, (2, 1, 1): -1}


def test_gen_relations_single_product_kind_keeps_product_term():
    rels = [dump_terms(line) for line in relation_dump(5, ("stuffle",))]
    products = [r for r in rels if r[2].startswith("stuffle-product ")]
    assert products and all(product is not None for _, product, _ in products)
    for terms, (coeff, (u, v)), _ in products:
        assert coeff == -1
        assert terms == stuffle(u, v)


def test_gen_relations_depth_cap_drops_whole_relations():
    capped = list(relation_dump(6, depth_cap=2))
    full = list(relation_dump(6))
    assert 0 < len(capped) < len(full)
    # a capped dump is the full dump without the lines naming a deeper word
    shallow = [line for line in full if all(len(x) <= 2 for x in dump_terms(line)[0])]
    assert capped == shallow


def test_gen_relations_duality_kind():
    # one relation per dual orbit, emitted from the lexicographically smaller
    # word: (2,1,1) < (4,) so the (2,1,1)-side carries the +1
    rels = [dump_terms(line) for line in relation_dump(4, ("stuffle", "duality"))]
    dual_rels = [r for r in rels if r[2].startswith("duality ")]
    assert dual_rels == [({(2, 1, 1): 1, (4,): -1}, None, "duality Z(2,1,1)")]


def test_render_relation_golden_lines():
    assert list(relation_dump(4)) == [
        "0 = -4*Z(3,1) + 1*Z(4) # kind: pair Z(2)*Z(2)",
        "0 = 1*Z(2,2) + -1*Z(2,1,1) + 1*Z(3,1) # kind: hoffman Z(2,1)",
        "0 = -1*Z(2,2) + -1*Z(3,1) + 1*Z(4) # kind: hoffman Z(3)",
    ]


def test_render_relation_includes_product_term():
    line = next(relation_dump(4, ("shuffle",)))
    assert line.endswith("# kind: shuffle-product Z(2)*Z(2)")
    assert "-1*Z(2)*Z(2)" in line


# ------------------------------------------------------------ numeric oracle

def test_eval_truncated_matches_nested_loops():
    for word in [(2,), (3,), (2, 1), (3, 2), (2, 1, 1), (4, 2, 1)]:
        assert eval_truncated(word, 60) == pytest.approx(
            oracle_eval(word, 60), rel=1e-12
        )


def test_eval_truncated_classical_anchors():
    assert abs(eval_truncated((2,), 4000) - math.pi ** 2 / 6) < truncation_tail_bound(
        (2,), 4000
    )
    # Euler: Z(2,1) = Z(3), checked at matching cutoffs within the bounds
    gap = abs(eval_truncated((2, 1), 2000) - eval_truncated((3,), 2000))
    assert gap < truncation_tail_bound((2, 1), 2000) + truncation_tail_bound((3,), 2000)


def test_truncation_gap_of_depth2_word_exceeds_naive_expectations():
    # the (2,1)-vs-(3) cutoff gap at 2000 genuinely exceeds 1e-3: the
    # harmonic inner sum decays like log(n)/n^2, so certified bounds (not
    # wishful constants) are the only honest tolerance for shuffle-side
    # numerics
    gap = abs(eval_truncated((2, 1), 2000) - eval_truncated((3,), 2000))
    assert 1e-3 < gap < 1e-2
    assert truncation_tail_bound((2, 1), 2000) < 1e-2


def test_eval_truncated_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_truncated((1, 2), 100)
    with pytest.raises(ValueError):
        eval_truncated((2, 1), 1)  # cutoff below the depth: empty sum domain


def test_tail_bound_shrinks_with_cutoff_and_leading_index():
    assert truncation_tail_bound((2,), 4000) < truncation_tail_bound((2,), 1000)
    assert truncation_tail_bound((5,), 1000) < truncation_tail_bound((2,), 1000)
    b = truncation_tail_bound((3, 2, 1), 500)
    assert 0 < b < 1


def test_expansion_tolerance_floor_and_growth():
    assert expansion_tolerance({(9,): 1}, 2000) == pytest.approx(1e-4)
    heavy = expansion_tolerance({(2, 1, 1, 1): 1}, 2000)
    assert heavy > 1e-4
    # scales with the coefficient mass
    assert expansion_tolerance({(2, 1, 1, 1): 10}, 2000) > heavy
