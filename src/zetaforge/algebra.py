"""Exact product algebras on index words and relation generation.

Two product rules on nested zeta sums are implemented exactly over the
integers: the stuffle (quasi-shuffle) product, which merges index sequences
with carry terms, and the shuffle product, which interleaves the binary
encodings.  Both expand a product of two sums into an integer combination of
single sums of the combined weight.  The difference of the two expansions of
one pair is an integer linear relation among same-weight words; together
with the regularized relations built from the divergent index 1 and the
duality relations they form the one relation set.  Each relation instance
is a ``(kind, *words)`` descriptor, and the ``gen`` dump
(:func:`relation_dump`), the solver and the verifier all read relations
only through :func:`relation_descriptors` and :func:`relation_codes`.

Expansions are computed on integer word codes
(:func:`~zetaforge.words.code`; the words of one expansion share a weight).
:func:`stuffle`, :func:`shuffle_words`, :func:`hoffman_relation` and
:func:`expand_relation` decode them to words, keys in the same order.  The
regularized relation (:func:`_hoffman_codes`) and a stuffle whose first
factor is a single index (:func:`_index_stuffle_codes`) are written down
in closed form; every other product is built over a table of suffix pairs.
Every expansion is computed afresh, so it depends on its relation alone and
its caller may change it.

Linear combinations are plain dicts mapping a key (a word code, an index
word, or a basis monomial which is a tuple of generator words) to a nonzero
coefficient: an ``int`` in a relation's expansion and in the integer
residues and rows made from it (exact, or modulo a prime while a weight is
solved), a :class:`~fractions.Fraction` in a table.  The helpers here
maintain the no-zero-terms invariant in place.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .lyndon import elimination_order
from .words import (
    Word,
    admissible_words,
    code,
    decoder,
    dual,
    is_admissible,
    render_word,
    weight,
)

Monomial = tuple[Word, ...]
# A relation instance expanded on codes: its weight, its integer
# combination of word codes, and the product pair ``(u, v)`` it equals or
# None (see :func:`relation_codes`).
Expansion = tuple[int, dict[int, int], tuple[Word, Word] | None]

RELATION_KINDS = ("stuffle", "shuffle", "hoffman", "duality")
DEFAULT_KINDS = ("stuffle", "shuffle", "hoffman")


def check_kinds(kinds) -> frozenset[str]:
    """Validate a relation-kind selection before any work starts."""
    ks = frozenset(kinds)
    unknown = ks - set(RELATION_KINDS)
    if unknown:
        raise ValueError(
            f"unknown relation kinds {sorted(unknown)}; "
            f"choose from {', '.join(RELATION_KINDS)}"
        )
    if not ks:
        raise ValueError("relation kind selection is empty")
    return ks


# ------------------------------------------------- linear combination utils

def add_term(lc: dict, key, coeff) -> None:
    """lc[key] += coeff, dropping the key when the sum cancels."""
    new = lc.get(key, 0) + coeff
    if new:
        lc[key] = new
    else:
        lc.pop(key, None)


def add_scaled(lc: dict, other: dict, scale=1) -> None:
    """lc += scale * other, term by term."""
    for key, coeff in other.items():
        add_term(lc, key, scale * coeff)


@functools.cache
def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Concatenate factor multisets, keeping the canonical factor order
    (descending weight, then ascending word).  Cached: the products of a
    weight multiply the few monomials of the lower tables over and over
    (weight 11's 512 product pairs make 1,752 calls on 16 distinct
    pairs)."""
    return tuple(sorted(a + b, key=lambda f: (-weight(f), f)))


def lc_mul(a: dict[Monomial, Fraction], b: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    """Product of two combinations of basis monomials."""
    out: dict[Monomial, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            add_term(out, mono_mul(ma, mb), ca * cb)
    return out


# ---------------------------------------------------------------- products

def _decoded(w: int, combo: dict[int, int]) -> dict[Word, int]:
    decode = decoder(w)
    return {decode[x]: c for x, c in combo.items()}


def _product_codes(kind: str, u: Word, v: Word) -> dict[int, int]:
    """The ``"stuffle"`` or ``"shuffle"`` expansion of ``u`` and ``v`` on
    codes: :func:`_index_stuffle_codes` when it is a stuffle with a single
    index first, :func:`_suffix_pair_codes` otherwise."""
    if kind == "stuffle" and len(u) == 1:
        return _index_stuffle_codes(u[0], v)
    return _suffix_pair_codes(kind, u, v)


def _index_stuffle_codes(n: int, v: Word) -> dict[int, int]:
    """The stuffle of the single index ``n`` and ``v`` on codes, in closed
    form: ``n`` inserted at each index boundary of ``v``, front to back,
    then ``n`` added to each index of ``v``, last first.  Inserting ``n``
    above the last ``s`` letters keeps them and shifts the letters above
    up ``n`` bits, setting bit ``s``; adding ``n`` to the index whose Y
    ends above the last ``s`` letters is the same without the bit.  The
    terms come in the order, and with the coefficients, that
    :func:`_suffix_pair_codes` gives them (insertions at two boundaries
    can give one word, and add up)."""
    a = code(v)
    tails = [*accumulate(reversed(v), initial=0)][::-1]  # the weight of each suffix
    out: dict[int, int] = {}
    for s in tails:
        key = (a >> s) << (n + s) | 1 << s | (a & (1 << s) - 1)
        out[key] = out.get(key, 0) + 1
    for s in tails[-2::-1]:
        out[(a >> s) << (n + s) | (a & (1 << s) - 1)] = 1
    return out


def _suffix_pair_codes(kind: str, u: Word, v: Word) -> dict[int, int]:
    """The ``"stuffle"`` or ``"shuffle"`` expansion of ``u`` and ``v`` on
    codes, by leading part over suffix pairs, a part being an index
    (stuffle) or a letter of the encoding (shuffle): the products of
    ``u[i:]`` and ``v[j:]`` start with ``u[i]`` followed by a product of
    ``u[i+1:]`` and ``v[j:]``, with ``v[j]`` followed by one of ``u[i:]``
    and ``v[j+1:]``, or (stuffle only) with the index ``u[i] + v[j]``
    followed by one of ``u[i+1:]`` and ``v[j+1:]``, in that order.  All
    products of one suffix pair have one length, so prepending a part to a
    tail of length t shifts its letters up t bits: an index sets bit t."""
    if kind == "shuffle" and not (is_admissible(u) and is_admissible(v)):
        raise ValueError(f"shuffle needs admissible words, got {u!r} and {v!r}")
    merge = kind == "stuffle"
    tu, tv = ([*accumulate(reversed(x), initial=0)][::-1] if merge
              else list(range(weight(x), -1, -1)) for x in (u, v))  # the length of each suffix
    a, b = code(u), code(v)
    cu = [a & (1 << t) - 1 for t in tu]  # the code of each suffix
    cv = [b & (1 << t) - 1 for t in tv]
    hv = [cv[j] ^ cv[j + 1] for j in range(len(tv) - 1)]  # each part of v, in place
    row = [{x: 1} for x in cv]  # the products of "" and v[j:]
    for i in range(len(tu) - 2, -1, -1):
        below = row  # the products of u[i+1:] and v[j:]
        row = [{}] * len(hv) + [{cu[i]: 1}]
        hu, ti = cu[i] ^ cu[i + 1], tu[i]
        for j in range(len(hv) - 1, -1, -1):
            lead = hu << tv[j]
            out = {lead | x: c for x, c in below[j].items()} if lead else dict(below[j])
            lead = hv[j] << ti
            for x, c in row[j + 1].items():
                key = lead | x
                out[key] = out.get(key, 0) + c
            if merge:
                lead = 1 << tu[i + 1] + tv[j + 1]
                for x, c in below[j + 1].items():
                    key = lead | x
                    out[key] = out.get(key, 0) + c
            row[j] = out
    return row[0]


def stuffle(u: Word, v: Word) -> dict[Word, int]:
    """Stuffle (quasi-shuffle) expansion of the product of two nested sums.

    Recursion on leading letters: (a u') * (b v') contributes a-leading,
    b-leading, and merged (a+b)-leading terms.  Result words have the
    combined weight and depth at most the combined depth.  Admissibility of
    the inputs is not required; the regularized relations need the divergent
    word (1) transiently.
    """
    return _decoded(weight(u) + weight(v), _product_codes("stuffle", u, v))


def shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    """Shuffle expansion through the binary encoding: all interleavings of
    the two encodings that preserve the internal order of each, with
    multiplicity (binomial(weight(u)+weight(v), weight(u)) in all), each
    decoded to an index word.  Requires admissible factors, so that every
    interleaving starts with X, ends with Y and decodes."""
    return _decoded(weight(u) + weight(v), _product_codes("shuffle", u, v))


def _hoffman_codes(v: Word) -> dict[int, int]:
    """:func:`hoffman_relation` on codes.  Raising the index whose suffix
    weighs ``s`` inserts an X above the last ``s`` letters; a split inserts
    a Y above the last ``k`` letters, where bit ``k`` is an X.  Raises come
    first, last index first, then splits, front first (the key order
    reaches the rows, and so a checkpoint's bytes).  Each coefficient is
    1 or -1: raises keep the depth and splits add one, two raises raise
    different indices, and two Y insertions give one word only across a
    run of Y, while each split's Y lands above an X."""
    if not is_admissible(v):
        raise ValueError(f"regularized relation needs an admissible word, got {v!r}")
    a = code(v)
    out = {(a >> s) << (s + 1) | (a & (1 << s) - 1): 1 for s in accumulate(reversed(v))}
    for k in range(weight(v) - 1, 0, -1):
        if not a >> k & 1:
            out[(a >> k) << (k + 1) | 1 << k | (a & (1 << k) - 1)] = -1
    return out


def hoffman_relation(v: Word) -> dict[Word, int]:
    """The regularized relation at weight(v)+1 built from the divergent
    index 1, as Hoffman wrote it (*Multiple harmonic series*, 1992): ``v``
    with one index raised by one, summed over its indices, minus ``v`` with
    one index ``n`` split into two that sum to ``n + 1``, the first at
    least 2, summed over every split.  Every term is admissible.  It is
    stuffle((1), v) minus the Y-insertion shuffle of the encoding of v,
    whose terms that insert the index 1, the word 1v among them, cancel.
    """
    return _decoded(weight(v) + 1, _hoffman_codes(v))


# ------------------------------------------------------ relation instances
#
# A relation instance is a descriptor ``(kind, *words)`` with ``kind`` in
# RELATION_KINDS: ("stuffle", u, v) and ("shuffle", u, v) expand the product
# Z(u)*Z(v), ("hoffman", v) is the regularized relation built on v, and
# ("duality", v) is Z(v) - Z(dual(v)).  Every consumer (the relation dump,
# the solver's rows, the verifier's rechecks) reads relations through
# these descriptors and :func:`relation_codes`, or its decoded form
# :func:`expand_relation`.

def weight_pairs(w: int) -> Iterator[tuple[Word, Word]]:
    """Unordered pairs of admissible words with weights summing to ``w``,
    in the documented deterministic order: lighter factor weight ascending,
    then each factor ascending, pairs of equal weight deduplicated."""
    for a in range(2, w - 1):
        b = w - a
        if b < a:
            break
        us = admissible_words(a)
        vs = admissible_words(b)
        for i, u in enumerate(us):
            for v in (vs[i:] if a == b else vs):
                yield u, v


def _instances(w: int, kind: str) -> Iterator[tuple]:
    if kind in ("stuffle", "shuffle"):
        return ((kind, u, v) for u, v in weight_pairs(w))
    if kind == "hoffman":
        return (("hoffman", v) for v in admissible_words(w - 1))
    return (("duality", v) for v in admissible_words(w) if dual(v) > v)


def relation_descriptors(w: int, kinds=DEFAULT_KINDS) -> list[tuple]:
    """All relation instances at weight ``w`` for the selected ``kinds``,
    grouped by kind in :data:`RELATION_KINDS` order, whatever the order of
    ``kinds``: one stuffle and/or shuffle product per unordered pair, one
    regularized relation per admissible word of weight w-1, one duality
    relation per non-self-dual orbit."""
    ks = check_kinds(kinds)
    return [desc for kind in RELATION_KINDS if kind in ks for desc in _instances(w, kind)]


def relation_codes(desc: tuple) -> Expansion:
    """One relation instance expanded on codes: its weight ``w``, its
    integer combination of the codes of words of weight ``w``, and the
    product pair ``(u, v)`` it equals, or None when the combination is zero
    outright."""
    kind = desc[0]
    if kind in ("stuffle", "shuffle"):
        u, v = desc[1:]
        return weight(u) + weight(v), _product_codes(kind, u, v), (u, v)
    if kind == "hoffman":
        return weight(desc[1]) + 1, _hoffman_codes(desc[1]), None
    if kind == "duality":
        combo = {code(desc[1]): 1}
        add_term(combo, code(dual(desc[1])), -1)
        return weight(desc[1]), combo, None
    raise ValueError(f"unknown relation descriptor {desc!r}")


def expand_relation(desc: tuple) -> tuple[dict[Word, int], tuple[Word, Word] | None]:
    """:func:`relation_codes` with the combination decoded to words, and
    without the weight."""
    w, combo, product = relation_codes(desc)
    return _decoded(w, combo), product


def describe(desc: tuple) -> str:
    """``kind Z(u)*Z(v)`` or ``kind Z(v)``: how errors and the dump name an
    instance."""
    return f"{desc[0]} " + "*".join(render_word(x) for x in desc[1:])


# ----------------------------------------------------------- relation dump

def relation_dump(w: int, kinds=DEFAULT_KINDS, depth_cap: int | None = None) -> Iterator[str]:
    """The ``gen`` dump at weight ``w``: one line
    ``0 = c1*Z(...) + c2*Z(...) # kind: ...`` per relation instance of
    :func:`relation_descriptors`, terms in
    :func:`~zetaforge.lyndon.elimination_order` (first-eliminated first).

    With both product kinds selected, a pair's shuffle instance is folded
    into its stuffle instance: the line is their difference, of kind
    ``pair``.  With one product kind, the line is that expansion, of kind
    ``stuffle-product`` or ``shuffle-product``, with the product itself as
    a trailing -1 term.  ``depth_cap`` drops any relation containing a word
    deeper than the cap, so every line is a true identity.
    """
    ks = check_kinds(kinds)
    rank = elimination_order(w)
    fold = {"stuffle", "shuffle"} <= ks
    for desc in relation_descriptors(w, ks):
        if fold and desc[0] == "shuffle":
            continue
        combo, product = expand_relation(desc)
        kind = desc[0]
        if product is not None:
            if fold:
                add_scaled(combo, expand_relation(("shuffle", *product))[0], -1)
                kind, product = "pair", None
            else:
                kind += "-product"
        if depth_cap is not None and any(len(x) > depth_cap for x in combo):
            continue
        terms = sorted(combo.items(), key=lambda kv: rank[kv[0]])
        parts = [f"{c}*{render_word(x)}" for x, c in terms]
        if product is not None:
            parts.append("-1*" + "*".join(map(render_word, product)))
        yield f"0 = {' + '.join(parts) or '0'} # kind: {describe((kind, *desc[1:]))}"
