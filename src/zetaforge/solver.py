"""Weight-by-weight reduction onto the conjectured basis.

The pipeline per weight W, given fully-reduced tables for all lower weights,
runs modulo a prime (the first of ``PRIMES``), in one process, as one row
reduction over one column space: every admissible word of the weight in
:func:`~zetaforge.lyndon.elimination_order` (the non-Lyndon words, then the
Lyndon words), then the monomials (products of lower-weight generators).

Every row is a relation of one list, the weight's relation descriptors,
which the certificate checks in full.

1. Family brackets, depth by depth.  Stuffle relations mix only words
   sharing one index multiset (a family) plus lower-depth merge terms and
   lower-weight products, so stuffle rows, fed depth ascending, give every
   non-Lyndon admissible word a bracket.  The quasi-shuffle algebra is free
   on the Lyndon words (Hoffman), so one row per non-Lyndon word is
   enough: its first Lyndon factor times the rest of it
   (:func:`canonical_row`), each depth's in column order.  The other
   stuffle rows are left to the certificate.  After each depth's canonical
   rows come the regularized rows whose words are no deeper, in list order
   (:func:`family_phase`).

2. Bracketed elimination.  Every other row (regularized, shuffle product,
   optionally duality) is reduced against every bracket; what is left is
   led by a Lyndon word of the weight, and its install clears that lead
   from every bracket that names it, family brackets included, found
   through a column index (:attr:`MasterExpression.users`).  Words that
   never lead a bracket survive as this weight's generators.  A pivot
   installed before the deeper brackets exist is named by few brackets, so
   installing it rewrites few; that is why the regularized rows come depth
   by depth.  After them come the shuffle rows, by the column of their
   heavier factor in the elimination order of its own weight,
   first-eliminated first (ties in list order), then the duality rows in
   list order: the few pivots the regularized rows leave are found after 3,
   5, 10, 11 and 27 shuffle rows at weights 9 to 13.  The order sets only
   the cost: whatever it is, the table is the unique reduced row-echelon
   form shown below.  Once the Lyndon brackets reach the conjectured rank,
   the number of Lyndon words less the number of odd Lyndon words (the
   generator count that ``verify --dims`` checks), the remaining rows are
   neither expanded nor reduced: the certificate checks them with every
   other relation.  They
   cannot add rank while every lower weight has its odd-Lyndon count of
   generators: the double-shuffle quotient maps onto the motivic MZVs,
   whose dimensions Brown fixed (arXiv:1102.1312), and the rank mod p is
   never more than the rank over Q.  So each modulus gets one pass, with
   the target, and a failed pass moves to the next modulus.

3. Back-substitution.  Each bracket names, besides its lead, only
   survivors and monomials, so the pass that empties the echelon
   (:meth:`MasterExpression.back_substitute`) writes every eliminated
   word's entry, a combination of basis monomials (products of generators
   of total weight W), each coefficient rebuilt as a rational; each
   survivor is its own entry.

Every row, canonical rows included, is expanded exactly in integers by the
one :func:`expand_row`, straight into the weight's columns (each word of
the weight at its own column, and a product pair's tabled value ``T(u)
T(v)`` subtracted at its monomials' columns, over the lower tables scaled
to integers once, in the weight's one :class:`Certifier`), and reduced by
one routine, :meth:`MasterExpression.reduce`, in integers, then taken mod p
once.  The certificate expands each relation again, except a shuffle
relation whose dual partner's combination came first, which it checks
relabeled.  Each
product pair's tabled value is computed once per weight, by
:meth:`Certifier.product`, and read by the pair's stuffle row, its shuffle
row and the certificate of both.  The brackets form one fully-reduced
echelon: each bracket has lead 1 and no entry at another lead.  Each table
coefficient is rebuilt once by Wang's rational reconstruction, and then
*every* relation of the weight is certified exactly, on the same certifier,
by :meth:`Certifier.certify`: substituted through the lower tables and the
new one, with each word's integer vector packed into one integer under a
slot bound that makes the comparison with zero exact, it must give zero
(the same check ``verify`` runs).  A modulus under which a non-Lyndon word
is left without a bracket, a relation reduces to 0 = nonzero, a stuffle row
leads at a Lyndon word or another row at a non-Lyndon word, a residue has
no small rational preimage, or the certificate rejects a relation is
replaced by the next one in ``PRIMES``; when none is left the solve fails,
so no table leaves uncertified.

Why the certificate pins the bytes, whatever the modulus and the row order:

- every non-Lyndon word is eliminated, and its entry names only survivors
  and monomials;
- each bracket has no entry at another lead, so each Lyndon bracket names
  only survivors that come later in the column order;
- so the table, read as "word minus its entry" for every eliminated word,
  is in reduced row-echelon form over the one column order (the words in
  elimination order, then the monomials), with one row per eliminated word;
- a certified table sends every relation to zero, so each relation lies in
  the span of those rows, while the reduction, each of whose brackets mod p
  is a combination of relation rows, found as many independent relations
  mod p as there are eliminated words, from whichever rows were reduced,
  and the rank mod p is never more than the rank over Q;
- so the two spans are equal, the table is their unique reduced row-echelon
  form, and no separate shape check is needed.

Tables persist as one text file per weight plus a manifest with content
hashes.  The echelon left by the family phase is checkpointed once per
weight, in its own column space (:meth:`MasterExpression.state`), with its
modulus, so a crash in elimination redoes only the shuffle and duality rows
of that weight.  A failed pass clears it, since the next modulus writes
its own.  A checkpoint whose payload hash does not match is never reused.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable

from ._meta import BUILD_ID, TABLE_FORMAT
from .algebra import (
    DEFAULT_KINDS,
    Expansion,
    Monomial,
    add_scaled,
    check_kinds,
    describe,
    lc_mul,
    relation_codes,
    relation_descriptors,
)
from .lyndon import elimination_order, listing_key, lyndon_factorization, odd_lyndon_words
from .words import (
    Word,
    code,
    decoder,
    dual,
    dual_codes,
    is_admissible,
    is_lyndon,
    parse_word,
    render_word,
    weight,
)


def _debug(msg: str, *args) -> None:
    """Log ``msg % args`` at debug level on this module's logger once some
    caller has imported :mod:`logging`: no handler exists before then."""
    if (logging := sys.modules.get("logging")) is not None:
        logging.getLogger(__name__).debug(msg, *args)


Entry = dict[Monomial, Fraction]


class SolverError(Exception):
    """Base class for solve-time failures."""


class UnderdeterminedFamily(SolverError):
    """A family's stuffle relations could not express some non-Lyndon member."""


class InconsistentRelation(SolverError):
    """A relation reduced to 0 = nonzero; indicates a relation bug."""


class MissingTable(SolverError):
    """A required lower-weight table is absent."""


class StoreIntegrityError(SolverError):
    """Stored data fails its check: a hash does not match its payload, or a
    manifest, checkpoint or table is malformed."""


class ReconstructionError(SolverError):
    """An elimination modulo a prime that does not give the rational table:
    a residue without a small rational preimage, or a table that the exact
    certificate rejects."""


class SolvedWeight:
    """A fully-reduced substitution table for one weight.

    ``entries`` maps every admissible word of the weight (generators
    included, as their own single-factor monomial) to a combination of basis
    monomials.  ``generators`` are the surviving single words, in listing
    order.  ``stats`` holds the solve's timings and counters.
    """

    def __init__(self, weight: int, generators: list[Word], entries: dict[Word, Entry]):
        self.weight, self.generators, self.entries = weight, generators, entries
        self.stats: dict = {}


def seed_weight_2() -> SolvedWeight:
    """The base of the recursion: weight 2 with the single generator (2)."""
    return SolvedWeight(2, [(2,)], {(2,): {((2,),): Fraction(1)}})


# ------------------------------------------------------------ substitution

def substitute_tables(combo: dict[Word, Fraction], tables: dict[int, SolvedWeight]) -> Entry:
    """Fully reduce a weight-homogeneous word combination through the
    fully-reduced tables.  Idempotent in the sense that the result is already
    over basis monomials; errors name the first unresolved word."""
    out: Entry = {}
    for w, c in combo.items():
        table = tables.get(weight(w))
        if table is None or w not in table.entries:
            raise MissingTable(f"no table entry for {render_word(w)}")
        add_scaled(out, table.entries[w], c)
    return out


def expand_row(
    relation: Expansion,
    product: Callable[[tuple[Word, Word]], tuple[int, dict]],
    col_of: dict[int, int],
    mono_col: Callable[[Monomial], int],
) -> dict[int, int]:
    """The integer row of a relation, given as its expansion ``(w, combo,
    pair)``, over a master's columns: each word code ``x`` of the
    combination at its column ``col_of[x]``, times the denominator of a
    product pair's scaled value ``product(pair)`` (a denominator and an
    integer combination of monomials, :meth:`Certifier.product`), and that
    value subtracted, each monomial ``m`` at its column ``mono_col(m)``.
    Word and monomial columns never meet, and neither side holds a zero, so
    the row has none.  A code without a column raises :class:`KeyError`."""
    _, combo, pair = relation
    if pair is None:
        return {col_of[x]: c for x, c in combo.items()}
    den, value = product(pair)
    row = {col_of[x]: den * c for x, c in combo.items()}
    for m, v in value.items():
        row[mono_col(m)] = -v
    return row


SLOT_BITS = 64  # the slot width a weight's vectors are first packed at


class _ScaledTable:
    """One weight's table ``entries`` in integers: ``vectors[x]`` is the
    entry of the word of code ``x`` times ``den``, the lcm of every
    denominator in the table, and ``height`` is the largest absolute value
    in any vector.  ``index`` numbers the monomials that the entries name.
    Once a relation of the weight is checked, ``packed[x]`` is
    ``vectors[x]`` packed into one integer, monomial ``i`` in the slot of
    ``bits`` bits at ``bits * i`` (see :meth:`Certifier.holds`)."""

    def __init__(self, entries: dict[Word, Entry]):
        den = math.lcm(*(c.denominator for entry in entries.values() for c in entry.values()))
        self.den = den
        self.vectors = {
            code(x): {m: c.numerator * (den // c.denominator) for m, c in entry.items()}
            for x, entry in entries.items()
        }
        monomials = sorted({m for vector in self.vectors.values() for m in vector})
        self.index = {m: i for i, m in enumerate(monomials)}
        self.height = max(
            (abs(n) for vector in self.vectors.values() for n in vector.values()), default=0
        )
        self.bits = 0
        self.packed: dict[int, int] = {}

    def pack_vector(self, vector: dict[Monomial, int]) -> int:
        index, bits = self.index, self.bits
        return sum(n << bits * index[m] for m, n in vector.items())

    def pack(self, bound: int) -> dict[int, int]:
        """The packed vectors at a slot width ``bits`` with ``2^(bits-1) >
        bound``, repacked at a wider slot if the current one is too narrow."""
        if not self.bits or 1 << self.bits - 1 <= bound:
            self.bits = max(SLOT_BITS, 2 * self.bits, bound.bit_length() + 1)
            self.packed = {x: self.pack_vector(vector) for x, vector in self.vectors.items()}
        return self.packed


class Certifier:
    """The exact check of relation instances against fully-reduced tables,
    in integer arithmetic, with every word of a relation as its code.

    A relation ``sum c_x Z(x) = Z(u) Z(v)`` (a right-hand side of zero when
    it has no product) holds when its word combination, substituted
    through the tables, equals the tabled value ``T(u) T(v)`` of its
    product.  Each weight ``k`` is kept once as a :class:`_ScaledTable`:
    its entries as integer vectors ``N_x = D_k T(x)`` over the table's
    common denominator ``D_k``, keyed by word code, the index of its
    monomials, and, for a weight whose relations are checked, each vector
    packed into one integer ``P_x = sum_i N_x,i 2^(s i)``.  With ``D_a``,
    ``D_b`` the common denominators of the factors' weights (1 for both
    without a product), a relation of weight ``w`` holds iff every slot of

        R = D_a D_b sum_x c_x P_x - D_w P(N_u N_v)

    is zero, where ``P(N_u N_v)`` packs ``lc_mul`` of the factors' vectors
    (``D_a D_b T(u) T(v)``).  That product, with ``D_a D_b``, is computed
    once per pair (:meth:`product`) and kept as long as the certifier, so
    the stuffle and shuffle instances of a pair, their rows and their
    checks all share it; each check packs it afresh.  A product monomial
    that no entry of weight ``w`` names has no slot, and its nonzero
    coefficient makes the relation fail.
    :meth:`holds` compares ``R`` with 0 as one integer, which is exact
    under the slot bound it enforces for every relation: each slot ``r_i``
    of ``R`` has ``|r_i| <= B = D_a D_b sum_x |c_x| max|N| + D_w
    max|product coefficient|``, and the vectors are packed at a width ``s``
    with ``2^(s-1) > B`` (widened and repacked when a relation needs more).
    If ``R = 0`` while some slot is not, the lowest nonzero slot ``r_j``
    gives ``r_j = -2^s sum_(i>j) r_i 2^(s (i-j-1))``, so ``2^s`` divides
    ``r_j``, which cannot be while ``0 < |r_j| < 2^s``.

    :meth:`residue` spells a relation out monomial by monomial; it names
    what is left of a failed relation.  The certifier keeps its own copy
    of the tables dict.  Each table is scaled on first use and cached, and
    the products with them, so a table must not change while a certifier
    uses it; one built later sees the tables as they are then.  A solve
    builds one certifier per weight and ``verify`` one per recheck, and
    nothing is reset per weight.  A solve's rows take their products from
    it, and :meth:`certify` then checks every relation of the weight
    against each candidate table, each on its own expansion, except a
    shuffle relation whose dual partner :meth:`rejects` checked first: that
    one is checked on the partner's expansion relabeled
    (:meth:`holds_dual`).
    """

    def __init__(self, tables: dict[int, SolvedWeight]):
        self.tables = dict(tables)
        self._scaled: dict[int, _ScaledTable] = {}
        self._products: dict[tuple[Word, Word], tuple[int, dict[Monomial, int]]] = {}

    def scaled(self, k: int) -> _ScaledTable:
        """The weight-``k`` table in integers, built on first use."""
        got = self._scaled.get(k)
        if got is None:
            table = self.tables.get(k)
            got = self._scaled[k] = _ScaledTable(table.entries if table is not None else {})
        return got

    def entry(self, k: int, x: int) -> tuple[int, dict[Monomial, int]]:
        """The table entry of the word of weight ``k`` and code ``x`` in
        integers, with its denominator."""
        scaled = self.scaled(k)
        vector = scaled.vectors.get(x)
        if vector is None:
            raise MissingTable(f"no table entry for {render_word(decoder(k)[x])}")
        return scaled.den, vector

    def product(self, pair: tuple[Word, Word]) -> tuple[int, dict[Monomial, int]]:
        """``D_a D_b`` and ``N_u N_v``: the tabled value of the product pair
        ``(u, v)`` in integers, with its denominator, computed once per
        pair."""
        got = self._products.get(pair)
        if got is None:
            (den_u, u), (den_v, v) = (self.entry(weight(f), code(f)) for f in pair)
            got = self._products[pair] = den_u * den_v, lc_mul(u, v)
        return got

    def certify(self, solved: SolvedWeight, descs: list[tuple]) -> list[tuple]:
        """The relations among ``descs`` that do not hold once ``solved`` is
        the table of its weight.  A product of that weight has factors at
        least two weights lower, so the products kept stay valid.  A
        rejected candidate is dropped again, with its scaled table, so the
        certifier holds nothing of it into the next pass, and the next
        candidate is scaled afresh."""
        w = solved.weight
        self.tables[w] = solved
        failed = self.rejects(descs)
        if failed:
            del self.tables[w]
            self._scaled.pop(w, None)
        return failed

    def holds(self, desc: tuple) -> bool:
        """Whether the relation ``desc`` holds, by the packed check."""
        return self._check(*relation_codes(desc))

    def holds_dual(self, desc: tuple, w: int, combo: dict[int, int]) -> bool:
        """Whether the shuffle relation ``desc`` holds, given its dual
        partner's combination ``combo``: each code mapped through the
        duality table of the weight, and checked against the product pair
        of ``desc``."""
        duals = dual_codes(w)
        return self._check(w, {duals[x]: c for x, c in combo.items()}, desc[1:])

    def _check(self, w: int, combo: dict[int, int], pair: tuple[Word, Word] | None) -> bool:
        """The packed check of the combination ``combo`` of codes of weight
        ``w`` against the tabled value of ``pair`` (zero when None)."""
        top = self.scaled(w)
        scale, height, value = 1, 0, None
        if pair is not None:
            scale, value = self.product(pair)
            if not value.keys() <= top.index.keys():
                return False
            height = max(map(abs, value.values()), default=0)
        bound = scale * sum(map(abs, combo.values())) * top.height + top.den * height
        packed = top.pack(bound)
        total = 0
        for x, c in combo.items():
            p = packed.get(x)
            if p is None:
                raise MissingTable(f"no table entry for {render_word(decoder(w)[x])}")
            total += c * p
        if value is None:
            return total == 0
        return scale * total == top.den * top.pack_vector(value)

    def residue(self, desc: tuple) -> dict[Monomial, int]:
        """The relation ``desc`` substituted through the tables, times the
        lcm of the denominators involved: empty exactly when it holds.
        Every word code ``x`` is replaced by its scaled entry, a product
        pair's scaled value is subtracted, and zero entries are dropped."""
        w, combo, pair = relation_codes(desc)
        terms = [(c, *self.entry(w, x)) for x, c in combo.items()]
        if pair is not None:
            terms.append((-1, *self.product(pair)))
        lcd = math.lcm(*(den for _, den, _ in terms))
        residue: dict[Monomial, int] = {}
        for c, den, scaled in terms:
            scale = c * (lcd // den)
            for m, v in scaled.items():
                residue[m] = residue.get(m, 0) + scale * v
        return {m: v for m, v in residue.items() if v}

    def rejects(self, descs: list[tuple]) -> list[tuple]:
        """The relations among ``descs`` that do not hold, in list order.

        Shuffle relations are checked in dual pairs.  Duality reverses the
        encoding and swaps its letters, so it maps the shuffle product of
        ``u`` and ``v`` term by term onto that of their duals: once a
        shuffle relation's combination is at hand, the relation of the dual
        pair, when it comes later in ``descs``, is checked at once on that
        combination relabeled (:meth:`holds_dual`), and only its verdict is
        kept for its turn."""
        later = {desc: i for i, desc in enumerate(descs) if desc[0] == "shuffle"}
        verdicts: dict[tuple, bool] = {}
        failed = []
        for i, desc in enumerate(descs):
            if desc[0] != "shuffle":
                ok = self.holds(desc)
            elif (ok := verdicts.pop(desc, None)) is None:
                w, combo, pair = relation_codes(desc)
                ok = self._check(w, combo, pair)
                partner = ("shuffle", *sorted(map(dual, pair), key=lambda f: (weight(f), f)))
                if later.get(partner, i) > i:
                    verdicts[partner] = self.holds_dual(partner, w, combo)
            if not ok:
                failed.append(desc)
        return failed


# --------------------------------------------------------- family reduction

def canonical_row(x: Word) -> tuple:
    """The stuffle descriptor of the non-Lyndon admissible word ``x``:
    the product of its first Lyndon factor (:func:`lyndon_factorization`)
    and the rest of ``x``, as :func:`~zetaforge.algebra.weight_pairs` orders
    the pair.  The rest starts at an index above 1, so both are admissible."""
    head = lyndon_factorization(x)[0]
    return ("stuffle", *sorted((head, x[len(head):]), key=lambda f: (weight(f), f)))


def family_phase(master: MasterExpression, relations: list[tuple]) -> None:
    """Give every non-Lyndon word of the master's weight a bracket in
    ``master.pivots``, modulo ``master.prime``, from its canonical stuffle
    row (:func:`canonical_row`), and absorb the regularized rows among
    ``relations`` (the weight's descriptors) depth by depth.

    A stuffle row on ``(u, v)`` mixes only words of one index multiset (a
    family) of depth ``d = len(u) + len(v)``, words of lower depth and
    lower-weight products.  So for each depth d, ascending, the canonical
    row of each non-Lyndon word of depth d, in column order (first
    eliminated first), goes to :meth:`MasterExpression.reduce`.  The
    quasi-shuffle algebra is free on the Lyndon words (Hoffman), and the
    canonical row of x names, of the non-Lyndon words of depth d, only x
    and lexicographically larger words, with a coefficient at x between 1
    and ``len(x)``.  These rows are triangular, so under any modulus above
    the weight they give every non-Lyndon word of depth d a bracket, and
    the weight's other stuffle rows are left to the certificate.  Right
    after them, a non-Lyndon word of depth d left without a bracket raises
    :class:`UnderdeterminedFamily`; then each regularized row on a word v
    with ``len(v) + 1 == d``, in list order, goes to
    :meth:`MasterExpression.absorb`.  It names only words of depth
    ``len(v)`` and d, so it leads at a Lyndon word, and its pivot is
    installed before any deeper bracket exists to be rewritten.  A stuffle
    row led by a Lyndon word or a monomial raises
    :class:`InconsistentRelation`.  Under an unlucky modulus either error
    can happen where the rationals would not.
    """
    family = list(enumerate(master.columns[:master.n_family]))
    regularized: dict[int, list[tuple]] = {}
    for desc in relations:
        if desc[0] == "hoffman":
            regularized.setdefault(len(desc[1]) + 1, []).append(desc)
    for depth in range(2, master.weight):
        words = [(k, x) for k, x in family if len(x) == depth]
        for _, x in words:
            master.reduce(canonical_row(x))
        missing = [x for k, x in words if k not in master.pivots]
        if missing:
            raise UnderdeterminedFamily(
                f"weight {master.weight}: {[render_word(x) for x in missing]} left without a "
                f"family bracket"
            )
        for desc in regularized.get(depth, ()):
            master.absorb(desc)


# ------------------------------------------------------ bracketed elimination

# Moduli of the solve, tried in turn (Mersenne primes); a pass that fails
# moves straight to the next one.  Wang's bound under the first, |n|, d <
# 2^63, covers every table coefficient through weight 15 (22, 23, 39, 31, 51
# and 47 bits at weights 10 to 15); weight 16 (76 bits) needs the second.
# The tables do not depend on the modulus that certifies them.
PRIMES = (2**127 - 1, 2**521 - 1)

PROGRESS_ROWS = 256  # rows between two elimination progress lines (debug level)


def rational(a: int, m: int) -> Fraction:
    """The fraction n/d with |n|, d <= sqrt(m/2) and n = a*d mod m, which is
    unique when it exists (Wang's rational reconstruction)."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        raise ReconstructionError(
            f"a residue modulo a {m.bit_length()}-bit modulus has no rational preimage "
            f"within sqrt(m/2)"
        )
    return Fraction(r1, t1)


class MasterExpression:
    """The row reduction of one weight, modulo ``prime``, over one column
    space.

    Column ``k < n_words`` is the word ``columns[k]``: first the
    ``n_family`` non-Lyndon words, then the Lyndon words, in elimination
    order (:func:`~zetaforge.lyndon.elimination_order` in a solve), so a
    lower column dies sooner.  ``col_of`` maps the code of each word to its
    column.  Monomial ``monomials[i]`` is column ``n_words + i``, after
    every word.

    A row is a relation instance ``(kind, *words)``, expanded exactly and in
    integers into these columns by :func:`expand_row` (:meth:`integer_row`):
    each word of the weight at its own column, a product pair's tabled
    value at its monomials' columns, through the weight's certifier
    ``lower``, which computes each pair's value once and then certifies the
    table (:meth:`Certifier.certify`).

    A bracket is a row mod p with entry 1 at its lead, read as "word =
    minus the rest".  ``pivots`` maps each lead to its bracket and is one
    fully-reduced echelon: no bracket has an entry at another bracket's
    lead.  The canonical stuffle rows of :func:`family_phase`, one per
    non-Lyndon word, install the brackets led by non-Lyndon words, the
    elimination rows of :meth:`absorb` those led by Lyndon words.
    ``users`` maps each word column that some bracket names, other than
    its lead, to the leads of the brackets that name it; monomial columns
    are never leads and are not indexed.  :meth:`reduce` clears a row's
    exact integers in one pass over its leads, takes what is left mod p
    and installs it, rewriting the brackets that ``users`` files under the
    new lead, and no other; :meth:`back_substitute` pops each bracket and
    writes its word's entry in ``entries``, over the rationals.

    Rows may come in any order: the table is the unique reduced row-echelon
    form of their span (see the module docstring), so the order sets only
    the cost, through the rows reduced before the rank target and the
    brackets each install rewrites; ``solve_weight`` feeds the weight's
    descriptor list, depth by depth through :func:`family_phase`, then its
    shuffle rows in their heavier factor's column order and its duality
    rows in list order.

    ``installed`` counts the (Lyndon-led) brackets :meth:`absorb` installed,
    ``absorbed`` the rows it was given, of the ``n_rows`` a solve gives it,
    ``skipped`` the rows it passed over once ``installed`` had reached
    ``target`` (None: never), ``terms`` the live terms in Lyndon-led
    brackets, kept up to date by every install, ``peak_terms`` the most of
    them after any install, and ``bracket_updates`` the brackets that
    installs rewrote.  :meth:`state` gives the monomials, the echelon and
    these counters, in the master's own column space, as plain data (the
    checkpoint's payload), and :meth:`restore` takes them up.
    """

    def __init__(
        self,
        columns: list[Word],
        lower: Certifier,
        prime: int = PRIMES[0],
        target: int | None = None,
        n_rows: int = 0,
    ):
        self.columns = columns
        self.col_of = {code(x): k for k, x in enumerate(columns)}
        self.n_words = len(columns)
        self.n_family = sum(not is_lyndon(x) for x in columns)
        self.weight = weight(columns[0])
        self.mono_ids: dict[Monomial, int] = {}
        self.monomials: list[Monomial] = []
        self.pivots: dict[int, dict[int, int]] = {}
        self.users: dict[int, set[int]] = {}
        self.entries: dict[Word, Entry] = {}
        self.max_coeff_bits = 0
        self.installed = 0
        self.absorbed = 0
        self.n_rows = n_rows
        self.target = target
        self.skipped = 0
        self.terms = 0
        self.peak_terms = 0
        self.bracket_updates = 0
        self.prime = prime
        self.lower = lower

    def _mono_col(self, m: Monomial) -> int:
        mid = self.mono_ids.get(m)
        if mid is None:
            mid = len(self.monomials)
            self.mono_ids[m] = mid
            self.monomials.append(m)
        return self.n_words + mid

    def integer_row(self, desc: tuple) -> dict[int, int]:
        """The integer row of the relation ``desc`` (:func:`expand_row`).
        A word without a column raises :class:`InconsistentRelation`."""
        try:
            return expand_row(relation_codes(desc), self.lower.product, self.col_of,
                              self._mono_col)
        except KeyError as exc:
            word = render_word(decoder(self.weight)[exc.args[0]])
            raise InconsistentRelation(f"{describe(desc)}: word {word} has no column") from None

    def reduce(self, desc: tuple) -> bool:
        """Reduce the integer row of ``desc`` against ``pivots``, take it
        mod p once, and install what is left as a bracket at its lowest
        column, rewriting the brackets that name that column (``users``).
        Returns False when nothing is left.  A stuffle row must lead at a
        non-Lyndon word and any other row at a Lyndon word; another lead
        raises :class:`InconsistentRelation`."""
        p, pivots = self.prime, self.pivots
        row = self.integer_row(desc)
        # each bracket has lead 1 and no entry at another lead, so
        # subtracting it clears its lead and no other: every scale is the
        # row's own integer at that lead
        for lead in [k for k in row if k in pivots]:
            scale = row[lead]
            for k, v in pivots[lead].items():
                row[k] = row.get(k, 0) - scale * v
        row = {k: r for k, v in row.items() if (r := v % p)}
        if not row:
            return False
        lead = min(row)
        n_words, n_family, users = self.n_words, self.n_family, self.users
        if lead >= n_words:
            raise InconsistentRelation(f"{describe(desc)}: reduced to 0 = nonzero")
        if (lead < n_family) != (desc[0] == "stuffle"):
            raise InconsistentRelation(
                f"{describe(desc)}: left a relation led by {render_word(self.columns[lead])}"
            )
        inv = pow(row[lead], -1, p)
        bracket = {k: v * inv % p for k, v in row.items()}
        # rewrite each bracket that names the lead, keeping the index: a
        # word column it brings in names it, one that cancels no longer
        for other_lead in users.pop(lead, ()):
            other = pivots[other_lead]
            c, size = other[lead], len(other)
            for k, v in bracket.items():
                old = other.get(k)
                if x := ((old or 0) - c * v) % p:
                    other[k] = x
                    if old is None and k < n_words:
                        users.setdefault(k, set()).add(other_lead)
                else:  # c * v is not 0 mod p, so k was named
                    del other[k]
                    if k != lead and k < n_words:
                        users[k].discard(other_lead)
            self.bracket_updates += 1
            if other_lead >= n_family:
                self.terms += len(other) - size
        self._file(lead, bracket)
        pivots[lead] = bracket
        if lead >= n_family:
            self.terms += len(bracket)
        return True

    def _file(self, lead: int, bracket: dict[int, int]) -> None:
        """File ``lead`` in ``users`` under each word column of its bracket
        but the lead."""
        users, n_words = self.users, self.n_words
        for k in bracket:
            if k != lead and k < n_words:
                users.setdefault(k, set()).add(lead)

    def absorb(self, desc: tuple) -> bool:
        """Reduce one elimination row into ``pivots``.  Returns True when the
        row installed a new bracket, False when it was redundant.  Once
        ``installed`` has reached ``target``, a row is counted in
        ``skipped`` and neither expanded nor reduced: at the conjectured
        rank it has nothing to add, and the certificate checks it with
        every other relation of the weight.  Every ``PROGRESS_ROWS`` rows
        log a progress line at debug level."""
        pivot = False
        if self.target is not None and self.installed >= self.target:
            self.skipped += 1
        elif pivot := self.reduce(desc):
            self.installed += 1
            self.peak_terms = max(self.peak_terms, self.terms)
        self.absorbed += 1
        if self.absorbed % PROGRESS_ROWS == 0:
            _debug("weight %d: %d/%d rows absorbed, %d pivots",
                   self.weight, self.absorbed, self.n_rows, self.installed)
        return pivot

    def state(self) -> dict:
        """The monomials of the monomial columns, each bracket as ``[lead,
        col, c, col, c, ...]`` (its lead, then every column it names, the
        lead included, with its coefficient), and the counters
        ``[installed, absorbed, peak_terms, bracket_updates]``."""
        return {
            "monomials": self.monomials,
            "pivots": [[lead, *chain.from_iterable(b.items())] for lead, b in self.pivots.items()],
            "counters": [self.installed, self.absorbed, self.peak_terms, self.bracket_updates],
        }

    def restore(self, state: dict) -> None:
        """Take up a :meth:`state` in place.  Raises :class:`ValueError`
        unless the monomials are distinct products of the weight, each
        bracket is led by its own word column with 1, its integer columns
        lie in the space and its coefficients in ``[1, p)``, and
        ``installed`` counts the Lyndon-led brackets.  ``users`` is rebuilt
        from the brackets."""
        monomials = [tuple(map(tuple, m)) for m in state["monomials"]]
        if len(set(monomials)) < len(monomials) or any(
            len(m) < 2 or sum(map(weight, m)) != self.weight for m in monomials
        ):
            raise ValueError(f"the monomials are not distinct products of weight {self.weight}")
        p, n_columns = self.prime, self.n_words + len(monomials)
        pivots: dict[int, dict[int, int]] = {}
        for lead, *flat in state["pivots"]:
            bracket = dict(zip(flat[::2], flat[1::2]))
            if not (type(lead) is int and 0 <= lead < self.n_words and lead not in pivots
                    and bracket.get(lead) == 1 and 2 * len(bracket) == len(flat)
                    and all(type(k) is type(c) is int and 0 <= k < n_columns and 0 < c < p
                            for k, c in bracket.items())):
                raise ValueError(f"the bracket led at column {lead!r} is not led by its own "
                                 f"word column with 1, or names a column outside the space "
                                 f"or a coefficient outside [1, p)")
            pivots[lead] = bracket
        counters = state["counters"]
        if not (len(counters) == 4 and all(type(n) is int and n >= 0 for n in counters)
                and counters[0] == sum(lead >= self.n_family for lead in pivots)):
            raise ValueError(f"counters {counters!r} do not fit the brackets")
        self.monomials, self.mono_ids = monomials, {m: i for i, m in enumerate(monomials)}
        self.pivots = pivots
        self.users = {}
        for lead, bracket in pivots.items():
            self._file(lead, bracket)
        self.terms = sum(len(b) for lead, b in pivots.items() if lead >= self.n_family)
        self.installed, self.absorbed, self.peak_terms, self.bracket_updates = counters

    def back_substitute(self) -> None:
        """Write in ``entries`` every eliminated word's table entry, popping
        its bracket from ``pivots``: its word is minus the rest, a word
        ``y`` of the weight as the monomial ``(y,)``, each coefficient
        rebuilt from its residue by :func:`rational`, each distinct residue
        once.  The echelon is fully reduced, so each bracket already names
        only its lead, survivors and monomials.  ``max_coeff_bits`` is the
        largest numerator or denominator bit length in the table, read off
        the distinct coefficients (a survivor's 1 among them).  ``users`` is
        dropped with the brackets."""
        p, pivots = self.prime, self.pivots
        names = [(x,) for x in self.columns] + self.monomials
        rebuilt: dict[int, Fraction] = {}
        for lead in list(pivots):
            entry = self.entries[self.columns[lead]] = {}
            for k, v in pivots.pop(lead).items():
                if k != lead:
                    q = rebuilt.get(v)
                    if q is None:
                        q = rebuilt[v] = rational(-v % p, p)
                    entry[names[k]] = q
        self.users, self.terms = {}, 0
        self.max_coeff_bits = max(
            (max(q.numerator.bit_length(), q.denominator.bit_length()) for q in rebuilt.values()),
            default=int(len(self.entries) < self.n_words),
        )


# ------------------------------------------------------------- checkpointing

def _canonical_json(payload: dict) -> tuple[str, str]:
    """``payload`` as canonical JSON text, and the sha256 of that text."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text, hashlib.sha256(text.encode("ascii")).hexdigest()


class Checkpointer:
    """Hash-guarded resume state for one weight's solve under the relation
    kinds ``kinds``: the master's :meth:`~MasterExpression.state` after the
    family phase, with the modulus it was computed under.

    The file holds a JSON payload plus the sha256 of its canonical form; a
    payload that fails the hash check, or a malformed file, refuses to
    resume (the caller must delete the file to start over).  The payload
    carries a fingerprint: the table format and the sorted set of ``kinds``,
    the only settings that can change the entries.  A payload of another
    fingerprint, modulus or phase tag (:attr:`PHASE`; a build with another
    family schedule or state wrote another tag) describes a different run
    and is ignored with a warning; one that matches all three but does not
    restore is malformed.  The row order may differ: the echelon spans the
    same rows.
    """

    # the echelon and four counters after the family phase of one canonical
    # row per non-Lyndon word in column order
    PHASE = "column-order"

    def __init__(self, path: Path, kinds: tuple[str, ...]):
        self.path = Path(path)
        self.fingerprint = {"format": TABLE_FORMAT, "kinds": sorted(check_kinds(kinds))}

    def load(self, master: MasterExpression) -> bool:
        """Restore ``master`` from the checkpoint saved under its modulus;
        False when there is none to resume."""
        if not self.path.exists():
            return False
        try:
            wrapper = json.loads(self.path.read_text(encoding="ascii"))
            payload = wrapper["payload"]
            recorded = wrapper["sha256"]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreIntegrityError(f"unreadable checkpoint {self.path}: {exc}") from exc
        if _canonical_json(payload)[1] != recorded:
            raise StoreIntegrityError(
                f"checkpoint {self.path} fails its hash check; refusing to resume "
                f"(delete the file to restart this weight)"
            )
        if not isinstance(payload, dict):
            raise StoreIntegrityError(f"checkpoint {self.path} holds no payload object")
        expected = {"fingerprint": self.fingerprint, "phase": self.PHASE, "modulus": master.prime}
        if any(payload.get(key) != value for key, value in expected.items()):
            import logging  # its last-resort handler prints the warning

            logging.getLogger(__name__).warning(
                "ignoring checkpoint %s from a different configuration", self.path)
            return False
        try:
            master.restore(payload["state"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise StoreIntegrityError(f"malformed checkpoint {self.path}: {exc!r}") from exc
        return True

    def save(self, master: MasterExpression) -> None:
        """Write the payload's canonical text and its hash, piece by piece,
        so that the text is held once."""
        text, digest = _canonical_json({
            "fingerprint": self.fingerprint,
            "phase": self.PHASE,
            "modulus": master.prime,
            "state": master.state(),
        })
        _atomic_write(self.path, '{"payload":', text, f',"sha256":"{digest}"}}')

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


# ------------------------------------------------------------- weight solve

def _solver_kinds(kinds: tuple[str, ...]) -> frozenset[str]:
    """``kinds`` checked, with ``"stuffle"`` among them for the family phase."""
    if "stuffle" not in (kinds := check_kinds(kinds)):
        raise ValueError("the solver requires the stuffle kind for family reduction")
    return kinds


def rank_target(columns: list[Word]) -> int:
    """The number of Lyndon words among ``columns``, the admissible words of
    one weight, that the relations eliminate, by the conjecture that the
    odd Lyndon words count the generators (the count ``verify --dims``
    checks): the Lyndon words less the odd Lyndon words."""
    return sum(map(is_lyndon, columns)) - len(odd_lyndon_words(weight(columns[0])))


def solve_weight(
    w: int,
    tables: dict[int, SolvedWeight],
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    checkpointer: Checkpointer | None = None,
    progress: Callable[[str], None] | None = None,
) -> SolvedWeight:
    """Solve one weight given fully-reduced tables for all lower weights,
    from the relations of ``kinds``, which must include ``"stuffle"``."""
    kinds = _solver_kinds(kinds)
    if w == 2:
        return seed_weight_2()
    if w < 2:
        raise ValueError(f"weight must be >= 2, got {w}")
    for k in range(2, w):
        if k not in tables:
            raise MissingTable(f"weight {k} must be solved before weight {w}")

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)
        _debug("%s", msg)

    columns = list(elimination_order(w))
    relations = relation_descriptors(w, kinds)
    lower = Certifier(tables)
    n_rows = sum(desc[0] != "stuffle" for desc in relations)
    # after the family phase, the shuffle rows by the column of their
    # heavier factor in its own weight, first-eliminated first: they find
    # the few pivots the regularized rows leave within the first rows, so
    # the rank target passes over the rest; then the duality rows
    shuffle = [desc for desc in relations if desc[0] == "shuffle"]
    shuffle.sort(key=lambda desc: elimination_order(weight(desc[2]))[desc[2]])
    rows = shuffle + [desc for desc in relations if desc[0] == "duality"]
    target = rank_target(columns)
    family_seconds = certify_seconds = 0.0
    started = time.monotonic()
    for prime in PRIMES:
        master = MasterExpression(columns, lower, prime, target, n_rows)
        error = None
        t0 = time.monotonic()
        try:
            try:
                # ---- family brackets and regularized rows, or their checkpoint
                if checkpointer is not None and checkpointer.load(master):
                    note(f"weight {w}: resuming after the family phase")
                else:
                    family_phase(master, relations)
                    # not after a stop at the rank target: no counter keeps the skips
                    if checkpointer is not None and not master.skipped:
                        checkpointer.save(master)
            finally:
                family_seconds += time.monotonic() - t0
            # ---- bracketed elimination and back-substitution
            for desc in rows:
                master.absorb(desc)
            master.back_substitute()
        except (UnderdeterminedFamily, InconsistentRelation, ReconstructionError) as exc:
            error = exc
        else:
            survivors = [x for x in columns if x not in master.entries]
            solved = SolvedWeight(w, sorted(survivors, key=listing_key),
                                  {**{x: {(x,): Fraction(1)} for x in survivors}, **master.entries})
            # ---- exact certificate of every relation
            t2 = time.monotonic()
            failed = lower.certify(solved, relations)
            certify_seconds += time.monotonic() - t2
            if failed:
                solved = None  # the next modulus starts without the rejected table
                error = ReconstructionError(
                    f"weight {w}: {len(failed)} relation(s) fail the certificate, "
                    f"{describe(failed[0])} first"
                )
        if checkpointer is not None:  # each modulus writes its own
            checkpointer.clear()
        if error is None:
            break
        _debug("weight %d: modulus of %d bits failed: %s", w, prime.bit_length(), error)
    else:
        raise error
    elimination_seconds = time.monotonic() - started - family_seconds - certify_seconds

    # each row installed a pivot or was redundant: reduced to nothing, or skipped
    redundant = n_rows - master.installed
    height = master.max_coeff_bits
    solved.stats = {
        "families_seconds": round(family_seconds, 3),
        "elimination_seconds": round(elimination_seconds, 3),
        "certify_seconds": round(certify_seconds, 3),
        "rows": n_rows,
        "family_rows": master.n_family,
        "reduced_rows": n_rows - master.skipped,
        "redundant_rows": redundant,
        "pivots": master.installed,
        "modulus_bits": prime.bit_length(),
        "max_bracket_terms": master.peak_terms,
        "bracket_updates": master.bracket_updates,
        "max_coeff_bits": height,
    }
    _debug("weight %d: certified %d row(s) in %.3f s modulo a %d-bit prime, "
           "%d of %d elimination rows reduced, max coefficient %d bits, "
           "%d bracket updates",
           w, len(relations), certify_seconds, prime.bit_length(),
           solved.stats["reduced_rows"], n_rows, height, master.bracket_updates)
    note(
        f"weight {w}: {len(solved.generators)} generator(s), "
        f"{master.installed} pivots, {redundant} redundant rows"
    )
    return solved


# ---------------------------------------------------------------- rendering

def render_monomial(m: Monomial) -> str:
    return "*".join(render_word(f) for f in m)


def render_table(solved: SolvedWeight) -> str:
    """The persistent text form of a fully-reduced table.  Entries appear in
    the solver's column order, :func:`~zetaforge.lyndon.elimination_order`
    (first-eliminated first), so the file ends with the generators'
    self-entries; monomials within an entry are sorted, factors within a
    monomial descend by weight; all signs live in the coefficients.  Each
    distinct monomial is rendered once."""
    rank = elimination_order(solved.weight)
    lines = [
        f"# weight: {solved.weight}",
        "# phase: fully-reduced",
        ("# generators: " + " ".join(render_word(g) for g in solved.generators)).rstrip(),
    ]
    names: dict[Monomial, str] = {}
    for word in sorted(solved.entries, key=rank.__getitem__):
        terms = []
        for m, c in sorted(solved.entries[word].items()):
            name = names.get(m)
            if name is None:
                name = names[m] = render_monomial(m)
            terms.append(f"{c}*{name}")
        lines.append(f"{render_word(word)} = {' + '.join(terms) or '0'}")
    return "\n".join(lines) + "\n"


_COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_coefficient(text: str) -> Fraction:
    """A coefficient as :func:`render_table` writes it: an integer, or
    ``n/d`` with a positive denominator, in ASCII digits with an optional
    leading minus and nothing else (no ``+``, blank, ``_``, decimal point
    or exponent)."""
    if not _COEFFICIENT.fullmatch(text):
        raise ValueError(f"malformed coefficient {text!r}")
    num, _, den = text.partition("/")
    if not den:
        return Fraction(int(num))
    if not int(den):
        raise ValueError(f"coefficient {text!r} has a zero denominator")
    return Fraction(int(num), int(den))


def parse_table(text: str) -> SolvedWeight:
    """Inverse of :func:`render_table`, with structural validation."""
    lines = text.splitlines()
    header: dict[str, str] = {}
    entries: dict[Word, Entry] = {}
    monomials: dict[str, Monomial] = {}  # each distinct monomial parsed once
    coefficients: dict[str, Fraction] = {}  # and each distinct coefficient
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            continue
        left, _, right = line.partition(" = ")
        word = parse_word(left)
        entry: Entry = {}
        if right != "0":
            for term in right.split(" + "):
                coeff_s, _, mono_s = term.partition("*")
                mono = monomials.get(mono_s)
                if mono is None:
                    mono = monomials[mono_s] = tuple(parse_word(f) for f in mono_s.split("*"))
                c = coefficients.get(coeff_s)
                if c is None:
                    c = coefficients[coeff_s] = _parse_coefficient(coeff_s)
                if mono in entry:
                    raise ValueError(f"{left}: monomial {mono_s} named twice")
                if not c:
                    raise ValueError(f"{left}: zero coefficient at {mono_s}")
                entry[mono] = c
        if word in entries:
            raise ValueError(f"duplicate table entry for {render_word(word)}")
        entries[word] = entry
    try:
        w = int(header["weight"])
        phase = header["phase"]
        gen_field = header["generators"]
    except KeyError as exc:
        raise ValueError(f"table file missing header line {exc}") from exc
    generators = [parse_word(g) for g in gen_field.split()] if gen_field else []
    if phase != "fully-reduced":
        raise ValueError(f"unsupported table phase {phase!r}")
    for x in entries:
        if weight(x) != w or not is_admissible(x):
            raise ValueError(f"{render_word(x)} is not an admissible word of weight {w}")
    if len(entries) != 2 ** (w - 2):
        raise ValueError(
            f"weight-{w} table has {len(entries)} entries, expected {2 ** (w - 2)}"
        )
    tabled = sorted((x for x, entry in entries.items() if entry == {(x,): 1}), key=listing_key)
    if generators != tabled:
        raise ValueError("header generators are not the words tabled as themselves, "
                         "each once in listing order")
    for mono in monomials.values():
        if sum(map(weight, mono)) != w:
            raise ValueError(f"monomial {render_monomial(mono)} is not of weight {w}")
    return SolvedWeight(weight=w, generators=generators, entries=entries)


# -------------------------------------------------------------- persistence

def _atomic_write(path: Path, *pieces: str) -> None:
    """Write the concatenation of ``pieces`` to ``path`` atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class TableStore:
    """Directory of per-weight table files plus a manifest of content hashes.

    Loads verify the file bytes against the manifest hash and fail loudly on
    mismatch, or when hash-valid bytes are not a valid table; saves are
    atomic and keep the manifest in step.  Saves from several processes
    into one directory update the manifest one at a time, under an
    exclusive ``flock`` on the directory, so no save loses another's
    record.  The manifest also records the build identifier that produced
    each file.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def table_path(self, w: int) -> Path:
        return self.root / f"weight-{w:02d}.table"

    def checkpoint_path(self, w: int) -> Path:
        return self.root / f"weight-{w:02d}.checkpoint.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {"build": BUILD_ID, "format": TABLE_FORMAT, "weights": {}}
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="ascii"))
            for key, record in manifest["weights"].items():
                int(key), record["sha256"]  # each record names a weight and a hash
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise StoreIntegrityError(f"corrupt manifest {self.manifest_path}: {exc}") from exc
        return manifest

    def has(self, w: int) -> bool:
        return self.table_path(w).exists() and str(w) in self.read_manifest()["weights"]

    def save(self, solved: SolvedWeight) -> Path:
        text = render_table(solved)
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        path = self.table_path(solved.weight)
        _atomic_write(path, text)
        fd = os.open(self.root, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd closes
            manifest = self.read_manifest()
            manifest["build"] = BUILD_ID
            manifest["format"] = TABLE_FORMAT
            manifest["weights"][str(solved.weight)] = {
                "file": path.name,
                "entries": len(solved.entries),
                "generators": len(solved.generators),
                "sha256": digest,
            }
            manifest["weights"] = dict(
                sorted(manifest["weights"].items(), key=lambda kv: int(kv[0]))
            )
            _atomic_write(self.manifest_path, json.dumps(manifest, indent=2) + "\n")
        finally:
            os.close(fd)
        return path

    def load(self, w: int) -> SolvedWeight:
        path = self.table_path(w)
        if not path.exists():
            raise MissingTable(f"no table file for weight {w} in {self.root}")
        record = self.read_manifest()["weights"].get(str(w))
        if record is None:
            raise StoreIntegrityError(
                f"{path.name} exists but is not recorded in the manifest"
            )
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != record["sha256"]:
            raise StoreIntegrityError(
                f"{path.name} does not match the manifest hash; refusing to load"
            )
        try:
            solved = parse_table(data.decode("ascii"))
        except ValueError as exc:
            raise StoreIntegrityError(f"{path.name} is not a valid table: {exc}") from exc
        if solved.weight != w:
            raise StoreIntegrityError(f"{path.name} declares weight {solved.weight}")
        return solved


def check_factors(tables: dict[int, SolvedWeight], w: int, name: str) -> None:
    """Raise :class:`StoreIntegrityError`, naming the table file ``name``,
    unless every monomial factor of the weight-``w`` table is a generator of
    its own weight in ``tables``.  :func:`parse_table` sees one table only,
    so a loaded range makes this check as each weight joins it.  The
    factors are read off the table's distinct monomials."""
    factors = {f for m in set().union(*tables[w].entries.values()) for f in m}
    for f in sorted(factors):
        table = tables.get(weight(f))
        if table is None or f not in table.generators:
            raise StoreIntegrityError(
                f"{name}: monomial factor {render_word(f)} is not a generator of weight "
                f"{weight(f)}"
            )


def ensure_solved(
    store: TableStore,
    up_to: int,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    progress: Callable[[str], None] | None = None,
) -> dict[int, SolvedWeight]:
    """Load or solve every weight from 2 through ``up_to``, saving newly
    solved tables.  Already-stored weights are loaded (hash-verified), never
    recomputed, which makes repeated runs idempotent byte for byte."""
    if up_to < 2:
        raise ValueError(f"maximum weight must be >= 2, got {up_to}")
    _solver_kinds(kinds)
    tables: dict[int, SolvedWeight] = {}
    for w in range(2, up_to + 1):
        if store.has(w):
            tables[w] = store.load(w)
            check_factors(tables, w, store.table_path(w).name)
            continue
        checkpointer = Checkpointer(store.checkpoint_path(w), kinds)
        solved = solve_weight(w, tables, kinds, checkpointer=checkpointer, progress=progress)
        store.save(solved)
        tables[w] = solved
        if progress is not None:
            progress(f"weight {w}: table saved ({len(solved.entries)} entries)")
    return tables
