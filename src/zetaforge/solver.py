"""Weight-by-weight reduction onto the conjectured basis.

The pipeline per weight W, given fully-reduced tables for all lower weights:

1. Family reduction.  Stuffle relations mix only words sharing one index
   multiset (a family) plus lower-depth merge terms and lower-weight
   products, so each family is solved locally, depth ascending, producing an
   entry for every non-Lyndon admissible word over same-weight Lyndon words
   and products of lower-weight generators.  Families at one depth are
   independent given the lower depths, which is the parallel unit.

2. Bracketed elimination.  The remaining relation rows (regularized rows,
   shuffle product rows, optionally duality rows), with family entries
   substituted, are reduced over the Lyndon words of the weight in a fixed
   elimination order.  Words that never become a pivot survive as this
   weight's generators.  Pivot selection is sequential and runs in the
   calling process, so the result is independent of worker count.

   The elimination runs modulo a prime.  Every row is expanded once,
   exactly, in integers (the relation's integer residue over the family
   entries and the lower tables, each scaled to integers once) and its
   image mod p is reduced into one fully reduced echelon: each bracket has
   lead 1 and no entry at another bracket's lead.  Every bracket entry is
   then rebuilt as a rational by Wang's rational reconstruction, and after
   assembly *every* elimination row is certified exactly: substituted
   through the lower tables and the new one in integer arithmetic, it must
   give zero (the same check ``verify`` runs).  A modulus under which a
   relation reduces to 0 = nonzero, a residue has no small rational
   preimage, or the certificate rejects a row is replaced by the next one
   in ``PRIMES``; when none is left the solve fails, so no table leaves
   uncertified.

   Why the certificate pins the bytes: a row that substitutes to zero
   through the table is the sum of its entries at the pivot columns times
   their brackets, so every certified row lies in the span of the
   brackets.  There is one bracket per pivot, and the rank mod p is never
   more than the rank over Q, so the two spans are equal.  By construction
   the brackets are in reduced row-echelon form over the fixed column
   order, and that form is unique, so the table does not depend on the
   modulus.

3. Assembly.  The rational pivot brackets are composed with the family
   entries into the fully-reduced table: every admissible word of the
   weight maps to a combination of basis monomials (products of generators
   of total weight W).

Tables persist as one text file per weight plus a manifest with content
hashes.  The family phase checkpoints after each depth, so an interrupted
solve resumes after the last completed depth; a crash in elimination keeps
every family entry and redoes only that weight's elimination.  A checkpoint
whose payload hash does not match is never reused.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

from ._meta import BUILD_ID, TABLE_FORMAT
from .algebra import (
    DEFAULT_KINDS,
    Monomial,
    add_scaled,
    add_term,
    check_kinds,
    describe,
    expand_relation,
    lc_mul,
    relation_descriptors,
)
from .lyndon import candidate_words, listing_key
from .words import (
    Word,
    admissible_words,
    elim_key,
    is_lyndon,
    parse_word,
    render_word,
    weight,
)

log = logging.getLogger(__name__)

Entry = dict[Monomial, Fraction]
WordCombo = dict[Word, Fraction]
MonoCombo = dict[Monomial, Fraction]
# A half-reduced expression: a part still over same-weight words plus a part
# already over basis monomials.
SplitCombo = tuple[WordCombo, MonoCombo]


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


# ----------------------------------------------------------- configuration

@dataclass(frozen=True)
class RunConfig:
    """Solve configuration.  Worker count never affects results, so it is
    excluded from the checkpoint fingerprint."""

    jobs: int = 1
    kinds: tuple[str, ...] = DEFAULT_KINDS

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        check_kinds(self.kinds)

    def fingerprint(self) -> dict:
        return {"format": TABLE_FORMAT, "kinds": sorted(set(self.kinds))}


@dataclass
class SolvedWeight:
    """A fully-reduced substitution table for one weight.

    ``entries`` maps every admissible word of the weight (generators
    included, as their own single-factor monomial) to a combination of basis
    monomials.  ``generators`` are the surviving single words, in listing
    order.
    """

    weight: int
    generators: list[Word]
    entries: dict[Word, Entry]
    phase: str = "fully-reduced"
    stats: dict = field(default_factory=dict)


def seed_weight_2() -> SolvedWeight:
    """The base of the recursion: weight 2 with the single generator (2)."""
    return SolvedWeight(2, [(2,)], {(2,): {((2,),): Fraction(1)}})


# ------------------------------------------------------------ substitution

def product_value(u: Word, v: Word, tables: dict[int, SolvedWeight]) -> MonoCombo:
    """The product Z(u)*Z(v) expanded over basis monomials via the
    fully-reduced lower-weight tables."""
    return lc_mul(tables[weight(u)].entries[u], tables[weight(v)].entries[v])


def split_substitute(combo: WordCombo, entries: dict[Word, SplitCombo]) -> SplitCombo:
    """Apply half-reduced entries to a same-weight word combination.

    Entries are kept fully substituted against each other (their word parts
    mention only words without entries), so one pass suffices and the
    operation is idempotent.
    """
    word_part: WordCombo = {}
    mono_part: MonoCombo = {}
    for w, c in combo.items():
        entry = entries.get(w)
        if entry is None:
            add_term(word_part, w, c)
        else:
            add_scaled(word_part, entry[0], c)
            add_scaled(mono_part, entry[1], c)
    return word_part, mono_part


def substitute_tables(combo: WordCombo, tables: dict[int, SolvedWeight]) -> MonoCombo:
    """Fully reduce a weight-homogeneous word combination through the
    fully-reduced tables.  Idempotent in the sense that the result is already
    over basis monomials; errors name the first unresolved word."""
    out: MonoCombo = {}
    for w, c in combo.items():
        table = tables.get(weight(w))
        if table is None or w not in table.entries:
            raise MissingTable(f"no table entry for {render_word(w)}")
        add_scaled(out, table.entries[w], c)
    return out


def _scale(entry: Entry) -> tuple[int, dict[Monomial, int]]:
    """``entry`` as integers over the lcm of its denominators."""
    den = math.lcm(*(c.denominator for c in entry.values()))
    return den, {
        m: c.numerator if c.denominator == den else c.numerator * (den // c.denominator)
        for m, c in entry.items()
    }


def expand_row(
    desc: tuple, entry: Callable[[Word], tuple[int, dict[Monomial, int]]]
) -> dict[Monomial, int]:
    """The integer residue of the relation ``desc``: every word replaced by
    its scaled entry ``entry(word)``, a product's value (the integer product
    of its factors' scaled entries) subtracted, and every denominator
    cleared with their lcm.  Zero entries are dropped."""
    combo, product = expand_relation(desc)
    terms = [(c, *entry(x)) for x, c in combo.items()]
    if product is not None:
        (den_u, u), (den_v, v) = map(entry, product)
        terms.append((-1, den_u * den_v, lc_mul(u, v)))
    lcd = math.lcm(*(den for _, den, _ in terms))
    residue: dict[Monomial, int] = {}
    for c, den, scaled in terms:
        scale = c * (lcd // den)
        for m, v in scaled.items():
            residue[m] = residue.get(m, 0) + scale * v
    return {m: v for m, v in residue.items() if v}


class Certifier:
    """The exact check of relation instances against fully-reduced tables,
    in integer arithmetic.

    A relation holds when its word combination, substituted through the
    tables, equals the tabled value of its product (zero when it has none):
    when its integer residue (:func:`expand_row`) is empty.  Each word's
    entry is scaled once to integers over one denominator.  The entries of a
    weight are scaled together on first use and cached, so a certifier
    serves one set of tables that does not change while it is used.
    """

    def __init__(self, tables: dict[int, SolvedWeight]):
        self.tables = tables
        self._scaled: dict[int, dict[Word, tuple[int, dict[Monomial, int]]]] = {}

    def entry(self, w: Word) -> tuple[int, dict[Monomial, int]]:
        """The scaled table entry of ``w``."""
        k = weight(w)
        scaled = self._scaled.get(k)
        if scaled is None:
            table = self.tables.get(k)
            entries = table.entries if table is not None else {}
            scaled = self._scaled[k] = {x: _scale(entry) for x, entry in entries.items()}
        got = scaled.get(w)
        if got is None:
            raise MissingTable(f"no table entry for {render_word(w)}")
        return got

    def with_table(self, solved: SolvedWeight) -> Certifier:
        """A certifier over these tables plus ``solved``, reusing the entries
        already scaled at every other weight."""
        other = Certifier({**self.tables, solved.weight: solved})
        other._scaled = {k: v for k, v in self._scaled.items() if k != solved.weight}
        return other

    def residue(self, desc: tuple) -> dict[Monomial, int]:
        """The relation ``desc`` substituted through the tables, times the
        lcm of the denominators involved: empty exactly when it holds."""
        return expand_row(desc, self.entry)

    def rejects(self, descs: list[tuple]) -> list[tuple]:
        """The relations among ``descs`` that do not hold."""
        return [desc for desc in descs if self.residue(desc)]


# --------------------------------------------------------- family reduction

def _multiset_splits(key: tuple[int, ...]) -> list[tuple[tuple, tuple]]:
    """Unordered splits of a multiset into two nonempty sub-multisets."""
    items = list(key)
    n = len(items)
    seen = set()
    out = []
    for r in range(1, n // 2 + 1):
        for picked in combinations(range(n), r):
            left = tuple(sorted((items[i] for i in picked), reverse=True))
            rest = tuple(
                sorted((items[i] for i in range(n) if i not in picked), reverse=True)
            )
            if 2 * r == n and left > rest:
                left, rest = rest, left
            if (left, rest) not in seen:
                seen.add((left, rest))
                out.append((left, rest))
    return out


def _admissible_orderings(mset: tuple[int, ...]) -> list[Word]:
    """Distinct admissible orderings of a multiset, sorted."""
    found = set()

    def rec(prefix: Word, rest: tuple[int, ...]) -> None:
        if not rest:
            found.add(prefix)
            return
        used = set()
        for i, m in enumerate(rest):
            if m in used:
                continue
            used.add(m)
            rec(prefix + (m,), rest[:i] + rest[i + 1:])

    rec((), mset)
    return sorted(w for w in found if w[0] >= 2)


def solve_family(
    key: tuple[int, ...],
    members: list[Word],
    pool: frozenset[Word],
    entries: dict[Word, SplitCombo],
    tables: dict[int, SolvedWeight],
) -> dict[Word, SplitCombo]:
    """Express every non-Lyndon member of one family over Lyndon words and
    tabled content, using the stuffle relations of all splits of the family
    multiset.  ``entries`` must already cover all lower depths of the same
    weight; the returned local entries are fully substituted."""
    unknowns = [w for w in members if not is_lyndon(w)]
    if not unknowns:
        return {}
    local: dict[Word, SplitCombo] = {}
    depth = len(key)

    for left, right in _multiset_splits(key):
        for u in _admissible_orderings(left):
            for v in _admissible_orderings(right):
                expansion, _ = expand_relation(("stuffle", u, v))
                word_part, mono_part = split_substitute(expansion, entries)
                add_scaled(mono_part, product_value(u, v, tables), -1)
                # local entries never reference each other's pivots (they are
                # rewritten whenever a new pivot lands), so one pass suffices
                word_part, local_monos = split_substitute(word_part, local)
                add_scaled(mono_part, local_monos, 1)
                pivot_choices = [
                    w for w in word_part if len(w) == depth and not is_lyndon(w)
                ]
                if not pivot_choices:
                    if word_part or mono_part:
                        raise InconsistentRelation(
                            f"family {key}: stuffle of {render_word(u)} and "
                            f"{render_word(v)} left a relation among Lyndon words"
                        )
                    continue
                pivot = max(pivot_choices, key=lambda w: elim_key(w, pool))
                # exact even when the pivot's coefficient is a plain int
                scale = Fraction(-1, word_part.pop(pivot))
                expr_w = {w: c * scale for w, c in word_part.items()}
                expr_m = {m: c * scale for m, c in mono_part.items()}
                for prev, (prev_w, prev_m) in local.items():
                    c0 = prev_w.pop(pivot, None)
                    if c0 is not None:
                        add_scaled(prev_w, expr_w, c0)
                        add_scaled(prev_m, expr_m, c0)
                local[pivot] = (expr_w, expr_m)
    missing = [w for w in unknowns if w not in local]
    if missing:
        raise UnderdeterminedFamily(
            f"family {key} leaves {[render_word(w) for w in missing]} unexpressed"
        )
    return local


# --------------------------------------------------- parallel worker plumbing

# Fork-inherited read-only context for worker processes.  Set immediately
# before a Pool is created and cleared after; workers never mutate it.
_WORKER_CTX: dict = {}


def _set_worker_ctx(**ctx) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _clear_worker_ctx() -> None:
    global _WORKER_CTX
    _WORKER_CTX = {}


def _family_worker(key: tuple[int, ...]) -> tuple[tuple[int, ...], dict]:
    ctx = _WORKER_CTX
    return key, solve_family(
        key, ctx["families"][key], ctx["pool"], ctx["entries"], ctx["tables"]
    )


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        log.warning("fork start method unavailable; running single-process")
        return None


def _parallel_map_list(fn, items: list, jobs: int, chunksize: int = 1) -> list:
    """Ordered map over items, forked across ``jobs`` workers when possible.
    Falls back to sequential when jobs == 1 or fork is unavailable."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = _fork_context()
    if ctx is None:
        return [fn(item) for item in items]
    with ctx.Pool(min(jobs, len(items))) as pool:
        return list(pool.imap(fn, items, chunksize=chunksize))


def family_phase(
    w: int,
    tables: dict[int, SolvedWeight],
    pool: frozenset[Word],
    jobs: int = 1,
    on_depth_done: Callable[[int, dict[Word, SplitCombo]], None] | None = None,
    resume: tuple[int, dict[Word, SplitCombo]] | None = None,
) -> dict[Word, SplitCombo]:
    """Run family reduction for all depths of weight ``w``, ascending.

    Returns the entry map word -> (word part, monomial part) covering every
    non-Lyndon admissible word.  ``on_depth_done`` fires after each completed
    depth (the checkpoint hook); ``resume`` restarts after a completed depth.
    """
    entries: dict[Word, SplitCombo] = {}
    done_depth = 0
    if resume is not None:
        done_depth, entries = resume
    all_families: dict[int, dict] = {}
    for word in admissible_words(w):
        all_families.setdefault(len(word), {}).setdefault(
            tuple(sorted(word, reverse=True)), []
        ).append(word)
    for depth in sorted(all_families):
        if depth <= done_depth:
            continue
        families = all_families[depth]
        keys = sorted(k for k, members in families.items()
                      if any(not is_lyndon(m) for m in members))
        _set_worker_ctx(families=families, pool=pool, entries=entries, tables=tables)
        try:
            results = _parallel_map_list(_family_worker, keys, jobs)
        finally:
            _clear_worker_ctx()
        for _key, local in results:
            entries.update(local)
        if on_depth_done is not None:
            on_depth_done(depth, entries)
    return entries


# ------------------------------------------------------ bracketed elimination

# Moduli of the elimination, tried in turn (Mersenne primes).  Wang's bound
# under the first, |n|, d < 2^63, covers every bracket entry up to weight 12
# (38 bits); the tables do not depend on the modulus that certifies them.
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
    """Elimination state over one weight's Lyndon words, modulo ``prime``.

    Rows live in one integer column space: the word ``columns[k]`` is column
    ``k`` for ``k < n_words``, and monomial ``monomials[i]`` is column
    ``n_words + i``, so every monomial column sorts after every word column.

    A row is a relation instance ``(kind, *words)``, expanded once, exactly
    and in integers, through the same scaled entries as :class:`Certifier`:
    every weight-w word is scaled once when the master is built (a Lyndon
    word is its own column; a family entry's Lyndon words are single-factor
    monomials), and lower-table entries on first use.  In the relation's
    integer residue (:meth:`residue`) single words map to word columns and
    every other monomial to a monomial column (:meth:`integer_row`).

    ``pivots`` is the one echelon, mod ``prime`` and fully reduced: it maps
    each eliminated word (a column index) to its bracket, a row with entry 1
    at that column and no entry at another bracket's lead, so reducing a
    row costs one pass over its leads.  :meth:`absorb` reduces a row's image
    mod p against it and either installs a bracket at the leading column of
    what is left or counts the row as redundant.  :meth:`back_substitute`
    rebuilds every bracket entry as a rational (:func:`rational`); read as
    "word = minus the rest", a bracket is then its word's right-hand side.

    ``peak_terms`` is the largest number of live bracket terms after any
    install, and ``coeff_bits`` the largest bit length of a rebuilt
    numerator or denominator.
    """

    def __init__(
        self,
        columns: list[Word],
        entries: dict[Word, SplitCombo],
        tables: dict[int, SolvedWeight],
        prime: int = PRIMES[0],
    ):
        self.columns = columns
        self.col_of = {w: i for i, w in enumerate(columns)}
        self.n_words = len(columns)
        self.weight = weight(columns[0])
        self.mono_ids: dict[Monomial, int] = {}
        self.monomials: list[Monomial] = []
        self.pivots: dict[int, dict] = {}
        self.redundant = 0
        self.peak_terms = 0
        self.coeff_bits = 0
        self.prime = prime
        self.lower = Certifier(tables)
        # every weight-w word with a column or a family entry, scaled
        self._scaled = {x: (1, {(x,): 1}) for x in columns}
        for x, (word_part, mono_part) in entries.items():
            self._scaled[x] = _scale({**{(y,): c for y, c in word_part.items()}, **mono_part})

    def _mono_col(self, m: Monomial) -> int:
        mid = self.mono_ids.get(m)
        if mid is None:
            mid = len(self.monomials)
            self.mono_ids[m] = mid
            self.monomials.append(m)
        return self.n_words + mid

    def _entry(self, x: Word) -> tuple[int, dict[Monomial, int]]:
        got = self._scaled.get(x)
        if got is None:
            # a product's factor, or a weight-w word left without a family
            # entry, which :meth:`integer_row` reports
            got = self.lower.entry(x) if weight(x) < self.weight else (1, {(x,): 1})
        return got

    def residue(self, desc: tuple) -> dict[Monomial, int]:
        """The integer residue of the relation ``desc`` over the family
        entries and the lower tables."""
        return expand_row(desc, self._entry)

    def integer_row(self, desc: tuple) -> dict[int, int]:
        """The integer row of the relation ``desc``."""
        row: dict[int, int] = {}
        for m, v in self.residue(desc).items():
            if len(m) > 1:
                row[self._mono_col(m)] = v
            elif (col := self.col_of.get(m[0])) is not None:
                row[col] = v
            else:
                raise InconsistentRelation(
                    f"{describe(desc)}: word {render_word(m[0])} missing a family entry"
                )
        return row

    def absorb(self, desc: tuple) -> bool:
        """Reduce one relation row mod p into the echelon.  Returns True when
        the row installed a new bracket, False when it was redundant."""
        p = self.prime
        pivots = self.pivots
        row = {k: v % p for k, v in self.integer_row(desc).items()}
        # each bracket has lead 1, so subtracting it clears its lead
        for lead in [k for k in row if k in pivots]:
            scale = row[lead]
            if scale:
                for k, v in pivots[lead].items():
                    row[k] = row.get(k, 0) - scale * v
        row = {k: v % p for k, v in row.items() if v % p}
        if not row:
            self.redundant += 1
            return False
        lead = min(row)
        if lead >= self.n_words:
            raise InconsistentRelation(f"{describe(desc)}: reduced to 0 = nonzero")
        inv = pow(row[lead], -1, p)
        bracket = {k: v * inv % p for k, v in row.items()}
        for other in pivots.values():
            c = other.get(lead)
            if c:
                for k, v in bracket.items():
                    x = (other.get(k, 0) - c * v) % p
                    if x:
                        other[k] = x
                    else:
                        other.pop(k, None)
        pivots[lead] = bracket
        self.peak_terms = max(self.peak_terms, sum(map(len, pivots.values())))
        return True

    def back_substitute(self) -> None:
        """Rebuild every bracket entry as a rational.  The echelon is fully
        reduced, so each bracket already names only its own column, survivor
        columns and monomial columns."""
        p = self.prime
        pivots = self.pivots
        for col, row in pivots.items():
            pivots[col] = {k: rational(v, p) for k, v in row.items()}
        self.coeff_bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for row in pivots.values() for c in row.values()),
            default=0,
        )

    def survivors(self) -> list[Word]:
        return [w for i, w in enumerate(self.columns) if i not in self.pivots]


# Elimination rows, in consumption order (stuffle relations are spent in the
# family phase).
ELIMINATION_ORDER = ("hoffman", "shuffle", "duality")


# ------------------------------------------------------------- checkpointing

def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_hash(payload: dict) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("ascii")).hexdigest()


class Checkpointer:
    """Hash-guarded resume state for one weight's solve.

    The file holds a JSON payload plus its sha256; a payload that fails the
    hash check, or a malformed file, refuses to resume (the caller must
    delete the file to start over).  A checkpoint written under a different configuration fingerprint
    is ignored with a warning instead, since it describes a different run.
    So is one that is not a family-phase checkpoint: older builds also
    checkpointed mid-elimination, and such a payload cannot be resumed.
    """

    def __init__(self, path: Path, fingerprint: dict):
        self.path = Path(path)
        self.fingerprint = fingerprint

    def load(self) -> tuple[int, dict[Word, SplitCombo]] | None:
        """The last completed family depth and the entries up to it, or
        None when there is nothing to resume."""
        if not self.path.exists():
            return None
        try:
            wrapper = json.loads(self.path.read_text(encoding="ascii"))
            payload = wrapper["payload"]
            recorded = wrapper["sha256"]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreIntegrityError(f"unreadable checkpoint {self.path}: {exc}") from exc
        if _payload_hash(payload) != recorded:
            raise StoreIntegrityError(
                f"checkpoint {self.path} fails its hash check; refusing to resume "
                f"(delete the file to restart this weight)"
            )
        if not isinstance(payload, dict):
            raise StoreIntegrityError(f"checkpoint {self.path} holds no payload object")
        if payload.get("fingerprint") != self.fingerprint or payload.get("phase") != "families":
            log.warning("ignoring checkpoint %s from a different configuration", self.path)
            return None
        try:
            return int(payload["depth_done"]), _entries_restore(payload["entries"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise StoreIntegrityError(f"malformed checkpoint {self.path}: {exc!r}") from exc

    def save(self, payload: dict) -> None:
        payload = dict(payload, fingerprint=self.fingerprint)
        wrapper = {"payload": payload, "sha256": _payload_hash(payload)}
        _atomic_write(self.path, json.dumps(wrapper))

    def clear(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def _entries_state(entries: dict[Word, SplitCombo]) -> dict:
    return {
        _word_str(w): {
            "w": {_word_str(x): str(c) for x, c in wp.items()},
            "m": {_mono_str(m): str(c) for m, c in mp.items()},
        }
        for w, (wp, mp) in entries.items()
    }


def _entries_restore(state: dict) -> dict[Word, SplitCombo]:
    out: dict[Word, SplitCombo] = {}
    for ws, parts in state.items():
        wp = {_parse_word_str(x): Fraction(c) for x, c in parts["w"].items()}
        mp = {_parse_mono_str(m): Fraction(c) for m, c in parts["m"].items()}
        out[_parse_word_str(ws)] = (wp, mp)
    return out


def _word_str(w: Word) -> str:
    return ",".join(str(m) for m in w)


def _parse_word_str(s: str) -> Word:
    return tuple(int(p) for p in s.split(","))


def _mono_str(m: Monomial) -> str:
    return "|".join(_word_str(f) for f in m)


def _parse_mono_str(s: str) -> Monomial:
    return tuple(_parse_word_str(p) for p in s.split("|"))


# ------------------------------------------------------------- weight solve

def solve_weight(
    w: int,
    tables: dict[int, SolvedWeight],
    config: RunConfig = RunConfig(),
    checkpointer: Checkpointer | None = None,
    survivor_bias: Word | None = None,
    progress: Callable[[str], None] | None = None,
) -> SolvedWeight:
    """Solve one weight given fully-reduced tables for all lower weights.

    ``survivor_bias`` moves one Lyndon word to the very end of the
    elimination scan so it survives whenever the relations allow; the
    verification module uses this for minimal-depth searches.  The bias is
    never part of a persisted run.
    """
    if w == 2:
        return seed_weight_2()
    if w < 2:
        raise ValueError(f"weight must be >= 2, got {w}")
    kinds = check_kinds(config.kinds)
    if "stuffle" not in kinds:
        raise ValueError("the solver requires the stuffle kind for family reduction")
    for lower in range(2, w):
        if lower not in tables:
            raise MissingTable(f"weight {lower} must be solved before weight {w}")

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)
        log.debug("%s", msg)

    pool = candidate_words(w)
    resume = checkpointer.load() if checkpointer is not None else None

    # ---- family reduction
    t0 = time.monotonic()
    if resume is not None:
        note(f"weight {w}: resuming family phase after depth {resume[0]}")

    def depth_done(depth: int, entries: dict) -> None:
        if checkpointer is not None:
            checkpointer.save(
                {
                    "weight": w,
                    "phase": "families",
                    "depth_done": depth,
                    "entries": _entries_state(entries),
                }
            )
        log.debug("weight %d: family depth %d done", w, depth)

    entries = family_phase(
        w, tables, pool, config.jobs, on_depth_done=depth_done, resume=resume
    )
    family_seconds = time.monotonic() - t0

    # ---- bracketed elimination
    t1 = time.monotonic()
    columns = sorted(
        (x for x in admissible_words(w) if is_lyndon(x)),
        key=lambda x: elim_key(x, pool),
        reverse=True,
    )
    if survivor_bias is not None:
        if survivor_bias not in columns:
            raise ValueError(f"survivor bias {survivor_bias!r} is not a Lyndon word at weight {w}")
        columns.remove(survivor_bias)
        columns.append(survivor_bias)
    rows = relation_descriptors(w, kinds, order=ELIMINATION_ORDER)
    certify_seconds = 0.0
    for prime in PRIMES:
        master = MasterExpression(columns, entries, tables, prime)
        try:
            for done, desc in enumerate(rows, 1):
                master.absorb(desc)
                if done % PROGRESS_ROWS == 0:
                    log.debug("weight %d: %d/%d rows absorbed, %d pivots",
                              w, done, len(rows), len(master.pivots))
            master.back_substitute()
            solved = _assemble(w, master, entries, master.survivors())
        except (InconsistentRelation, ReconstructionError) as exc:
            error = exc
        else:
            # ---- exact certificate of every elimination row
            t2 = time.monotonic()
            failed = master.lower.with_table(solved).rejects(rows)
            certify_seconds += time.monotonic() - t2
            if not failed:
                break
            error = ReconstructionError(
                f"weight {w}: {len(failed)} relation(s) fail the certificate, "
                f"{describe(failed[0])} first"
            )
        log.debug("weight %d: modulus of %d bits failed: %s", w, prime.bit_length(), error)
    else:
        raise error
    elimination_seconds = time.monotonic() - t1 - certify_seconds

    solved.stats = {
        "families_seconds": round(family_seconds, 3),
        "elimination_seconds": round(elimination_seconds, 3),
        "certify_seconds": round(certify_seconds, 3),
        "rows": len(rows),
        "redundant_rows": master.redundant,
        "pivots": len(master.pivots),
        "modulus_bits": prime.bit_length(),
        "max_bracket_terms": master.peak_terms,
        "max_coeff_bits": master.coeff_bits,
    }
    if checkpointer is not None:
        checkpointer.clear()
    log.debug("weight %d: certified %d row(s) in %.3f s modulo a %d-bit prime, "
              "max coefficient %d bits",
              w, len(rows), certify_seconds, prime.bit_length(), master.coeff_bits)
    note(
        f"weight {w}: {len(solved.generators)} generator(s), "
        f"{len(master.pivots)} pivots, {master.redundant} redundant rows"
    )
    return solved


def _assemble(
    w: int,
    master: MasterExpression,
    entries: dict[Word, SplitCombo],
    survivors: list[Word],
) -> SolvedWeight:
    """Compose pivot brackets and family entries into the fully-reduced
    table covering every admissible word of the weight."""
    columns = master.columns
    table: dict[Word, Entry] = {}
    for x in survivors:
        table[x] = {(x,): Fraction(1)}

    def bracket_entry(col: int, row: dict[int, Fraction]) -> Entry:
        entry: Entry = {}
        for k, v in row.items():
            if k >= master.n_words:
                entry[master.monomials[k - master.n_words]] = -v
            elif k != col:
                word = columns[k]
                if word not in table or k in master.pivots:
                    raise InconsistentRelation(
                        f"bracket for {render_word(columns[col])} still references "
                        f"{render_word(word)} after back-substitution"
                    )
                entry[(word,)] = -v
        return entry

    for col, row in master.pivots.items():
        table[columns[col]] = bracket_entry(col, row)
    for word in admissible_words(w):
        if word in table:
            continue
        word_part, mono_part = entries[word]
        entry = dict(mono_part)
        for x, c in word_part.items():
            add_scaled(entry, table[x], c)
        table[word] = {m: c for m, c in entry.items() if c}

    expected = 2 ** (w - 2)
    if len(table) != expected:
        raise SolverError(
            f"weight {w} table has {len(table)} entries, expected {expected}"
        )
    for word, entry in table.items():
        for mono in entry:
            if sum(weight(f) for f in mono) != w:
                raise SolverError(
                    f"entry for {render_word(word)} contains a monomial of wrong weight"
                )
    return SolvedWeight(
        weight=w,
        generators=sorted(survivors, key=listing_key),
        entries=table,
    )


# ---------------------------------------------------------------- rendering

def render_monomial(m: Monomial) -> str:
    return "*".join(render_word(f) for f in m)


def render_entry(word: Word, entry: Entry) -> str:
    if not entry:
        return f"{render_word(word)} = 0"
    terms = [f"{c}*{render_monomial(m)}" for m, c in sorted(entry.items())]
    return f"{render_word(word)} = {' + '.join(terms)}"


def render_table(solved: SolvedWeight) -> str:
    """The persistent text form of a fully-reduced table.  Entries appear in
    elimination order (first-eliminated first), so the file ends with the
    generators' self-entries; monomials within an entry are sorted, factors
    within a monomial descend by weight; all signs live in the coefficients."""
    pool = candidate_words(solved.weight)
    lines = [
        f"# weight: {solved.weight}",
        f"# phase: {solved.phase}",
        ("# generators: " + " ".join(render_word(g) for g in solved.generators)).rstrip(),
    ]
    order = sorted(
        solved.entries, key=lambda x: elim_key(x, pool), reverse=True
    )
    lines.extend(render_entry(word, solved.entries[word]) for word in order)
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> SolvedWeight:
    """Inverse of :func:`render_table`, with structural validation."""
    lines = text.splitlines()
    header: dict[str, str] = {}
    entries: dict[Word, Entry] = {}
    monomials: dict[str, Monomial] = {}  # each distinct monomial parsed once
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            continue
        left, _, right = line.partition("=")
        word = parse_word(left)
        entry: Entry = {}
        right = right.strip()
        if right != "0":
            for term in right.split(" + "):
                coeff_s, _, mono_s = term.partition("*")
                mono = monomials.get(mono_s)
                if mono is None:
                    mono = monomials[mono_s] = tuple(parse_word(f) for f in mono_s.split("*"))
                add_term(entry, mono, Fraction(coeff_s))
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
    if len(entries) != 2 ** (w - 2):
        raise ValueError(
            f"weight-{w} table has {len(entries)} entries, expected {2 ** (w - 2)}"
        )
    if set(generators) != {x for x, entry in entries.items() if entry == {(x,): 1}}:
        raise ValueError("header generators differ from the words tabled as themselves")
    for mono in monomials.values():
        if sum(map(weight, mono)) != w:
            raise ValueError(f"monomial {render_monomial(mono)} is not of weight {w}")
    return SolvedWeight(weight=w, generators=generators, entries=entries, phase=phase)


# -------------------------------------------------------------- persistence

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
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
    atomic and keep the manifest in step.  The manifest
    also records the build identifier that produced each file.
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
        except (ValueError, ZeroDivisionError) as exc:
            raise StoreIntegrityError(f"{path.name} is not a valid table: {exc}") from exc
        if solved.weight != w:
            raise StoreIntegrityError(f"{path.name} declares weight {solved.weight}")
        return solved


def ensure_solved(
    store: TableStore,
    up_to: int,
    config: RunConfig = RunConfig(),
    progress: Callable[[str], None] | None = None,
) -> dict[int, SolvedWeight]:
    """Load or solve every weight from 2 through ``up_to``, saving newly
    solved tables.  Already-stored weights are loaded (hash-verified), never
    recomputed, which makes repeated runs idempotent byte for byte."""
    if up_to < 2:
        raise ValueError(f"maximum weight must be >= 2, got {up_to}")
    tables: dict[int, SolvedWeight] = {}
    for w in range(2, up_to + 1):
        if store.has(w):
            tables[w] = store.load(w)
            continue
        checkpointer = Checkpointer(store.checkpoint_path(w), config.fingerprint())
        solved = solve_weight(
            w, tables, config, checkpointer=checkpointer, progress=progress
        )
        store.save(solved)
        tables[w] = solved
        if progress is not None:
            progress(f"weight {w}: table saved ({len(solved.entries)} entries)")
    return tables


def solve_in_memory(
    up_to: int,
    config: RunConfig = RunConfig(),
    progress: Callable[[str], None] | None = None,
) -> dict[int, SolvedWeight]:
    """Solve weights 2..up_to without persistence (testing and verification
    reruns)."""
    tables: dict[int, SolvedWeight] = {}
    for w in range(2, up_to + 1):
        tables[w] = solve_weight(w, tables, config, progress=progress)
    return tables
