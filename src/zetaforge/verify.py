"""Independent checks over solved tables and the published listings.

Everything here is read-only over the tables: regenerate relations and
confirm they collapse to exactly zero (through the packed integer check of
the solver's :class:`~zetaforge.solver.Certifier`, the check a solve's
certificate also runs, with a failure's leftover monomials counted from
its residue), compare computed generator counts against the Lyndon
enumeration, validate the combinatorial structure of the published
weight-27/28 listings, and probe depth-sum minimality of computed bases by
reading, off each table entry, the basis exchange that moving one word
behind every other would make.  No check here runs an elimination.
Expected dimensions are never hardcoded: every reference number is
recomputed from the enumerations.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import NamedTuple

from .algebra import DEFAULT_KINDS, describe, relation_descriptors
from .lyndon import (
    collapse_word,
    elimination_order,
    listing_key,
    odd_lyndon_words,
    published_basis,
)
from .solver import Certifier, SolvedWeight
from .words import Word, admissible_words, is_lyndon, render_word, weight


# ---------------------------------------------------------- relation recheck

class RecheckReport(NamedTuple):
    weight: int
    population: dict[str, int]
    distinct_checked: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"recheck.{self.weight}.population.{k} = {n}" for k, n in self.population.items()]
        out.append(f"recheck.{self.weight}.distinct_checked = {self.distinct_checked}")
        out.append(f"recheck.{self.weight}.failures = {len(self.failures)}")
        out.extend(f"recheck.{self.weight}.failure = {f}" for f in self.failures)
        return out


def recheck_relations(
    w: int,
    tables: dict[int, SolvedWeight],
    kinds=DEFAULT_KINDS,
) -> RecheckReport:
    """Regenerate every relation of the selected kinds at weight ``w`` and
    assert each collapses to exactly zero through the tables, with one
    :class:`~zetaforge.solver.Certifier` for the whole recheck.

    The check is exhaustive, each distinct instance once: it is the packed
    integer check (:meth:`~zetaforge.solver.Certifier.holds`) that every
    solve's certificate runs over the whole weight, so checking only some
    instances would save little.  Failures carry the relation's origin and
    the number of monomials its residue leaves.
    """
    descs = relation_descriptors(w, kinds)
    certifier = Certifier(tables)
    failures = [
        f"{describe(desc)} left {len(certifier.residue(desc))} monomial(s)"
        for desc in certifier.rejects(descs)
    ]
    return RecheckReport(w, dict(Counter(d[0] for d in descs)), len(descs), failures)


# ---------------------------------------------------------- dimension report

class DimensionRow(NamedTuple):
    weight: int
    monomial_count: int
    generator_count: int
    lyndon_count: int
    generators_agree: bool
    recursion_ok: bool | None  # monomial counts against d(W) = d(W-2) + d(W-3)

    def lines(self) -> list[str]:
        rec = "n/a" if self.recursion_ok is None else ("ok" if self.recursion_ok else "FAIL")
        return [
            f"dims.{self.weight}.monomials = {self.monomial_count}",
            f"dims.{self.weight}.generators = {self.generator_count}",
            f"dims.{self.weight}.lyndon_count = {self.lyndon_count}",
            f"dims.{self.weight}.generators_agree = {'yes' if self.generators_agree else 'NO'}",
            f"dims.{self.weight}.recursion = {rec}",
        ]


def monomial_count(solved: SolvedWeight) -> int:
    monos = set()
    for entry in solved.entries.values():
        monos.update(entry)
    return len(monos)


def dimension_report(tables: dict[int, SolvedWeight], max_weight: int) -> list[DimensionRow]:
    """Per weight: computed monomial dimension, computed generator count,
    the Lyndon count it should match, and an empirical check of the monomial
    recursion d(W) = d(W-2) + d(W-3) (reported, not asserted as truth).

    Weight 2 is the seeded special case: one generator, zero Lyndon words.
    """
    rows = []
    counts: dict[int, int] = {}
    for w in range(2, max_weight + 1):
        if w not in tables:
            raise KeyError(f"weight {w} not solved; cannot report dimensions")
        solved = tables[w]
        counts[w] = monomial_count(solved)
        expected = 1 if w == 2 else len(odd_lyndon_words(w))
        recursion: bool | None = None
        if w - 3 in counts:
            recursion = counts[w] == counts[w - 2] + counts[w - 3]
        rows.append(
            DimensionRow(
                weight=w,
                monomial_count=counts[w],
                generator_count=len(solved.generators),
                lyndon_count=len(odd_lyndon_words(w)),
                generators_agree=len(solved.generators) == expected,
                recursion_ok=recursion,
            )
        )
    return rows


# ------------------------------------------------------------- basis report

class BasisReport(NamedTuple):
    weight: int
    generators: list[Word]
    generator_count: int
    monomial_count: int
    extension_profile: dict[int, int]
    depth_sum: int

    def lines(self) -> list[str]:
        profile = " ".join(f"{n}:{c}" for n, c in sorted(self.extension_profile.items()))
        return [
            f"basis.{self.weight}.generators = {' '.join(render_word(g) for g in self.generators) or '(none)'}",
            f"basis.{self.weight}.generator_count = {self.generator_count}",
            f"basis.{self.weight}.monomial_count = {self.monomial_count}",
            f"basis.{self.weight}.extension_profile = {profile or '(empty)'}",
            f"basis.{self.weight}.depth_sum = {self.depth_sum}",
        ]


def basis_report(solved: SolvedWeight) -> BasisReport:
    profile: dict[int, int] = {}
    for g in solved.generators:
        try:
            _, n = collapse_word(g)
        except ValueError:
            n = -1  # not of extended shape; flagged rather than hidden
        profile[n] = profile.get(n, 0) + 1
    return BasisReport(
        weight=solved.weight,
        generators=list(solved.generators),
        generator_count=len(solved.generators),
        monomial_count=monomial_count(solved),
        extension_profile=profile,
        depth_sum=sum(len(g) for g in solved.generators),
    )


# ------------------------------------------------- published-listing checks

class PublishedBasisReport(NamedTuple):
    counts: dict[int, int]
    lyndon_counts: dict[int, int]
    bijection: dict[int, bool]
    twofold: dict[int, list[Word]]
    plain_all_lyndon: dict[int, bool]
    failures: list[str]
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = []
        for w in sorted(self.counts):
            out.append(f"published.{w}.count = {self.counts[w]}")
            out.append(f"published.{w}.lyndon_count = {self.lyndon_counts[w]}")
            out.append(f"published.{w}.collapse_bijection = {'yes' if self.bijection[w] else 'NO'}")
            out.append(
                f"published.{w}.twofold = "
                + (" ".join(render_word(x) for x in self.twofold[w]) or "(none)")
            )
            out.append(
                f"published.{w}.plain_elements_lyndon = "
                f"{'yes' if self.plain_all_lyndon[w] else 'NO'}"
            )
        out.append(f"published.failures = {len(self.failures)}")
        out.extend(f"published.failure = {f}" for f in self.failures)
        out.append(f"published.seconds = {self.seconds:.3f}")
        return out


def published_basis_check() -> PublishedBasisReport:
    """Validate the shipped weight-27/28 listings purely combinatorially.

    Checks, per listing: every element has the listed weight; trailing-1
    runs have even length; collapsing maps the listing bijectively onto the
    odd Lyndon words of that weight; exactly one element is twofold
    extended; and every element without trailing 1s is itself Lyndon.
    Solver-independent by design, so it passes on a fresh checkout.
    """
    t0 = time.monotonic()
    failures: list[str] = []
    counts: dict[int, int] = {}
    lyndon_counts: dict[int, int] = {}
    bijection: dict[int, bool] = {}
    twofold: dict[int, list[Word]] = {}
    plain_ok: dict[int, bool] = {}
    for w in (27, 28):
        listing = published_basis(w)
        counts[w] = len(listing)
        lyndon = odd_lyndon_words(w)
        lyndon_counts[w] = len(lyndon)
        sources: list[Word] = []
        passed: list[tuple[Word, int]] = []  # each element that passes, with its order
        for h in listing:
            if weight(h) != w:
                failures.append(f"{render_word(h)} has weight {weight(h)}, listed under {w}")
                continue
            try:
                source, n = collapse_word(h)
            except ValueError as exc:
                failures.append(f"{render_word(h)}: {exc}")
                continue
            sources.append(source)
            passed.append((h, n))
        ok = sorted(sources) == sorted(lyndon) and len(set(sources)) == len(sources)
        bijection[w] = ok
        if not ok:
            failures.append(f"weight {w}: collapse is not a bijection onto the Lyndon set")
        twofold[w] = [h for h, n in passed if n == 2]
        if len(twofold[w]) != 1:
            failures.append(
                f"weight {w}: expected exactly one twofold-extended element, "
                f"found {len(twofold[w])}"
            )
        plain = [h for h, n in passed if n == 0]
        bad = [h for h in plain if not is_lyndon(h)]
        plain_ok[w] = not bad
        failures.extend(f"{render_word(h)} is plain but not Lyndon" for h in bad)
        if counts[w] != lyndon_counts[w]:
            failures.append(
                f"weight {w}: listing has {counts[w]} elements but there are "
                f"{lyndon_counts[w]} Lyndon words"
            )
    return PublishedBasisReport(
        counts=counts,
        lyndon_counts=lyndon_counts,
        bijection=bijection,
        twofold=twofold,
        plain_all_lyndon=plain_ok,
        failures=failures,
        seconds=time.monotonic() - t0,
    )


# ------------------------------------------------------ depth-sum minimality

class MinimalDepthReport(NamedTuple):
    weight: int
    depth_sum: int
    histogram: dict[int, int]
    alternatives_checked: int
    minimal_confirmed: bool

    def lines(self) -> list[str]:
        hist = " ".join(f"{d}:{c}" for d, c in sorted(self.histogram.items()))
        confirmed = "yes" if self.minimal_confirmed else "NO"
        return [
            f"minimal_depth.{self.weight}.depth_sum = {self.depth_sum}",
            f"minimal_depth.{self.weight}.histogram = {hist or '(empty)'}",
            f"minimal_depth.{self.weight}.alternatives_checked = {self.alternatives_checked}",
            f"minimal_depth.{self.weight}.confirmed = {confirmed}",
        ]


def alternative_basis(solved: SolvedWeight, x: Word) -> list[Word]:
    """The generators, in listing order, that the elimination would keep if
    the eliminated Lyndon word ``x`` were moved behind every other word.

    ``solved`` is the reduced row-echelon form of the relations over the
    elimination order (see :mod:`zetaforge.solver`), so x's entry names only
    generators that die after it, and the move swaps x for the first of
    them: the y named as ``(y,)`` with the lowest rank in
    :func:`~zetaforge.lyndon.elimination_order`.  An entry that names no
    generator leaves the basis as it is.
    """
    named = [m[0] for m in solved.entries[x] if len(m) == 1]
    if not named:
        return list(solved.generators)
    y = min(named, key=elimination_order(solved.weight).__getitem__)
    return sorted([g for g in solved.generators if g != y] + [x], key=listing_key)


def minimal_depth_stats(w: int, tables: dict[int, SolvedWeight]) -> MinimalDepthReport:
    """Depth-sum statistics of the computed basis at weight ``w``.

    Minimality is verified exhaustively from ``tables[w]`` alone: for every
    non-generator Lyndon word x shallower than the deepest generator, the
    :func:`alternative_basis` in which x survives trades x for a generator
    y and must not lower the depth sum (``len(x) >= len(y)``).
    """
    solved = tables[w]
    histogram = dict(Counter(len(g) for g in solved.generators))
    depth_sum = sum(len(g) for g in solved.generators)
    max_depth = max(histogram, default=0)
    candidates = [
        x
        for x in admissible_words(w)
        if is_lyndon(x) and x not in solved.generators and len(x) < max_depth
    ]
    confirmed = all(sum(map(len, alternative_basis(solved, x))) >= depth_sum for x in candidates)
    return MinimalDepthReport(w, depth_sum, histogram, len(candidates), confirmed)
