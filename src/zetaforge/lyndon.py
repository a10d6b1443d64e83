"""Lyndon words over odd indices, n-fold extensions, candidate pools, the
Lyndon factorization and the elimination order.

The conjectured generators at weight W are drawn from the Lyndon words whose
indices are all odd and >= 3 and sum to W, together with their n-fold
extensions: subtract 1 from each of the first 2n indices and append 2n
trailing 1s.  Extension preserves weight and raises depth by 2n; collapse is
the exact inverse.  :func:`elimination_order` ranks every admissible word of
a weight so that these candidates are eliminated last.  This module also
ships the published weight-27/28 listings used by the verification suite.
"""

from __future__ import annotations

import functools
import importlib.resources
from typing import NamedTuple

from .words import (
    Word,
    admissible_words,
    compositions,
    is_admissible,
    is_lyndon,
    parse_word,
    weight,
)

__all__ = [
    "ExtendedCandidate",
    "candidate_pool",
    "candidate_words",
    "collapse_word",
    "elimination_order",
    "extend_word",
    "listing_key",
    "lyndon_factorization",
    "odd_lyndon_words",
    "published_basis",
]


def listing_key(w: Word):
    """Listing order used for generator sets and candidate pools: depth
    ascending, then lexicographically descending (largest index leads)."""
    return (len(w), tuple(-m for m in w))


def odd_lyndon_words(w: int) -> list[Word]:
    """The Lyndon words with all indices odd and >= 3 summing to ``w``,
    in listing order.  Empty below weight 3."""
    if w < 3:
        return []
    out = [word for word in compositions(w, 3, step=2) if is_lyndon(word)]
    out.sort(key=listing_key)
    return out


def extend_word(w: Word, n: int) -> Word:
    """n-fold extension: first 2n indices lowered by 1, then 2n trailing 1s.

    Requires depth >= 2n and every lowered index >= 3, so that the result
    stays admissible with its decremented block >= 2.  n = 0 is the identity.
    """
    if n < 0:
        raise ValueError(f"extension order must be >= 0, got {n}")
    if n == 0:
        return w
    if 2 * n > len(w):
        raise ValueError(f"cannot {n}-fold extend {w!r}: depth below {2 * n}")
    head = w[:2 * n]
    if any(m < 3 for m in head):
        raise ValueError(
            f"cannot {n}-fold extend {w!r}: a lowered index would drop below 2"
        )
    return tuple(m - 1 for m in head) + w[2 * n:] + (1,) * (2 * n)


def collapse_word(w: Word) -> tuple[Word, int]:
    """Inverse of :func:`extend_word`: fold the trailing 1s back onto the
    leading indices.  Returns ``(source, n)`` with ``extend_word(source, n)
    == w``; the source has no trailing 1s.

    The trailing run of 1s must have even length 2n (possibly zero), the
    remaining body must have at least 2n indices, and the first 2n body
    indices must be >= 2 (they came from lowering indices >= 3).
    """
    if not is_admissible(w):
        raise ValueError(f"collapse expects an admissible word, got {w!r}")
    run = 0
    for m in reversed(w):
        if m != 1:
            break
        run += 1
    if run % 2 != 0:
        raise ValueError(f"odd trailing run of 1s in {w!r}")
    n = run // 2
    if n == 0:
        return w, 0
    body = w[:-run]
    if len(body) < 2 * n:
        raise ValueError(f"trailing run of {w!r} longer than the body allows")
    if any(m < 2 for m in body[:2 * n]):
        raise ValueError(f"{w!r} has a head index below 2 inside the lowered block")
    source = tuple(m + 1 for m in body[:2 * n]) + body[2 * n:]
    return source, n


class ExtendedCandidate(NamedTuple):
    """One conjectured basis candidate: an odd-Lyndon source word, an
    extension order n, and the resulting extended word."""

    source: Word
    n: int
    word: Word


def candidate_pool(w: int) -> list[ExtendedCandidate]:
    """Every legal extension of every odd Lyndon word of weight ``w``, sorted
    by the listing order of the extended word.  Every index of such a word
    is at least 3, so :func:`extend_word` admits every n up to half its
    depth."""
    pool = []
    for source in odd_lyndon_words(w):
        for n in range(len(source) // 2 + 1):
            pool.append(ExtendedCandidate(source, n, extend_word(source, n)))
    pool.sort(key=lambda c: listing_key(c.word))
    return pool


def candidate_words(w: int) -> frozenset[Word]:
    """The candidate pool as a plain set of words."""
    return frozenset(c.word for c in candidate_pool(w))


def lyndon_factorization(w: Word) -> list[Word]:
    """The Chen-Fox-Lyndon factorization of ``w``: the one way to write it
    as Lyndon words (:func:`~zetaforge.words.is_lyndon`) ``l1 l2 ... lk``,
    by Duval's algorithm.  The max-rotation convention is the usual one with
    the order of the indices reversed, so Duval's letter comparisons are
    reversed here, and each factor is at least the next in that reversed
    order.  The first factor is the longest Lyndon prefix of ``w``."""
    factors: list[Word] = []
    n, i = len(w), 0
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] >= w[j]:
            k = i if w[k] > w[j] else k + 1
            j += 1
        while i <= k:
            factors.append(w[i:i + j - k])
            i += j - k
    return factors


@functools.cache
def elimination_order(w: int) -> dict[Word, int]:
    """The column of every admissible word of weight ``w``, its keys in
    column order, first-eliminated first: the non-Lyndon words, then the
    Lyndon words; within each group non-candidates before candidates, then
    deeper words before shallower ones, then the lexicographically larger
    word first.  The survivors of a full elimination are therefore shallow
    basis candidates.  The one order of the solver's columns, the table
    files and the ``gen`` dump; shared, so never mutate it."""
    pool = candidate_words(w)
    words = sorted(
        admissible_words(w),
        key=lambda x: (not is_lyndon(x), x not in pool, len(x), x),
        reverse=True,
    )
    return {x: k for k, x in enumerate(words)}


# ------------------------------------------------------- published listings

_DATA_PACKAGE = "zetaforge.data"
_DATA_FILE = "published_basis_27_28.txt"


def published_basis(w: int) -> list[Word]:
    """The published conjectured basis listing for weight 27 or 28, in the
    order it was printed.  These listings are frozen reference data; the
    verification suite checks their combinatorial structure against
    :func:`odd_lyndon_words` and :func:`collapse_word`."""
    if w not in (27, 28):
        raise ValueError(f"published listings exist for weights 27 and 28 only, got {w}")
    return list(_load_published()[w])


@functools.cache
def _load_published() -> dict[int, list[Word]]:
    text = (
        importlib.resources.files(_DATA_PACKAGE)
        .joinpath(_DATA_FILE)
        .read_text(encoding="ascii")
    )
    listings: dict[int, list[Word]] = {}
    current: list[Word] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# weight "):
            current_weight = int(line.split()[2])
            current = listings.setdefault(current_weight, [])
            continue
        if line.startswith("#"):
            continue
        if current is None:
            raise ValueError(f"{_DATA_FILE}:{line_no}: word before any weight header")
        word = parse_word(line)
        if weight(word) != current_weight:
            raise ValueError(
                f"{_DATA_FILE}:{line_no}: {line} has weight {weight(word)}, "
                f"expected {current_weight}"
            )
        current.append(word)
    missing = {27, 28} - set(listings)
    if missing:
        raise ValueError(f"{_DATA_FILE}: missing listings for weights {sorted(missing)}")
    return listings
