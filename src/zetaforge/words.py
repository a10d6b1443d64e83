"""Index words for nested zeta sums, their binary encoding, and orderings.

An index word is a tuple of integers >= 1, printed ``Z(m1,...,mD)``.  Its
weight is the sum of the indices and its depth is their count.  A word is
admissible (the nested sum converges) iff the first index is >= 2.

Comparison convention used across the whole package: words compare as plain
Python tuples, so indices compare by integer value and a proper prefix sorts
before any of its extensions.  Every deterministic ordering in the package
(elimination priority, file layouts, relation streams) reduces to this one
convention plus explicit keys (the elimination order is
:func:`zetaforge.lyndon.elimination_order`).
"""

from __future__ import annotations

import functools
import re
from typing import Iterator

Word = tuple[int, ...]


def weight(w: Word) -> int:
    return sum(w)


def is_admissible(w: Word) -> bool:
    return len(w) >= 1 and w[0] >= 2


def compositions(total: int, min_part: int = 1, step: int = 1) -> Iterator[Word]:
    """All compositions of ``total`` into parts ``min_part``, ``min_part +
    step``, ``min_part + 2*step``, ..., in tuple order of the first part
    (ascending) then recursively on the remainder."""
    if total == 0:
        yield ()
        return
    for first in range(min_part, total + 1, step):
        for rest in compositions(total - first, min_part, step):
            yield (first,) + rest


def admissible_words(w: int) -> list[Word]:
    """All admissible words of weight ``w``, sorted ascending, in a fresh
    list (:func:`decoder` enumerates the compositions once per weight).

    There are exactly 2**(w-2) of them for w >= 2.
    """
    return sorted(word for word in decoder(w).values() if is_admissible(word))


# ----------------------------------------------------------------- encoding

def to_binary(w: Word) -> str:
    """Encode an index word over the two-letter alphabet: index k becomes
    k-1 letters X followed by one Y.  The encoding of an admissible word
    starts with X and ends with Y, and its length equals the weight."""
    return "".join("X" * (k - 1) + "Y" for k in w)


def code(w: Word) -> int:
    """The binary encoding of ``w`` as an integer, X = 0 and Y = 1, first
    letter most significant.  Its length is the weight, so the code names
    the word only together with the weight: prepending an index to a word
    of weight t sets bit t."""
    c = 0
    for k in w:
        c = c << k | 1
    return c


@functools.cache
def decoder(w: int) -> dict[int, Word]:
    """Code to word for every composition of ``w``, built once per weight
    from the lower ones, in :func:`compositions` order (first index
    ascending, then the rest as its own decoder orders it); regularized
    relations pass through the non-admissible word 1v."""
    if not w:
        return {0: ()}
    return {1 << w - k | c: (k, *rest)
            for k in range(1, w + 1) for c, rest in decoder(w - k).items()}


@functools.cache
def dual_codes(w: int) -> dict[int, int]:
    """The code of :func:`dual` of each admissible word of weight ``w``, by
    its code, built once per weight: the complemented code, its ``w`` bits
    reversed."""
    return {x: int(f"{x ^ (1 << w) - 1:0{w}b}"[::-1], 2) for x in decoder(w) if not x >> w - 1}


def from_binary(b: str) -> Word:
    """Inverse of :func:`to_binary`.  Rejects words not ending in Y, since a
    trailing run of X admits no index decomposition."""
    out = []
    run = 0
    for ch in b:
        if ch == "X":
            run += 1
        elif ch == "Y":
            out.append(run + 1)
            run = 0
        else:
            raise ValueError(f"binary word may contain only X and Y, got {b!r}")
    if run:
        raise ValueError(f"binary word does not end in Y: {b!r}")
    return tuple(out)


def dual(w: Word) -> Word:
    """Reverse-and-swap involution on the binary encoding, computed on the
    code: the word whose code is the bit reversal of the complemented code.

    Induces equalities between nested sums; weight is preserved and the
    depth of the dual is weight minus depth.  Defined for admissible words
    only (otherwise the swapped word would end in X).
    """
    if not is_admissible(w):
        raise ValueError(f"dual is defined for admissible words only, got {w!r}")
    t = weight(w)
    return decoder(t)[dual_codes(t)[code(w)]]


# ------------------------------------------------------------------ Lyndon

def is_lyndon(w: Word) -> bool:
    """True iff ``w`` is strictly greater than every proper cyclic rotation
    of itself (which forces aperiodicity).  The maximal-rotation convention
    matches the listing convention where the largest index leads."""
    n = len(w)
    if n == 1:
        return True
    doubled = w + w
    for i in range(1, n):
        if w <= doubled[i:i + n]:
            return False
    return True


# ------------------------------------------------------------- text format

def render_word(w: Word) -> str:
    """``Z(m1,...,mD)`` with no spaces; the exact form used in table files
    and CLI output."""
    return "Z(" + ",".join(str(m) for m in w) + ")"


_WORD = re.compile(r"Z\(([1-9][0-9]*(?:,[1-9][0-9]*)*)\)")


def parse_word(text: str) -> Word:
    """Inverse of :func:`render_word`: ``Z(`` and ``)`` around indices in
    ASCII digits, comma-separated, with no sign, blank, ``_`` or leading
    zero."""
    match = _WORD.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed word {text!r}")
    return tuple(map(int, match[1].split(",")))

