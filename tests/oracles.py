"""Reference computations the tests hold the package against.

The truncated-sum numerical oracle evaluates nested sums in floating point,
with certified truncation bounds instead of wishful tolerances, to check
the product algebras against actual sums; :func:`product_value` is the
tabled value of a product over ``Fraction``, the reference for the integer
rows and the packed certificate.  :func:`to_binary` and
:func:`from_binary` are the text form of the encoding that
:func:`zetaforge.words.code` packs into an integer, for the oracles that
work on strings; :func:`solve_in_memory` solves a range of weights without
a store.
"""

from __future__ import annotations

import math
from typing import Callable

from zetaforge.algebra import DEFAULT_KINDS, lc_mul
from zetaforge.solver import Entry, SolvedWeight, solve_weight
from zetaforge.words import Word, is_admissible, weight

ZETA2 = math.pi ** 2 / 6


def to_binary(w: Word) -> str:
    """Encode an index word over the two-letter alphabet: index k becomes
    k-1 letters X followed by one Y.  The encoding of an admissible word
    starts with X and ends with Y, and its length equals the weight."""
    return "".join("X" * (k - 1) + "Y" for k in w)


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


def solve_in_memory(
    up_to: int,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
    progress: Callable[[str], None] | None = None,
) -> dict[int, SolvedWeight]:
    """Solve weights 2..up_to without persistence."""
    tables: dict[int, SolvedWeight] = {}
    for w in range(2, up_to + 1):
        tables[w] = solve_weight(w, tables, kinds, progress=progress)
    return tables


def product_value(u: Word, v: Word, tables: dict[int, SolvedWeight]) -> Entry:
    """The product Z(u)*Z(v) expanded over basis monomials via the
    fully-reduced lower-weight tables."""
    return lc_mul(tables[weight(u)].entries[u], tables[weight(v)].entries[v])


def eval_truncated(w: Word, n_max: int) -> float:
    """Truncated nested sum over n1 > n2 > ... > nD >= 1 with n1 <= n_max.

    Plain double-precision summation by depth layers with prefix sums,
    O(depth * n_max).  Monotone nondecreasing in n_max; no convergence
    acceleration on purpose (the oracle stays independent and simple).
    """
    if not is_admissible(w):
        raise ValueError(f"truncated evaluation needs an admissible word, got {w!r}")
    if n_max < len(w):
        raise ValueError(f"cutoff {n_max} below depth of {w!r}")
    # prefix[n] = sum of the depth-(j..D) nested tail over chains with n_j <= n
    prefix = [0.0] * (n_max + 1)
    m = w[-1]
    for n in range(1, n_max + 1):
        prefix[n] = prefix[n - 1] + n ** -m
    for m in reversed(w[:-1]):
        nxt = [0.0] * (n_max + 1)
        for n in range(1, n_max + 1):
            nxt[n] = nxt[n - 1] + n ** -m * prefix[n - 1]
        prefix = nxt
    return prefix[n_max]


def truncation_tail_bound(w: Word, n_max: int) -> float:
    """Rigorous upper bound for the truncation tail of :func:`eval_truncated`.

    Every inner index >= 2 contributes at most its full sum (<= zeta(2)),
    with a k! saved per maximal run of k equal indices (a nested chain over
    one run is at most the k-th power of a single sum over k!).  The k inner
    1s contribute harmonic factors that still grow with the outer variable,
    so the outer tail is bounded against the integral of
    x**(-m1) * (1 + log x)**k, which integration by parts evaluates to
    N**(1-m1)/(m1-1) times a short polynomial in 1 + log N; one unimodal-peak
    term keeps the sum-vs-integral comparison valid unconditionally.  The
    bound is tight to a few percent for 1-heavy words and loose by orders of
    magnitude for large leading indices.
    """
    m1 = w[0]
    if m1 < 2:
        raise ValueError(f"tail bound needs an admissible word, got {w!r}")
    const = 1.0
    ones = 0
    i = 1
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        if w[i] >= 2:
            const *= ZETA2 ** run / math.factorial(run)
        else:
            ones += run
            const /= math.factorial(run)
        i = j
    log_term = 1.0 + math.log(n_max)
    series = 0.0
    for j in range(ones + 1):
        series += (
            math.factorial(ones)
            / math.factorial(ones - j)
            * log_term ** (ones - j)
            / (m1 - 1) ** j
        )
    integral = n_max ** (1 - m1) / (m1 - 1) * series
    x_peak = max(n_max + 1.0, math.exp(ones / m1 - 1.0))
    peak = x_peak ** -m1 * (1.0 + math.log(x_peak)) ** ones
    return const * (integral + peak)


def eval_expansion(expansion: dict[Word, int], n_max: int) -> float:
    """Truncated evaluation of an integer combination of admissible words."""
    return sum(c * eval_truncated(x, n_max) for x, c in expansion.items())


def expansion_tolerance(expansion: dict[Word, int], n_max: int, floor: float = 1e-4) -> float:
    """Coefficient-weighted sum of per-word tail bounds, floored: how far a
    truncated evaluation of the expansion may sit from its exact limit."""
    return max(floor, sum(abs(c) * truncation_tail_bound(x, n_max) for x, c in expansion.items()))


def product_comparison_tolerance(
    u: Word, v: Word, expansion: dict[Word, int], n_max: int, floor: float = 1e-4
) -> float:
    """Certified tolerance for |eval_expansion(expansion) - S_u(N)*S_v(N)|
    given that the expansion equals the product exactly in the limit.

    Triangle inequality: the expansion side misses its limit by at most the
    per-term tails, and the truncated product misses the limit product by at
    most hat(u)*tail(v) + hat(v)*tail(u) with hat the truncated value plus
    its own tail.  Stuffle expansions match the truncated product exactly at
    every finite cutoff, so for them only the float-roundoff floor matters;
    shuffle expansions genuinely differ by truncation and need the full
    bound.
    """
    tail_u = truncation_tail_bound(u, n_max)
    tail_v = truncation_tail_bound(v, n_max)
    hat_u = eval_truncated(u, n_max) + tail_u
    hat_v = eval_truncated(v, n_max) + tail_v
    terms = sum(abs(c) * truncation_tail_bound(x, n_max) for x, c in expansion.items())
    return max(floor, terms + hat_u * tail_v + hat_v * tail_u)
