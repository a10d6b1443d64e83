"""Acceptance gate: seven first-class criteria, one test each.

Each test asserts its criterion at the stated tolerance and, on success,
prints one summary line with the measured numbers (visible under ``-s``;
assertion output appears on failure either way).

  1. the shipped weight-27/28 listings validate combinatorially in < 1 s:
     counts equal the Lyndon counts (73 and 92, independently confirmed by
     the factorization-counting oracle), collapse is a bijection, exactly
     one twofold-extended element each (the known pair)
  2. weights 3..12 solve with generator counts equal to Lyndon counts;
     the lone 1-fold extension at weight 12 is Z(6,4,1,1); weight 12's
     table has its pinned sha256, 333 pivots and 1339 redundant rows;
     solve time (one process): weights through 10 under 60 s combined,
     weight 12 under 600 s
  3. classical weight-3/4 identities hold in the tables exactly, zero
     tolerance
  4. regenerated relations of all four kinds collapse to exactly zero,
     exhaustively, at every weight 3..12
  5. `zeta-forge solve --weight 10` with `--jobs` 1, 2 and 8 writes
     byte-identical files (the flag selects nothing: a solve runs in one
     process)
  6. 200 seeded random products evaluated at cutoff 2000: stuffle within
     1e-4 flat (the truncated identity is exact); shuffle within the
     certified truncation tolerance of each instance (a flat 1e-4 is
     mathematically unattainable for shuffle at this cutoff: the tail of a
     word with trailing 1s provably exceeds it, as the companion algebra
     tests document); under 60 s
  7. admissible-word counts are 2^(W-2) for W <= 14 against an independent
     enumeration, and the weight-11/12 Lyndon sets have exactly two
     elements each
"""

import contextlib
import functools
import hashlib
import io
import random
import time

import oracles
from oracles import eval_expansion, eval_truncated, product_comparison_tolerance
from zetaforge.algebra import shuffle_words, stuffle
from zetaforge.lyndon import collapse_word, odd_lyndon_words
from zetaforge.cli import EXIT_OK, main
from zetaforge.solver import render_table
from zetaforge.verify import (
    basis_report,
    dimension_report,
    published_basis_check,
    recheck_relations,
)
from zetaforge.words import admissible_words, render_word

ALL_KINDS = ("stuffle", "shuffle", "hoffman", "duality")


def test_criterion_1_published_listing_combinatorics():
    report = published_basis_check()
    assert report.passed, report.failures
    assert report.counts == report.lyndon_counts == {27: 73, 28: 92}
    assert report.bijection == {27: True, 28: True}
    assert report.twofold == {
        27: [(6, 4, 6, 4, 3, 1, 1, 1, 1)],
        28: [(8, 6, 6, 4, 1, 1, 1, 1)],
    }
    assert report.seconds < 1.0
    print(
        f"PASS criterion 1: listings validate in {report.seconds:.3f}s "
        f"(73 and 92 elements, bijective collapse, twofold "
        f"{render_word(report.twofold[27][0])} / {render_word(report.twofold[28][0])})"
    )


def test_criterion_2_small_weight_solves(tables12):
    tables, seconds = tables12
    for w in range(3, 13):
        assert len(tables[w].generators) == len(odd_lyndon_words(w)), w
    rows = dimension_report(tables, 12)
    assert all(row.generators_agree for row in rows)

    report = basis_report(tables[12])
    assert report.extension_profile == {0: 1, 1: 1}
    onefold = [g for g in report.generators if collapse_word(g)[1] == 1]
    assert onefold[0] == (6, 4, 1, 1)
    digest = hashlib.sha256(render_table(tables[12]).encode()).hexdigest()
    assert digest == "ad5cd288dc4d39778e187773a489027aa7048d7ca15027ab14d23a11b5928002"
    assert (tables[12].stats["pivots"], tables[12].stats["redundant_rows"]) == (333, 1339)

    through_10 = sum(seconds[w] for w in range(3, 11))
    assert through_10 < 60.0, f"weights 3..10 took {through_10:.1f}s"
    assert seconds[12] < 600.0, f"weight 12 took {seconds[12]:.1f}s"
    print(
        f"PASS criterion 2: generator counts match Lyndon counts for 3..12; "
        f"first 1-fold at weight 12 is Z(6,4,1,1); "
        f"3..10 in {through_10:.1f}s, 12 in {seconds[12]:.1f}s"
    )


def test_criterion_3_classical_identities_exact(tables12):
    from fractions import Fraction

    tables, _ = tables12
    z3 = ((3,),)
    z2z2 = ((2,), (2,))
    assert tables[3].entries[(2, 1)] == {z3: Fraction(1)}
    assert tables[4].entries[(4,)] == {z2z2: Fraction(2, 5)}
    assert tables[4].entries[(3, 1)] == {z2z2: Fraction(1, 10)}
    assert tables[4].entries[(2, 2)] == {z2z2: Fraction(3, 10)}
    # consistency of the stated quarter/three-quarter split against Z(4)
    assert Fraction(1, 10) == Fraction(1, 4) * Fraction(2, 5)
    assert Fraction(3, 10) == Fraction(3, 4) * Fraction(2, 5)
    print(
        "PASS criterion 3: Z(2,1)=Z(3), Z(4)=2/5*Z(2)^2, Z(3,1)=1/4 of Z(4), "
        "Z(2,2)=3/4 of Z(4), all exact"
    )


def test_criterion_4_zero_collapse(tables12):
    tables, _ = tables12
    checked = {}
    for w in range(3, 13):
        report = recheck_relations(w, tables, ALL_KINDS)
        assert report.passed, (w, report.failures)
        assert report.distinct_checked == sum(report.population.values())
        checked[w] = report.distinct_checked
    print(
        f"PASS criterion 4: {sum(checked.values())} relations exhaustively zero for 3..12 "
        f"({checked[11]} at weight 11, {checked[12]} at weight 12)"
    )


def test_criterion_5_parallel_byte_equality(tmp_path):
    target = 10
    elapsed = {}
    for jobs in (1, 2, 8):
        argv = ["solve", "--weight", str(target), "--jobs", str(jobs),
                "--table-dir", str(tmp_path / f"jobs{jobs}")]
        t0 = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):  # the solve's progress lines
            assert main(argv) == EXIT_OK
        elapsed[jobs] = time.monotonic() - t0
    for jobs in (2, 8):
        for w in range(2, target + 1):
            name = f"weight-{w:02d}.table"
            a = (tmp_path / "jobs1" / name).read_bytes()
            b = (tmp_path / f"jobs{jobs}" / name).read_bytes()
            assert a == b, f"weight {w} differs between jobs=1 and jobs={jobs}"
    print(
        "PASS criterion 5: weight-2..10 table files byte-identical for "
        f"jobs 1/2/8 ({elapsed[1]:.1f}s / {elapsed[2]:.1f}s / {elapsed[8]:.1f}s)"
    )


def test_criterion_6_truncated_product_oracle(monkeypatch):
    # the 200 products name few distinct words: evaluate each once (the
    # evaluation is deterministic, so every float stays bit for bit)
    evaluate = functools.cache(eval_truncated)
    monkeypatch.setattr(oracles, "eval_truncated", evaluate)
    rng = random.Random(20260815)
    cutoff = 2000
    t0 = time.monotonic()
    stuffle_worst = 0.0
    shuffle_worst_ratio = 0.0
    flat_misses = 0
    for _ in range(200):
        wu = rng.randint(2, 6)
        wv = rng.randint(2, 8 - wu)
        u = rng.choice(admissible_words(wu))
        v = rng.choice(admissible_words(wv))
        target = evaluate(u, cutoff) * evaluate(v, cutoff)

        gap = abs(eval_expansion(stuffle(u, v), cutoff) - target)
        stuffle_worst = max(stuffle_worst, gap)
        assert gap <= 1e-4, f"stuffle {u}*{v} off by {gap:.2e}"

        expansion = shuffle_words(u, v)
        gap = abs(eval_expansion(expansion, cutoff) - target)
        tolerance = product_comparison_tolerance(u, v, expansion, cutoff)
        assert gap <= tolerance, f"shuffle {u}*{v}: {gap:.2e} > {tolerance:.2e}"
        shuffle_worst_ratio = max(shuffle_worst_ratio, gap / tolerance)
        if gap > 1e-4:
            flat_misses += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 6: 200 pairs at cutoff 2000 in {elapsed:.1f}s; "
        f"stuffle worst gap {stuffle_worst:.1e} (flat 1e-4); shuffle all within "
        f"certified tolerance (worst gap/tolerance {shuffle_worst_ratio:.3f}; "
        f"{flat_misses} of 200 exceed a flat 1e-4, which truncation makes "
        f"unattainable for shuffle)"
    )


def _bitmask_admissible(w):
    """Independent enumeration: each subset of the w-1 gaps between unit
    cells cuts one composition; keep those with first part >= 2."""
    out = []
    for mask in range(1 << (w - 1)):
        parts, run = [], 1
        for gap in range(w - 1):
            if mask >> gap & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        if parts[0] >= 2:
            out.append(tuple(parts))
    return sorted(out)


def test_criterion_7_combinatorial_counts():
    for w in range(2, 15):
        words = admissible_words(w)
        assert len(words) == 2 ** (w - 2)
        assert _bitmask_admissible(w) == words
    assert len(odd_lyndon_words(11)) == 2
    assert len(odd_lyndon_words(12)) == 2
    print(
        "PASS criterion 7: admissible counts equal 2^(W-2) for W<=14; "
        "two Lyndon words each at weights 11 and 12"
    )
