"""Verification layer: rechecks, dimension rows, published listings,
minimality probes, and fault injection proving the rechecks can fail."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zetaforge.solver as solver_mod
import zetaforge.verify as verify_mod
from oracles import product_value, solve_in_memory
from zetaforge.algebra import add_scaled, expand_relation, relation_descriptors
from zetaforge.cli import EXIT_CHECK_FAILED, main
from zetaforge.lyndon import listing_key
from zetaforge.solver import (
    Certifier,
    SolvedWeight,
    TableStore,
    ensure_solved,
    solve_weight,
    substitute_tables,
)
from zetaforge.verify import (
    alternative_basis,
    basis_report,
    dimension_report,
    minimal_depth_stats,
    monomial_count,
    published_basis_check,
    recheck_relations,
)
from zetaforge.words import admissible_words, is_lyndon, render_word


# ----------------------------------------------------------------- rechecks

def test_recheck_passes_exhaustively_small_weights(tables8):
    all_kinds = ("stuffle", "shuffle", "hoffman", "duality")
    for w in range(3, 9):
        rep = recheck_relations(w, tables8, all_kinds)
        assert rep.passed, rep.failures
        assert rep.distinct_checked == sum(rep.population.values())


def test_recheck_population_structure(tables8):
    descs = relation_descriptors(8)
    pop = {}
    for d in descs:
        pop[d[0]] = pop.get(d[0], 0) + 1
    assert pop == {"stuffle": 42, "shuffle": 42, "hoffman": 32}
    # the recheck checks every instance once, in this order
    assert [d[0] for d in descs] == ["stuffle"] * 42 + ["shuffle"] * 42 + ["hoffman"] * 32
    assert len(set(descs)) == len(descs)


def test_solver_row_order_weight_8(tables8, monkeypatch):
    # the solver consumes hoffman rows, then shuffle rows
    kinds = []
    absorb = solver_mod.MasterExpression.absorb

    def recording(self, desc):
        kinds.append(desc[0])
        return absorb(self, desc)

    monkeypatch.setattr(solver_mod.MasterExpression, "absorb", recording)
    lower = {w: t for w, t in tables8.items() if w < 8}
    solved = solve_weight(8, lower)
    assert kinds == ["hoffman"] * 32 + ["shuffle"] * 42
    assert solved.entries == tables8[8].entries


def test_recheck_catches_injected_fault(tables8):
    # perturb one stored coefficient: rechecks must notice, naming an origin
    broken = copy.deepcopy(tables8)
    entry = broken[8].entries[(6, 2)]
    key = next(iter(entry))
    entry[key] += Fraction(1, 7)
    rep = recheck_relations(8, broken)
    assert not rep.passed
    assert any("Z(" in f for f in rep.failures)


def test_relation_residual_rejects_unknown_kind(tables8):
    with pytest.raises(ValueError):
        Certifier(tables8).residue(("mystery", (2, 1)))


def _fraction_residual(desc, tables):
    """The relation substituted through the tables over ``Fraction``."""
    combo, product = expand_relation(desc)
    residual = substitute_tables(combo, tables)
    if product is not None:
        add_scaled(residual, product_value(*product, tables), -1)
    return residual


def test_certifier_agrees_with_fraction_substitution(tables8):
    all_kinds = ("stuffle", "shuffle", "hoffman", "duality")
    descs = [(w, d) for w in range(3, 9) for d in relation_descriptors(w, all_kinds)]
    # one tampered weight-4 entry reaches weight-4 relations directly and
    # product relations of higher weights through Z(3,1)
    tampered = copy.deepcopy(tables8)
    tampered[4].entries[(3, 1)][((2,), (2,))] += Fraction(1, 3)
    flagged = {}
    for name, tables in (("honest", tables8), ("tampered", tampered)):
        certifier = Certifier(tables)
        exact = [(w, d) for w, d in descs if certifier.residue(d)]
        assert exact == [(w, d) for w, d in descs if _fraction_residual(d, tables)]
        flagged[name] = exact
    assert flagged["honest"] == []
    assert {w for w, _ in flagged["tampered"]} >= {4, 6}


# ------------------------------------------------------ packed relation check

ALL_KINDS = ("stuffle", "shuffle", "hoffman", "duality")


@pytest.fixture(scope="module")
def tables9():
    return solve_in_memory(9)


def test_packed_check_agrees_with_fraction_substitution(tables9):
    descs = [d for w in range(3, 10) for d in relation_descriptors(w, ALL_KINDS)]
    tampered = copy.deepcopy(tables9)
    tampered[4].entries[(3, 1)][((2,), (2,))] += Fraction(1, 3)
    for name, tables in (("honest", tables9), ("tampered", tampered)):
        certifier = Certifier(tables)
        failed = [d for d in descs if not certifier.holds(d)]
        assert failed == [d for d in descs if _fraction_residual(d, tables)], name
        assert failed == certifier.rejects(descs)
        assert bool(failed) == (name == "tampered")


def test_packed_check_rejects_a_weight_8_coefficient_off_by_a_third(tables8):
    tampered = copy.deepcopy(tables8)
    entry = tampered[8].entries[(6, 2)]
    entry[next(iter(entry))] += Fraction(1, 3)
    descs = relation_descriptors(8, ALL_KINDS)
    failed = Certifier(tampered).rejects(descs)
    assert failed and failed == [d for d in descs if _fraction_residual(d, tampered)]
    assert Certifier(tables8).rejects(descs) == []


def test_a_certifier_sees_an_in_place_edit_that_an_earlier_one_scaled(tables8):
    # nothing derived from a table is kept on the table: a certifier built
    # after an edit sees it, at the edited weight and through the products
    # whose factor it names
    tables = copy.deepcopy(tables8)
    six, eight = relation_descriptors(6, ALL_KINDS), relation_descriptors(8, ALL_KINDS)
    assert Certifier(tables).rejects(six + eight) == []
    entry = tables[6].entries[(4, 2)]
    entry[next(iter(entry))] += 1
    failed = Certifier(tables).rejects(six + eight)
    assert failed == [d for d in six + eight if _fraction_residual(d, tables)]
    assert set(failed) & set(six) and set(failed) & set(eight)


def test_packed_check_rejects_a_product_monomial_missing_from_the_index(tables8):
    # every weight-4 entry is 0, so weight 4 indexes no monomial: a relation
    # without a product holds, Z(2)*Z(2) = 2 Z(2,2) + Z(4) cannot
    tables = dict(tables8)
    tables[4] = SolvedWeight(4, [], {x: {} for x in tables8[4].entries})
    certifier = Certifier(tables)
    assert certifier.scaled(4).index == {}
    for desc in relation_descriptors(4, ("hoffman", "duality")):
        assert certifier.holds(desc)
    stuffle = ("stuffle", (2,), (2,))
    assert not certifier.holds(stuffle)
    assert certifier.residue(stuffle) == {((2,), (2,)): -1}


def test_packed_check_widens_its_slots_for_a_huge_coefficient(tables8):
    # Z(2,1) = Z(3) + 2^200 at weight 3 reaches weight 8 only through
    # products: the regularized rows pack at the starting width, and the
    # first product with a factor Z(2,1) needs slots over 200 bits wide
    tampered = copy.deepcopy(tables8)
    tampered[3].entries[(2, 1)][((3,),)] += 2**200
    certifier = Certifier(tampered)
    descs = relation_descriptors(8, ("hoffman", "duality", "stuffle", "shuffle"))
    assert all(certifier.holds(d) for d in descs if d[0] in ("hoffman", "duality"))
    assert certifier.scaled(8).bits == solver_mod.SLOT_BITS
    verdicts = [certifier.holds(d) for d in descs]
    assert certifier.scaled(8).bits > 200
    assert verdicts == [not certifier.residue(d) for d in descs]
    assert [d for d, ok in zip(descs, verdicts) if not ok] == [
        d for d in descs if d[0] in ("stuffle", "shuffle") and (2, 1) in d[1:]
    ]


def test_packed_check_rejects_a_residue_that_cancels_across_slots(tables8):
    # with Z(2) = 2^(s/2) Z(2), Z(4) = Z(4) and Z(2,2) = 0, the relation
    # Z(2)*Z(2) = 2 Z(2,2) + Z(4) leaves -2^s at Z(2)*Z(2) and 1 at Z(4),
    # which cancel when packed at the starting width s
    s = solver_mod.SLOT_BITS
    first, second = sorted([((2,), (2,)), ((4,),)])
    tables = dict(tables8)
    tables[2] = SolvedWeight(2, [(2,)], {(2,): {((2,),): Fraction(2 ** (s // 2))}})
    tables[4] = SolvedWeight(4, [], {x: {} for x in tables8[4].entries})
    tables[4].entries[(4,)] = {second: Fraction(1)}
    tables[4].entries[(3, 1)] = {first: Fraction(1)}  # so Z(2)*Z(2) has a slot
    certifier = Certifier(tables)
    certifier.holds(("hoffman", (3,)))
    assert certifier.scaled(4).bits == s
    stuffle = ("stuffle", (2,), (2,))
    assert certifier.residue(stuffle) == {first: -(2**s), second: 1}
    assert -(2**s) * 2 ** (s * 0) + 1 * 2 ** (s * 1) == 0
    assert not certifier.holds(stuffle)
    assert certifier.scaled(4).bits > s


@pytest.mark.parametrize("perturbed", [False, True])
def test_dual_pairs_reject_what_each_relation_rejects_on_its_own(tables12, perturbed):
    # rejects checks a shuffle relation's dual partner on its combination
    # relabeled; each relation checked on its own expansion gives the same
    # failures, in list order, on the true tables and with one entry of the
    # weight's table off by a third
    tables, _ = tables12
    relabeled = []

    class Recording(Certifier):
        def holds_dual(self, desc, *args):
            relabeled.append(desc)
            return super().holds_dual(desc, *args)

    for w in range(6, 11):
        checked = dict(tables)
        if perturbed:
            entries = dict(tables[w].entries)
            x = max(entries, key=lambda y: len(entries[y]))
            entries[x] = dict(entries[x])
            entries[x][next(iter(entries[x]))] += Fraction(1, 3)
            checked[w] = SolvedWeight(w, tables[w].generators, entries)
        descs = relation_descriptors(w, ALL_KINDS)
        own = Certifier(checked)
        expected = [d for d in descs if not own.holds(d)]
        relabeled.clear()
        certifier = Recording(checked)
        assert certifier.rejects(descs) == expected, w
        shuffles = sum(d[0] == "shuffle" for d in descs)
        assert 0 < len(relabeled) < shuffles / 2 + 1, w
        assert bool(expected) == perturbed, w
        if perturbed:
            assert set(relabeled) & set(expected), w


def test_recheck_counts_the_monomials_a_failure_leaves(tables8):
    tables = dict(tables8)
    tables[4] = SolvedWeight(4, [], {x: {} for x in tables8[4].entries})
    rep = recheck_relations(4, tables)
    assert rep.failures == [
        "stuffle Z(2)*Z(2) left 1 monomial(s)",
        "shuffle Z(2)*Z(2) left 1 monomial(s)",
    ]


# ---------------------------------------------------------------- dimensions

def test_dimension_report_rows(tables8):
    rows = dimension_report(tables8, 8)
    assert [r.weight for r in rows] == list(range(2, 9))
    assert all(r.generators_agree for r in rows)
    assert [r.monomial_count for r in rows] == [1, 1, 1, 2, 2, 3, 4]
    # the d(W) = d(W-2) + d(W-3) recursion is checkable from weight 5 on
    assert all(r.recursion_ok for r in rows if r.weight >= 5)
    assert all(r.recursion_ok is None for r in rows if r.weight < 5)


def test_dimension_report_requires_solved_weights(tables8):
    with pytest.raises(KeyError):
        dimension_report(tables8, 10)


def test_monomial_count(tables8):
    assert monomial_count(tables8[8]) == 4


# -------------------------------------------------------------- basis report

def test_basis_report_weight_8(tables8):
    rep = basis_report(tables8[8])
    assert rep.generators == [(5, 3)]
    assert rep.generator_count == 1
    assert rep.monomial_count == 4
    assert rep.extension_profile == {0: 1}
    assert rep.depth_sum == 2


def test_basis_report_lines_are_machine_parseable(tables8):
    for line in basis_report(tables8[8]).lines():
        key, _, value = line.partition(" = ")
        assert key.startswith("basis.8.")
        assert value


# -------------------------------------------------------- published listings

def test_published_basis_check_passes_quickly():
    rep = published_basis_check()
    assert rep.passed, rep.failures
    assert rep.counts == {27: 73, 28: 92}
    assert rep.lyndon_counts == {27: 73, 28: 92}
    assert rep.bijection == {27: True, 28: True}
    assert rep.twofold == {
        27: [(6, 4, 6, 4, 3, 1, 1, 1, 1)],
        28: [(8, 6, 6, 4, 1, 1, 1, 1)],
    }
    assert rep.plain_all_lyndon == {27: True, 28: True}
    assert rep.seconds < 1.0


def test_an_element_of_another_weight_shifts_no_other_element(monkeypatch):
    # the weight-28 word Z(2,25,1) listed first under weight 27 is named
    # once; every other element keeps its own collapse order
    honest = verify_mod.published_basis
    monkeypatch.setattr(
        verify_mod, "published_basis",
        lambda w: ([(2, 25, 1)] if w == 27 else []) + honest(w),
    )
    rep = published_basis_check()
    assert rep.failures == [
        "Z(2,25,1) has weight 28, listed under 27",
        "weight 27: listing has 74 elements but there are 73 Lyndon words",
    ]
    assert rep.twofold == {
        27: [(6, 4, 6, 4, 3, 1, 1, 1, 1)],
        28: [(8, 6, 6, 4, 1, 1, 1, 1)],
    }
    assert rep.bijection == {27: True, 28: True}
    assert rep.plain_all_lyndon == {27: True, 28: True}


def test_an_odd_trailing_run_and_a_duplicate_element_fail_the_listing(
        tmp_path, monkeypatch, capsys):
    # Z(27) becomes Z(26,1), which no collapse undoes, and Z(11,7,9)
    # becomes a second Z(13,11,3): the count stays 73, the bijection fails
    honest = verify_mod.published_basis

    def doctored(w):
        listing = honest(w)
        if w == 27:
            assert listing[:3] == [(27,), (11, 7, 9), (13, 11, 3)]
            listing[:2] = [(26, 1), (13, 11, 3)]
        return listing

    monkeypatch.setattr(verify_mod, "published_basis", doctored)
    rep = published_basis_check()
    assert rep.failures == [
        "Z(26,1): odd trailing run of 1s in (26, 1)",
        "weight 27: collapse is not a bijection onto the Lyndon set",
    ]
    assert rep.counts == {27: 73, 28: 92}
    assert rep.bijection == {27: False, 28: True}
    report = tmp_path / "report.txt"
    assert main(["verify", "--published-basis", "--report", str(report)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "published listing check: FAIL" in out
    assert "weight 27: 73 elements over 73 Lyndon words, bijection NO" in out
    assert "  FAIL: Z(26,1): odd trailing run of 1s in (26, 1)" in out.splitlines()
    lines = report.read_text().splitlines()
    assert "published.27.collapse_bijection = NO" in lines
    assert "verify.passed = NO" in lines


# ----------------------------------------------------------- minimal depth

def test_minimal_depth_confirmed_at_weight_8(tables8):
    rep = minimal_depth_stats(8, tables8)
    assert rep.depth_sum == 2
    assert rep.histogram == {2: 1}
    assert rep.minimal_confirmed is True
    assert rep.alternatives_checked == 1  # (8,) is the only shallower Lyndon word


# sha256 of one line "w x alternative generators" per Lyndon word x that is
# not a generator at weights 3-10, each line ending in a newline, recorded
# from full re-eliminations that moved x behind every other word column
ALTERNATIVES_SHA256 = "b8465387842178b0ab80feae0ef1ee613dee256c46c7b0bd226818151ee68c9d"


def test_alternative_bases_match_the_recorded_re_eliminations(tables12):
    tables, _ = tables12
    lines, survived = [], 0
    for w in range(3, 11):
        solved = tables[w]
        for x in admissible_words(w):
            if is_lyndon(x) and x not in solved.generators:
                alt = alternative_basis(solved, x)
                survived += x in alt
                lines.append(f"{w} {render_word(x)} {' '.join(map(render_word, alt))}\n")
    assert (len(lines), survived) == (217, 189)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == ALTERNATIVES_SHA256


def _doctored8(tables8, entries, generators=((5, 3),)):
    """``tables8`` with weight 8's generators and some of its entries replaced."""
    solved = copy.deepcopy(tables8[8])
    solved.generators = sorted(generators, key=listing_key)
    solved.entries.update({g: {(g,): Fraction(1)} for g in generators})
    solved.entries.update(entries)
    return {**tables8, 8: solved}


def test_minimality_refuted_when_an_entry_names_a_deeper_generator(tables8):
    # Z(8) would survive in place of Z(5,3) and lower the depth sum
    tables = _doctored8(tables8, {(8,): {((5, 3),): Fraction(1)}})
    assert alternative_basis(tables[8], (8,)) == [(8,)]
    rep = minimal_depth_stats(8, tables)
    assert (rep.alternatives_checked, rep.minimal_confirmed) == (1, False)
    assert "minimal_depth.8.confirmed = NO" in rep.lines()


@pytest.mark.parametrize(
    "entry",
    [
        # the first of the two to die is the non-candidate Z(7,1), as deep as
        # Z(6,2); picking the deepest, Z(4,2,1,1), would lower the depth sum
        {((4, 2, 1, 1),): Fraction(1), ((7, 1),): Fraction(-2)},
        # no generator named: Z(6,2) stays eliminated
        {((5,), (3,)): Fraction(1)},
    ],
    ids=["names-two-generators", "names-no-generator"],
)
def test_minimality_confirmed_when_no_exchange_lowers_the_depth_sum(tables8, entry):
    tables = _doctored8(tables8, {(6, 2): entry}, [(5, 3), (7, 1), (4, 2, 1, 1)])
    rep = minimal_depth_stats(8, tables)
    assert (rep.depth_sum, rep.histogram) == (8, {2: 2, 4: 1})
    assert (rep.alternatives_checked, rep.minimal_confirmed) == (9, True)
    alt = alternative_basis(tables[8], (6, 2))
    assert sum(map(len, alt)) == rep.depth_sum


def test_minimal_depth_confirmed_at_weights_11_and_12(tables12):
    tables, _ = tables12
    for w, alternatives in ((11, 5), (12, 23)):
        rep = minimal_depth_stats(w, tables)
        assert (rep.alternatives_checked, rep.minimal_confirmed) == (alternatives, True)


def test_minimal_depth_report_at_weight_10(tables12):
    # Z(10) is the one shallower Lyndon word; forced to survive, it does not
    # lower the depth sum of Z(7,3)
    tables, _ = tables12
    rep = minimal_depth_stats(10, tables)
    assert (rep.weight, rep.depth_sum, rep.histogram) == (10, 2, {2: 1})
    assert (rep.alternatives_checked, rep.minimal_confirmed) == (1, True)


# ---------------------------------------------------- traced benchmark pass

def test_traced_verify_pass_reads_every_verify_layer(tmp_path):
    # the benchmark's tracer wraps verify names and reads a report field
    # from outside the package; a rename that breaks it fails here
    all_kinds = ("stuffle", "shuffle", "hoffman", "duality")
    tables = tmp_path / "tables"
    ensure_solved(TableStore(tables), 6)
    root = Path(__file__).resolve().parents[1]
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    command = ["verify", "--weight", "6", "--dims", "--published-basis",
               "--relations", ",".join(all_kinds), "--table-dir", str(tables)]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "client.py"), str(result),
         "--trace", str(spans), "--", *command],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["rc"] == 0, proc.stderr
    layers = report["layers"]
    assert layers["verify.relations_checked"] == len(relation_descriptors(6, all_kinds)) == 28
    assert layers["solver.store.loads"] == 5  # weights 2 to 6
    assert layers["verify.published_basis_check.s"] > 0
    assert layers["verify.dimension_report.s"] > 0
