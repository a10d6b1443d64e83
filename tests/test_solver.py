"""Solver pipeline: exact small tables, determinism, persistence, resume.

The weight-3/4 expectations are hand Gaussian eliminations over at most four
unknowns, written out in the comments where they are asserted.
"""

import gc
import hashlib
import json
import logging
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import zetaforge.solver as solver_mod
from oracles import product_value, solve_in_memory
from zetaforge.algebra import (
    DEFAULT_KINDS,
    add_scaled,
    describe,
    expand_relation,
    relation_descriptors,
    stuffle,
    weight_pairs,
)
from zetaforge.cli import main as cli_main
from zetaforge.lyndon import elimination_order
from zetaforge.solver import (
    Certifier,
    Checkpointer,
    InconsistentRelation,
    MasterExpression,
    MissingTable,
    ReconstructionError,
    SolvedWeight,
    StoreIntegrityError,
    TableStore,
    ensure_solved,
    family_phase,
    parse_table,
    rational,
    render_table,
    seed_weight_2,
    solve_weight,
    substitute_tables,
)
from zetaforge.words import admissible_words, code, is_lyndon, render_word, weight


# ------------------------------------------------------------- exact tables

def test_seed_weight_2():
    seed = seed_weight_2()
    assert seed.weight == 2
    assert seed.generators == [(2,)]
    assert seed.entries == {(2,): {((2,),): Fraction(1)}}
    assert render_table(seed).splitlines()[1] == "# phase: fully-reduced"


def test_weight_3_table(tables8):
    # hoffman at weight 3 is Euler's identity: the sum over n of H_{n-1}/n^2
    # equals the sum of 1/n^3, so Z(2,1) rewrites to the generator Z(3)
    entries = tables8[3].entries
    assert tables8[3].generators == [(3,)]
    assert entries[(3,)] == {((3,),): Fraction(1)}
    assert entries[(2, 1)] == {((3,),): Fraction(1)}


def test_weight_4_table_matches_hand_elimination(tables8):
    # unknowns Z(4), Z(3,1), Z(2,2), Z(2,1,1); rows:
    #   stuffle-shuffle of Z(2)*Z(2):  Z(4) = 4 Z(3,1)
    #   stuffle of Z(2)*Z(2):          2 Z(2,2) + Z(4) = Z(2)^2
    #   hoffman of Z(3):               Z(4) = Z(2,2) + Z(3,1)
    #   hoffman of Z(2,1):             Z(2,1,1) = Z(2,2) + Z(3,1)
    # solving: Z(4) = (2/5) Z(2)^2 and the rest follow
    m = ((2,), (2,))  # the only weight-4 basis monomial
    entries = tables8[4].entries
    assert tables8[4].generators == []
    assert entries[(4,)] == {m: Fraction(2, 5)}
    assert entries[(3, 1)] == {m: Fraction(1, 10)}
    assert entries[(2, 2)] == {m: Fraction(3, 10)}
    assert entries[(2, 1, 1)] == {m: Fraction(2, 5)}


def test_entries_cover_every_admissible_word(tables8):
    for w in range(3, 9):
        solved = tables8[w]
        assert sorted(solved.entries) == admissible_words(w)
        assert len(solved.entries) == 2 ** (w - 2)
        for combo in solved.entries.values():
            for mono in combo:
                assert sum(weight(f) for f in mono) == w


def test_entries_reference_only_generators(tables8):
    generators = {g for s in tables8.values() for g in s.generators}
    for w in range(3, 9):
        for combo in tables8[w].entries.values():
            for mono in combo:
                assert all(f in generators for f in mono), mono


def test_generator_self_entries(tables8):
    for w in range(3, 9):
        for g in tables8[w].generators:
            assert tables8[w].entries[g] == {(g,): Fraction(1)}


# ------------------------------------------------------------ configuration

def test_run_config_validation(tmp_path):
    # --jobs is accepted for compatibility but selects nothing; it is still
    # validated, before the table directory is created
    jobs0 = tmp_path / "jobs0"
    assert cli_main(["solve", "--weight", "4", "--jobs", "0", "--table-dir", str(jobs0)]) == 2
    assert not jobs0.exists()
    with pytest.raises(ValueError):
        Checkpointer(tmp_path / "weight-07.checkpoint.json", ("bogus",))


def test_fingerprint_ignores_jobs_but_not_kinds(tmp_path, monkeypatch):
    seen = []

    class Recording(Checkpointer):
        def __init__(self, path, kinds):
            super().__init__(path, kinds)
            seen.append(self.fingerprint)

    monkeypatch.setattr(solver_mod, "Checkpointer", Recording)
    for jobs in ("1", "8"):
        args = ["solve", "--weight", "4", "--jobs", jobs, "--table-dir", str(tmp_path / jobs)]
        assert cli_main(args) == 0
    # one checkpointer per solved weight 2, 3 and 4, the same under either --jobs
    assert len(seen) == 6 and all(fp == seen[0] for fp in seen)
    # checkpoints already on disk carry this fingerprint; a change orphans them
    assert seen[0] == {"format": 1, "kinds": ["hoffman", "shuffle", "stuffle"]}
    path = tmp_path / "weight-07.checkpoint.json"
    assert Checkpointer(path, tuple(reversed(DEFAULT_KINDS))).fingerprint == seen[0]
    assert Checkpointer(path, ("stuffle", "shuffle")).fingerprint != seen[0]


def test_solve_weight_requires_lower_tables_and_stuffle():
    with pytest.raises(MissingTable):
        solve_weight(5, {2: seed_weight_2()})
    with pytest.raises(ValueError):
        solve_weight(3, {2: seed_weight_2()}, ("shuffle", "hoffman"))
    with pytest.raises(ValueError):
        solve_weight(1, {})


@pytest.mark.parametrize("kinds", [("bogus",), ("shuffle",)])
def test_kinds_are_checked_before_the_weight_2_seed(tmp_path, kinds):
    with pytest.raises(ValueError):
        solve_in_memory(2, kinds=kinds)
    with pytest.raises(ValueError):
        solve_weight(2, {}, kinds)
    with pytest.raises(ValueError):
        ensure_solved(TableStore(tmp_path), 3, kinds)
    assert list(tmp_path.iterdir()) == []


def test_substitute_tables_names_missing_weight(tables8):
    with pytest.raises(MissingTable):
        substitute_tables({(2, 1): Fraction(1)}, {})
    # complete tables substitute fully into monomials
    combo = substitute_tables({(2, 2): Fraction(2)}, tables8)
    assert combo == {((2,), (2,)): Fraction(3, 5)}


# -------------------------------------------------------------- determinism

def test_solve_is_byte_identical_run_to_run():
    first, second = solve_in_memory(7), solve_in_memory(7)
    for w in range(2, 8):
        assert render_table(first[w]) == render_table(second[w])


# -------------------------------------------------------------- text format

def test_render_parse_round_trip(tables8):
    for w in (6, 8):
        text = render_table(tables8[w])
        back = parse_table(text)
        assert back.weight == w
        assert text.splitlines()[1] == "# phase: fully-reduced"
        assert back.generators == tables8[w].generators
        assert back.entries == tables8[w].entries


def test_table_header_golden(tables8):
    lines6 = render_table(tables8[6]).splitlines()
    assert lines6[0] == "# weight: 6"
    assert lines6[1] == "# phase: fully-reduced"
    assert lines6[2] == "# generators:"  # no generators at weight 6
    lines8 = render_table(tables8[8]).splitlines()
    assert lines8[2] == "# generators: Z(5,3)"


def test_table_entry_lines_golden(tables8):
    text = render_table(tables8[4])
    assert "Z(4) = 2/5*Z(2)*Z(2)" in text
    assert "Z(3,1) = 1/10*Z(2)*Z(2)" in text


def test_table_lists_entries_in_the_solver_column_order():
    # Z(4,4,5,3,1,1) is a candidate but not Lyndon, Z(17,1) a Lyndon
    # non-candidate: the solver eliminates the non-Lyndon word first
    solved = SolvedWeight(18, [], {(17, 1): {}, (4, 4, 5, 3, 1, 1): {}})
    assert render_table(solved).splitlines()[3:] == ["Z(4,4,5,3,1,1) = 0", "Z(17,1) = 0"]


def test_parse_table_rejects_corruption(tables8):
    text = render_table(tables8[6])
    with pytest.raises(ValueError):
        parse_table(text.replace("fully-reduced", "half-reduced"))
    entry_line = next(l for l in text.splitlines() if l.startswith("Z("))
    with pytest.raises(ValueError):
        parse_table(text + entry_line + "\n")  # duplicate entry
    with pytest.raises(ValueError):
        parse_table(text.replace(entry_line + "\n", ""))  # missing entry


@pytest.mark.parametrize("bad", ["1.5", "1/0", "+1", " 1", "1_0", "1e3", "2/-5", "\uff11", ""])
def test_parse_table_reads_coefficients_strictly(tables8, bad):
    # the forms render_table writes parse; anything else is refused, also
    # where Fraction(str) would read it (all but "1/0", "2/-5" and "")
    text = render_table(tables8[4])
    assert "Z(4) = 2/5*Z(2)*Z(2)" in text
    assert parse_table(text.replace("= 2/5*", "= -2/5*")).entries[(4,)] == {
        ((2,), (2,)): Fraction(-2, 5)
    }
    with pytest.raises(ValueError, match="coefficient"):
        parse_table(text.replace("= 2/5*", f"= 2/5*Z(2)*Z(2) + {bad}*"))


# -------------------------------------------------------------- persistence

def test_store_round_trip_and_manifest(tmp_path, tables8):
    store = TableStore(tmp_path)
    assert not store.has(5)
    store.save(tables8[5])
    assert store.has(5)
    loaded = store.load(5)
    assert loaded.entries == tables8[5].entries
    manifest = store.read_manifest()
    assert manifest["weights"]["5"]["entries"] == 8
    assert len(manifest["weights"]["5"]["sha256"]) == 64


def test_store_load_missing(tmp_path):
    with pytest.raises(MissingTable):
        TableStore(tmp_path).load(9)


def test_store_detects_tampered_table(tmp_path, tables8):
    store = TableStore(tmp_path)
    store.save(tables8[5])
    path = store.table_path(5)
    path.write_text(path.read_text().replace("1/2", "1/3"))
    with pytest.raises(StoreIntegrityError):
        store.load(5)


def test_store_rejects_unmanifested_file(tmp_path, tables8):
    store = TableStore(tmp_path)
    store.save(tables8[5])
    # a table file that the manifest does not know about
    store.table_path(6).write_text(render_table(tables8[6]))
    assert not store.has(6)
    with pytest.raises(StoreIntegrityError):
        store.load(6)


def test_store_rejects_corrupt_manifest(tmp_path, tables8):
    store = TableStore(tmp_path)
    store.save(tables8[5])
    store.manifest_path.write_text("{ not json")
    with pytest.raises(StoreIntegrityError):
        store.read_manifest()


def test_a_failed_atomic_write_leaves_the_target_and_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "weight-05.table"
    target.write_text("old")

    def refuse(src, dst):
        raise OSError("simulated failure of the rename")

    monkeypatch.setattr(solver_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="simulated"):
        solver_mod._atomic_write(target, "new")
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    assert target.read_text() == "old"


# One process of the concurrent-save test: "slow" saves weight 4 and holds the
# manifest it read for 0.5 s before writing it back; "fast" saves weight 5 as
# soon as the slow one has read.  Each waits for the other through marker
# files, so the fast save always falls inside the slow one's window.
_CONCURRENT_SAVE = """
import sys, time
from pathlib import Path
from zetaforge.solver import TableStore, solve_weight

role, root = sys.argv[1], Path(sys.argv[2])
ready, read = root.parent / "fast-ready", root.parent / "slow-read"

def wait_for(marker):
    while not marker.exists():
        time.sleep(0.01)

w = 4 if role == "slow" else 5
tables = {}
for v in range(2, w + 1):
    tables[v] = solve_weight(v, tables)
table = tables[w]
if role == "slow":
    honest = TableStore.read_manifest

    def read_then_stall(self):
        manifest = honest(self)
        read.touch()
        time.sleep(0.5)
        return manifest

    TableStore.read_manifest = read_then_stall
    wait_for(ready)
else:
    ready.touch()
    wait_for(read)
TableStore(root).save(table)
"""


def test_concurrent_saves_keep_both_manifest_records(tmp_path):
    root = Path(__file__).resolve().parents[1]
    store = TableStore(tmp_path / "tables")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    procs = [
        subprocess.Popen([sys.executable, "-c", _CONCURRENT_SAVE, role, str(store.root)],
                         env=env, stderr=subprocess.PIPE, text=True)
        for role in ("slow", "fast")
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    # without the lock the slow save writes back the manifest it read before
    # the fast save, and the weight-5 record is lost
    assert sorted(store.read_manifest()["weights"]) == ["4", "5"]
    assert store.has(4) and store.has(5)
    assert store.load(5).entries == solve_in_memory(5)[5].entries


def test_ensure_solved_is_idempotent_and_lazy(tmp_path, monkeypatch):
    store = TableStore(tmp_path)
    ensure_solved(store, 6)
    first = {w: store.table_path(w).read_bytes() for w in range(2, 7)}
    manifest_before = store.manifest_path.read_bytes()

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("ensure_solved re-solved an already-stored weight")

    monkeypatch.setattr(solver_mod, "solve_weight", explode)
    tables = ensure_solved(store, 6)
    assert sorted(tables) == list(range(2, 7))
    assert {w: store.table_path(w).read_bytes() for w in range(2, 7)} == first
    assert store.manifest_path.read_bytes() == manifest_before


# ------------------------------------------------------------- checkpointing

class _InterruptAfterSave(Checkpointer):
    """Raise a deliberate failure right after the checkpoint is written."""

    def save(self, master):
        super().save(master)
        raise KeyboardInterrupt("simulated crash after checkpoint write")


def _lower_tables(up_to):
    return solve_in_memory(up_to)


def _interrupt_absorb_after(monkeypatch, n):
    """Make ``MasterExpression.absorb`` crash on its (n+1)-th row after the
    family phase, whose regularized rows it lets through."""
    honest = MasterExpression.absorb
    calls = []

    def absorb(self, desc):
        if desc[0] != "hoffman":
            calls.append(desc)
        if len(calls) > n:
            raise KeyboardInterrupt("simulated crash during elimination")
        return honest(self, desc)

    monkeypatch.setattr(MasterExpression, "absorb", absorb)


def _count_family_phases(monkeypatch):
    calls = []
    honest = solver_mod.family_phase

    def counting(master, *args):
        calls.append(master.weight)
        return honest(master, *args)

    monkeypatch.setattr(solver_mod, "family_phase", counting)
    return calls


def _untimed(stats):
    return {key: value for key, value in stats.items() if not key.endswith("_seconds")}


@pytest.mark.parametrize("crash", ["families", "elimination"])
def test_checkpoint_resume_matches_fresh_solve(tmp_path, monkeypatch, crash):
    lower = _lower_tables(6)
    fresh = solve_weight(7, lower)

    path = tmp_path / "weight-07.checkpoint.json"
    checkpointer = Checkpointer(path, DEFAULT_KINDS)
    if crash == "families":
        # a crash inside the family phase, before its one checkpoint
        honest = MasterExpression.integer_row
        calls = []

        def integer_row(self, desc):
            calls.append(desc)
            if len(calls) > 8:  # of weight 7's 14 canonical and 16 regularized rows
                raise KeyboardInterrupt("simulated crash during the family phase")
            return honest(self, desc)

        monkeypatch.setattr(MasterExpression, "integer_row", integer_row)
    else:
        _interrupt_absorb_after(monkeypatch, 5)
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, checkpointer=checkpointer)
    if crash == "families":
        # the family phase interleaves each depth's regularized rows
        assert {desc[0] for desc in calls} == {"stuffle", "hoffman"} and not path.exists()
    else:
        payload = json.loads(path.read_text())["payload"]
        assert payload["phase"] == Checkpointer.PHASE == "column-order"
        assert payload["modulus"] == solver_mod.PRIMES[0]

    monkeypatch.undo()
    family_phases = _count_family_phases(monkeypatch)
    resumed = solve_weight(7, lower, checkpointer=checkpointer)
    assert render_table(resumed) == render_table(fresh)
    # the checkpoint restores the counters too, so every stat but the
    # timings is the fresh solve's
    assert _untimed(resumed.stats) == _untimed(fresh.stats)
    assert set(_untimed(fresh.stats)) == {
        "rows", "family_rows", "reduced_rows", "redundant_rows", "pivots", "modulus_bits",
        "max_bracket_terms", "bracket_updates", "max_coeff_bits",
    }
    # the checkpoint holds every family entry, or there is none
    assert family_phases == ([] if crash == "elimination" else [7])
    assert not path.exists()  # cleared on success


def test_checkpoint_tamper_refuses_resume(tmp_path):
    lower = _lower_tables(6)
    path = tmp_path / "weight-07.checkpoint.json"
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, checkpointer=_InterruptAfterSave(path, DEFAULT_KINDS))

    wrapper = json.loads(path.read_text())
    wrapper["payload"]["modulus"] += 2
    path.write_text(json.dumps(wrapper))
    with pytest.raises(StoreIntegrityError):
        solve_weight(7, lower, checkpointer=Checkpointer(path, DEFAULT_KINDS))


def test_checkpoint_from_other_config_is_ignored(tmp_path):
    other = ("stuffle", "shuffle")
    lower = _lower_tables(6)
    path = tmp_path / "weight-07.checkpoint.json"
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, other, checkpointer=_InterruptAfterSave(path, other))

    # resuming under the default kinds ignores the foreign checkpoint and
    # still produces the canonical table
    resumed = solve_weight(7, lower, checkpointer=Checkpointer(path, DEFAULT_KINDS))
    assert render_table(resumed) == render_table(solve_weight(7, lower))


def _spoil_state(state, defect, n_words, p):
    """Give ``state`` the one ``defect``, which
    :meth:`MasterExpression.restore` must refuse."""
    monomials, pivots, counters = state["monomials"], state["pivots"], state["counters"]
    bracket = max((b for b in pivots if len(b) > 3), key=lambda b: b[0])  # Lyndon-led
    lead = bracket.index(bracket[0], 1)  # the lead's own column among the pairs
    other = next(j for j in range(1, len(bracket), 2) if bracket[j] != bracket[0])
    if defect == "monomial of another weight":
        monomials[0] = [[5], [3]]
    elif defect == "repeated monomial":
        monomials.append(monomials[0])
    elif defect == "lead past the words":
        # led, with 1, at the column of a new monomial Z(4)Z(3), which no
        # bracket names (Z(4) is no generator)
        monomials.append([[4], [3]])
        bracket[0] = bracket[lead] = n_words + len(monomials) - 1
    elif defect == "lead without 1":
        bracket[lead + 1] = 2
    elif defect == "repeated lead":
        pivots.append(bracket)
    elif defect == "column past the space":
        bracket[other] = n_words + len(monomials)
    elif defect == "miscounted pivots":
        counters[0] += 1
    else:
        coefficients = {"coefficient 0": 0, "coefficient p": p, "fractional coefficient": 0.5}
        bracket[other + 1] = coefficients[defect]


@pytest.mark.parametrize("defect", [
    "monomial of another weight", "repeated monomial", "lead past the words", "lead without 1",
    "repeated lead", "column past the space", "coefficient 0", "coefficient p",
    "fractional coefficient", "miscounted pivots",
])
def test_restore_refuses_a_malformed_state(tables8, defect):
    # a state taken up by a fresh master restores every bracket and counter
    master = _master(7, tables8, solver_mod.PRIMES[0])
    family_phase(master, relation_descriptors(7))
    state = json.loads(json.dumps(master.state()))
    again = _master(7, tables8, solver_mod.PRIMES[0])
    again.restore(json.loads(json.dumps(state)))
    assert again.state() == master.state() and again.pivots == master.pivots
    assert again.mono_ids == master.mono_ids
    # one defect, and the state is refused and nothing taken up
    _spoil_state(state, defect, master.n_words, master.prime)
    fresh = _master(7, tables8, solver_mod.PRIMES[0])
    with pytest.raises(ValueError):
        fresh.restore(state)
    assert fresh.pivots == {} and fresh.monomials == [] and fresh.installed == 0


# canonical-JSON sha256 of weight 7's checkpoint payloads as older builds
# wrote them: the family brackets alone, pinned before the depth-layered
# schedule, every bracket after the layered family phase, pinned before
# the checkpoint took the master's own state, the master's state with
# four counters after every stuffle row in list order, pinned before the
# canonical rows came first, and with five counters after the canonical
# rows in list order, pinned before they came in column order
WEIGHT_7_FAMILY_CHECKPOINT = "8f6da9e16b5d54d28de141902a86fc85f0f1d92682e9563ede7604b21c94d46a"
WEIGHT_7_LAYERS_CHECKPOINT = "244a2825016bb6bad20991ecd59c69bca72527e08aa948f045d6ba283b407f0e"
WEIGHT_7_ECHELON_CHECKPOINT = "d73a86a8baf1256e8bb15658e96f4cb0fda0c9b7f2bd00b2656bf2e91f12c191"
WEIGHT_7_CANONICAL_CHECKPOINT = "efe6ab45823d5a23a487da78993db0f35786bc91bdec8d9da1e9b25420dd34f6"


def _older_payload(lower, phase):
    """Weight 7's checkpoint payload as an older build wrote it under the
    tag ``phase``: mod PRIMES[0], every bracket after the layered family
    phase (``layers``) or the family brackets alone (``families``), each
    lead's word as "5,2" mapped to its right-hand side, each word or
    monomial there as "6,1" or "5|2"."""
    columns = list(elimination_order(7))
    master = MasterExpression(columns, Certifier(lower))
    kinds = ("stuffle", "hoffman") if phase == "layers" else ("stuffle",)
    family_phase(master, relation_descriptors(7, kinds))
    names = ["|".join(",".join(map(str, f)) for f in m)
             for m in [(x,) for x in columns] + master.monomials]
    entries = {names[lead]: {names[k]: -v % master.prime for k, v in b.items() if k != lead}
               for lead, b in master.pivots.items()}
    return {"weight": 7, "phase": phase, "modulus": master.prime, "entries": entries}


def _stuffle_payload(lower, phase, rows):
    """Weight 7's checkpoint payload as an older build wrote it under the
    tag ``phase``: mod PRIMES[0], the master's state after a family phase
    that reduced, depth by depth, the stuffle rows among ``rows`` in list
    order, each depth's regularized rows right after them, with the
    counters [installed, absorbed, peak_terms, bracket_updates] (and
    ``family_rows``, the stuffle rows reduced, under "canonical")."""
    master = MasterExpression(list(elimination_order(7)), Certifier(lower))
    relations = relation_descriptors(7)
    for depth in range(2, 7):
        for desc in relations:
            if desc in rows and len(desc[1]) + len(desc[2]) == depth:
                master.reduce(desc)
        for desc in relations:
            if desc[0] == "hoffman" and len(desc[1]) + 1 == depth:
                master.absorb(desc)
    state = master.state()
    if phase == "canonical":
        state["counters"].append(len(rows))
    return {"phase": phase, "modulus": master.prime, "state": state}


def _write_checkpoint(path, payload):
    """Write ``payload`` as a hash-valid checkpoint with the default kinds'
    fingerprint, in the wrapper every build has used; returns its digest."""
    payload = dict(payload, fingerprint=Checkpointer(path, DEFAULT_KINDS).fingerprint)
    digest = solver_mod._canonical_json(payload)[1]
    path.write_text(json.dumps({"payload": payload, "sha256": digest}))
    return digest


def test_elimination_checkpoint_of_an_older_build_is_ignored(tmp_path, monkeypatch, caplog):
    # each payload is hash-valid and carries this configuration's
    # fingerprint, but another phase tag, so the weight restarts from scratch
    lower = _lower_tables(6)
    path = tmp_path / "weight-07.checkpoint.json"
    older = {
        # older builds also checkpointed mid-elimination
        "elimination": {
            "weight": 7,
            "phase": "elimination",
            "entries": {},
            "master": {
                "monomials": [],
                "pivots": {},
                "redundant": 0,
                "consumed": 3,
                "total_terms": 0,
                "max_terms": 0,
            },
        },
        # and then after each family depth, over Fraction
        "per-depth": {
            "weight": 7,
            "phase": "families",
            "depth_done": 2,
            "entries": {"5,2": {"w": {"6,1": "-1/2"}, "m": {"5|2": "1/2"}}},
        },
        # family entries computed under a modulus the solve does not use
        "other modulus": {
            "weight": 7,
            "phase": "families",
            "modulus": 2**61 - 1,
            "entries": {"5,2": {"6,1": 5}},
        },
        # family entries without a modulus
        "no modulus": {"weight": 7, "phase": "families", "entries": {}},
        # and then the family brackets alone, without the Lyndon brackets
        # of the regularized rows
        "family brackets alone": _older_payload(lower, "families"),
        # and then every bracket after the layered family phase, as words
        "layers": _older_payload(lower, "layers"),
        # and then the master's own state, after every stuffle row
        "echelon": _stuffle_payload(lower, "echelon", relation_descriptors(7, ("stuffle",))),
        # and then after the canonical rows, with a fifth counter
        "canonical": _stuffle_payload(
            lower, "canonical",
            {solver_mod.canonical_row(x) for x in admissible_words(7) if not is_lyndon(x)},
        ),
    }
    pinned = {"family brackets alone": WEIGHT_7_FAMILY_CHECKPOINT,
              "layers": WEIGHT_7_LAYERS_CHECKPOINT, "echelon": WEIGHT_7_ECHELON_CHECKPOINT,
              "canonical": WEIGHT_7_CANONICAL_CHECKPOINT}
    canonical = render_table(solve_weight(7, lower))
    family_phases = _count_family_phases(monkeypatch)
    for name, payload in older.items():
        digest = _write_checkpoint(path, payload)
        assert digest == pinned.get(name, digest), name
        family_phases.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="zetaforge.solver"):
            resumed = solve_weight(
                7, lower, checkpointer=Checkpointer(path, DEFAULT_KINDS)
            )
        assert [r.getMessage() for r in caplog.records] == [
            f"ignoring checkpoint {path} from a different configuration"
        ], name
        assert family_phases == [7], name
        assert render_table(resumed) == canonical, name
        # under the first modulus: a payload wrongly resumed would fail the
        # certificate there and fall through to the next
        assert resumed.stats["modulus_bits"] == 127, name
        assert not path.exists(), name

    # through the command too: the last build's payload, whose five
    # counters this build does not restore, is ignored under its own tag,
    # where under this build's tag it would be malformed (exit 5)
    store = TableStore(tmp_path / "store")
    solve = ["solve", "--weight", "7", "--table-dir", str(store.root)]
    assert cli_main(["solve", "--weight", "6", "--table-dir", str(store.root)]) == 0
    _write_checkpoint(store.checkpoint_path(7), dict(older["canonical"], phase=Checkpointer.PHASE))
    assert cli_main(solve) == 5
    _write_checkpoint(store.checkpoint_path(7), older["canonical"])
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="zetaforge.solver"):
        assert cli_main(solve) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"ignoring checkpoint {store.checkpoint_path(7)} from a different configuration"
    ]
    assert render_table(store.load(7)) == canonical
    assert not store.checkpoint_path(7).exists()


# canonical-JSON sha256 of weight 7's checkpoint payload (its fingerprint,
# modulus, phase tag and the master's state after the layered family phase,
# each depth's canonical rows in column order); a change to the row order
# changes it, through the brackets' insertion order and the counters, and
# then the phase tag changes too, so that an earlier build's payload is
# ignored
WEIGHT_7_CHECKPOINT = "b7b66ea47271c5fd845cd041f1dcb68ffda554bae4a6e6532811e4f6a5b14e4a"


def test_family_checkpoint_format_is_pinned(tmp_path, monkeypatch):
    lower = _lower_tables(6)
    path = tmp_path / "weight-07.checkpoint.json"
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, checkpointer=_InterruptAfterSave(path, DEFAULT_KINDS))
    payload = json.loads(path.read_text())["payload"]
    text, digest = solver_mod._canonical_json(payload)
    assert digest == WEIGHT_7_CHECKPOINT
    # the canonical text is written as it was hashed, once
    assert path.read_text() == f'{{"payload":{text},"sha256":"{digest}"}}'

    canonical = render_table(solve_weight(7, lower))
    family_phases = _count_family_phases(monkeypatch)
    resumed = solve_weight(7, lower, checkpointer=Checkpointer(path, DEFAULT_KINDS))
    assert family_phases == []
    assert render_table(resumed) == canonical


def test_a_checkpoint_of_another_row_order_resumes_to_the_same_table(tmp_path, monkeypatch):
    # the echelon after the family phase spans the same rows whatever their
    # order, so a checkpoint written after the regularized rows came in
    # reverse (its brackets inserted and counted otherwise) resumes to the
    # same bytes and pivots
    lower = _lower_tables(6)
    stuffle, hoffman = (relation_descriptors(7, (kind,)) for kind in ("stuffle", "hoffman"))

    def layered(regularized):
        master = MasterExpression(list(elimination_order(7)), Certifier(lower))
        family_phase(master, stuffle + regularized)
        return master

    reversed_order = layered(hoffman[::-1])
    assert reversed_order.state() != layered(hoffman).state()
    path = tmp_path / "weight-07.checkpoint.json"
    Checkpointer(path, DEFAULT_KINDS).save(reversed_order)
    fresh = solve_weight(7, lower)
    family_phases = _count_family_phases(monkeypatch)
    resumed = solve_weight(7, lower, checkpointer=Checkpointer(path, DEFAULT_KINDS))
    assert family_phases == []
    assert render_table(resumed) == render_table(fresh)
    assert (resumed.stats["pivots"], resumed.stats["redundant_rows"]) == GOLDEN_COUNTS[7]


# ------------------------------------------------------ crash and re-run

@pytest.fixture(scope="module")
def clean_store8(tmp_path_factory):
    store = TableStore(tmp_path_factory.mktemp("clean"))
    ensure_solved(store, 8)
    return store


def _assert_matches_clean_store(store, clean):
    names = sorted(p.name for p in store.root.iterdir())
    assert names == sorted(p.name for p in clean.root.iterdir())
    assert not any("checkpoint" in name for name in names)
    for name in names:
        assert (store.root / name).read_bytes() == (clean.root / name).read_bytes(), name


def test_ensure_solved_rerun_after_a_crash_inside_a_weight(tmp_path, monkeypatch, clean_store8):
    store = TableStore(tmp_path)
    ensure_solved(store, 6)
    _interrupt_absorb_after(monkeypatch, 5)
    with pytest.raises(KeyboardInterrupt):
        ensure_solved(store, 8)
    monkeypatch.undo()
    assert store.checkpoint_path(7).exists()
    assert not store.has(7)

    ensure_solved(store, 8)
    _assert_matches_clean_store(store, clean_store8)


def test_ensure_solved_rerun_after_a_crash_before_the_manifest_write(
    tmp_path, monkeypatch, clean_store8
):
    store = TableStore(tmp_path)
    ensure_solved(store, 6)
    honest = solver_mod._atomic_write

    def crash_on_manifest(path, *pieces):
        if path == store.manifest_path and store.table_path(7).exists():
            raise KeyboardInterrupt("simulated crash between table and manifest writes")
        honest(path, *pieces)

    monkeypatch.setattr(solver_mod, "_atomic_write", crash_on_manifest)
    with pytest.raises(KeyboardInterrupt):
        ensure_solved(store, 8)
    monkeypatch.undo()
    # the weight-7 table is on disk but unrecorded, so it is solved again
    assert store.table_path(7).exists() and not store.has(7)

    ensure_solved(store, 8)
    _assert_matches_clean_store(store, clean_store8)


def test_solved_stats_recorded(tables8):
    stats = tables8[8].stats
    for key in ("families_seconds", "elimination_seconds", "certify_seconds", "rows", "pivots"):
        assert key in stats
    assert (stats["pivots"], stats["redundant_rows"]) == (29, 45)
    # the table was certified under the first modulus, 2^127 - 1
    assert stats["modulus_bits"] == 127
    # the largest numerator or denominator in weight 8's table has 16 bits,
    # far inside Wang's bound of 63 bits under 2^127 - 1
    assert stats["max_coeff_bits"] == 16
    assert stats["max_coeff_bits"] == max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for entry in tables8[8].entries.values() for c in entry.values()
    )


def test_a_failed_family_phase_is_booked_as_family_time(monkeypatch, tables8):
    # the family phase under PRIMES[0] spends 0.2 s and then fails, so the
    # solve moves on to 2^521 - 1; both attempts are family time.  The
    # failed pass skipped no row, so it is not redone under PRIMES[0]
    honest = solver_mod.family_phase
    moduli = []

    def slow_then_failing(master, *args):
        moduli.append(master.prime)
        if master.prime == solver_mod.PRIMES[0]:
            time.sleep(0.2)
            raise solver_mod.UnderdeterminedFamily("simulated")
        honest(master, *args)

    monkeypatch.setattr(solver_mod, "family_phase", slow_then_failing)
    lower = {w: t for w, t in tables8.items() if w < 6}
    solved = solve_weight(6, lower)
    assert render_table(solved) == render_table(tables8[6])
    assert solved.stats["modulus_bits"] == 521
    assert solved.stats["families_seconds"] >= 0.2
    assert moduli == [solver_mod.PRIMES[0], solver_mod.PRIMES[1]]


def test_certificate_counters_logged_at_debug_only(caplog, capsys):
    lower = _lower_tables(5)
    with caplog.at_level(logging.DEBUG, logger="zetaforge.solver"):
        solve_weight(6, lower)
    lines = [r.getMessage() for r in caplog.records if "certified" in r.getMessage()]
    assert len(lines) == 1
    assert re.fullmatch(
        r"weight 6: certified 22 row\(s\) in \d+\.\d{3} s modulo a 127-bit prime, "
        r"9 of 15 elimination rows reduced, max coefficient 7 bits, 26 bracket updates",
        lines[0],
    )
    assert capsys.readouterr().out == ""


def test_elimination_progress_logged_at_debug_only(monkeypatch, caplog, capsys):
    monkeypatch.setattr(solver_mod, "PROGRESS_ROWS", 16)
    lower = _lower_tables(7)
    with caplog.at_level(logging.DEBUG, logger="zetaforge.solver"):
        solve_weight(8, lower)
    lines = [r.getMessage() for r in caplog.records if "rows absorbed" in r.getMessage()]
    # weight 8 consumes 74 rows and ends with 29 pivots, the last of them
    # from its second shuffle row
    assert lines == [
        "weight 8: 16/74 rows absorbed, 15 pivots",
        "weight 8: 32/74 rows absorbed, 28 pivots",
        "weight 8: 48/74 rows absorbed, 29 pivots",
        "weight 8: 64/74 rows absorbed, 29 pivots",
    ]
    assert capsys.readouterr().out == ""


# -------------------------------------- modular elimination and certificate

# pivots and redundant rows per weight, as recorded from the exact solver
GOLDEN_COUNTS = {3: (1, 0), 4: (3, 0), 5: (5, 1), 6: (9, 6), 7: (17, 15), 8: (29, 45)}


class _NamedRows(MasterExpression):
    """A master whose rows are half-reduced splits looked up by name, in
    place of expanded relation instances: ``absorb(("name",))``."""

    def __init__(self, columns, rows):
        super().__init__(columns, Certifier({}))
        self.rows = rows

    def integer_row(self, desc):
        # the split's words and monomials at their columns, scaled to integers
        word_part, mono_part = self.rows[desc[0]]
        combo = {**{self.col_of[code(w)]: c for w, c in word_part.items()},
                 **{self._mono_col(m): c for m, c in mono_part.items()}}
        den = math.lcm(*(Fraction(c).denominator for c in combo.values()))
        return {k: int(c * den) for k, c in combo.items()}


def _master(w, tables, prime):
    """A fresh master for weight ``w`` over the tables below it, with the
    non-Lyndon words first, as its column space requires."""
    lower = {k: t for k, t in tables.items() if k < w}
    return MasterExpression(sorted(admissible_words(w), key=is_lyndon), Certifier(lower), prime)


def test_rational_reconstruction_round_trips_inside_the_bound():
    rng = random.Random(8)
    m = solver_mod.PRIMES[0]
    bound = 2**63 - 1  # isqrt((2^127 - 1) // 2)
    for _ in range(500):
        n, d = rng.randint(-bound, bound), rng.randint(1, bound)
        assert rational(n * pow(d, -1, m) % m, m) == Fraction(n, d)
    assert rational(bound, m) == bound and rational(-bound % m, m) == -bound
    # 2^63 is just outside: no fraction within the bound has its residue
    with pytest.raises(ReconstructionError, match="no rational preimage"):
        rational(2**63, m)


def test_rational_reconstruction_agrees_with_a_search_mod_1009():
    # every residue mod 1009 either has the unique preimage n/d with |n|, d
    # at most isqrt(1009 // 2) = 22, which a search finds too, or raises
    m, bound = 1009, 22
    small = {}
    for d in range(1, bound + 1):
        for n in range(-bound, bound + 1):
            if math.gcd(n, d) == 1:
                small[n * pow(d, -1, m) % m] = Fraction(n, d)
    for a in range(m):
        if a in small:
            assert rational(a, m) == small[a]
        else:
            with pytest.raises(ReconstructionError):
                rational(a, m)


@pytest.mark.parametrize("prime", [2, 3, 5, 7])
def test_small_primes_give_the_same_tables(monkeypatch, tables8, prime):
    monkeypatch.setattr(solver_mod, "PRIMES", (prime, 2**127 - 1))
    tables = solve_in_memory(8)
    for w in range(2, 9):
        assert render_table(tables[w]) == render_table(tables8[w])
    for w, counts in GOLDEN_COUNTS.items():
        stats = tables[w].stats
        assert (stats["pivots"], stats["redundant_rows"]) == counts
    # weight 4 already needs 2/5, whose reconstruction needs a modulus m with
    # 5 <= sqrt(m/2), so it falls through to the second modulus
    assert tables[4].stats["modulus_bits"] == 127


def test_rank_lost_under_the_first_modulus_falls_through_to_the_second(
    lossy_first_modulus, tables8
):
    lossy_first_modulus()
    tables = solve_in_memory(8)
    for w in range(2, 9):
        assert render_table(tables[w]) == render_table(tables8[w])
    for w, counts in GOLDEN_COUNTS.items():
        stats = tables[w].stats
        assert (stats["pivots"], stats["redundant_rows"]) == counts
        assert stats["modulus_bits"] == 521


def test_underdetermined_family_under_the_first_modulus_falls_through(monkeypatch, tables8):
    # every stuffle row vanishes under PRIMES[0] (its row is multiplied by
    # the modulus), so the first family there has no pivot at all
    honest = MasterExpression.integer_row

    def unlucky(self, desc):
        row = honest(self, desc)
        if desc[0] == "stuffle":
            row = {m: v * solver_mod.PRIMES[0] for m, v in row.items()}
        return row

    monkeypatch.setattr(MasterExpression, "integer_row", unlucky)
    with pytest.raises(solver_mod.UnderdeterminedFamily, match="left without a family bracket"):
        family_phase(_master(4, tables8, solver_mod.PRIMES[0]), relation_descriptors(4))
    tables = solve_in_memory(8)
    for w in range(2, 9):
        assert render_table(tables[w]) == render_table(tables8[w])
    for w, counts in GOLDEN_COUNTS.items():
        stats = tables[w].stats
        assert (stats["pivots"], stats["redundant_rows"]) == counts
        # every word of weight 3 is Lyndon, so it has no family to solve
        assert stats["modulus_bits"] == (127 if w == 3 else 521)


def test_an_incomplete_depth_is_named_before_its_regularized_rows(monkeypatch, tables8):
    # under PRIMES[0] weight 6's stuffle rows of depth 3 vanish; the family
    # phase absorbs the regularized rows on words of depth 1, then names the
    # depth-3 words left without a bracket before a regularized row on a
    # word of depth 2 (which names them) reaches absorb
    honest_row, honest_absorb = MasterExpression.integer_row, MasterExpression.absorb
    absorbed = []

    def unlucky(self, desc):
        row = honest_row(self, desc)
        if desc[0] == "stuffle" and len(desc[1]) + len(desc[2]) == 3:
            row = {m: v * self.prime for m, v in row.items()}
        return row

    def absorb(self, desc):
        absorbed.append(desc)
        return honest_absorb(self, desc)

    monkeypatch.setattr(MasterExpression, "integer_row", unlucky)
    monkeypatch.setattr(MasterExpression, "absorb", absorb)
    master = _master(6, tables8, solver_mod.PRIMES[0])
    hoffman = relation_descriptors(6, ("hoffman",))
    with pytest.raises(solver_mod.UnderdeterminedFamily) as err:
        family_phase(master, relation_descriptors(6))
    depth3 = [render_word(x) for x in master.columns[:master.n_family] if len(x) == 3]
    assert depth3 and str(err.value) == f"weight 6: {depth3} left without a family bracket"
    assert absorbed == [desc for desc in hoffman if len(desc[1]) == 1]


def test_inconsistent_stuffle_row_under_the_first_modulus_falls_through(monkeypatch, tables8):
    # under PRIMES[0] the first stuffle row of each weight becomes a row on
    # one Lyndon word alone, so the family phase there meets a relation
    # among Lyndon words
    firsts = {relation_descriptors(w, ("stuffle",))[0] for w in range(4, 9)}
    honest = MasterExpression.integer_row

    def lyndon_only(self, desc):
        if desc in firsts and self.prime == solver_mod.PRIMES[0]:
            return {self.n_family: 1}
        return honest(self, desc)

    monkeypatch.setattr(MasterExpression, "integer_row", lyndon_only)
    led = r"^stuffle Z\(2\)\*Z\(2,1\): left a relation led by Z\("
    with pytest.raises(InconsistentRelation, match=led):
        family_phase(_master(5, tables8, solver_mod.PRIMES[0]), relation_descriptors(5))
    tables = solve_in_memory(8)
    for w in range(2, 9):
        assert render_table(tables[w]) == render_table(tables8[w])
    for w, counts in GOLDEN_COUNTS.items():
        stats = tables[w].stats
        assert (stats["pivots"], stats["redundant_rows"]) == counts
        # weight 3 has no stuffle rows
        assert stats["modulus_bits"] == (127 if w == 3 else 521)


def test_certificate_covers_the_stuffle_rows(monkeypatch, caplog, tables8):
    # one product coefficient of a bracket led by a non-Lyndon word is
    # corrupted under PRIMES[0] after the elimination, so only the
    # certificate can reject the table; it checks every stuffle relation and
    # rejects one of them first
    honest_back_substitute = MasterExpression.back_substitute

    def corrupted(self):
        if self.prime == solver_mod.PRIMES[0]:
            pivots = self.pivots
            lead, k = next(
                (lead, k) for lead in sorted(pivots) if lead < self.n_family
                for k in sorted(pivots[lead]) if k >= self.n_words
            )
            pivots[lead][k] = (pivots[lead][k] + 1) % self.prime
        honest_back_substitute(self)

    seen = []
    honest_holds = Certifier.holds

    def recording(self, desc):
        seen.append(desc)
        return honest_holds(self, desc)

    monkeypatch.setattr(MasterExpression, "back_substitute", corrupted)
    monkeypatch.setattr(Certifier, "holds", recording)
    lower = {w: t for w, t in tables8.items() if w < 8}
    with caplog.at_level(logging.DEBUG, logger="zetaforge.solver"):
        solved = solve_weight(8, lower)
    assert render_table(solved) == render_table(tables8[8])
    assert solved.stats["modulus_bits"] == 521
    failures = [r.getMessage() for r in caplog.records if "bits failed" in r.getMessage()]
    assert len(failures) == 1
    assert re.search(r"fail the certificate, stuffle Z\(.*\) first$", failures[0])
    stuffle = relation_descriptors(8, ("stuffle",))
    assert stuffle and set(stuffle) <= set(seen)


def test_a_false_family_relation_fails_the_certificate(monkeypatch, tables8):
    # 1 added mod PRIMES[0] at Z(6,2) to the family bracket of
    # Z(2,1,1,1,1,2) puts a false relation into the span: the elimination
    # stops at the rank target one true relation short, and the certificate
    # rejects the table, which would have no generator Z(5,3) if the false
    # relation added rank; the second modulus gives weight 8's table
    honest = solver_mod.family_phase

    def tampered(master, relations):
        honest(master, relations)
        if master.prime == solver_mod.PRIMES[0]:
            p, pivots = master.prime, master.pivots
            lead, k = (master.col_of[code(x)] for x in ((2, 1, 1, 1, 1, 2), (6, 2)))
            # Z(6,2) leads a bracket of its own: adding 1 there and clearing
            # it again subtracts the rest of that bracket, and keeps the
            # echelon fully reduced
            assert k in pivots and k not in pivots[lead]
            bracket = pivots[lead]
            for j, v in pivots[k].items():
                if j != k:
                    bracket[j] = (bracket.get(j, 0) - v) % p
            pivots[lead] = {j: v for j, v in bracket.items() if v}
            master.users = _users(master)

    monkeypatch.setattr(solver_mod, "family_phase", tampered)
    solved = solve_weight(8, {w: t for w, t in tables8.items() if w < 8})
    assert solved.stats["modulus_bits"] == 521
    assert (5, 3) in solved.generators
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                        .read_text())["tables"]
    assert hashlib.sha256(render_table(solved).encode("ascii")).hexdigest() == golden["8"]


# ------------------------------------------------------------- row schedule

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_any_row_order_gives_the_same_tables(monkeypatch, tables8, seed):
    # the table is the unique reduced row-echelon form of the rows' span, so
    # the weight's descriptors in a random order, stuffle rows included,
    # change no byte, pivot or redundant row (the rows reduced before the
    # early stop do depend on the order)
    honest = solver_mod.relation_descriptors
    rng = random.Random(seed)

    def permuted(*args):
        relations = honest(*args)
        rng.shuffle(relations)
        return relations

    monkeypatch.setattr(solver_mod, "relation_descriptors", permuted)
    tables = solve_in_memory(8)
    for w in range(2, 9):
        assert render_table(tables[w]) == render_table(tables8[w])
    for w, counts in GOLDEN_COUNTS.items():
        stats = tables[w].stats
        assert (stats["pivots"], stats["redundant_rows"]) == counts


def test_each_depth_absorbs_its_regularized_rows_before_deeper_stuffle_rows(monkeypatch, tables8):
    # the rows of a weight-8 solve in order: each stuffle row with its depth,
    # each absorbed row with its layer (for a Hoffman row on v, the depth
    # len(v) + 1)
    seen = []
    honest_reduce, honest_absorb = MasterExpression.reduce, MasterExpression.absorb

    def reduce(self, desc):
        if desc[0] == "stuffle":
            seen.append((desc, len(desc[1]) + len(desc[2])))
        return honest_reduce(self, desc)

    def absorb(self, desc):
        seen.append((desc, len(desc[1]) + 1 if desc[0] == "hoffman" else None))
        return honest_absorb(self, desc)

    monkeypatch.setattr(MasterExpression, "reduce", reduce)
    monkeypatch.setattr(MasterExpression, "absorb", absorb)
    solve_weight(8, {w: t for w, t in tables8.items() if w < 8})
    stuffle = relation_descriptors(8, ("stuffle",))
    hoffman = relation_descriptors(8, ("hoffman",))
    shuffle = relation_descriptors(8, ("shuffle",))
    # the canonical row of every non-Lyndon word once, and no other stuffle
    # row: depth ascending, and in column order within a depth (a stable
    # sort of the columns)
    family = [x for x in elimination_order(8) if not is_lyndon(x)]
    reduced = [desc for desc, _ in seen if desc[0] == "stuffle"]
    assert len(reduced) == len(family) == 34
    assert reduced == [solver_mod.canonical_row(x) for x in sorted(family, key=len)]
    assert set(reduced) <= set(stuffle)
    # each Hoffman row on v comes after every stuffle row of depth
    # len(v) + 1 and before any deeper stuffle row
    layered = [(i, desc, depth) for i, (desc, depth) in enumerate(seen) if desc[0] == "hoffman"]
    assert len({depth for _, _, depth in layered}) == 6  # v of depth 1 to 6
    for i, desc, depth in layered:
        assert all(d <= depth for x, d in seen[:i] if x[0] == "stuffle"), describe(desc)
        assert all(d > depth for x, d in seen[i:] if x[0] == "stuffle"), describe(desc)
    # within a layer, in descriptor order
    assert [desc for _, desc, _ in layered] == sorted(hoffman, key=lambda desc: len(desc[1]))
    # then the 42 shuffle rows, by the column of their heavier factor in
    # its own weight, first-eliminated first, ties in descriptor order
    ordered = sorted(shuffle, key=lambda desc: elimination_order(weight(desc[2]))[desc[2]])
    assert ordered != shuffle
    assert [desc for desc, _ in seen[-len(shuffle):]] == ordered
    assert len(seen) == len(reduced) + len(hoffman) + len(shuffle)


def _count_masters(monkeypatch):
    """The ``(weight, modulus)`` of each :class:`MasterExpression` built, in
    order, until the test ends."""
    built = []
    honest = MasterExpression.__init__

    def init(self, columns, lower, prime=solver_mod.PRIMES[0], *args):
        built.append((weight(columns[0]), prime))
        honest(self, columns, lower, prime, *args)

    monkeypatch.setattr(MasterExpression, "__init__", init)
    return built


@pytest.mark.parametrize("shift", [1, -1])
def test_a_wrong_rank_target_gives_the_same_tables(monkeypatch, caplog, tmp_path, tables8, shift):
    # a target one too high is never reached, so every row is reduced and
    # the tables are the same; one too low leaves weight 3 a table that
    # misses its pivot, which fails the certificate after exactly one pass
    # per modulus, so the solve fails and saves no table
    honest = solver_mod.rank_target
    monkeypatch.setattr(solver_mod, "rank_target", lambda columns: honest(columns) + shift)
    masters = _count_masters(monkeypatch)
    store = TableStore(tmp_path)
    if shift < 0:
        with pytest.raises(ReconstructionError, match="fail the certificate"):
            solve_in_memory(8)
        assert masters == [(3, prime) for prime in solver_mod.PRIMES]
        with pytest.raises(ReconstructionError, match="fail the certificate"):
            ensure_solved(store, 6)
        assert not store.has(3) and not store.checkpoint_path(3).exists()
        return
    with caplog.at_level(logging.DEBUG, logger="zetaforge.solver"):
        tables = solve_in_memory(8)
    for w in range(2, 9):
        assert render_table(tables[w]) == render_table(tables8[w])
    for w, counts in GOLDEN_COUNTS.items():
        stats = tables[w].stats
        assert (stats["pivots"], stats["redundant_rows"]) == counts
        assert stats["reduced_rows"] == stats["rows"]
        assert stats["modulus_bits"] == 127
    assert masters == [(w, solver_mod.PRIMES[0]) for w in range(3, 9)]
    assert not any("bits failed" in r.getMessage() for r in caplog.records)
    # a persisted solve saves the same bytes
    ensure_solved(store, 6)
    for w in range(2, 7):
        assert store.table_path(w).read_text() == render_table(tables8[w])


def test_a_family_phase_stopped_at_the_rank_target_writes_no_checkpoint(
    monkeypatch, tmp_path, tables8
):
    # with a target of 1, weight 8 stops at its first regularized pivot,
    # inside the family phase, and skips the rest; that phase writes no
    # checkpoint, which would resume without them, under either modulus,
    # and each pass fails the certificate
    monkeypatch.setattr(solver_mod, "rank_target", lambda columns: 1)
    saves = []

    class Recording(Checkpointer):
        def save(self, master):
            saves.append(master.prime)
            super().save(master)

    path = tmp_path / "weight-08.checkpoint.json"
    lower = {w: t for w, t in tables8.items() if w < 8}
    with pytest.raises(ReconstructionError, match="fail the certificate"):
        solve_weight(8, lower, checkpointer=Recording(path, DEFAULT_KINDS))
    assert saves == []
    assert not path.exists()


def test_rows_past_the_rank_target_are_absorbed_unreduced(monkeypatch, tables8, tables12):
    # weight 8 reaches its 29 pivots at its 34th row, its second shuffle
    # row; absorb still sees all 74 rows, but the last 40 are neither
    # expanded nor reduced
    events = []
    honest_absorb, honest_reduce = MasterExpression.absorb, MasterExpression.reduce

    def absorb(self, desc):
        events.append("absorb")
        return honest_absorb(self, desc)

    def reduce(self, desc):
        if desc[0] != "stuffle":
            events.append("reduce")
        return honest_reduce(self, desc)

    monkeypatch.setattr(MasterExpression, "absorb", absorb)
    monkeypatch.setattr(MasterExpression, "reduce", reduce)
    solved = solve_weight(8, {w: t for w, t in tables8.items() if w < 8})
    assert render_table(solved) == render_table(tables8[8])
    assert events == ["absorb", "reduce"] * 34 + ["absorb"] * 40
    assert (solved.stats["rows"], solved.stats["reduced_rows"]) == (74, 34)
    assert (solved.stats["pivots"], solved.stats["redundant_rows"]) == GOLDEN_COUNTS[8]
    # weight 10 reduces 133 of its 356 rows and only certifies the other 223
    tables, _ = tables12
    assert (tables[10].stats["rows"], tables[10].stats["reduced_rows"]) == (356, 133)


def test_shuffle_rows_come_in_their_heavier_factors_column_order(monkeypatch, tables12):
    # every shuffle row reaches absorb, ordered by the column of its heavier
    # factor v in elimination_order(weight(v)), first-eliminated first; the
    # rank target then stops after 3, 5, 10 and 11 reduced shuffle rows at
    # weights 9 to 12 (4, 66, 134 and 264 in descriptor order)
    tables, _ = tables12
    absorbed, reduced = [], []
    honest_absorb, honest_reduce = MasterExpression.absorb, MasterExpression.reduce

    def absorb(self, desc):
        absorbed.append(desc)
        return honest_absorb(self, desc)

    def reduce(self, desc):
        reduced.append(desc)
        return honest_reduce(self, desc)

    monkeypatch.setattr(MasterExpression, "absorb", absorb)
    monkeypatch.setattr(MasterExpression, "reduce", reduce)
    counts = {}
    for w in range(9, 13):
        absorbed.clear()
        reduced.clear()
        solved = solve_weight(w, {k: t for k, t in tables.items() if k < w})
        assert render_table(solved) == render_table(tables[w]), w
        shuffle = relation_descriptors(w, ("shuffle",))
        ordered = sorted(shuffle, key=lambda desc: elimination_order(weight(desc[2]))[desc[2]])
        assert [desc for desc in absorbed if desc[0] == "shuffle"] == ordered, w
        counts[w] = sum(desc[0] == "shuffle" for desc in reduced)
    assert counts == {9: 3, 10: 5, 11: 10, 12: 11}


def test_each_product_pair_is_tabled_once_per_weight(monkeypatch, tables8):
    # the stuffle row, the shuffle row and the certificate of a pair all
    # read one tabled product T(u) T(v)
    calls = []
    honest = solver_mod.lc_mul

    def counting(a, b):
        calls.append((a, b))
        return honest(a, b)

    monkeypatch.setattr(solver_mod, "lc_mul", counting)
    solved = solve_weight(8, {w: t for w, t in tables8.items() if w < 8})
    assert render_table(solved) == render_table(tables8[8])
    assert len(calls) == len(list(weight_pairs(8))) == 42


def test_bracket_updates_are_pinned_at_weights_10_to_12(tables12):
    # with each depth's regularized rows absorbed before any deeper family
    # bracket is built, each depth's canonical stuffle rows alone reduced,
    # in column order, and the shuffle rows in their heavier factor's
    # column order, the installs of weights 10, 11 and 12 rewrite 2205,
    # 7512 and 20718 brackets (2281, 7493 and 20844 with the shuffle rows
    # in list order; 2394, 7812 and 21972 with the canonical rows in list
    # order too; 2435, 7931 and 22278 when every stuffle row was reduced in
    # list order; 5747 at weight 10 when every family bracket was built
    # before the first Lyndon pivot), and at most 874, 2569 and 5356 terms
    # are live in Lyndon-led brackets
    tables, _ = tables12
    pinned = {10: (2205, 874), 11: (7512, 2569), 12: (20718, 5356)}
    for w, (updates, terms) in pinned.items():
        assert tables[w].stats["bracket_updates"] == updates, w
        assert tables[w].stats["max_bracket_terms"] == terms, w


# ------------------------------------------------------------ canonical rows

def test_each_non_lyndon_word_has_its_own_canonical_stuffle_row():
    # its first Lyndon factor times the rest, both admissible, is a pair of
    # the weight's stuffle descriptors, and no two words share one
    for w in range(3, 17):
        stuffle = set(relation_descriptors(w, ("stuffle",)))
        rows = [solver_mod.canonical_row(x) for x in admissible_words(w) if not is_lyndon(x)]
        assert set(rows) <= stuffle, w
        assert len(set(rows)) == len(rows), w


def test_each_canonical_row_is_triangular_on_the_non_lyndon_words_of_its_depth():
    # x is the lexicographically least non-Lyndon word of depth len(x) in
    # the stuffle of its canonical row, with a coefficient between 1 and
    # len(x): the canonical rows of a depth are triangular, so under any
    # modulus above the weight they give each of its non-Lyndon words a
    # bracket, and no other stuffle row is needed
    for w in range(3, 15):
        for x in admissible_words(w):
            if not is_lyndon(x):
                combo = stuffle(*solver_mod.canonical_row(x)[1:])
                depth = [y for y in combo if len(y) == len(x) and not is_lyndon(y)]
                assert min(depth) == x, render_word(x)
                assert 1 <= combo[x] <= len(x), render_word(x)


def test_the_family_phase_reduces_one_stuffle_row_per_non_lyndon_word(tables12):
    # the canonical rows alone complete every depth of weights 3 to 12, and
    # the other stuffle rows are left to the certificate (weight 10 reduces
    # 157 of its 228)
    tables, _ = tables12
    for w in range(3, 13):
        non_lyndon = sum(not is_lyndon(x) for x in admissible_words(w))
        assert tables[w].stats["family_rows"] == non_lyndon, w
    assert len(relation_descriptors(10, ("stuffle",))) == 228
    assert tables[10].stats["family_rows"] == 157


def test_no_family_install_rewrites_a_bracket(monkeypatch, tables12):
    # at weights 3 to 12 each canonical row installs at a non-Lyndon word
    # that no bracket names yet: no family install finds a bracket to
    # rewrite through the column index
    tables, _ = tables12
    honest = MasterExpression.reduce
    rewrites = []

    def reduce(self, desc):
        before = self.bracket_updates
        installed = honest(self, desc)
        if desc[0] == "stuffle":
            assert installed, describe(desc)
            rewrites.append(self.bracket_updates - before)
        return installed

    monkeypatch.setattr(MasterExpression, "reduce", reduce)
    for w in range(3, 13):
        lower = Certifier({k: t for k, t in tables.items() if k < w})
        family_phase(MasterExpression(list(elimination_order(w)), lower), relation_descriptors(w))
    assert len(rewrites) == sum(t.stats["family_rows"] for t in tables.values() if t.stats)
    assert not any(rewrites)


def _corrupt_first_bracket_under_the_first_modulus(monkeypatch):
    """Under ``PRIMES[0]``, put the bracket of weight 8's first non-Lyndon
    word x off by one at a monomial when the elimination ends, so that x's
    entry is wrong and the certificate rejects the canonical row of x;
    returns x."""
    honest = MasterExpression.back_substitute
    x = next(y for y in elimination_order(8) if not is_lyndon(y))

    def corrupted(self):
        if self.prime == solver_mod.PRIMES[0] and self.weight == 8:
            bracket = self.pivots[self.col_of[code(x)]]
            k = min(k for k in bracket if k >= self.n_words)
            bracket[k] = (bracket[k] + 1) % self.prime
        honest(self)

    monkeypatch.setattr(MasterExpression, "back_substitute", corrupted)
    return x


def test_a_corrupted_canonical_bracket_fails_the_certificate(monkeypatch, caplog, tables8):
    # the pass under PRIMES[0] fails the certificate and is not run again:
    # weight 8 is solved in one more pass, under 2^521 - 1
    x = _corrupt_first_bracket_under_the_first_modulus(monkeypatch)
    honest_rejects = Certifier.rejects
    rejected = []

    def rejects(self, descs):
        failed = honest_rejects(self, descs)
        rejected.append(failed)
        return failed

    monkeypatch.setattr(Certifier, "rejects", rejects)
    masters = _count_masters(monkeypatch)
    lower = {w: t for w, t in tables8.items() if w < 8}
    with caplog.at_level(logging.DEBUG, logger="zetaforge.solver"):
        solved = solve_weight(8, lower)
    assert render_table(solved) == render_table(tables8[8])
    assert solved.stats["modulus_bits"] == 521
    assert [solver_mod.canonical_row(x) in failed for failed in rejected] == [True, False]
    assert rejected[-1] == []
    assert masters == [(8, prime) for prime in solver_mod.PRIMES]
    messages = [r.getMessage() for r in caplog.records]
    failures = [m for m in messages if "bits failed" in m]
    assert len(failures) == 1 and "fail the certificate" in failures[0]


def test_a_rejected_candidate_is_released_before_the_next_modulus(monkeypatch, tables8):
    # the table that fails the certificate under PRIMES[0] is held neither
    # by the solve nor by its certifier, nor scaled there, once the pass
    # under 2^521 - 1 enters its family phase
    _corrupt_first_bracket_under_the_first_modulus(monkeypatch)
    candidates, seen = [], []
    honest_certify, honest_phase = Certifier.certify, solver_mod.family_phase

    def certify(self, solved, descs):
        candidates.append(weakref.ref(solved))
        return honest_certify(self, solved, descs)

    def family_phase(master, relations):
        if master.prime == solver_mod.PRIMES[1]:
            gc.collect()
            seen.append((candidates[0]() is None, 8 in master.lower.tables,
                         8 in master.lower._scaled))
        honest_phase(master, relations)

    monkeypatch.setattr(Certifier, "certify", certify)
    monkeypatch.setattr(solver_mod, "family_phase", family_phase)
    lower = {w: t for w, t in tables8.items() if w < 8}
    solved = solve_weight(8, lower)
    assert render_table(solved) == render_table(tables8[8])
    assert len(candidates) == 2
    assert seen == [(True, False, False)]


def test_a_modulus_fallback_warns_about_no_checkpoint_of_its_own(
        tmp_path, monkeypatch, caplog, clean_store8):
    # the pass under PRIMES[0] writes weight 8's checkpoint and then fails;
    # it clears that checkpoint, so the pass under 2^521 - 1 finds none to
    # warn about, and the store ends byte for byte as a clean solve's
    _corrupt_first_bracket_under_the_first_modulus(monkeypatch)
    store = TableStore(tmp_path)
    with caplog.at_level(logging.DEBUG, logger="zetaforge.solver"):
        tables = ensure_solved(store, 8)
    assert tables[8].stats["modulus_bits"] == 521
    messages = [r.getMessage() for r in caplog.records]
    assert len([m for m in messages if "bits failed" in m]) == 1
    assert not any("ignoring checkpoint" in m for m in messages)
    _assert_matches_clean_store(store, clean_store8)


def test_each_weight_solves_on_one_certifier(monkeypatch):
    # a cold solve to weight 10 builds one certifier per weight, which its
    # rows and its certificate share, and gives weight 10's golden table
    certifiers = []

    class Recording(Certifier):
        def __init__(self, tables):
            super().__init__(tables)
            certifiers.append(self)

    monkeypatch.setattr(solver_mod, "Certifier", Recording)
    tables = solve_in_memory(10)
    assert len(certifiers) == 8
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                        .read_text())["tables"]
    assert hashlib.sha256(render_table(tables[10]).encode("ascii")).hexdigest() == golden["10"]


# ---------------------------------------------------- traced benchmark pass

def test_traced_benchmark_pass_sees_every_row(tmp_path):
    # the benchmark's tracer patches solver names from outside the package;
    # a rename that breaks it fails here
    root = Path(__file__).resolve().parents[1]
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    command = ["solve", "--weight", "6", "--table-dir", str(tmp_path / "tables")]
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
    counts = [GOLDEN_COUNTS[w] for w in range(3, 7)]
    assert layers["solver.absorb.rows"] == sum(p + r for p, r in counts) == 25
    assert layers["solver.absorb.pivots"] == sum(p for p, _ in counts) == 18
    assert layers["solver.expand_row.calls"] > 0


def test_the_benchmark_tracer_installs():
    # the tracer wraps solver and algebra names from outside the package; a
    # change that deletes one of them fails here, not first in the benchmark
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tracer import Tracer, install\n"
            "install(Tracer())\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_weights_2_to_9_solve_to_the_golden_digests_under_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; its oldest release
    # must give the same bytes; a pyenv shim runs it only once a version is
    # selected, so the probe is retried with PYENV_VERSION set
    exe = shutil.which("python3.10")
    if not exe:
        pytest.skip("no python3.10 on PATH")
    probe = [exe, "-c", "import sys; sys.exit(sys.version_info[:2] != (3, 10))"]
    for env in (dict(os.environ), dict(os.environ, PYENV_VERSION="3.10")):
        if subprocess.run(probe, env=env, capture_output=True, timeout=60).returncode == 0:
            break
    else:
        pytest.skip("no working python3.10 on PATH")
    root = Path(__file__).resolve().parents[1]
    code = (
        "import hashlib, json\n"
        "from zetaforge.solver import render_table, solve_weight\n"
        "tables = {}\n"
        "for w in range(2, 10):\n"
        "    tables[w] = solve_weight(w, tables)\n"
        "print(json.dumps({w: hashlib.sha256(render_table(t).encode('ascii')).hexdigest()"
        " for w, t in tables.items()}))\n"
    )
    proc = subprocess.run(
        [exe, "-c", code], env=dict(env, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    golden = json.loads((root / "perfbench" / "golden.json").read_text())["tables"]
    assert json.loads(proc.stdout) == {str(w): golden[str(w)] for w in range(2, 10)}


# ------------------------------------------------------- master expression

def test_integer_rows_are_positive_multiples_of_fraction_rows(tables8):
    all_kinds = ("stuffle", "shuffle", "hoffman", "duality")
    p = solver_mod.PRIMES[0]
    for w in range(3, 9):
        lower = {k: t for k, t in tables8.items() if k < w}
        master = _master(w, tables8, p)
        for desc in relation_descriptors(w, all_kinds):
            row = master.integer_row(desc)
            names = [(x,) for x in master.columns] + master.monomials
            named = {names[k]: v for k, v in row.items()}
            # the reference: the same relation over Fraction, each word of
            # weight w as itself and the product's tabled value subtracted
            combo, product = expand_relation(desc)
            reference = {(x,): Fraction(c) for x, c in combo.items()}
            if product is not None:
                add_scaled(reference, product_value(*product, lower), -1)
            reference = {m: c for m, c in reference.items() if c}
            assert named.keys() == reference.keys(), describe(desc)
            # the row is the reference times the lcm of its denominators
            first = next(iter(reference))
            ratio = named[first] / reference[first]
            assert ratio.denominator == 1 and 0 < ratio < 2**32, describe(desc)
            assert all(named[k] == ratio * c for k, c in reference.items()), describe(desc)
        # the family brackets satisfy every stuffle relation, so each of its
        # rows vanishes against them
        stuffle = relation_descriptors(w, ("stuffle",))
        family_phase(master, stuffle)
        assert not any(master.reduce(desc) for desc in stuffle)


def _users(master):
    """The column index ``users`` rebuilt from the brackets: each word
    column to the leads of the other brackets that name it."""
    users = {}
    for lead, bracket in master.pivots.items():
        for k in bracket:
            if k != lead and k < master.n_words:
                users.setdefault(k, set()).add(lead)
    return users


def test_every_install_keeps_one_fully_reduced_echelon(monkeypatch):
    # after every install, by a stuffle row or an elimination row, each
    # bracket has 1 at its lead and no entry at another bracket's lead, and
    # the column index names exactly the brackets that name each word column
    honest = MasterExpression.reduce
    installs = []

    def checked(self, desc):
        installed = honest(self, desc)
        if installed:
            installs.append(desc[0] == "stuffle")
            for lead, bracket in self.pivots.items():
                assert bracket[lead] == 1, describe(desc)
                assert bracket.keys() & self.pivots.keys() == {lead}, describe(desc)
            assert {k: v for k, v in self.users.items() if v} == _users(self), describe(desc)
        return installed

    monkeypatch.setattr(MasterExpression, "reduce", checked)
    tables = solve_in_memory(8)
    # every weight is solved under the first modulus, so each non-Lyndon word
    # has one install and each pivot another
    family = sum(not is_lyndon(x) for w in range(3, 9) for x in admissible_words(w))
    assert installs.count(True) == family
    assert installs.count(False) == sum(tables[w].stats["pivots"] for w in range(3, 9)) == 64


def test_family_phase_expands_the_certified_stuffle_rows_once(monkeypatch):
    # the family phase expands the canonical row of each non-Lyndon word,
    # a stuffle row of the descriptor list that the certificate checks,
    # once, and none of them through absorb; of the list's other rows it
    # absorbs the regularized ones alone
    lower = _lower_tables(9)
    expanded, absorbed = [], []
    honest_row, honest_absorb = MasterExpression.integer_row, MasterExpression.absorb

    def integer_row(self, desc):
        expanded.append(desc)
        return honest_row(self, desc)

    def absorb(self, desc):
        absorbed.append(desc)
        return honest_absorb(self, desc)

    monkeypatch.setattr(MasterExpression, "integer_row", integer_row)
    monkeypatch.setattr(MasterExpression, "absorb", absorb)
    relations = relation_descriptors(10)
    family_phase(_master(10, lower, solver_mod.PRIMES[0]), relations)
    canonical = [solver_mod.canonical_row(x) for x in admissible_words(10) if not is_lyndon(x)]
    hoffman = [desc for desc in relations if desc[0] == "hoffman"]
    assert len(canonical) == len(set(canonical) & set(relations)) == 157
    assert sorted(expanded) == sorted(canonical + hoffman)
    assert sorted(absorbed) == sorted(hoffman)


def test_absorb_rejects_a_row_that_reduces_to_monomials_only():
    m = ((5,), (3,))
    master = _NamedRows(
        [(8,), (5, 3)],
        {"first": ({(5, 3): 1}, {m: 1}), "second": ({(5, 3): 2}, {m: 3})},
    )
    assert master.absorb(("first",)) is True
    with pytest.raises(InconsistentRelation, match="reduced to 0 = nonzero") as err:
        master.absorb(("second",))
    assert str(err.value).startswith("second")


def test_absorb_rejects_a_word_without_a_column():
    # a relation without a product, Z(4,4) - Z(2,1,1,2,1,1), over two columns
    master = MasterExpression([(8,), (5, 3)], Certifier({}))
    missing = r"^duality Z\(4,4\): word Z\(4,4\) has no column"
    with pytest.raises(InconsistentRelation, match=missing):
        master.absorb(("duality", (4, 4)))


def test_a_certifier_names_the_word_a_table_lacks(tables8):
    # a factor of the product pair, then a word of the relation's own weight
    for w, x in ((3, (3,)), (5, (3, 2))):
        tables = dict(tables8)
        entries = {y: e for y, e in tables8[w].entries.items() if y != x}
        tables[w] = SolvedWeight(w, tables8[w].generators, entries)
        with pytest.raises(MissingTable, match=re.escape(f"no table entry for {render_word(x)}")):
            Certifier(tables).holds(("stuffle", (3,), (2,)))


def test_a_relation_word_without_an_entry_is_inconsistent_not_missing(tables8):
    # with two columns only the shuffle row meets weight-8 words that have
    # none; that is a relation bug, not a table to solve first (MissingTable)
    lower = {w: t for w, t in tables8.items() if w < 8}
    master = MasterExpression([(8,), (5, 3)], Certifier(lower))
    missing = r"^shuffle Z\(5\)\*Z\(3\): word .* has no column"
    with pytest.raises(InconsistentRelation, match=missing):
        master.absorb(("shuffle", (5,), (3,)))


def test_the_live_term_count_follows_installs_and_restores(tables8):
    # the count kept up by each install is the live terms in Lyndon-led
    # brackets, and a master restored from a state counts what it took up,
    # so the peaks after the later installs agree
    lower = {w: t for w, t in tables8.items() if w < 8}
    columns = list(elimination_order(8))
    certifier = Certifier(lower)
    relations = relation_descriptors(8)

    def live(master):
        return sum(len(b) for lead, b in master.pivots.items() if lead >= master.n_family)

    made = MasterExpression(columns, certifier)
    family_phase(made, relations)
    taken = MasterExpression(columns, certifier)
    taken.restore(json.loads(json.dumps(made.state())))
    assert taken.terms == made.terms == live(made) > 0
    # the restored index is the one the installs kept
    assert taken.users == {k: v for k, v in made.users.items() if v} == _users(made)
    for desc in relations:
        if desc[0] not in ("stuffle", "hoffman"):
            made.absorb(desc)
            taken.absorb(desc)
            assert taken.terms == made.terms == live(made)
            assert {k: v for k, v in taken.users.items() if v} == _users(made)
    assert taken.peak_terms == made.peak_terms == tables8[8].stats["max_bracket_terms"]
    made.back_substitute()
    assert made.users == {}


def test_peak_terms_is_the_largest_live_count():
    # rows over columns a, b, c (words) and the monomial m; one bracket per row
    a, b, c = (8,), (5, 3), (6, 2)
    m = ((5,), (3,))
    one = Fraction(1)

    # {a+c+m, b+c+m, c+m}: 3 + 3 terms live before the last row, whose
    # bracket clears c and m from the other two, so 1 + 1 + 2 live after it
    shrink = _NamedRows([a, b, c], {
        "r1": ({a: one, c: one}, {m: one}),
        "r2": ({b: one, c: one}, {m: one}),
        "r3": ({c: one}, {m: one}),
    })
    for name in ("r1", "r2", "r3"):
        assert shrink.absorb((name,)) is True
    assert shrink.pivots == {0: {0: 1}, 1: {1: 1}, 2: {2: 1, 3: 1}}
    assert shrink.peak_terms == 6
    # only the last install rewrote brackets: the two that named c
    assert shrink.bracket_updates == 2

    # {a+b, b+c+m}: 2 + 3 terms; installing the second bracket turns the
    # first into a - c - m, so 6 terms live afterwards
    grow = _NamedRows(
        [a, b, c], {"r1": ({a: one, b: one}, {}), "r2": ({b: one, c: one}, {m: one})}
    )
    assert grow.absorb(("r1",)) is True
    assert grow.absorb(("r2",)) is True
    p = grow.prime
    assert grow.pivots == {0: {0: 1, 2: p - 1, 3: p - 1}, 1: {1: 1, 2: 1, 3: 1}}
    assert grow.peak_terms == 6
    assert grow.bracket_updates == 1
    # read as "word = minus the rest": a = c + m and b = -c - m
    grow.back_substitute()
    assert grow.entries == {a: {(c,): one, m: one}, b: {(c,): -one, m: -one}}

    # non-unit leads {-2a-b-c, 3b+c+2m}, given as -(2a+b+c)/2 and
    # 2(3b+c+2m)/3: each bracket is stored mod p with lead 1; the second
    # clears b from the first, a + (b+c)/2 - (b + c/3 + 2m/3)/2 = a + c/3 - m/3
    half, third = Fraction(1, 2), Fraction(1, 3)
    # the columns are every weight-8 word, the non-Lyndon ones first; each
    # non-Lyndon word gets a family bracket: empty, except that Z(2,6) =
    # 3 Z(8), which names the word a that r1 eliminates
    x = (2, 6)
    lyndon = [y for y in admissible_words(8) if is_lyndon(y) and y not in (a, b, c)]
    families = [y for y in admissible_words(8) if not is_lyndon(y)]
    leads = _NamedRows(families + [a, b, c] + lyndon, {
        "r1": ({a: -one, b: -half, c: -half}, {}),
        "r2": ({b: 2 * one, c: 2 * third}, {m: 4 * third}),
    })
    A, B, C, X = (leads.col_of[code(y)] for y in (a, b, c, x))
    leads.restore({
        "monomials": [],
        "pivots": [[k, k, 1, A, p - 3] if k == X else [k, k, 1] for k in range(leads.n_family)],
        "counters": [0, 0, 0, 0],
    })
    M = leads.n_words  # the first monomial column
    inv2, inv3 = pow(2, -1, p), pow(3, -1, p)

    def lyndon_led():
        return {k: v for k, v in leads.pivots.items() if k >= leads.n_family}

    assert leads.absorb(("r1",)) is True
    assert lyndon_led() == {A: {A: 1, B: inv2, C: inv2}}
    # installing a rewrites the bracket of x that names it:
    # x - 3a + 3(a + b/2 + c/2) = x + 3b/2 + 3c/2
    assert leads.pivots[X] == {X: 1, B: 3 * inv2 % p, C: 3 * inv2 % p}
    assert leads.bracket_updates == 1
    assert leads.absorb(("r2",)) is True
    assert lyndon_led() == {A: {A: 1, C: inv3, M: p - inv3}, B: {B: 1, C: inv3, M: 2 * inv3 % p}}
    assert leads.peak_terms == 6
    # installing b rewrites a's bracket and x's:
    # x + 3c/2 - 3(c/3 + 2m/3)/2 = x + c - m
    assert leads.pivots[X] == {X: 1, C: 1, M: p - 1}
    assert leads.bracket_updates == 3
    # the brackets stay mod p; back-substitution rebuilds each table
    # coefficient once, and the survivor c has no entry of its own there
    leads.back_substitute()
    assert leads.entries[a] == {(c,): Fraction(-1, 3), m: Fraction(1, 3)}
    assert leads.entries[b] == {(c,): Fraction(-1, 3), m: Fraction(-2, 3)}
    assert leads.entries[x] == {(c,): -one, m: one}
    assert c not in leads.entries
    assert leads.max_coeff_bits == 2
