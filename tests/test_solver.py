"""Solver pipeline: exact small tables, determinism, persistence, resume.

The weight-3/4 expectations are hand Gaussian eliminations over at most four
unknowns, written out in the comments where they are asserted.
"""

import json
import logging
import re
from fractions import Fraction
from pathlib import Path

import pytest

import zetaforge.solver as solver_mod
from zetaforge.solver import (
    Checkpointer,
    InconsistentRelation,
    MasterExpression,
    MissingTable,
    RunConfig,
    StoreIntegrityError,
    TableStore,
    ensure_solved,
    parse_table,
    render_table,
    seed_weight_2,
    solve_in_memory,
    solve_weight,
    substitute_tables,
)
from zetaforge.words import admissible_words, weight


# ------------------------------------------------------------- exact tables

def test_seed_weight_2():
    seed = seed_weight_2()
    assert seed.weight == 2
    assert seed.generators == [(2,)]
    assert seed.entries == {(2,): {((2,),): Fraction(1)}}
    assert seed.phase == "fully-reduced"


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

def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(jobs=0)
    with pytest.raises(ValueError):
        RunConfig(checkpoint_every=0)
    with pytest.raises(ValueError):
        RunConfig(kinds=("bogus",))


def test_fingerprint_ignores_jobs_but_not_kinds():
    base = RunConfig(jobs=1).fingerprint()
    assert RunConfig(jobs=8).fingerprint() == base
    assert RunConfig(kinds=("stuffle", "shuffle")).fingerprint() != base


def test_solve_weight_requires_lower_tables_and_stuffle():
    with pytest.raises(MissingTable):
        solve_weight(5, {2: seed_weight_2()})
    with pytest.raises(ValueError):
        solve_weight(3, {2: seed_weight_2()}, RunConfig(kinds=("shuffle", "hoffman")))
    with pytest.raises(ValueError):
        solve_weight(1, {})


def test_substitute_tables_names_missing_weight(tables8):
    with pytest.raises(MissingTable):
        substitute_tables({(2, 1): Fraction(1)}, {})
    # complete tables substitute fully into monomials
    combo = substitute_tables({(2, 2): Fraction(2)}, tables8)
    assert combo == {((2,), (2,)): Fraction(3, 5)}


# -------------------------------------------------------------- determinism

def test_parallel_solve_is_byte_identical():
    seq = solve_in_memory(7, RunConfig(jobs=1))
    par = solve_in_memory(7, RunConfig(jobs=2))
    for w in range(2, 8):
        assert render_table(seq[w]) == render_table(par[w])


# -------------------------------------------------------------- text format

def test_render_parse_round_trip(tables8):
    for w in (6, 8):
        text = render_table(tables8[w])
        back = parse_table(text)
        assert back.weight == w
        assert back.phase == "fully-reduced"
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


def test_parse_table_rejects_corruption(tables8):
    text = render_table(tables8[6])
    with pytest.raises(ValueError):
        parse_table(text.replace("fully-reduced", "half-reduced"))
    entry_line = next(l for l in text.splitlines() if l.startswith("Z("))
    with pytest.raises(ValueError):
        parse_table(text + entry_line + "\n")  # duplicate entry
    with pytest.raises(ValueError):
        parse_table(text.replace(entry_line + "\n", ""))  # missing entry


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

class _InterruptAfter(Checkpointer):
    """Raise a deliberate failure after the n-th checkpoint save."""

    def __init__(self, path, fingerprint, every, blow_after):
        super().__init__(path, fingerprint, every)
        self.saves = 0
        self.blow_after = blow_after

    def save(self, payload):
        super().save(payload)
        self.saves += 1
        if self.saves >= self.blow_after:
            raise KeyboardInterrupt("simulated crash after checkpoint write")


def _lower_tables(up_to):
    return solve_in_memory(up_to, RunConfig(jobs=1))


@pytest.mark.parametrize("blow_after", [1, 4])
def test_checkpoint_resume_matches_fresh_solve(tmp_path, blow_after):
    # blow_after=1 dies during the family phase, 4 during elimination
    config = RunConfig(jobs=1, checkpoint_every=1)
    lower = _lower_tables(6)
    fresh = solve_weight(7, lower, config)

    path = tmp_path / "weight-07.checkpoint.json"
    crasher = _InterruptAfter(path, config.fingerprint(), 1, blow_after)
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, config, checkpointer=crasher)
    assert path.exists()

    resumed = solve_weight(
        7, lower, config, checkpointer=Checkpointer(path, config.fingerprint(), 1)
    )
    assert render_table(resumed) == render_table(fresh)
    assert not path.exists()  # cleared on success


def test_resume_certifies_rows_consumed_before_the_checkpoint(tmp_path, monkeypatch):
    # the crashed run wrongly skips the first elimination row, which no
    # other weight-7 row can replace; the checkpoint does not record the
    # skip, so only certifying the resumed prefix restores its pivot
    config = RunConfig(jobs=1, checkpoint_every=1)
    lower = _lower_tables(6)
    fresh = solve_weight(7, lower, config)

    honest = MasterExpression._vanishes_mod_p
    seen = []

    def skip_first_row(self, row):
        seen.append(row)
        return len(seen) == 1 or honest(self, row)

    monkeypatch.setattr(MasterExpression, "_vanishes_mod_p", skip_first_row)
    path = tmp_path / "weight-07.checkpoint.json"
    # six family-depth saves, then two pivot saves
    crasher = _InterruptAfter(path, config.fingerprint(), 1, 8)
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, config, checkpointer=crasher)
    payload = json.loads(path.read_text())["payload"]
    assert payload["phase"] == "elimination"
    assert payload["master"]["consumed"] == 3

    monkeypatch.setattr(MasterExpression, "_vanishes_mod_p", honest)
    resumed = solve_weight(
        7, lower, config, checkpointer=Checkpointer(path, config.fingerprint(), 1)
    )
    assert render_table(resumed) == render_table(fresh)
    assert resumed.stats["fallback_rows"] == 1
    assert resumed.stats["certified_rows"] == 3 + fresh.stats["certified_rows"]
    for key in ("pivots", "redundant_rows"):
        assert resumed.stats[key] == fresh.stats[key]


def test_checkpoint_tamper_refuses_resume(tmp_path):
    config = RunConfig(jobs=1, checkpoint_every=1)
    lower = _lower_tables(6)
    path = tmp_path / "weight-07.checkpoint.json"
    crasher = _InterruptAfter(path, config.fingerprint(), 1, 3)
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, config, checkpointer=crasher)

    import json

    wrapper = json.loads(path.read_text())
    wrapper["payload"]["phase"] = "families" if wrapper["payload"]["phase"] != "families" else "elimination"
    path.write_text(json.dumps(wrapper))
    with pytest.raises(StoreIntegrityError):
        solve_weight(
            7, lower, config, checkpointer=Checkpointer(path, config.fingerprint(), 1)
        )


def test_checkpoint_from_other_config_is_ignored(tmp_path):
    config = RunConfig(jobs=1, checkpoint_every=1)
    other = RunConfig(jobs=1, kinds=("stuffle", "shuffle"), checkpoint_every=1)
    lower = _lower_tables(6)
    path = tmp_path / "weight-07.checkpoint.json"
    crasher = _InterruptAfter(path, other.fingerprint(), 1, 2)
    with pytest.raises(KeyboardInterrupt):
        solve_weight(7, lower, other, checkpointer=crasher)

    # resuming under the default kinds ignores the foreign checkpoint and
    # still produces the canonical table
    resumed = solve_weight(
        7, lower, config, checkpointer=Checkpointer(path, config.fingerprint(), 1)
    )
    assert render_table(resumed) == render_table(solve_weight(7, lower, config))


def test_solved_stats_recorded(tables8):
    stats = tables8[8].stats
    for key in ("families_seconds", "elimination_seconds", "certify_seconds", "rows", "pivots"):
        assert key in stats
    assert stats["pivots"] > 0
    # every redundant row was skipped mod p and then certified exactly
    assert stats["certified_rows"] == stats["redundant_rows"] == 45
    assert stats["fallback_rows"] == 0


def test_certificate_counters_logged_at_debug_only(caplog, capsys):
    lower = _lower_tables(5)
    with caplog.at_level(logging.DEBUG, logger="zetaforge.solver"):
        solve_weight(6, lower)
    lines = [r.getMessage() for r in caplog.records if "certified" in r.getMessage()]
    assert len(lines) == 1
    assert re.fullmatch(
        r"weight 6: certified 6 skipped row\(s\) in \d+\.\d{3} s, 0 fallback row\(s\)",
        lines[0],
    )
    assert capsys.readouterr().out == ""


# --------------------------------------------- mod-p filter and certificate

# pivots and redundant rows per weight, as recorded from the exact solver
GOLDEN_COUNTS = {3: (1, 0), 4: (3, 0), 5: (5, 1), 6: (9, 6), 7: (17, 15), 8: (29, 45)}


def test_certificate_rejects_a_wrong_skip_under_an_unlucky_prime(monkeypatch):
    monkeypatch.setattr(solver_mod, "PRIME", 3)
    a, b = (8,), (5, 3)
    master = MasterExpression([a, b])
    assert master.absorb(({a: Fraction(1), b: Fraction(1)}, {}), "first") is True
    # 4 = 1 mod 3, so the second row vanishes against the first mod 3
    assert master.absorb(({a: Fraction(1), b: Fraction(4)}, {}), "second") is False
    assert len(master.skipped) == 1 and master.redundant == 1
    master.back_substitute()
    # the first row alone gives Z(8) = -Z(5,3)
    failed = master.certify({a: {(b,): Fraction(-1)}, b: {(b,): Fraction(1)}})
    assert [origin for _, _, origin in failed] == ["second"]
    master.admit(failed)
    master.back_substitute()
    assert sorted(master.pivots) == [0, 1]
    assert master.redundant == 0
    assert master.certify({a: {}, b: {}}) == []


def test_fallback_rebuilds_every_table_when_every_row_is_skipped(monkeypatch, tables8):
    monkeypatch.setattr(MasterExpression, "_vanishes_mod_p", lambda self, row: True)
    tables = solve_in_memory(8, RunConfig(jobs=1))
    for w in range(2, 9):
        assert render_table(tables[w]) == render_table(tables8[w])
    for w, counts in GOLDEN_COUNTS.items():
        stats = tables[w].stats
        assert (stats["pivots"], stats["redundant_rows"]) == counts
        assert stats["fallback_rows"] > 0


# ------------------------------------------------------- master expression

def test_absorb_rejects_a_row_that_reduces_to_monomials_only():
    m = ((5,), (3,))
    master = MasterExpression([(8,), (5, 3)])
    assert master.absorb(({(5, 3): Fraction(1)}, {m: Fraction(1)}), "first") is True
    with pytest.raises(InconsistentRelation, match="second: reduced to 0 = nonzero"):
        master.absorb(({(5, 3): Fraction(2)}, {m: Fraction(3)}), "second")


def test_absorb_rejects_a_word_without_a_column():
    master = MasterExpression([(8,), (5, 3)])
    with pytest.raises(InconsistentRelation, match=r"Z\(4,4\) missing a family entry"):
        master.absorb(({(4, 4): Fraction(1)}, {}), "row")


def test_checkpoint_state_encoding_frozen():
    # word columns encode as c<column>, monomial columns as m<monomial id>
    master = MasterExpression([(8,), (5, 3)])
    split = ({(8,): Fraction(2), (5, 3): Fraction(-1)}, {((5,), (3,)): Fraction(1, 3)})
    assert master.absorb(split, "row") is True
    state = {
        "monomials": ["5|3"],
        "pivots": {"0": {"c0": "1", "c1": "-1/2", "m0": "1/6"}},
        "redundant": 0,
        "consumed": 1,
        "total_terms": 3,
        "max_terms": 3,
    }
    assert master.state() == state
    restored = MasterExpression([(8,), (5, 3)])
    restored.restore(json.loads(json.dumps(state)))
    assert restored.state() == state
    assert restored.pivots == master.pivots


def test_restore_rebuilds_the_shadow():
    m = ((5,), (3,))
    master = MasterExpression([(8,), (5, 3)])
    split = ({(8,): Fraction(2), (5, 3): Fraction(-1)}, {m: Fraction(1, 3)})
    assert master.absorb(split, "row") is True
    restored = MasterExpression([(8,), (5, 3)])
    restored.restore(json.loads(json.dumps(master.state())))
    assert restored.shadow == master.shadow != {}
    # a multiple of the restored bracket is set aside without exact work
    double = ({(8,): Fraction(4), (5, 3): Fraction(-2)}, {m: Fraction(2, 3)})
    assert restored.absorb(double, "again") is False
    assert [origin for _, _, origin in restored.skipped] == ["again"]
