"""Command-line interface: golden output, exit codes, file side effects.

Everything runs in-process through ``main(argv)`` so exit codes and stdout
are asserted directly.
"""

import hashlib
import json

import pytest

import zetaforge.solver as solver_mod
from zetaforge.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTEGRITY,
    EXIT_INTERNAL,
    EXIT_MISSING_TABLES,
    EXIT_OK,
    EXIT_UNWRITABLE,
    EXIT_USAGE,
    main,
)
from zetaforge._meta import BUILD_ID
from zetaforge.algebra import DEFAULT_KINDS
from zetaforge.solver import Checkpointer, TableStore


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    """A table directory solved up to weight 6 once for the whole module."""
    path = tmp_path_factory.mktemp("tables")
    assert main(["solve", "--weight", "6", "--table-dir", str(path)]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def solved_dir8(tmp_path_factory):
    """A table directory solved up to weight 8."""
    path = tmp_path_factory.mktemp("tables8")
    assert main(["solve", "--weight", "8", "--table-dir", str(path)]) == EXIT_OK
    return path


# ------------------------------------------------------------ happy paths

def test_public_exports_resolve():
    import zetaforge

    missing = [name for name in zetaforge.__all__ if not hasattr(zetaforge, name)]
    assert missing == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == BUILD_ID


def test_lyndon_listing_golden(capsys):
    assert main(["lyndon", "--weight", "12"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "# weight 12: 2 odd Lyndon word(s)",
        "Z(9,3)",
        "Z(7,5)",
    ]


def test_lyndon_extended_golden(capsys):
    assert main(["lyndon", "--weight", "12", "--extended"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "# weight 12: 4 candidate(s) (2 plain, 2 extended)",
        "Z(9,3)",
        "Z(7,5)",
        "Z(8,2,1,1)  # 1-fold extension of Z(9,3)",
        "Z(6,4,1,1)  # 1-fold extension of Z(7,5)",
    ]


def test_gen_golden(capsys):
    assert main(["gen", "--weight", "4"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "0 = -4*Z(3,1) + 1*Z(4) # kind: pair Z(2)*Z(2)",
        "0 = 1*Z(2,2) + -1*Z(2,1,1) + 1*Z(3,1) # kind: hoffman Z(2,1)",
        "0 = -1*Z(2,2) + -1*Z(3,1) + 1*Z(4) # kind: hoffman Z(3)",
    ]


def test_gen_respects_relations_and_depth_cap(capsys):
    assert main(["gen", "--weight", "6", "--relations", "stuffle", "--depth-cap", "2"]) == EXIT_OK
    for line in capsys.readouterr().out.splitlines():
        assert "kind: stuffle-product" in line


def test_solve_reports_and_persists(solved_dir, capsys):
    # a second run is a pure load: no solver lines, manifest untouched
    before = (solved_dir / "manifest.json").read_bytes()
    assert main(["solve", "--weight", "6", "--table-dir", str(solved_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "generator(s)" not in out
    assert (solved_dir / "manifest.json").read_bytes() == before
    assert sorted(p.name for p in solved_dir.glob("weight-*.table")) == [
        f"weight-{w:02d}.table" for w in range(2, 7)
    ]


def test_basis_command(solved_dir, capsys):
    assert main(["basis", "--weight", "5", "--table-dir", str(solved_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "weight 5: 1 generator(s), depth sum 1, monomial dimension 2" in out
    assert "Z(5)" in out and "plain Lyndon word" in out


def test_dims_command(solved_dir, capsys):
    assert main(["dims", "--max-weight", "6", "--table-dir", str(solved_dir)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["weight", "monomials", "generators", "lyndon", "agree", "recursion"]
    assert len(out) == 6  # header + weights 2..6


def test_verify_command_writes_machine_report(solved_dir, capsys):
    assert (
        main(
            [
                "verify",
                "--weight", "6",
                "--table-dir", str(solved_dir),
                "--published-basis",
                "--dims", "--max-weight", "6",
            ]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "published listing check: PASS" in out
    assert "relation recheck at weight 6: PASS" in out
    assert "depth-sum minimality at weight 6: confirmed" in out
    report = (solved_dir / "verify-report.txt").read_text().splitlines()
    assert f"report.build = {BUILD_ID}" in report
    assert "published.27.count = 73" in report
    assert "dims.6.generators_agree = yes" in report
    assert "verify.passed = yes" in report
    for line in report:
        assert " = " in line


def test_verify_minimality_probe_without_stuffle(solved_dir8, tmp_path, capsys):
    # the recheck covers only shuffle and hoffman; the minimality probe's
    # re-eliminations still need stuffle for the family phase
    report = tmp_path / "report.txt"
    argv = ["verify", "--weight", "8", "--relations", "shuffle,hoffman",
            "--table-dir", str(solved_dir8), "--report", str(report)]
    assert main(argv) == EXIT_OK
    lines = report.read_text().splitlines()
    assert "recheck.8.population.shuffle = 42" in lines
    assert "minimal_depth.8.confirmed = yes" in lines
    assert "verify.passed = yes" in lines
    capsys.readouterr()


def test_verify_loads_each_table_once(solved_dir8, tmp_path, capsys, monkeypatch):
    loads = []
    load = TableStore.load

    def counting(self, w):
        loads.append(w)
        return load(self, w)

    monkeypatch.setattr(TableStore, "load", counting)
    report = str(tmp_path / "report.txt")
    base = ["verify", "--weight", "8", "--dims", "--table-dir", str(solved_dir8), "--report", report]
    assert main(base) == EXIT_OK
    assert sorted(loads) == list(range(2, 9))
    # a --dims range past the stored weights still reports the missing table
    assert main(base + ["--max-weight", "9"]) == EXIT_MISSING_TABLES
    capsys.readouterr()


def test_verify_published_basis_alias(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--paper-basis"]) == EXIT_OK
    assert (tmp_path / "verify-report.txt").exists()


# -------------------------------------------------------------- error paths

def test_missing_table_exit(solved_dir, capsys):
    assert main(["basis", "--weight", "11", "--table-dir", str(solved_dir)]) == EXIT_MISSING_TABLES
    assert "zeta-forge: error" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main(["solve", "--weight", "4", "--table-dir", str(tmp_path), "--relations", "x"]) == EXIT_USAGE
    assert main(["solve", "--weight", "4", "--table-dir", str(tmp_path), "--depth-cap", "3"]) == EXIT_USAGE
    assert main(["solve", "--weight", "1", "--table-dir", str(tmp_path)]) == EXIT_USAGE
    jobs0 = tmp_path / "jobs0"
    assert main(["solve", "--weight", "4", "--jobs", "0", "--table-dir", str(jobs0)]) == EXIT_USAGE
    assert "jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not jobs0.exists()
    assert main(["verify"]) == EXIT_USAGE
    assert main(["verify", "--weight", "6"]) == EXIT_USAGE  # no --table-dir
    assert main(["gen", "--weight", "4", "--depth-cap", "0"]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--weight", "4", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("weight", ["2", "3"])
def test_solve_without_stuffle_exits_usage_and_writes_nothing(tmp_path, capsys, weight):
    # the kinds are checked before weight 2's seed is returned or saved
    argv = ["solve", "--weight", weight, "--relations", "shuffle", "--table-dir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "stuffle" in capsys.readouterr().err
    assert list(tmp_path.glob("*.table")) == []
    assert not (tmp_path / "manifest.json").exists()


def test_solve_without_stuffle_creates_no_table_dir(tmp_path, monkeypatch, capsys):
    # the kinds are refused before the table directory and its parents exist
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--weight", "3", "--relations", "shuffle", "--table-dir", "kd/t"]
    assert main(argv) == EXIT_USAGE
    assert "stuffle" in capsys.readouterr().err
    assert not (tmp_path / "kd").exists()


def test_tampered_manifest_exit(tmp_path, capsys):
    assert main(["solve", "--weight", "4", "--table-dir", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["weights"]["4"]["sha256"] = "0" * 64
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["basis", "--weight", "4", "--table-dir", str(tmp_path)]) == EXIT_INTEGRITY
    capsys.readouterr()


def _rehash(table_dir, w):
    manifest = json.loads((table_dir / "manifest.json").read_text())
    data = (table_dir / f"weight-{w:02d}.table").read_bytes()
    manifest["weights"][str(w)]["sha256"] = hashlib.sha256(data).hexdigest()
    (table_dir / "manifest.json").write_text(json.dumps(manifest))


def _assert_every_reader_exits_integrity(table_dir, capsys):
    for command in ("basis", "verify", "solve"):
        assert main([command, "--weight", "5", "--table-dir", str(table_dir)]) == EXIT_INTEGRITY
        assert "weight-05.table" in capsys.readouterr().err, command


@pytest.mark.parametrize("rehash", [False, True])
def test_non_ascii_table_byte_exits_integrity(tmp_path, capsys, rehash):
    assert main(["solve", "--weight", "5", "--table-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "weight-05.table"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xE9
    path.write_bytes(bytes(data))
    if rehash:  # the bytes then pass the hash check and fail to decode
        _rehash(tmp_path, 5)
    _assert_every_reader_exits_integrity(tmp_path, capsys)


def test_hash_valid_table_without_its_phase_line_exits_integrity(tmp_path, capsys):
    assert main(["solve", "--weight", "5", "--table-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "weight-05.table"
    text = path.read_text()
    assert "# phase: fully-reduced\n" in text
    path.write_text(text.replace("# phase: fully-reduced\n", ""))
    _rehash(tmp_path, 5)
    _assert_every_reader_exits_integrity(tmp_path, capsys)


def test_unwritable_table_dir_exit(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    assert main(["solve", "--weight", "3", "--table-dir", str(blocker)]) == EXIT_UNWRITABLE
    capsys.readouterr()


def test_verify_detects_doctored_table(tmp_path, capsys):
    """A stored coefficient is altered (with the manifest hash made
    consistent, as an attacker would): verify must still fail on the math."""
    assert main(["solve", "--weight", "5", "--table-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "weight-05.table"
    text = path.read_text()
    good_line = "Z(4,1) = -1*Z(3)*Z(2) + 2*Z(5)"
    assert good_line in text
    doctored = text.replace(good_line, "Z(4,1) = 3*Z(3)*Z(2) + 2*Z(5)")
    assert doctored != text
    path.write_text(doctored)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["weights"]["5"]["sha256"] = hashlib.sha256(doctored.encode()).hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))

    code = main(["verify", "--weight", "5", "--table-dir", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out
    report = (tmp_path / "verify-report.txt").read_text()
    assert "verify.passed = NO" in report


@pytest.mark.parametrize(
    "old, new",
    [
        ("# generators: Z(5)\n", "# generators:\n"),
        ("Z(4,1) = -1*Z(3)*Z(2) + 2*Z(5)", "Z(4,1) = -1*Z(3)*Z(3) + 2*Z(5)"),
        # of weight 5, but Z(2,1) is not weight 3's generator Z(3)
        ("Z(4,1) = -1*Z(3)*Z(2) + 2*Z(5)", "Z(4,1) = -1*Z(2,1)*Z(2) + 2*Z(5)"),
        # the count and the words stay distinct, but the set is not weight 5's
        ("Z(4,1) =", "Z(4,2) ="),
        ("Z(4,1) =", "Z(1,4) ="),
    ],
    ids=[
        "generators-differ-from-self-entries",
        "monomial-of-another-weight",
        "monomial-factor-not-a-generator",
        "word-of-another-weight",
        "word-not-admissible",
    ],
)
def test_hash_valid_table_with_inconsistent_content_exits_integrity(tmp_path, capsys, old, new):
    assert main(["solve", "--weight", "5", "--table-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "weight-05.table"
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    _rehash(tmp_path, 5)
    _assert_every_reader_exits_integrity(tmp_path, capsys)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "+2", " 2", "2_0"])
def test_hash_valid_table_with_a_malformed_coefficient_exits_integrity(tmp_path, capsys, bad):
    assert main(["solve", "--weight", "5", "--table-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "weight-05.table"
    text = path.read_text()
    good_line = "Z(4,1) = -1*Z(3)*Z(2) + 2*Z(5)"
    assert good_line in text
    path.write_text(text.replace(good_line, f"Z(4,1) = -1*Z(3)*Z(2) + {bad}*Z(5)"))
    _rehash(tmp_path, 5)
    _assert_every_reader_exits_integrity(tmp_path, capsys)


def _drop_sha256(manifest):
    del manifest["weights"]["4"]["sha256"]


def _weights_not_a_map(manifest):
    manifest["weights"] = "oops"


def _weight_key_not_a_number(manifest):
    manifest["weights"]["x"] = manifest["weights"]["4"]


@pytest.mark.parametrize("spoil", [_drop_sha256, _weights_not_a_map, _weight_key_not_a_number])
def test_malformed_manifest_exits_integrity(tmp_path, capsys, spoil):
    assert main(["solve", "--weight", "4", "--table-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    spoil(manifest)
    path.write_text(json.dumps(manifest))
    for command in ("basis", "solve"):
        assert main([command, "--weight", "4", "--table-dir", str(tmp_path)]) == EXIT_INTEGRITY
        assert "manifest.json" in capsys.readouterr().err, command


def _list_instead_of_wrapper(path):
    path.write_text(json.dumps([1, 2]))


def _payload_without_depth(path):
    # hash-valid, with the default kinds' fingerprint, but with neither a
    # modulus nor the family depth of the older per-depth format
    Checkpointer(path, DEFAULT_KINDS).save(
        {"weight": 5, "phase": "families", "entries": {}}
    )


@pytest.mark.parametrize("spoil", [_list_instead_of_wrapper, _payload_without_depth])
def test_malformed_checkpoint_exits_integrity(tmp_path, capsys, spoil):
    assert main(["solve", "--weight", "4", "--table-dir", str(tmp_path)]) == EXIT_OK
    spoil(tmp_path / "weight-05.checkpoint.json")
    assert main(["solve", "--weight", "5", "--table-dir", str(tmp_path)]) == EXIT_INTEGRITY
    assert "weight-05.checkpoint.json" in capsys.readouterr().err
    assert not (tmp_path / "weight-05.table").exists()


def test_solve_refuses_a_table_that_no_modulus_certifies(tmp_path, capsys, monkeypatch):
    # weight 4 needs 2/5, which has no preimage within sqrt(7/2) mod 7
    monkeypatch.setattr(solver_mod, "PRIMES", (7,))
    assert main(["solve", "--weight", "4", "--table-dir", str(tmp_path)]) == EXIT_INTERNAL
    assert "no rational preimage" in capsys.readouterr().err
    assert not (tmp_path / "weight-04.table").exists()
    assert "4" not in json.loads((tmp_path / "manifest.json").read_text())["weights"]
