"""Command-line interface: golden output, exit codes, file side effects.

Everything runs in-process through ``main(argv)`` so exit codes and stdout
are asserted directly.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
from zetaforge.solver import Checkpointer, StoreIntegrityError, TableStore


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
    # a name taken from a submodule that lists its public names is among them
    for name in zetaforge.__all__:
        module = sys.modules.get(getattr(getattr(zetaforge, name), "__module__", None))
        assert name in getattr(module, "__all__", [name]), name


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # importing dataclasses pulls in inspect, about 13 ms of every command
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, zetaforge.cli; "
             "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_logging_is_imported_only_to_warn_of_an_ignored_checkpoint(tmp_path):
    # a cold import leaves logging out; a checkpoint of another
    # configuration is still reported on stderr, without --verbose
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import sys, zetaforge.cli; print('logging' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    store = TableStore(tmp_path / "store")
    assert main(["solve", "--weight", "4", "--table-dir", str(store.root)]) == 0
    text, digest = solver_mod._canonical_json({"phase": "another"})
    store.checkpoint_path(5).write_text(f'{{"payload":{text},"sha256":"{digest}"}}')
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "zetaforge.cli", "solve", "--weight", "5",
         "--table-dir", str(store.root)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    warning = f"ignoring checkpoint {store.checkpoint_path(5)} from a different configuration"
    assert warning in proc.stderr.splitlines()


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


# sha256 of `gen --weight W` output for W = 3..9, by kind set and depth cap:
# the dump is a file format, so any change to its bytes must be deliberate
GEN_DIGESTS = {
    ("stuffle,shuffle,hoffman", None): [
        "123e1634e10825d3f8a7d4aa86fc8bf902f7902ad39d78bf39a671b278168fe5",
        "48f9e697163c162cbecf944f68bc05a5b80a0d2f4ae49d32f1d1ffc73df500af",
        "c325bca6dac42d9428a27965b8fc5587191665f8f8068f32d08ab556497c97f5",
        "70c56c84e7899184de3757e4afbb850a06f6fd492fcfe8ff3c1fc76a26ed0846",
        "65e3902cc7fb253974836179f90bfa9661fc0bc73c21c4fa8bdbdda783fcd412",
        "caa3a83e36da971f98b64c5230acee23c7e4414198e3f8890e5fc696eb1f0b59",
        "ab6683d806bd2bf09d4c2260d9e4a289a0d4df182050459d9eb3ff79660afd98",
    ],
    ("stuffle,shuffle,hoffman", 3): [
        "123e1634e10825d3f8a7d4aa86fc8bf902f7902ad39d78bf39a671b278168fe5",
        "48f9e697163c162cbecf944f68bc05a5b80a0d2f4ae49d32f1d1ffc73df500af",
        "29475c8d2f8bb592f850fc2c17f3d546321ff9a6335f076dbecd0aafe3f8f6c2",
        "e24895ed59880c7040a551bc0c506df8ee822315a15a166b21924df38b4afc5b",
        "b34a4e665be51afe562b27b5f6913b2fba8bfe1722d7384cae2ce776bb419ab0",
        "b0e439f88c03538d77b0c10627bb32313ccfe8b0fa8dddf7046fd16c748e64a5",
        "c9b95f9864b74c2f7b5edd31ea26fbd1a26337b498574bd25a598c3bf326900d",
    ],
    ("stuffle", None): [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b77d16514f44d030c44c6befcc18d3d425be042f61644ca5547f1cdf176db0ba",
        "cb6d6cface4c99b83425e78ec210fb7a24da0450c9ef3cf6c688cc42101eb499",
        "05dbc6a0b5380933e0ba6ab26acf9f3283e5c4bedfcf4b894dcc7527eb3859cc",
        "3e0a5185a6bc360fed782f7762d5056b0e807ca314a704f765651d9539e38d42",
        "ea6802fe390d3b6e60a3b15d919ab8d41a0f8b931f718b6ba2ae33d6ea14133a",
        "e553268dbe45ff74526cb44cec41af9ad26fc2c8bd1d223e30c19e65a84a8481",
    ],
    ("stuffle", 3): [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b77d16514f44d030c44c6befcc18d3d425be042f61644ca5547f1cdf176db0ba",
        "cb6d6cface4c99b83425e78ec210fb7a24da0450c9ef3cf6c688cc42101eb499",
        "bbc9e561472f3a5b5b9d3142d9788e69438479438068220c0ab5d13042b70716",
        "f078c28756da3d36ec3b35f029d6963ca800126daa64493319f22b0dcf028eca",
        "1e7371ad4f670b14550935296ed6d3af363f56be09663c349991456c9eb4ae5a",
        "708521934735f3668139c13d9a3f01f6d0c6fd57e6668b16add7c3d3034368f2",
    ],
    ("stuffle,shuffle,hoffman,duality", None): [
        "5fb7b7737d886515e1c337d6e3dcb94ec5c1bd016ca9614c64e729373107dcd2",
        "6f959a6cc58441bcbab377fd0129bd13f8da5e1da333ac299d077a1887fb260a",
        "f62348fa1ea3ba26f6cef075566b732c7cef06da892f1e5da46287494da63d9f",
        "806c34133965a799c77bb021352707902e0639962d016a9d70eb850e24f7d4c2",
        "4459906c6762c60b8e7b15b1eff946b6bbef2b2e19f76b00c29c09d8b1151f86",
        "30018d2ad2c31f6be33e3dbe5d726d4f01e0c25f8c680065822f105529d9e4ad",
        "89475526d8faeff349e5184f9a68d59bdc542f525bf8df5f2acb8e3917a1e33a",
    ],
    ("stuffle,shuffle,hoffman,duality", 3): [
        "5fb7b7737d886515e1c337d6e3dcb94ec5c1bd016ca9614c64e729373107dcd2",
        "6f959a6cc58441bcbab377fd0129bd13f8da5e1da333ac299d077a1887fb260a",
        "44703d1e2ee5b4e43ff25ff16a540a2354b0b72a4a3dc616c64d0fda36b1ef70",
        "0196e56242c051783215eba701161974a7c0504589161e00e65cec8449a6456f",
        "b34a4e665be51afe562b27b5f6913b2fba8bfe1722d7384cae2ce776bb419ab0",
        "b0e439f88c03538d77b0c10627bb32313ccfe8b0fa8dddf7046fd16c748e64a5",
        "c9b95f9864b74c2f7b5edd31ea26fbd1a26337b498574bd25a598c3bf326900d",
    ],
    ("shuffle,duality", None): [
        "2917370780b97805a667d4ff5150a52f6e5a31e95b6a9e38061caa8f578909ca",
        "15861bb55811c07a6b69dca73f22dba39bb42accd6a4f2cf8da8b2116e98ad1d",
        "c6e9ef2b7339bd8f1ce71391843455ce55b9eea78d147c94150075ffa83f23a1",
        "3d09b95354985456168593fb32fd3d48a04845a8165703afe5d45be22bb6131b",
        "0393e337baa97710f94be7d4606a9c8ef328a87ed751fb00113213347dddc54c",
        "76b6669defda77a3fc01a1ee87d5d20c02eb9990ae80bca3313d57387190749e",
        "553a151f0508f97bdcd04277d0c280fd9bcc71c71447000fcefeeea645024809",
    ],
    ("shuffle,duality", 3): [
        "2917370780b97805a667d4ff5150a52f6e5a31e95b6a9e38061caa8f578909ca",
        "15861bb55811c07a6b69dca73f22dba39bb42accd6a4f2cf8da8b2116e98ad1d",
        "dd80e51f5335ef577ad0933dc6f2bbb87c191562aa8728209833e5c384a149a0",
        "4abdebbf006249136b692c5ed005d36dd52fb443e784d38d5e37a67bcf851d13",
        "9aa62da631700041d49af62e78448c0aca5a4d2ac81d2b6a6547872c4cbce854",
        "aecee7cfd7be0f27b265ff3b93b23b340ff82d8d8b0cc124ad0528f1f5a5d2af",
        "fdf2389878d14beebe632672e91cfca1fc5441c55cccdcb594324e31a8563f62",
    ],
    ("hoffman", None): [
        "123e1634e10825d3f8a7d4aa86fc8bf902f7902ad39d78bf39a671b278168fe5",
        "a830ae2f708f5161bd878484e7d492130039035e44fcd56467532e45ccfc2e50",
        "ae73c4c44c754e5c3d88969830849372628a92a7db70eca89fc9c02a20ceb91f",
        "8d73b07260c609ea63f7a89e28fcbb2ac8dbe59df2973954f4744a36be5dcfa0",
        "d65146b31ad548d30a3346c9eff7bc0e959fb4d9304498132aa98ea873a33065",
        "d862a06a45f9a4e9b6b448020afab095b7c4c2abf1f2ac9565fa6924e9213dfd",
        "66f8f512e2cd6fb16069876e51641fee84b79846e430f5ce4fe7eac21e898c7c",
    ],
    ("hoffman", 3): [
        "123e1634e10825d3f8a7d4aa86fc8bf902f7902ad39d78bf39a671b278168fe5",
        "a830ae2f708f5161bd878484e7d492130039035e44fcd56467532e45ccfc2e50",
        "c25de7276bb76df1b3f5e019e6f1fe36cd9cd18927287ce9587e1af4fa2d12c0",
        "a916d2ae26854a91d6a4469784c52e5f882d834bfa5b011a25f00ba751a49853",
        "5db5db3df8100dada41b39d93164fb51edb8d52f79e95cf4d7333385c4038a01",
        "914ca13c8ff9c87a6aa1bcbcdfc00fa6768bb742bfda02f8d2f7cf3d81b95185",
        "1adf8cf2804b061f75a19dc41f7798384e6f2a3e009a48a1e31e5b379a2e6ff6",
    ],
}


@pytest.mark.parametrize("kinds, cap", list(GEN_DIGESTS))
def test_gen_output_matches_recorded_digests(capsys, kinds, cap):
    digests = []
    for w in range(3, 10):
        argv = ["gen", "--weight", str(w), "--relations", kinds]
        if cap is not None:
            argv += ["--depth-cap", str(cap)]
        assert main(argv) == EXIT_OK
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == GEN_DIGESTS[kinds, cap]


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
    # the recheck covers only shuffle and hoffman; the minimality probe reads
    # the stored table, whatever kinds the recheck covers
    report = tmp_path / "report.txt"
    argv = ["verify", "--weight", "8", "--relations", "shuffle,hoffman",
            "--table-dir", str(solved_dir8), "--report", str(report)]
    assert main(argv) == EXIT_OK
    lines = report.read_text().splitlines()
    assert "recheck.8.population.shuffle = 42" in lines
    assert "minimal_depth.8.confirmed = yes" in lines
    assert "verify.passed = yes" in lines
    capsys.readouterr()


@pytest.mark.parametrize("w", [8, 10])
def test_verify_runs_no_elimination(tables12, tmp_path, capsys, monkeypatch, w):
    tables, _ = tables12
    store = TableStore(tmp_path)
    for k in range(2, w + 1):
        store.save(tables[k])

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran an elimination")

    monkeypatch.setattr(solver_mod.MasterExpression, "reduce", refuse)
    monkeypatch.setattr(solver_mod, "solve_weight", refuse)
    argv = ["verify", "--weight", str(w), "--dims", "--table-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert f"depth-sum minimality at weight {w}: confirmed (1 alternative(s) checked)" in (
        capsys.readouterr().out
    )


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


def test_verify_passes_the_benchmark_gate_on_its_fixture(tmp_path, capsys):
    # the check the benchmark's verify-w11 workload makes of its output, on
    # the same fixture store, so a change that would fail it fails here
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    for w in range(2, 12):
        name = f"weight-{w:02d}.table"
        (tmp_path / name).write_bytes((bench / "fixture" / name).read_bytes())
    (tmp_path / "manifest.json").write_bytes((bench / "fixture" / "manifest-11.json").read_bytes())
    argv = ["verify", "--weight", "11", "--dims", "--published-basis",
            "--relations", "stuffle,shuffle,hoffman,duality", "--table-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"^relation recheck at weight 11: PASS \(\d+\.\d{3}s\) — ", out, re.M)
    report = dict(line.split(" = ", 1)
                  for line in (tmp_path / "verify-report.txt").read_text().splitlines())
    expected = json.loads((bench / "golden.json").read_text())["recheck_11"]
    assert report["verify.passed"] == "yes"
    assert report["recheck.11.distinct_checked"] == str(expected["distinct_checked"])
    for kind, n in expected["population"].items():
        assert report[f"recheck.11.population.{kind}"] == str(n)
    assert float(report["recheck.11.seconds"]) >= 0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--published-basis", "--relations", "bogus"],
        ["verify", "--dims", "--max-weight", "1", "--table-dir", "tables"],
        ["verify", "--weight", "2", "--published-basis", "--table-dir", "tables"],
    ],
    ids=["unknown-kind", "max-weight-below-2", "weight-below-3"],
)
def test_verify_checks_its_arguments_before_any_check(tmp_path, monkeypatch, capsys, argv):
    # a bad argument stops verify before its first check prints or writes
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert list(tmp_path.rglob("verify-report.txt")) == []


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


def test_a_report_path_under_a_regular_file_exits_unwritable(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    report = blocker / "report.txt"
    argv = ["verify", "--published-basis", "--report", str(report)]
    assert main(argv) == EXIT_UNWRITABLE
    assert f"cannot write machine summary {report}" in capsys.readouterr().err


def test_a_hash_valid_table_of_another_weight_exits_integrity(tmp_path, capsys):
    # weight 5's table, recorded and hashed as weight 6's
    assert main(["solve", "--weight", "6", "--table-dir", str(tmp_path)]) == EXIT_OK
    (tmp_path / "weight-06.table").write_bytes((tmp_path / "weight-05.table").read_bytes())
    _rehash(tmp_path, 6)
    with pytest.raises(StoreIntegrityError, match="weight-06.table declares weight 5"):
        TableStore(tmp_path).load(6)
    capsys.readouterr()
    assert main(["verify", "--weight", "6", "--table-dir", str(tmp_path)]) == EXIT_INTEGRITY
    assert "weight-06.table declares weight 5" in capsys.readouterr().err


def test_dims_fails_when_a_table_has_a_generator_too_many(tmp_path, capsys):
    # weight 4 has no odd Lyndon word; a re-hashed table keeps Z(4) as a generator
    assert main(["solve", "--weight", "4", "--table-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "weight-04.table"
    text = path.read_text()
    for old, new in (("# generators:\n", "# generators: Z(4)\n"),
                     ("Z(4) = 2/5*Z(2)*Z(2)\n", "Z(4) = 1*Z(4)\n")):
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    _rehash(tmp_path, 4)
    assert main(["dims", "--max-weight", "4", "--table-dir", str(tmp_path)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].split() == ["4", "2", "1", "0", "NO", "n/a"]
    assert "generator count disagrees with the Lyndon enumeration" in captured.err


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
        ("# generators: Z(5)\n", "# generators: Z(5) Z(5)\n"),
        # the same word, in a spelling that render_table never writes
        ("Z(4,1) =", "Z(4,01) ="),
        # the same value in spellings that render_table never writes
        ("Z(4,1) = -1*Z(3)*Z(2) + 2*Z(5)", "Z(4,1) = -1*Z(3)*Z(2) + 1*Z(5) + 1*Z(5)"),
        ("Z(2,1,1,1) = 1*Z(5)", "Z(2,1,1,1) = 0*Z(3)*Z(2) + 1*Z(5)"),
    ],
    ids=[
        "generators-differ-from-self-entries",
        "monomial-of-another-weight",
        "monomial-factor-not-a-generator",
        "word-of-another-weight",
        "word-not-admissible",
        "generator-listed-twice",
        "word-with-a-leading-zero",
        "monomial-named-twice",
        "zero-coefficient",
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


def _list_payload_with_its_hash(path):
    text, digest = solver_mod._canonical_json([1, 2])
    path.write_text(f'{{"payload":{text},"sha256":"{digest}"}}')


def _write_echelon(path, **fields):
    # hash-valid, with the default kinds' fingerprint, this build's phase tag
    # and the solve's modulus
    payload = {"fingerprint": Checkpointer(path, DEFAULT_KINDS).fingerprint,
               "phase": Checkpointer.PHASE, "modulus": solver_mod.PRIMES[0], **fields}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    path.write_text(json.dumps({"payload": payload,
                                "sha256": hashlib.sha256(text.encode()).hexdigest()}))


def _echelon_without_state(path):
    _write_echelon(path)


def _column_out_of_range(path):
    # weight 5 has 8 words and no monomial here, so column 8 is outside
    _write_echelon(path, state={"monomials": [], "pivots": [[0, 0, 1, 8, 1]],
                                "counters": [0, 0, 0, 0]})


@pytest.mark.parametrize("spoil", [_list_instead_of_wrapper, _list_payload_with_its_hash,
                                   _echelon_without_state, _column_out_of_range])
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
