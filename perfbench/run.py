#!/usr/bin/env python3
"""zeta-forge benchmark: solve and verify, as a user runs them.

    python3 perfbench/run.py --workload solve-w11 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program is imported from
``src/``.  One invocation runs one workload as a closed loop: a single client
sets up a fresh table store, runs one ``zeta-forge`` command in a fresh
interpreter, checks its outputs, and only then starts the next, for
``--seconds`` (at least one command).  Set-up runs at least ``SETUPS``
times.  Command times are means over the run and every other figure is a
median (see ``end_to_end``).  A fixed probe of
pure-Python rational arithmetic runs on every core after the first set-ups
and after every command, and every time is reported at the probe's
reference pace (see ``pace.py``), so that the shared host's drift in speed
does not read as a change in the program.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced commands and prints the per-layer metrics of the traced
ones plus ``trace_overhead_ratio``.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (host, interpreter, tree and fixture digests), also written
under ``.perfbench-work/records/``.

``--seed`` fixes the inputs: it picks the order in which ``--relations``
lists the relation kinds and names the store directories.  Neither may
change any output, which is what the golden digests check.

``--self-test`` shows that the output checks bite: it flips one byte of a
set-up table and reports the fail ratio, which must rise above 0.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pace
from tracer import layer_unit

HERE = Path(__file__).resolve().parent
CLIENT = HERE / "client.py"
FIXTURE = HERE / "fixture"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="ascii"))

SETUPS = 5
# Time spent probing the host's pace after each command, as a share of the
# command's own wall time.
PROBE_SHARE = 0.25
RECORDS = Path(".perfbench-work") / "records"
COMMAND_TIMEOUT_S = 160
DEFAULT_KINDS = ("stuffle", "shuffle", "hoffman")
ALL_KINDS = ("stuffle", "shuffle", "hoffman", "duality")
COUNTER_LINE = re.compile(r"^weight (\d+): (\d+) generator\(s\), (\d+) pivots, (\d+) redundant rows$")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # argv before --relations and --table-dir
    kinds: tuple[str, ...]  # passed to --relations, in an order the seed picks
    stored: int  # the store starts with fixture weights 2..stored (0: empty)
    writes: tuple[int, ...]  # weights whose tables the command writes
    reads: tuple[int, ...]  # weights whose tables the command reads
    recheck: bool  # the command rechecks the weight-11 relations


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-w11", ("solve", "--weight", "11", "--jobs", "1"), DEFAULT_KINDS,
                 stored=10, writes=(11,), reads=tuple(range(2, 11)), recheck=False),
        Workload("solve-w10-j2", ("solve", "--weight", "10", "--jobs", "2"), DEFAULT_KINDS,
                 stored=0, writes=tuple(range(2, 11)), reads=(), recheck=False),
        Workload("verify-w11", ("verify", "--weight", "11", "--dims", "--published-basis"),
                 ALL_KINDS, stored=11, writes=(), reads=tuple(range(2, 12)), recheck=True),
    )
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def table_name(w: int) -> str:
    return f"weight-{w:02d}.table"


@dataclass
class Op:
    """One command: its cost and how many of its operations failed."""

    wall_s: float
    main_s: float
    cpu_s: float
    peak_rss_mib: float
    attempted: int
    failed: int
    layers: dict | None = None


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.workload = workload
        self.work = work
        rng = random.Random(seed)
        self.kinds = ",".join(rng.sample(workload.kinds, len(workload.kinds)))
        self.prefix = f"store-s{seed}"
        self.count = 0
        self.setup_s: list[float] = []
        self.paces: list[float] = []
        # Byte-code is cached outside the tree, as an installed package's
        # would be; the first set-up of a checkout pays the compile.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONPYCACHEPREFIX=str(work.parent / "pycache"),
            PYTHONHASHSEED="0",
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def probe(self, seconds: float) -> None:
        self.paces += pace.probe(seconds)

    def scale(self) -> float:
        """Factor that takes this run's times to the reference pace.  Each
        core switches between fast and slow states within a second, so the
        probe's mean, not its median, follows the share of slow time."""
        return pace.REFERENCE_MS / statistics.fmean(self.paces)

    # ------------------------------------------------------------- processes

    def _client(self, args: list[str], log: Path) -> tuple[int, float, dict | None]:
        """Run client.py in a fresh interpreter; (exit code, wall s, result)."""
        result_path = log.with_suffix(".result.json")
        cmd = [sys.executable, str(CLIENT), str(result_path), *args]
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            # Popen.wait(timeout=...) polls every 50 ms, which would quantize
            # the wall time; wait blocking and let a timer enforce the limit.
            timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                rc = proc.wait()
            finally:
                # joined, so that no thread is alive when the pace probe forks
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        result = None
        if rc == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="ascii"))
        return rc, wall, result

    # ---------------------------------------------------------------- set-up

    def set_up(self) -> Path:
        """A fresh store holding the workload's fixture tables, checked
        against the golden digests and loaded once by the program."""
        self.count += 1
        store = self.work / f"{self.prefix}-{self.count}"
        t0 = time.perf_counter()
        store.mkdir(parents=True)
        n = self.workload.stored
        if n:
            for w in range(2, n + 1):
                target = store / table_name(w)
                shutil.copyfile(FIXTURE / table_name(w), target)
                if sha256(target) != GOLDEN["tables"][str(w)]:
                    raise BenchError(f"fixture {table_name(w)} does not match its golden digest")
            shutil.copyfile(FIXTURE / f"manifest-{n}.json", store / "manifest.json")
        rc, _, result = self._client(["--load-store", str(store)], store.with_suffix(".setup.log"))
        if rc != 0 or result is None:
            log = store.with_suffix(".setup.log").read_text(encoding="utf-8")
            raise BenchError(f"the program could not load the set-up store:\n{log}")
        self.setup_s.append(time.perf_counter() - t0)
        return store

    # -------------------------------------------------------------- commands

    def run(self, store: Path, trace: bool) -> Op:
        args = []
        if trace:
            spans = RECORDS / f"{self.workload.name}-seed{self.seed}.spans.json"
            args += ["--trace", str(self.root / spans)]
        args += ["--", *self.workload.command,
                 "--relations", self.kinds, "--table-dir", str(store)]
        log = store.with_suffix(".log")
        _, wall, result = self._client(args, log)
        cli_rc = result["rc"] if result else None
        attempted, failed = self.check(store, cli_rc, log.read_text(encoding="utf-8"), result, trace)
        if result is None:
            return Op(wall, wall, 0.0, 0.0, attempted, failed)
        return Op(wall, result["main_s"], result["cpu_s"], result["peak_rss_mib"],
                  attempted, failed, result.get("layers"))

    def check(self, store: Path, rc, stdout: str, result, trace: bool) -> tuple[int, int]:
        """(attempted, failed) operations of one command.  An operation is a
        table written, a table read, or a relation rechecked.  Each fails on
        a nonzero exit, a digest that differs from the golden one, or a
        counter that differs from the recorded one."""
        w = self.workload
        ran = rc == 0
        golden = GOLDEN["tables"]
        counters = {}
        for line in stdout.splitlines():
            m = COUNTER_LINE.match(line)
            if m:
                counters[m[1]] = {"pivots": int(m[3]), "redundant": int(m[4])}
        try:
            recorded = json.loads((store / "manifest.json").read_text(encoding="ascii"))["weights"]
        except (OSError, ValueError, KeyError):
            recorded = {}

        def digest_ok(weight: int) -> bool:
            path = store / table_name(weight)
            return path.exists() and sha256(path) == golden[str(weight)]

        failed = 0
        for weight in w.writes:
            key = str(weight)
            ok = (ran and digest_ok(weight)
                  and recorded.get(key, {}).get("sha256") == golden[key]
                  and (weight == 2 or counters.get(key) == GOLDEN["elimination"][key]))
            failed += not ok
        for weight in w.reads:
            failed += not (ran and digest_ok(weight))
        attempted = len(w.writes) + len(w.reads)

        if w.recheck:
            expected = GOLDEN["recheck_11"]
            attempted += expected["distinct_checked"]
            report = _read_report(store / "verify-report.txt")
            ok = (ran and report.get("verify.passed") == "yes"
                  and report.get("recheck.11.distinct_checked") == str(expected["distinct_checked"])
                  and all(report.get(f"recheck.11.population.{k}") == str(n)
                          for k, n in expected["population"].items()))
            failed += int(report.get("recheck.11.failures", 0)) if ok else expected["distinct_checked"]

        if trace and result is not None and w.writes:
            layers = result["layers"]
            solved = [str(x) for x in w.writes if x > 2]
            rows = sum(sum(GOLDEN["elimination"][x].values()) for x in solved)
            pivots = sum(GOLDEN["elimination"][x]["pivots"] for x in solved)
            if (layers["solver.absorb.rows"], layers["solver.absorb.pivots"]) != (rows, pivots):
                failed = attempted
        return attempted, min(failed, attempted)


def _read_report(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return {}
    pairs = (line.partition(" = ") for line in text.splitlines())
    return {k: v for k, sep, v in pairs if sep}


# ------------------------------------------------------------------ record

def git_rev(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="ascii").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(root: Path) -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_record(root: Path, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(root),
        "src_sha256": tree_digest(root),
        "loadavg_start": list(os.getloadavg()),
        "reference_pace_ms": pace.REFERENCE_MS,
        "fixture_sha256": {p.name: sha256(p) for p in sorted(FIXTURE.iterdir())},
    }


# -------------------------------------------------------------------- main

def measure(bench: Bench, seconds: float, trace: bool) -> list[tuple[Op, ...]]:
    """Closed loop for ``seconds``; each item is one untraced command, or an
    (untraced, traced) pair when tracing.  A command that would not finish
    within ``seconds`` at the median pace so far is not started, so a run
    lasts about ``seconds`` but always holds at least one item.  The host's
    pace is probed after the first set-ups and after every command."""
    start = time.perf_counter()
    stores = [bench.set_up() for _ in range(SETUPS)]
    bench.probe(PROBE_SHARE * (time.perf_counter() - start))
    results = []
    durations = []
    while not results or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        group = []
        for traced in ((False, True) if trace else (False,)):
            store = stores.pop(0) if stores else bench.set_up()
            group.append(bench.run(store, traced))
            bench.probe(PROBE_SHARE * group[-1].wall_s)
            shutil.rmtree(store, ignore_errors=True)
        results.append(tuple(group))
        durations.append(time.perf_counter() - t0)
    for store in stores:
        shutil.rmtree(store, ignore_errors=True)
    return results


def end_to_end(bench: Bench, ops: list[Op], attempted: int, failed: int) -> dict:
    """Command times are means over the run, like the pace they are scaled
    by: a command runs wholly in the host's fast or slow state often enough
    that the median jumps between the two, while the mean follows the share
    of slow time, as the probe's mean does."""
    mean = lambda f: statistics.fmean(f(op) for op in ops)  # noqa: E731
    scale = bench.scale()
    return {
        "wall_s": {"value": mean(lambda op: op.wall_s) * scale, "unit": "s"},
        "cpu_s": {"value": mean(lambda op: op.cpu_s) * scale, "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(op.peak_rss_mib for op in ops),
                         "unit": "MiB"},
        "setup_s": {"value": statistics.median(bench.setup_s) * scale, "unit": "s"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def per_layer(bench: Bench, pairs: list[tuple[Op, Op]]) -> dict:
    traced = [p[1] for p in pairs if p[1].layers is not None]
    if not traced:
        return {}
    scale = bench.scale()
    metrics = {}
    for name in traced[0].layers:
        unit = layer_unit(name)
        value = statistics.median(op.layers[name] for op in traced)
        metrics[name] = {"value": value * scale if unit == "s" else value, "unit": unit}
    ratio = (statistics.median(p[1].main_s for p in pairs)
             / statistics.median(p[0].main_s for p in pairs))
    metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def benchmark(root: Path, args) -> int:
    workload = WORKLOADS[args.workload]
    record = run_record(root, args)
    work = root / ".perfbench-work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (root / RECORDS).mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(root, workload, args.seed, work)
        groups = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = [op for group in groups for op in group]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    if args.trace:
        metrics = per_layer(bench, groups)
    else:
        metrics = end_to_end(bench, ops, attempted, failed)
    correct = failed == 0 and bool(metrics)
    record.update(
        relations=bench.kinds,
        commands=len(ops),
        pace_ms=bench.paces,
        scale=bench.scale(),
        setup_s=bench.setup_s,
        ops=[vars(op) | {"layers": None} for op in ops],
        correct=correct,
        metrics=metrics,
    )
    records = root / RECORDS
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1), encoding="ascii")
    print("run record: " + json.dumps(record))
    if not correct:
        print(f"perfbench: {failed} of {attempted} operation(s) failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def flip_coefficient_digit(path: Path) -> None:
    """Flip the low bit of the first coefficient digit in the second half
    of a table file; the file still parses, but one value is wrong."""
    data = bytearray(path.read_bytes())
    pos = data.index(b" = ", len(data) // 2) + 3
    while not chr(data[pos]).isdigit():
        pos += 1
    data[pos] ^= 1
    path.write_bytes(bytes(data))


def self_test(root: Path) -> int:
    """Run verify-w11 on an intact store and on three tampered ones; the
    fail ratio must be 0 on the first and above 0 on the others."""
    cases = {
        "intact": None,
        # the program's manifest hash refuses the file (exit 5)
        "weight 11 flipped": (11, False),
        # the program's relation recheck fails (exit 3)
        "weight 11 flipped, manifest re-hashed": (11, True),
        # the command passes (no weight-11 relation reads weight 10), so
        # only the benchmark's golden digest can see it
        "weight 10 flipped, manifest re-hashed": (10, True),
    }
    work = root / ".perfbench-work" / f"self-test-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ratios = {}
    try:
        bench = Bench(root, WORKLOADS["verify-w11"], 0, work)
        for case, tamper in cases.items():
            store = bench.set_up()
            if tamper is not None:
                weight, rehash = tamper
                table = store / table_name(weight)
                flip_coefficient_digit(table)
                if rehash:
                    manifest = json.loads((store / "manifest.json").read_text(encoding="ascii"))
                    manifest["weights"][str(weight)]["sha256"] = sha256(table)
                    (store / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                                         encoding="ascii")
            op = bench.run(store, trace=False)
            ratios[case] = op.failed / op.attempted
            print(f"self-test {case}: fail_ratio = {ratios[case]:.6f}"
                  f" ({op.failed} of {op.attempted} operations failed)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = ratios.pop("intact") == 0 and all(r > 0 for r in ratios.values())
    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "zetaforge" / "cli.py").is_file():
        print(f"perfbench: no zeta-forge source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(root)
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(root, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
