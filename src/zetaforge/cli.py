"""Command-line interface.

Subcommands
-----------
gen     stream the relation dump for one weight to stdout
solve   solve weights up to a target and persist fully-reduced tables
basis   describe the stored basis at one weight
lyndon  list odd Lyndon words (optionally the extended candidate pool)
verify  recheck relations / listings / dimensions, write a machine summary
dims    print the dimension table for stored weights

Every command exits with a documented status code so scripts can branch on
what went wrong (see ``zeta-forge --help``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ._meta import BUILD_ID
from .algebra import DEFAULT_KINDS, RELATION_KINDS, check_kinds, relation_dump
from .lyndon import candidate_pool, collapse_word, odd_lyndon_words
from .solver import (
    MissingTable,
    SolverError,
    StoreIntegrityError,
    TableStore,
    _solver_kinds,
    check_factors,
    ensure_solved,
)
from .verify import (
    basis_report,
    dimension_report,
    minimal_depth_stats,
    published_basis_check,
    recheck_relations,
)
from .words import render_word

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
EXIT_MISSING_TABLES = 4
EXIT_INTEGRITY = 5
EXIT_UNWRITABLE = 6

_EPILOG = """\
exit codes:
  0  success
  1  unexpected internal error
  2  usage or configuration error (unknown flag, bad weight, bad kind name)
  3  a verification check failed
  4  a required table is missing (solve that weight first)
  5  stored data failed its integrity hash (manifest, table or checkpoint),
     or is malformed; nothing was overwritten — inspect or delete
     the corrupted file to proceed
  6  table directory is not writable, or another file-system error
"""


class UnwritableDirError(Exception):
    """Table directory cannot be created or written."""


def _err(msg: str) -> None:
    print(f"zeta-forge: error: {msg}", file=sys.stderr)


def _parse_kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    check_kinds(kinds)  # raises ValueError on unknown names
    return kinds


def _store_for_writing(table_dir: str) -> TableStore:
    root = Path(table_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableDirError(f"cannot create table directory {root}: {exc}") from exc
    if not os.access(root, os.W_OK):
        raise UnwritableDirError(f"table directory {root} is not writable")
    return TableStore(root)


def _load_range(store: TableStore, up_to: int, tables: dict | None = None) -> dict:
    """Load weights 2..up_to from the store into ``tables``, each one
    hash-verified and checked by :func:`check_factors`; weights already
    there are not loaded again."""
    tables = {} if tables is None else tables
    for w in range(2, up_to + 1):
        if w not in tables:
            tables[w] = store.load(w)
            check_factors(tables, w, store.table_path(w).name)
    return tables


# ----------------------------------------------------------------- commands

def cmd_gen(args: argparse.Namespace) -> int:
    if args.weight < 2:
        raise ValueError(f"weight must be >= 2, got {args.weight}")
    if args.depth_cap is not None and args.depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {args.depth_cap}")
    kinds = _parse_kinds(args.relations)
    count = 0
    for line in relation_dump(args.weight, kinds, args.depth_cap):
        print(line)
        count += 1
    print(f"# {count} relation(s) at weight {args.weight}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    if args.weight < 2:
        raise ValueError(f"weight must be >= 2, got {args.weight}")
    if args.depth_cap is not None:
        raise ValueError(
            "--depth-cap applies to `gen` only: a capped relation stream cannot "
            "produce a fully-reduced table"
        )
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    kinds = _parse_kinds(args.relations)
    _solver_kinds(kinds)  # before the table directory is created
    store = _store_for_writing(args.table_dir)
    ensure_solved(store, args.weight, kinds, progress=print)
    print(f"manifest: {store.manifest_path}")
    return EXIT_OK


def cmd_basis(args: argparse.Namespace) -> int:
    if args.weight < 2:
        raise ValueError(f"weight must be >= 2, got {args.weight}")
    tables = _load_range(TableStore(Path(args.table_dir)), args.weight)
    report = basis_report(tables[args.weight])
    print(
        f"weight {report.weight}: {report.generator_count} generator(s), "
        f"depth sum {report.depth_sum}, monomial dimension {report.monomial_count}"
    )
    for g in report.generators:
        print(f"  {render_word(g):<24} {_shape_of(g)}")
    return EXIT_OK


def _shape_of(g) -> str:
    try:
        source, n = collapse_word(g)
    except ValueError:
        return "not of extended shape"
    if n == 0:
        return "plain Lyndon word"
    return f"{n}-fold extension of {render_word(source)}"


def cmd_lyndon(args: argparse.Namespace) -> int:
    if args.weight < 1:
        raise ValueError(f"weight must be >= 1, got {args.weight}")
    if args.extended:
        pool = candidate_pool(args.weight)
        plain = sum(1 for c in pool if c.n == 0)
        print(
            f"# weight {args.weight}: {len(pool)} candidate(s) "
            f"({plain} plain, {len(pool) - plain} extended)"
        )
        for c in pool:
            note = "" if c.n == 0 else f"  # {c.n}-fold extension of {render_word(c.source)}"
            print(f"{render_word(c.word)}{note}")
    else:
        words = odd_lyndon_words(args.weight)
        print(f"# weight {args.weight}: {len(words)} odd Lyndon word(s)")
        for x in words:
            print(render_word(x))
    return EXIT_OK


def cmd_dims(args: argparse.Namespace) -> int:
    if args.max_weight < 2:
        raise ValueError(f"--max-weight must be >= 2, got {args.max_weight}")
    store = TableStore(Path(args.table_dir))
    tables = _load_range(store, args.max_weight)
    rows = dimension_report(tables, args.max_weight)
    _print_dimension_rows(rows)
    if any(not r.generators_agree for r in rows):
        _err("generator count disagrees with the Lyndon enumeration (see table)")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _print_dimension_rows(rows) -> None:
    print(f"{'weight':>6}  {'monomials':>9}  {'generators':>10}  {'lyndon':>6}  {'agree':>5}  recursion")
    for r in rows:
        rec = "n/a" if r.recursion_ok is None else ("ok" if r.recursion_ok else "FAIL")
        agree = "yes" if r.generators_agree else "NO"
        print(
            f"{r.weight:>6}  {r.monomial_count:>9}  {r.generator_count:>10}  "
            f"{r.lyndon_count:>6}  {agree:>5}  {rec}"
        )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.weight is None and not args.published_basis and not args.dims:
        raise ValueError(
            "nothing to verify: pass --weight W, --published-basis, and/or --dims"
        )
    if (args.weight is not None or args.dims) and args.table_dir is None:
        raise ValueError("--table-dir is required to verify stored tables")
    if args.dims and args.max_weight is None and args.weight is None:
        raise ValueError("--dims needs --max-weight (or --weight) to bound the report")
    if args.weight is not None and args.weight < 3:
        raise ValueError(f"--weight must be >= 3 to recheck relations, got {args.weight}")
    if args.max_weight is not None and args.max_weight < 2:
        raise ValueError(f"--max-weight must be >= 2, got {args.max_weight}")
    kinds = _parse_kinds(args.relations)

    machine: list[str] = [f"report.build = {BUILD_ID}"]
    failed = False

    if args.published_basis:
        rep = published_basis_check()
        machine.extend(rep.lines())
        failed |= not rep.passed
        status = "PASS" if rep.passed else "FAIL"
        print(f"published listing check: {status} ({rep.seconds:.3f}s)")
        for w in sorted(rep.counts):
            twofold = ", ".join(render_word(x) for x in rep.twofold[w]) or "(none)"
            print(
                f"  weight {w}: {rep.counts[w]} elements over "
                f"{rep.lyndon_counts[w]} Lyndon words, "
                f"bijection {'yes' if rep.bijection[w] else 'NO'}, twofold {twofold}"
            )
        for f in rep.failures:
            print(f"  FAIL: {f}")

    store = TableStore(Path(args.table_dir)) if args.table_dir is not None else None
    tables: dict = {}

    if args.weight is not None:
        _load_range(store, args.weight, tables)
        rep = recheck_relations(args.weight, tables, kinds)
        machine.extend(rep.lines())
        failed |= not rep.passed
        pop = ", ".join(f"{k} {n}" for k, n in rep.population.items())
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"relation recheck at weight {args.weight}: {status} — "
            f"{rep.distinct_checked} instance(s) collapsed to zero ({pop})"
        )
        for f in rep.failures:
            print(f"  FAIL: {f}")

        brep = basis_report(tables[args.weight])
        machine.extend(brep.lines())
        gens = ", ".join(render_word(g) for g in brep.generators) or "(none)"
        print(
            f"basis at weight {args.weight}: {gens}; depth sum {brep.depth_sum}, "
            f"monomial dimension {brep.monomial_count}"
        )

        mrep = minimal_depth_stats(args.weight, tables)
        machine.extend(mrep.lines())
        failed |= not mrep.minimal_confirmed
        word = "confirmed" if mrep.minimal_confirmed else "REFUTED"
        print(
            f"depth-sum minimality at weight {args.weight}: {word} "
            f"({mrep.alternatives_checked} alternative(s) checked)"
        )

    if args.dims:
        up_to = args.max_weight if args.max_weight is not None else args.weight
        _load_range(store, up_to, tables)
        rows = dimension_report(tables, up_to)
        for r in rows:
            machine.extend(r.lines())
        disagree = [r.weight for r in rows if not r.generators_agree]
        failed |= bool(disagree)
        _print_dimension_rows(rows)
        if disagree:
            print(f"  FAIL: generator count off at weight(s) {disagree}")

    machine.append(f"verify.passed = {'yes' if not failed else 'NO'}")
    report_path = (
        Path(args.report)
        if args.report is not None
        else (Path(args.table_dir) if args.table_dir else Path(".")) / "verify-report.txt"
    )
    try:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text("\n".join(machine) + "\n", encoding="utf-8")
    except OSError as exc:
        raise UnwritableDirError(f"cannot write machine summary {report_path}: {exc}") from exc
    print(f"machine summary: {report_path}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeta-forge",
        description="Exact double-shuffle engine: generate, solve, store and verify "
        "weight-by-weight relation systems over nested harmonic sums.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=BUILD_ID)
    parser.add_argument(
        "--verbose", action="store_true", help="log solver progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    relations_help = (
        "comma-separated relation kinds out of "
        + ",".join(RELATION_KINDS)
        + f" (default: {','.join(DEFAULT_KINDS)})"
    )

    p = sub.add_parser("gen", help="stream the relation dump for one weight to stdout")
    p.add_argument("--weight", "-w", type=int, required=True, help="target weight (>= 2)")
    p.add_argument("--relations", default=",".join(DEFAULT_KINDS), help=relations_help)
    p.add_argument(
        "--depth-cap",
        type=int,
        default=None,
        help="drop relations containing any word deeper than this (gen only)",
    )
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve all weights up to the target and persist tables")
    p.add_argument("--weight", "-w", type=int, required=True, help="highest weight to solve")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="accepted (>= 1); the solve runs in one process")
    p.add_argument("--table-dir", required=True, help="directory for tables and the manifest")
    p.add_argument("--relations", default=",".join(DEFAULT_KINDS), help=relations_help)
    p.add_argument(
        "--depth-cap", type=int, default=None, help=argparse.SUPPRESS
    )  # rejected with an explanation; the flag exists so the error is helpful
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("basis", help="describe the stored basis at one weight")
    p.add_argument("--weight", "-w", type=int, required=True)
    p.add_argument("--table-dir", required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("lyndon", help="list odd Lyndon words at one weight")
    p.add_argument("--weight", "-w", type=int, required=True)
    p.add_argument(
        "--extended",
        action="store_true",
        help="list the extended candidate pool instead of the plain words",
    )
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser(
        "verify",
        help="recheck relations, listings and dimensions; writes a key = value summary",
    )
    p.add_argument("--weight", "-w", type=int, default=None, help="recheck this weight's table")
    p.add_argument("--table-dir", default=None, help="directory holding solved tables")
    p.add_argument("--relations", default=",".join(DEFAULT_KINDS), help=relations_help)
    p.add_argument(
        "--published-basis",
        "--paper-basis",
        dest="published_basis",
        action="store_true",
        help="validate the shipped weight-27/28 listings (no tables needed)",
    )
    p.add_argument("--dims", action="store_true", help="include the dimension table")
    p.add_argument("--max-weight", type=int, default=None, help="upper weight for --dims")
    p.add_argument(
        "--report",
        default=None,
        help="path for the machine summary (default: <table-dir>/verify-report.txt)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dims", help="print the dimension table for stored weights")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--table-dir", required=True)
    p.set_defaults(func=cmd_dims)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.DEBUG, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except UnwritableDirError as exc:
        _err(str(exc))
        return EXIT_UNWRITABLE
    except MissingTable as exc:
        _err(f"{exc} (run `zeta-forge solve` first)")
        return EXIT_MISSING_TABLES
    except StoreIntegrityError as exc:
        _err(str(exc))
        return EXIT_INTEGRITY
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    except SolverError as exc:
        _err(str(exc))
        return EXIT_INTERNAL
    except OSError as exc:
        _err(str(exc))
        return EXIT_UNWRITABLE
    except KeyboardInterrupt:
        _err("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
