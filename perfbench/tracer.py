"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps public functions of ``zetaforge.solver``, ``algebra``,
``verify`` and ``cli`` from outside the package: nothing under ``src/``
knows it is being traced.  Each call records one span ``[id, name, start,
end, parent id, attrs]`` in a list kept in memory; :meth:`Tracer.dump`
writes the list out once the command has finished, and
:func:`layer_metrics` derives the per-layer numbers from it.

Only the calling process is traced.  Work that ``--jobs N`` hands to forked
workers records its spans in the workers, which are discarded, so a
parallel run shows parent-side spans only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Spans the tracer itself adds to read the elimination state; their time is
# excluded from every layer's self time.
INSPECT_ABSORBED = "perfbench.inspect.after_absorb"
INSPECT_BACKSUB = "perfbench.inspect.after_backsub"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped to record one span per call.  ``attrs(args,
        result)`` may return a dict stored with the span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), name, clock(), None, stack[-1] if stack else None, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if attrs is not None:
                record[5] = attrs(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def _bracket_stats(master) -> tuple[int, int]:
    """Live bracket terms and the largest numerator/denominator bit length
    over every pivot row of a ``MasterExpression``."""
    terms = 0
    bits = 0
    for row in master.pivots.values():
        terms += len(row)
        for c in row.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return terms, bits


def _file_bytes(path) -> int:
    return path.stat().st_size


def install(tracer: Tracer) -> None:
    """Replace the traced functions in every loaded ``zetaforge`` module
    (including names they imported from each other) and on their classes."""
    from zetaforge import algebra, cli, solver, verify

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zetaforge"]

    def patch(module, attr: str, name: str, attrs=None) -> None:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, attrs)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)

    def patch_method(cls, attr: str, name: str, attrs=None) -> None:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), attrs))

    patch(cli, "main", "cli.main")
    patch(solver, "solve_weight", "solver.solve_weight")
    patch(solver, "family_phase", "solver.family_phase")
    patch(solver, "expand_row", "solver.expand_row")
    patch(solver, "substitute_tables", "verify.substitute_tables")
    patch(algebra, "stuffle", "algebra.stuffle")
    patch(algebra, "shuffle_words", "algebra.shuffle_words")
    patch(algebra, "hoffman_relation", "algebra.hoffman_relation")
    patch(algebra, "lc_mul", "algebra.lc_mul")
    patch(verify, "recheck_relations", "verify.recheck_relations",
          lambda args, rep: {"relations": rep.distinct_checked})
    patch(verify, "published_basis_check", "verify.published_basis_check")
    patch(verify, "dimension_report", "verify.dimension_report")

    master_cls = solver.MasterExpression
    patch_method(master_cls, "absorb", "solver.absorb", lambda args, pivot: {"pivot": pivot})
    patch_method(solver.Checkpointer, "save", "solver.checkpoint.save",
                 lambda args, _: {"bytes": _file_bytes(args[0].path)})
    patch_method(solver.TableStore, "save", "solver.store.save",
                 lambda args, path: {"bytes": _file_bytes(path)})
    patch_method(solver.TableStore, "load", "solver.store.load")

    stats_attrs = lambda args, stats: {"terms": stats[0], "bits": stats[1]}  # noqa: E731
    before = tracer.wrap(INSPECT_ABSORBED, _bracket_stats, stats_attrs)
    after = tracer.wrap(INSPECT_BACKSUB, _bracket_stats, stats_attrs)
    back_substitute = tracer.wrap("solver.back_substitute", master_cls.back_substitute)

    def traced_back_substitute(self):
        before(self)
        back_substitute(self)
        after(self)

    master_cls.back_substitute = traced_back_substitute


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals, counts and self times from one traced command.

    ``.s`` is the time inside a layer's calls, ``.self_s`` that time minus
    the part covered by its child spans.  Bracket terms and coefficient bits
    are maxima over the run's eliminations (the top weight dominates).
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    attr_sum: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    for _id, name, start, end, parent, _attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    pivot_s = redundant_s = 0.0
    pivots = 0
    terms = {INSPECT_ABSORBED: 0, INSPECT_BACKSUB: 0}
    bits = 0
    for sid, name, start, end, _parent, attrs in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        self_time[name] += duration - child_time[sid]
        if name == "solver.absorb":
            if attrs["pivot"]:
                pivots += 1
                pivot_s += duration
            else:
                redundant_s += duration
        elif name in terms:
            terms[name] = max(terms[name], attrs["terms"])
            bits = max(bits, attrs["bits"])
        elif attrs:
            for key, value in attrs.items():
                attr_sum[f"{name}.{key}"] += value

    rows = calls["solver.absorb"]
    out = {
        "solver.absorb.redundant_s": redundant_s,
        "solver.absorb.pivot_s": pivot_s,
        "solver.absorb.rows": rows,
        "solver.absorb.pivots": pivots,
        "solver.absorb.useful_ratio": pivots / rows if rows else 0.0,
        "solver.bracket_terms.after_absorb": terms[INSPECT_ABSORBED],
        "solver.bracket_terms.after_backsub": terms[INSPECT_BACKSUB],
        "solver.coeff_bits.max": bits,
        "solver.expand_row.s": total["solver.expand_row"],
        "solver.expand_row.calls": calls["solver.expand_row"],
        "solver.family_phase.s": total["solver.family_phase"],
        "solver.back_substitute.s": total["solver.back_substitute"],
        "solver.solve_weight.self_s": self_time["solver.solve_weight"],
        "solver.checkpoint.save_s": total["solver.checkpoint.save"],
        "solver.checkpoint.saves": calls["solver.checkpoint.save"],
        "solver.checkpoint.bytes": attr_sum["solver.checkpoint.save.bytes"],
        "solver.store.save_s": total["solver.store.save"],
        "solver.store.saves": calls["solver.store.save"],
        "solver.store.bytes": attr_sum["solver.store.save.bytes"],
        "solver.store.load_s": total["solver.store.load"],
        "solver.store.loads": calls["solver.store.load"],
    }
    for fn in ("stuffle", "shuffle_words", "hoffman_relation", "lc_mul"):
        out[f"algebra.{fn}.s"] = total[f"algebra.{fn}"]
        out[f"algebra.{fn}.calls"] = calls[f"algebra.{fn}"]
    out.update({
        "verify.recheck_relations.s": total["verify.recheck_relations"],
        "verify.relations_checked": attr_sum["verify.recheck_relations.relations"],
        "verify.substitute_tables.s": total["verify.substitute_tables"],
        "verify.published_basis_check.s": total["verify.published_basis_check"],
        "verify.dimension_report.s": total["verify.dimension_report"],
        "cli.main.self_s": self_time["cli.main"],
    })
    return out


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits.max"):
        return "bits"
    return "count"
