"""Run one zeta-forge command in this fresh interpreter and report its cost.

    python3 perfbench/client.py RESULT.json -- solve --weight 11 ...
    python3 perfbench/client.py RESULT.json --trace SPANS.json -- verify ...
    python3 perfbench/client.py RESULT.json --load-store DIR

The command goes through ``zetaforge.cli.main`` with the argv a user would
type; its stdout and stderr pass through unchanged.  RESULT.json receives
the exit code, the time spent inside ``main``, and CPU seconds and peak RSS
of this process plus its reaped children (forked workers included).  With
``--trace`` the solver, algebra, verify and cli layers are wrapped first
(see ``tracer.py``), the spans go to SPANS.json and the per-layer numbers
into RESULT.json.  ``--load-store`` loads every weight a store's manifest
lists through ``TableStore.load``, the benchmark's set-up check that the
program reads the store it is given.

The repository's ``src`` directory must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _usage(self_: resource.struct_rusage, children: resource.struct_rusage) -> dict:
    return {
        "cpu_s": self_.ru_utime + self_.ru_stime + children.ru_utime + children.ru_stime,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": max(self_.ru_maxrss, children.ru_maxrss) / 1024,
    }


def _load_store(directory: str) -> int:
    from zetaforge.solver import TableStore

    store = TableStore(directory)
    weights = sorted(int(w) for w in store.read_manifest()["weights"])
    for w in weights:
        store.load(w)
    return len(weights)


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    options, command = argv[1:], []
    if "--" in options:
        cut = options.index("--")
        options, command = options[:cut], options[cut + 1:]
    trace_path = options[options.index("--trace") + 1] if "--trace" in options else None
    result: dict = {}

    if "--load-store" in options:
        result["loaded"] = _load_store(options[options.index("--load-store") + 1])
        result["rc"] = 0
    else:
        from zetaforge import cli

        tracer = None
        if trace_path is not None:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            rc = cli.main(command)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        result["main_s"] = time.perf_counter() - t0
        result["rc"] = rc
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path)
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["spans"] = len(tracer.spans)

    result.update(_usage(resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))
    result_path.write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
