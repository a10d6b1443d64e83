"""Host pace: how fast this machine's cores run pure-Python rational
arithmetic now.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x for minutes at a time, and each core drifts on its own; CPU time
drifts with wall time, so the drift is the host's, not the program's.
:func:`probe` times a fixed piece of work of the same kind as the program's
(sparse elimination over dicts of ``Fraction``) on every core at once, and
the benchmark runs it between commands.  Every timing is then reported at
:data:`REFERENCE_MS`: a command that took ``t`` seconds while the probe's
mean repeat took ``p`` ms reports ``t * REFERENCE_MS / p``.

The probe is the benchmark's own code, forked from the benchmark's process,
which never imports the program, so no change to the program can move it.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction

# Any fixed value would do.  On a shared 2-vCPU x86-64 VM under CPython 3.11
# single repeats took about 25-60 ms, so adjusted seconds stay near raw ones.
REFERENCE_MS = 40.0

MATRICES = 12
ROWS = 35
COLS = 150
TERMS = 5
MIN_REPEATS = 3


def _matrices() -> list[list[dict[int, Fraction]]]:
    rng = random.Random(20110509)
    return [
        [{c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
          for c in rng.sample(range(COLS), TERMS)}
         for _ in range(ROWS)]
        for _ in range(MATRICES)
    ]


MATRICES_IN = _matrices()


def _eliminate(rows: list[dict[int, Fraction]]) -> int:
    """Row-reduce ``rows`` the way an incremental elimination absorbs them;
    returns the rank."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for source in rows:
        row = dict(source)
        for col, prow in pivots.items():
            c = row.get(col)
            if c:
                for k, v in prow.items():
                    x = row.get(k, 0) - c * v
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
        if row:
            col = min(row)
            inv = 1 / row[col]
            row = {k: v * inv for k, v in row.items()}
            for prow in pivots.values():
                c = prow.get(col)
                if c:
                    for k, v in row.items():
                        x = prow.get(k, 0) - c * v
                        if x:
                            prow[k] = x
                        else:
                            prow.pop(k, None)
            pivots[col] = row
    return len(pivots)


def _repeat(seconds: float) -> list[float]:
    """Wall times in ms of the fixed elimination, repeated for about
    ``seconds`` and at least ``MIN_REPEATS`` times."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < MIN_REPEATS or time.perf_counter() < end:
        t0 = time.perf_counter()
        for rows in MATRICES_IN:
            _eliminate(rows)
        times.append((time.perf_counter() - t0) * 1000)
    return times


def _start(cpu: int, seconds: float) -> tuple[int, int]:
    """Fork a process pinned to ``cpu`` that writes its repeat times to a
    pipe; returns its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, {cpu})
            with os.fdopen(write_fd, "w", encoding="ascii") as out:
                json.dump(_repeat(seconds), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _finish(pid: int, read_fd: int) -> list[float] | None:
    """The repeat times of a probe process, once it has ended; None if it
    failed."""
    with os.fdopen(read_fd, encoding="ascii") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(data) if status == 0 else None


def probe(seconds: float) -> list[float]:
    """Repeat times in ms from one process pinned to each core this process
    may run on, all probing at once for about ``seconds``.  A command runs
    on any of these cores, and ``--jobs 2`` on two of them, so the pace of
    one core alone would miss a slow other one."""
    children = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            children.append(_start(cpu, seconds))
    finally:
        results = [_finish(pid, read_fd) for pid, read_fd in children]
    if None in results:
        raise RuntimeError("a pace probe process failed")
    return [t for times in results for t in times]
