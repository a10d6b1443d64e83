"""Shared fixtures.

``tables8`` is cheap (about a second) and backs most unit tests.
``lossy_first_modulus`` makes every elimination lose rank under the first
modulus, as an unlucky prime would.
``tables12`` performs the full desk-scale solve once per session, in one
process, recording per-weight wall time; the acceptance tests consume both
the tables and the timings.
"""

from __future__ import annotations

import time

import pytest

import zetaforge.solver as solver_mod
from oracles import solve_in_memory
from zetaforge.solver import MasterExpression, solve_weight


@pytest.fixture(scope="session")
def tables8():
    return solve_in_memory(8)


@pytest.fixture(scope="session")
def tables12():
    """Solved weights 2..12 plus per-weight wall-clock seconds."""
    tables: dict = {}
    seconds: dict[int, float] = {}
    for w in range(2, 13):
        t0 = time.monotonic()
        tables[w] = solve_weight(w, tables)
        seconds[w] = time.monotonic() - t0
    return tables, seconds


@pytest.fixture
def lossy_first_modulus(monkeypatch):
    """A call that makes every row's image vanish under ``PRIMES[0]`` (the
    row is multiplied by the modulus), so each family phase and elimination
    there installs no bracket at all, until the test ends."""
    honest = MasterExpression.integer_row

    def lossy(self, desc):
        row = honest(self, desc)
        if self.prime == solver_mod.PRIMES[0]:
            row = {k: v * self.prime for k, v in row.items()}
        return row

    return lambda: monkeypatch.setattr(MasterExpression, "integer_row", lossy)
