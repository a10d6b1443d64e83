"""Tier-2 check: solve weights 2-15 cold and compare the table digests.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tests/tier2_digests.py

It solves weights 2 through 15 into a temporary table store with
``ensure_solved``, then compares the sha256 of each stored table file of
weights 12-15 with its pinned digest.  For each weight it prints the
seconds from the previous table's save to this one's, then ``pivots``,
``redundant_rows``, ``max_coeff_bits`` and ``modulus_bits`` (none for the
seeded weight 2), and the process's peak resident memory so far
(``VmHWM``) as read when the table was saved, so that a rise is charged to
the weight whose solve caused it; at the end it prints ``VmHWM`` again.
It exits 1 if any digest differs.  It takes 70-90 s and peaks near
200 MiB on a 2-vCPU VM, so pytest does not collect it (its name does not
start with ``test_``).
"""

import hashlib
import sys
import tempfile
import time
from pathlib import Path

from zetaforge.solver import TableStore, ensure_solved

TOP = 15
DIGESTS = {
    12: "ad5cd288dc4d39778e187773a489027aa7048d7ca15027ab14d23a11b5928002",
    13: "b4b5654201dae1275307a4f831409fee7189ef60dbfb844814317e79ba4859f0",
    14: "aa491606a337a5516f7cd5ec41b307608afb87ebd3b5609e7f1182450e866893",
    15: "caf9d7a5888806f0e0d851f626e6493dd938462e5e1ebde6fcc5aafdd1ed6c3c",
}
STATS = ("pivots", "redundant_rows", "max_coeff_bits", "modulus_bits")


def _vm_hwm() -> str:
    """The process's peak resident memory so far, as the kernel prints it."""
    return next(
        line.split(":", 1)[1].strip()
        for line in Path("/proc/self/status").read_text().splitlines()
        if line.startswith("VmHWM:")
    )


class _TimedStore(TableStore):
    """A table store that notes when each weight's table was saved, and
    the peak resident memory then."""

    def __init__(self, root):
        super().__init__(root)
        self.saved: dict[int, float] = {}
        self.hwm: dict[int, str] = {}

    def save(self, solved):
        path = super().save(solved)
        self.saved[solved.weight] = time.monotonic()
        self.hwm[solved.weight] = _vm_hwm()
        return path


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        store = _TimedStore(root)
        start = time.monotonic()
        tables = ensure_solved(store, TOP)
        mismatches = 0
        for w in range(2, TOP + 1):
            seconds = store.saved[w] - store.saved.get(w - 1, start)
            stats = " ".join(f"{name}={tables[w].stats.get(name, '-')}" for name in STATS)
            line = f"weight {w:2d}: {seconds:7.2f} s {stats} VmHWM={store.hwm[w]}"
            if w in DIGESTS:
                digest = hashlib.sha256(store.table_path(w).read_bytes()).hexdigest()
                ok = digest == DIGESTS[w]
                mismatches += not ok
                line += f" sha256={digest} {'ok' if ok else 'MISMATCH'}"
            print(line, flush=True)
    print(f"total {time.monotonic() - start:.1f} s, VmHWM {_vm_hwm()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
