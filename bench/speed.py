"""Reference kernel for normalising times to a fixed machine speed.

The machine this benchmark was sized on is shared: other tenants change how
fast the same code runs from second to second, by a quarter or more.  So
the benchmark alternates short blocks of workload with short blocks of this
kernel, which mixes small numpy calls with interpreted Python the way
bmkit does and uses no bmkit code.  Each block's times are multiplied by
``reference_rate / NOMINAL_RATE`` of the kernel block just before it:
times are reported as they would read at the nominal speed.  A change to
bmkit moves only the workload side of that ratio.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel units per second on an unloaded 2-vCPU x86-64 VM with Python
# 3.11 and numpy 2.4; only the ratio to it matters.
NOMINAL_RATE = 25000.0

_BITS = np.random.default_rng(0).random(456) < 0.3


def _unit() -> int:
    packed = np.packbits(_BITS)
    back = np.unpackbits(packed)[: _BITS.size].astype(bool)
    locs = np.flatnonzero(~back)
    keep = np.isin(locs, locs[::3], invert=True)
    table = {i: i * i for i in range(24)}
    return int(keep.sum()) + sum(table.values())


def reference_rate(seconds: float) -> float:
    """Kernel units per second over about ``seconds``."""
    clock = time.perf_counter
    t0 = clock()
    units = 0
    while True:
        for _ in range(8):
            _unit()
        units += 8
        elapsed = clock() - t0
        if elapsed >= seconds:
            return units / elapsed


def scale(seconds: float) -> float:
    """Factor turning times measured now into nominal-speed times."""
    return reference_rate(seconds) / NOMINAL_RATE
