"""A fixed reference kernel that measures how fast the machine is right now.

Shared 2-vCPU Intel Xeon virtual machines switch between a fast and a slow
state every few tens of seconds, as neighbours come and go:
the same solve took 0.5 s in one and 0.9 s in the other.  Timing this
kernel around each op and scaling the op by it cancels most of that: over
100 ops the raw solve time varied by 20% (coefficient of variation) and the
scaled time by 10%, with the same median in both states.

The kernel is a small population loop in plain numpy (segment copy, swap,
clash count, np.unique), the same mix of interpreter work and small numpy
calls as the library, but it uses no library code, so no change to the
library can speed it up or slow it down.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time at the speed the scaled metrics are expressed in
NOMINAL_S = 0.025

_RNG = np.random.default_rng(0)
_EU = _RNG.integers(0, 49, size=476)
_EV = _RNG.integers(0, 49, size=476)
_POPULATION = [_RNG.permutation(49) % 7 + 1 for _ in range(40)]


def reference_seconds() -> float:
    """Wall seconds for one fixed burst of work, about NOMINAL_S on the reference machine."""
    rng = np.random.default_rng(1)
    pop = [p.copy() for p in _POPULATION]
    costs = [0] * len(pop)
    t0 = time.perf_counter()
    for _ in range(20):
        lead = pop[0]
        for i in range(1, len(pop)):
            a, b = sorted(int(x) for x in rng.integers(0, 49, size=2))
            child = pop[i].copy()
            child[a : b + 1] = lead[a : b + 1]
            if rng.random() < 0.5:
                j, k = int(rng.integers(49)), int(rng.integers(49))
                child[j], child[k] = child[k], child[j]
            pop[i] = child
            costs[i] = int(np.count_nonzero(child[_EU] == child[_EV])) * 49 + int(np.unique(child).size)
        order = sorted(range(len(pop)), key=lambda i: (costs[i], i))
        pop = [pop[i] for i in order]
        costs = [costs[i] for i in order]
    return time.perf_counter() - t0
