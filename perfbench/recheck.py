"""Independent re-check of returned colourings.

Written against the plain edge list on purpose: nothing here imports
`colorica.coloring`, so a defect in the library's own cost code cannot hide
itself from the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    clashes: int
    colours: int
    cost: float
    success: bool


def recheck(edges, n: int, chi: int, colouring) -> Check:
    """Clash count, colour count, penalised cost (penalty n) and success within chi.

    Raises ValueError when the colouring is not n positive integers.
    """
    col = [int(c) for c in colouring]
    if len(col) != n:
        raise ValueError(f"colouring has {len(col)} cells, graph has {n} vertices")
    if min(col) < 1:
        raise ValueError("colour indices must be positive")
    clashes = sum(1 for u, v in edges if col[u - 1] == col[v - 1])
    colours = len(set(col))
    cost = colours if clashes == 0 else clashes * float(n) + colours
    return Check(clashes, colours, cost, clashes == 0 and colours <= chi)


def compare_result(check: Check, result) -> list[str]:
    """Disagreements between the re-check and a solver's RunResult bookkeeping."""
    errors = []
    if check.clashes != result.conflicts:
        errors.append(f"conflicts {result.conflicts} != re-checked {check.clashes}")
    if check.colours != result.colours_used:
        errors.append(f"colours_used {result.colours_used} != re-checked {check.colours}")
    if check.cost != result.best_cost:
        errors.append(f"best_cost {result.best_cost} != re-checked {check.cost}")
    return errors
