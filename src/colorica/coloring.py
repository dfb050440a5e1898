"""Solution encoding and the penalised colouring cost.

A colouring is any length-n sequence of positive colour indices (vertex v's
colour at index v-1). Cost is `distinct colours used` for conflict-free
colourings and `conflicts * penalty + distinct colours used` otherwise, so
with penalty >= n every conflicting colouring costs more than every proper
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph

# the memory budget of a batched array pass, in array cells: batch_costs caps
# its rows per chunk so that the gathered (edge, row) colour pairs and the
# (colour, row) presence mask stay near it, and dica.descend does the same for
# its neighbour-colour table
BATCH_CELLS = 1 << 21


@dataclass(frozen=True)
class CostParams:
    """Penalty weight per conflicting edge; penalty >= n guarantees dominance."""

    penalty: float

    def __post_init__(self) -> None:
        if self.penalty <= 0:
            raise ValueError(f"penalty must be positive, got {self.penalty}")

    @classmethod
    def for_graph(cls, g: Graph) -> "CostParams":
        return cls(penalty=g.n)


def _as_array(g: Graph, col: Sequence[int]) -> np.ndarray:
    arr = np.asarray(col)
    if arr.ndim != 1 or arr.shape[0] != g.n:
        raise ValueError(f"colouring length {arr.shape} does not match n={g.n}")
    return arr


def count_conflicts(g: Graph, col: Sequence[int]) -> int:
    """Number of edges whose endpoints share a colour; 0 iff the colouring is proper."""
    arr = _as_array(g, col)
    if not g.edges:
        return 0
    eu, ev = g.edge_index_arrays
    return int(np.count_nonzero(arr[eu] == arr[ev]))


def distinct_colours(col: Sequence[int]) -> int:
    arr = np.asarray(col)
    if arr.size == 0:
        raise ValueError("empty colouring")
    return len(set(arr.tolist()))


def cost(g: Graph, col: Sequence[int], params: CostParams):
    """Penalised cost: distinct colours if proper, else conflicts * penalty + distinct."""
    return cost_from_counts(count_conflicts(g, col), distinct_colours(col), params)


def cost_from_counts(conflicts: int, used: int, params: CostParams):
    """The penalised cost of a colouring whose clash and colour counts are known."""
    if conflicts == 0:
        return used
    return conflicts * params.penalty + used


def batch_costs(
    g: Graph, rows: np.ndarray, params: CostParams
) -> tuple[list, list[int], list[int]]:
    """Cost, clash count and colour count of each row of a (count, n) colouring array.

    Row i gets exactly what cost(g, rows[i], params), count_conflicts and
    distinct_colours give it, int or float alike.  Rows are transposed to
    (n, count) in the smallest unsigned dtype that holds the largest colour,
    so each edge compares two contiguous rows, and are taken in chunks of
    about BATCH_CELLS cells, in row order.
    """
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != g.n:
        raise ValueError(f"colourings of shape {arr.shape} do not match n={g.n}")
    if arr.shape[0] == 0:
        return [], [], []
    top = int(arr.max())
    if int(arr.min()) < 0 or top >= arr.size:
        # colour values sparser than the cells: number them densely, which keeps
        # every equality and bounds the presence mask by the array's size
        _, dense = np.unique(arr, return_inverse=True)
        arr = dense.reshape(arr.shape)
        top = int(arr.max())
    dtype = np.min_scalar_type(top)
    eu, ev = g.edge_index_arrays
    per_chunk = max(1, BATCH_CELLS // max(eu.size, g.n, top + 1))
    conflicts: list[int] = []
    used: list[int] = []
    for start in range(0, arr.shape[0], per_chunk):
        t = arr[start : start + per_chunk].T.astype(dtype, order="C")
        conflicts += np.count_nonzero(t[eu] == t[ev], axis=0).tolist()
        present = np.zeros((top + 1, t.shape[1]), dtype=bool)
        present[t, np.arange(t.shape[1])] = True
        used += np.count_nonzero(present, axis=0).tolist()
    return (
        [cost_from_counts(c, u, params) for c, u in zip(conflicts, used)],
        conflicts,
        used,
    )


def is_valid(g: Graph, col: Sequence[int]) -> bool:
    return count_conflicts(g, col) == 0


def format_colouring(col: Sequence[int]) -> str:
    """Report serialization: space-separated colour indices in vertex order."""
    return " ".join(str(int(c)) for c in col)
