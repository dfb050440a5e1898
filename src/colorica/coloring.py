"""Solution encoding and the penalised colouring cost.

A colouring is any length-n sequence of positive colour indices (vertex v's
colour at index v-1). Cost is `distinct colours used` for conflict-free
colourings and `conflicts * penalty + distinct colours used` otherwise, so
with penalty >= n every conflicting colouring costs more than every proper
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import MAX_VERTICES, Graph

# the memory budget of a batched array pass, in array cells: batch_counts caps
# its rows per chunk so that the gathered (edge, row) colour pairs, the
# (vertex, row) colour words and the (row, colour) presence mask each stay near
# it, and dica.descend does the same for its neighbour-colour table, whose one
# row alone is palette width x vertex count cells.
# A word is as wide as the largest colour needs, 1 to 8 bytes a cell, so up to
# 16 MB a chunk at the 16384-vertex bound; a ga run there peaks at the same RSS
# as with a 1-byte mask in their place, since its two population arrays set the
# peak, while words taken in smaller blocks raised that peak
BATCH_CELLS = 1 << 21


@dataclass(frozen=True)
class CostParams:
    """Penalty weight per conflicting edge, finite and > 0; >= n guarantees dominance."""

    penalty: float

    def __post_init__(self) -> None:
        if not 0.0 < self.penalty < math.inf:
            raise ValueError(f"penalty must be finite and > 0, got {self.penalty}")

    @classmethod
    def for_graph(cls, g: Graph) -> "CostParams":
        """The default penalty: the vertex count, as a float."""
        return cls(penalty=float(g.n))


def _as_array(g: Graph, col: Sequence[int]) -> np.ndarray:
    arr = np.asarray(col)
    if arr.ndim != 1 or arr.shape[0] != g.n:
        raise ValueError(f"colouring length {arr.shape} does not match n={g.n}")
    return arr


def count_conflicts(g: Graph, col: Sequence[int]) -> int:
    """Number of edges whose endpoints share a colour; 0 iff the colouring is proper."""
    arr = _as_array(g, col)
    eu, ev = g.edge_index_arrays
    return int(np.count_nonzero(arr[eu] == arr[ev]))


def distinct_colours(col: Sequence[int]) -> int:
    arr = np.asarray(col)
    if arr.size == 0:
        raise ValueError("empty colouring")
    return len(set(arr.tolist()))


def cost(g: Graph, col: Sequence[int], params: CostParams):
    """Penalised cost: distinct colours if proper, else conflicts * penalty + distinct."""
    return exact_cost(count_conflicts(g, col), distinct_colours(col), params)


def exact_cost(conflicts: int, used: int, params: CostParams):
    """The cost of a colouring with these counts: `used`, an int, if it is proper,
    else conflicts * penalty + used."""
    return used if conflicts == 0 else conflicts * params.penalty + used


def cost_array(conflicts: np.ndarray, used: np.ndarray, params: CostParams) -> np.ndarray:
    """The costs of count arrays as float64, each equal to its `exact_cost`."""
    return conflicts * float(params.penalty) + used


def _unpacked_popcount(words: np.ndarray) -> np.ndarray:
    """The set bits of each unsigned word, summed over its unpacked bytes."""
    return np.unpackbits(words.view(np.uint8)).reshape(words.size, 8 * words.itemsize).sum(axis=1)


# numpy 2.0 counts bits in one call; numpy 1.x sums the unpacked bits
_popcount = getattr(np, "bitwise_count", _unpacked_popcount)


def batch_counts(g: Graph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clash count and colour count of each row of a (count, n) colouring array,
    as two int64 arrays: what count_conflicts and distinct_colours give each row.

    Rows are transposed to (n, count) in the smallest unsigned dtype that holds
    the largest colour, so each edge compares two contiguous rows, and are taken
    in chunks of about BATCH_CELLS cells, in row order.  A chunk's clashes are
    summed in one reduce over its (edge, row) clash mask, in the smallest
    unsigned dtype that holds the edge count, so no count wraps.  When every
    colour is below 64, a row's colours are the set bits of one word, the OR of
    1 << colour over its cells, in the smallest unsigned dtype that holds the
    largest colour's bit; otherwise they are counted from one flat (row, colour)
    presence mask.  Colours outside 0..MAX_VERTICES are refused: engines draw
    them from 1..k_max, and k_max <= MAX_VERTICES bounds that mask.
    """
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != g.n:
        raise ValueError(f"colourings of shape {arr.shape} do not match n={g.n}")
    count = arr.shape[0]
    conflicts = np.zeros(count, dtype=np.int64)
    used = np.zeros(count, dtype=np.int64)
    if count == 0:
        return conflicts, used
    top = int(arr.max())
    if int(arr.min()) < 0 or top > MAX_VERTICES:
        raise ValueError(f"colours must be in 0..{MAX_VERTICES}, got {int(arr.min())}..{top}")
    dtype = np.min_scalar_type(top)
    eu, ev = g.edge_index_arrays
    clash_dtype = np.min_scalar_type(eu.size)
    word = np.min_scalar_type(1 << top) if top < 64 else None
    per_chunk = max(1, BATCH_CELLS // max(eu.size, g.n, top + 1))
    for start in range(0, count, per_chunk):
        t = arr[start : start + per_chunk].T.astype(dtype, order="C")
        width = t.shape[1]
        out = slice(start, start + width)
        # numpy casts the uint8 mask to clash_dtype in small buffers as it sums
        same = np.take(t, eu, axis=0) == np.take(t, ev, axis=0)
        conflicts[out] = np.add.reduce(same.view(np.uint8), axis=0, dtype=clash_dtype)
        if word is not None:
            words = np.left_shift(word.type(1), t, dtype=word)
            used[out] = _popcount(np.bitwise_or.reduce(words, axis=0))
        else:
            # column j's colour c marks cell j * (top + 1) + c of one flat presence mask
            present = np.zeros(width * (top + 1), dtype=bool)
            present[np.add(t, np.arange(0, present.size, top + 1), dtype=np.intp)] = True
            used[out] = np.count_nonzero(present.reshape(width, top + 1), axis=1)
    return conflicts, used


def is_valid(g: Graph, col: Sequence[int]) -> bool:
    return count_conflicts(g, col) == 0


def format_colouring(col: Sequence[int]) -> str:
    """Report serialization: space-separated colour indices in vertex order."""
    return " ".join(str(int(c)) for c in col)
