"""Exact small-instance chromatic numbers by backtracking search.

Exists only to anchor tests and benchmark success checks: refuses (raises)
rather than guessing when the vertex or node budget is exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


class OracleLimitExceeded(RuntimeError):
    """Search refused: a limit was hit before an answer was proven."""


@dataclass(frozen=True)
class OracleLimit:
    max_vertices: int = 32
    node_budget: int = 10**8

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise ValueError(f"max_vertices must be >= 1, got {self.max_vertices}")
        if self.node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {self.node_budget}")


def _check_vertices(g: Graph, limit: OracleLimit) -> None:
    if g.n > limit.max_vertices:
        raise OracleLimitExceeded(f"graph has {g.n} vertices, limit is {limit.max_vertices}")


def _greedy_clique(g: Graph) -> int:
    """Size of a greedily grown clique (descending degree order); lower bound on chi."""
    order = sorted(range(1, g.n + 1), key=lambda v: (-len(g.adjacency[v]), v))
    clique: set[int] = set()
    for v in order:
        if clique.issubset(g.adjacency[v]):
            clique.add(v)
    return len(clique)


def _search(g: Graph, k: int, budget: int) -> tuple[bool, int]:
    """Backtracking k-colourability check; returns (found, nodes used).

    Vertices are tried in descending-degree order and each vertex only tries
    colours up to one above the maximum used so far, which fixes the first
    vertex to colour 1 and breaks colour-permutation symmetry.
    """
    order = sorted(range(1, g.n + 1), key=lambda v: (-len(g.adjacency[v]), v))
    pos_of = {v: i for i, v in enumerate(order)}
    earlier = [
        tuple(pos_of[u] for u in g.adjacency[v] if pos_of[u] < i)
        for i, v in enumerate(order)
    ]
    # held[i] is position i's colour c as the bit 1 << c
    held = [0] * g.n
    # an explicit stack in place of recursion, so that a long path cannot
    # exhaust the recursion limit.  Position i's state is its untried colours,
    # as a bit mask (bit c for colour c, tried lowest first) without the colours
    # its earlier neighbours hold, and the bit of the highest colour used before
    # it (bit 0 before any); the stack holds that state for positions 0..i-1
    palette = (2 << k) - 2  # the bits of colours 1..k
    stack = []
    i, ceiling = 0, 1
    untried = 0b10 & palette
    nodes = 0
    while True:
        if untried:
            bit = untried & -untried
            untried ^= bit
            nodes += 1
            if nodes > budget:
                raise OracleLimitExceeded(f"node budget {budget} exhausted checking k={k}")
            held[i] = bit
            if i + 1 == g.n:
                return True, nodes
            stack.append((untried, ceiling))
            i += 1
            if bit > ceiling:
                ceiling = bit
            banned = 0
            for q in earlier[i]:
                banned |= held[q]
            # the colours up to one above the highest used, within 1..k
            untried = ((ceiling << 2) - 2) & palette & ~banned
        else:
            if not stack:
                return False, nodes
            untried, ceiling = stack.pop()
            i -= 1


def exists_colouring(g: Graph, k: int, limit: OracleLimit = OracleLimit()) -> bool:
    """True iff a proper k-colouring exists; raises OracleLimitExceeded on refusal."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_vertices(g, limit)
    found, _ = _search(g, k, limit.node_budget)
    return found


def chromatic_number_exact(g: Graph, limit: OracleLimit = OracleLimit()) -> int:
    """Smallest k admitting a proper colouring.

    Starts from a greedy-clique lower bound (instant on complete graphs) and
    increments k; the node budget is cumulative across the k-checks.
    """
    _check_vertices(g, limit)
    budget = limit.node_budget
    k = max(1, _greedy_clique(g))
    while True:
        found, used = _search(g, k, budget)
        if found:
            return k
        budget -= used
        k += 1
