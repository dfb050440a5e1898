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


def _greedy_clique(g: Graph) -> int:
    """Size of a greedily grown clique (descending degree order); lower bound on chi."""
    order = sorted(range(1, g.n + 1), key=lambda v: (-len(g.adjacency[v]), v))
    neigh = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        neigh[u].add(v)
        neigh[v].add(u)
    clique: list[int] = []
    for v in order:
        if all(u in neigh[v] for u in clique):
            clique.append(v)
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
    colours = [0] * g.n
    # an explicit stack in place of recursion, so that a long path cannot
    # exhaust the recursion limit.  Position i's state is its untried colours,
    # the colours its earlier neighbours hold (a bit mask) and the highest
    # colour used before it; the stack holds that state for positions 0..i-1
    stack = []
    i, banned, ceiling = 0, 0, 0
    untried = iter(range(1, min(k, 1) + 1))
    nodes = 0
    while True:
        for c in untried:
            if banned >> c & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise OracleLimitExceeded(f"node budget {budget} exhausted checking k={k}")
            colours[i] = c
            if i + 1 == g.n:
                return True, nodes
            stack.append((untried, banned, ceiling))
            i += 1
            banned = 0
            for q in earlier[i]:
                banned |= 1 << colours[q]
            if c > ceiling:
                ceiling = c
            untried = iter(range(1, (ceiling + 1 if ceiling < k else k) + 1))
            break
        else:
            if not stack:
                return False, nodes
            untried, banned, ceiling = stack.pop()
            i -= 1


def exists_colouring(g: Graph, k: int, limit: OracleLimit = OracleLimit()) -> bool:
    """True iff a proper k-colouring exists; raises OracleLimitExceeded on refusal."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if g.n > limit.max_vertices:
        raise OracleLimitExceeded(
            f"graph has {g.n} vertices, limit is {limit.max_vertices}"
        )
    found, _ = _search(g, k, limit.node_budget)
    return found


def chromatic_number_exact(g: Graph, limit: OracleLimit = OracleLimit()) -> int:
    """Smallest k admitting a proper colouring.

    Starts from a greedy-clique lower bound (instant on complete graphs) and
    increments k; the node budget is cumulative across the k-checks.
    """
    if g.n > limit.max_vertices:
        raise OracleLimitExceeded(
            f"graph has {g.n} vertices, limit is {limit.max_vertices}"
        )
    budget = limit.node_budget
    k = max(1, _greedy_clique(g))
    while True:
        found, used = _search(g, k, budget)
        if found:
            return k
        budget -= used
        k += 1
