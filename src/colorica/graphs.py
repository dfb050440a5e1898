"""Undirected simple graphs, DIMACS .col I/O and benchmark-family generators.

Vertex ids are 1-based everywhere (DIMACS convention); edges are stored as a
deduplicated, sorted tuple of (u, v) pairs with u < v.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)

# the most vertices a Graph may have: at this bound the packed adjacency takes
# 32 MB and a 300-row int64 population 39 MB.  parse_dimacs and the generators
# check it before any O(n) allocation, and a Graph before its edge loop
MAX_VERTICES = 1 << 14

# the most edges parse_dimacs and the generators accept, checked before the
# edge tuples are built: K_1448, mycielski level 13 and the 86 x 86 queen
# board fit, and building K_1448 peaks near 250 MB
MAX_EDGES = 1 << 20


class DimacsFormatError(ValueError):
    """Malformed DIMACS colouring instance."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    Any iterable of vertex pairs may be passed as `edges`; construction
    normalizes each pair to (min, max), deduplicates, sorts, and rejects
    self-loops, out-of-range ids, more than MAX_VERTICES vertices and a
    vertex count or id that is not an integer; both are stored as Python ints.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"vertex count must be an integer, got {self.n!r}") from None
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        if n > MAX_VERTICES:
            raise ValueError(f"{n} vertices exceed the supported {MAX_VERTICES}")
        canonical = set()
        for u, v in self.edges:
            # stored as Python ints: a float id would be truncated by edge_index_arrays
            # and written by write_dimacs as a line parse_dimacs refuses
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"non-integer vertex id in edge ({u!r}, {v!r})") from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            canonical.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour list per vertex; index 0 is unused padding."""
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based endpoint arrays (u_idx, v_idx), used for fast conflict counts."""
        if not self.edges:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        arr = np.asarray(self.edges, dtype=np.intp) - 1
        return arr[:, 0].copy(), arr[:, 1].copy()

    @cached_property
    def packed_adjacency(self) -> np.ndarray:
        """0-based adjacency matrix, bit-packed along rows: (n, ceil(n / 8)) uint8.

        Row x unpacks with np.unpackbits(row, count=n) to x's 0/1 neighbour row.
        """
        packed = np.zeros((self.n, (self.n + 7) // 8), dtype=np.uint8)
        eu, ev = self.edge_index_arrays
        for a, b in ((eu, ev), (ev, eu)):
            np.bitwise_or.at(packed, (a, b >> 3), (128 >> (b & 7)).astype(np.uint8))
        return packed


@dataclass(frozen=True)
class GraphMeta:
    """Instance bookkeeping: a display name and, when known, the chromatic number."""

    name: str
    known_chromatic: int | None = None


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS `.col` instance.

    Accepts `c` comment lines, exactly one `p edge <n> <m>` line, and
    `e <u> <v>` edge lines. Duplicate and reversed edges collapse with a
    warning; a declared edge count that disagrees after dedup is also only
    warned about. Self-loops, out-of-range ids, a vertex count above
    MAX_VERTICES and more than MAX_EDGES distinct edges raise DimacsFormatError.
    """
    n = None
    declared_m = None
    seen: set[tuple[int, int]] = set()
    duplicates = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise DimacsFormatError(f"line {lineno}: duplicate p line")
            if len(parts) != 4 or parts[1] != "edge":
                raise DimacsFormatError(f"line {lineno}: malformed p line {raw!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsFormatError(f"line {lineno}: malformed p line {raw!r}") from exc
            if n < 1:
                raise DimacsFormatError(f"line {lineno}: vertex count must be positive")
            if n > MAX_VERTICES:
                raise DimacsFormatError(
                    f"line {lineno}: {n} vertices exceed the supported {MAX_VERTICES}"
                )
        elif parts[0] == "e":
            if n is None:
                raise DimacsFormatError(f"line {lineno}: edge line before p line")
            if len(parts) != 3:
                raise DimacsFormatError(f"line {lineno}: malformed edge line {raw!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise DimacsFormatError(f"line {lineno}: malformed edge line {raw!r}") from exc
            if u == v:
                raise DimacsFormatError(f"line {lineno}: self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsFormatError(f"line {lineno}: vertex id out of range in edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                duplicates += 1
            else:
                seen.add(key)
                if len(seen) > MAX_EDGES:
                    raise DimacsFormatError(
                        f"line {lineno}: more than the supported {MAX_EDGES} edges"
                    )
        else:
            raise DimacsFormatError(f"line {lineno}: malformed token {parts[0]!r}")

    if n is None:
        raise DimacsFormatError("missing p line")
    if duplicates:
        logger.warning("collapsed %d duplicate edge line(s)", duplicates)
    if declared_m != len(seen):
        logger.warning("declared m=%d but %d distinct edges parsed", declared_m, len(seen))
    return Graph(n, tuple(seen))


def write_dimacs(g: Graph) -> str:
    """Emit canonical DIMACS text: `p edge n m`, then sorted `e u v` lines (u < v)."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _check_size(what: str, n: int, m: int) -> None:
    """Refuse a generated graph of n vertices and m edges past either bound."""
    if n > MAX_VERTICES:
        raise ValueError(f"{what} has more than the supported {MAX_VERTICES} vertices")
    if m > MAX_EDGES:
        raise ValueError(f"{what} has {m} edges, more than the supported {MAX_EDGES}")


def complete_graph(k: int) -> Graph:
    """K_k: every pair of the k vertices adjacent; chromatic number k."""
    if k < 1:
        raise ValueError(f"complete graph needs k >= 1, got {k}")
    _check_size(f"complete graph {k}", k, k * (k - 1) // 2)
    edges = tuple((u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1))
    return Graph(k, edges)


def mycielski_graph(level: int) -> Graph:
    """Iterated Mycielskian starting from K2 at level 2.

    Each step maps (n, m) to (2n+1, 3m+n) and raises the chromatic number by
    one, so the level-k graph has chromatic number k while staying
    triangle-free.
    """
    if level < 2:
        raise ValueError(f"mycielski level must be >= 2, got {level}")
    # n more than doubles per step, so after MAX_VERTICES.bit_length() steps it
    # is past the bound, and a huge level costs no more than that
    vertices, m = 2, 1
    for _ in range(min(level - 2, MAX_VERTICES.bit_length())):
        vertices, m = 2 * vertices + 1, 3 * m + vertices
    _check_size(f"mycielski level {level}", vertices, m)
    n = 2
    edges: list[tuple[int, int]] = [(1, 2)]
    for _ in range(level - 2):
        apex = 2 * n + 1
        grown = list(edges)
        for u, v in edges:
            grown.append((u, n + v))  # shadow of v keeps v's neighbourhood
            grown.append((v, n + u))
        grown.extend((n + i, apex) for i in range(1, n + 1))
        edges = grown
        n = apex
    return Graph(n, tuple(edges))


def queen_graph(b: int) -> Graph:
    """b x b queen graph: cells adjacent when they share a row, column or diagonal."""
    if b < 1:
        raise ValueError(f"queen graph needs board size >= 1, got {b}")
    _check_size(f"queen graph {b}", b * b, b * (b - 1) * (5 * b - 1) // 3)
    cells = [(r, c) for r in range(1, b + 1) for c in range(1, b + 1)]
    vid = lambda r, c: (r - 1) * b + c
    edges = []
    for i, (r1, c1) in enumerate(cells):
        for r2, c2 in cells[i + 1:]:
            if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                edges.append((vid(r1, c1), vid(r2, c2)))
    return Graph(b * b, tuple(edges))


def max_degree(g: Graph) -> int:
    return max(len(neigh) for neigh in g.adjacency[1:])


GENERATORS = {
    "complete": complete_graph,
    "mycielski": mycielski_graph,
    "queen": queen_graph,
}

# Chromatic numbers known per generator family: complete and mycielski by
# construction, queen boards only where the benchmark suite records them.
_QUEEN_CHROMATIC = {5: 5, 7: 7}


def family_chromatic(family: str, param: int) -> int | None:
    if family in ("complete", "mycielski"):
        return param
    if family == "queen":
        return _QUEEN_CHROMATIC.get(param)
    raise ValueError(f"unknown generator family {family!r}")
