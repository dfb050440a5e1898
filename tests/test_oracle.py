"""Exact chromatic numbers: benchmark agreement and brute-force cross-checks."""

import numpy as np
import pytest

from colorica import oracle
from colorica.graphs import Graph, complete_graph, mycielski_graph, queen_graph
from colorica.oracle import (
    OracleLimit,
    OracleLimitExceeded,
    chromatic_number_exact,
    exists_colouring,
)


def _random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = rng.random(len(pairs)) < p
    return Graph(n, tuple(e for e, k in zip(pairs, keep) if k))


def _exhaustive_chromatic(g):
    """Dumbest possible oracle: score every colouring over colours 1..n.

    Enumerated in chunks by the first vertex's colour so n=8 stays in memory.
    """
    n = g.n
    eu, ev = g.edge_index_arrays
    count = n ** (n - 1)
    idx0 = np.arange(count)
    best = n
    for first in range(1, n + 1):
        cols = np.empty((count, n), dtype=np.int8)
        cols[:, 0] = first
        idx = idx0
        for pos in range(n - 1, 0, -1):
            cols[:, pos] = idx % n + 1
            idx = idx // n
        proper = np.ones(count, dtype=bool)
        for e in range(eu.size):
            proper &= cols[:, eu[e]] != cols[:, ev[e]]
        if proper.any():
            ordered = np.sort(cols[proper], axis=1)
            distinct = (np.diff(ordered, axis=1) != 0).sum(axis=1) + 1
            best = min(best, int(distinct.min()))
    return best


class TestKnownInstances:
    @pytest.mark.parametrize(
        "g,chi",
        [
            (complete_graph(15), 15),
            (complete_graph(20), 20),
            (mycielski_graph(4), 4),
            (mycielski_graph(5), 5),
            (queen_graph(5), 5),
        ],
        ids=["k15", "k20", "myciel3", "myciel4", "queen5_5"],
    )
    def test_benchmark_chromatic_numbers(self, g, chi):
        assert chromatic_number_exact(g) == chi
        assert exists_colouring(g, chi)
        assert not exists_colouring(g, chi - 1)

    def test_single_vertex(self):
        assert chromatic_number_exact(Graph(1, ())) == 1

    def test_edgeless_graph_needs_one_colour(self):
        assert chromatic_number_exact(Graph(5, ())) == 1

    def test_even_cycle_is_bipartite(self):
        g = Graph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)))
        assert chromatic_number_exact(g) == 2

    def test_odd_cycle_needs_three(self):
        g = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
        assert chromatic_number_exact(g) == 3

    def test_path_longer_than_the_recursion_limit(self):
        g = Graph(1500, tuple((v, v + 1) for v in range(1, 1500)))
        assert chromatic_number_exact(g, OracleLimit(max_vertices=5000)) == 2


class TestSearchNodes:
    # (found, nodes) for k = 1..6, as counted by the recursive search this replaced
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete_graph(15), [(False, k) for k in range(1, 7)]),
            (complete_graph(20), [(False, k) for k in range(1, 7)]),
            (
                mycielski_graph(4),
                [(False, 2), (False, 9), (False, 77), (True, 11), (True, 11), (True, 11)],
            ),
            (
                mycielski_graph(5),
                [(False, 3), (False, 19), (False, 230), (False, 32362), (True, 23), (True, 23)],
            ),
            (
                queen_graph(5),
                [(False, 1), (False, 2), (False, 3), (False, 7), (True, 31), (True, 37)],
            ),
        ],
        ids=["k15", "k20", "myciel3", "myciel4", "queen5_5"],
    )
    def test_node_counts_on_benchmark_instances(self, g, expected):
        assert [oracle._search(g, k, 10**8) for k in range(1, 7)] == expected

    def test_complete_graphs_at_their_chromatic_number(self):
        assert oracle._search(complete_graph(15), 15, 10**8) == (True, 15)
        assert oracle._search(complete_graph(20), 20, 10**8) == (True, 20)

    def test_budget_refusal_at_the_same_node(self):
        g = mycielski_graph(5)
        assert oracle._search(g, 4, 32362) == (False, 32362)
        with pytest.raises(OracleLimitExceeded, match="node budget 32361 exhausted checking k=4"):
            oracle._search(g, 4, 32361)


class TestCrossValidation:
    def test_agrees_with_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = _random_graph(rng, n)
            assert chromatic_number_exact(g) == _exhaustive_chromatic(g)

    def test_boundary_consistency_on_random_graphs(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = _random_graph(rng, n, p=0.6)
            chi = chromatic_number_exact(g)
            assert exists_colouring(g, chi)
            if chi > 1:
                assert not exists_colouring(g, chi - 1)

    def test_exhaustive_helper_on_known_graphs(self):
        # sanity-check the dumb oracle itself
        assert _exhaustive_chromatic(complete_graph(4)) == 4
        assert _exhaustive_chromatic(Graph(3, ((1, 2),))) == 2


class TestRefusal:
    def test_too_many_vertices(self):
        limit = OracleLimit(max_vertices=4)
        with pytest.raises(OracleLimitExceeded):
            chromatic_number_exact(complete_graph(5), limit)
        with pytest.raises(OracleLimitExceeded):
            exists_colouring(complete_graph(5), 3, limit)

    def test_node_budget_exhaustion(self):
        limit = OracleLimit(node_budget=2)
        with pytest.raises(OracleLimitExceeded):
            exists_colouring(complete_graph(5), 5, limit)

    def test_budget_is_cumulative_across_k(self):
        limit = OracleLimit(node_budget=50)
        with pytest.raises(OracleLimitExceeded):
            chromatic_number_exact(mycielski_graph(4), limit)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            exists_colouring(complete_graph(3), 0)

    @pytest.mark.parametrize("bad", [dict(max_vertices=0), dict(max_vertices=-3), dict(node_budget=0), dict(node_budget=-1)])
    def test_nonpositive_limits_rejected(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            OracleLimit(**bad)

    def test_within_limits_still_answers(self):
        limit = OracleLimit(max_vertices=15, node_budget=10**7)
        assert chromatic_number_exact(complete_graph(15), limit) == 15


def _iterator_search(g, k, budget):
    """The search as it was written before the bit-mask form: each position
    walks range(1, ceiling + 2) capped at k, skipping colours its earlier
    neighbours hold."""
    order = sorted(range(1, g.n + 1), key=lambda v: (-len(g.adjacency[v]), v))
    pos_of = {v: i for i, v in enumerate(order)}
    earlier = [
        tuple(pos_of[u] for u in g.adjacency[v] if pos_of[u] < i)
        for i, v in enumerate(order)
    ]
    colours = [0] * g.n
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


class TestBitMaskSearch:
    def test_same_answer_and_nodes_as_the_iterator_search(self):
        rng = np.random.default_rng(53)
        outcomes = set()
        for _ in range(300):
            n = int(rng.integers(1, 13))
            g = _random_graph(rng, n, p=float(rng.random()))
            for k in range(1, 6):
                want = _iterator_search(g, k, 10**8)
                assert oracle._search(g, k, 10**8) == want
                outcomes.add(want[0])
        assert outcomes == {True, False}

    def test_same_budget_refusal_as_the_iterator_search(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            g = _random_graph(rng, 12, p=0.5)
            k = int(rng.integers(2, 5))
            _, nodes = _iterator_search(g, k, 10**8)
            if nodes < 2:
                continue
            with pytest.raises(OracleLimitExceeded) as want:
                _iterator_search(g, k, nodes - 1)
            with pytest.raises(OracleLimitExceeded) as got:
                oracle._search(g, k, nodes - 1)
            assert str(got.value) == str(want.value)
