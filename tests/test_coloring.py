"""Penalised cost function checked against a from-scratch reimplementation."""

import numpy as np
import pytest

from colorica import coloring
from colorica.coloring import (
    CostParams,
    batch_costs,
    cost,
    count_conflicts,
    distinct_colours,
    format_colouring,
    is_valid,
)
from colorica.graphs import Graph, complete_graph
from colorica.oracle import chromatic_number_exact


def _random_graph(rng, n, p=0.5):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = rng.random(len(pairs)) < p
    return Graph(n, tuple(e for e, k in zip(pairs, keep) if k))


def _reference_cost(g, col, penalty):
    """Independent recomputation: plain edge scan plus set count."""
    clashes = 0
    for u, v in g.edges:
        if col[u - 1] == col[v - 1]:
            clashes += 1
    used = len(set(col))
    if clashes == 0:
        return used
    return clashes * penalty + used


class TestCountConflicts:
    def test_monochrome_triangle(self):
        assert count_conflicts(complete_graph(3), [1, 1, 1]) == 3

    def test_proper_triangle(self):
        assert count_conflicts(complete_graph(3), [1, 2, 3]) == 0

    def test_path_middle_clash(self):
        g = Graph(3, ((1, 2), (2, 3)))
        assert count_conflicts(g, [1, 1, 2]) == 1

    def test_edgeless_graph_never_conflicts(self):
        assert count_conflicts(Graph(4, ()), [7, 7, 7, 7]) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            count_conflicts(complete_graph(3), [1, 2])


class TestDistinctColours:
    def test_counts_unique_values(self):
        assert distinct_colours([4, 1, 4, 2]) == 3

    def test_gaps_in_values_are_fine(self):
        assert distinct_colours([10, 30]) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            distinct_colours([])


class TestCost:
    def test_proper_colouring_costs_its_colour_count(self):
        g = complete_graph(3)
        assert cost(g, [1, 2, 3], CostParams(penalty=3)) == 3

    def test_conflicting_colouring_pays_per_clash(self):
        g = complete_graph(3)
        # 3 clashes * 3 + 1 distinct
        assert cost(g, [1, 1, 1], CostParams(penalty=3)) == 10

    def test_for_graph_default_penalty_is_vertex_count(self):
        g = complete_graph(5)
        assert CostParams.for_graph(g).penalty == 5

    def test_nonpositive_penalty_rejected(self):
        with pytest.raises(ValueError):
            CostParams(penalty=0)

    def test_matches_reference_on_random_pairs(self):
        rng = np.random.default_rng(7)
        params_cache = {}
        for _ in range(200):
            n = int(rng.integers(1, 9))
            g = _random_graph(rng, n)
            col = rng.integers(1, n + 2, size=n)
            params = params_cache.setdefault(n, CostParams(penalty=n))
            assert cost(g, col, params) == _reference_cost(g, col, n)

    def test_penalty_dominance(self):
        # with penalty >= n any clash outweighs the worst proper colouring
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            g = _random_graph(rng, n, p=0.6)
            if g.m == 0:
                continue
            params = CostParams(penalty=n)
            proper = np.arange(1, n + 1)
            u, v = g.edges[0]
            clashing = proper.copy()
            clashing[v - 1] = clashing[u - 1]
            assert cost(g, clashing, params) > cost(g, proper, params)
            assert cost(g, proper, params) <= n

    def test_invariant_under_colour_relabelling(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            g = _random_graph(rng, n)
            col = rng.integers(1, 5, size=n)
            relabel = rng.permutation(4) + 1
            params = CostParams(penalty=n)
            assert cost(g, relabel[col - 1], params) == cost(g, col, params)

    def test_proper_cost_bounded_by_chromatic_number_and_n(self):
        rng = np.random.default_rng(17)
        params = CostParams(penalty=8)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = _random_graph(rng, n)
            chi = chromatic_number_exact(g)
            col = rng.integers(1, n + 1, size=n)
            if count_conflicts(g, col) == 0:
                assert chi <= cost(g, col, params) <= n


def _assert_rows_match(g, rows, params):
    """batch_costs agrees with the one-row functions on every row, int or float alike."""
    costs, conflicts, used = batch_costs(g, rows, params)
    assert len(costs) == len(conflicts) == len(used) == len(rows)
    for row, c, k, u in zip(rows, costs, conflicts, used):
        want = cost(g, row, params)
        assert c == want and type(c) is type(want)
        assert k == count_conflicts(g, row) and type(k) is int
        assert u == distinct_colours(row) and type(u) is int
    return costs, conflicts, used


class TestBatchCosts:
    def test_matches_one_row_functions_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(1, 12))
            g = _random_graph(rng, n, p=float(rng.random()))
            rows = rng.integers(1, int(rng.integers(1, n + 2)) + 1, size=(int(rng.integers(1, 40)), n))
            # an int penalty keeps clashing costs int, a float one makes them float
            _assert_rows_match(g, rows, CostParams(penalty=n if trial % 2 else float(n)))

    def test_clashing_and_proper_rows_together(self):
        g = complete_graph(4)
        costs, conflicts, used = _assert_rows_match(
            g, np.array([[1, 2, 3, 4], [1, 1, 2, 2], [3, 3, 3, 3]]), CostParams(4.0)
        )
        assert costs == [4, 10.0, 25.0] and conflicts == [0, 2, 6] and used == [4, 2, 1]

    def test_edgeless_graph(self):
        g = Graph(5, ())
        costs, conflicts, _ = _assert_rows_match(
            g, np.array([[1, 1, 1, 1, 1], [1, 2, 3, 2, 1]]), CostParams(5.0)
        )
        assert costs == [1, 3] and conflicts == [0, 0]

    def test_single_vertex(self):
        g = Graph(1, ())
        costs, _, _ = _assert_rows_match(g, np.array([[1], [7], [300]]), CostParams(1.0))
        assert costs == [1, 1, 1]

    def test_colours_above_255(self):
        # 1 and 257 (or 2 and 258) would be equal once narrowed to a byte
        g = complete_graph(3)
        rows = np.array([[1, 257, 2], [258, 2, 258], [255, 256, 511]])
        costs, conflicts, _ = _assert_rows_match(g, rows, CostParams(3.0))
        assert conflicts == [0, 1, 0]
        rng = np.random.default_rng(37)
        g = _random_graph(rng, 30, p=0.3)
        _assert_rows_match(g, rng.integers(1, 600, size=(50, 30)), CostParams(30.0))

    def test_sparse_colour_values(self):
        g = complete_graph(3)
        rows = np.array([[1, 65537, 10**12], [10**12, 5, 10**12], [0, -4, 0]])
        costs, conflicts, used = _assert_rows_match(g, rows, CostParams(3.0))
        assert conflicts == [0, 1, 1] and used == [3, 2, 2]

    def test_tiny_chunk_cap_splits_rows_in_order(self, monkeypatch):
        rng = np.random.default_rng(41)
        g = _random_graph(rng, 12, p=0.4)
        rows = rng.integers(1, 6, size=(25, 12))
        params = CostParams(12.0)
        whole = batch_costs(g, rows, params)
        # a cap below one row's cells puts every row in its own chunk
        monkeypatch.setattr(coloring, "BATCH_CELLS", 1)
        assert _assert_rows_match(g, rows, params) == whole
        monkeypatch.setattr(coloring, "BATCH_CELLS", 3 * g.m)
        assert batch_costs(g, rows, params) == whole

    def test_no_rows_and_wrong_width(self):
        g = complete_graph(3)
        assert batch_costs(g, np.empty((0, 3), dtype=np.int64), CostParams(3.0)) == ([], [], [])
        with pytest.raises(ValueError):
            batch_costs(g, np.ones((2, 4), dtype=np.int64), CostParams(3.0))
        with pytest.raises(ValueError):
            batch_costs(g, np.ones(3, dtype=np.int64), CostParams(3.0))


class TestValidityAndFormat:
    def test_is_valid_agrees_with_conflicts(self):
        g = complete_graph(3)
        assert is_valid(g, [1, 2, 3])
        assert not is_valid(g, [1, 1, 2])

    def test_format_is_space_separated_vertex_order(self):
        assert format_colouring([3, 1, 2]) == "3 1 2"

    def test_format_accepts_numpy_arrays(self):
        assert format_colouring(np.array([2, 2])) == "2 2"
