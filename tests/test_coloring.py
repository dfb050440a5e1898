"""Penalised cost function checked against a from-scratch reimplementation."""

import tracemalloc

import numpy as np
import pytest

from colorica import coloring
from colorica.coloring import (
    CostParams,
    batch_counts,
    cost,
    cost_array,
    count_conflicts,
    distinct_colours,
    exact_cost,
    format_colouring,
    is_valid,
)
from colorica.engine import SearchParams
from colorica.graphs import MAX_VERTICES, Graph, complete_graph
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

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_penalty_rejected(self, penalty):
        with pytest.raises(ValueError, match="penalty must be finite and > 0"):
            CostParams(penalty)

    def test_default_penalty_is_the_engines_float(self):
        g = complete_graph(5)
        penalty = CostParams.for_graph(g).penalty
        assert type(penalty) is float and penalty == g.n
        assert penalty == SearchParams().cost_params(g).penalty

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


def _batch_costs(g, rows, params):
    """Each row's exact cost, clash count and colour count, as lists, from one
    `batch_counts` call and `exact_cost` per row."""
    conflicts, used = (counts.tolist() for counts in batch_counts(g, rows))
    return [exact_cost(c, u, params) for c, u in zip(conflicts, used)], conflicts, used


def _assert_rows_match(g, rows, params):
    """The exact costs of batch_counts agree with the one-row functions on every
    row, int or float alike, and its cost_array with them as float64."""
    costs, conflicts, used = _batch_costs(g, rows, params)
    assert len(costs) == len(conflicts) == len(used) == len(rows)
    for row, c, k, u in zip(rows, costs, conflicts, used):
        want = cost(g, row, params)
        assert c == want and type(c) is type(want)
        assert k == count_conflicts(g, row) and type(k) is int
        assert u == distinct_colours(row) and type(u) is int
    as_floats = cost_array(*batch_counts(g, rows), params)
    assert as_floats.dtype == np.float64 and as_floats.tolist() == [float(c) for c in costs]
    return costs, conflicts, used


class TestBatchCosts:
    """Costs from `batch_counts` through `exact_cost` per row and `cost_array`."""

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
        # edge counts either side of the largest a uint8 and a uint16 clash sum hold
        wide = complete_graph(363)
        for m in (255, 256, 65_535, 65_536):
            g = Graph(363, wide.edges[:m])
            rows = np.array([np.ones(363, dtype=np.int64), np.arange(1, 364), np.arange(363) % 2 + 1])
            _, conflicts, _ = _assert_rows_match(g, rows, CostParams(363.0))
            assert conflicts[:2] == [m, 0]

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

    def test_tiny_chunk_cap_splits_rows_in_order(self, monkeypatch):
        rng = np.random.default_rng(41)
        g = _random_graph(rng, 12, p=0.4)
        rows = rng.integers(1, 6, size=(25, 12))
        params = CostParams(12.0)
        whole = _batch_costs(g, rows, params)
        # a cap below one row's cells puts every row in its own chunk
        monkeypatch.setattr(coloring, "BATCH_CELLS", 1)
        assert _assert_rows_match(g, rows, params) == whole
        monkeypatch.setattr(coloring, "BATCH_CELLS", 3 * g.m)
        assert _batch_costs(g, rows, params) == whole

    @pytest.mark.parametrize("penalty", [400, 400.0])
    def test_more_clashes_than_a_uint16_holds(self, penalty):
        # 79,800 edges: one block of the clash count cannot hold them all
        g = complete_graph(400)
        rows = np.array([np.ones(400, dtype=np.int64), np.arange(1, 401), np.arange(400) % 2 + 1])
        costs, conflicts, used = _assert_rows_match(g, rows, CostParams(penalty))
        assert conflicts == [79_800, 0, 2 * 19_900]
        assert used == [1, 400, 2]
        assert costs == [79_800 * penalty + 1, 400, 39_800 * penalty + 2]
        assert [type(c) for c in costs] == [type(penalty), int, type(penalty)]
        assert all(type(c) is int for c in conflicts + used)
        assert conflicts == [count_conflicts(g, row) for row in rows]
        # the clashes are summed in uint32 straight from the clash mask: in two
        # colours, the peak holds the two gathered (edge, row) uint8 colour
        # arrays and the mask, 3 bytes a cell, where a uint32 copy of the mask
        # beside the mask would take 5
        narrow = rows[[0, 2]]
        tracemalloc.start()
        try:
            batch_counts(g, narrow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.m * len(narrow)

    def test_no_rows_and_wrong_width(self):
        g = complete_graph(3)
        assert _batch_costs(g, np.empty((0, 3), dtype=np.int64), CostParams(3.0)) == ([], [], [])
        assert cost_array(*batch_counts(g, np.empty((0, 3), dtype=np.int64)), CostParams(3.0)).shape == (0,)
        with pytest.raises(ValueError):
            batch_counts(g, np.ones((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            batch_counts(g, np.ones(3, dtype=np.int64))


def _assert_counts_match(g, rows):
    """batch_counts agrees with count_conflicts and distinct_colours on every row."""
    conflicts, used = batch_counts(g, rows)
    assert conflicts.dtype == used.dtype == np.int64
    assert conflicts.shape == used.shape == (len(rows),)
    assert conflicts.tolist() == [count_conflicts(g, row) for row in rows]
    assert used.tolist() == [distinct_colours(row) for row in rows]
    return conflicts, used


class TestBatchCounts:
    @pytest.fixture(params=["popcount", "swar"])
    def popcount(self, request, monkeypatch):
        # numpy 1.x has no bitwise_count, so its word count is the unpacked one;
        # the case keeps its earlier "swar" id
        if request.param == "swar":
            monkeypatch.setattr(coloring, "_popcount", coloring._unpacked_popcount)

    @pytest.mark.parametrize("palette", [1, 7, 8, 15, 16, 31, 32, 63, 64, 65])
    @pytest.mark.parametrize("lowest", [0, 1])
    def test_palettes_either_side_of_one_word(self, palette, lowest, popcount):
        # colours lowest..lowest + palette - 1: largest colours of 7, 15, 31 and
        # 63 are the last a uint8, uint16, uint32 and uint64 word marks, 64 and
        # above take the presence mask
        rng = np.random.default_rng(palette + 100 * lowest)
        g = _random_graph(rng, 70, p=0.15)
        rows = rng.integers(lowest, lowest + palette, size=(40, 70))
        rows[0] = np.arange(70) % palette + lowest
        rows[1] = lowest + palette - 1
        conflicts, used = _assert_counts_match(g, rows)
        assert used[0] == palette and used[1] == 1 and conflicts[1] == g.m

    def test_palette_wider_than_the_cells(self, popcount):
        # colours 0..MAX_VERTICES over 750 cells: few distinct values, then many
        rng = np.random.default_rng(43)
        g = _random_graph(rng, 30, p=0.3)
        few = rng.choice([0, 7, 63, 64, MAX_VERTICES], size=(25, 30))
        many = rng.integers(0, MAX_VERTICES + 1, size=(25, 30))
        many[0], many[1] = 0, MAX_VERTICES
        for rows in (few, many, np.concatenate((few, many))):
            _assert_counts_match(g, rows)

    @pytest.mark.parametrize("bad", [-1, MAX_VERTICES + 1])
    def test_colour_outside_the_range_is_refused(self, bad):
        rows = np.ones((4, 3), dtype=np.int64)
        rows[2, 1] = bad
        with pytest.raises(ValueError, match=f"colours must be in 0..{MAX_VERTICES}, got "):
            batch_counts(complete_graph(3), rows)

    @pytest.mark.parametrize("palette", [6, 100])
    def test_tiny_chunk_cap_splits_rows_in_order(self, palette, popcount, monkeypatch):
        rng = np.random.default_rng(palette)
        g = _random_graph(rng, 120, p=0.05)
        rows = rng.integers(1, palette + 1, size=(30, 120))
        whole = batch_counts(g, rows)
        # a cap below one row's cells puts every row in its own chunk
        monkeypatch.setattr(coloring, "BATCH_CELLS", 1)
        split = _assert_counts_match(g, rows)
        assert all(np.array_equal(a, b) for a, b in zip(split, whole))

    def test_swar_popcount(self):
        # every word width batch_counts marks colours in
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
            bits = 8 * np.dtype(dtype).itemsize
            top = 2**bits - 1
            words = np.array(
                [0, 1, 2 ** (bits - 1), top, 0x5555555555555555 & top, 0xF0F0F0F0F0F0F0F0 & top, 2 ** (bits - 2) + 3],
                dtype=dtype,
            )
            words = np.concatenate((words, np.random.default_rng(3).integers(0, top, 200, dtype=dtype, endpoint=True)))
            want = [bin(w).count("1") for w in words.tolist()]
            assert coloring._unpacked_popcount(words).tolist() == want
            assert np.asarray(coloring._popcount(words)).tolist() == want

    def test_no_rows_and_wrong_width(self):
        g = complete_graph(3)
        conflicts, used = batch_counts(g, np.empty((0, 3), dtype=np.int64))
        assert conflicts.shape == used.shape == (0,) and conflicts.dtype == used.dtype == np.int64
        with pytest.raises(ValueError):
            batch_counts(g, np.ones((2, 4), dtype=np.int64))


class TestValidityAndFormat:
    def test_is_valid_agrees_with_conflicts(self):
        g = complete_graph(3)
        assert is_valid(g, [1, 2, 3])
        assert not is_valid(g, [1, 1, 2])

    def test_format_is_space_separated_vertex_order(self):
        assert format_colouring([3, 1, 2]) == "3 1 2"

    def test_format_accepts_numpy_arrays(self):
        assert format_colouring(np.array([2, 2])) == "2 2"
