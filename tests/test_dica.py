"""Imperialist-style engine: operator worked examples, contracts, run invariants."""

import math
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from colorica.coloring import (
    BATCH_CELLS,
    CostParams,
    batch_counts,
    cost,
    count_conflicts,
    distinct_colours,
    exact_cost,
    is_valid,
)
from colorica import dica
from colorica.dica import (
    DicaParams,
    Empires,
    assimilate,
    assimilate_at,
    colony_step,
    descend,
    exchange_if_better,
    form_empires,
    imperialistic_competition,
    init_population,
    neighbour_table,
    normalized_distance,
    revolve,
    revolve_at,
    run_dica,
    unite_similar_empires,
)
from colorica.engine import (
    TERMINATED_DECADES,
    TERMINATED_EARLY_STOP,
    TERMINATED_SINGLE_EMPIRE,
    rank,
    roulette_wheel,
    spin,
)
from colorica.graphs import MAX_VERTICES, Graph, complete_graph, mycielski_graph, queen_graph


def _stack(*empires):
    """Empires from (imperialist, imperialist cost, colonies, colony costs) tuples."""
    n = len(empires[0][0])
    return Empires(
        np.array([imp for imp, _, _, _ in empires]),
        np.array([cost for _, cost, _, _ in empires], dtype=np.float64),
        np.array([col for _, _, cols, _ in empires for col in cols], dtype=np.int64).reshape(-1, n),
        np.array([c for _, _, _, costs in empires for c in costs], dtype=np.float64),
        [len(cols) for _, _, cols, _ in empires],
    )


def _empires(*specs, n=4):
    """Empires from (imperialist cost, colony costs) pairs; every row is a different colouring."""
    rows = iter(np.arange(1, 1 + n * (len(specs) + sum(len(c) for _, c in specs))).reshape(-1, n))
    return _stack(*[(next(rows), cost, [next(rows) for _ in costs], costs) for cost, costs in specs])


def _state(empires):
    """Each empire's imperialist row and cost and its colony rows and costs, as lists."""
    return [[e.imperialist.tolist(), e.imperialist_cost, e.colonies.tolist(), list(e.colony_costs)] for e in empires]


class TestAssimilate:
    def test_worked_example(self):
        child = assimilate_at([1, 2, 3, 2, 1], [3, 1, 1, 1, 2], 2, 3)
        assert child.tolist() == [3, 2, 3, 1, 2]

    def test_full_segment_copies_imperialist(self):
        child = assimilate_at([1, 2, 3], [3, 3, 3], 1, 3)
        assert child.tolist() == [1, 2, 3]

    def test_equal_parents_fixed_point(self):
        for c1, c2 in [(1, 1), (2, 4), (1, 5)]:
            child = assimilate_at([2, 1, 2, 1, 2], [2, 1, 2, 1, 2], c1, c2)
            assert child.tolist() == [2, 1, 2, 1, 2]

    def test_locality_everywhere(self):
        rng = np.random.default_rng(3)
        n = 6
        for _ in range(20):
            imp = rng.integers(1, 4, size=n)
            col = rng.integers(1, 4, size=n)
            for c1 in range(1, n + 1):
                for c2 in range(c1, n + 1):
                    child = assimilate_at(imp, col, c1, c2)
                    np.testing.assert_array_equal(child[c1 - 1 : c2], imp[c1 - 1 : c2])
                    np.testing.assert_array_equal(child[: c1 - 1], col[: c1 - 1])
                    np.testing.assert_array_equal(child[c2:], col[c2:])

    def test_inputs_left_untouched(self):
        imp = np.array([1, 2, 3])
        col = np.array([3, 2, 1])
        child = assimilate_at(imp, col, 1, 2)
        assert col.tolist() == [3, 2, 1]
        assert child is not col and child is not imp

    @pytest.mark.parametrize("c1,c2", [(0, 2), (2, 6), (4, 2)])
    def test_bad_cut_points(self, c1, c2):
        with pytest.raises(ValueError):
            assimilate_at([1] * 5, [2] * 5, c1, c2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            assimilate_at([1, 2], [1, 2, 3], 1, 1)

    def test_random_cuts_are_some_legal_segment(self):
        rng = np.random.default_rng(5)
        imp = np.array([1, 2, 3, 4, 5])
        col = np.array([5, 4, 3, 2, 1])
        legal = {
            tuple(assimilate_at(imp, col, c1, c2).tolist())
            for c1 in range(1, 6)
            for c2 in range(c1, 6)
        }
        for _ in range(50):
            assert tuple(assimilate(imp, col, rng).tolist()) in legal


class TestRevolve:
    def test_worked_example(self):
        child = revolve_at([3, 2, 1, 1, 2], 2, 4)
        assert child.tolist() == [3, 1, 1, 2, 2]

    def test_swapping_equal_values_is_identity(self):
        assert revolve_at([1, 2, 2, 1], 2, 3).tolist() == [1, 2, 2, 1]

    def test_multiset_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            col = rng.integers(1, 5, size=8)
            child = revolve(col, rng)
            assert sorted(child.tolist()) == sorted(col.tolist())
            assert distinct_colours(child) == distinct_colours(col)

    def test_changes_at_most_two_positions(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            col = rng.integers(1, 5, size=8)
            child = revolve(col, rng)
            assert int(np.count_nonzero(child != col)) in (0, 2)

    def test_single_cell_colouring_unchanged(self):
        rng = np.random.default_rng(1)
        assert revolve(np.array([4]), rng).tolist() == [4]

    @pytest.mark.parametrize("p1,p2", [(0, 2), (1, 6), (3, 3)])
    def test_bad_positions(self, p1, p2):
        with pytest.raises(ValueError):
            revolve_at([1, 2, 3, 4, 5], p1, p2)

    def test_does_not_mutate_input(self):
        col = np.array([1, 2, 3])
        revolve_at(col, 1, 3)
        assert col.tolist() == [1, 2, 3]


class TestInitPopulation:
    def test_shapes_and_range(self):
        g = mycielski_graph(4)
        params = DicaParams(population_size=300, k_max=6)
        pop = init_population(g, params, np.random.default_rng(1))
        assert len(pop) == 300
        for country in pop:
            assert country.shape == (11,)
            assert country.min() >= 1 and country.max() <= 6

    def test_every_country_holds_the_balanced_palette(self):
        g = complete_graph(6)
        params = DicaParams(population_size=40, k_max=4)
        pop = init_population(g, params, np.random.default_rng(2))
        palette = sorted((np.arange(6) % 4 + 1).tolist())
        for country in pop:
            assert sorted(country.tolist()) == palette

    def test_deterministic_by_seed(self):
        g = complete_graph(5)
        params = DicaParams(population_size=10)
        a = init_population(g, params, np.random.default_rng(42))
        b = init_population(g, params, np.random.default_rng(42))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_one_permutation_per_row_in_row_order(self):
        g = mycielski_graph(4)
        params = DicaParams(population_size=7, k_max=3)
        rng = np.random.default_rng(5)
        base = np.arange(g.n) % 3 + 1
        want = [base[rng.permutation(g.n)].tolist() for _ in range(7)]
        assert [row.tolist() for row in init_population(g, params, np.random.default_rng(5))] == want

    def test_single_vertex_graph(self):
        g = Graph(1, ())
        pop = init_population(g, DicaParams(population_size=5), np.random.default_rng(0))
        assert all(c.tolist() == [1] for c in pop)

    def test_default_colour_range_is_max_degree_plus_one(self):
        g = complete_graph(4)
        pop = init_population(g, DicaParams(population_size=50), np.random.default_rng(3))
        assert max(int(c.max()) for c in pop) == 4


class TestPalette:
    def test_default_is_max_degree_plus_one(self):
        assert DicaParams().palette(complete_graph(3)) == 3
        assert DicaParams().palette(mycielski_graph(4)) == 6

    def test_explicit_value_wins(self):
        assert DicaParams(k_max=7).palette(complete_graph(3)) == 7

    def test_zero_is_refused_when_the_params_are_made(self):
        with pytest.raises(ValueError, match="k_max must be in 1..16384, got 0"):
            DicaParams(k_max=0)


class TestFormEmpires:
    def test_thirty_empires_from_three_hundred(self):
        rng = np.random.default_rng(11)
        countries = [np.array([i]) for i in range(300)]
        costs = list(range(300))
        empires = form_empires(countries, costs, 30, rng)
        assert len(empires) == 30
        assert sum(len(e.colonies) for e in empires) == 270
        assert sum(e.size() for e in empires) == 300

    def test_cheapest_countries_become_imperialists(self):
        rng = np.random.default_rng(13)
        countries = [np.array([i]) for i in range(6)]
        costs = [9, 2, 9, 1, 9, 9]
        empires = form_empires(countries, costs, 2, rng)
        assert empires[0].imperialist_cost == 1
        assert empires[1].imperialist_cost == 2

    def test_equal_power_splits_evenly(self):
        rng = np.random.default_rng(17)
        countries = [np.array([i]) for i in range(12)]
        costs = [5, 5] + [8] * 10
        empires = form_empires(countries, costs, 2, rng)
        assert [len(e.colonies) for e in empires] == [5, 5]

    def test_equal_fractions_give_the_extra_colonies_to_the_lower_index(self):
        # three equal quotas of 4/3 colonies: floors of 1, and the one left over goes to empire 0;
        # costs 1, 2, 3 give quotas 4/3, 2/3 and 0 of 2: floors 1, 0, 0, then the larger fraction
        for costs, want in (([5, 5, 5] + [8] * 4, [2, 1, 1]), ([1, 2, 3] + [9] * 2, [1, 1, 0])):
            countries = [np.array([i]) for i in range(len(costs))]
            empires = form_empires(countries, costs, 3, np.random.default_rng(37))
            assert [len(e.colonies) for e in empires] == want

    def test_all_power_to_the_cheaper_imperialist(self):
        # costs (4, 6): shifted (-2, 0), so the cost-4 empire takes every colony
        rng = np.random.default_rng(19)
        countries = [np.array([i]) for i in range(5)]
        costs = [4, 6, 7, 8, 9]
        empires = form_empires(countries, costs, 2, rng)
        assert len(empires[0].colonies) == 3
        assert len(empires[1].colonies) == 0

    def test_colonies_partition_the_rest(self):
        rng = np.random.default_rng(23)
        countries = [np.array([i]) for i in range(20)]
        costs = [float(i % 7) for i in range(20)]
        empires = form_empires(countries, costs, 4, rng)
        dealt = [int(c[0]) for e in empires for c in e.colonies]
        imps = [int(e.imperialist[0]) for e in empires]
        assert sorted(dealt + imps) == list(range(20))

    def test_cached_costs_match(self):
        rng = np.random.default_rng(29)
        countries = [np.array([i]) for i in range(8)]
        costs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.0, 6.0, 5.0]
        for e in form_empires(countries, costs, 3, rng):
            assert e.imperialist_cost == costs[int(e.imperialist[0])]
            for c, cc in zip(e.colonies, e.colony_costs):
                assert cc == costs[int(c[0])]

    def test_colony_counts_follow_the_quotas(self):
        # costs with ties, all-equal runs and near-ties: every colony is dealt,
        # and each empire's count is within 1 of its share of the colonies
        rng = np.random.default_rng(31)
        for trial in range(400):
            size = int(rng.integers(2, 80))
            n_imp = int(rng.integers(1, size))
            kind = trial % 4
            if kind == 0:
                costs = rng.integers(1, 6, size=size).tolist()
            elif kind == 1:
                costs = [7.0] * size
            elif kind == 2:
                costs = (rng.random(size) * 1e3).tolist()
            else:
                costs = (5.0 + rng.integers(0, 3, size=size) * 1e-12).tolist()
            countries = [np.array([i]) for i in range(size)]
            empires = form_empires(countries, costs, n_imp, rng)
            got = [len(e.colonies) for e in empires]
            dealt = size - n_imp
            assert sum(got) == dealt
            imp_costs = [e.imperialist_cost for e in empires]
            shifted = [c - max(imp_costs) for c in imp_costs]
            total = sum(shifted)
            quotas = [s / total * dealt if total else dealt / n_imp for s in shifted]
            assert all(abs(c - q) <= 1 for c, q in zip(got, quotas))

    def test_bad_arguments(self):
        rng = np.random.default_rng(1)
        countries = [np.array([0]), np.array([1])]
        with pytest.raises(ValueError):
            form_empires(countries, [1.0], 1, rng)
        with pytest.raises(ValueError):
            form_empires(countries, [1.0, 2.0], 2, rng)
        with pytest.raises(ValueError):
            form_empires(countries, [1.0, 2.0], 0, rng)


def _descend_costs(g, cols, steps, cp, rng):
    """`descend`'s rows, with each row's `exact_cost` from the `batch_counts`
    of the rows, as `run_dica` counts them."""
    out = descend(g, cols, steps, rng)
    clashes, used = batch_counts(g, out)
    return out, [exact_cost(c, u, cp) for c, u in zip(clashes.tolist(), used.tolist())]


class TestDescend:
    def test_clash_directed_swaps_never_raise_the_cost(self):
        g = mycielski_graph(5)
        cp = CostParams.for_graph(g)
        rng = np.random.default_rng(21)
        out = np.stack([rng.permutation(np.arange(g.n) % 5 + 1) for _ in range(3)])
        improved = 0
        # chained single steps reach local minima, where no swap may be taken
        for _ in range(40):
            cols = out
            kept = cols.copy()
            out, out_costs = _descend_costs(g, cols, 1, cp, rng)
            assert cols.tolist() == kept.tolist()
            for col, row, row_cost in zip(cols, out, out_costs):
                assert sorted(row.tolist()) == sorted(col.tolist())
                assert row_cost == cost(g, row, cp)
                assert row_cost <= cost(g, col, cp)
                improved += row_cost < cost(g, col, cp)
                moved = np.flatnonzero(row != col).tolist()
                assert len(moved) in (0, 2)

                def clashes_after(p, q):
                    c = col.copy()
                    c[p], c[q] = c[q], c[p]
                    return count_conflicts(g, c)

                def best_swap(p):
                    return min(clashes_after(p, q) for q in range(g.n) if col[q] != col[p])

                clashing = [
                    p
                    for p in (moved or range(g.n))
                    if any(col[u - 1] == col[p] for u in g.adjacency[p + 1])
                ]
                if moved:
                    # one moved cell was a clashing vertex, and no swap of it does better
                    assert any(best_swap(p) == count_conflicts(g, row) for p in clashing)
                elif clashing:
                    # staying put means the drawn vertex had only clash-raising swaps
                    assert any(best_swap(p) > count_conflicts(g, col) for p in clashing)
        assert improved > 0

        proper = np.array([[1, 2, 3, 4], [4, 3, 2, 1]])
        out, out_costs = _descend_costs(complete_graph(4), proper, 3, CostParams(4.0), rng)
        assert out.tolist() == proper.tolist() and out_costs == [4, 4]

        cols = np.stack([rng.permutation(np.arange(g.n) % 5 + 1) for _ in range(4)])
        a = _descend_costs(g, cols, 3, cp, np.random.default_rng(5))
        b = _descend_costs(g, cols, 3, cp, np.random.default_rng(5))
        assert a[0].tolist() == b[0].tolist() and a[1] == b[1]

    def test_costs_match_cost_value_and_type(self):
        g = mycielski_graph(5)
        rng = np.random.default_rng(13)
        greedy = []
        for v in range(1, g.n + 1):
            taken = {greedy[u - 1] for u in g.adjacency[v] if u < v}
            greedy.append(min(c for c in range(1, g.n + 1) if c not in taken))
        gaps = np.array([0, 1, 3, 7, 8, 12, 20])  # colour c becomes gaps[c]
        cols = np.array(
            [greedy, gaps[greedy]]
            + [rng.permutation(np.arange(g.n) % 5 + 1) for _ in range(3)]
            + [gaps[rng.permutation(np.arange(g.n) % 6 + 1)] for _ in range(3)]
        )
        assert is_valid(g, cols[0]) and is_valid(g, cols[1])
        assert not any(is_valid(g, col) for col in cols[2:])
        for cp in (CostParams.for_graph(g), CostParams(float(g.n)), CostParams(0.5)):
            for steps in (0, 1, 4):
                out, out_costs = _descend_costs(g, cols, steps, cp, np.random.default_rng(steps))
                assert len(out_costs) == len(cols)
                for row, row_cost in zip(out, out_costs):
                    want = cost(g, row, cp)
                    assert row_cost == want and type(row_cost) is type(want)
                # proper rows come back as ints, clashing rows as int or float with the penalty
                assert [type(c) for c in out_costs[:2]] == [int, int]

    def test_large_batches_are_split_in_row_order(self, monkeypatch):
        g = mycielski_graph(5)
        cp = CostParams.for_graph(g)
        rng = np.random.default_rng(8)
        cols = np.stack([rng.permutation(np.arange(g.n) % 5 + 1) for _ in range(5)])
        # a cap below one row's table makes every row its own batch
        monkeypatch.setattr(dica, "BATCH_CELLS", 1)
        out, out_costs = _descend_costs(g, cols, 4, cp, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for col, row, row_cost in zip(cols, out, out_costs):
            alone, alone_costs = _descend_costs(g, col[None], 4, cp, rng)
            assert row.tolist() == alone[0].tolist() and row_cost == alone_costs[0]

    def test_proper_rows_of_a_wide_palette_build_no_table(self):
        # the default k_max on a star is n, so one row's neighbour-colour table
        # alone would be 4001 x 4000 int64 cells, 128 MB, far past BATCH_CELLS
        n = 4000
        g = Graph(n, tuple((1, v) for v in range(2, n + 1)))
        g.edge_index_arrays
        params = DicaParams(population_size=10, decades=1, rng_seed=3)
        tracemalloc.start()
        try:
            result = run_dica(g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.conflicts == 0
        assert peak < 8 * BATCH_CELLS

    def test_clashing_rows_of_a_wide_palette_build_no_table(self, monkeypatch):
        # a degree-1000 hub sets the default k_max to 1001, so one row's table
        # would be 1002 x 4000 int64 cells, 32 MB; the chain makes rows clash
        n = 4000
        g = Graph(n, tuple((1, v) for v in range(2, 1002)) + tuple((v, v + 1) for v in range(2, n)))
        g.edge_index_arrays
        built = self._recording_tables(monkeypatch)
        clashing = []
        real = dica._descend_wide

        def recording(g, row, steps, rng):
            clashing.append(bool((row[:, g.edge_index_arrays[0]] == row[:, g.edge_index_arrays[1]]).any()))
            return real(g, row, steps, rng)

        monkeypatch.setattr(dica, "_descend_wide", recording)
        tracemalloc.start()
        try:
            run_dica(g, DicaParams(population_size=10, decades=2, rng_seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [] and any(clashing)
        assert peak < 8 * BATCH_CELLS

    @staticmethod
    def _recording_tables(monkeypatch):
        """Record the cells of every `neighbour_table` dica builds."""
        built = []
        real = dica.neighbour_table

        def recording(g, rows, width):
            built.append(rows.shape[0] * width * g.n)
            return real(g, rows, width)

        monkeypatch.setattr(dica, "neighbour_table", recording)
        return built

    # K_60 at k_max 30: every row clashes, one row's table is 31 x 60 = 1860
    # cells and 2m = 3540, so under either cap each row goes alone; at 2000 it
    # is tabled, at 1000 it is descended without its table
    @pytest.mark.parametrize("seed", range(4))
    def test_a_row_too_wide_to_table_descends_the_same_without_it(self, monkeypatch, seed):
        g = complete_graph(60)
        rows = np.random.default_rng(seed).integers(1, 31, size=(3, 60))
        monkeypatch.setattr(dica, "BATCH_CELLS", 2000)
        want = descend(g, rows, 6, np.random.default_rng(seed))
        built = self._recording_tables(monkeypatch)
        monkeypatch.setattr(dica, "BATCH_CELLS", 1000)
        got = descend(g, rows, 6, np.random.default_rng(seed))
        assert built == []
        np.testing.assert_array_equal(got, want)
        assert (got != rows).any()
        # a proper row of the same width comes back as it went in
        proper = np.arange(60)[None] + 1
        np.testing.assert_array_equal(descend(g, proper, 6, np.random.default_rng(seed)), proper)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_a_run_past_the_table_bound_builds_no_table(self, monkeypatch, seed):
        g = complete_graph(60)
        params = DicaParams(population_size=10, decades=3, k_max=30, rng_seed=seed)
        monkeypatch.setattr(dica, "BATCH_CELLS", 2000)
        want = run_dica(g, params)
        built = self._recording_tables(monkeypatch)
        monkeypatch.setattr(dica, "BATCH_CELLS", 1000)
        assert run_dica(g, params) == want
        assert built == []

    # DIMACS names: myciel5 is the level-6 Mycielskian
    TABLED = {"queen5": (queen_graph(5), 4), "myciel5": (mycielski_graph(6), 5), "k15": (complete_graph(15), 14)}

    @pytest.mark.parametrize("graph", sorted(TABLED))
    @pytest.mark.parametrize("steps", [1, 4, 20])
    def test_a_given_table_follows_the_rows_and_changes_no_draw(self, graph, steps):
        g, k = self.TABLED[graph]
        rng = np.random.default_rng(steps)
        cols = np.stack([rng.permutation(np.arange(g.n) % k + 1) for _ in range(6)])
        kept = cols.copy()
        want = descend(g, cols, steps, np.random.default_rng(9))
        # any width above every colour: the palette's, or wider
        for width in (k + 1, k + 4):
            table = neighbour_table(g, cols, width)
            out = descend(g, cols, steps, np.random.default_rng(9), table)
            assert cols.tolist() == kept.tolist()
            assert out.tolist() == want.tolist()
            assert table.shape == (6, width, g.n) and table.dtype == np.int64
            assert np.array_equal(table, neighbour_table(g, out, width))
        assert out.tolist() != cols.tolist()

    def test_neighbour_table_counts_each_neighbours_colour(self):
        g = queen_graph(4)
        rng = np.random.default_rng(4)
        rows = rng.integers(1, 5, size=(3, g.n))
        table = neighbour_table(g, rows, 6)
        for e, row in enumerate(rows):
            for x in range(g.n):
                for c in range(6):
                    assert table[e, c, x] == sum(row[u - 1] == c for u in g.adjacency[x + 1])

    def test_a_table_of_the_wrong_shape_is_refused(self):
        g = queen_graph(4)
        cols = np.ones((2, g.n), dtype=np.int64)
        for table in (neighbour_table(g, cols[:1], 3), neighbour_table(g, cols, 3)[:, :, ::2],
                      np.asfortranarray(neighbour_table(g, cols, 3))):
            with pytest.raises(ValueError):
                descend(g, cols, 1, np.random.default_rng(0), table)


def _segment_copies(imp, col):
    return [
        assimilate_at(imp, col, c1, c2)
        for c1 in range(1, len(col) + 1)
        for c2 in range(c1, len(col) + 1)
    ]


def _one_swap_away(child, copies):
    n = len(child)
    return any(
        np.array_equal(child, revolve_at(copy, p1, p2))
        for copy in copies
        for p1 in range(1, n + 1)
        for p2 in range(p1 + 1, n + 1)
    )


class TestColonyStep:
    def _batch(self, seed, count=30, n=6, empires=3):
        rng = np.random.default_rng(seed)
        imps = np.stack([rng.permutation(n) + 1 for _ in range(empires)])
        cols = np.stack([rng.permutation(n) + 1 for _ in range(count)])
        owner = rng.integers(empires, size=count)
        return imps, cols, owner

    def test_children_are_segment_copies_with_at_most_one_swap(self):
        imps, cols, owner = self._batch(43)
        kept = (imps.copy(), cols.copy())
        children = colony_step(imps, cols, owner, 0.5, np.random.default_rng(1))
        assert imps.tolist() == kept[0].tolist() and cols.tolist() == kept[1].tolist()
        assert children.shape == cols.shape
        swapped = 0
        for child, col, e in zip(children, cols, owner):
            copies = _segment_copies(imps[e], col)
            plain = any(np.array_equal(child, c) for c in copies)
            assert plain or _one_swap_away(child, copies)
            swapped += not plain
        assert 0 < swapped < len(children)

    def test_rate_zero_never_swaps(self):
        imps, cols, owner = self._batch(47)
        children = colony_step(imps, cols, owner, 0.0, np.random.default_rng(2))
        for child, col, e in zip(children, cols, owner):
            assert any(np.array_equal(child, c) for c in _segment_copies(imps[e], col))
        # cut points span segments of many lengths, not single cells
        assert len({int(np.count_nonzero(ch != col)) for ch, col in zip(children, cols)}) >= 4

    def test_rate_one_keeps_the_colour_multiset(self):
        imps, _, owner = self._batch(53)
        # colonies that already match their imperialist keep its multiset under
        # every copy, so each child is exactly one swap of two distinct colours away
        cols = imps[owner]
        children = colony_step(imps, cols, owner, 1.0, np.random.default_rng(3))
        for child, col in zip(children, cols):
            assert sorted(child.tolist()) == sorted(col.tolist())
            assert int(np.count_nonzero(child != col)) == 2
        imps, cols, owner = self._batch(59)
        children = colony_step(imps, cols, owner, 1.0, np.random.default_rng(4))
        for child, col, e in zip(children, cols, owner):
            assert _one_swap_away(child, _segment_copies(imps[e], col))

    def test_single_vertex(self):
        imps = np.array([[3], [5]])
        cols = np.array([[1], [2], [4]])
        children = colony_step(imps, cols, np.array([0, 1, 1]), 1.0, np.random.default_rng(5))
        assert children.tolist() == [[3], [5], [5]]

    def test_fixed_seed_fixed_batch(self):
        imps, cols, owner = self._batch(61, count=50, n=9)
        a = colony_step(imps, cols, owner, 0.3, np.random.default_rng(6))
        b = colony_step(imps, cols, owner, 0.3, np.random.default_rng(6))
        c = colony_step(imps, cols, owner, 0.3, np.random.default_rng(7))
        assert a.tolist() == b.tolist() != c.tolist()

    def test_assimilate_is_a_one_row_batch(self):
        imps, cols, _ = self._batch(67, count=1, n=8, empires=1)
        for seed in range(10):
            child = colony_step(imps, cols, np.array([0]), 0.0, np.random.default_rng(seed))
            alone = assimilate(imps[0], cols[0], np.random.default_rng(seed))
            assert child[0].tolist() == alone.tolist()


class TestExchange:
    def test_cheaper_colony_takes_over(self):
        empires = _empires((5, [6, 3, 7]), (2, [4]), (8, [1, 9, 1]))
        imps, cols = empires.imperialists.copy(), empires.colonies.copy()
        assert exchange_if_better(empires) == [0, 2]
        # each swapping imperialist takes its first cheapest colony's slot
        assert empires.imperialists.tolist() == [cols[1].tolist(), imps[1].tolist(), cols[4].tolist()]
        assert empires.colonies[[1, 4]].tolist() == [imps[0].tolist(), imps[2].tolist()]
        assert np.array_equal(np.delete(empires.colonies, [1, 4], axis=0), np.delete(cols, [1, 4], axis=0))
        assert empires.imperialist_costs.tolist() == [3, 2, 1]
        assert empires.colony_costs.tolist() == [6, 5, 7, 4, 8, 9, 1]

    def test_tie_keeps_incumbent(self):
        empires = _empires((3, [3, 4]))
        imps, cols = empires.imperialists.copy(), empires.colonies.copy()
        assert exchange_if_better(empires) == []
        assert empires.imperialist_costs.tolist() == [3]
        assert empires.colony_costs.tolist() == [3, 4]
        assert np.array_equal(empires.imperialists, imps) and np.array_equal(empires.colonies, cols)

    def test_no_colonies_no_change(self):
        empires = _empires((9, []), (5, [1]))
        imp = empires.imperialists[0].copy()
        assert exchange_if_better(empires) == [1]
        assert empires.imperialist_costs[0] == 9
        assert empires.imperialists[0].tolist() == imp.tolist()


class TestEmpireTotalCost:
    def test_weighted_mean_example(self):
        assert _empires((4, [6, 8])).totals(0.1) == [pytest.approx(4.7)]

    def test_zero_weight_ignores_colonies(self):
        assert _empires((4, [100, 200])).totals(0.0) == [4]

    def test_empty_colony_mean_is_zero(self):
        assert _empires((9, [])).totals(0.1) == [9]

    def test_each_empire_weighs_its_own_colonies(self):
        assert _empires((4, [6, 8]), (1, []), (2, [3])).totals(1.0) == [11, 1, 5]

    def test_colony_mean_is_correctly_rounded(self):
        # a plain left-to-right sum of ten 0.1s gives 0.9999999999999999 on
        # Python before 3.12; the rounding must not depend on the Python version
        assert _empires((0, [0.1] * 10)).totals(1.0) == [0.1]


class TestEmpiresViews:
    def test_views_show_each_empire_in_turn(self):
        empires = _empires((5, [6, 3]), (2, []), (8, [1]))
        views = list(empires)
        assert [e.size() for e in views] == [3, 1, 2]
        assert [e.imperialist_cost for e in views] == [5, 2, 8]
        assert [e.colony_costs for e in views] == [[6, 3], [], [1]]
        assert views[2].colonies.tolist() == [empires.colonies[2].tolist()]
        assert _state([empires[-1]]) == _state(views[2:]) and _state([empires[0]]) == _state(views[:1])
        with pytest.raises(IndexError):
            empires[3]

    def test_a_run_holds_float64_costs_and_its_views_give_python_floats(self):
        # the views' costs equal np.float64 all the same, but the repr a hook records would differ
        stages = []

        def hook(stage, decade, empires):
            assert empires.imperialist_costs.dtype == empires.colony_costs.dtype == np.float64
            for views in (list(empires), [empires[e] for e in range(len(empires))]):
                for e in views:
                    assert type(e.imperialist_cost) is float
                    assert type(e.colony_costs) is list and all(type(c) is float for c in e.colony_costs)
            stages.append(stage)

        run_dica(complete_graph(5), DicaParams(population_size=20, decades=2, k_max=4), _inspect=hook)
        assert stages == ["post_exchange", "end"] * 2
        assert [e.colony_costs for e in _empires((5, [6, 3]), (2, []), (8, [1.5]))] == [[6.0, 3.0], [], [1.5]]


class TestNormalizedDistance:
    def test_identical(self):
        assert normalized_distance(np.array([1, 2]), np.array([1, 2])) == 0.0

    def test_all_positions_differ(self):
        assert normalized_distance(np.array([1, 2]), np.array([2, 1])) == 1.0

    def test_single_difference_out_of_eleven(self):
        a = np.ones(11, dtype=int)
        b = a.copy()
        b[4] = 2
        assert normalized_distance(a, b) == pytest.approx(1 / 11)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalized_distance(np.array([1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            normalized_distance(np.ones((2, 3)), np.ones((3, 3)))

    def test_stacks_compare_row_by_row(self):
        rng = np.random.default_rng(37)
        for n in (1, 7, 49):
            a = rng.integers(1, 4, size=(6, n))
            b = rng.integers(1, 4, size=(6, n))
            b[0] = a[0]
            got = normalized_distance(a, b)
            assert got.tolist() == [normalized_distance(x, y) for x, y in zip(a, b)]

    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_wholly_different_rows_at_one_byte_count_bounds(self, n):
        # past 255 cells a one-byte mismatch count would wrap
        a, b = np.zeros((2, n), dtype=int), np.ones((2, n), dtype=int)
        assert normalized_distance(a[0], b[0]) == 1.0
        assert normalized_distance(a, b).tolist() == [1.0, 1.0]


class TestUnite:
    def test_identical_imperialists_merge(self):
        imp = np.array([1, 2, 3, 4])
        empires = _stack((imp, 4.0, [[5, 5, 5, 5]], [7.0]), (imp.copy(), 5.0, [[9, 9, 9, 9]], [9.0]))
        merged = unite_similar_empires(empires, 0.02, xi=0.1)
        assert len(merged) == 1
        # the lower total cost absorbs: the loser's imperialist, then its colonies, join its colonies
        assert _state(merged) == [[[1, 2, 3, 4], 4.0, [[5, 5, 5, 5], [1, 2, 3, 4], [9, 9, 9, 9]], [7.0, 5.0, 9.0]]]

    def test_lower_total_cost_wins_regardless_of_order(self):
        imp = np.array([1, 2, 3, 4])
        merged = unite_similar_empires(_stack((imp, 8.0, [], []), (imp + 0, 2.0, [], [])), 0.5, xi=0.1)
        assert merged.imperialist_costs == [2.0] and merged.colony_costs == [8.0]

    def test_one_differing_cell_out_of_eleven_does_not_merge(self):
        imp = np.ones(11, dtype=int)
        other = imp.copy()
        other[0] = 2
        empires = _stack((imp, 1.0, [], []), (other, 1.0, [], []))
        # 1/11 is above the 0.02 bound, so both empires survive, untouched
        assert unite_similar_empires(empires, 0.02, xi=0.1) is empires

    def test_zero_threshold_never_merges(self):
        imp = np.array([1, 2, 3, 4])
        assert len(unite_similar_empires(_stack((imp, 1.0, [], []), (imp + 0, 1.0, [], [])), 0.0, xi=0.1)) == 2

    def test_zero_threshold_returns_at_once(self, monkeypatch):
        # no normalized distance is below 0, so no pair is measured, equal rows included
        def refusing(a, b):
            raise AssertionError("normalized_distance called at threshold 0")

        monkeypatch.setattr(dica, "normalized_distance", refusing)
        imp = np.array([1, 2, 3, 4])
        empires = _stack(*[(imp + (e % 3), float(e), [[5, 5, 5, 5]], [9.0]) for e in range(12)])
        assert unite_similar_empires(empires, 0.0, xi=0.1) is empires

    def test_absorbed_empire_cannot_absorb_later(self):
        base = np.ones(4, dtype=int)
        empires = _stack((base, 1.0, [], []), (base + 0, 2.0, [], []), (base + 0, 3.0, [], []))
        merged = unite_similar_empires(empires, 0.5, xi=0.0)
        assert len(merged) == 1
        assert merged.imperialist_costs == [1.0]
        assert sorted(merged.colony_costs) == [2.0, 3.0]

    def test_pairs_go_in_index_order_not_nearest_first(self):
        # 0-1 (distance 0.25) goes before 1-2 (0): 1 takes 0, then 2
        empires = _stack(
            (np.array([1, 1, 1, 1]), 2.0, [], []), (np.array([2, 1, 1, 1]), 1.0, [], []),
            (np.array([2, 1, 1, 1]), 3.0, [], []),
        )
        merged = unite_similar_empires(empires, 0.5, xi=0.0)
        assert merged.imperialist_costs.tolist() == [1.0] and merged.colony_costs.tolist() == [2.0, 3.0]

    def test_equally_near_pairs_go_by_first_then_second_index(self):
        # 0-2, 0-3 and 1-2 are all 0.25 apart: 0 takes 2 and 3 before 1-2 comes up
        empires = _stack(
            (np.array([1, 1, 1, 1]), 1.0, [], []), (np.array([2, 1, 2, 1]), 2.0, [], []),
            (np.array([2, 1, 1, 1]), 3.0, [], []), (np.array([1, 2, 1, 1]), 4.0, [], []),
        )
        merged = unite_similar_empires(empires, 0.5, xi=0.0)
        assert merged.imperialist_costs.tolist() == [1.0, 2.0]
        assert merged.sizes == [2, 0] and merged.colony_costs.tolist() == [3.0, 4.0]


def _unite_all_pairs(empires, threshold, xi, nearest_first=False):
    """The merge rule measured over every pair of imperialists, on per-empire
    lists: close pairs go by (i, j), or by (distance, i, j) given `nearest_first`."""
    state = _state(empires)
    imps = empires.imperialists
    pairs = []
    # imperialist i against every later one, a row at a time, so thousands of rows fit
    for i in range(len(state) - 1):
        dists = normalized_distance(imps[i], imps[i + 1 :])
        close = np.flatnonzero(dists < threshold)
        pairs += zip(dists[close].tolist(), [i] * close.size, (i + 1 + close).tolist())
    totals = [cost + xi * (math.fsum(costs) / len(costs) if costs else 0.0) for _, cost, _, costs in state]
    pairs = sorted(pairs) if nearest_first else sorted(pairs, key=lambda p: p[1:])
    alive = [True] * len(state)
    for _, i, j in pairs:
        if not (alive[i] and alive[j]):
            continue
        win, lose = (i, j) if (totals[i], i) <= (totals[j], j) else (j, i)
        state[win][2] += [state[lose][0]] + state[lose][2]
        state[win][3] += [state[lose][1]] + state[lose][3]
        alive[lose] = False
    return [s for k, s in enumerate(state) if alive[k]]


def _empire_stack(n, count, rng):
    """Empires whose imperialists are a few bases with 0..n cells redrawn, half
    of them at most two, so every distance from equal to wholly different
    turns up."""
    bases = rng.integers(1, 4, size=(3, n))
    empires = []
    for _ in range(count):
        imp = bases[rng.integers(3)].copy()
        cells = rng.permutation(n)[: rng.integers(rng.choice([3, n + 1]))]
        imp[cells] = rng.integers(1, 4, size=cells.size)
        colonies = int(rng.integers(4))
        empires.append((
            imp,
            float(rng.integers(1, 6)),
            [rng.integers(1, 4, size=n) for _ in range(colonies)],
            [float(c) for c in rng.integers(1, 9, size=colonies)],
        ))
    return _stack(*empires)


def _planted_stack(n, count, rng):
    """Empires whose imperialists are copies of count // 4 rows of wide colours,
    so equal rows come in groups of mixed totals, a fifth of them then moved
    off their row in one cell; 0-3 colonies each, costs of a few values."""
    bases = rng.integers(1, count, size=(count // 4, n))
    imps = bases[rng.integers(len(bases), size=count)]
    moved = np.flatnonzero(rng.random(count) < 0.2)
    imps[moved, rng.integers(n, size=moved.size)] += count
    sizes = rng.integers(4, size=count)
    return Empires(
        imps, rng.integers(1, 6, size=count).astype(float), rng.integers(1, 4, size=(sizes.sum(), n)),
        rng.integers(1, 9, size=sizes.sum()).astype(float), sizes.tolist(),
    )


def _assert_same_merges(empires, threshold):
    want = _unite_all_pairs(empires, threshold, xi=0.1)
    assert _state(unite_similar_empires(empires, threshold, xi=0.1)) == want


def _peak_of_unite(imperialists, threshold):
    """The tracemalloc peak of one merge pass over colony-less empires."""
    count, n = imperialists.shape
    costs = np.random.default_rng(count).integers(1, 50, size=count).astype(float)
    empires = Empires(imperialists, costs, np.empty((0, n), dtype=np.int64), np.empty(0), [0] * count)
    tracemalloc.start()
    try:
        unite_similar_empires(empires, threshold, xi=0.1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestUniteFilter:
    """The row-block pass merges what measuring every pair at once would merge."""

    @pytest.mark.parametrize("n", [1, 2, 7, 49])
    @pytest.mark.parametrize("threshold", [0.0, 0.02, 0.1, 0.5, 1.0, 1.5])
    def test_same_merges_as_every_pair(self, n, threshold):
        rng = np.random.default_rng(n * 10 + int(threshold * 100))
        for count in range(2, 15):
            for _ in range(3):
                _assert_same_merges(_empire_stack(n, count, rng), threshold)

    @pytest.mark.parametrize("n", [1, 2, 7, 49])
    @pytest.mark.parametrize("threshold", [0.0, 0.02, 0.1, 0.5, 1.0, 1.5])
    def test_same_merges_in_small_blocks(self, monkeypatch, n, threshold):
        # at 200 cells, stacks of 3 or more rows of 49 cells and of 6 or more of 7 split
        monkeypatch.setattr(dica, "BATCH_CELLS", 200)
        rng = np.random.default_rng(n * 10 + int(threshold * 100))
        for count in range(2, 15):
            for _ in range(3):
                _assert_same_merges(_empire_stack(n, count, rng), threshold)

    @pytest.mark.parametrize("n", [1, 2, 7, 49])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_same_merges_as_nearest_first_when_only_equal_rows_are_close(self, n, share):
        # at threshold <= 1/n only identical imperialists are close: every close pair
        # is at distance 0, so nearest first walks the pairs in index order too.  The
        # default 0.02 on up to 50 vertices is such a case
        threshold = share / n
        rng = np.random.default_rng(n * 10 + int(share * 10))
        for count in range(2, 15):
            for _ in range(3):
                empires = _empire_stack(n, count, rng)
                want = _unite_all_pairs(empires, threshold, xi=0.1, nearest_first=True)
                assert _state(unite_similar_empires(empires, threshold, xi=0.1)) == want

    @pytest.mark.parametrize("n", [2, 7])
    def test_equal_rows_keyed_by_bytes_merge_as_every_pair(self, monkeypatch, n):
        # at 0 < threshold <= 1/n rows are grouped by their bytes and measured by no
        # normalized_distance, nor at 0, where none is close; just above 1/n rows
        # one cell apart are close too
        measured = []

        def measuring(a, b):
            measured.append(a.shape)
            return normalized_distance(a, b)

        monkeypatch.setattr(dica, "normalized_distance", measuring)
        empires = _planted_stack(n, 2000, np.random.default_rng(n))
        left = {}
        for threshold, by_blocks in (
            (1 / n, False), (np.nextafter(1 / n, 0), False), (np.nextafter(1 / n, 1), True), (0.0, False),
        ):
            measured.clear()
            _assert_same_merges(empires, float(threshold))
            assert bool(measured) == by_blocks
            left[threshold] = len(unite_similar_empires(empires, float(threshold), xi=0.1))
        assert left[0.0] == 2000
        assert left[np.nextafter(1 / n, 1)] < left[1 / n] == left[np.nextafter(1 / n, 0)] < 2000

    @pytest.mark.parametrize("threshold", [0.02, 0.5, 1.0])
    def test_negative_and_wide_colours_stay_apart(self, threshold):
        # colours 256 apart are equal in one byte, and -1 is 255 in an unsigned byte
        rng = np.random.default_rng(5)
        for count in range(2, 15):
            empires = _empire_stack(7, count, rng)
            empires.imperialists += 256 * rng.integers(-2, 2, size=(count, 7))
            _assert_same_merges(empires, threshold)
        for low, high in ((-1, 255), (0, 256), (-129, 127), (44, 300)):
            empires = _stack((np.full(7, low), 1.0, [], []), (np.full(7, high), 2.0, [], []))
            assert len(unite_similar_empires(empires, 0.5, xi=0.1)) == 2

    def test_peak_memory_is_bounded(self):
        # gathered at once, the 179,700 pairs' cells would take 70 MB a side as int64
        imperialists = np.random.default_rng(20).integers(1, 8, size=(600, 49))
        assert _peak_of_unite(imperialists, 0.5) < 16_000_000

    def test_peak_memory_of_many_close_pairs_is_bounded(self):
        # at 0.9 most of the 179,700 pairs are close; as (distance, i, j) tuples they took 20 MB
        imperialists = np.random.default_rng(20).integers(1, 8, size=(600, 49))
        assert _peak_of_unite(imperialists, 0.9) < 6_000_000

    def test_peak_memory_holds_one_block_of_close_pairs(self):
        # at 0.9 most of the 404,550 pairs are close; kept all at once as a float64
        # distance and two int32 rows, they peaked at 9.3 MB
        imperialists = np.random.default_rng(21).integers(1, 8, size=(900, 49))
        assert _peak_of_unite(imperialists, 0.9) < 6_000_000

    def test_wholly_different_pair_merges_above_one(self):
        def pair():
            return _stack((np.ones(7, dtype=int), 1.0, [], []), (np.full(7, 2), 2.0, [], []))

        merged = unite_similar_empires(pair(), 1.5, xi=0.1)
        assert merged.imperialist_costs == [1.0] and merged.colony_costs == [2.0]
        assert len(unite_similar_empires(pair(), 1.0, xi=0.1)) == 2


class TestCompetition:
    def test_weakest_loses_its_worst_colony(self):
        empires = _empires((1, [2]), (9, [10, 30, 20]))
        marked = empires.colonies[2].copy()
        empires = imperialistic_competition(empires, 0.1, np.random.default_rng(0))
        assert len(empires) == 2
        assert empires.sizes == [2, 2]
        # the worst colony joins the end of the winner's colonies
        assert empires.colony_costs.tolist() == [2.0, 30.0, 10.0, 20.0]
        assert empires.colonies[1].tolist() == marked.tolist()

    def test_a_colony_can_move_to_a_later_empire(self):
        empires = _empires((9, [10, 30, 20]), (1, [2]))
        cols = empires.colonies.copy()
        empires = imperialistic_competition(empires, 0.1, np.random.default_rng(0))
        assert empires.sizes == [2, 2]
        assert empires.colony_costs.tolist() == [10.0, 20.0, 2.0, 30.0]
        assert empires.colonies.tolist() == cols[[0, 2, 3, 1]].tolist()
        assert [e.size() for e in empires] == [3, 3]

    def test_empty_weakest_empire_dissolves(self):
        empires = _empires((1, [2]), (9, []), (3, [4]))
        weak_imp = empires.imperialists[1].copy()
        # with xi 0 the rivals weigh 8 and 6, and seed 1's first draw, 0.51, picks the first
        empires = imperialistic_competition(empires, 0.0, np.random.default_rng(1))
        assert len(empires) == 2
        assert empires.imperialist_costs.tolist() == [1.0, 3.0]
        assert empires.colony_costs.tolist() == [2.0, 9.0, 4.0]
        assert empires.colonies[1].tolist() == weak_imp.tolist()

    def test_equal_totals_pick_last_as_weakest_and_winner_uniformly(self):
        winners = set()
        for seed in range(30):
            empires = _empires((5, [5]), (5, [5]), (5, [5]))
            after = imperialistic_competition(empires, 0.0, np.random.default_rng(seed))
            assert len(after) == 3
            assert after.sizes[2] == 0  # tie for weakest goes to the last
            winners.update(i for i in range(2) if after.sizes[i] > 1)
        assert winners == {0, 1}

    def test_single_empire_skips(self):
        only = _empires((3, [4]))
        assert imperialistic_competition(only, 0.1, np.random.default_rng(0)) is only


def _competition_by_rank(empires, xi, rng):
    """`imperialistic_competition` as it was written with `rank` and an index gather."""
    count = len(empires)
    if count < 2:
        return empires
    totals = empires.totals(xi)
    weakest = rank(totals)[-1]
    rivals = [i for i in range(count) if i != weakest]
    wheel = roulette_wheel([totals[weakest] - totals[i] for i in rivals])
    if wheel[1] > 0.0:
        winner = rivals[int(spin(wheel, rng.random()))]
    else:
        winner = rivals[int(rng.integers(len(rivals)))]
    b, cols, costs = empires.bounds, empires.colonies, empires.colony_costs
    s, t = b[weakest], b[weakest + 1]
    if s < t:
        worst = s + rank(costs[s:t])[-1]
        to = b[winner + 1] - (weakest < winner)
        lo, hi = sorted((worst, to))
        moved = np.arange(lo, hi + 1) + (1 if worst < to else -1)
        moved[to - lo] = worst
        cols[lo : hi + 1], costs[lo : hi + 1] = cols[moved], costs[moved]
        empires.sizes[weakest] -= 1
    else:
        empires.colonies = np.insert(cols, b[winner + 1], empires.imperialists[weakest], axis=0)
        empires.colony_costs = np.insert(costs, b[winner + 1], empires.imperialist_costs[weakest])
        empires.imperialists = np.delete(empires.imperialists, weakest, axis=0)
        empires.imperialist_costs = np.delete(empires.imperialist_costs, weakest)
        del empires.sizes[weakest]
        winner -= weakest < winner
    empires.sizes[winner] += 1
    empires.bounds = list(accumulate(empires.sizes, initial=0))
    return empires


class TestCompetitionAsByRank:
    def test_same_moves_and_draws_as_the_rank_and_gather_body(self):
        rng = np.random.default_rng(61)
        seen = set()
        for _ in range(600):
            # costs of three values, so weakest empires and worst colonies often tie
            specs = [
                (int(rng.integers(1, 4)), rng.integers(1, 4, size=rng.integers(4)).tolist())
                for _ in range(rng.integers(2, 7))
            ]
            xi, seed = float(rng.choice([0.0, 0.5])), int(rng.integers(1 << 30))
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _competition_by_rank(_empires(*specs), xi, want_rng)
            got = imperialistic_competition(_empires(*specs), xi, got_rng)
            assert _state(got) == _state(want) and got.bounds == want.bounds
            assert got_rng.random() == want_rng.random()
            totals = _empires(*specs).totals(xi)
            weakest = max(range(len(totals)), key=lambda e: (totals[e], e))
            colonies = specs[weakest][1]
            seen.add("tied weakest" if totals.count(totals[weakest]) > 1 else "one weakest")
            if not colonies:
                seen.add("dissolved")
                continue
            if colonies.count(max(colonies)) > 1:
                seen.add("tied worst")
            winner = next(e for e, (a, b) in enumerate(zip(got.sizes, _empires(*specs).sizes)) if a > b)
            seen.add("winner after" if weakest < winner else "winner before")
        assert seen == {"tied weakest", "one weakest", "dissolved", "tied worst", "winner after", "winner before"}


class TestRunDica:
    def test_triangle_reaches_three_proper_colours(self):
        g = complete_graph(3)
        result = run_dica(g, DicaParams(population_size=20, decades=50, rng_seed=5))
        assert result.conflicts == 0
        assert result.colours_used == 3
        assert is_valid(g, result.best)

    def test_single_vertex_graph(self):
        g = Graph(1, ())
        result = run_dica(g, DicaParams(population_size=10, decades=5))
        assert result.best == (1,)
        assert result.best_cost == 1
        assert result.conflicts == 0

    def test_result_fields_are_consistent(self):
        g = mycielski_graph(4)
        params = DicaParams(population_size=30, decades=15, rng_seed=3)
        result = run_dica(g, params)
        cp = CostParams.for_graph(g)
        assert result.best_cost == cost(g, result.best, cp)
        assert result.conflicts == count_conflicts(g, result.best)
        assert result.colours_used == distinct_colours(result.best)
        assert isinstance(result.best, tuple)
        assert all(isinstance(x, int) for x in result.best)
        assert len(result.cost_history) == result.decades_executed

    def test_deterministic_by_seed(self):
        g = mycielski_graph(4)
        params = DicaParams(population_size=30, decades=15, rng_seed=11)
        assert run_dica(g, params) == run_dica(g, params)

    def test_different_seeds_usually_differ(self):
        g = mycielski_graph(5)
        a = run_dica(g, DicaParams(population_size=20, decades=5, rng_seed=1))
        b = run_dica(g, DicaParams(population_size=20, decades=5, rng_seed=2))
        assert a.best != b.best or a.cost_history != b.cost_history

    def test_cost_history_never_increases(self):
        g = mycielski_graph(5)
        result = run_dica(g, DicaParams(population_size=30, decades=20, rng_seed=7))
        hist = result.cost_history
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_population_is_conserved_every_decade(self):
        g = mycielski_graph(4)
        sizes = []

        def watch(stage, decade, empires):
            sizes.append(sum(e.size() for e in empires))

        run_dica(g, DicaParams(population_size=40, decades=10, rng_seed=9), _inspect=watch)
        assert sizes and set(sizes) == {40}

    def test_imperialist_never_costlier_than_colonies_after_exchange(self):
        g = mycielski_graph(4)
        cp = CostParams.for_graph(g)

        def watch(stage, decade, empires):
            if stage != "post_exchange":
                return
            for e in empires:
                assert e.imperialist_cost == cost(g, e.imperialist, cp)
                for col, cached in zip(e.colonies, e.colony_costs):
                    assert cached == cost(g, col, cp)
                    assert e.imperialist_cost <= cached

        run_dica(g, DicaParams(population_size=30, decades=10, rng_seed=13), _inspect=watch)

    def test_decade_budget_respected(self):
        g = mycielski_graph(4)
        result = run_dica(g, DicaParams(population_size=20, decades=7, rng_seed=1))
        assert result.decades_executed <= 7
        assert result.terminated_by in (
            TERMINATED_DECADES,
            TERMINATED_SINGLE_EMPIRE,
            TERMINATED_EARLY_STOP,
        )

    def test_early_stop_on_known_chromatic_number(self):
        g = complete_graph(3)
        params = DicaParams(
            population_size=20,
            decades=50,
            early_stop_at_chromatic=True,
            known_chromatic=3,
            rng_seed=1,
        )
        result = run_dica(g, params)
        assert result.terminated_by == TERMINATED_EARLY_STOP
        assert result.decades_executed == 1
        assert result.conflicts == 0 and result.colours_used == 3

    def test_all_alike_empires_collapse_to_one(self):
        g = Graph(2, ((1, 2),))
        params = DicaParams(population_size=10, decades=30, uniting_threshold=1.1, rng_seed=2)
        result = run_dica(g, params)
        assert result.terminated_by == TERMINATED_SINGLE_EMPIRE
        assert result.decades_executed == 1

    def test_colours_stay_within_k_max(self):
        g = complete_graph(4)
        result = run_dica(g, DicaParams(population_size=20, decades=10, k_max=3, rng_seed=3))
        assert max(result.best) <= 3

    def test_carried_table_gives_the_same_result(self, monkeypatch):
        tabled = {True: 0, False: 0}
        swaps, merged, dissolved = [], [], []
        carry = [True]
        real_descend, real_table, real_exchange, real_unite, real_compete = (
            dica.descend, dica.neighbour_table, dica.exchange_if_better, dica.unite_similar_empires,
            dica.imperialistic_competition)

        def maybe_carried_descend(g, cols, steps, rng, table=None):
            return real_descend(g, cols, steps, rng, table if carry[0] else None)

        def counting_table(g, rows, width):
            tabled[carry[0]] += len(rows)
            return real_table(g, rows, width)

        def counting_exchange(empires):
            swapped = real_exchange(empires)
            swaps.append(len(swapped))
            return swapped

        def counting_unite(empires, threshold, xi):
            before = len(empires)
            empires = real_unite(empires, threshold, xi)
            merged.append(before - len(empires))
            return empires

        def counting_compete(empires, xi, rng):
            before = len(empires)
            empires = real_compete(empires, xi, rng)
            dissolved.append(before - len(empires))
            return empires

        monkeypatch.setattr(dica, "descend", maybe_carried_descend)
        monkeypatch.setattr(dica, "neighbour_table", counting_table)
        monkeypatch.setattr(dica, "exchange_if_better", counting_exchange)
        monkeypatch.setattr(dica, "unite_similar_empires", counting_unite)
        monkeypatch.setattr(dica, "imperialistic_competition", counting_compete)
        for g in (queen_graph(5), mycielski_graph(5)):
            for seed in (1, 2, 31):
                for kw in ({}, {"k_max": 4}, {"k_max": 6, "uniting_threshold": 0.5}):
                    params = DicaParams(population_size=40, decades=20, rng_seed=seed, **kw)
                    # the default cap carries from the start; at 1000 cells queen5's
                    # runs carry only once their empires shrink, and at 1 none carries
                    for cap in (BATCH_CELLS, 1000, 1):
                        monkeypatch.setattr(dica, "BATCH_CELLS", cap)
                        carry[0] = True
                        carried = run_dica(g, params)
                        carry[0] = False
                        assert run_dica(g, params) == carried
        # the grid swaps, merges, and dissolves an empire in some decade with no merge
        assert any(swaps) and any(merged)
        assert any(d and not m for d, m in zip(dissolved, merged))
        # carried, rows are tabled again only after an exchange or a change in the empire count
        assert tabled[True] < tabled[False]

    def test_too_many_imperialists_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            run_dica(g, DicaParams(population_size=2, imperialist_fraction=0.9, decades=1))

    @pytest.mark.parametrize("size,fraction", [(2, 0.9), (10, 0.96), (3, 0.99)])
    def test_imperialists_leaving_no_colony_rejected_on_construction(self, size, fraction):
        with pytest.raises(ValueError, match="imperialist_fraction .* population_size"):
            DicaParams(population_size=size, imperialist_fraction=fraction)

    @pytest.mark.parametrize("size,fraction,imperialists", [(2, 0.7, 1), (10, 0.94, 9), (3, 0.5, 2)])
    def test_imperialists_leaving_one_colony_accepted(self, size, fraction, imperialists):
        params = DicaParams(population_size=size, imperialist_fraction=fraction)
        assert params.n_imperialists == imperialists

    @pytest.mark.parametrize(
        "bad",
        [
            dict(population_size=1),
            dict(imperialist_fraction=0.0),
            dict(imperialist_fraction=1.0),
            dict(decades=0),
            dict(revolution_rate=1.5),
            dict(uniting_threshold=-0.1),
            dict(damp_ratio=2.0),
            dict(xi=-1.0),
            dict(k_max=0),
            dict(penalty=0.0),
            dict(known_chromatic=0),
            dict(uniting_threshold=float("nan")),
            dict(uniting_threshold=float("inf")),
            dict(xi=float("nan")),
            dict(xi=float("inf")),
            dict(penalty=float("nan")),
            dict(penalty=float("inf")),
            dict(k_max=MAX_VERTICES + 1),
        ],
    )
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            DicaParams(**bad)

    def test_xi_whose_summed_totals_overflow_is_refused(self):
        # K4's worst row costs 4 x 6 + 4 = 28, so one total at xi 1e306 is finite, 20 of them are not
        g = complete_graph(4)
        with pytest.raises(ValueError, match="^xi 1e\\+306 overflows the empire totals of 20 "):
            DicaParams(population_size=20, xi=1e306).cost_params(g)
        assert DicaParams(population_size=2, xi=1e306).cost_params(g).penalty == 4.0
        assert DicaParams(population_size=20, xi=1e300).cost_params(g).penalty == 4.0


class TestInspectOnlyObserves:
    """`_inspect` only sees the empires: watching a run must not change it."""

    GRAPHS = {"k6": complete_graph(6), "myciel3": mycielski_graph(4), "queen4": queen_graph(4)}

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [1, 2, 31])
    def test_same_result_with_and_without_inspect(self, graph, seed):
        g = self.GRAPHS[graph]
        params = DicaParams(
            population_size=20, decades=15, rng_seed=seed,
            penalty=0.5 if seed == 2 else None,
            early_stop_at_chromatic=seed == 31, known_chromatic=4 if seed == 31 else None,
        )
        calls = []
        watched = run_dica(g, params, _inspect=lambda stage, decade, empires: calls.append((stage, decade)))
        plain = run_dica(g, params)
        assert watched == plain
        assert type(watched.best_cost) is type(plain.best_cost)
        stages = [(stage, d) for d in range(plain.decades_executed) for stage in ("post_exchange", "end")]
        assert calls == stages
