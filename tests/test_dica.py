"""Imperialist-style engine: operator worked examples, contracts, run invariants."""

import numpy as np
import pytest

from colorica.coloring import CostParams, cost, count_conflicts, distinct_colours, is_valid
from colorica import dica
from colorica.dica import (
    TERMINATED_DECADES,
    TERMINATED_EARLY_STOP,
    TERMINATED_SINGLE_EMPIRE,
    DicaParams,
    Empire,
    assimilate,
    assimilate_at,
    colony_step,
    descend,
    empire_total_cost,
    exchange_if_better,
    form_empires,
    imperialistic_competition,
    init_population,
    normalized_distance,
    resolve_k_max,
    revolve,
    revolve_at,
    run_dica,
    unite_similar_empires,
)
from colorica.graphs import Graph, complete_graph, mycielski_graph


def _empire(imp_cost, colony_costs, n=4, seed=0):
    """Empire with distinguishable colourings and prescribed costs."""
    rng = np.random.default_rng(seed)
    return Empire(
        imperialist=rng.integers(1, 5, size=n),
        imperialist_cost=float(imp_cost),
        colonies=[rng.integers(1, 5, size=n) for _ in colony_costs],
        colony_costs=[float(c) for c in colony_costs],
    )


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

    def test_single_vertex_graph(self):
        g = Graph(1, ())
        pop = init_population(g, DicaParams(population_size=5), np.random.default_rng(0))
        assert all(c.tolist() == [1] for c in pop)

    def test_default_colour_range_is_max_degree_plus_one(self):
        g = complete_graph(4)
        pop = init_population(g, DicaParams(population_size=50), np.random.default_rng(3))
        assert max(int(c.max()) for c in pop) == 4


class TestResolveKMax:
    def test_default(self):
        assert resolve_k_max(complete_graph(3), None) == 3

    def test_explicit_value_wins(self):
        assert resolve_k_max(complete_graph(3), 7) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_k_max(complete_graph(3), 0)


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

    def test_bad_arguments(self):
        rng = np.random.default_rng(1)
        countries = [np.array([0]), np.array([1])]
        with pytest.raises(ValueError):
            form_empires(countries, [1.0], 1, rng)
        with pytest.raises(ValueError):
            form_empires(countries, [1.0, 2.0], 2, rng)
        with pytest.raises(ValueError):
            form_empires(countries, [1.0, 2.0], 0, rng)


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
            out, out_costs = descend(g, cols, 1, cp, rng)
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
        out, out_costs = descend(complete_graph(4), proper, 3, CostParams(4.0), rng)
        assert out.tolist() == proper.tolist() and out_costs == [4, 4]

        cols = np.stack([rng.permutation(np.arange(g.n) % 5 + 1) for _ in range(4)])
        a = descend(g, cols, 3, cp, np.random.default_rng(5))
        b = descend(g, cols, 3, cp, np.random.default_rng(5))
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
                out, out_costs = descend(g, cols, steps, cp, np.random.default_rng(steps))
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
        monkeypatch.setattr(dica, "_DESCENT_BATCH_CELLS", 1)
        out, out_costs = descend(g, cols, 4, cp, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for col, row, row_cost in zip(cols, out, out_costs):
            alone, alone_costs = descend(g, col[None], 4, cp, rng)
            assert row.tolist() == alone[0].tolist() and row_cost == alone_costs[0]


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
        e = _empire(5, [6, 3, 7])
        old_imp = e.imperialist
        old_best = e.colonies[1]
        assert exchange_if_better(e)
        assert e.imperialist is old_best
        assert e.colonies[1] is old_imp
        assert e.imperialist_cost == 3
        assert e.colony_costs[1] == 5

    def test_tie_keeps_incumbent(self):
        e = _empire(3, [3, 4])
        assert not exchange_if_better(e)
        assert e.imperialist_cost == 3
        assert e.colony_costs == [3, 4]

    def test_no_colonies_no_change(self):
        e = _empire(9, [])
        assert not exchange_if_better(e)


class TestEmpireTotalCost:
    def test_weighted_mean_example(self):
        e = _empire(4, [6, 8])
        assert empire_total_cost(e, 0.1) == pytest.approx(4.7)

    def test_zero_weight_ignores_colonies(self):
        e = _empire(4, [100, 200])
        assert empire_total_cost(e, 0.0) == 4

    def test_empty_colony_mean_is_zero(self):
        e = _empire(9, [])
        assert empire_total_cost(e, 0.1) == 9


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


class TestUnite:
    def test_identical_imperialists_merge(self):
        a = _empire(4, [7], seed=1)
        b = Empire(
            imperialist=a.imperialist.copy(),
            imperialist_cost=5.0,
            colonies=[np.array([9, 9, 9, 9])],
            colony_costs=[9.0],
        )
        merged = unite_similar_empires([a, b], 0.02, xi=0.1)
        assert len(merged) == 1
        assert merged[0] is a  # lower total cost absorbs
        assert len(a.colonies) == 3
        assert 5.0 in a.colony_costs  # absorbed imperialist demoted to colony

    def test_lower_total_cost_wins_regardless_of_order(self):
        a = _empire(8, [], seed=2)
        b = Empire(imperialist=a.imperialist.copy(), imperialist_cost=2.0)
        merged = unite_similar_empires([a, b], 0.5, xi=0.1)
        assert len(merged) == 1
        assert merged[0] is b

    def test_one_differing_cell_out_of_eleven_does_not_merge(self):
        imp = np.ones(11, dtype=int)
        other = imp.copy()
        other[0] = 2
        a = Empire(imperialist=imp, imperialist_cost=1.0)
        b = Empire(imperialist=other, imperialist_cost=1.0)
        # 1/11 is above the 0.02 bound, so both empires survive
        assert len(unite_similar_empires([a, b], 0.02, xi=0.1)) == 2

    def test_zero_threshold_never_merges(self):
        a = _empire(1, [], seed=3)
        b = Empire(imperialist=a.imperialist.copy(), imperialist_cost=1.0)
        assert len(unite_similar_empires([a, b], 0.0, xi=0.1)) == 2

    def test_absorbed_empire_cannot_absorb_later(self):
        base = np.ones(4, dtype=int)
        near = base.copy()
        a = Empire(imperialist=base, imperialist_cost=1.0)
        b = Empire(imperialist=near.copy(), imperialist_cost=2.0)
        c = Empire(imperialist=near.copy(), imperialist_cost=3.0)
        merged = unite_similar_empires([a, b, c], 0.5, xi=0.0)
        assert len(merged) == 1
        assert merged[0] is a
        assert sorted(merged[0].colony_costs) == [2.0, 3.0]


class TestCompetition:
    def test_weakest_loses_its_worst_colony(self):
        strong = _empire(1, [2], seed=4)
        weak = _empire(9, [10, 30, 20], seed=5)
        marked = weak.colonies[1]
        empires = imperialistic_competition([strong, weak], 0.1, np.random.default_rng(0))
        assert len(empires) == 2
        assert len(weak.colonies) == 2
        assert any(c is marked for c in strong.colonies)
        assert 30.0 in strong.colony_costs

    def test_empty_weakest_empire_dissolves(self):
        strong = _empire(1, [2], seed=6)
        weak = _empire(9, [], seed=7)
        weak_imp = weak.imperialist
        empires = imperialistic_competition([strong, weak], 0.1, np.random.default_rng(0))
        assert len(empires) == 1
        assert empires[0] is strong
        assert any(c is weak_imp for c in strong.colonies)

    def test_equal_totals_pick_last_as_weakest_and_winner_uniformly(self):
        winners = set()
        for seed in range(30):
            empires = [_empire(5, [5], seed=s) for s in range(3)]
            before = [len(e.colonies) for e in empires]
            after = imperialistic_competition(empires, 0.0, np.random.default_rng(seed))
            assert len(after) == 3
            assert len(empires[2].colonies) == 0  # tie for weakest goes to the last
            gained = [i for i in range(2) if len(empires[i].colonies) > before[i]]
            winners.update(gained)
        assert winners == {0, 1}

    def test_single_empire_skips(self):
        only = _empire(3, [4], seed=8)
        assert imperialistic_competition([only], 0.1, np.random.default_rng(0)) == [only]


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

    def test_too_many_imperialists_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            run_dica(g, DicaParams(population_size=2, imperialist_fraction=0.9, decades=1))

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
        ],
    )
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            DicaParams(**bad).validate()
