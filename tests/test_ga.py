"""Genetic baseline: selection statistics, crossover examples, run behaviour."""

import numpy as np
import pytest

from colorica.coloring import CostParams, cost, count_conflicts, distinct_colours, is_valid
from colorica.dica import TERMINATED_DECADES, TERMINATED_EARLY_STOP
from colorica.engine import BestSoFar, init_population, resolve_k_max
from colorica.ga import (
    GaParams,
    crossover_2pt,
    crossover_2pt_at,
    mutate,
    roulette_select,
    run_ga,
)
from colorica.graphs import Graph, complete_graph, mycielski_graph, queen_graph


class TestRouletteSelect:
    def test_prefers_low_cost(self):
        # fitness (100, 1): index 0 should win about 100/101 of draws
        rng = np.random.default_rng(31)
        picks = roulette_select([1.0, 100.0], 20000, rng)
        share = float(np.mean(picks == 0))
        assert share == pytest.approx(100 / 101, abs=0.02)

    def test_equal_costs_sample_uniformly(self):
        rng = np.random.default_rng(37)
        picks = roulette_select([5.0, 5.0, 5.0, 5.0], 20000, rng)
        for i in range(4):
            assert float(np.mean(picks == i)) == pytest.approx(0.25, abs=0.02)

    def test_worst_individual_still_reachable(self):
        rng = np.random.default_rng(41)
        picks = roulette_select([1.0, 50.0], 20000, rng)
        assert int(np.sum(picks == 1)) > 0

    def test_indices_in_range(self):
        rng = np.random.default_rng(43)
        picks = roulette_select([3.0, 1.0, 2.0], 500, rng)
        assert picks.shape == (500,)
        assert picks.min() >= 0 and picks.max() <= 2

    def test_deterministic_for_a_seed(self):
        a = roulette_select([1.0, 2.0, 3.0], 50, np.random.default_rng(4))
        b = roulette_select([1.0, 2.0, 3.0], 50, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            roulette_select([], 1, np.random.default_rng(1))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            roulette_select([1.0], 0, np.random.default_rng(1))


class TestCrossover:
    def test_worked_example(self):
        c1, c2 = crossover_2pt_at([1, 2, 3, 2, 1], [3, 1, 1, 1, 2], 2, 3)
        assert c1.tolist() == [1, 1, 1, 2, 1]
        assert c2.tolist() == [3, 2, 3, 1, 2]

    def test_children_partition_positions(self):
        rng = np.random.default_rng(47)
        n = 6
        for _ in range(20):
            a = rng.integers(1, 4, size=n)
            b = rng.integers(1, 4, size=n)
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    c1, c2 = crossover_2pt_at(a, b, lo, hi)
                    np.testing.assert_array_equal(c1[lo - 1 : hi], b[lo - 1 : hi])
                    np.testing.assert_array_equal(c2[lo - 1 : hi], a[lo - 1 : hi])
                    np.testing.assert_array_equal(c1[: lo - 1], a[: lo - 1])
                    np.testing.assert_array_equal(c2[hi:], b[hi:])

    def test_full_segment_swaps_parents(self):
        c1, c2 = crossover_2pt_at([1, 1], [2, 2], 1, 2)
        assert c1.tolist() == [2, 2]
        assert c2.tolist() == [1, 1]

    def test_parents_unchanged(self):
        a = np.array([1, 2, 3])
        b = np.array([4, 5, 6])
        crossover_2pt_at(a, b, 1, 2)
        assert a.tolist() == [1, 2, 3]
        assert b.tolist() == [4, 5, 6]

    @pytest.mark.parametrize("lo,hi", [(0, 1), (1, 9), (3, 1)])
    def test_bad_cut_points(self, lo, hi):
        with pytest.raises(ValueError):
            crossover_2pt_at([1] * 4, [2] * 4, lo, hi)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crossover_2pt_at([1, 2], [1, 2, 3], 1, 1)

    def test_draw_matches_two_independent_cuts(self):
        # the draw crossover_2pt has always made, kept here as the reference:
        # one integers(size=2) call, sorted; same pair, same generator state after
        def reference(a, b, rng):
            lo, hi = sorted(int(p) for p in rng.integers(1, len(a) + 1, size=2))
            return crossover_2pt_at(a, b, lo, hi)

        for n in (1, 2, 5, 47, 49, 1000):
            a = np.arange(n)
            b = np.arange(n) + n
            for seed in range(30):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(5):
                    x, y = crossover_2pt(a, b, ours)
                    rx, ry = reference(a, b, theirs)
                    assert x.tolist() == rx.tolist() and y.tolist() == ry.tolist()
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_random_cuts_yield_some_legal_pair(self):
        rng = np.random.default_rng(53)
        a = np.array([1, 2, 3, 4])
        b = np.array([4, 3, 2, 1])
        legal = set()
        for lo in range(1, 5):
            for hi in range(lo, 5):
                x, y = crossover_2pt_at(a, b, lo, hi)
                legal.add((tuple(x.tolist()), tuple(y.tolist())))
        for _ in range(50):
            x, y = crossover_2pt(a, b, rng)
            assert (tuple(x.tolist()), tuple(y.tolist())) in legal


class TestMutate:
    def test_changes_at_most_one_position(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            col = rng.integers(1, 4, size=6)
            child = mutate(col, 3, rng)
            assert int(np.count_nonzero(child != col)) <= 1
            assert child.min() >= 1 and child.max() <= 3

    def test_position_choice_is_uniform(self):
        rng = np.random.default_rng(61)
        col = np.array([0, 0, 0])  # off-palette so nearly every draw shows up
        hits = np.zeros(3)
        draws = 15000
        for _ in range(draws):
            child = mutate(col, 1000, rng)
            changed = np.nonzero(child != col)[0]
            if changed.size:
                hits[changed[0]] += 1
        for share in hits / draws:
            assert share == pytest.approx(1 / 3, abs=0.05)

    def test_new_colour_is_uniform_over_palette(self):
        rng = np.random.default_rng(67)
        col = np.array([99])
        counts = {1: 0, 2: 0, 3: 0}
        draws = 15000
        for _ in range(draws):
            counts[int(mutate(col, 3, rng)[0])] += 1
        for c in counts.values():
            assert c / draws == pytest.approx(1 / 3, abs=0.05)

    def test_can_introduce_an_absent_colour(self):
        rng = np.random.default_rng(71)
        col = np.array([1, 1, 1, 1])
        seen = set()
        for _ in range(100):
            seen.update(mutate(col, 4, rng).tolist())
        assert seen == {1, 2, 3, 4}

    def test_input_unchanged(self):
        col = np.array([2, 2])
        mutate(col, 5, np.random.default_rng(1))
        assert col.tolist() == [2, 2]

    def test_empty_colouring_rejected(self):
        with pytest.raises(ValueError):
            mutate(np.array([], dtype=int), 3, np.random.default_rng(1))


class TestRunGa:
    def test_triangle_reaches_three_proper_colours(self):
        g = complete_graph(3)
        result = run_ga(g, GaParams(population_size=20, generations=50, rng_seed=5))
        assert result.conflicts == 0
        assert result.colours_used == 3
        assert is_valid(g, result.best)

    def test_result_fields_are_consistent(self):
        g = mycielski_graph(4)
        result = run_ga(g, GaParams(population_size=30, generations=15, rng_seed=3))
        cp = CostParams.for_graph(g)
        assert result.best_cost == cost(g, result.best, cp)
        assert result.conflicts == count_conflicts(g, result.best)
        assert result.colours_used == distinct_colours(result.best)
        assert len(result.cost_history) == result.decades_executed

    def test_deterministic_by_seed(self):
        g = mycielski_graph(4)
        params = GaParams(population_size=30, generations=15, rng_seed=11)
        assert run_ga(g, params) == run_ga(g, params)

    def test_cost_history_never_increases(self):
        g = mycielski_graph(5)
        result = run_ga(g, GaParams(population_size=30, generations=20, rng_seed=7))
        hist = result.cost_history
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_population_size_constant(self):
        g = mycielski_graph(4)
        sizes = []

        def watch(stage, generation, population, costs):
            assert stage == "end"
            sizes.append(len(population))
            assert len(costs) == len(population)

        run_ga(g, GaParams(population_size=25, generations=8, rng_seed=9), _inspect=watch)
        assert sizes and set(sizes) == {25}

    def test_cached_costs_match_recomputation(self):
        g = complete_graph(4)
        cp = CostParams.for_graph(g)

        def watch(stage, generation, population, costs):
            for ind, c in zip(population, costs):
                assert c == cost(g, ind, cp)

        run_ga(g, GaParams(population_size=15, generations=5, rng_seed=13), _inspect=watch)

    def test_elites_survive_unchanged(self):
        g = mycielski_graph(4)
        snapshots = []

        def watch(stage, generation, population, costs):
            snapshots.append(([ind.copy() for ind in population], list(costs)))

        run_ga(g, GaParams(population_size=20, generations=6, elitism_count=2, rng_seed=1), _inspect=watch)
        for (prev_pop, prev_costs), (cur_pop, _) in zip(snapshots, snapshots[1:]):
            order = sorted(range(len(prev_costs)), key=lambda i: (prev_costs[i], i))
            for i in order[:2]:
                assert any(np.array_equal(prev_pop[i], ind) for ind in cur_pop)

    def test_generation_budget_respected(self):
        g = mycielski_graph(4)
        result = run_ga(g, GaParams(population_size=20, generations=7, rng_seed=1))
        assert result.decades_executed == 7
        assert result.terminated_by == TERMINATED_DECADES

    def test_early_stop_on_known_chromatic_number(self):
        g = complete_graph(3)
        params = GaParams(
            population_size=20,
            generations=50,
            early_stop_at_chromatic=True,
            known_chromatic=3,
            rng_seed=1,
        )
        result = run_ga(g, params)
        assert result.terminated_by == TERMINATED_EARLY_STOP
        assert result.decades_executed == 1
        assert result.conflicts == 0 and result.colours_used == 3

    def test_colours_stay_within_k_max(self):
        g = complete_graph(4)
        result = run_ga(g, GaParams(population_size=20, generations=10, k_max=3, rng_seed=3))
        assert max(result.best) <= 3

    def test_single_vertex_graph(self):
        result = run_ga(Graph(1, ()), GaParams(population_size=5, generations=3))
        assert result.best == (1,)
        assert result.conflicts == 0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(population_size=0),
            dict(generations=0),
            dict(mutation_rate=-0.1),
            dict(mutation_rate=1.5),
            dict(selection_probability=2.0),
            dict(elitism_count=-1),
            dict(population_size=5, elitism_count=5),
            dict(k_max=0),
            dict(penalty=-1.0),
            dict(known_chromatic=0),
            dict(penalty=float("nan")),
            dict(penalty=float("inf")),
        ],
    )
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            GaParams(**bad).validate()


def _child_by_child_ga(g, params, _inspect=None):
    """The generation loop as it was before batching: a roulette wheel built per
    parent pair, and each child scored and offered as the best on its own."""
    params.validate()
    rng = np.random.default_rng(params.rng_seed)
    k_max = resolve_k_max(g, params.k_max)
    cost_params = params.cost_params(g)
    population = init_population(g, params, rng)
    costs = [cost(g, c, cost_params) for c in population]
    best = BestSoFar(g, population, costs)
    size = params.population_size
    for generation in range(params.generations):
        order = sorted(range(size), key=lambda i: (costs[i], i))
        new_pop = [population[i] for i in order[: params.elitism_count]]
        new_costs = [costs[i] for i in order[: params.elitism_count]]
        while len(new_pop) < size:
            pi = roulette_select(costs, 2, rng)
            pa, pb = population[int(pi[0])], population[int(pi[1])]
            if rng.random() < params.selection_probability:
                children = crossover_2pt(pa, pb, rng)
            else:
                children = (pa.copy(), pb.copy())
            for child in children:
                if len(new_pop) >= size:
                    break
                if rng.random() < params.mutation_rate:
                    child = mutate(child, k_max, rng)
                child_cost = cost(g, child, cost_params)
                new_pop.append(child)
                new_costs.append(child_cost)
                best.offer(child, child_cost)
        population, costs = new_pop, new_costs
        if _inspect is not None:
            _inspect("end", generation, population, costs)
        if best.end_iteration(params):
            return best.result(TERMINATED_EARLY_STOP)
    return best.result(TERMINATED_DECADES)


class TestBatchedGeneration:
    """run_ga scores a generation's children in one batch and spins one wheel per
    generation; results, populations and cost types equal the child-by-child loop."""

    GRAPHS = {"k6": complete_graph(6), "myciel3": mycielski_graph(4), "queen4": queen_graph(4)}
    PARAMS = [
        dict(population_size=20, generations=8),
        dict(population_size=20, generations=30, k_max=4, early_stop_at_chromatic=True, known_chromatic=4),
        dict(population_size=12, generations=8, penalty=0.5),
        dict(population_size=7, generations=8, elitism_count=6),
        dict(population_size=9, generations=8, elitism_count=0, mutation_rate=1.0, selection_probability=0.0),
    ]

    @staticmethod
    def _run(engine, g, params):
        seen = []

        def watch(stage, generation, population, costs):
            seen.append((stage, generation, [c.tolist() for c in population],
                         [(type(c), c) for c in costs]))

        return engine(g, params, _inspect=watch), seen

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("case", range(len(PARAMS)))
    @pytest.mark.parametrize("seed", [1, 2, 31])
    def test_equals_the_child_by_child_loop(self, graph, case, seed):
        g = self.GRAPHS[graph]
        params = GaParams(rng_seed=seed, **self.PARAMS[case])
        got, got_seen = self._run(run_ga, g, params)
        want, want_seen = self._run(_child_by_child_ga, g, params)
        assert got == want
        assert type(got.best_cost) is type(want.best_cost)
        assert got_seen == want_seen
