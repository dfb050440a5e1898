"""Genetic baseline: selection statistics, crossover examples, run behaviour."""

import tracemalloc

import numpy as np
import pytest

import colorica.ga
from colorica.coloring import CostParams, cost, count_conflicts, distinct_colours, is_valid
from colorica.engine import TERMINATED_DECADES, TERMINATED_EARLY_STOP, BestSoFar, init_population
from colorica.ga import (
    GaParams,
    breed,
    crossover_2pt,
    crossover_2pt_at,
    mutate,
    roulette_select,
    run_ga,
)
from colorica.graphs import MAX_VERTICES, Graph, complete_graph, mycielski_graph, queen_graph


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
        assert result.decades_executed == len(result.cost_history) == 7
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
            dict(k_max=MAX_VERTICES + 1),
        ],
    )
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            GaParams(**bad)


def _child_by_child_ga(g, params, _inspect=None):
    """The generation loop child by child: the random draws `breed` makes, in the
    same order and shapes, then each child built on its own by `crossover_2pt_at`
    or a copy and a one-cell assignment, scored by `cost` and offered as the best
    as a one-row batch.  It logs the best cost and checks the early stop itself,
    as `run_search` does after each step."""
    rng = np.random.default_rng(params.rng_seed)
    k_max = params.palette(g)
    cost_params = params.cost_params(g)
    population = init_population(g, params, rng)
    costs = [cost(g, c, cost_params) for c in population]
    best = BestSoFar(g, params)
    for row in population:
        best.offer([row])
    size = params.population_size
    n_children = size - params.elitism_count
    pairs = (n_children + 1) // 2
    for generation in range(params.generations):
        order = sorted(range(size), key=lambda i: (costs[i], i))
        new_pop = [population[i] for i in order[: params.elitism_count]]
        new_costs = [costs[i] for i in order[: params.elitism_count]]
        picks = roulette_select(costs, 2 * pairs, rng).reshape(pairs, 2)
        crossed = rng.random(pairs) < params.selection_probability
        cuts = np.sort(rng.integers(1, g.n + 1, size=(pairs, 2)), axis=1)
        mutating = rng.random(n_children) < params.mutation_rate
        cells = rng.integers(g.n, size=int(mutating.sum()))
        colours = rng.integers(1, k_max + 1, size=cells.size)
        mutations = iter(zip(cells.tolist(), colours.tolist()))
        for j in range(n_children):
            pair, side = divmod(j, 2)
            a, b = population[picks[pair, 0]], population[picks[pair, 1]]
            if crossed[pair]:
                child = crossover_2pt_at(a, b, int(cuts[pair, 0]), int(cuts[pair, 1]))[side]
            else:
                child = (a, b)[side].copy()
            if mutating[j]:
                cell, colour = next(mutations)
                child[cell] = colour
            child_cost = cost(g, child, cost_params)
            new_pop.append(child)
            new_costs.append(child_cost)
            best.offer([child])
        population, costs = new_pop, new_costs
        if _inspect is not None:
            _inspect("end", generation, population, [float(c) for c in costs])
        best.history.append(best.cost)
        if params.early_stop_at_chromatic and best.conflicts == 0 and best.used <= params.known_chromatic:
            return best.result(TERMINATED_EARLY_STOP)
    return best.result(TERMINATED_DECADES)


class TestBatchedGeneration:
    """run_ga draws, builds and scores a generation's children as one array;
    results, populations and cost types equal the child-by-child loop."""

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


class TestBreed:
    """What each child of a generation may be, whatever the draws."""

    K_MAX = 50

    @staticmethod
    def _record(monkeypatch, name):
        """Record what each call to ga's `name` returns."""
        calls = []
        real = getattr(colorica.ga, name)

        def recording(*args):
            out = real(*args)
            calls.append(out)
            return out

        monkeypatch.setattr(colorica.ga, name, recording)
        return calls

    def _breed(self, size, elite, seed, **kw):
        rng = np.random.default_rng(seed)
        pool = rng.integers(1, self.K_MAX + 1, size=(size, 30))
        costs = rng.integers(1, 20, size=size).tolist()
        params = GaParams(population_size=size, elitism_count=len(elite), **kw)
        return pool, breed(pool, costs, elite, self.K_MAX, params, rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_without_crossover_or_mutation_each_child_is_its_parent(self, monkeypatch, seed):
        spins = self._record(monkeypatch, "spin")
        pool, nxt = self._breed(20, [4, 0], seed, selection_probability=0.0, mutation_rate=0.0)
        (parents,) = spins
        assert parents.shape == (9, 2)
        np.testing.assert_array_equal(nxt[:2], pool[[4, 0]])
        np.testing.assert_array_equal(nxt[2:], pool[parents.ravel()])

    @pytest.mark.parametrize("seed", range(5))
    def test_full_mutation_changes_at_most_one_cell_of_the_crossover(self, monkeypatch, seed):
        spins = self._record(monkeypatch, "spin")
        cuts = self._record(monkeypatch, "cut_points")
        pool, nxt = self._breed(21, [3], seed, selection_probability=1.0, mutation_rate=1.0)
        (parents,), (cut,) = spins, cuts
        changed = []
        for j, child in enumerate(nxt[1:]):
            pair, side = divmod(j, 2)
            a, b = pool[parents[pair]]
            crossed = crossover_2pt_at(a, b, int(cut[pair, 0]), int(cut[pair, 1]))[side]
            changed.append(int(np.count_nonzero(child != crossed)))
        assert max(changed) == 1
        # one new colour in K_MAX is the old one
        assert sum(changed) >= len(changed) // 2

    def test_odd_child_count_drops_the_last_pairs_second_child(self, monkeypatch):
        spins = self._record(monkeypatch, "spin")
        pool, nxt = self._breed(8, [2], 3, selection_probability=0.0, mutation_rate=0.0)
        (parents,) = spins
        assert parents.shape == (4, 2)
        np.testing.assert_array_equal(nxt[1:], pool[parents.ravel()[:7]])

    @pytest.mark.parametrize("cells", [13, 26, 39, 52, 78, 91])
    def test_chunks_of_whole_pairs_give_the_one_chunk_generation(self, monkeypatch, cells):
        # n = 13, so a pair's two children are 26 cells: a chunk of 1, 2 or 3
        # pairs, or of one pair when BATCH_CELLS holds less than that; 9 children
        # are 5 pairs, the last with one child, so every case takes 2-5 chunks
        params = GaParams(population_size=11, elitism_count=2, selection_probability=0.7, mutation_rate=0.5)

        def generations(rng):
            pool = rng.integers(1, self.K_MAX + 1, size=(11, 13))
            out = []
            for _ in range(6):
                costs = (pool % 7).sum(axis=1).astype(float)
                pool = breed(pool, costs, np.argsort(costs, kind="stable")[:2], self.K_MAX, params, rng)
                out.append(pool.tolist())
            return out, rng.random()

        want = generations(np.random.default_rng(cells))
        monkeypatch.setattr(colorica.ga, "BATCH_CELLS", cells)
        assert generations(np.random.default_rng(cells)) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_colours_stay_within_k_max(self, seed):
        g = complete_graph(6)
        params = GaParams(population_size=15, generations=10, k_max=3, mutation_rate=1.0, rng_seed=seed)
        seen = set()

        def watch(stage, generation, population, costs):
            for row in population:
                seen.update(row.tolist())

        run_ga(g, params, _inspect=watch)
        assert seen == {1, 2, 3}

    def test_memory_does_not_grow_with_generations(self):
        # all rows but one are carried over each generation: a carried row that
        # kept its generation's array alive would add one such array (3.2 MB)
        # to the peak per generation
        g = Graph(2000, tuple((v, v + 1) for v in range(1, 2000)))
        g.edge_index_arrays
        peaks = []
        for generations in (5, 40):
            params = GaParams(population_size=200, generations=generations, elitism_count=199, k_max=3)
            tracemalloc.start()
            try:
                run_ga(g, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestInspectOnlyObserves:
    """run_ga keeps the per-row list only for `_inspect`; building it must not
    change the run."""

    GRAPHS = {"k6": complete_graph(6), "myciel3": mycielski_graph(4), "queen4": queen_graph(4)}

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("elitism", [0, 1, 3, 11])
    @pytest.mark.parametrize("seed", [1, 2, 31])
    def test_same_result_with_and_without_inspect(self, graph, elitism, seed):
        g = self.GRAPHS[graph]
        params = GaParams(
            population_size=12, generations=15, elitism_count=elitism, rng_seed=seed,
            penalty=0.5 if seed == 2 else None,
            early_stop_at_chromatic=seed == 31, known_chromatic=4 if seed == 31 else None,
        )
        calls = []
        watched = run_ga(g, params, _inspect=lambda *args: calls.append(args[1]))
        plain = run_ga(g, params)
        assert watched == plain
        assert type(watched.best_cost) is type(plain.best_cost)
        assert calls == list(range(plain.decades_executed))

    def test_inspected_rows_and_costs_are_the_generation(self):
        g = mycielski_graph(4)
        cp = CostParams.for_graph(g)
        params = GaParams(population_size=16, generations=6, elitism_count=3, rng_seed=7)
        seen = []

        def watch(stage, generation, population, costs):
            seen.append(min(costs))
            assert len(population) == len(costs) == 16
            assert all(type(c) is float for c in costs)
            assert [cost(g, row, cp) for row in population] == costs

        result = run_ga(g, params, _inspect=watch)
        # an elite carries the cheapest row over, so each generation holds the best so far
        assert tuple(seen) == result.cost_history

    def test_inspected_memory_does_not_grow_with_generations(self):
        # as TestBreed's check, with the per-row list built for `_inspect`: a
        # carried child that viewed its generation's array would keep that
        # array (3.2 MB) alive for as long as the child stays an elite
        g = Graph(2000, tuple((v, v + 1) for v in range(1, 2000)))
        g.edge_index_arrays
        peaks = []
        for generations in (5, 40):
            params = GaParams(population_size=200, generations=generations, elitism_count=199, k_max=3)
            tracemalloc.start()
            try:
                run_ga(g, params, _inspect=lambda *args: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
