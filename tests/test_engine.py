"""The shared engine core: the ranking and first-cheapest rules, the roulette
wheel, the penalty bound and the population bound."""

import numpy as np
import pytest

from colorica.engine import (
    MAX_POPULATION_CELLS,
    BestSoFar,
    SearchParams,
    init_population,
    rank,
    roulette_wheel,
    spin,
)
from colorica.graphs import MAX_VERTICES, complete_graph, mycielski_graph


def _running_sum_pick(weights, r):
    """The first slot whose running sum exceeds r * total, else the last one."""
    total = float(sum(weights))
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r * total < acc:
            return i
    return len(weights) - 1


class TestRouletteWheel:
    def test_matches_a_running_sum(self):
        gen = np.random.default_rng(5)
        for trial in range(2000):
            k = int(gen.integers(1, 10))
            weights = gen.random(k) * 10.0 ** gen.uniform(-9, 6)
            weights[gen.random(k) < 0.3] = 0.0
            if weights.sum() == 0.0:
                continue
            wheel = roulette_wheel(weights.tolist())
            draws = gen.random(8)
            picks = spin(wheel, draws)
            assert picks.tolist() == [_running_sum_pick(weights.tolist(), r) for r in draws]
            assert int(spin(wheel, float(draws[0]))) == int(picks[0])

    def test_zero_weights_are_never_picked(self):
        wheel = roulette_wheel([0.0, 2.0, 0.0, 1.0, 0.0])
        picks = spin(wheel, np.random.default_rng(3).random(5000))
        assert set(picks.tolist()) == {1, 3}

    def test_draw_at_the_total_lands_on_the_last_slot(self):
        assert int(spin(roulette_wheel([1.0, 1.0, 0.0]), 1.0)) == 2
        assert int(spin(roulette_wheel([3.0]), 0.999)) == 0

    def test_total(self):
        assert roulette_wheel([0.5, 0.25, 0.25])[1] == 1.0


class TestPopulationBound:
    def test_default_population_fits_at_the_vertex_bound(self):
        assert 300 * MAX_VERTICES <= MAX_POPULATION_CELLS

    def test_too_many_cells_raise_before_allocating(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match=str(MAX_POPULATION_CELLS)):
            init_population(g, SearchParams(population_size=10**12), np.random.default_rng(1))
        with pytest.raises(ValueError, match="cells"):
            init_population(g, SearchParams(population_size=MAX_POPULATION_CELLS // 4 + 1), np.random.default_rng(1))


def _mixed_costs(gen, count):
    """Costs as the engines hold them: int for proper rows, float for clashing
    ones, with many ties between and across the two types."""
    values = gen.integers(1, 6, size=count).tolist()
    return [float(v) if flip else v for v, flip in zip(values, gen.random(count) < 0.5)]


class TestRank:
    def test_matches_cost_then_index(self):
        gen = np.random.default_rng(11)
        for _ in range(500):
            costs = _mixed_costs(gen, int(gen.integers(1, 40)))
            costs = [c + 0.5 if gen.random() < 0.2 else c for c in costs]
            assert rank(costs) == sorted(range(len(costs)), key=lambda i: (costs[i], i))

    def test_ties_keep_index_order(self):
        assert rank([3, 1.0, 3.0, 1, 2]) == [1, 3, 4, 0, 2]
        assert all(type(i) is int for i in rank([2.0, 1]))


class TestOfferCheapest:
    def test_matches_offering_each_in_turn(self):
        g = mycielski_graph(4)
        gen = np.random.default_rng(13)
        for _ in range(300):
            count = int(gen.integers(1, 12))
            first = list(gen.integers(1, 5, size=(count, g.n)))
            later = list(gen.integers(1, 5, size=(count, g.n)))
            first_costs, later_costs = _mixed_costs(gen, count), _mixed_costs(gen, count)
            one, each = BestSoFar(g, first, first_costs), BestSoFar(g, first, first_costs)
            one.offer_cheapest(later, later_costs)
            for row, c in zip(later, later_costs):
                each.offer(row, c)
            assert one.row is each.row
            assert (one.cost, type(one.cost), one.conflicts, one.used) == (
                each.cost, type(each.cost), each.conflicts, each.used
            )

    def test_first_of_equal_minima(self):
        g = complete_graph(3)
        rows = [np.array([1, 2, 3]), np.array([1, 1, 2]), np.array([2, 3, 1])]
        best = BestSoFar(g, rows, [3, 4.0, 3.0])
        assert best.row is rows[0] and best.cost == 3 and type(best.cost) is int

    def test_no_improvement_keeps_the_best(self):
        g = complete_graph(3)
        rows = [np.array([1, 2, 3]), np.array([1, 1, 2])]
        best = BestSoFar(g, rows, [3, 5.0])
        best.offer_cheapest([np.array([3, 2, 1]), np.array([2, 2, 2])], [3.0, 11.0])
        assert best.row is rows[0] and best.cost == 3 and type(best.cost) is int
        assert (best.conflicts, best.used) == (0, 3)


class TestCostParams:
    def test_penalty_whose_worst_cost_overflows_is_refused(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="penalty"):
            SearchParams(penalty=1e308).cost_params(g)
        assert SearchParams(penalty=1e300).cost_params(g).penalty == 1e300
        assert SearchParams().cost_params(g).penalty == 4.0
