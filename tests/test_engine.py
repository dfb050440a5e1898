"""The shared engine core: the roulette wheel and the population bound."""

import numpy as np
import pytest

from colorica.engine import MAX_POPULATION_CELLS, SearchParams, init_population, roulette_wheel, spin
from colorica.graphs import MAX_VERTICES, complete_graph


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
