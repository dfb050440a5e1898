"""The shared engine core: the ranking and first-cheapest rules, the roulette
wheel, the segment copy, the params checks, the penalty bound, the seed, the
population bound, the colours the engines offer and the run loop's budget and
stop order."""

import re

import numpy as np
import pytest

from colorica.coloring import (
    CostParams,
    batch_counts,
    cost,
    cost_array,
    count_conflicts,
)
from colorica import engine
from colorica.dica import DicaParams, run_dica
from colorica.engine import (
    MAX_POPULATION_CELLS,
    TERMINATED_DECADES,
    TERMINATED_EARLY_STOP,
    TERMINATED_SINGLE_EMPIRE,
    BestSoFar,
    SearchParams,
    copy_segment,
    copy_segments,
    cut_points,
    init_population,
    rank,
    roulette_wheel,
    run_search,
    spin,
)
from colorica.ga import GaParams, run_ga
from colorica.graphs import MAX_VERTICES, Graph, complete_graph, mycielski_graph, queen_graph


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


class TestCopySegments:
    def test_each_row_takes_the_donors_slice(self):
        gen = np.random.default_rng(17)
        for n in (1, 2, 7, 50):
            donors = gen.integers(1, 9, size=(30, n))
            bases = gen.integers(1, 9, size=(30, n))
            cuts = cut_points(n, 30, gen)
            got = copy_segments(donors, bases, cuts)
            for i, (c1, c2) in enumerate(cuts.tolist()):
                want = bases[i].copy()
                want[c1 - 1 : c2] = donors[i, c1 - 1 : c2]
                assert got[i].tolist() == want.tolist()
                assert copy_segment(donors[i], bases[i], c1, c2).tolist() == want.tolist()

    @pytest.mark.parametrize("n", [255, 256, 65535, 65536])
    def test_narrow_mask_as_the_int64_one_for_any_cuts(self, n):
        # cuts outside 1..n, reversed and far past either end, besides drawn ones
        gen = np.random.default_rng(n)
        cuts = np.array([
            [1, n], [0, n + 1], [0, 0], [n + 1, n + 1], [-5, 3], [-3, -1], [n, n + 1], [n + 1, n + 7],
            [5, 3], [n + 1, 0], [-(1 << 40), 1 << 40], *cut_points(n, 5, gen).tolist(),
        ])
        donors = gen.integers(1, 9, size=(len(cuts), n))
        bases = gen.integers(1, 9, size=(len(cuts), n))
        cell = np.arange(1, n + 1, dtype=np.int64)
        want = np.where((cuts[:, :1] <= cell) & (cell <= cuts[:, 1:]), donors, bases)
        assert np.array_equal(copy_segments(donors, bases, cuts), want)

    def test_inputs_unchanged(self):
        donors, bases = np.ones((2, 4), dtype=np.int64), np.zeros((2, 4), dtype=np.int64)
        got = copy_segments(donors, bases, np.array([[1, 2], [4, 4]]))
        assert got.tolist() == [[1, 1, 0, 0], [0, 0, 0, 1]]
        assert donors.min() == 1 and bases.max() == 0


class TestSeed:
    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
            SearchParams(rng_seed=-1)
        SearchParams(rng_seed=0)


class TestRunSearch:
    def test_takes_no_step_past_the_budget(self):
        steps = []

        def search(rng, best):
            best.offer([[1, 2, 3]])
            while True:
                steps.append(rng.random())
                yield None

        result = run_search(complete_graph(3), SearchParams(rng_seed=4), 5, search)
        assert result.terminated_by == TERMINATED_DECADES and result.decades_executed == 5
        assert steps == np.random.default_rng(4).random(5).tolist()

    def test_early_stop_before_the_step_reason(self):
        # an edgeless graph: dica's one imperialist is one empire from the start,
        # and every colouring in one colour is proper
        g = Graph(3, ())
        params = dict(population_size=10, k_max=1, known_chromatic=1)
        early = run_dica(g, DicaParams(**params, early_stop_at_chromatic=True))
        assert (early.terminated_by, early.decades_executed) == (TERMINATED_EARLY_STOP, 1)
        single = run_dica(g, DicaParams(**params))
        assert (single.terminated_by, single.decades_executed) == (TERMINATED_SINGLE_EMPIRE, 1)


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


def _counted_rows(gen, g, proper, count, params):
    """Rows, some proper, with the `cost_array` of their `batch_counts` and the
    exact costs `cost` gives them."""
    rows = gen.integers(1, 5, size=(count, g.n))
    shifted = gen.random(count) < 0.4
    # a proper colouring with every colour moved up stays proper
    rows[shifted] = proper + gen.integers(0, 3, size=(int(shifted.sum()), 1))
    return rows, cost_array(*batch_counts(g, rows), params), [cost(g, row, params) for row in rows]


def _offered(g, rows, penalty):
    """A BestSoFar at `penalty` offered `rows`."""
    best = BestSoFar(g, SearchParams(penalty=penalty))
    best.offer(rows)
    return best


class TestOffer:
    def test_matches_offering_each_in_turn(self):
        g = mycielski_graph(4)
        proper = np.array([1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4])
        assert count_conflicts(g, proper) == 0
        gen = np.random.default_rng(13)
        for trial in range(300):
            count = int(gen.integers(1, 12))
            # two batches, against each row offered as a one-row batch; a
            # penalty of 0.5 ties clashing rows with proper ones, and an int
            # penalty keeps clashing costs int
            params = CostParams((0.5, float(g.n), 2)[trial % 3])
            first, first_costs, first_exact = _counted_rows(gen, g, proper, count, params)
            later, later_costs, later_exact = _counted_rows(gen, g, proper, count, params)
            search = SearchParams(penalty=params.penalty)
            one, each = BestSoFar(g, search), BestSoFar(g, search)
            for rows, costs in ((first, first_costs), (later, later_costs)):
                returned = one.offer(rows)
                assert returned.dtype == np.float64 and np.array_equal(returned, costs)
            for row, c in zip(list(first) + list(later), first_exact + later_exact):
                assert each.offer([row]).tolist() == [c]
            assert np.array_equal(one.row, each.row)
            assert (one.cost, type(one.cost), one.conflicts, one.used) == (
                each.cost, type(each.cost), each.conflicts, each.used
            )
            want = cost(g, one.row, params)
            assert one.cost == want and type(one.cost) is type(want)
            if type(params.penalty) is float:
                assert (type(one.cost) is int) == (one.conflicts == 0)

    def test_first_of_equal_minima(self):
        # a penalty of 1 makes the clashing [1, 1, 2] cost 3.0, as the proper rows do
        g = complete_graph(3)
        rows = [np.array([1, 2, 3]), np.array([1, 1, 2]), np.array([2, 3, 1])]
        best = _offered(g, rows, 1.0)
        assert np.array_equal(best.row, rows[0]) and best.cost == 3 and type(best.cost) is int
        best = _offered(g, rows[1:], 1.0)
        assert np.array_equal(best.row, rows[1]) and best.cost == 3.0 and type(best.cost) is float

    def test_no_improvement_keeps_the_best(self):
        g = complete_graph(3)
        rows = [np.array([1, 2, 3]), np.array([1, 1, 2])]
        best = _offered(g, rows, 3.0)
        later = np.array([[3, 2, 1], [2, 2, 2]])
        assert best.offer(list(later)).tolist() == [3.0, 10.0]
        assert np.array_equal(best.row, rows[0]) and best.cost == 3 and type(best.cost) is int
        assert (best.conflicts, best.used) == (0, 3)

    def test_keeps_a_copy_not_a_view(self):
        # a row offered out of a whole batch must not keep that batch alive
        g = complete_graph(3)
        batch = np.array([[1, 1, 2], [1, 2, 3]])
        best = _offered(g, batch, 3.0)
        assert np.array_equal(best.row, batch[1]) and best.row.base is None
        batch[1] = [2, 2, 2]
        assert best.row.tolist() == [1, 2, 3] and (best.conflicts, best.used) == (0, 3)


    def test_list_of_rows_as_an_array(self):
        g = mycielski_graph(4)
        params, gen = SearchParams(penalty=2.0), np.random.default_rng(17)
        for trial in range(50):
            rows = list(gen.integers(1, 5, size=(int(gen.integers(1, 12)), g.n)))
            as_list, as_array = BestSoFar(g, params), BestSoFar(g, params)
            assert np.array_equal(as_list.offer(rows), as_array.offer(np.array(rows)))
            assert np.array_equal(as_list.row, as_array.row)
            assert (as_list.cost, as_list.conflicts, as_list.used) == (
                as_array.cost, as_array.conflicts, as_array.used
            )


_PATH5 = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5)))


class TestOfferedColours:
    """`batch_counts` refuses colours outside 0..MAX_VERTICES; every row either
    engine offers holds colours in 1..params.palette(g), which stays inside."""

    @pytest.mark.parametrize(
        "g, k_max, size",
        [
            (complete_graph(15), None, 40),
            (complete_graph(15), 7, 40),
            (mycielski_graph(5), None, 40),
            (mycielski_graph(5), 7, 40),
            (queen_graph(5), None, 40),
            (queen_graph(5), 7, 40),
            # a palette wider than the population's cells
            (_PATH5, 60, 4),
        ],
        ids=["k15", "k15-k7", "myciel5", "myciel5-k7", "queen5", "queen5-k7", "path5-k60"],
    )
    @pytest.mark.parametrize("algo", ["dica", "ga"])
    def test_every_offered_row_is_in_the_palette(self, algo, g, k_max, size, monkeypatch):
        batches = []

        def spy(graph, rows):
            batches.append(np.array(rows))
            return batch_counts(graph, rows)

        monkeypatch.setattr(engine, "batch_counts", spy)
        if algo == "dica":
            params = DicaParams(population_size=size, k_max=k_max, decades=10, rng_seed=3)
            run_dica(g, params)
        else:
            params = GaParams(population_size=size, k_max=k_max, generations=10, rng_seed=3)
            run_ga(g, params)
        top = params.palette(g)
        assert batches
        for rows in batches:
            assert rows.shape[1] == g.n and 1 <= rows.min() and rows.max() <= top


class TestParamsChecked:
    """Every params class checks its values when it is made; none has a
    `validate` to call."""

    @pytest.mark.parametrize(
        "cls, bad",
        [
            (SearchParams, dict(population_size=0)),
            (SearchParams, dict(penalty=float("nan"))),
            (DicaParams, dict(decades=0)),
            (DicaParams, dict(population_size=1)),
            (GaParams, dict(generations=0)),
            (GaParams, dict(population_size=3, elitism_count=3)),
        ],
    )
    def test_bad_value_refused_on_construction(self, cls, bad):
        with pytest.raises(ValueError):
            cls(**bad)
        assert not hasattr(cls(), "validate")

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (DicaParams, "population_size", 10.5),
            (DicaParams, "decades", 1.5),
            (DicaParams, "k_max", 2.5),
            (DicaParams, "rng_seed", 1.5),
            (DicaParams, "known_chromatic", 3.0),
            (GaParams, "generations", "10"),
            (GaParams, "elitism_count", 1.5),
            (SearchParams, "rng_seed", np.float64(2)),
        ],
    )
    def test_non_integer_refused_by_name(self, cls, field, value):
        # each used to fail inside the run with a TypeError that named no field
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "cls, field",
        [
            (DicaParams, "imperialist_fraction"),
            (DicaParams, "revolution_rate"),
            (DicaParams, "uniting_threshold"),
            (DicaParams, "damp_ratio"),
            (DicaParams, "xi"),
            (GaParams, "mutation_rate"),
            (GaParams, "selection_probability"),
        ],
    )
    def test_non_real_refused_by_name(self, cls, field):
        # each used to raise TypeError: '<=' not supported ..., naming no field
        for value in ("0.1", None):
            with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
                cls(**{field: value})
        assert getattr(cls(**{field: np.float64(0.5)}), field) == 0.5

    @pytest.mark.parametrize("cls", [DicaParams, GaParams])
    def test_non_bool_early_stop_refused_by_name(self, cls):
        # "no" is true, so the run would have stopped early at the known chromatic number
        for value in ("no", 0, 1, None):
            with pytest.raises(ValueError, match=f"^early_stop_at_chromatic must be a bool, got {re.escape(repr(value))}$"):
                cls(early_stop_at_chromatic=value, known_chromatic=3)
        assert cls(early_stop_at_chromatic=False, known_chromatic=3).early_stop_at_chromatic is False

    @pytest.mark.parametrize("cls", [SearchParams, DicaParams, GaParams])
    def test_integer_like_values_and_bools_are_accepted(self, cls):
        assert cls(population_size=np.int64(20), rng_seed=True, k_max=np.int32(3)).rng_seed is True

    @pytest.mark.parametrize("cls", [SearchParams, DicaParams, GaParams])
    def test_early_stop_needs_known_chromatic(self, cls):
        with pytest.raises(ValueError, match="^early_stop_at_chromatic needs known_chromatic$"):
            cls(early_stop_at_chromatic=True)
        assert cls(early_stop_at_chromatic=True, known_chromatic=3).known_chromatic == 3


class TestCostParams:
    def test_penalty_whose_worst_cost_overflows_is_refused(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="penalty"):
            SearchParams(penalty=1e308).cost_params(g)
        assert SearchParams(penalty=1e300).cost_params(g).penalty == 1e300
        assert SearchParams().cost_params(g).penalty == 4.0

    def test_penalty_whose_population_sum_overflows_is_refused(self):
        # one worst row of K2 costs 1e307 + 2, finite; 300 of them do not sum to a finite float
        g = complete_graph(2)
        with pytest.raises(ValueError, match="^penalty 1e\\+307 overflows the summed costs of 300 "):
            SearchParams(penalty=1e307).cost_params(g)
        assert SearchParams(population_size=17, penalty=1e307).cost_params(g).penalty == 1e307
