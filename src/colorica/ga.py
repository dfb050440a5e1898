"""Genetic-algorithm baseline over the same colouring encoding and cost.

Generational loop with roulette parent selection, two-point crossover,
single-position mutation and a small elite carried over unchanged.  A
generation's parents are drawn from one roulette wheel, and its children are
scored together by one `batch_costs` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `cost` is not called here but stays importable as colorica.ga.cost, a name
# the benchmark's probe and its tests look up
from .coloring import batch_costs, cost  # noqa: F401
from .engine import (
    TERMINATED_DECADES,
    TERMINATED_EARLY_STOP,
    BestSoFar,
    RunResult,
    SearchParams,
    copy_segment,
    cut_points,
    init_population,
    rank,
    resolve_k_max,
    roulette_wheel,
    spin,
)
from .graphs import Graph


@dataclass(frozen=True)
class GaParams(SearchParams):
    generations: int = 100
    mutation_rate: float = 0.25
    selection_probability: float = 0.50
    elitism_count: int = 1

    def validate(self) -> None:
        super().validate()
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if not 0.0 <= self.selection_probability <= 1.0:
            raise ValueError(
                f"selection_probability must be in [0, 1], got {self.selection_probability}"
            )
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError(
                f"need 0 <= elitism_count < population_size, got {self.elitism_count}"
            )


def roulette_select(
    costs, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `count` indices with replacement, favouring low cost.

    Fitness is (max cost - cost) + 1, so the worst individual keeps a nonzero
    chance and an all-equal population is sampled uniformly.
    """
    if len(costs) == 0:
        raise ValueError("empty population")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return spin(_fitness_wheel(costs), rng.random(count))


def _fitness_wheel(costs) -> tuple[np.ndarray, float]:
    """The roulette wheel over the fitness (max cost - cost) + 1."""
    arr = np.asarray(costs, dtype=float)
    return roulette_wheel((arr.max() - arr) + 1.0)


def crossover_2pt_at(a, b, c1: int, c2: int) -> tuple[np.ndarray, np.ndarray]:
    """Swap the segment c1..c2 (1-based, inclusive) between the two parents."""
    return copy_segment(b, a, c1, c2), copy_segment(a, b, c1, c2)


def crossover_2pt(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    c1, c2 = cut_points(len(a), 1, rng)[0].tolist()
    return crossover_2pt_at(a, b, c1, c2)


def mutate(col, k_max: int, rng: np.random.Generator) -> np.ndarray:
    """Reassign one uniformly chosen position to a uniform colour in {1..k_max}."""
    child = np.array(col)
    n = child.shape[0]
    if n < 1:
        raise ValueError("colouring must be non-empty")
    pos = int(rng.integers(n))
    child[pos] = int(rng.integers(1, k_max + 1))
    return child


def run_ga(g: Graph, params: GaParams, _inspect=None) -> RunResult:
    """Full generational loop; deterministic for a given (graph, params) pair.

    The initial population and each generation's children are scored by one
    `batch_costs` call each.  Each generation spins one roulette wheel, built
    from the generation's costs, for every parent pair, builds the children one
    pair at a time and offers the first cheapest child as the best.
    """
    params.validate()
    rng = np.random.default_rng(params.rng_seed)
    k_max = resolve_k_max(g, params.k_max)
    cost_params = params.cost_params(g)

    population = init_population(g, params, rng)
    costs = batch_costs(g, np.array(population), cost_params)[0]

    best = BestSoFar(g, population, costs)
    n_children = params.population_size - params.elitism_count

    for generation in range(params.generations):
        elite = rank(costs)[: params.elitism_count]
        wheel = _fitness_wheel(costs)
        children: list[np.ndarray] = []
        while len(children) < n_children:
            pi = spin(wheel, rng.random(2))
            pa, pb = population[pi[0]], population[pi[1]]
            if rng.random() < params.selection_probability:
                pair = crossover_2pt(pa, pb, rng)
            else:
                pair = (pa.copy(), pb.copy())
            # a pair that overfills the population loses its second child
            for child in pair[: n_children - len(children)]:
                if rng.random() < params.mutation_rate:
                    child = mutate(child, k_max, rng)
                children.append(child)
        child_costs = batch_costs(g, np.array(children), cost_params)[0]
        best.offer_cheapest(children, child_costs)
        population = [population[i] for i in elite] + children
        costs = [costs[i] for i in elite] + child_costs
        if _inspect is not None:
            _inspect("end", generation, population, costs)
        if best.end_iteration(params):
            return best.result(TERMINATED_EARLY_STOP)
    return best.result(TERMINATED_DECADES)
