"""Genetic-algorithm baseline over the same colouring encoding and cost.

Generational loop with roulette parent selection, two-point crossover,
single-position mutation and a small elite carried over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import cost
from .engine import (
    TERMINATED_DECADES,
    TERMINATED_EARLY_STOP,
    BestSoFar,
    RunResult,
    SearchParams,
    init_population,
    resolve_k_max,
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
    arr = np.asarray(costs, dtype=float)
    if arr.size == 0:
        raise ValueError("empty population")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    fitness = (arr.max() - arr) + 1.0
    cum = np.cumsum(fitness)
    r = rng.random(count) * cum[-1]
    return np.searchsorted(cum, r, side="right")


def crossover_2pt_at(a, b, c1: int, c2: int) -> tuple[np.ndarray, np.ndarray]:
    """Swap the segment c1..c2 (1-based, inclusive) between the two parents."""
    pa = np.array(a)
    pb = np.array(b)
    if pa.shape != pb.shape:
        raise ValueError("parent lengths differ")
    n = pa.shape[0]
    if not 1 <= c1 <= c2 <= n:
        raise ValueError(f"need 1 <= c1 <= c2 <= {n}, got c1={c1} c2={c2}")
    lo, hi = c1 - 1, c2
    pa[lo:hi], pb[lo:hi] = pb[lo:hi].copy(), pa[lo:hi].copy()
    return pa, pb


def crossover_2pt(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    n = len(a)
    pts = rng.integers(1, n + 1, size=2)
    c1, c2 = int(pts[0]), int(pts[1])
    if c1 > c2:
        c1, c2 = c2, c1
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
    """Full generational loop; deterministic for a given (graph, params) pair."""
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
