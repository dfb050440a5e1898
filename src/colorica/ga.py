"""Genetic-algorithm baseline over the same colouring encoding and cost.

Generational loop with roulette parent selection, two-point crossover,
single-position mutation and a small elite carried over unchanged.  A
generation's children are drawn, built and scored as one array: one spin of
one roulette wheel picks every parent pair, each other random choice is one
call, and one offer to `BestSoFar` scores them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `cost` is not called here but stays importable as colorica.ga.cost, a name
# the benchmark's probe and its tests look up
from .coloring import BATCH_CELLS, cost  # noqa: F401
from .engine import (
    TERMINATED_DECADES,
    TERMINATED_EARLY_STOP,
    BestSoFar,
    RunResult,
    SearchParams,
    copy_segment,
    copy_segments,
    cut_points,
    init_population,
    rank,
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

    def __post_init__(self) -> None:
        super().__post_init__()
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


def breed(pool: np.ndarray, costs, elite, k_max: int, params: GaParams, rng) -> np.ndarray:
    """The next generation of the (size, n) array `pool`, whose rows cost `costs`
    (`run_ga` passes one float64 array), as a new (size, n) array: the rows
    `elite` first, then the children.

    The children are the batched form of `roulette_select`, `crossover_2pt` and
    `mutate`: pairs of parents come off one spin of a roulette wheel over
    `costs`, each pair crosses over with probability `selection_probability`,
    and each child then has one uniform cell set to a uniform colour in 1..k_max
    with probability `mutation_rate`.  The parents, crossover coins, cut
    points, mutation coins, cells and colours are drawn in one call each, in
    that order.  Child 2i is pair i's first parent with the second's segment,
    child 2i+1 the reverse; an odd child count drops the last pair's second
    child.  Each child starts as a copy of its base parent; the segments of
    the crossing children are pasted in row chunks of about BATCH_CELLS cells.
    """
    size, n = pool.shape
    count = size - len(elite)
    pairs = (count + 1) // 2
    parents = spin(_fitness_wheel(costs), rng.random((pairs, 2)))
    crossed = rng.random(pairs) < params.selection_probability
    cuts = cut_points(n, pairs, rng).repeat(2, axis=0)[:count]
    bases = parents.ravel()[:count]
    donors = parents[:, ::-1].ravel()[:count]
    # only the children of a pair that crosses over take a donor's segment
    crossing = np.flatnonzero(crossed.repeat(2)[:count])
    nxt = np.empty_like(pool)
    nxt[: len(elite)] = pool[elite]
    children = nxt[len(elite) :]
    # mode="clip" (the indices are in range) writes `out` without a buffer copy
    np.take(pool, bases, axis=0, out=children, mode="clip")
    step = max(1, BATCH_CELLS // n)
    for start in range(0, crossing.size, step):
        rows = crossing[start : start + step]
        children[rows] = copy_segments(pool[donors[rows]], children[rows], cuts[rows])
    mutants = np.flatnonzero(rng.random(count) < params.mutation_rate)
    cells = rng.integers(n, size=mutants.size)
    colours = rng.integers(1, k_max + 1, size=mutants.size)
    children[mutants, cells] = colours
    return nxt


def run_ga(g: Graph, params: GaParams, _inspect=None) -> RunResult:
    """Full generational loop; deterministic for a given (graph, params) pair.

    A generation is one (size, n) array, built by one `breed` call (its
    `elitism_count` cheapest rows by `rank`, carried over unchanged, then the
    children), and one float64 array of its costs.  The initial population and
    each generation's children are offered to `BestSoFar`, which counts them,
    keeps the first cheapest and returns their costs.  `_inspect` gets the
    generation as a list of rows and its costs as a list of Python floats.
    """
    rng = np.random.default_rng(params.rng_seed)
    k_max = params.palette(g)
    best = BestSoFar(g, params)

    population = init_population(g, params, rng)
    pool = np.array(population)
    costs = best.offer(pool)
    if _inspect is None:
        # only `_inspect` sees the rows as a list: each elite carried over as
        # the same object, each child a new one
        population = None
    kept = params.elitism_count

    for generation in range(params.generations):
        elite = rank(costs)[:kept]
        pool = breed(pool, costs, elite, k_max, params, rng)
        children = pool[kept:]
        costs = np.concatenate((costs[elite], best.offer(children)))
        if _inspect is not None:
            # each child its own copy: a carried row that was a view would keep
            # its whole generation's array alive
            population = [population[j] for j in elite] + [row.copy() for row in children]
            _inspect("end", generation, population, costs.tolist())
        if best.end_iteration():
            return best.result(TERMINATED_EARLY_STOP)
    return best.result(TERMINATED_DECADES)
