"""What both population engines share: the common parameters, the default
penalty, the initial population, the cost-then-index ranking, the cut points
and segment copy of assimilation and crossover, the roulette wheel, the
best-so-far with its first-cheapest offer and early stop, and the run result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import CostParams, count_conflicts, distinct_colours
from .graphs import Graph, max_degree

TERMINATED_DECADES = "decades_exhausted"
TERMINATED_SINGLE_EMPIRE = "single_empire"
TERMINATED_EARLY_STOP = "early_stop"

# the most population cells (population_size x vertex count) a run may hold:
# 2^23 int64 cells are 64 MB, room for the default 300 countries at the
# 16384-vertex input bound and for ga's stacked copy of a generation
MAX_POPULATION_CELLS = 1 << 23


@dataclass(frozen=True)
class SearchParams:
    """The parameters both engines take; each engine adds its own on a subclass."""

    population_size: int = 300
    k_max: int | None = None
    penalty: float | None = None
    early_stop_at_chromatic: bool = False
    known_chromatic: int | None = None
    rng_seed: int = 1

    def validate(self) -> None:
        if self.population_size < 1:
            raise ValueError(f"population_size must be >= 1, got {self.population_size}")
        if self.k_max is not None and self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.penalty is not None and not 0.0 < self.penalty < math.inf:
            raise ValueError(f"penalty must be finite and > 0, got {self.penalty}")
        if self.known_chromatic is not None and self.known_chromatic < 1:
            raise ValueError(f"known_chromatic must be >= 1, got {self.known_chromatic}")

    def cost_params(self, g: Graph) -> CostParams:
        """The penalty, by default the vertex count as a float; refused if the
        worst cost on `g` would not be a finite float."""
        penalty = float(g.n) if self.penalty is None else self.penalty
        if not math.isfinite(penalty * g.m + g.n):
            raise ValueError(f"penalty {penalty} overflows the cost of a {g.m}-edge graph")
        return CostParams(penalty)


@dataclass(frozen=True)
class RunResult:
    best: tuple[int, ...]
    best_cost: float
    conflicts: int
    colours_used: int
    decades_executed: int
    cost_history: tuple[float, ...]
    terminated_by: str


def resolve_k_max(g: Graph, k_max: int | None) -> int:
    if k_max is None:
        return max_degree(g) + 1
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return k_max


def init_population(g: Graph, params: SearchParams, rng: np.random.Generator) -> list[np.ndarray]:
    """Random permuted countries, `params.population_size` of them, over `params.k_max`.

    Each country is an independent shuffle of the balanced palette
    (1, 2, ..., k_max, 1, 2, ... truncated to n cells), so every colour value
    starts equally represented.  Swap-style perturbation can then reach any
    arrangement of that palette, which a cell-wise independent draw does not
    guarantee.
    """
    if params.population_size * g.n > MAX_POPULATION_CELLS:
        raise ValueError(
            f"a population of {params.population_size} x {g.n} vertices exceeds "
            f"the supported {MAX_POPULATION_CELLS} cells"
        )
    k_max = resolve_k_max(g, params.k_max)
    base = np.arange(g.n, dtype=np.int64) % k_max + 1
    return [base[rng.permutation(g.n)] for _ in range(params.population_size)]


def rank(costs) -> list[int]:
    """Indices by cost, then index: a stable sort over float64, exact for int costs."""
    return np.argsort(np.asarray(costs, dtype=float), kind="stable").tolist()


def cut_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 2) 1-based cut points c1 <= c2: two independent uniform draws, sorted."""
    cuts = rng.integers(1, n + 1, size=(count, 2))
    cuts.sort(axis=1)
    return cuts


def copy_segment(donor, base, c1: int, c2: int) -> np.ndarray:
    """A copy of `base` with the donor's cells c1..c2 (1-based, inclusive)."""
    src = np.asarray(donor)
    child = np.array(base)
    if src.shape != child.shape:
        raise ValueError("donor and base lengths differ")
    if not 1 <= c1 <= c2 <= len(child):
        raise ValueError(f"need 1 <= c1 <= c2 <= {len(child)}, got c1={c1} c2={c2}")
    child[c1 - 1 : c2] = src[c1 - 1 : c2]
    return child


def roulette_wheel(weights) -> tuple[np.ndarray, float]:
    """A roulette wheel over non-negative `weights`: their running sums but the
    last, and their total.  Build it once for as long as the weights hold."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    return cum[:-1], float(cum[-1])


def spin(wheel: tuple[np.ndarray, float], r):
    """The slot each uniform draw in `r` lands on: the first whose running sum
    exceeds r * total, or else the last slot."""
    bounds, total = wheel
    return bounds.searchsorted(r * total, side="right")


class BestSoFar:
    """The cheapest colouring a run has seen (first cheapest initial row on) and
    the per-iteration best costs.  Its clash and colour counts are taken when
    the best improves, never through `cost`, whose calls are the evaluations."""

    def __init__(self, g: Graph, population, costs) -> None:
        self.g = g
        self.history: list[float] = []
        self.cost = float("inf")
        self.offer_cheapest(population, costs)

    def offer(self, row: np.ndarray, cost) -> None:
        """Keep `row` if it is strictly cheaper than the best so far."""
        if cost < self.cost:
            self.row, self.cost = row, cost
            self.conflicts = count_conflicts(self.g, row)
            self.used = distinct_colours(row)

    def offer_cheapest(self, rows, costs) -> None:
        """Offer the first cheapest of `rows`: what offering each in turn keeps."""
        i = int(np.argmin(costs))
        self.offer(rows[i], costs[i])

    def end_iteration(self, params: SearchParams) -> bool:
        """Log the best cost of a finished iteration; True if the run asked to stop
        at a known chromatic number and a proper colouring within it is in hand."""
        self.history.append(self.cost)
        chi = params.known_chromatic
        asked = params.early_stop_at_chromatic and chi is not None
        return asked and self.conflicts == 0 and self.used <= chi

    def result(self, terminated_by: str) -> RunResult:
        return RunResult(
            tuple(int(x) for x in self.row), self.cost, self.conflicts, self.used,
            len(self.history), tuple(self.history), terminated_by,
        )
