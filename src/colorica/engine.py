"""What both population engines share: the common parameters, checked when
made, the default penalty, the initial population, the cost-then-index
ranking, the cut points and segment copy of assimilation and crossover (one
row or a batch), the roulette wheel, the result, `BestSoFar`, the run
contract (an engine only makes batches of rows and offers them), and
`run_search`, the one run loop both engines step through.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .coloring import CostParams, batch_counts, cost_array, exact_cost
from .graphs import MAX_VERTICES, Graph, max_degree

TERMINATED_DECADES = "decades_exhausted"
TERMINATED_SINGLE_EMPIRE = "single_empire"
TERMINATED_EARLY_STOP = "early_stop"

# the most population cells (population_size x vertex count) a run may hold:
# 2^23 int64 cells are 64 MB, room for the default 300 countries at the
# 16384-vertex input bound.  ga holds two such arrays at once, its population
# and the next generation's, which it fills from the first and then crosses
# over in row chunks of coloring.BATCH_CELLS cells; a ga run at the bound
# (population 512 on a 16384-vertex path, 10 generations) peaks near 220 MB
MAX_POPULATION_CELLS = 1 << 23


@dataclass(frozen=True)
class SearchParams:
    """The parameters both engines take, checked when made; each engine subclasses it.
    Every int, float and bool field, here or in a subclass, refuses a value that
    is not an integer, a real number or a bool."""

    population_size: int = 300
    k_max: int | None = None
    penalty: float | None = None
    early_stop_at_chromatic: bool = False
    known_chromatic: int | None = None
    rng_seed: int = 1

    def __post_init__(self) -> None:
        # every typed field of this class and its subclasses: a float in an int field
        # would fail inside the run, a string in a float field in a comparison that
        # names no field, and any object in a bool field would be read by its truth
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = str(f.type).partition(" | ")
            if value is None and optional:
                continue
            if kind == "int" and not isinstance(value, numbers.Integral):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if kind == "float" and not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
            if kind == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
        if self.population_size < 1:
            raise ValueError(f"population_size must be >= 1, got {self.population_size}")
        # no colouring of a graph within the vertex bound needs more colours
        if self.k_max is not None and not 1 <= self.k_max <= MAX_VERTICES:
            raise ValueError(f"k_max must be in 1..{MAX_VERTICES}, got {self.k_max}")
        if self.penalty is not None:
            CostParams(self.penalty)  # refuses a penalty not finite and > 0
        if self.known_chromatic is not None and self.known_chromatic < 1:
            raise ValueError(f"known_chromatic must be >= 1, got {self.known_chromatic}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.early_stop_at_chromatic and self.known_chromatic is None:
            raise ValueError("early_stop_at_chromatic needs known_chromatic")

    def cost_params(self, g: Graph) -> CostParams:
        """The given penalty, else `CostParams.for_graph`'s; refused if the worst
        cost on `g`, summed over the population, would not be a finite float:
        dica sums an empire's colony costs and ga its roulette wheel."""
        params = CostParams.for_graph(g) if self.penalty is None else CostParams(self.penalty)
        if not math.isfinite(self.population_size * (params.penalty * g.m + g.n)):
            raise ValueError(
                f"penalty {params.penalty} overflows the summed costs of {self.population_size} "
                f"colourings of a {g.m}-edge graph"
            )
        return params

    def palette(self, g: Graph) -> int:
        """The largest colour an engine draws on `g`: `k_max`, else max degree + 1."""
        return max_degree(g) + 1 if self.k_max is None else self.k_max


@dataclass(frozen=True)
class RunResult:
    best: tuple[int, ...]
    best_cost: float
    conflicts: int
    colours_used: int
    decades_executed: int
    cost_history: tuple[float, ...]
    terminated_by: str


def init_population(g: Graph, params: SearchParams, rng: np.random.Generator) -> list[np.ndarray]:
    """Random permuted countries, `params.population_size` of them, over `params.palette(g)`.

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
    base = np.arange(g.n, dtype=np.int64) % params.palette(g) + 1
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
    child = np.asarray(base)
    if src.shape != child.shape:
        raise ValueError("donor and base lengths differ")
    if not 1 <= c1 <= c2 <= len(child):
        raise ValueError(f"need 1 <= c1 <= c2 <= {len(child)}, got c1={c1} c2={c2}")
    return copy_segments(src[None], child[None], np.array([[c1, c2]]))[0]


def copy_segments(donors: np.ndarray, bases: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """`copy_segment` on a whole (count, n) batch: row i of `bases` with row i of
    `donors`' cells cuts[i, 0]..cuts[i, 1] (1-based, inclusive), as a new array.
    Cuts clipped to 0..n + 1 keep their cells, so they compare in the type of n + 1."""
    n = bases.shape[1]
    kind = np.min_scalar_type(n + 1)
    cell = np.arange(1, n + 1, dtype=kind)
    # np.minimum and np.maximum, not np.clip, whose checks cost more than the whole mask here
    cuts = np.minimum(np.maximum(cuts, 0), n + 1).astype(kind)
    inside = (cuts[:, :1] <= cell) & (cell <= cuts[:, 1:])
    return np.where(inside, donors, bases)


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
    """The run contract both engines share.  Made from the graph and the run's
    params, it counts every batch of rows it is offered with
    `coloring.batch_counts`, turns the counts into float64 search costs, and
    keeps its own copy of the cheapest row so far, with that row's exact cost
    (an int when it is proper) and counts, and the per-iteration best costs
    `run_search` logs.  It holds the early-stop bound; it never calls `cost`."""

    def __init__(self, g: Graph, params: SearchParams) -> None:
        self.g = g
        self.cost_params = params.cost_params(g)
        self.stop_at = params.known_chromatic if params.early_stop_at_chromatic else None
        self.history: list[float] = []
        self.cost = float("inf")

    def offer(self, rows) -> np.ndarray:
        """The float64 costs of `rows`, a (count, n) array or a list of rows,
        from their `batch_counts`; a copy of the first cheapest row is kept if
        it is strictly below the best so far, which is what offering each row
        in turn would keep."""
        counts = batch_counts(self.g, rows)
        costs = cost_array(*counts, self.cost_params)
        i = int(np.argmin(costs))
        if costs[i] < self.cost:
            self.row = np.array(rows[i])
            self.conflicts, self.used = int(counts[0][i]), int(counts[1][i])
            self.cost = exact_cost(self.conflicts, self.used, self.cost_params)
        return costs

    def result(self, terminated_by: str) -> RunResult:
        return RunResult(
            tuple(int(x) for x in self.row), self.cost, self.conflicts, self.used,
            len(self.history), tuple(self.history), terminated_by,
        )


def run_search(g: Graph, params: SearchParams, iterations: int, search) -> RunResult:
    """One run of an engine.  `search(rng, best)` is the engine's generator:
    given the RNG seeded from `params.rng_seed` and the run's `BestSoFar`, it
    makes and offers its population, then does one iteration a step and yields
    the reason the run ends there, or None.  At most `iterations` steps are
    taken, so no step and no draw runs past the budget.  After each step the
    best cost is logged, and the run ends early_stop once the known chromatic
    number is reached, else for the reason the step gave; a run that takes
    every step ends decades_exhausted.
    """
    rng = np.random.default_rng(params.rng_seed)
    best = BestSoFar(g, params)
    for reason in islice(search(rng, best), iterations):
        best.history.append(best.cost)
        if best.stop_at is not None and best.conflicts == 0 and best.used <= best.stop_at:
            reason = TERMINATED_EARLY_STOP
        if reason is not None:
            return best.result(reason)
    return best.result(TERMINATED_DECADES)
