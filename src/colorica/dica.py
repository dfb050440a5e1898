"""Imperialist-style population search over colourings.

A population of candidate colourings is split into empires, each holding one
imperialist (its best member) and a share of colonies.  Every decade each
colony is pulled toward its imperialist by two-point segment copy, may be
perturbed by a two-cell swap, and can displace the imperialist if it gets
cheaper; the colonies of all empires move and are scored as one batch.  Each
imperialist then takes a few steps of clash-directed swap descent, a memetic
addition in the manner of Tabucol (Hertz & de Werra 1987) and HEA (Galinier &
Hao 1999): without it, empires homogenize and the damped revolution rate
leaves nothing to cross the clash plateaus.  Empires that
look alike merge, and the weakest empire loses its worst colony to a
roulette-picked rival until one empire remains or the decade budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .coloring import BATCH_CELLS, CostParams, batch_costs, cost_from_counts

# `cost` is no longer called here but stays importable as colorica.dica.cost,
# a name the benchmark's probe and its tests look up
from .coloring import cost  # noqa: F401
# resolve_k_max is not used here but stays importable from here, where it first lived
from .engine import (  # noqa: F401
    TERMINATED_DECADES,
    TERMINATED_EARLY_STOP,
    TERMINATED_SINGLE_EMPIRE,
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

# clash-directed swap steps given to each imperialist every decade; 0 turns
# the descent off and leaves the operator-only engine.  On queen7_7 at k=7,
# seeds 301-450, 3 steps solve 65% of runs, 4 solve 75% and 5 solve 81%; at
# 65% a gate of 10 successes in 20 runs fails for about one seed window in 19.
IMPERIALIST_DESCENT_STEPS = 4

# rows per descent batch are capped so that its neighbour-colour table and its
# per-edge index arrays stay near this many int64 cells (16 MB at 2^21)
_DESCENT_BATCH_CELLS = BATCH_CELLS

# inspection hook: (stage, decade, empires) -> None
InspectFn = Callable[[str, int, list["Empire"]], None]


@dataclass(frozen=True)
class DicaParams(SearchParams):
    imperialist_fraction: float = 0.10
    decades: int = 100
    revolution_rate: float = 0.25
    uniting_threshold: float = 0.02
    damp_ratio: float = 0.90
    xi: float = 0.1

    def validate(self) -> None:
        super().validate()
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 < self.imperialist_fraction < 1.0:
            raise ValueError(
                f"imperialist_fraction must be in (0, 1), got {self.imperialist_fraction}"
            )
        if self.decades < 1:
            raise ValueError(f"decades must be >= 1, got {self.decades}")
        if not 0.0 <= self.revolution_rate <= 1.0:
            raise ValueError(f"revolution_rate must be in [0, 1], got {self.revolution_rate}")
        if not 0.0 <= self.uniting_threshold < math.inf:
            raise ValueError(f"uniting_threshold must be finite and >= 0, got {self.uniting_threshold}")
        if not 0.0 <= self.damp_ratio <= 1.0:
            raise ValueError(f"damp_ratio must be in [0, 1], got {self.damp_ratio}")
        if not 0.0 <= self.xi < math.inf:
            raise ValueError(f"xi must be finite and >= 0, got {self.xi}")


@dataclass
class Empire:
    imperialist: np.ndarray
    imperialist_cost: float
    colonies: list[np.ndarray] = field(default_factory=list)
    colony_costs: list[float] = field(default_factory=list)

    def size(self) -> int:
        return 1 + len(self.colonies)


def _largest_remainder(powers: Sequence[float], total: int) -> list[int]:
    """Apportion `total` items by the given shares: floors, then largest fractions."""
    quotas = [p * total for p in powers]
    counts = [max(0, math.floor(q)) for q in quotas]
    leftover = total - sum(counts)
    by_fraction = sorted(
        range(len(powers)), key=lambda i: (-(quotas[i] - math.floor(quotas[i])), i)
    )
    for i in by_fraction[: max(0, leftover)]:
        counts[i] += 1
    drift = total - sum(counts)
    if drift:
        # float noise in the shares; settle the difference on the largest share
        j = max(range(len(powers)), key=lambda i: (powers[i], -i))
        counts[j] = max(0, counts[j] + drift)
    return counts


def form_empires(
    countries: Sequence[np.ndarray],
    costs: Sequence[float],
    n_imperialists: int,
    rng: np.random.Generator,
) -> list[Empire]:
    """Take the n cheapest countries as imperialists and share out the rest.

    Colony counts follow each imperialist's normalized power (cheaper is more
    powerful); the actual colonies are dealt out by a random permutation.
    """
    if len(countries) != len(costs):
        raise ValueError("countries and costs length mismatch")
    if not 1 <= n_imperialists < len(countries):
        raise ValueError(
            f"need 1 <= n_imperialists < population, got {n_imperialists} of {len(countries)}"
        )
    order = rank(costs)
    imp_idx = order[:n_imperialists]
    col_idx = order[n_imperialists:]

    max_imp_cost = max(costs[i] for i in imp_idx)
    shifted = [costs[i] - max_imp_cost for i in imp_idx]
    total = sum(shifted)
    if total == 0:
        powers = [1.0 / n_imperialists] * n_imperialists
    else:
        powers = [s / total for s in shifted]

    counts = _largest_remainder(powers, len(col_idx))
    perm = rng.permutation(len(col_idx))
    empires: list[Empire] = []
    start = 0
    for e in range(n_imperialists):
        picked = [col_idx[int(p)] for p in perm[start : start + counts[e]]]
        start += counts[e]
        empires.append(
            Empire(
                imperialist=countries[imp_idx[e]],
                imperialist_cost=float(costs[imp_idx[e]]),
                colonies=[countries[i] for i in picked],
                colony_costs=[float(costs[i]) for i in picked],
            )
        )
    return empires


def assimilate_at(imperialist, colony, c1: int, c2: int) -> np.ndarray:
    """Copy the imperialist's cells c1..c2 (1-based, inclusive) onto the colony."""
    return copy_segment(imperialist, colony, c1, c2)


def _swap_cells(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 2) 0-based cell pairs, each a uniform draw of two distinct cells (n >= 2)."""
    cells = rng.integers(0, [n, n - 1], size=(count, 2))
    cells[:, 1] += cells[:, 1] >= cells[:, 0]
    return cells


def assimilate(
    imperialist: np.ndarray, colony: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    c1, c2 = cut_points(len(colony), 1, rng)[0].tolist()
    return assimilate_at(imperialist, colony, c1, c2)


def revolve_at(colony: Sequence[int] | np.ndarray, p1: int, p2: int) -> np.ndarray:
    """Swap two distinct cells (1-based positions)."""
    child = np.array(colony)
    n = child.shape[0]
    if not (1 <= p1 <= n and 1 <= p2 <= n):
        raise ValueError(f"positions must be in 1..{n}, got {p1}, {p2}")
    if p1 == p2:
        raise ValueError("positions must differ")
    child[p1 - 1], child[p2 - 1] = child[p2 - 1], child[p1 - 1]
    return child


def revolve(colony: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(colony)
    if n < 2:
        return np.array(colony)
    i, j = _swap_cells(n, 1, rng)[0].tolist()
    return revolve_at(colony, i + 1, j + 1)


def colony_step(
    imperialists: np.ndarray,
    colonies: np.ndarray,
    owner: np.ndarray,
    revolution_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assimilate and revolve a whole (count, n) batch of colonies at once.

    Row i is pulled toward imperialists[owner[i]] by `assimilate` and, with
    probability `revolution_rate`, then gets one `revolve` swap.  All cut
    points, all revolution coins and all swap cells are drawn in one call
    each.  Returns the children as a new array; the inputs are left untouched.
    """
    count, n = colonies.shape
    cuts = cut_points(n, count, rng)
    cell = np.arange(1, n + 1)
    inside = (cuts[:, :1] <= cell) & (cell <= cuts[:, 1:])
    children = np.where(inside, imperialists[owner], colonies)
    rows = np.flatnonzero(rng.random(count) < revolution_rate)
    if n >= 2 and rows.size:
        i, j = _swap_cells(n, rows.size, rng).T
        children[rows, i], children[rows, j] = children[rows, j], children[rows, i]
    return children


def descend(
    g: Graph,
    cols: np.ndarray,
    steps: int,
    cost_params: CostParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[float]]:
    """Clash-directed swap descent on each row of a (count, n) array of colourings.

    Each step, in every row that still clashes, draws a clashing vertex v,
    scores swapping its colour with every vertex of another colour by the
    change in clash count (read from a row-by-colour-by-vertex table of
    neighbour counts), and applies the best swap, ties drawn uniformly, unless
    it would add clashes.  The neighbours of the drawn and moved vertices come
    as 0/1 rows unpacked from `Graph.packed_adjacency`.  Swaps keep each row's
    colour multiset, so a proper colouring comes back unchanged and no cost
    rises.  Rows are taken in batches small enough to bound that table's
    memory, in row order.  Returns new colourings and their costs, the costs
    counted from the same table; the input is left untouched.
    """
    out = np.array(cols)
    count, n = out.shape
    width = int(out.max()) + 1
    eu, ev = g.edge_index_arrays
    per_batch = max(1, _DESCENT_BATCH_CELLS // max(width * n, 2 * eu.size))
    if count > per_batch:
        parts = [
            descend(g, out[i : i + per_batch], steps, cost_params, rng)
            for i in range(0, count, per_batch)
        ]
        return np.concatenate([p[0] for p in parts]), [c for p in parts for c in p[1]]
    packed = g.packed_adjacency
    rows = np.arange(count)
    vertex = np.arange(n)
    # flat table: cell (row e, colour c, vertex x) = e * width * n + c * n + x
    # counts the neighbours of x that row e colours c
    plane = rows * (width * n)
    cells = count * width * n
    # coloured[e, x] is where vertex x's own colour plane starts in row e
    coloured = plane[:, None] + out * n
    table = np.bincount((coloured[:, ev] + eu).ravel(), minlength=cells) + np.bincount(
        (coloured[:, eu] + ev).ravel(), minlength=cells
    )
    by_colour = table.reshape(count, width, n)
    # above any real change: a swap alters at most 2 * (n - 1) clashes
    barred = 2 * n
    for _ in range(steps):
        own = table[coloured + vertex]
        clashing = own > 0
        active = clashing.any(axis=1)
        if not active.any():
            break
        v = np.where(clashing, rng.random((count, n)), -1.0).argmax(axis=1)
        a = out[rows, v]
        # v takes u's colour and u takes a; an edge u-v is counted on both sides
        near_v = np.unpackbits(packed[v], axis=1, count=n)
        delta = table[coloured + v[:, None]] - own
        delta += by_colour[rows, a]
        delta -= own[rows, v][:, None]
        delta -= 2 * near_v
        delta[out == a[:, None]] = barred
        u = (delta + rng.random((count, n))).argmin(axis=1)
        move = active & (delta[rows, u] <= 0)
        if not move.any():
            continue
        r, vm, um, am = rows[move], v[move], u[move], a[move]
        bm = out[r, um]
        out[r, vm], out[r, um] = bm, am
        coloured = plane[:, None] + out * n
        # the neighbours of each moved vertex lose its old colour and gain its new one
        near_um = np.unpackbits(packed[um], axis=1, count=n)
        gain = near_um.view(np.int8) - near_v[move].view(np.int8)
        by_colour[r, am] += gain
        by_colour[r, bm] -= gain
    clashes = (table[coloured + vertex].sum(axis=1) // 2).tolist()
    present = np.zeros((count, width), dtype=bool)
    present[rows[:, None], out] = True
    used = np.count_nonzero(present, axis=1).tolist()
    return out, [cost_from_counts(c, k, cost_params) for c, k in zip(clashes, used)]


def exchange_if_better(empire: Empire) -> bool:
    """Swap the imperialist with its cheapest colony when that colony is cheaper."""
    if not empire.colonies:
        return False
    best = empire.colony_costs.index(min(empire.colony_costs))
    if empire.colony_costs[best] < empire.imperialist_cost:
        empire.imperialist, empire.colonies[best] = (
            empire.colonies[best],
            empire.imperialist,
        )
        empire.imperialist_cost, empire.colony_costs[best] = (
            empire.colony_costs[best],
            empire.imperialist_cost,
        )
        return True
    return False


def empire_total_cost(empire: Empire, xi: float) -> float:
    mean = (
        sum(empire.colony_costs) / len(empire.colony_costs)
        if empire.colony_costs
        else 0.0
    )
    return empire.imperialist_cost + xi * mean


def _argmax_last(values: Sequence[float]) -> int:
    """Index of the maximum; ties go to the highest index."""
    return max(range(len(values)), key=lambda i: (values[i], i))


def normalized_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of positions where the two colourings disagree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("colouring lengths differ")
    return int(np.count_nonzero(a != b)) / a.shape[0]


def unite_similar_empires(
    empires: list[Empire], threshold: float, xi: float
) -> list[Empire]:
    """Merge empire pairs whose imperialists differ on less than `threshold` of cells.

    The lower-total-cost empire absorbs the other (its imperialist joins as a
    colony).  Pairs are handled nearest first; totals are from before any merge.
    """
    if len(empires) < 2:
        return empires
    totals = [empire_total_cost(e, xi) for e in empires]
    imps = np.array([e.imperialist for e in empires])
    rows, cols = np.triu_indices(len(empires), 1)
    # same float as normalized_distance: differing-cell count / n
    dists = np.count_nonzero(imps[rows] != imps[cols], axis=1) / imps.shape[1]
    close = np.flatnonzero(dists < threshold)
    pairs = sorted(
        zip(dists[close].tolist(), rows[close].tolist(), cols[close].tolist())
    )
    alive = [True] * len(empires)
    for _, i, j in pairs:
        if not (alive[i] and alive[j]):
            continue
        win, lose = (i, j) if (totals[i], i) <= (totals[j], j) else (j, i)
        empires[win].colonies.append(empires[lose].imperialist)
        empires[win].colony_costs.append(empires[lose].imperialist_cost)
        empires[win].colonies.extend(empires[lose].colonies)
        empires[win].colony_costs.extend(empires[lose].colony_costs)
        alive[lose] = False
    return [e for k, e in enumerate(empires) if alive[k]]


def imperialistic_competition(
    empires: list[Empire], xi: float, rng: np.random.Generator
) -> list[Empire]:
    """The weakest empire loses its worst colony to a roulette-picked rival.

    Rivals are weighted by how far their total cost sits below the weakest
    empire's.  A colony-less weakest empire hands over its imperialist and is
    dissolved.  Ties for weakest empire and worst colony go to the highest index.
    """
    if len(empires) < 2:
        return empires
    totals = [empire_total_cost(e, xi) for e in empires]
    weakest = _argmax_last(totals)
    rivals = [i for i in range(len(empires)) if i != weakest]
    wheel = roulette_wheel([totals[weakest] - totals[i] for i in rivals])
    if wheel[1] > 0.0:
        winner = rivals[int(spin(wheel, rng.random()))]
    else:  # every rival is as weak as the weakest: a uniform pick
        winner = rivals[int(rng.integers(len(rivals)))]
    loser = empires[weakest]
    if loser.colonies:
        worst = _argmax_last(loser.colony_costs)
        empires[winner].colonies.append(loser.colonies.pop(worst))
        empires[winner].colony_costs.append(loser.colony_costs.pop(worst))
        return empires
    empires[winner].colonies.append(loser.imperialist)
    empires[winner].colony_costs.append(loser.imperialist_cost)
    return [e for i, e in enumerate(empires) if i != weakest]


def run_dica(g: Graph, params: DicaParams, _inspect: InspectFn | None = None) -> RunResult:
    """Full search loop; deterministic for a given (graph, params) pair.

    Every decade all colonies, stacked in empire order, take one `colony_step`
    and are scored together by `batch_costs`; the results go back into each
    Empire before its exchange.  Once every empire has made its exchange, and
    before the `post_exchange` inspection, all imperialists get
    IMPERIALIST_DESCENT_STEPS steps of `descend` together, drawn from the
    run's own RNG; each imperialist's cached cost and the best-so-far follow.
    """
    params.validate()
    rng = np.random.default_rng(params.rng_seed)
    cost_params = params.cost_params(g)

    population = init_population(g, params, rng)
    costs = batch_costs(g, np.array(population), cost_params)[0]

    n_imp = max(1, round(params.imperialist_fraction * params.population_size))
    if n_imp >= params.population_size:
        raise ValueError(
            f"{n_imp} imperialists leave no colonies in a population of "
            f"{params.population_size}"
        )
    empires = form_empires(population, costs, n_imp, rng)

    best = BestSoFar(g, population, costs)
    revolution_rate = params.revolution_rate

    for decade in range(params.decades):
        sizes = [len(e.colonies) for e in empires]
        children = colony_step(
            np.array([e.imperialist for e in empires]),
            np.array([c for e in empires for c in e.colonies]),
            np.repeat(np.arange(len(empires)), sizes),
            revolution_rate,
            rng,
        )
        costs = batch_costs(g, children, cost_params)[0]
        best.offer_cheapest(children, costs)
        rows = list(children)
        start = 0
        for empire, size in zip(empires, sizes):
            empire.colonies[:] = rows[start : start + size]
            empire.colony_costs[:] = costs[start : start + size]
            start += size
            exchange_if_better(empire)
        imperialists, imperialist_costs = descend(
            g,
            np.array([e.imperialist for e in empires]),
            IMPERIALIST_DESCENT_STEPS,
            cost_params,
            rng,
        )
        for empire, imp, imp_cost in zip(empires, imperialists, imperialist_costs):
            empire.imperialist, empire.imperialist_cost = imp, imp_cost
        best.offer_cheapest(imperialists, imperialist_costs)
        if _inspect is not None:
            _inspect("post_exchange", decade, empires)
        empires = unite_similar_empires(empires, params.uniting_threshold, params.xi)
        empires = imperialistic_competition(empires, params.xi, rng)
        revolution_rate *= params.damp_ratio
        if _inspect is not None:
            _inspect("end", decade, empires)
        if best.end_iteration(params):
            return best.result(TERMINATED_EARLY_STOP)
        if len(empires) == 1:
            return best.result(TERMINATED_SINGLE_EMPIRE)
    return best.result(TERMINATED_DECADES)
