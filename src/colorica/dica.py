"""Imperialist-style population search over colourings.

A population of candidate colourings is split into empires, each holding one
imperialist (its best member) and a share of colonies; a run keeps all
imperialists in one array and all colonies in another, each with its rows'
float64 costs.  Every decade each colony is pulled toward its imperialist by
two-point segment copy, may be perturbed by a two-cell swap, and can displace
the imperialist if it gets cheaper; all colonies move and are scored as one
batch.  Each imperialist then takes a few steps of clash-directed swap descent,
a memetic addition in the manner of Tabucol (Hertz & de Werra 1987) and HEA
(Galinier & Hao 1999): without it, empires homogenize and the damped revolution
rate leaves nothing to cross the clash plateaus.  Empires that look alike
merge, and the weakest empire loses its worst colony to a roulette-picked rival
until one empire remains or the decade budget runs out.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, count

import numpy as np

# `cost` is no longer called here but stays importable as colorica.dica.cost,
# a name the benchmark's probe and its tests look up
from .coloring import BATCH_CELLS, CostParams, cost  # noqa: F401
from .engine import (
    TERMINATED_SINGLE_EMPIRE,
    RunResult,
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
from .graphs import Graph

# clash-directed swap steps given to each imperialist every decade; 0 turns
# the descent off and leaves the operator-only engine.  On queen7_7 at k=7,
# seeds 301-450, 3 steps solve 65% of runs, 4 solve 75% and 5 solve 81%; at
# 65% a gate of 10 successes in 20 runs fails for about one seed window in 19.
IMPERIALIST_DESCENT_STEPS = 4

# inspection hook: (stage, decade, empires) -> None
InspectFn = Callable[[str, int, "Empires"], None]


@dataclass(frozen=True)
class DicaParams(SearchParams):
    imperialist_fraction: float = 0.10
    decades: int = 100
    revolution_rate: float = 0.25
    uniting_threshold: float = 0.02
    damp_ratio: float = 0.90
    xi: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 < self.imperialist_fraction < 1.0:
            raise ValueError(f"imperialist_fraction must be in (0, 1), got {self.imperialist_fraction}")
        if not self.n_imperialists < self.population_size:
            raise ValueError(
                f"imperialist_fraction {self.imperialist_fraction} of population_size "
                f"{self.population_size} makes {self.n_imperialists} imperialists, leaving no colony"
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

    def cost_params(self, g: Graph) -> CostParams:
        """`SearchParams.cost_params`, also refused if the empire totals overflow: a
        total is at most (1 + xi) times the worst cost, and competition's roulette
        wheel sums fewer than population_size differences of totals."""
        params = super().cost_params(g)
        if not math.isfinite(self.population_size * (1 + self.xi) * (params.penalty * g.m + g.n)):
            raise ValueError(
                f"xi {self.xi} overflows the empire totals of {self.population_size} "
                f"colourings of a {g.m}-edge graph at penalty {params.penalty}"
            )
        return params

    @property
    def n_imperialists(self) -> int:
        """How many of the population `run_dica` makes imperialists."""
        return max(1, round(self.imperialist_fraction * self.population_size))


@dataclass
class Empire:
    """One empire as `_inspect` sees it: slices of the run's arrays, costs as Python floats, valid for that call."""

    imperialist: np.ndarray
    imperialist_cost: float
    colonies: np.ndarray
    _colony_costs: np.ndarray
    # made as the hook reads it, so a hook that reads only the rows pays no conversion
    colony_costs = property(lambda self: self._colony_costs.tolist(), doc="The colonies' costs as a list of floats.")

    def size(self) -> int:
        return 1 + len(self.colonies)


@dataclass(eq=False)
class Empires(Sequence):
    """A run's countries as two arrays.  Row e of `imperialists` heads empire e;
    `colonies` holds every colony, empire by empire, each empire's in the order
    it gained them, `sizes[e]` for empire e.  Beside each is a float64 array of
    its rows' costs, and a row and its cost move by the same index.  `sizes` and
    `bounds` are not edited once made: a merge, a colony's move or a collapse
    returns new Empires.  Indexing or iterating gives each empire's `Empire`
    view, built on demand."""

    imperialists: np.ndarray
    imperialist_costs: np.ndarray
    colonies: np.ndarray
    colony_costs: np.ndarray
    sizes: list[int]

    def __post_init__(self) -> None:
        self.bounds = list(accumulate(self.sizes, initial=0))  # empire e's colonies: bounds[e]:bounds[e + 1]

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, e: int) -> Empire:
        e = range(len(self))[e]
        s, t = self.bounds[e], self.bounds[e + 1]
        cost = float(self.imperialist_costs[e])
        return Empire(self.imperialists[e], cost, self.colonies[s:t], self.colony_costs[s:t])

    def __iter__(self):
        b, cols, costs = self.bounds, self.colonies, self.colony_costs
        for imp, cost, s, t in zip(self.imperialists, self.imperialist_costs.tolist(), b, b[1:]):
            yield Empire(imp, cost, cols[s:t], costs[s:t])

    def totals(self, xi: float) -> list[float]:
        """Each empire's imperialist cost plus xi times its colonies' mean cost (0
        with none); `math.fsum` rounds the sum the same way on every Python."""
        b, costs = self.bounds, self.colony_costs.tolist()
        means = [math.fsum(costs[s:t]) / (t - s) if t > s else 0.0 for s, t in zip(b, b[1:])]
        return [cost + xi * mean for cost, mean in zip(self.imperialist_costs.tolist(), means)]


def form_empires(
    countries: np.ndarray | Sequence[np.ndarray], costs: Sequence[float], n_imperialists: int, rng: np.random.Generator
) -> Empires:
    """Take the n cheapest countries as imperialists and share out the rest.

    Colony counts follow each imperialist's normalized power (cheaper is more
    powerful); the actual colonies are dealt out by a random permutation.
    """
    countries = np.asarray(countries)
    costs = np.asarray(costs, dtype=np.float64)
    if len(countries) != len(costs):
        raise ValueError("countries and costs length mismatch")
    if not 1 <= n_imperialists < len(countries):
        raise ValueError(f"need 1 <= n_imperialists < population, got {n_imperialists} of {len(countries)}")
    order = np.array(rank(costs))
    imp_idx, col_idx = order[:n_imperialists], order[n_imperialists:]
    shifted = costs[imp_idx] - costs[imp_idx].max()
    total = math.fsum(shifted)
    powers = np.full(n_imperialists, 1.0 / n_imperialists) if total == 0 else shifted / total
    # largest remainder: each quota's floor, then one more for the largest fractions, ties to the lower index
    quotas = powers * len(col_idx)
    counts = np.floor(quotas).astype(np.int64)
    counts[rank(counts - quotas)[: len(col_idx) - counts.sum()]] += 1
    dealt = col_idx[rng.permutation(len(col_idx))]
    return Empires(countries[imp_idx], costs[imp_idx], countries[dealt], costs[dealt], counts.tolist())


def assimilate_at(imperialist, colony, c1: int, c2: int) -> np.ndarray:
    """Copy the imperialist's cells c1..c2 (1-based, inclusive) onto the colony."""
    return copy_segment(imperialist, colony, c1, c2)


def _swap_cells(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 2) 0-based cell pairs, each a uniform draw of two distinct cells (n >= 2)."""
    cells = rng.integers(0, [n, n - 1], size=(count, 2))
    cells[:, 1] += cells[:, 1] >= cells[:, 0]
    return cells


def assimilate(imperialist: np.ndarray, colony: np.ndarray, rng: np.random.Generator) -> np.ndarray:
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
    imperialists: np.ndarray, colonies: np.ndarray, owner: np.ndarray, revolution_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Assimilate and revolve a whole (count, n) batch of colonies at once.

    Row i is pulled toward imperialists[owner[i]] by `assimilate` and, with
    probability `revolution_rate`, then gets one `revolve` swap.  All cut
    points, all revolution coins and all swap cells are drawn in one call
    each.  Returns the children as a new array; the inputs are left untouched.
    """
    count, n = colonies.shape
    children = copy_segments(imperialists[owner], colonies, cut_points(n, count, rng))
    rows = np.flatnonzero(rng.random(count) < revolution_rate)
    if n >= 2 and rows.size:
        i, j = _swap_cells(n, rows.size, rng).T
        children[rows, i], children[rows, j] = children[rows, j], children[rows, i]
    return children


def neighbour_table(g: Graph, rows: np.ndarray, width: int) -> np.ndarray:
    """The (count, width, n) int64 neighbour-colour table of a (count, n) array
    of colourings: cell (e, c, x) counts the neighbours of vertex x that row e
    colours c.  Every colour must be below `width`."""
    count, n = rows.shape
    eu, ev = g.edge_index_arrays
    cells = count * width * n
    # coloured[e, x] is where vertex x's own colour plane starts in row e
    coloured = (np.arange(count) * (width * n))[:, None] + rows * n
    table = np.bincount((coloured[:, ev] + eu).ravel(), minlength=cells)
    return (table + np.bincount((coloured[:, eu] + ev).ravel(), minlength=cells)).reshape(count, width, n)


def descend(
    g: Graph, cols: np.ndarray, steps: int, rng: np.random.Generator, table: np.ndarray | None = None
) -> np.ndarray:
    """Clash-directed swap descent on each row of a (count, n) array of colourings.

    Each step, in every row that still clashes, draws a clashing vertex v,
    scores swapping its colour with every vertex of another colour by the
    change in clash count (read from the rows' `neighbour_table`), and
    applies the best swap, ties drawn uniformly, unless it would add clashes.
    The neighbours of the drawn and moved vertices come as 0/1 rows unpacked
    from `Graph.packed_adjacency`.  Swaps keep each row's colour multiset, so
    a proper colouring comes back unchanged and no cost rises.

    Given `table`, a C-contiguous `neighbour_table(g, cols, width)` for any
    width above every colour, all rows go as one batch over it, and it is
    updated in place to match the returned rows, so a caller can carry it to
    the next call.  Given none, rows go in row order, in batches whose own
    table stays near BATCH_CELLS cells, or alone when one row's table (palette
    width x n) is larger; such a row is never tabled, see `_descend_wide`.
    The table's width changes no draw; the batching orders the draws.  Returns
    the new (count, n) colourings; `cols` is left untouched.
    """
    out = np.array(cols)
    count, n = out.shape
    if table is None:
        width = int(out.max()) + 1
        eu, ev = g.edge_index_arrays
        per_batch = max(1, BATCH_CELLS // max(width * n, 2 * eu.size))
        if count > per_batch:
            return np.concatenate(
                [descend(g, out[i : i + per_batch], steps, rng) for i in range(0, count, per_batch)]
            )
        if width * n > BATCH_CELLS:
            return _descend_wide(g, out, steps, rng)
        table = neighbour_table(g, out, width)
    elif table.ndim != 3 or table.shape[::2] != (count, n) or not table.flags.c_contiguous:
        raise ValueError(f"table must be a C-contiguous ({count}, width, {n}) array")
    width = table.shape[1]
    packed = g.packed_adjacency
    rows = np.arange(count)
    vertex = np.arange(n)
    # flat view: cell (row e, colour c, vertex x) = e * width * n + c * n + x
    flat = table.reshape(-1)
    plane = rows * (width * n)
    coloured = plane[:, None] + out * n
    # above any real change: a swap alters at most 2 * (n - 1) clashes
    barred = 2 * n
    for _ in range(steps):
        own = flat[coloured + vertex]
        clashing = own > 0
        active = clashing.any(axis=1)
        if not active.any():
            break
        v = np.where(clashing, rng.random((count, n)), -1.0).argmax(axis=1)
        a = out[rows, v]
        # v takes u's colour and u takes a; an edge u-v is counted on both sides
        near_v = np.unpackbits(packed[v], axis=1, count=n)
        delta = flat[coloured + v[:, None]] - own
        delta += table[rows, a]
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
        table[r, am] += gain
        table[r, bm] -= gain
    return out


def _descend_wide(g: Graph, row: np.ndarray, steps: int, rng: np.random.Generator) -> np.ndarray:
    """`descend` on one (1, n) row whose neighbour-colour table would pass
    BATCH_CELLS cells: each step recounts from the edge list the table cells it
    reads, in O(n + m + width) memory, and makes the same draws and moves."""
    out = row.copy()
    col = out[0]
    n = col.size
    width = int(col.max()) + 1
    eu, ev = g.edge_index_arrays
    for _ in range(steps):
        same = col[eu] == col[ev]
        own = np.bincount(eu[same], minlength=n) + np.bincount(ev[same], minlength=n)
        clashing = own > 0
        if not clashing.any():
            break
        v = np.where(clashing, rng.random(n), -1.0).argmax()
        a = col[v]
        around_v = np.concatenate((ev[eu == v], eu[ev == v]))
        # as `descend`: v's neighbours of each vertex's colour, then each vertex's of colour a
        delta = np.bincount(col[around_v], minlength=width)[col] - own - own[v]
        delta += np.bincount(eu[col[ev] == a], minlength=n) + np.bincount(ev[col[eu] == a], minlength=n)
        delta[around_v] -= 2  # once per neighbour, as the unpacked 0/1 row
        delta[col == a] = 2 * n
        u = (delta + rng.random(n)).argmin()
        if delta[u] <= 0:
            col[v], col[u] = col[u], a
    return out


def exchange_if_better(empires: Empires) -> list[int]:
    """In each empire, swap the imperialist with its first cheapest colony when
    that colony is strictly cheaper.  Returns the positions of the empires that swapped."""
    b, imp_costs, costs = empires.bounds, empires.imperialist_costs.tolist(), empires.colony_costs.tolist()
    swapped, rows = [], []
    for e, (s, t) in enumerate(zip(b, b[1:])):
        if s < t and (low := min(costs[s:t])) < imp_costs[e]:
            swapped.append(e)
            rows.append(costs.index(low, s, t))
    if swapped:
        imps, cols = empires.imperialists, empires.colonies
        imp_cost, col_cost = empires.imperialist_costs, empires.colony_costs
        imps[swapped], cols[rows], imp_cost[swapped], col_cost[rows] = (
            cols[rows], imps[swapped], col_cost[rows], imp_cost[swapped]
        )
    return swapped


def normalized_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Fraction of positions where two colourings disagree; on stacks of
    colourings that broadcast together, the fraction for each pair of rows."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError("colouring lengths differ")
    n = a.shape[-1]
    # the narrowest unsigned count that holds n gives the same floats as count_nonzero
    return np.not_equal(a, b).sum(axis=-1, dtype=np.min_scalar_type(n)) / n


def absorb(empires: Empires, merges: Iterable[tuple[int, int]]) -> Empires:
    """New Empires after each (winner, loser) pair of positions in `empires`, in
    turn: the loser's imperialist, then its colonies, join the end of the
    winner's colonies.  A loser then holds nothing and is dropped; the
    survivors keep their index order.  `empires` is left untouched.  Each pair
    names two distinct empires that no earlier pair absorbed."""
    # each empire's colonies as runs of rows of the colonies, then the imperialists
    groups = [[range(s, t)] for s, t in zip(empires.bounds, empires.bounds[1:])]
    lost = set()
    for win, lose in merges:
        groups[win] += [(len(empires.colonies) + lose,), *groups[lose]]
        lost.add(lose)
    kept = [e for e in range(len(empires)) if e not in lost]
    owned = [list(chain.from_iterable(groups[e])) for e in kept]
    order = list(chain.from_iterable(owned))
    countries = np.concatenate((empires.colonies, empires.imperialists))
    costs = np.concatenate((empires.colony_costs, empires.imperialist_costs))
    return Empires(
        empires.imperialists[kept], empires.imperialist_costs[kept], countries[order], costs[order],
        [len(o) for o in owned],
    )


def unite_similar_empires(empires: Empires, threshold: float, xi: float) -> Empires:
    """Merge empire pairs whose imperialists differ on less than `threshold` of cells.

    The lower-total-cost empire absorbs the other by `absorb`: the loser's
    imperialist, then its colonies, join the end of the winner's colonies.
    Pairs go in index order: imperialist i, while unabsorbed, meets each later
    unabsorbed imperialist closer than `threshold` in turn; totals are from
    before any merge.  At 0 < threshold <= 1/n only equal rows are close: rows
    are keyed by their bytes and each group of equal rows folds in index
    order, the winner so far meeting the next.  Above, a block of rows is
    measured against all later rows at a time, about BATCH_CELLS cells of
    imperialists narrowed to the smallest integer type that holds their
    colours, and its close pairs merge before the next block is measured.
    Returns new Empires when any pair is close, else `empires`, at once when
    threshold <= 0, below which no distance falls.
    """
    count = len(empires)
    if count < 2 or threshold <= 0:
        return empires
    alive = [True] * count
    merges = []
    totals = None  # taken at the first merge, so from before any merge

    def merge(i: int, j: int) -> int:
        """Record the higher (total, index) of i and j as absorbed by the other; return the winner."""
        nonlocal totals
        if totals is None:
            totals = empires.totals(xi)
        win, lose = (i, j) if (totals[i], i) <= (totals[j], j) else (j, i)
        merges.append((win, lose))
        alive[lose] = False
        return win

    imps = empires.imperialists
    n = imps.shape[1]
    if threshold <= 1 / n:
        keys = np.ascontiguousarray(imps).view(np.dtype((np.void, n * imps.itemsize))).ravel().tolist()
        if len(set(keys)) == count:
            return empires
        equal = {}
        for e, key in enumerate(keys):
            equal.setdefault(key, []).append(e)
        for members in equal.values():
            reduce(merge, members)
    else:
        imps = imps.astype(np.promote_types(np.min_scalar_type(imps.min()), np.min_scalar_type(imps.max())))
        per_block = max(1, BATCH_CELLS // imps.size)
        for start in range(0, count - 1, per_block):
            close = normalized_distance(imps[start : start + per_block, None], imps[None, start + 1 :]) < threshold
            # block row r is imperialist start + r and column c is start + 1 + c, so c >= r keeps the later ones
            close &= np.arange(close.shape[1]) >= np.arange(len(close))[:, None]
            for r in np.flatnonzero(close.any(axis=1)).tolist():
                i = start + r
                for j in (start + 1 + np.flatnonzero(close[r])).tolist():
                    if not alive[i]:
                        break
                    if alive[j]:
                        merge(i, j)
    return absorb(empires, merges) if merges else empires


def imperialistic_competition(empires: Empires, xi: float, rng: np.random.Generator) -> Empires:
    """The weakest empire loses its worst colony to a roulette-picked rival.

    Rivals are weighted by how far their total cost sits below the weakest
    empire's.  A colony-less weakest empire is absorbed by that rival, as a
    merged one is (`absorb`).  Ties for weakest empire and worst colony go to
    the highest index.  Returns new Empires.  A worst colony moves to the end
    of the winner's colonies by a shift of the rows between, made in
    `empires`' own colony arrays, which the result shares: after such a move
    `empires`' sizes no longer match its rows.
    """
    count = len(empires)
    if count < 2:
        return empires
    totals = empires.totals(xi)
    weakest = max(zip(totals, range(count)))[1]
    rivals = [i for i in range(count) if i != weakest]
    wheel = roulette_wheel([totals[weakest] - totals[i] for i in rivals])
    if wheel[1] > 0.0:
        winner = rivals[int(spin(wheel, rng.random()))]
    else:  # every rival is as weak as the weakest: a uniform pick
        winner = rivals[int(rng.integers(len(rivals)))]
    b, cols, costs = empires.bounds, empires.colonies, empires.colony_costs
    s, t = b[weakest], b[weakest + 1]
    if s == t:
        return absorb(empires, [(winner, weakest)])
    worst = max(zip(costs[s:t].tolist(), range(s, t)))[1]
    # after the worst row leaves, the winner's colonies end at `to`
    to = b[winner + 1] - (weakest < winner)
    lo, hi = sorted((worst, to))
    down = worst < to
    # the rows between shift one place toward `worst`, which takes slot `to`
    for rows in (cols, costs):
        leaving = rows[worst].copy()
        rows[lo + 1 - down : hi + 1 - down] = rows[lo + down : hi + down]
        rows[to] = leaving
    sizes = [size - (e == weakest) + (e == winner) for e, size in enumerate(empires.sizes)]
    return Empires(empires.imperialists, empires.imperialist_costs, cols, costs, sizes)


def run_dica(g: Graph, params: DicaParams, _inspect: InspectFn | None = None) -> RunResult:
    """Full search loop, one decade a step of `run_search`; deterministic for a
    given (graph, params) pair, and ends single_empire when one empire is left.

    The run is one `Empires`: an (E, n) imperialist array and a (C, n) colony
    array, each beside its rows' float64 costs from `BestSoFar.offer`.  Every
    decade all colonies take one `colony_step` and are offered together to
    `BestSoFar`, which counts them and keeps the first cheapest, and
    `exchange_if_better` swaps rows and costs between the arrays.  Then, before
    the `post_exchange` inspection, all imperialists take
    IMPERIALIST_DESCENT_STEPS steps of `descend` together, drawn from the run's
    own RNG, and are offered for their costs.  `_inspect` gets the `Empires`,
    whose `Empire` views, with Python float costs, are built as it reads them.

    When all imperialists' `neighbour_table` over the palette 0..k_max fits one
    of `descend`'s batches, the run keeps it as a local cache: built whole at
    first and after a merge or a dissolution, its swapped rows rebuilt after an
    exchange, and kept current by the descent.  Every colour stays in 1..k_max;
    the result is the same with or without it.
    """
    width = params.palette(g) + 1
    table_cells = max(width * g.n, 2 * g.m)

    def search(rng, best):
        population = np.array(init_population(g, params, rng))
        empires = form_empires(population, best.offer(population), params.n_imperialists, rng)
        revolution_rate = params.revolution_rate
        table = None
        for decade in count():
            owner = np.repeat(np.arange(len(empires)), empires.sizes)
            empires.colonies = colony_step(empires.imperialists, empires.colonies, owner, revolution_rate, rng)
            empires.colony_costs = best.offer(empires.colonies)
            swapped = exchange_if_better(empires)
            # besides exchanges and the descent, only a merge or a dissolution moves imperialists, and both drop rows
            if (table is None or len(table) != len(empires)) and len(empires) * table_cells <= BATCH_CELLS:
                table = neighbour_table(g, empires.imperialists, width)
            elif table is not None and swapped:
                table[swapped] = neighbour_table(g, empires.imperialists[swapped], width)
            empires.imperialists = descend(g, empires.imperialists, IMPERIALIST_DESCENT_STEPS, rng, table)
            empires.imperialist_costs = best.offer(empires.imperialists)
            if _inspect is not None:
                _inspect("post_exchange", decade, empires)
            empires = unite_similar_empires(empires, params.uniting_threshold, params.xi)
            empires = imperialistic_competition(empires, params.xi, rng)
            revolution_rate *= params.damp_ratio
            if _inspect is not None:
                _inspect("end", decade, empires)
            yield TERMINATED_SINGLE_EMPIRE if len(empires) == 1 else None

    return run_search(g, params, params.decades, search)
