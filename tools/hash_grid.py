"""Hash both engines' results over a fixed grid: the bit-identity check as one command.

    python3 tools/hash_grid.py

colorica is imported from the src/ of the checkout that holds this script.
For every graph in GRAPHS, seed in SEEDS and keyword set in KWARGS, in that
nesting order, it takes `repr(run_dica(g, DicaParams(rng_seed=s, **kw)))` and
`repr(run_ga(g, GaParams(rng_seed=s, generations=30, **kw)))` (ga drops
dica's `decades`) and feeds each engine's reprs in turn to one sha256.  It
does the same over PENALTY_GRAPHS, SEEDS and PENALTY_KWARGS, whose penalties
are not dyadic fractions, so float rounding in the costs shows.  Then it
hashes dica alone over GRAPHS, SEEDS and UNITE_KWARGS, whose uniting
thresholds make empires merge (109 merges in its 40 runs), so a change to the
merge step shows; ga has no merge step.  Next it hashes what dica's `_inspect`
hook sees over GRAPHS, SEEDS and INSPECT_KWARGS, where empires merge and
compete: at each call, the stage, the decade and, for every empire, its
size, imperialist row and cost, and colony costs.  Last it hashes dica alone
at the acceptance settings over GATE_GRAPHS and GATE_SEEDS: `k_max` and
`known_chromatic` at each graph's `family_chromatic`, early stop, and the
default uniting threshold, at which these 280 runs merge 16 times, so a
change to what the default merges shows.  It prints

    dica <sha256>
    ga <sha256>
    dica-penalty <sha256>
    ga-penalty <sha256>
    dica-unite <sha256>
    dica-inspect <sha256>
    dica-gate <sha256>

A change that keeps results bit-identical prints the same seven lines before
and after.  Uses the standard library and colorica only.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GRAPHS = (("complete_graph", 15), ("mycielski_graph", 5), ("mycielski_graph", 6),
          ("queen_graph", 5), ("queen_graph", 7))
SEEDS = (1, 2, 31, 101)
KWARGS = ({}, {"k_max": 7}, {"population_size": 60, "decades": 30})
PENALTY_GRAPHS = (("complete_graph", 15), ("mycielski_graph", 5), ("queen_graph", 5),
                  ("queen_graph", 7))
PENALTY_KWARGS = ({"penalty": 0.1}, {"penalty": 1 / 3, "k_max": 7},
                  {"penalty": 0.7, "population_size": 60, "decades": 30})
UNITE_KWARGS = ({"uniting_threshold": 0.85, "population_size": 60, "decades": 30},
                {"uniting_threshold": 0.9, "population_size": 60, "decades": 30, "k_max": 7})
INSPECT_KWARGS = UNITE_KWARGS + ({"population_size": 60, "decades": 30},)
# the instances and seeds of tests/test_acceptance.py: the gated 1-20 and the held-out 101-120
GATE_GRAPHS = (("complete_graph", 15), ("complete_graph", 20), ("mycielski_graph", 4),
               ("mycielski_graph", 5), ("mycielski_graph", 6), ("queen_graph", 5), ("queen_graph", 7))
GATE_SEEDS = (*range(1, 21), *range(101, 121))
GA_GENERATIONS = 30


def grid_digests(graphs, seeds, kwargs, engines=("dica", "ga")) -> dict[str, str]:
    """The sha256 of each engine's result reprs over the grid, as hex."""
    import colorica

    hashes = {engine: hashlib.sha256() for engine in engines}
    for generator, param in graphs:
        g = getattr(colorica, generator)(param)
        for s in seeds:
            for kw in kwargs:
                if "dica" in hashes:
                    dica = colorica.run_dica(g, colorica.DicaParams(rng_seed=s, **kw))
                    hashes["dica"].update(repr(dica).encode())
                if "ga" in hashes:
                    ga_kw = {k: v for k, v in kw.items() if k != "decades"}
                    ga = colorica.run_ga(g, colorica.GaParams(rng_seed=s, generations=GA_GENERATIONS, **ga_kw))
                    hashes["ga"].update(repr(ga).encode())
    return {engine: h.hexdigest() for engine, h in hashes.items()}


def inspect_digest(graphs, seeds, kwargs) -> str:
    """The sha256 of every `_inspect` call's view of dica's empires over the grid, as hex."""
    import colorica

    digest = hashlib.sha256()

    def watch(stage, decade, empires):
        seen = [(e.size(), e.imperialist.tolist(), e.imperialist_cost, list(e.colony_costs)) for e in empires]
        digest.update(repr((stage, decade, seen)).encode())

    for generator, param in graphs:
        g = getattr(colorica, generator)(param)
        for s in seeds:
            for kw in kwargs:
                colorica.run_dica(g, colorica.DicaParams(rng_seed=s, **kw), _inspect=watch)
    return digest.hexdigest()


def gate_digest(graphs, seeds) -> str:
    """The sha256 of dica's result reprs over the grid at the acceptance settings, as hex."""
    import colorica

    digest = hashlib.sha256()
    for generator, param in graphs:
        g = getattr(colorica, generator)(param)
        chi = colorica.family_chromatic(generator.removesuffix("_graph"), param)
        for s in seeds:
            params = colorica.DicaParams(rng_seed=s, k_max=chi, early_stop_at_chromatic=True, known_chromatic=chi)
            digest.update(repr(colorica.run_dica(g, params)).encode())
    return digest.hexdigest()


def main() -> int:
    sys.path.insert(0, str(SRC))
    for engine, digest in grid_digests(GRAPHS, SEEDS, KWARGS).items():
        print(f"{engine} {digest}")
    for engine, digest in grid_digests(PENALTY_GRAPHS, SEEDS, PENALTY_KWARGS).items():
        print(f"{engine}-penalty {digest}")
    print(f"dica-unite {grid_digests(GRAPHS, SEEDS, UNITE_KWARGS, engines=('dica',))['dica']}")
    print(f"dica-inspect {inspect_digest(GRAPHS, SEEDS, INSPECT_KWARGS)}")
    print(f"dica-gate {gate_digest(GATE_GRAPHS, GATE_SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
