"""tools/hash_grid.py on a one-cell grid: the full grid is left to the tool."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def hash_grid():
    spec = importlib.util.spec_from_file_location("hash_grid", ROOT / "tools" / "hash_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cell_hashes_the_same_twice_and_changes_with_the_seed(hash_grid):
    cell = dict(graphs=[("queen_graph", 5)], kwargs=[{"population_size": 20, "decades": 3}])
    first = hash_grid.grid_digests(seeds=[1], **cell)
    assert sorted(first) == ["dica", "ga"]
    assert all(len(d) == 64 for d in first.values())
    assert hash_grid.grid_digests(seeds=[1], **cell) == first
    other = hash_grid.grid_digests(seeds=[2], **cell)
    assert all(other[engine] != first[engine] for engine in first)


def test_one_engine_hashes_as_it_does_beside_the_other(hash_grid):
    # the dica-unite line hashes dica alone
    cell = dict(graphs=[("queen_graph", 5)], seeds=[1], kwargs=[{"population_size": 20, "decades": 3}])
    assert hash_grid.grid_digests(engines=("dica",), **cell) == {"dica": hash_grid.grid_digests(**cell)["dica"]}


def test_one_cell_inspect_digest_hashes_the_same_twice_and_changes_with_the_seed(hash_grid):
    # the dica-inspect line: what `_inspect` sees of a run whose empires merge and compete
    cell = dict(graphs=[("queen_graph", 5)], kwargs=[{"population_size": 20, "decades": 3, "uniting_threshold": 0.9}])
    first = hash_grid.inspect_digest(seeds=[1], **cell)
    assert len(first) == 64
    assert hash_grid.inspect_digest(seeds=[1], **cell) == first
    assert hash_grid.inspect_digest(seeds=[2], **cell) != first


def test_one_cell_gate_digest_runs_dica_at_the_acceptance_settings(hash_grid):
    # the dica-gate line: k_max and known_chromatic at the graph's chromatic number, early stop
    first = hash_grid.gate_digest(graphs=[("queen_graph", 5)], seeds=[1])
    settings = {"k_max": 5, "known_chromatic": 5, "early_stop_at_chromatic": True}
    assert first == hash_grid.grid_digests([("queen_graph", 5)], [1], [settings], engines=("dica",))["dica"]
    assert hash_grid.gate_digest(graphs=[("queen_graph", 5)], seeds=[2]) != first
