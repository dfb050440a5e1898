"""Graph construction, DIMACS round-trips and generator arithmetic."""

import logging

import numpy as np
import pytest

from colorica import graphs
from colorica.graphs import (
    GENERATORS,
    MAX_VERTICES,
    DimacsFormatError,
    Graph,
    complete_graph,
    family_chromatic,
    max_degree,
    mycielski_graph,
    parse_dimacs,
    queen_graph,
    write_dimacs,
)

# (family, param, n, m) for every benchmark instance the suite reconstructs
BENCH_INSTANCES = [
    ("complete", 15, 15, 105),
    ("complete", 20, 20, 190),
    ("mycielski", 4, 11, 20),
    ("mycielski", 5, 23, 71),
    ("mycielski", 6, 47, 236),
    ("queen", 5, 25, 160),
    ("queen", 7, 49, 476),
]


def _check_simple(g):
    # no self-loops, u < v, all ids in range, m consistent
    assert g.m == len(g.edges) == len(set(g.edges))
    for u, v in g.edges:
        assert u < v
        assert 1 <= u <= g.n and 1 <= v <= g.n
    for v in range(1, g.n + 1):
        for u in g.adjacency[v]:
            assert v in g.adjacency[u]
            assert u != v


class TestGraph:
    def test_canonicalizes_reversed_and_duplicate_edges(self):
        g = Graph(3, ((2, 1), (1, 2), (3, 2)))
        assert g.edges == ((1, 2), (2, 3))
        assert g.m == 2

    def test_adjacency_is_sorted_and_symmetric(self):
        g = Graph(4, ((1, 3), (1, 2), (3, 4)))
        assert g.adjacency[1] == (2, 3)
        assert g.adjacency[3] == (1, 4)
        assert g.adjacency[2] == (1,)
        _check_simple(g)

    def test_edge_index_arrays_are_zero_based(self):
        g = Graph(3, ((1, 2), (2, 3)))
        eu, ev = g.edge_index_arrays
        assert eu.tolist() == [0, 1]
        assert ev.tolist() == [1, 2]

    def test_edgeless_graph(self):
        g = Graph(2, ())
        assert g.m == 0
        eu, ev = g.edge_index_arrays
        assert eu.size == 0 and ev.size == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((2, 2),))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 4),))

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_vertex_count_at_the_bound_is_accepted(self):
        g = Graph(MAX_VERTICES, ((1, MAX_VERTICES),))
        assert (g.n, g.m) == (MAX_VERTICES, 1)

    def test_vertex_count_above_the_bound_is_refused(self):
        with pytest.raises(ValueError, match=f"{MAX_VERTICES + 1} vertices exceed the supported {MAX_VERTICES}"):
            Graph(MAX_VERTICES + 1, ((1, 2),))
        # a 20,001-vertex star would default its palette past the engines' colour bound
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            Graph(20_001, tuple((1, v) for v in range(2, 20_002)))
        # refused when made, before anything asks for its 2 GB packed adjacency
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            Graph(MAX_VERTICES * 8, ((1, 2),))


def _random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    return Graph(
        n,
        tuple(
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < density
        ),
    )


class TestPackedAdjacency:
    def _unpacked(self, g):
        packed = g.packed_adjacency
        assert packed.dtype == np.uint8 and packed.shape == (g.n, (g.n + 7) // 8)
        return np.unpackbits(packed, axis=1, count=g.n).tolist()

    def _brute_force(self, g):
        matrix = [[0] * g.n for _ in range(g.n)]
        for u, v in g.edges:
            matrix[u - 1][v - 1] = matrix[v - 1][u - 1] = 1
        return matrix

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 30])
    def test_unpacks_to_the_adjacency_matrix(self, n):
        for seed, density in ((n, 0.3), (n + 100, 0.8)):
            g = _random_graph(n, density, seed)
            assert self._unpacked(g) == self._brute_force(g)

    def test_benchmark_instances(self):
        for family, param, _, _ in BENCH_INSTANCES:
            g = GENERATORS[family](param)
            assert self._unpacked(g) == self._brute_force(g)

    @pytest.mark.parametrize("n", [1, 8, 9, 17])
    def test_edgeless_graph_is_all_zero(self, n):
        g = Graph(n, ())
        assert self._unpacked(g) == [[0] * n for _ in range(n)]

    def test_is_cached(self):
        g = queen_graph(5)
        assert g.packed_adjacency is g.packed_adjacency


class TestParseDimacs:
    def test_parses_comments_and_edges(self):
        text = "c a remark\np edge 3 2\ne 1 2\ne 2 3\n"
        g = parse_dimacs(text)
        assert (g.n, g.m) == (3, 2)
        assert g.edges == ((1, 2), (2, 3))

    def test_blank_lines_ignored(self):
        g = parse_dimacs("p edge 2 1\n\ne 1 2\n")
        assert g.m == 1

    def test_duplicate_and_reversed_edges_collapse_with_warning(self, caplog):
        text = "p edge 3 2\ne 1 2\ne 2 1\ne 2 3\n"
        with caplog.at_level(logging.WARNING, logger="colorica.graphs"):
            g = parse_dimacs(text)
        assert g.m == 2
        assert any("duplicate" in r.message for r in caplog.records)

    def test_declared_edge_count_mismatch_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="colorica.graphs"):
            g = parse_dimacs("p edge 3 5\ne 1 2\n")
        assert g.m == 1
        assert any("declared" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "text",
        [
            "e 1 2\n",  # edge before p line
            "p edge 3 1\np edge 3 1\ne 1 2\n",  # duplicate p line
            "p edge x 1\n",  # non-numeric n
            "p node 3 1\n",  # wrong descriptor
            "p edge 0 0\n",  # empty graph
            "p edge 3 1\ne 1\n",  # short edge line
            "p edge 3 1\ne 1 q\n",  # non-numeric endpoint
            "p edge 3 1\ne 2 2\n",  # self-loop
            "p edge 3 1\ne 1 9\n",  # endpoint out of range
            "p edge 3 1\nq 1 2\n",  # unknown line type
            "",  # missing p line
        ],
    )
    def test_malformed_input_raises(self, text):
        with pytest.raises(DimacsFormatError):
            parse_dimacs(text)

    def test_error_message_carries_line_number(self):
        with pytest.raises(DimacsFormatError, match="line 2"):
            parse_dimacs("p edge 3 1\ne 2 2\n")

    def test_vertex_count_above_the_bound_raises_before_any_edge(self):
        # a 10^10-vertex declaration would need gigabytes per population row
        with pytest.raises(DimacsFormatError, match="line 1: 10000000000 vertices"):
            parse_dimacs("p edge 10000000000 0\n")
        with pytest.raises(DimacsFormatError, match=str(MAX_VERTICES)):
            parse_dimacs(f"p edge {MAX_VERTICES + 1} 1\ne 1 2\n")

    def test_vertex_count_at_the_bound_parses(self):
        g = parse_dimacs(f"p edge {MAX_VERTICES} 1\ne 1 {MAX_VERTICES}\n")
        assert (g.n, g.edges) == (MAX_VERTICES, ((1, MAX_VERTICES),))


class TestWriteDimacs:
    def test_canonical_text(self):
        g = Graph(3, ((2, 3), (1, 2)))
        assert write_dimacs(g) == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_roundtrip_on_generated_graphs(self):
        for family, param, _, _ in BENCH_INSTANCES:
            g = GENERATORS[family](param)
            again = parse_dimacs(write_dimacs(g))
            assert again.n == g.n
            assert again.edges == g.edges

    def test_roundtrip_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            mask = rng.random(len(pairs)) < 0.4
            g = Graph(n, tuple(p for p, keep in zip(pairs, mask) if keep))
            assert parse_dimacs(write_dimacs(g)).edges == g.edges


class TestGenerators:
    @pytest.mark.parametrize("family,param,n,m", BENCH_INSTANCES)
    def test_benchmark_instance_sizes(self, family, param, n, m):
        g = GENERATORS[family](param)
        assert (g.n, g.m) == (n, m)
        _check_simple(g)

    def test_complete_edge_count_formula(self):
        for k in range(1, 31):
            assert complete_graph(k).m == k * (k - 1) // 2

    def test_complete_every_pair_adjacent(self):
        g = complete_graph(6)
        for v in range(1, 7):
            assert len(g.adjacency[v]) == 5

    def test_mycielski_recurrence(self):
        prev = mycielski_graph(2)
        assert (prev.n, prev.m) == (2, 1)
        for level in range(3, 7):
            g = mycielski_graph(level)
            assert g.n == 2 * prev.n + 1
            assert g.m == 3 * prev.m + prev.n
            prev = g

    def test_mycielski_is_triangle_free(self):
        g = mycielski_graph(5)
        adj = [set(a) for a in g.adjacency]
        for u, v in g.edges:
            assert not (adj[u] & adj[v])

    def test_queen_edges_match_pair_enumeration(self):
        for b in range(1, 9):
            g = queen_graph(b)
            expected = set()
            cells = [(r, c) for r in range(1, b + 1) for c in range(1, b + 1)]
            for i, (r1, c1) in enumerate(cells):
                for r2, c2 in cells[i + 1 :]:
                    if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
                        expected.add(((r1 - 1) * b + c1, (r2 - 1) * b + c2))
            assert set(g.edges) == expected

    def test_queen_single_cell(self):
        g = queen_graph(1)
        assert (g.n, g.m) == (1, 0)

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_rejects_nonpositive_param(self, family):
        with pytest.raises(ValueError):
            GENERATORS[family](0)

    def test_mycielski_rejects_level_below_two(self):
        with pytest.raises(ValueError):
            mycielski_graph(1)

    @pytest.mark.parametrize(
        "family,param",
        # n = 129^2 = 16641, 3 * 2^13 - 1 = 24575, 16385, and a level whose n
        # has about 300 million digits
        [("queen", 129), ("mycielski", 15), ("complete", MAX_VERTICES + 1), ("mycielski", 10**9)],
    )
    def test_rejects_more_vertices_than_the_bound(self, family, param):
        # checked before anything is built: queen 129 would take minutes otherwise
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            GENERATORS[family](param)


class TestEdgeBound:
    # every case lowers the bound first, so nothing large is ever built

    @pytest.mark.parametrize(
        "family,fits,over,m_over",
        [("complete", 5, 6, 15), ("queen", 3, 4, 76), ("mycielski", 5, 6, 236)],
    )
    def test_generators_refuse_more_edges_than_the_bound(self, monkeypatch, family, fits, over, m_over):
        bound = GENERATORS[family](fits).m
        monkeypatch.setattr(graphs, "MAX_EDGES", bound)
        assert GENERATORS[family](fits).m == bound
        with pytest.raises(ValueError, match=f"{m_over} edges, more than the supported {bound}"):
            GENERATORS[family](over)

    def test_queen_edge_formula(self, monkeypatch):
        # the bound is checked from b(b-1)(5b-1)/3 before the pair loop runs
        edge_counts = {b: queen_graph(b).m for b in range(2, 10)}
        for b, m in edge_counts.items():
            monkeypatch.setattr(graphs, "MAX_EDGES", m)
            queen_graph(b)
            monkeypatch.setattr(graphs, "MAX_EDGES", m - 1)
            with pytest.raises(ValueError, match=f"{m} edges"):
                queen_graph(b)

    def test_parse_dimacs_refuses_more_distinct_edges_than_the_bound(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGES", 2)
        text = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
        with pytest.raises(DimacsFormatError, match="line 4: more than the supported 2 edges"):
            parse_dimacs(text)

    def test_parse_dimacs_counts_distinct_edges_only(self, monkeypatch, caplog):
        monkeypatch.setattr(graphs, "MAX_EDGES", 2)
        with caplog.at_level(logging.WARNING):
            g = parse_dimacs("p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 1 2\n")
        assert g.edges == ((1, 2), (2, 3))


class TestMaxDegree:
    def test_complete_triangle(self):
        assert max_degree(complete_graph(3)) == 2

    def test_queen_centre_cell_dominates(self):
        # centre of the 5x5 board attacks 4 cells along each of 4 lines
        assert max_degree(queen_graph(5)) == 16

    def test_isolated_vertex(self):
        assert max_degree(Graph(1, ())) == 0


class TestFamilyChromatic:
    def test_complete(self):
        assert family_chromatic("complete", 15) == 15

    def test_mycielski(self):
        assert family_chromatic("mycielski", 6) == 6

    def test_queen_known_boards(self):
        assert family_chromatic("queen", 5) == 5
        assert family_chromatic("queen", 7) == 7

    def test_queen_unknown_board_is_none(self):
        assert family_chromatic("queen", 4) is None

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            family_chromatic("torus", 3)
