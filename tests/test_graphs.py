from __future__ import annotations

import random
from math import comb

import numpy as np
import pytest

from spreadcolor.errors import VerificationFailed
from spreadcolor.graphs import (
    Graph,
    check_proper,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    gen_random_regular,
    induced_edge_count,
    neighborhood_complement_edges,
    read_edge_list,
    regularize,
    write_edge_list,
)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraphBasics:
    def test_from_edges_dedupes_and_sorts(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        assert g.adj == ((1,), (0, 2), (1,))
        assert g.edge_count() == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_degree_and_max_degree(self):
        g = complete_bipartite(2, 3)
        assert g.degree(0) == 3
        assert g.degree(4) == 2
        assert g.max_degree == 3

    def test_json_round_trip(self):
        g = cycle_graph(5)
        assert Graph.from_json(g.to_json()) == g

    def test_edge_list_round_trip(self):
        g = complete_graph(4)
        assert read_edge_list(write_edge_list(g)) == g

    def test_edge_list_comments_and_errors(self):
        g = read_edge_list("# header\n0 1\n1 2  # trailing\n")
        assert list(g.edges()) == [(0, 1), (1, 2)]
        with pytest.raises(ValueError):
            read_edge_list("0 1 2\n")

    def test_edge_list_header_keeps_isolated_vertices(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])  # 3 and 4 isolated
        text = write_edge_list(g)
        assert text.startswith("# n=5\n")
        assert read_edge_list(text) == g
        assert read_edge_list(text, n=7).n == 7  # an explicit n wins
        with pytest.raises(ValueError, match="out of range"):
            read_edge_list("# n=3\n0 1\n2 3\n")

    def test_components(self):
        g = disjoint_union(complete_graph(3), path_graph(2))
        assert g.components() == [[0, 1, 2], [3, 4]]
        assert g.component_labels().tolist() == [0, 0, 0, 1, 1]
        # callers get fresh lists; the cached structure stays intact
        g.components()[0].append(99)
        assert g.components() == [[0, 1, 2], [3, 4]]
        assert not g.component_labels().flags.writeable


class TestCheckProper:
    def test_names_the_first_bad_edge(self):
        g = path_graph(4)
        with pytest.raises(VerificationFailed, match=r"edge \(2,3\) has both ends colored 5"):
            check_proper(g, np.array([1, 2, 5, 5]))

    def test_uncolored_never_conflicts(self):
        check_proper(path_graph(4), np.array([0, 0, 3, 0]))

    def test_restricted_to_edges_touching_a_subset(self):
        g = path_graph(5)
        colors = np.array([1, 1, 2, 3, 4])  # only edge (0,1) is bad
        check_proper(g, colors, touching=[3, 4])
        with pytest.raises(VerificationFailed, match=r"cluster coloring is not proper: edge \(0,1\)"):
            check_proper(g, colors, touching=[1], what="cluster coloring")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_proper(path_graph(3), np.array([1, 2]))


class TestNeighborhoodComplement:
    def test_clique_neighborhood_is_zero(self):
        g = complete_graph(4)
        for v in range(4):
            assert neighborhood_complement_edges(g, v) == 0

    def test_star_center(self):
        g = complete_bipartite(1, 3)
        assert neighborhood_complement_edges(g, 0) == 3

    def test_five_cycle(self):
        g = cycle_graph(5)
        for v in range(5):
            assert neighborhood_complement_edges(g, v) == 1

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            neighborhood_complement_edges(complete_graph(3), 7)

    def test_cross_check_identity(self):
        # e(complement of N_v) + e(G[N_v]) = C(d(v), 2) on random graphs.
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(4, 14)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph.from_edges(n, edges)
            for v in range(n):
                inside = induced_edge_count(g, g.neighbor_set(v))
                assert neighborhood_complement_edges(g, v) + inside == comb(
                    g.degree(v), 2
                )


class TestRegularize:
    def test_identity_on_regular(self):
        g = cycle_graph(6)
        assert regularize(g) is g

    def test_path_three(self):
        g = path_graph(3)
        out = regularize(g)
        assert out.is_regular(2)
        assert out.n % 3 == 0
        for v in range(3):
            assert out.neighbor_set(v) & frozenset(range(3)) == g.neighbor_set(v)

    def test_single_edge(self):
        g = path_graph(2)
        assert regularize(g) is g

    def test_random_inputs_postconditions(self):
        rng = random.Random(1234)
        for _ in range(100):
            n = rng.randint(2, 60)
            p = rng.uniform(0.05, 0.6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            g = Graph.from_edges(n, edges)
            d = g.max_degree
            if d < 1 or d > 20:
                continue
            out = regularize(g)
            assert out.is_regular(d)
            # original graph induced on the vertex prefix
            for v in range(n):
                assert out.neighbor_set(v) & frozenset(range(n)) == g.neighbor_set(v)
            assert out.n <= (d + 2) * n


class TestGenRandomRegular:
    def test_k4_unique(self):
        g = gen_random_regular(4, 3, seed=0)
        assert g == complete_graph(4)

    def test_two_regular_covers(self):
        g = gen_random_regular(6, 2, seed=5)
        assert g.is_regular(2)
        assert g.n == 6

    def test_parity_error(self):
        with pytest.raises(ValueError):
            gen_random_regular(5, 3, seed=0)

    def test_degree_too_large(self):
        with pytest.raises(ValueError):
            gen_random_regular(4, 4, seed=0)

    def test_deterministic(self):
        a = gen_random_regular(30, 7, seed=42)
        b = gen_random_regular(30, 7, seed=42)
        assert a == b

    @pytest.mark.parametrize("n,d", [(20, 3), (24, 7), (100, 20), (60, 11)])
    def test_simple_and_regular(self, n, d):
        g = gen_random_regular(n, d, seed=n * 1000 + d)
        assert g.is_regular(d)
        assert all(u != v for u, v in g.edges())

    def test_high_degree_feasible(self):
        # plain whole-pairing rejection would essentially never succeed here
        g = gen_random_regular(120, 40, seed=9)
        assert g.is_regular(40)
