from __future__ import annotations

import random
from dataclasses import fields
from math import comb

import numpy as np
import pytest

from spreadcolor.errors import VerificationFailed
from spreadcolor import graphs
from spreadcolor.graphs import (
    Graph,
    check_proper,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    common_neighbor_blocks,
    gen_random_regular,
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

    def test_caches_stay_in_declared_fields(self):
        # a key added to the instance __dict__ after construction would put
        # every later attribute load on this graph on CPython's slow path
        g = disjoint_union(complete_graph(3), path_graph(4))
        declared = {f.name for f in fields(Graph)}
        assert set(vars(g)) == declared
        g.edge_arrays(), g.flat_adjacency(), g.gather_neighbors(np.array([0, 4]))
        g.components(), g.component_labels(), g.max_degree, g.min_degree
        g.is_regular(), g.is_regular(2)
        assert set(vars(g)) == declared
        assert Graph.from_json(g.to_json()) == g

    def test_is_regular(self):
        assert cycle_graph(5).is_regular() and cycle_graph(5).is_regular(2)
        assert not cycle_graph(5).is_regular(3)
        assert not path_graph(4).is_regular() and not path_graph(4).is_regular(1)
        assert Graph.from_edges(0, []).is_regular(7)
        assert (path_graph(4).min_degree, path_graph(4).max_degree) == (1, 2)


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
        touching_3_4 = (np.array([3, 3, 4]), np.array([2, 4, 3]))
        check_proper(g, colors, edges=touching_3_4)
        touching_1 = (np.array([1, 1]), np.array([0, 2]))
        with pytest.raises(VerificationFailed, match=r"cluster coloring is not proper: edge \(0,1\)"):
            check_proper(g, colors, edges=touching_1, what="cluster coloring")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_proper(path_graph(3), np.array([1, 2]))


def complement_edges_by_sets(g: Graph) -> list[int]:
    """The sparsity statistic from neighbor sets, vertex by vertex: the
    independent oracle for the blocked common-neighbor pass."""
    sets = [frozenset(a) for a in g.adj]
    out = []
    for v in range(g.n):
        inside = sum(len(sets[v] & sets[u]) for u in sets[v]) // 2
        out.append(comb(len(sets[v]), 2) - inside)
    return out


def gnp_with_isolated(n: int, p: float, isolated: int, seed: int) -> Graph:
    """G(n, p) on the first n - isolated vertices, the rest isolated."""
    rng = random.Random(seed)
    m = n - isolated
    return Graph.from_edges(
        n, [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < p]
    )


def statistic_cases() -> dict[str, Graph]:
    from test_clusters import clique_minus_cycle, swapped_double_clique

    cases = {
        "empty": Graph.from_edges(0, []),
        "edgeless": Graph.from_edges(4, []),
        "star": complete_bipartite(1, 5),
        "C5": cycle_graph(5),
        "K2": complete_graph(2),
        "K9": complete_graph(9),
        "K4+K7+K3": disjoint_union(
            disjoint_union(complete_graph(4), complete_graph(7)), complete_graph(3)
        ),
        "clique_minus_cycle(23)": clique_minus_cycle(23),
        "swapped_double_clique(17)": swapped_double_clique(17),
        "clustered": disjoint_union(
            disjoint_union(swapped_double_clique(21), clique_minus_cycle(23)),
            gen_random_regular(60, 20, seed=3),
        ),
        "regular(320, 12)": gen_random_regular(320, 12, seed=5),
    }
    for seed in range(6):
        cases[f"gnp({seed})"] = gnp_with_isolated(8 + 5 * seed, 0.15 + 0.12 * seed, seed % 3, seed)
    return cases


STATISTIC_CASES = statistic_cases()


class TestNeighborhoodComplement:
    def test_clique_neighborhood_is_zero(self):
        assert neighborhood_complement_edges(complete_graph(4)).tolist() == [0] * 4

    def test_star_center(self):
        assert neighborhood_complement_edges(complete_bipartite(1, 3)).tolist() == [3, 0, 0, 0]

    def test_five_cycle(self):
        assert neighborhood_complement_edges(cycle_graph(5)).tolist() == [1] * 5

    def test_empty_graph(self):
        out = neighborhood_complement_edges(Graph.from_edges(0, []))
        assert out.shape == (0,) and out.dtype == np.int64

    @pytest.mark.parametrize("name", sorted(STATISTIC_CASES))
    def test_matches_the_set_oracle(self, name):
        g = STATISTIC_CASES[name]
        got = neighborhood_complement_edges(g)
        assert got.dtype == np.int64 and got.shape == (g.n,)
        assert got.tolist() == complement_edges_by_sets(g)

    @pytest.mark.parametrize("name", sorted(STATISTIC_CASES))
    def test_matches_networkx_triangles(self, name):
        nx = pytest.importorskip("networkx")
        g = STATISTIC_CASES[name]
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        tri = nx.triangles(h)
        want = [comb(g.degree(v), 2) - tri[v] for v in range(g.n)]
        assert neighborhood_complement_edges(g).tolist() == want

    def test_the_large_case_spans_several_blocks(self):
        g = STATISTIC_CASES["regular(320, 12)"]
        blocks = list(common_neighbor_blocks(g, np.arange(g.n)))
        assert len(blocks) > 1
        assert np.concatenate([b for b, _ in blocks]).tolist() == list(range(g.n))

    def test_block_counts_are_common_neighbors(self):
        g = STATISTIC_CASES["gnp(4)"]
        rows = np.array([5, 0, 7])
        sets = [frozenset(a) for a in g.adj]
        for block, cnt in common_neighbor_blocks(g, rows):
            assert cnt.shape == (len(block), g.n)
            for i, b in enumerate(block):
                assert cnt[i].tolist() == [len(sets[b] & sets[w]) for w in range(g.n)]

    def test_computed_once_and_read_only(self, monkeypatch):
        g = complete_graph(6)
        first = neighborhood_complement_edges(g)
        monkeypatch.setattr(graphs, "common_neighbor_blocks", None)  # a second pass would fail
        assert neighborhood_complement_edges(g) is first
        assert not first.flags.writeable
        assert set(vars(g)) == {f.name for f in fields(Graph)}


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
