from __future__ import annotations

import importlib
import random
from dataclasses import fields
from math import comb
from pathlib import Path

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
from oracles import is_proper, regularize_reference


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

    def test_edge_arrays_list_the_edges_in_order(self):
        for g in [Graph.from_edges(0, []), Graph.from_edges(4, [(0, 1)]),
                  disjoint_union(complete_graph(3), path_graph(4)),
                  gen_random_regular(30, 4, seed=5)]:
            u, v = g.edge_arrays()
            assert u.dtype == v.dtype == np.int64
            assert list(zip(u.tolist(), v.tolist())) == list(g.edges())

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

    def test_matches_the_dict_oracle(self):
        # random partial colorings, 0 standing for a vertex missing from the dict
        rng = np.random.default_rng(11)
        graphs = [path_graph(6), cycle_graph(7), complete_graph(5), gen_random_regular(30, 4, seed=5)]
        graphs.append(Graph.from_edges(9, [(0, 1), (1, 2), (3, 4)]))  # isolated vertices
        verdicts = set()
        for g in graphs:
            for _ in range(60):
                colors = rng.integers(0, int(rng.integers(2, 2 * g.max_degree + 3)), size=g.n)
                sigma = {v: c for v, c in enumerate(colors.tolist()) if c}
                try:
                    check_proper(g, colors)
                    ok = True
                except VerificationFailed:
                    ok = False
                assert ok == is_proper(g, sigma)
                verdicts.add(ok)
        assert verdicts == {True, False}


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
            assert set(out.adj[v]) & frozenset(range(3)) == set(g.adj[v])

    def test_single_edge(self):
        g = path_graph(2)
        assert regularize(g) is g

    def test_random_inputs_postconditions(self):
        for g in random_regularize_inputs():
            n, d = g.n, g.max_degree
            out = regularize(g)
            assert out.is_regular(d)
            # original graph induced on the vertex prefix
            for v in range(n):
                assert set(out.adj[v]) & frozenset(range(n)) == set(g.adj[v])
            assert out.n <= (d + 2) * n

    def test_large_irregular_input_is_an_induced_prefix(self):
        # n = 8,000 at D = 4: the prefix check must not be quadratic in n
        g = large_irregular_input()
        out = regularize(g)
        assert not g.is_regular() and out.is_regular(4)
        assert [tuple(w for w in out.adj[v] if w < g.n) for v in range(g.n)] == list(g.adj)

    @staticmethod
    def inject(monkeypatch, change):
        """Route the CSR that regularize builds through `change`, a map from
        its edge set to another edge set, before Graph._from_csr sees it."""
        from_csr = Graph._from_csr

        def changed(n, flat, ptr):
            edges = change(set(from_csr(n, flat, ptr).edges()))
            return from_csr(n, *Graph.from_edges(n, edges).flat_adjacency())

        monkeypatch.setattr(Graph, "_from_csr", staticmethod(changed))

    def test_a_changed_prefix_is_caught(self, monkeypatch):
        # the path 0-1-2-3 gets 4 copies, and the copies of vertex 3 are
        # joined by the edge (3,11).  Swapping (1,2), (3,11) for (1,3), (2,11)
        # keeps the output 2-regular and the first ends of the prefix edges
        # (0, 1, 2), so only a check of both ends can see it
        self.inject(monkeypatch, lambda edges: (edges - {(1, 2), (3, 11)}) | {(1, 3), (2, 11)})
        with pytest.raises(VerificationFailed, match="not induced on vertex prefix"):
            regularize(path_graph(4))

    def test_a_non_regular_output_is_caught(self, monkeypatch):
        # without the antipodal edge (3,11), vertices 3 and 11 have degree 1
        self.inject(monkeypatch, lambda edges: edges - {(3, 11)})
        with pytest.raises(VerificationFailed, match="not D-regular"):
            regularize(path_graph(4))


def random_regularize_inputs():
    """The 100 seeded random graphs of the regularize tests, keeping those
    with 1 <= D <= 20."""
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
        if 1 <= g.max_degree <= 20:
            yield g


def large_irregular_input() -> Graph:
    """gen_random_regular(8000, 4) minus every 7th edge."""
    base = gen_random_regular(8000, 4, seed=5)
    return Graph.from_edges(8000, [e for i, e in enumerate(base.edges()) if i % 7])


def irregular_sparse_bench_input(monkeypatch) -> Graph:
    """The `irregular-sparse` benchmark input at seed 555, made by the
    benchmark's own code."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("workloads").IrregularSparse().make_input(555).graph


class TestRegularizeMatchesReference:
    """The array-built regularize against the tuple-and-set construction it
    replaced (tests/oracles.py): the same graph, so the same vertex layout
    and the same sorted rows, with a symmetric adjacency and a cached CSR
    equal to one built afresh from the rows."""

    @staticmethod
    def check(g: Graph) -> Graph:
        out = regularize(g)
        assert out == regularize_reference(g)
        flat, ptr = out.flat_adjacency()
        fresh_flat, fresh_ptr = Graph(out.n, out.adj).flat_adjacency()
        assert np.array_equal(flat, fresh_flat) and np.array_equal(ptr, fresh_ptr)
        rows = np.repeat(np.arange(out.n), np.diff(ptr))
        assert np.array_equal(np.sort(rows * out.n + flat), np.sort(flat * out.n + rows))
        return out

    def test_random_inputs(self):
        for g in random_regularize_inputs():
            self.check(g)

    @pytest.mark.parametrize(
        "g,copies",
        [
            # K5 beside C5: D = 4 and every deficiency is 0 or 2, so m = D+1
            (disjoint_union(complete_graph(5), cycle_graph(5)), 5),
            # the path 0-1-2-3: D = 2, the ends lack 1, so m = D+2 with the
            # antipodal offset m/2
            (path_graph(4), 4),
            # K_{1,3} plus the edge (1,2): D = 3, deficiencies 1, 1, 2, so
            # m = D+1 is even and the odd ones still take m/2
            (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), 4),
            # an isolated vertex beside K4: deficiency D
            (disjoint_union(complete_graph(4), Graph.from_edges(1, [])), 4),
        ],
    )
    def test_copy_counts(self, g, copies):
        assert self.check(g).n == copies * g.n

    def test_large_irregular_input(self):
        self.check(large_irregular_input())

    def test_bench_input(self, monkeypatch):
        assert self.check(irregular_sparse_bench_input(monkeypatch)).n == 4200


class TestFromCsr:
    def test_rows_and_cache(self):
        g = Graph._from_csr(3, np.array([1, 0, 2, 1]), np.array([0, 1, 3, 4]))
        assert g == path_graph(3)
        flat, ptr = g.flat_adjacency()
        assert flat.tolist() == [1, 0, 2, 1] and ptr.tolist() == [0, 1, 3, 4]

    @pytest.mark.parametrize(
        "n,flat,ptr,match",
        [
            (2, [1, 2], [0, 1, 2], "out of range"),
            (2, [-1, 0], [0, 1, 2], "out of range"),
            (2, [0, 0], [0, 1, 2], "self-loop at 0"),
            (3, [1, 1, 0, 0], [0, 2, 3, 4], "row 0 is not strictly increasing"),
            (3, [2, 1, 0, 0], [0, 2, 3, 4], "row 0 is not strictly increasing"),
            (2, [1, 0], [0, 1], "bad CSR offsets"),
            (2, [1, 0], [0, 2, 1], "bad CSR offsets"),
        ],
    )
    def test_rejects(self, n, flat, ptr, match):
        with pytest.raises(ValueError, match=match):
            Graph._from_csr(n, np.array(flat), np.array(ptr))


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
