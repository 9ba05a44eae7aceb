from __future__ import annotations

import numpy as np
import pytest

from spreadcolor import clusters
from spreadcolor.clusters import (
    Pipeline,
    build_cluster_context,
    color_cluster,
    color_graph_spread,
    process_pair_coloring,
)
from spreadcolor.errors import HypothesisViolated, NegativeR, VerificationFailed
from spreadcolor.graphs import Graph, complete_graph, disjoint_union, gen_random_regular
from spreadcolor.greedy import is_proper
from spreadcolor.matching import Matching
from spreadcolor.params import Params


def clique_minus_cycle(n: int) -> Graph:
    """K_n minus a Hamilton cycle: (n-3)-regular, complement is the cycle."""
    drop = {(i, (i + 1) % n) for i in range(n)}
    drop |= {(v, u) for u, v in drop}
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in drop
    ]
    return Graph.from_edges(n, edges)


def swapped_double_clique(k: int) -> Graph:
    """Two K_k's with one edge swapped across: still (k-1)-regular."""
    g = disjoint_union(complete_graph(k), complete_graph(k))
    edges = set(g.edges())
    edges -= {(0, 1), (k, k + 1)}
    edges |= {(0, k), (1, k + 1)}
    return Graph.from_edges(2 * k, edges)


class TestBuildContext:
    def test_isolated_clique_zeta_zero_complete_b(self):
        d = 16
        g = complete_graph(d + 1)
        ctx = build_cluster_context(g, range(d + 1), {}, Params())
        assert ctx.zeta == 0.0
        assert all(len(row) == d + 1 for row in ctx.b.adj_x)

    def test_one_nonedge_zeta(self):
        d = 16
        g = complete_graph(d + 1)
        edges = set(g.edges()) - {(0, 1)}
        g2 = Graph.from_edges(d + 1, edges)
        # degrees now d-1 and d; treat as cluster of the (irregular) graph
        ctx = build_cluster_context(g2, range(d + 1), {}, Params())
        assert ctx.zeta == 1 / ctx.d**2

    def test_engineered_density(self):
        g = clique_minus_cycle(19)  # D = 16, e(H) = 19
        ctx = build_cluster_context(g, range(19), {}, Params())
        assert ctx.d == 16
        assert ctx.zeta == pytest.approx(19 / 256)

    def test_bigraph_excludes_outside_colors(self):
        g = swapped_double_clique(17)
        cluster = [v for v in range(2, 17)]  # K_17 minus the swapped pair {0,1}
        sigma_out = {0: 3, 1: 5}
        ctx = build_cluster_context(g, cluster, sigma_out, Params())
        for row in ctx.b.adj_x:
            assert 2 not in row and 4 not in row  # y-indices of colors 3 and 5

    def test_invariant_violation_raises(self):
        g = disjoint_union(complete_graph(17), complete_graph(17))
        with pytest.raises(HypothesisViolated):
            build_cluster_context(g, range(34), {}, Params())

    def test_sigma_out_on_cluster_rejected(self):
        g = complete_graph(17)
        with pytest.raises(ValueError):
            build_cluster_context(g, range(17), {3: 1}, Params())


class TestProcess:
    def test_bookkeeping_and_pair_property(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), {}, Params())
        assert ctx.zeta >= ctx.zeta0
        rng = np.random.default_rng(0)
        pi = process_pair_coloring(ctx, rng)
        rounds = len(set(pi.values()))
        assert len(pi) == 2 * rounds
        for c in set(pi.values()):
            pair = [v for v, cc in pi.items() if cc == c]
            assert len(pair) == 2
            assert not g.has_edge(*pair)

    def test_small_zeta_rejected(self):
        g = complete_graph(17)
        ctx = build_cluster_context(g, range(17), {}, Params())
        with pytest.raises(HypothesisViolated):
            process_pair_coloring(ctx, np.random.default_rng(1))

    def test_rounds_reduce_counts(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), {}, Params())
        pi = process_pair_coloring(ctx, np.random.default_rng(2))
        # |C'| = |C| - 2*rounds, |Gamma'| = D+1 - rounds
        rounds = len(set(pi.values()))
        assert len(ctx.cluster) - len(pi) == 19 - 2 * rounds


class TestColorCluster:
    def test_isolated_clique_bijection(self):
        d = 16
        g = complete_graph(d + 1)
        ctx = build_cluster_context(g, range(d + 1), {}, Params())
        coloring, branch = color_cluster(ctx, np.random.default_rng(3))
        assert branch == "small"
        assert sorted(coloring.values()) == list(range(1, d + 2))

    def test_large_zeta_path(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), {}, Params())
        coloring, branch = color_cluster(ctx, np.random.default_rng(4))
        assert branch == "large"
        assert set(coloring) == set(range(19))
        assert is_proper(g, coloring)
        # colors used twice are exactly the process pairs
        from collections import Counter

        counts = Counter(coloring.values())
        assert set(counts.values()) <= {1, 2}
        for c, cnt in counts.items():
            if cnt == 2:
                u, v = [w for w, cc in coloring.items() if cc == c]
                assert not g.has_edge(u, v)

    def test_large_zeta_with_outside_colors(self):
        g = disjoint_union(clique_minus_cycle(19), clique_minus_cycle(19))
        # swap one non-H edge across the copies to create outside neighbors
        edges = set(g.edges())
        a, b = 2, 5  # adjacent inside copy 1 (not cycle neighbors)
        assert g.has_edge(a, b)
        a2, b2 = 19 + 2, 19 + 5
        edges -= {(a, b), (a2, b2)}
        edges |= {(a, a2), (b, b2)}
        g2 = Graph.from_edges(38, edges)
        assert g2.is_regular(16)
        sigma_out = {v: (v % 17) + 1 for v in range(19, 38)}
        ctx = build_cluster_context(g2, range(19), sigma_out, Params())
        assert ctx.zeta == pytest.approx(20 / 256)
        coloring, branch = color_cluster(ctx, np.random.default_rng(5))
        assert branch == "large"
        for v, c in coloring.items():
            for w in g2.neighbors(v):
                if w in sigma_out:
                    assert sigma_out[w] != c

    def test_oversized_cluster_negative_r(self):
        # 20 vertices with D = 16 and zeta0 forced huge -> small path, R < 0
        g = clique_minus_cycle(20)  # 17-regular on 20 vertices
        edges = set(g.edges())
        # remove another Hamilton-ish matching to get D = 16? simpler: use as is
        d = g.max_degree
        assert d == 17
        ctx = build_cluster_context(g, range(20), {}, Params(zeta0=1.0))
        with pytest.raises(NegativeR):
            color_cluster(ctx, np.random.default_rng(6))

    def test_hierarchy_violation_raises(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), {}, Params())
        with pytest.raises(HypothesisViolated):
            color_cluster(ctx, np.random.default_rng(7), Params(eta=0.9))


class TestClusterCheck:
    def _ctx(self):
        # K15 whose every vertex also sees outside vertices 0 (color 3) and 1 (color 5)
        g = swapped_double_clique(17)
        return build_cluster_context(g, range(2, 17), {0: 3, 1: 5}, Params())

    def test_conflict_with_outside_color_caught(self, monkeypatch):
        # x -> y = x + 2 gives vertex 2 color 3, the color of its neighbor 0
        monkeypatch.setattr(
            clusters, "spread_X_perfect_matching",
            lambda b, *a, **k: Matching({x: x + 2 for x in range(b.nx)}),
        )
        with pytest.raises(VerificationFailed, match=r"cluster coloring is not proper: edge \(0,2\)"):
            color_cluster(self._ctx(), np.random.default_rng(0))

    def test_uncovered_vertex_caught(self, monkeypatch):
        monkeypatch.setattr(
            clusters, "spread_X_perfect_matching",
            lambda b, *a, **k: Matching({x: x + 5 for x in range(b.nx - 1)}),
        )
        with pytest.raises(VerificationFailed, match="does not cover the cluster"):
            color_cluster(self._ctx(), np.random.default_rng(0))

    def test_array_and_dict_outside_colors_agree(self):
        g = swapped_double_clique(17)
        arr = np.zeros(g.n, dtype=np.int64)
        arr[[0, 1]] = [3, 5]
        a = build_cluster_context(g, range(2, 17), arr, Params())
        assert a.b == self._ctx().b
        assert np.array_equal(a.sigma_out, self._ctx().sigma_out)


class TestPipelineCheck:
    def test_improper_final_coloring_caught(self, monkeypatch):
        monkeypatch.setattr(
            clusters, "color_cluster", lambda ctx, rng, params: ({v: 1 for v in ctx.cluster}, "small")
        )
        with pytest.raises(VerificationFailed, match=r"pipeline coloring is not proper: edge \(0,1\)"):
            Pipeline(complete_graph(17)).sample(0)

    def test_uncolored_vertex_caught(self, monkeypatch):
        monkeypatch.setattr(clusters, "color_cluster", lambda ctx, rng, params: ({}, "small"))
        with pytest.raises(VerificationFailed, match="left vertices uncolored"):
            Pipeline(complete_graph(17)).sample(0)


class TestPipeline:
    def test_single_clique(self):
        d = 16
        g = complete_graph(d + 1)
        res = color_graph_spread(g, seed=0)
        assert sorted(res.coloring.values()) == list(range(1, d + 2))
        assert res.cluster_paths == ["small"]
        assert not res.flagged

    def test_random_regular_all_sparse(self):
        g = gen_random_regular(200, 16, seed=17)
        pipe = Pipeline(g)
        for seed in range(5):
            res = pipe.sample(seed)
            assert is_proper(g, res.coloring)
            assert len(res.coloring) == 200
            assert res.cluster_paths == []
            assert not res.flagged

    def test_mixed_graph(self):
        d = 16
        g = disjoint_union(complete_graph(d + 1), gen_random_regular(60, d, seed=18))
        pipe = Pipeline(g)
        res = pipe.sample(3)
        assert is_proper(g, res.coloring)
        assert set(res.coloring.values()) <= set(range(1, d + 2))
        assert res.cluster_paths == ["small"]

    def test_swapped_cliques_clusters_with_cross_colors(self):
        # the swapped endpoints see 15 non-edges and go sparse; the untouched
        # clique vertices see exactly one, so theta = 0.05 keeps them dense
        g = swapped_double_clique(17)
        pipe = Pipeline(g, Params(theta=0.05))
        assert pipe.dec.sparse == frozenset({0, 1, 17, 18})
        assert len(pipe.dec.clusters) == 2
        res = pipe.sample(11)
        assert is_proper(g, res.coloring)
        assert len(res.cluster_paths) == 2
        assert not res.flagged

    def test_validity_sweep_many_seeds(self):
        g = gen_random_regular(100, 12, seed=19)
        pipe = Pipeline(g)
        for seed in range(30):
            res = pipe.sample(seed)
            assert is_proper(g, res.coloring)

    def test_deterministic_per_seed(self):
        g = gen_random_regular(80, 10, seed=20)
        pipe = Pipeline(g)
        assert pipe.sample(5).coloring == pipe.sample(5).coloring

    def test_fallback_flags_but_stays_proper(self):
        # zeta0 = 0 forces the large path on a zeta = 0 clique; the hierarchy
        # check fails and the deterministic fallback finishes the cluster
        g = disjoint_union(complete_graph(17), complete_graph(17))
        pipe = Pipeline(g, Params(zeta0=0.0))
        res = pipe.sample(0)
        assert res.flagged
        assert all(p.startswith("fallback") for p in res.cluster_paths)
        assert is_proper(g, res.coloring)

    def test_d_min_enforced(self):
        with pytest.raises(ValueError):
            Pipeline(complete_graph(3))

    def test_result_json(self):
        g = complete_graph(17)
        res = color_graph_spread(g, seed=1)
        out = res.to_json()
        assert '"cluster_paths": ["small"]' in out

    def test_irregular_input_regularized(self):
        # star-ish irregular graph: pipeline must still produce a proper
        # (D+1)-coloring of the original vertices
        g = Graph.from_edges(
            12,
            [(0, i) for i in range(1, 9)]
            + [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (10, 11)],
        )
        res = color_graph_spread(g, seed=2)
        assert set(res.coloring) == set(range(12))
        assert is_proper(g, res.coloring)
        assert set(res.coloring.values()) <= set(range(1, g.max_degree + 2))
