from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from spreadcolor import clusters
from spreadcolor.clusters import (
    Pipeline,
    build_cluster_context,
    cluster_shape,
    color_cluster,
    process_pair_coloring,
)
from spreadcolor.errors import FloorNotMet, HypothesisViolated, NegativeR, VerificationFailed
from spreadcolor.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    gen_random_regular,
)
from spreadcolor.matching import Matching
from spreadcolor.params import Params
from oracles import is_proper


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


def outside_colors(g: Graph, sigma: dict[int, int] | None = None) -> np.ndarray:
    """The color array build_cluster_context takes: sigma's colors, 0 elsewhere."""
    out = np.zeros(g.n, dtype=np.int64)
    if sigma:
        out[list(sigma)] = list(sigma.values())
    return out


class TestBuildContext:
    def test_isolated_clique_zeta_zero_complete_b(self):
        d = 16
        g = complete_graph(d + 1)
        ctx = build_cluster_context(g, range(d + 1), outside_colors(g), Params())
        assert ctx.zeta == 0.0
        assert all(len(row) == d + 1 for row in ctx.b.adj_x)

    def test_one_nonedge_zeta(self):
        d = 16
        g = complete_graph(d + 1)
        edges = set(g.edges()) - {(0, 1)}
        g2 = Graph.from_edges(d + 1, edges)
        # degrees now d-1 and d; treat as cluster of the (irregular) graph
        ctx = build_cluster_context(g2, range(d + 1), outside_colors(g2), Params())
        assert ctx.zeta == 1 / ctx.d**2

    def test_engineered_density(self):
        g = clique_minus_cycle(19)  # D = 16, e(H) = 19
        ctx = build_cluster_context(g, range(19), outside_colors(g), Params())
        assert ctx.d == 16
        assert ctx.zeta == pytest.approx(19 / 256)

    def test_bigraph_excludes_outside_colors(self):
        g = swapped_double_clique(17)
        cluster = [v for v in range(2, 17)]  # K_17 minus the swapped pair {0,1}
        sigma_out = {0: 3, 1: 5}
        ctx = build_cluster_context(g, cluster, outside_colors(g, sigma_out), Params())
        for row in ctx.b.adj_x:
            assert 2 not in row and 4 not in row  # y-indices of colors 3 and 5

    def test_invariant_violation_raises(self):
        g = disjoint_union(complete_graph(17), complete_graph(17))
        with pytest.raises(HypothesisViolated):
            build_cluster_context(g, range(34), outside_colors(g), Params())

    def test_sigma_out_on_cluster_rejected(self):
        g = complete_graph(17)
        with pytest.raises(ValueError):
            build_cluster_context(g, range(17), outside_colors(g, {3: 1}), Params())


def _reference_legal_rows(g, cluster, sigma_out: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """B's rows as the set-based construction built them: y = c - 1 for
    every color c no colored outside neighbor uses."""
    d = g.max_degree
    cset = frozenset(cluster)
    rows = []
    for v in sorted(cluster):
        banned = {sigma_out.get(w, 0) for w in set(g.adj[v]) - cset}
        rows.append(tuple(c - 1 for c in range(1, d + 2) if c not in banned))
    return tuple(rows)


class TestClusterShape:
    def test_gathered_bigraph_matches_set_construction(self):
        g = disjoint_union(clique_minus_cycle(19), clique_minus_cycle(19))
        edges = set(g.edges())
        edges -= {(2, 5), (21, 24), (3, 7), (22, 26)}
        edges |= {(2, 21), (5, 24), (3, 22), (7, 26)}
        g2 = Graph.from_edges(38, edges)
        cluster = range(19)
        shape = cluster_shape(g2, cluster, Params().cluster_eps())
        for seed in range(5):
            rng = np.random.default_rng(seed)
            sigma_out = {v: int(rng.integers(0, 18)) for v in range(19, 38)}
            arr = outside_colors(g2, sigma_out)
            ctx = build_cluster_context(g2, cluster, arr, Params(), shape=shape)
            assert ctx.b.adj_x == _reference_legal_rows(g2, cluster, sigma_out)
            assert ctx.b == build_cluster_context(g2, cluster, arr, Params()).b
        # the cluster check reads every edge with an end in the cluster
        touching = {(u, v) for u, v in g2.edges() if u in cluster or v in cluster}
        got = {tuple(sorted(e)) for e in zip(*(a.tolist() for a in shape.edges))}
        assert got == touching
        assert all(u in cluster for u in shape.edges[0].tolist())

    def test_h_statistics_match_set_construction(self):
        g = clique_minus_cycle(19)
        shape = cluster_shape(g, range(19), Params().cluster_eps())
        cset = frozenset(range(19))
        ref = [(u, v) for u in range(19) for v in range(u + 1, 19) if v not in g.adj[u]]
        assert [tuple(p) for p in shape.h_pairs.tolist()] == ref
        assert shape.h_deg == tuple(len(cset - set(g.adj[v]) - {v}) for v in range(19))
        assert shape.zeta == len(ref) / 16**2
        assert shape.out_pos.size == 0 and shape.violation is None

    def test_violation_is_raised_on_every_use(self):
        g = disjoint_union(complete_graph(17), complete_graph(17))
        shape = cluster_shape(g, range(34), Params().cluster_eps())
        assert shape.violation == "|C \\ N_v| = 18 >= eps*D for v=0"
        for _ in range(2):
            with pytest.raises(HypothesisViolated) as info:
                build_cluster_context(g, range(34), outside_colors(g), Params(), shape=shape)
            assert str(info.value) == shape.violation

    def test_outside_check_comes_first(self):
        # vertex 0 of the first K17 sees 16 outside vertices: |N_v \ C| >= 0.4*16
        g = Graph.from_edges(
            34, [*complete_graph(17).edges(), *[(0, 17 + i) for i in range(16)]]
        )
        shape = cluster_shape(g, range(1, 17), Params().cluster_eps())
        assert shape.violation is None
        shape = cluster_shape(g, range(17), Params().cluster_eps())
        assert shape.violation == "|N_v \\ C| = 16 >= eps*D for v=0"

    @pytest.mark.parametrize("cluster, stray", [([-1, 0, 1], -1), ([0, 1, 5], 5)])
    def test_ids_outside_the_graph_rejected(self, cluster, stray):
        # both fail at the boundary and name the stray id
        g = complete_graph(5)
        message = f"vertex {stray} not in graph of order 5"
        with pytest.raises(ValueError, match=message):
            cluster_shape(g, cluster, Params().cluster_eps())
        with pytest.raises(ValueError, match=message):
            build_cluster_context(g, cluster, outside_colors(g), Params())

    def test_outside_colors_beyond_the_palette_rejected(self):
        g = swapped_double_clique(17)
        with pytest.raises(ValueError, match="0..D\\+1"):
            build_cluster_context(g, range(2, 17), outside_colors(g, {0: 18}), Params())

    def test_pipeline_builds_each_shape_once(self, monkeypatch):
        calls = []
        real = clusters.cluster_shape
        monkeypatch.setattr(
            clusters, "cluster_shape", lambda *a: calls.append(a[1]) or real(*a)
        )
        pipe = Pipeline(swapped_double_clique(17), Params(theta=0.05))
        assert calls == []  # built on first use, not at set-up
        for seed in range(3):
            pipe.sample(seed)
        assert sorted(calls) == sorted(pipe.dec.clusters)


class TestProcess:
    def test_bookkeeping_and_pair_property(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), outside_colors(g), Params())
        assert ctx.zeta >= ctx.zeta0
        rng = np.random.default_rng(0)
        pi = process_pair_coloring(ctx, rng)
        rounds = len(set(pi.values()))
        assert len(pi) == 2 * rounds
        for c in set(pi.values()):
            pair = [v for v, cc in pi.items() if cc == c]
            assert len(pair) == 2
            assert pair[1] not in g.adj[pair[0]]

    def test_small_zeta_rejected(self):
        g = complete_graph(17)
        ctx = build_cluster_context(g, range(17), outside_colors(g), Params())
        with pytest.raises(HypothesisViolated):
            process_pair_coloring(ctx, np.random.default_rng(1))

    def test_a_pair_on_an_edge_is_caught(self):
        # a shape whose only H pair is an edge of g; eta = 1 lowers both floors
        # below zero, so the one round colors that edge
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), outside_colors(g), Params())
        ctx.shape = replace(ctx.shape, h_pairs=np.array([[0, g.adj[0][0]]]))
        with pytest.raises(VerificationFailed, match="pair process coloring is not proper"):
            process_pair_coloring(ctx, np.random.default_rng(0), rounds=1, eta=1.0)

    def test_finite_d_floor_is_a_hypothesis_violation(self):
        # eta = 0 makes the edge floor zeta*D^2 = e(H) itself, which e(H_0) = e(H)
        # does not exceed
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), outside_colors(g), Params())
        with pytest.raises(FloorNotMet, match=r"e\(H_i\) = 19 !> .* = 19.00"):
            process_pair_coloring(ctx, np.random.default_rng(0), rounds=1, eta=0.0)
        assert issubclass(FloorNotMet, HypothesisViolated)
        assert not issubclass(FloorNotMet, VerificationFailed)

    def test_rounds_reduce_counts(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), outside_colors(g), Params())
        pi = process_pair_coloring(ctx, np.random.default_rng(2))
        # |C'| = |C| - 2*rounds, |Gamma'| = D+1 - rounds
        rounds = len(set(pi.values()))
        assert len(ctx.cluster) - len(pi) == 19 - 2 * rounds


class TestColorCluster:
    def test_isolated_clique_bijection(self):
        d = 16
        g = complete_graph(d + 1)
        ctx = build_cluster_context(g, range(d + 1), outside_colors(g), Params())
        colors, branch = color_cluster(ctx, np.random.default_rng(3))
        assert branch == "small"
        assert colors.dtype == np.int64 and sorted(colors) == list(range(1, d + 2))

    def test_large_zeta_path(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), outside_colors(g), Params())
        colors, branch = color_cluster(ctx, np.random.default_rng(4))
        assert branch == "large"
        coloring = dict(zip(ctx.cluster, colors.tolist()))
        assert set(coloring) == set(range(19)) and all(coloring.values())
        assert is_proper(g, coloring)
        # colors used twice are exactly the process pairs
        from collections import Counter

        counts = Counter(coloring.values())
        assert set(counts.values()) <= {1, 2}
        for c, cnt in counts.items():
            if cnt == 2:
                u, v = [w for w, cc in coloring.items() if cc == c]
                assert v not in g.adj[u]

    def test_large_zeta_with_outside_colors(self):
        g = disjoint_union(clique_minus_cycle(19), clique_minus_cycle(19))
        # swap one non-H edge across the copies to create outside neighbors
        edges = set(g.edges())
        a, b = 2, 5  # adjacent inside copy 1 (not cycle neighbors)
        assert b in g.adj[a]
        a2, b2 = 19 + 2, 19 + 5
        edges -= {(a, b), (a2, b2)}
        edges |= {(a, a2), (b, b2)}
        g2 = Graph.from_edges(38, edges)
        assert g2.is_regular(16)
        sigma_out = {v: (v % 17) + 1 for v in range(19, 38)}
        ctx = build_cluster_context(g2, range(19), outside_colors(g2, sigma_out), Params())
        assert ctx.zeta == pytest.approx(20 / 256)
        colors, branch = color_cluster(ctx, np.random.default_rng(5))
        assert branch == "large"
        assert colors.all()
        for v, c in zip(ctx.cluster, colors.tolist()):
            for w in g2.neighbors(v):
                if w in sigma_out:
                    assert sigma_out[w] != c

    @pytest.mark.parametrize("case", ["R", "sum r_x"])
    def test_small_zeta_matcher_bound_is_three_times(self, case):
        # the small branch checks R, max r_x and sum r_x against zJ with
        # z = 3*(eps + zeta*D).  Each cluster below puts one of them above
        # the bound at 2*(eps + zeta*D) and within the one at 3
        if case == "R":
            # K10 beside a star K_{1,20}: D = 20, zeta = 0 and R = 21 - 10
            g = disjoint_union(complete_graph(10), complete_bipartite(1, 20))
            cluster, params = range(10), Params()
        else:
            # K33 minus the 6-regular circulant with offsets 1, 2, 3, and 14
            # pendant neighbors per member: D = 40, R = 8, e(H) = 99, so
            # sum r_x = 198 and zeta = 99/1600, forced onto the small branch
            h = {(u, (u + k) % 33) for u in range(33) for k in (1, 2, 3)}
            h |= {(v, u) for u, v in h}
            edges = [(u, v) for u in range(33) for v in range(u + 1, 33) if (u, v) not in h]
            edges += [(v, 33 + 14 * v + k) for v in range(33) for k in range(14)]
            g = Graph.from_edges(33 + 33 * 14, edges)
            cluster, params = range(33), Params(zeta0=1.0)
        ctx = build_cluster_context(g, cluster, outside_colors(g), params)
        d, j, r_x = ctx.d, len(ctx.cluster), ctx.shape.h_deg
        values = {"R": d + 1 - j, "max r_x": max(r_x), "sum r_x": sum(r_x)}
        low, high = (c * (ctx.eps + ctx.zeta * d) * j for c in (2, 3))
        assert low < values.pop(case) <= high
        assert all(value <= low for value in values.values())
        colors, branch = color_cluster(ctx, np.random.default_rng(8), params)
        assert branch == "small"
        assert is_proper(g, dict(zip(ctx.cluster, colors.tolist())))

    def test_oversized_cluster_negative_r(self):
        # 20 vertices with D = 16 and zeta0 forced huge -> small path, R < 0
        g = clique_minus_cycle(20)  # 17-regular on 20 vertices
        edges = set(g.edges())
        # remove another Hamilton-ish matching to get D = 16? simpler: use as is
        d = g.max_degree
        assert d == 17
        ctx = build_cluster_context(g, range(20), outside_colors(g), Params(zeta0=1.0))
        with pytest.raises(NegativeR):
            color_cluster(ctx, np.random.default_rng(6))

    def test_hierarchy_violation_raises(self):
        g = clique_minus_cycle(19)
        ctx = build_cluster_context(g, range(19), outside_colors(g), Params())
        with pytest.raises(HypothesisViolated):
            color_cluster(ctx, np.random.default_rng(7), Params(eta=0.9))


class TestClusterCheck:
    def _ctx(self):
        # K15 whose every vertex also sees outside vertices 0 (color 3) and 1 (color 5)
        g = swapped_double_clique(17)
        return build_cluster_context(g, range(2, 17), outside_colors(g, {0: 3, 1: 5}), Params())

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
            lambda b, *a, **k: Matching({x: x + 1 for x in range(b.nx - 1)}),
        )
        with pytest.raises(VerificationFailed, match="does not cover the cluster"):
            color_cluster(self._ctx(), np.random.default_rng(0))

    def test_outside_colors_are_one_array_over_the_graph(self):
        g = swapped_double_clique(17)
        arr = outside_colors(g, {0: 3, 1: 5})
        ctx = build_cluster_context(g, range(2, 17), arr, Params())
        arr[0] = 7  # the context keeps its own copy
        assert ctx.sigma_out[0] == 3 and ctx.b == self._ctx().b
        with pytest.raises(ValueError, match=r"shape \(34,\)"):
            build_cluster_context(g, range(2, 17), arr[:-1], Params())
        with pytest.raises(TypeError):
            build_cluster_context(g, range(2, 17), {0: 3, 1: 5}, Params())


class TestPipelineCheck:
    def test_improper_final_coloring_caught(self, monkeypatch):
        monkeypatch.setattr(
            clusters, "color_cluster",
            lambda ctx, rng, params: (np.ones(len(ctx.cluster), dtype=np.int64), "small"),
        )
        with pytest.raises(VerificationFailed, match=r"pipeline coloring is not proper: edge \(0,1\)"):
            Pipeline(complete_graph(17)).sample(0)

    def test_broken_matcher_raises_instead_of_falling_back(self, monkeypatch):
        # a matcher result that leaves a vertex out is a bug, not a flagged run
        monkeypatch.setattr(
            clusters, "spread_X_perfect_matching",
            lambda b, *a, **k: Matching({x: x for x in range(b.nx - 1)}),
        )
        with pytest.raises(VerificationFailed, match="does not cover the cluster"):
            Pipeline(complete_graph(17)).sample(0)

    def test_uncolored_vertex_caught(self, monkeypatch):
        monkeypatch.setattr(
            clusters, "color_cluster",
            lambda ctx, rng, params: (np.zeros(len(ctx.cluster), dtype=np.int64), "small"),
        )
        with pytest.raises(VerificationFailed, match="left vertices uncolored"):
            Pipeline(complete_graph(17)).sample(0)


class TestPipeline:
    def test_single_clique(self):
        d = 16
        g = complete_graph(d + 1)
        res = Pipeline(g).sample(0)
        assert sorted(res.coloring.tolist()) == list(range(1, d + 2))
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
        assert set(res.coloring.tolist()) <= set(range(1, d + 2))
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
        assert np.array_equal(pipe.sample(5).coloring, pipe.sample(5).coloring)

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

    def test_irregular_input_regularized(self):
        # star-ish irregular graph: pipeline must still produce a proper
        # (D+1)-coloring of the original vertices
        g = Graph.from_edges(
            12,
            [(0, i) for i in range(1, 9)]
            + [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (10, 11)],
        )
        res = Pipeline(g).sample(2)
        assert res.coloring.shape == (12,)
        assert is_proper(g, res.coloring)
        assert set(res.coloring.tolist()) <= set(range(1, g.max_degree + 2))
