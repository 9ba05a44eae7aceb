from __future__ import annotations

import inspect
import math
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
from oracles import adjacency_rows, cluster_fallback_reference, is_proper


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


def matched_cliques(k: int) -> Graph:
    """Two K_k's (k even) minus a perfect matching each, joined by a perfect
    matching across: (k-1)-regular, and at theta = 0.05 two clusters whose
    members each have one neighbor in the other."""
    edges = [
        (b + u, b + v)
        for b in (0, k)
        for u in range(k)
        for v in range(u + 1, k)
        if not (u % 2 == 0 and v == u + 1)
    ]
    return Graph.from_edges(2 * k, edges + [(i, i + k) for i in range(k)])


def outside_colors(g: Graph, sigma: dict[int, int] | None = None) -> np.ndarray:
    """The color array build_cluster_context takes: sigma's colors, 0 elsewhere."""
    out = np.zeros(g.n, dtype=np.int64)
    if sigma:
        out[list(sigma)] = list(sigma.values())
    return out


def context(g: Graph, cluster, sigma: dict[int, int] | None = None):
    """The context of `cluster` against sigma's colors, built on its shape
    at the default cluster tolerance."""
    shape = cluster_shape(g, cluster, Params().cluster_eps())
    return build_cluster_context(g, shape, outside_colors(g, sigma))


class TestBuildContext:
    def test_isolated_clique_zeta_zero_complete_b(self):
        d = 16
        g = complete_graph(d + 1)
        ctx = context(g, range(d + 1))
        assert ctx.shape.zeta == 0.0
        assert ctx.b.shape == (d + 1, d + 1) and ctx.b.all()

    def test_one_nonedge_zeta(self):
        d = 16
        g = complete_graph(d + 1)
        edges = set(g.edges()) - {(0, 1)}
        g2 = Graph.from_edges(d + 1, edges)
        # degrees now d-1 and d; treat as cluster of the (irregular) graph
        ctx = context(g2, range(d + 1))
        assert ctx.shape.zeta == 1 / ctx.shape.d**2

    def test_engineered_density(self):
        g = clique_minus_cycle(19)  # D = 16, e(H) = 19
        ctx = context(g, range(19))
        assert ctx.shape.d == 16
        assert ctx.shape.zeta == pytest.approx(19 / 256)

    def test_bigraph_excludes_outside_colors(self):
        g = swapped_double_clique(17)
        cluster = [v for v in range(2, 17)]  # K_17 minus the swapped pair {0,1}
        sigma_out = {0: 3, 1: 5}
        ctx = context(g, cluster, sigma_out)
        assert ctx.b.dtype == bool and ctx.b.shape == (15, 17)
        assert not ctx.b[:, [2, 4]].any()  # y-indices of colors 3 and 5
        assert np.count_nonzero(ctx.b) == 15 * 15

    def test_a_context_is_built_from_a_shape_alone(self):
        # no ids and no Params: D, eps and the cluster are the shape's
        assert list(inspect.signature(build_cluster_context).parameters) == ["g", "shape", "sigma_out"]
        g = clique_minus_cycle(19)
        shape = cluster_shape(g, range(19), Params().cluster_eps())
        assert build_cluster_context(g, shape, outside_colors(g)).shape is shape

    def test_sigma_out_on_cluster_rejected(self):
        g = complete_graph(17)
        with pytest.raises(ValueError):
            context(g, range(17), {3: 1})


def _reference_legal_rows(g, cluster, sigma_out: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """B's rows as the set-based construction built them: y = c - 1 for
    every color c no colored outside neighbor uses."""
    d = g.max_degree
    cset = frozenset(cluster)
    rows = []
    for v in sorted(cluster):
        banned = {sigma_out.get(w, 0) for w in set(g.neighbors(v)) - cset}
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
            ctx = build_cluster_context(g2, shape, arr)
            assert adjacency_rows(ctx.b) == _reference_legal_rows(g2, cluster, sigma_out)
        # the cluster check reads every edge with an end in the cluster
        touching = {(u, v) for u, v in g2.edges() if u in cluster or v in cluster}
        got = {tuple(sorted(e)) for e in zip(*(a.tolist() for a in shape.edges))}
        assert got == touching
        assert all(u in cluster for u in shape.edges[0].tolist())

    def test_h_statistics_match_set_construction(self):
        g = clique_minus_cycle(19)
        shape = cluster_shape(g, range(19), Params().cluster_eps())
        cset = frozenset(range(19))
        ref = [(u, v) for u in range(19) for v in range(u + 1, 19) if v not in g.neighbors(u)]
        assert [tuple(p) for p in shape.h_pairs.tolist()] == ref
        assert shape.h_deg.dtype == np.int64
        assert shape.h_deg.tolist() == [len(cset - set(g.neighbors(v)) - {v}) for v in range(19)]
        assert shape.zeta == len(ref) / 16**2
        assert shape.out_pos.size == 0

    def test_a_violated_condition_is_raised_by_the_shape(self):
        g = disjoint_union(complete_graph(17), complete_graph(17))
        with pytest.raises(HypothesisViolated) as info:
            cluster_shape(g, range(34), Params().cluster_eps())
        assert str(info.value) == "|C \\ N_v| = 18 >= eps*D for v=0"

    def test_outside_check_comes_first(self):
        # vertex 0 of the first K17 sees 16 outside vertices: |N_v \ C| >= 0.4*16
        g = Graph.from_edges(
            34, [*complete_graph(17).edges(), *[(0, 17 + i) for i in range(16)]]
        )
        cluster_shape(g, range(1, 17), Params().cluster_eps())
        with pytest.raises(HypothesisViolated) as info:
            cluster_shape(g, range(17), Params().cluster_eps())
        assert str(info.value) == "|N_v \\ C| = 16 >= eps*D for v=0"

    @pytest.mark.parametrize("eps", [0.0, -0.4, 0.5001, 1.0, math.nan])
    def test_a_tolerance_outside_zero_to_one_half_rejected(self, eps):
        # _eta_rounds' margin needs eps <= 1/2: at eps = 1, D = 106 and
        # e(H) = 265, rounding puts zeta above eta*h_margin
        g = complete_graph(17)
        with pytest.raises(ValueError, match=r"cluster tolerance eps = .* is not in \(0, 1/2\]"):
            cluster_shape(g, range(17), eps)
        assert cluster_shape(g, range(17), 0.5).eps == 0.5

    @pytest.mark.parametrize("cluster, stray", [([-1, 0, 1], -1), ([0, 1, 5], 5)])
    def test_ids_outside_the_graph_rejected(self, cluster, stray):
        # rejected at the boundary, naming the stray id
        g = complete_graph(5)
        with pytest.raises(ValueError, match=f"vertex {stray} not in graph of order 5"):
            cluster_shape(g, cluster, Params().cluster_eps())

    def test_repeated_id_rejected(self):
        # a repeated id used to build an 18-row context with zeta = 1/256,
        # and color_cluster then raised NegativeR, which a Pipeline falls back on
        g = complete_graph(17)
        cluster = [0, *range(17)]
        with pytest.raises(ValueError, match="vertex 0 appears more than once"):
            cluster_shape(g, cluster, Params().cluster_eps())

    def test_one_shape_gathers_the_neighbors_once(self, monkeypatch):
        calls = []
        real = Graph.gather_neighbors
        monkeypatch.setattr(
            Graph, "gather_neighbors", lambda self, vs: calls.append(len(vs)) or real(self, vs)
        )
        shape = cluster_shape(clique_minus_cycle(19), range(19), Params().cluster_eps())
        assert calls == [19] and shape.h_deg.tolist() == [2] * 19

    def test_outside_colors_beyond_the_palette_rejected(self):
        g = swapped_double_clique(17)
        with pytest.raises(ValueError, match="0..D\\+1"):
            context(g, range(2, 17), {0: 18})

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

    @pytest.mark.parametrize("eps_in", [0.01, 0.03, 0.05])
    def test_zeta0_is_derived_from_eps_and_d(self, eps_in):
        # no Params field sets zeta0: it is sqrt of the cluster tolerance 8*eps over D
        # (K17, whose members miss only themselves, meets the conditions at each eps)
        g = complete_graph(17)
        shape = cluster_shape(g, range(17), Params(eps=eps_in).cluster_eps())
        assert shape.d == 16 and shape.zeta0 == math.sqrt(8.0 * eps_in) / 16

    @pytest.mark.parametrize(
        "g, branch",
        [(complete_graph(17), "small"), (clique_minus_cycle(19), "large")],
        ids=["K17", "clique_minus_cycle(19)"],
    )
    def test_the_branch_follows_the_shape(self, g, branch):
        # K17 has zeta = 0; K19 minus a cycle has zeta = 19/256 above sqrt(0.4)/16
        ctx = context(g, range(g.n))
        assert (ctx.shape.zeta < ctx.shape.zeta0) == (branch == "small")
        assert color_cluster(ctx, np.random.default_rng(0))[1] == branch


def force_large_branch(monkeypatch):
    """Give every cluster shape zeta0 = 0, so every cluster takes the
    large-zeta branch."""
    real = clusters.cluster_shape
    monkeypatch.setattr(clusters, "cluster_shape", lambda *a: replace(real(*a), zeta0=0.0))


def derived_pair_process(ctx, rng):
    """The pair process run with the eta and rounds color_cluster derives."""
    eta, rounds = clusters._eta_rounds(ctx.shape)
    return process_pair_coloring(ctx, rng, rounds, eta)


class TestProcess:
    def test_bookkeeping_and_pair_property(self):
        g = clique_minus_cycle(19)
        ctx = context(g, range(19))
        assert ctx.shape.zeta >= ctx.shape.zeta0
        rng = np.random.default_rng(0)
        pi = derived_pair_process(ctx, rng)
        rounds = len(set(pi.values()))
        assert len(pi) == 2 * rounds
        for c in set(pi.values()):
            pair = [v for v, cc in pi.items() if cc == c]
            assert len(pair) == 2
            assert pair[1] not in g.neighbors(pair[0])

    def test_small_zeta_rejected(self):
        g = complete_graph(17)
        ctx = context(g, range(17))
        with pytest.raises(HypothesisViolated):
            process_pair_coloring(ctx, np.random.default_rng(1), 1, 1.0)

    def test_a_pair_on_an_edge_is_caught(self):
        # a shape whose only H pair is an edge of g; eta = 1 lowers both floors
        # below zero, so the one round colors that edge
        g = clique_minus_cycle(19)
        ctx = context(g, range(19))
        ctx.shape = replace(ctx.shape, h_pairs=np.array([[0, g.neighbors(0)[0]]]))
        with pytest.raises(VerificationFailed, match="pair process coloring is not proper"):
            process_pair_coloring(ctx, np.random.default_rng(0), rounds=1, eta=1.0)

    def test_finite_d_floor_is_a_hypothesis_violation(self):
        # eta = 0 makes the edge floor zeta*D^2 = e(H) itself, which e(H_0) = e(H)
        # does not exceed
        g = clique_minus_cycle(19)
        ctx = context(g, range(19))
        with pytest.raises(FloorNotMet, match=r"e\(H_i\) = 19 !> .* = 19.00"):
            process_pair_coloring(ctx, np.random.default_rng(0), rounds=1, eta=0.0)
        assert issubclass(FloorNotMet, HypothesisViolated)
        assert not issubclass(FloorNotMet, VerificationFailed)

    def test_color_cluster_hands_the_pair_process_its_checked_eta(self, monkeypatch):
        # eta and rounds have one derivation, in color_cluster, which checks
        # the hierarchy before the pair process runs
        g = clique_minus_cycle(19)
        ctx = context(g, range(19))
        calls = []
        real = clusters.process_pair_coloring
        monkeypatch.setattr(
            clusters, "process_pair_coloring", lambda *a: calls.append(a[2:]) or real(*a)
        )
        clusters.color_cluster(ctx, np.random.default_rng(0))
        eta, rounds = clusters._eta_rounds(ctx.shape)
        assert calls == [(rounds, eta)]
        assert list(inspect.signature(real).parameters) == ["ctx", "rng", "rounds", "eta"]
        assert all(p.default is p.empty for p in inspect.signature(real).parameters.values())

    def test_rounds_reduce_counts(self):
        g = clique_minus_cycle(19)
        ctx = context(g, range(19))
        pi = derived_pair_process(ctx, np.random.default_rng(2))
        # |C'| = |C| - 2*rounds, |Gamma'| = D+1 - rounds
        rounds = len(set(pi.values()))
        assert len(ctx.shape.members) - len(pi) == 19 - 2 * rounds


class TestColorCluster:
    def test_isolated_clique_bijection(self):
        d = 16
        g = complete_graph(d + 1)
        ctx = context(g, range(d + 1))
        colors, branch = color_cluster(ctx, np.random.default_rng(3))
        assert branch == "small"
        assert colors.dtype == np.int64 and sorted(colors) == list(range(1, d + 2))

    def test_large_zeta_path(self):
        g = clique_minus_cycle(19)
        ctx = context(g, range(19))
        colors, branch = color_cluster(ctx, np.random.default_rng(4))
        assert branch == "large"
        coloring = dict(zip(ctx.shape.members.tolist(), colors.tolist()))
        assert set(coloring) == set(range(19)) and all(coloring.values())
        assert is_proper(g, coloring)
        # colors used twice are exactly the process pairs
        from collections import Counter

        counts = Counter(coloring.values())
        assert set(counts.values()) <= {1, 2}
        for c, cnt in counts.items():
            if cnt == 2:
                u, v = [w for w, cc in coloring.items() if cc == c]
                assert v not in g.neighbors(u)

    def test_large_zeta_with_outside_colors(self):
        g = disjoint_union(clique_minus_cycle(19), clique_minus_cycle(19))
        # swap one non-H edge across the copies to create outside neighbors
        edges = set(g.edges())
        a, b = 2, 5  # adjacent inside copy 1 (not cycle neighbors)
        assert b in g.neighbors(a)
        a2, b2 = 19 + 2, 19 + 5
        edges -= {(a, b), (a2, b2)}
        edges |= {(a, a2), (b, b2)}
        g2 = Graph.from_edges(38, edges)
        assert g2.is_regular(16)
        sigma_out = {v: (v % 17) + 1 for v in range(19, 38)}
        ctx = context(g2, range(19), sigma_out)
        assert ctx.shape.zeta == pytest.approx(20 / 256)
        colors, branch = color_cluster(ctx, np.random.default_rng(5))
        assert branch == "large"
        assert colors.all()
        for v, c in zip(ctx.shape.members.tolist(), colors.tolist()):
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
            shape = cluster_shape(g, range(10), Params().cluster_eps())
        else:
            # K33 minus the 6-regular circulant with offsets 1, 2, 3, and 14
            # pendant neighbors per member: D = 40, R = 8, e(H) = 99, so
            # sum r_x = 198 and zeta = 99/1600, forced onto the small branch
            h = {(u, (u + k) % 33) for u in range(33) for k in (1, 2, 3)}
            h |= {(v, u) for u, v in h}
            edges = [(u, v) for u in range(33) for v in range(u + 1, 33) if (u, v) not in h]
            edges += [(v, 33 + 14 * v + k) for v in range(33) for k in range(14)]
            g = Graph.from_edges(33 + 33 * 14, edges)
            shape = replace(cluster_shape(g, range(33), Params().cluster_eps()), zeta0=1.0)
        ctx = build_cluster_context(g, shape, outside_colors(g))
        d, j, r_x = ctx.shape.d, len(ctx.shape.members), ctx.shape.h_deg.tolist()
        values = {"R": d + 1 - j, "max r_x": max(r_x), "sum r_x": sum(r_x)}
        low, high = (c * (ctx.shape.eps + ctx.shape.zeta * d) * j for c in (2, 3))
        assert low < values.pop(case) <= high
        assert all(value <= low for value in values.values())
        colors, branch = color_cluster(ctx, np.random.default_rng(8))
        assert branch == "small"
        assert is_proper(g, dict(zip(ctx.shape.members.tolist(), colors.tolist())))

    def test_oversized_cluster_negative_r(self):
        # 20 vertices with D = 17 and zeta0 forced huge -> small path, R < 0
        g = clique_minus_cycle(20)  # 17-regular on 20 vertices
        d = g.max_degree
        assert d == 17
        shape = replace(cluster_shape(g, range(20), Params().cluster_eps()), zeta0=1.0)
        ctx = build_cluster_context(g, shape, outside_colors(g))
        with pytest.raises(NegativeR):
            color_cluster(ctx, np.random.default_rng(6))

    @pytest.mark.parametrize("n", [19, 23, 31])
    def test_derived_eta_sits_inside_the_hierarchy(self, n):
        # eta is read from the shape alone and rounds to a whole number of
        # pair rounds strictly between 1/D and min(zeta/eps, 1)/h_margin
        assert list(inspect.signature(clusters._eta_rounds).parameters) == ["shape"]
        shape = cluster_shape(clique_minus_cycle(n), range(n), Params().cluster_eps())
        eta, rounds = clusters._eta_rounds(shape)
        assert rounds >= 1 and eta == rounds / shape.d
        assert 1 / shape.d < eta <= min(shape.zeta / shape.eps, 1) / clusters.H_MARGIN
        assert shape.zeta <= eta * clusters.H_MARGIN

    @pytest.mark.parametrize(
        "eps, message",
        [
            # D = 16 and zeta = 19/256: eta rounds to 1/D, which is not above 1/D
            (0.8, r"1/D = 0.0625 !< eta = 0.0625"),
            # eta rounds up to 2/D, past min(zeta/eps, 1)/h_margin
            (0.5, r"eta = 0.1250 !<= min\(zeta/eps,1\)/h_margin = 0.1187"),
        ],
    )
    def test_hierarchy_violation_raises(self, eps, message):
        g = clique_minus_cycle(19)
        shape = replace(cluster_shape(g, range(19), Params().cluster_eps()), eps=eps)
        with pytest.raises(HypothesisViolated, match=message):
            clusters._eta_rounds(shape)

    def test_zeta_below_eta_times_the_margin_needs_no_check(self):
        # _eta_rounds does not check zeta <= eta*h_margin: the cluster
        # conditions give zeta < (1+eps)*eps/2, and on the large branch
        # (zeta >= zeta0) every eta that passes the two checks meets it with
        # the margin its docstring proves
        shape = cluster_shape(clique_minus_cycle(19), range(19), Params().cluster_eps())
        seen = {"returned": 0, "1/D": 0, "eta": 0}
        for d in range(4, 49):
            for eps in (0.5, 0.4, 0.32, 0.2, 0.08, 0.008):
                zeta0, top = math.sqrt(eps) / d, (1 + eps) * eps / 2
                for e in range(math.ceil(top * d * d) + 1):
                    zeta = e / (d * d)
                    if not zeta0 <= zeta < top:
                        continue
                    try:
                        eta, rounds = clusters._eta_rounds(replace(shape, d=d, eps=eps, zeta=zeta))
                    except HypothesisViolated as exc:
                        seen[str(exc).split()[1]] += 1
                        continue
                    assert zeta <= eta * clusters.H_MARGIN, (d, eps, e)
                    assert 5 * rounds * d >= 4 * e + 2 * d  # 1.25*rounds >= zeta*D + 1/2
                    seen["returned"] += 1
        assert all(seen.values()), seen  # not vacuous: both checks fire, and shapes pass


class TestClusterCheck:
    def _ctx(self):
        # K15 whose every vertex also sees outside vertices 0 (color 3) and 1 (color 5)
        g = swapped_double_clique(17)
        return context(g, range(2, 17), {0: 3, 1: 5})

    def test_conflict_with_outside_color_caught(self, monkeypatch):
        # x -> y = x + 2 gives vertex 2 color 3, the color of its neighbor 0
        monkeypatch.setattr(
            clusters, "spread_X_perfect_matching",
            lambda b, *a, **k: Matching(np.arange(len(b)) + 2),
        )
        with pytest.raises(VerificationFailed, match=r"cluster coloring is not proper: edge \(0,2\)"):
            color_cluster(self._ctx(), np.random.default_rng(0))

    def test_uncovered_vertex_caught(self, monkeypatch):
        # the last x is unmatched: its -1 must not color it with rest_y[-1]
        monkeypatch.setattr(
            clusters, "spread_X_perfect_matching",
            lambda b, *a, **k: Matching(np.r_[np.arange(len(b) - 1) + 1, -1]),
        )
        with pytest.raises(VerificationFailed, match="does not cover the cluster"):
            color_cluster(self._ctx(), np.random.default_rng(0))

    def test_outside_colors_are_one_array_over_the_graph(self):
        g = swapped_double_clique(17)
        arr = outside_colors(g, {0: 3, 1: 5})
        shape = cluster_shape(g, range(2, 17), Params().cluster_eps())
        ctx = build_cluster_context(g, shape, arr)
        arr[0] = 7  # the context keeps its own copy
        assert ctx.sigma_out[0] == 3 and np.array_equal(ctx.b, self._ctx().b)
        with pytest.raises(ValueError, match="read-only"):
            ctx.b[0, 0] = False
        with pytest.raises(ValueError, match=r"shape \(34,\)"):
            build_cluster_context(g, shape, arr[:-1])
        with pytest.raises(TypeError):
            build_cluster_context(g, shape, {0: 3, 1: 5})


class TestPipelineCheck:
    def test_improper_final_coloring_caught(self, monkeypatch):
        monkeypatch.setattr(
            clusters, "color_cluster",
            lambda ctx, rng, max_tries: (np.ones(len(ctx.shape.members), dtype=np.int64), "small"),
        )
        with pytest.raises(VerificationFailed, match=r"pipeline coloring is not proper: edge \(0,1\)"):
            Pipeline(complete_graph(17)).sample(0)

    def test_broken_matcher_raises_instead_of_falling_back(self, monkeypatch):
        # a matcher result that leaves a vertex out is a bug, not a flagged run
        monkeypatch.setattr(
            clusters, "spread_X_perfect_matching",
            lambda b, *a, **k: Matching(np.r_[np.arange(len(b) - 1), -1]),
        )
        with pytest.raises(VerificationFailed, match="does not cover the cluster"):
            Pipeline(complete_graph(17)).sample(0)

    def test_a_shape_that_raises_is_a_bug_not_a_fallback(self, monkeypatch):
        # a Pipeline's clusters come from its verified decomposition, which
        # checks the cluster conditions at the shape's eps
        def planted(*a):
            raise HypothesisViolated("planted")

        monkeypatch.setattr(clusters, "cluster_shape", planted)
        with pytest.raises(HypothesisViolated, match="planted"):
            Pipeline(complete_graph(17)).sample(0)

    def test_uncolored_vertex_caught(self, monkeypatch):
        monkeypatch.setattr(
            clusters, "color_cluster",
            lambda ctx, rng, max_tries: (np.zeros(len(ctx.shape.members), dtype=np.int64), "small"),
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

    def test_color_cluster_gets_the_pipelines_matching_budget(self, monkeypatch):
        budgets = []
        real = clusters.color_cluster
        monkeypatch.setattr(
            clusters, "color_cluster", lambda *a: budgets.append(a[2:]) or real(*a)
        )
        assert not Pipeline(complete_graph(17), Params(match_max_tries=7)).sample(0).flagged
        assert budgets == [(7,)]

    def test_sample_array_is_the_sample_without_its_paths(self):
        pipe = Pipeline(disjoint_union(clique_minus_cycle(19), complete_graph(17)))
        for seed in range(3):
            res = pipe.sample(seed)
            arr, flagged = pipe.sample_array(seed)
            assert np.array_equal(arr, res.coloring) and flagged == res.flagged
            assert res.cluster_paths and not res.flagged

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

    def test_fallback_flags_but_stays_proper(self, monkeypatch):
        # zeta0 = 0 forces the large path on a zeta = 0 clique; the hierarchy
        # check fails and the deterministic fallback finishes the cluster
        force_large_branch(monkeypatch)
        g = disjoint_union(complete_graph(17), complete_graph(17))
        pipe = Pipeline(g)
        res = pipe.sample(0)
        assert res.flagged
        assert all(p.startswith("fallback") for p in res.cluster_paths)
        assert is_proper(g, res.coloring)

    @pytest.mark.parametrize(
        "g, params",
        [
            (disjoint_union(complete_graph(17), complete_graph(17)), Params()),
            (disjoint_union(clique_minus_cycle(19), complete_graph(17)), Params()),
            (swapped_double_clique(17), Params(theta=0.05)),
            (disjoint_union(complete_graph(17), gen_random_regular(60, 16, seed=18)), Params()),
            (matched_cliques(34), Params(theta=0.05)),
        ],
    )
    def test_fallback_is_the_first_legal_color_loop(self, g, params):
        pipe = Pipeline(g, params)
        assert pipe.dec.clusters
        reg, rng = pipe.reg, np.random.default_rng(26)
        for seed in range(3):
            # as the pipeline calls it: the sparse phase's colors and the
            # clusters before this one colored, the later ones still 0 (the
            # first of matched_cliques' two sees its 34 outside neighbors so)
            colors = clusters.sparse_phase_color(reg, pipe.dec, seed, params).colors
            for i in range(len(pipe.dec.clusters)):
                members = pipe._shape(i).members
                got = clusters._greedy_cluster_fallback(reg, members, colors)
                assert np.array_equal(got, cluster_fallback_reference(reg, members, colors))
                colors[members] = got
            assert is_proper(reg, colors)
            # random partial colorings, proper or not, with the members uncolored
            for members in map(np.asarray, pipe.dec.clusters):
                colors = rng.integers(1, reg.max_degree + 2, size=reg.n)
                colors[rng.random(reg.n) < 0.5] = 0
                colors[members] = 0
                got = clusters._greedy_cluster_fallback(reg, np.sort(members), colors)
                want = cluster_fallback_reference(reg, np.sort(members), colors)
                assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_fallback_on_a_large_cluster(self):
        # 540 members of K_600: every member is an earlier neighbor of every
        # later one, and each takes the first color its list has left
        g = complete_graph(600)
        rng = np.random.default_rng(27)
        members = np.arange(540)
        for _ in range(3):
            colors = np.zeros(g.n, dtype=np.int64)
            colors[540:] = rng.permutation(np.arange(1, 601))[:60]
            want = cluster_fallback_reference(g, members, colors)
            assert np.array_equal(clusters._greedy_cluster_fallback(g, members, colors), want)

    def test_d_min_enforced(self):
        with pytest.raises(ValueError, match="^max degree 2 below d_min = 4$"):
            Pipeline(complete_graph(3))
        Pipeline(gen_random_regular(20, 4, seed=1))  # max degree 4 = D_MIN

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
