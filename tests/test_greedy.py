from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from spreadcolor.errors import CapExceeded, StuckVertex
from spreadcolor.graphs import Graph, complete_bipartite, complete_graph
from spreadcolor.greedy import (
    build_counterexample,
    enumerate_colorings,
    exact_containment_uniform,
    random_greedy_exact_probability,
    random_greedy_sample,
    slack_greedy_exact_distribution,
    slack_greedy_sample,
    uniform_lists,
)
from oracles import is_proper


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestSlackGreedy:
    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        sigma = slack_greedy_sample(g, [[1]], rng=np.random.default_rng(0))
        assert sigma == {0: 1}

    def test_k2_both_colorings_half(self):
        g = complete_graph(2)
        dist = slack_greedy_exact_distribution(g, [[1, 2], [1, 2]])
        assert dist == {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
        dist_rev = slack_greedy_exact_distribution(g, [[1, 2], [1, 2]], order=[1, 0])
        assert dist_rev == dist

    def test_k3_first_vertex_marginal(self):
        g = complete_graph(3)
        dist = slack_greedy_exact_distribution(g, uniform_lists(g, 3))
        for c in (1, 2, 3):
            marg = sum(p for key, p in dist.items() if key[0] == c)
            assert marg == Fraction(1, 3)
        assert all(p <= Fraction(1, 2) for p in dist.values())

    def test_samples_always_proper(self):
        rng = np.random.default_rng(7)
        g = complete_bipartite(3, 3)
        lists = uniform_lists(g, g.max_degree + 1)
        for _ in range(50):
            sigma = slack_greedy_sample(g, lists, rng=rng)
            assert len(sigma) == g.n
            assert is_proper(g, sigma, lists)

    def test_stuck_vertex(self):
        g = complete_graph(3)
        with pytest.raises(StuckVertex):
            slack_greedy_exact_distribution(g, [[1], [1, 2], [1, 2]], order=[1, 2, 0])

    def test_spread_bound_small_instances(self):
        # |S_v| >= (1+lambda)*Delta forces P(sigma ⊇ tau) <= (1/(lambda*Delta))^|tau|
        cases = [
            (path_graph(3), 4),       # Delta=2, lambda=1
            (complete_graph(4), 6),   # Delta=3, lambda=1
            (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 4),
        ]
        for g, size in cases:
            delta = g.max_degree
            lam = size / delta - 1
            lists = uniform_lists(g, size)
            dist = slack_greedy_exact_distribution(g, lists)
            bound = Fraction(1, 1) / Fraction(lam * delta)
            # every partial assignment tau from the list pairs
            options = [[None] + list(lists[v]) for v in range(g.n)]
            for choice in itertools.product(*options):
                tau = {v: c for v, c in enumerate(choice) if c is not None}
                if not tau:
                    continue
                p = sum(
                    pr
                    for key, pr in dist.items()
                    if all(key[v] == c for v, c in tau.items())
                )
                assert p <= bound ** len(tau)


class TestEnumeration:
    def test_k4_full_palette(self):
        g = complete_graph(4)
        assert enumerate_colorings(g, uniform_lists(g, 4)).count == 24

    def test_empty_graph_single_lists(self):
        g = Graph.from_edges(2, [])
        assert enumerate_colorings(g, [[1], [1]]).count == 1

    def test_iterator_matches_count_and_is_proper(self):
        g = complete_graph(3)
        lists = uniform_lists(g, 3)
        enum = enumerate_colorings(g, lists)
        seen = list(enum)
        assert len(seen) == enum.count == 6
        assert all(is_proper(g, s, lists) for s in seen)
        assert len({tuple(sorted(s.items())) for s in seen}) == len(seen)

    def test_cap_exceeded(self):
        g = complete_graph(6)
        with pytest.raises(CapExceeded):
            enumerate_colorings(g, uniform_lists(g, 6), cap=10)

    def test_clique_minus_clique_total(self):
        ce = build_counterexample("clique_minus_clique", 3)
        assert enumerate_colorings(ce.graph, ce.lists).count == 48


class TestExactContainment:
    def test_red_thumb_half(self):
        ce = build_counterexample("red_thumb", 3)
        assert exact_containment_uniform(ce.graph, ce.lists, ce.target) == Fraction(1, 2)

    def test_clique_minus_clique_eighth(self):
        ce = build_counterexample("clique_minus_clique", 3)
        p = exact_containment_uniform(ce.graph, ce.lists, ce.target)
        assert p == Fraction(1, 8) == ce.expected

    def test_empty_tau_is_one(self):
        g = complete_graph(3)
        assert exact_containment_uniform(g, uniform_lists(g, 3), {}) == 1

    def test_zero_colorings_raises(self):
        g = complete_graph(2)
        with pytest.raises(ValueError):
            exact_containment_uniform(g, [[1], [1]], {0: 1})

    def test_target_outside_list_is_zero(self):
        g = complete_graph(2)
        assert exact_containment_uniform(g, [[1, 2], [1, 2]], {0: 7}) == 0

    def test_sums_to_one_over_domain_extensions(self):
        g = complete_graph(3)
        lists = uniform_lists(g, 3)
        total = sum(
            exact_containment_uniform(g, lists, {0: a, 1: b})
            for a in lists[0]
            for b in lists[1]
        )
        assert total == 1


class TestRandomGreedy:
    def test_single_vertex_uniform(self):
        g = Graph.from_edges(1, [])
        rng = np.random.default_rng(3)
        seen = {random_greedy_sample(g, rng)[0] for _ in range(60)}
        assert seen == {1}  # palette is [max_degree+1] = [1]

    def test_k2_always_proper(self):
        g = complete_graph(2)
        rng = np.random.default_rng(5)
        for _ in range(40):
            sigma = random_greedy_sample(g, rng)
            assert sigma[0] != sigma[1]

    def test_greedy_boys_bound(self):
        ce = build_counterexample("greedy_boys", 2)
        p = random_greedy_exact_probability(ce.graph, ce.target)
        assert p == Fraction(7, 108)
        assert p >= Fraction(1, 16)

    def test_greedy_boys_exact_value_d3(self):
        # frozen from an independent brute force over all 720 vertex orders;
        # note the (2D)^-D reference value fails here (1/216 > this)
        ce = build_counterexample("greedy_boys", 3)
        p = random_greedy_exact_probability(ce.graph, ce.target)
        assert p == Fraction(2563, 622080)

    def test_exact_probability_sums_to_one(self):
        g = complete_graph(2)
        total = sum(
            random_greedy_exact_probability(g, {0: a, 1: b})
            for a in (1, 2)
            for b in (1, 2)
            if a != b
        )
        assert total == 1

    def test_exact_matches_sampler_frequency(self):
        ce = build_counterexample("greedy_boys", 2)
        rng = np.random.default_rng(11)
        trials = 4000
        hits = sum(
            1 for _ in range(trials) if random_greedy_sample(ce.graph, rng) == ce.target
        )
        p = float(random_greedy_exact_probability(ce.graph, ce.target))
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) < 5 * se


class TestCounterexamples:
    def test_red_thumb_shapes(self):
        ce = build_counterexample("red_thumb", 3)
        assert ce.graph == complete_graph(4)
        assert ce.lists[0] == (0, 1, 2, 3, 4)
        assert ce.lists[1] == (1, 2, 3, 4)
        assert ce.target == {0: 0}

    def test_clique_minus_clique_shape(self):
        ce = build_counterexample("clique_minus_clique", 3)
        # U = {0,1} is the only non-adjacent pair
        assert 1 not in ce.graph.adj[0]
        assert ce.graph.edge_count() == 5
        assert ce.target == {0: 4, 1: 4}

    def test_clique_minus_clique_requires_square(self):
        with pytest.raises(ValueError):
            build_counterexample("clique_minus_clique", 4)

    def test_greedy_boys_shape(self):
        ce = build_counterexample("greedy_boys", 2)
        assert ce.graph == complete_bipartite(2, 2)
        assert ce.target == {0: 1, 1: 2, 2: 3, 3: 3}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_counterexample("nope", 3)
