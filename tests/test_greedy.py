from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

from spreadcolor.errors import CapExceeded, StuckVertex
from spreadcolor.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    gen_random_regular,
    keyed_rng,
)
from spreadcolor.greedy import (
    ban_matrix,
    build_counterexample,
    enumerate_colorings,
    exact_containment_uniform,
    ordered_greedy_sample,
    random_greedy_exact_probability,
    random_greedy_sample,
    slack_greedy_exact_distribution,
    slack_greedy_sample,
    uniform_lists,
)
from oracles import is_proper, search_reference


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestSlackGreedy:
    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        sigma = slack_greedy_sample(g, [[1]], rng=np.random.default_rng(0))
        assert sigma.dtype == np.int64 and sigma.tolist() == [1]

    def test_color_zero_is_a_color(self):
        # red_thumb's vertex 0 may take color 0, so 0 cannot mark "uncolored"
        ce = build_counterexample("red_thumb", 3)
        rng = np.random.default_rng(1)
        firsts = {int(slack_greedy_sample(ce.graph, ce.lists, rng)[0]) for _ in range(50)}
        assert firsts == {0, 1, 2, 3, 4}

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

    @pytest.mark.parametrize(
        "lists, message",
        [
            ([[1, 2], [1, 2]], "^2 lists for a graph on 3 vertices$"),
            ([[1, 2], [2, 3, 2], [3]], "^vertex 1 lists a color twice$"),
        ],
    )
    def test_bad_lists_are_a_value_error(self, lists, message):
        # a repeated color used to be drawn with double weight; the exact law
        # used to end in IndexError or count the repeated color twice
        with pytest.raises(ValueError, match=message):
            slack_greedy_sample(complete_graph(3), lists, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            slack_greedy_exact_distribution(complete_graph(3), lists)

    @pytest.mark.parametrize("order", [[0, 0], [0, 5], [1]])
    def test_an_order_that_is_not_a_permutation_is_a_value_error(self, order):
        # [0, 0] used to end in KeyError and [0, 5] in IndexError
        with pytest.raises(ValueError) as exc:
            slack_greedy_exact_distribution(complete_graph(2), [[1, 2], [1, 2]], order)
        assert str(exc.value) == f"order {order} is not a permutation of 0..1"

    @pytest.mark.parametrize("order", [[1, 0], (1, 0), np.array([1, 0])], ids=["list", "tuple", "array"])
    def test_a_permutation_order_is_followed(self, order):
        # vertex 1 draws first from {1, 2, 3}, then vertex 0 from what is left of {1, 2}
        law = slack_greedy_exact_distribution(complete_graph(2), [[1, 2], [1, 2, 3]], order)
        third, sixth = Fraction(1, 3), Fraction(1, 6)
        assert law == {(2, 1): third, (1, 2): third, (1, 3): sixth, (2, 3): sixth}

    @pytest.mark.parametrize("n, d", [(30, 6), (100, 16), (2000, 4)])
    def test_the_full_palette_is_the_ordered_greedy_in_vertex_order(self, n, d):
        # the audit's slack-greedy sampler colors without building the lists
        g = gen_random_regular(n, d, seed=n)
        lists = uniform_lists(g, d + 1)
        for t in range(10):
            want = slack_greedy_sample(g, lists, keyed_rng(3, t))
            assert np.array_equal(ordered_greedy_sample(g, np.arange(n), keyed_rng(3, t)), want)

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1, 3], [1, 0], [0, 1, 2, 0]])
    def test_ordered_greedy_rejects_an_order_that_is_not_a_permutation(self, order):
        # ban_matrix needs distinct vertices; a repeat would build a wrong
        # matrix without an error
        with pytest.raises(ValueError) as exc:
            ordered_greedy_sample(complete_graph(3), np.array(order), keyed_rng(0))
        assert str(exc.value) == f"order {order} is not a permutation of 0..2"

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


def _edge_scan_ban_matrix(g: Graph, vertices: np.ndarray, colors: np.ndarray):
    """ban_matrix as it was before it read only the vertices' own rows: one
    pass over every edge of g, kept here as the reference."""
    k = len(vertices)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[vertices] = np.arange(k)
    eu, ev = g.edge_arrays()
    pu, pv = pos[eu], pos[ev]
    allowed = np.ones((k, g.max_degree + 2), dtype=bool)
    allowed[:, 0] = False
    n_colored = np.zeros(k, dtype=np.int64)
    colored = colors > 0
    for p, b in ((pu, ev), (pv, eu)):
        hit = (p >= 0) & colored[b]
        rows = p[hit]
        allowed[rows, colors[b[hit]]] = False
        n_colored += np.bincount(rows, minlength=k)
    both = (pu >= 0) & (pv >= 0)
    pu, pv = pu[both], pv[both]
    return allowed, np.minimum(pu, pv), np.maximum(pu, pv), n_colored


def _irregular_graph() -> Graph:
    edges = list(gen_random_regular(60, 12, seed=21).edges())
    return Graph.from_edges(60, edges[::2] + edges[1::4])


class TestBanMatrix:
    @pytest.mark.parametrize(
        "make",
        [lambda: gen_random_regular(80, 10, seed=4), _irregular_graph, lambda: path_graph(9)],
        ids=["regular", "irregular", "path"],
    )
    @pytest.mark.parametrize("coloring", ["zero", "partial"])
    @pytest.mark.parametrize("order", ["sorted", "permuted", "empty", "all"])
    def test_equals_the_edge_scan(self, make, coloring, order):
        g = make()
        d = g.max_degree
        rng = np.random.default_rng(5)
        colors = np.zeros(g.n, dtype=np.int64)
        if coloring == "partial":
            colored = rng.random(g.n) < 0.4
            colors[colored] = rng.integers(1, d + 2, size=int(colored.sum()))
        uncolored = np.flatnonzero(colors == 0)
        vertices = {
            "sorted": np.sort(rng.choice(uncolored, size=len(uncolored) // 2, replace=False)),
            "permuted": rng.permutation(uncolored)[: len(uncolored) * 2 // 3],
            "empty": np.zeros(0, dtype=np.int64),
            "all": rng.permutation(uncolored),
        }[order]
        allowed, earlier, later, n_colored = ban_matrix(g, vertices, colors)
        want_allowed, want_earlier, want_later, want_colored = _edge_scan_ban_matrix(
            g, vertices, colors
        )
        assert np.array_equal(allowed, want_allowed)
        assert np.array_equal(n_colored, want_colored)
        assert n_colored.dtype == np.int64
        got = sorted(zip(earlier.tolist(), later.tolist()))
        assert got == sorted(zip(want_earlier.tolist(), want_later.tolist()))
        assert all(e < l for e, l in got)
        # slack_greedy reads the pairs grouped by their later end
        assert np.array_equal(later, np.sort(later))


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
        assert all(s.dtype == np.int64 and s.shape == (g.n,) for s in seen)
        assert len({tuple(s.tolist()) for s in seen}) == len(seen)

    def test_cap_exceeded(self):
        g = complete_graph(6)
        with pytest.raises(CapExceeded):
            enumerate_colorings(g, uniform_lists(g, 6), cap=10)

    def test_clique_minus_clique_total(self):
        ce = build_counterexample("clique_minus_clique", 3)
        assert enumerate_colorings(ce.graph, ce.lists).count == 48

    def test_same_colorings_as_the_recursive_search(self):
        # n from 0 to 8, lists drawn with replacement from 0..4: empty
        # lists, duplicate entries and color 0 all occur
        rng = random.Random(18)
        sizes = (0,) + (1, 2, 3, 3, 4) * 5  # an empty list 1 time in 26
        counts = []
        for _ in range(500):
            n = rng.randint(0, 8)
            p = rng.random() * 0.6
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            lists = [rng.choices(range(5), k=rng.choice(sizes)) for _ in range(n)]
            enum = enumerate_colorings(g, lists)
            got = [tuple(s.tolist()) for s in enum]
            want = {tuple(s[v] for v in range(n)) for s in search_reference(g, lists)}
            assert enum.count == len(got) == len(set(got)) == len(want)
            assert set(got) == want
            counts.append(enum.count)
        assert counts.count(0) >= 50 and sum(c > 1 for c in counts) >= 250

    def test_cap_counts_the_search_nodes(self):
        # the root, one node per color of vertex 0, and one per coloring:
        # branching on vertex 1 propagates vertex 2's last color
        g = complete_graph(3)
        assert enumerate_colorings(g, uniform_lists(g, 3), cap=10).count == 6
        with pytest.raises(CapExceeded):
            enumerate_colorings(g, uniform_lists(g, 3), cap=9)

    def test_a_path_deeper_than_the_recursion_limit(self):
        # the recursive search raised RecursionError here
        g = path_graph(3000)
        lists = [[1 + v % 2] for v in range(g.n)]
        enum = enumerate_colorings(g, lists)
        assert enum.count == 1
        (sigma,) = enum
        assert sigma.tolist() == [1 + v % 2 for v in range(g.n)]

    @pytest.mark.parametrize(
        "lists, message",
        [
            ([[1, 2], [1, 2]], "2 lists for a graph on 3 vertices"),
            ([[1, 2]] * 4, "4 lists for a graph on 3 vertices"),
            ([[1, 2], [3, -2], [1]], "vertex 1 has the negative color -2"),
            ([[1], [2], np.array([0, -1])], "vertex 2 has the negative color -1"),
        ],
    )
    def test_bad_lists_are_a_value_error(self, lists, message):
        # a short list raised IndexError, extra lists were ignored, and a
        # negative color was enumerated
        with pytest.raises(ValueError, match=message):
            enumerate_colorings(complete_graph(3), lists)


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

    @pytest.mark.parametrize("tau", [{-1: 1}, {5: 1}, {0: 1, 2: 2}])
    def test_target_vertex_out_of_range(self, tau):
        # {-1: 1} returned 1 and {5: 1} raised IndexError
        g = complete_graph(2)
        with pytest.raises(ValueError, match="has a vertex outside 0..1"):
            exact_containment_uniform(g, [[1, 2], [1, 2]], tau)

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

    @pytest.mark.parametrize(
        "target, p",
        [({0: 1, 1: 2}, Fraction(1, 2)),
         ({0: 1, 1: 99}, Fraction(0)),  # 99 is off the palette {1, 2}
         ({0: 0, 1: 1}, Fraction(0)),   # so is 0
         ({0: 1, 1: 1}, Fraction(0))],  # the edge's ends share a color
    )
    def test_a_target_greedy_never_outputs_has_probability_0(self, target, p):
        # off-palette targets used to get 3/8 on one edge (D = 1)
        assert random_greedy_exact_probability(complete_graph(2), target) == p

    def test_the_subset_dp_is_capped_at_20_vertices(self):
        g = complete_bipartite(10, 11)
        target = {v: 1 if v < 10 else 2 for v in range(21)}
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match="^random-greedy subset DP over 21 vertices exceeds 20$"):
            random_greedy_exact_probability(g, target)
        assert time.perf_counter() - t0 < 1.0

    def test_exact_matches_sampler_frequency(self):
        ce = build_counterexample("greedy_boys", 2)
        rng = np.random.default_rng(11)
        trials = 4000
        target = [ce.target[v] for v in range(ce.graph.n)]
        hits = sum(
            1 for _ in range(trials) if random_greedy_sample(ce.graph, rng).tolist() == target
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
        assert 1 not in ce.graph.neighbors(0)
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


# ---------------------------------------------------------------------------
# The samplers' laws against the exact oracles
# ---------------------------------------------------------------------------

# Pearson's chi-square over every coloring in the exact law's support, from
# LAW_TRIALS samples; a case fails past the LAW_LEVEL quantile of chi-square
# with (support - 1) degrees of freedom, or on any sample outside the
# support.  Seeds 0-59 were swept while writing these tests: no unbiased
# case failed, and both planted biases failed at every seed.  LAW_SEED was
# fixed before that sweep and is not among them.
LAW_TRIALS = 20_000
LAW_LEVEL = 1e-3
LAW_SEED = 5171


def _chi2_quantile(df: int, level: float) -> float:
    """The upper `level` quantile of chi-square(df), Wilson-Hilferty."""
    z = NormalDist().inv_cdf(1.0 - level)
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def _law_statistic(sample, law: dict[tuple[int, ...], Fraction]) -> tuple[float, float]:
    """(Pearson statistic, LAW_LEVEL critical value) of LAW_TRIALS calls of
    sample() against the exact law, keyed by color tuple."""
    counts = dict.fromkeys(law, 0)
    for _ in range(LAW_TRIALS):
        key = tuple(sample().tolist())
        assert key in counts, f"{key} is outside the exact law's support"
        counts[key] += 1
    stat = sum(
        (counts[key] - LAW_TRIALS * float(p)) ** 2 / (LAW_TRIALS * float(p))
        for key, p in law.items()
    )
    return stat, _chi2_quantile(len(law) - 1, LAW_LEVEL)


def _random_greedy_law(g: Graph) -> dict[tuple[int, ...], Fraction]:
    """random_greedy_exact_probability of every proper (D+1)-coloring."""
    law = {
        tuple(s.tolist()): random_greedy_exact_probability(g, dict(enumerate(s.tolist())))
        for s in enumerate_colorings(g, uniform_lists(g, g.max_degree + 1))
    }
    assert sum(law.values()) == 1
    return law


class _Delegating:
    """A generator that passes permutation() and random() to a real one."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def permutation(self, n: int) -> np.ndarray:
        return self.rng.permutation(n)

    def random(self, size: int) -> np.ndarray:
        return self.rng.random(size)


class _NeverVertex0First(_Delegating):
    """Permutations never put vertex 0 first: a draw that does swaps it with
    a uniform other position, which is uniform over the orders that do not
    start with 0."""

    def permutation(self, n: int) -> np.ndarray:
        order = self.rng.permutation(n)
        if order[0] == 0:
            j = 1 + int(self.rng.integers(n - 1))
            order[[0, j]] = order[[j, 0]]
        return order


class _Avail0Tenth(_Delegating):
    """Uniforms are 0 one time in ten, so slack greedy takes its first
    available color with probability about 0.1 extra."""

    def random(self, size: int) -> np.ndarray:
        u = self.rng.random(size)
        u[self.rng.random(size) < 0.1] = 0.0
        return u


class TestSamplerLaws:
    """Each sampler's output frequencies against its exact law."""

    @pytest.mark.parametrize(
        "g, lists",
        [
            (cycle_graph(4), uniform_lists(cycle_graph(4), 3)),
            # color 0 is a color, and vertex 0's list is the longer one
            (build_counterexample("red_thumb", 2).graph, build_counterexample("red_thumb", 2).lists),
        ],
        ids=["C4-palette-3", "red_thumb-D2"],
    )
    def test_slack_greedy_sample(self, g, lists):
        law = slack_greedy_exact_distribution(g, lists)
        rng = np.random.default_rng(LAW_SEED)
        stat, crit = _law_statistic(lambda: slack_greedy_sample(g, lists, rng), law)
        assert stat < crit

    @pytest.mark.parametrize("g", [cycle_graph(4), path_graph(4)], ids=["C4", "P4"])
    def test_random_greedy_sample(self, g):
        law = _random_greedy_law(g)
        rng = np.random.default_rng(LAW_SEED)
        stat, crit = _law_statistic(lambda: random_greedy_sample(g, rng), law)
        assert stat < crit

    def test_a_first_color_bias_fails(self):
        g = cycle_graph(4)
        lists = uniform_lists(g, 3)
        law = slack_greedy_exact_distribution(g, lists)
        rng = _Avail0Tenth(np.random.default_rng(LAW_SEED))
        stat, crit = _law_statistic(lambda: slack_greedy_sample(g, lists, rng), law)
        assert stat > crit

    def test_an_order_that_never_starts_at_vertex_0_fails(self):
        g = cycle_graph(4)
        rng = _NeverVertex0First(np.random.default_rng(LAW_SEED))
        stat, crit = _law_statistic(lambda: random_greedy_sample(g, rng), _random_greedy_law(g))
        assert stat > crit
