from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from spreadcolor.audit import (
    ExplicitDistribution,
    SpreadValue,
    check_composition,
    estimate_containment,
    exact_spread,
    spread_report,
    spread_report_from_samples,
    audit_set_family,
    wilson_interval,
)
from spreadcolor.errors import CapExceeded, NoKeptSamples
from spreadcolor.graphs import complete_graph
from spreadcolor.greedy import build_counterexample, enumerate_colorings


class TestWilson:
    def test_bounds_and_ordering(self):
        lo, hi = wilson_interval(5, 10)
        assert 0.0 <= lo <= 0.5 <= hi <= 1.0

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert lo > 0.9 and hi == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(3, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_coverage_calibration(self):
        # ~95% of intervals should cover the true p
        rng = np.random.default_rng(0)
        p = 0.3
        cover = 0
        for _ in range(400):
            h = rng.binomial(200, p)
            lo, hi = wilson_interval(int(h), 200)
            cover += lo <= p <= hi
        assert cover / 400 > 0.90


def _uniform_coloring_sampler(g, lists):
    colorings = [
        np.array([s[v] for v in range(g.n)]) for s in enumerate_colorings(g, lists)
    ]

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return colorings[int(rng.integers(len(colorings)))]

    return sampler


class TestEstimateContainment:
    def test_empty_set_probability_one(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        est = estimate_containment(sampler, [], trials=200, seed=1)
        assert est.p_hat == 1.0

    def test_half_on_k2(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        est = estimate_containment(sampler, [(0, 1)], trials=4000, seed=2)
        assert est.ci_low <= 0.5 <= est.ci_high
        assert abs(est.p_hat - 0.5) < 0.05

    def test_contradictory_pairs_zero(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        est = estimate_containment(sampler, [(0, 1), (0, 2)], trials=300, seed=3)
        assert est.hits == 0

    def test_deterministic_in_seed(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        a = estimate_containment(sampler, [(0, 1)], trials=500, seed=7)
        b = estimate_containment(sampler, [(0, 1)], trials=500, seed=7)
        assert a.hits == b.hits

    def test_minimum_trials(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        with pytest.raises(ValueError):
            estimate_containment(sampler, [(0, 1)], trials=50, seed=0)


class TestSpreadReport:
    def test_bijective_clique_c_hat_near_one(self):
        d = 5
        g = complete_graph(d + 1)
        lists = [list(range(1, d + 2)) for _ in range(d + 1)]
        sampler = _uniform_coloring_sampler(g, lists)
        rep = spread_report(
            sampler, g.n, d + 1, trials=3000, seed=4, family="singletons"
        )
        for row in rep.rows:
            assert abs(row.p_hat - 1 / (d + 1)) < 0.05
        assert rep.c_hat < 1.6

    def test_red_thumb_c_hat_near_two(self):
        ce = build_counterexample("red_thumb", 3)
        sampler = _uniform_coloring_sampler(ce.graph, ce.lists)
        rep = spread_report(
            sampler,
            ce.graph.n,
            palette_size=4,
            trials=3000,
            seed=5,
            family="custom",
            custom_sets=[[(0, 0)]],
        )
        row = rep.rows[0]
        assert abs(row.p_hat - 0.5) < 0.05
        assert 1.8 < rep.c_hat < 2.4

    def test_family_sizes(self):
        sets = audit_set_family(10, 4, seed=0)
        singles = [s for s in sets if len(s) == 1]
        pairs = [s for s in sets if len(s) == 2]
        assert len(singles) == 40
        assert len(pairs) == 100
        assert all(s[0] != s[1] for s in pairs)

    def test_csv_shape(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        rep = spread_report(sampler, 2, 2, trials=200, seed=6, family="singletons")
        lines = rep.to_csv().strip().splitlines()
        assert lines[0].startswith("pairs,trials,hits")
        assert len(lines) == 1 + 4

    def test_no_kept_samples_is_an_error(self):
        # an all-flagged run must not report a C_hat over zero trials
        with pytest.raises(NoKeptSamples, match="7 flagged"):
            spread_report_from_samples([], 2, 2, [((0, 1),)], flagged_trials=7)

    def test_c_hat_shrinks_with_trials(self):
        # CI uppers tighten with more trials, so C_hat must come down
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        small = spread_report(sampler, 2, 2, trials=200, seed=6, family="singletons")
        big = spread_report(sampler, 2, 2, trials=20000, seed=6, family="singletons")
        assert big.c_hat < small.c_hat

    def test_c_hat_recomputable_from_rows(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        rep = spread_report(sampler, 2, 2, trials=300, seed=8, family="singletons")
        manual = max(r.ci_high ** (1 / len(r.pairs)) for r in rep.rows) * 2
        assert rep.c_hat == pytest.approx(manual)


class TestSpreadValue:
    def test_exact_comparisons(self):
        a = SpreadValue(Fraction(1, 4), 2)   # = 1/2
        b = SpreadValue(Fraction(1, 2), 1)   # = 1/2
        assert a <= b and b <= a and not (a < b)
        c = SpreadValue(Fraction(1, 8), 3)   # = 1/2
        assert not (c < a) and not (a < c)
        d = SpreadValue(Fraction(1, 9), 2)   # = 1/3
        assert d < a

    def test_scalar_comparison(self):
        v = SpreadValue(Fraction(1, 6), 2)
        assert not v.le_scalar(Fraction(1, 3))
        assert v.le_scalar(Fraction(1, 2))


class TestExactSpread:
    def test_point_mass(self):
        dist = ExplicitDistribution([frozenset({"a", "b"})], [Fraction(1)])
        t, val = exact_spread(dist)
        assert val.le_scalar(1) and SpreadValue(Fraction(1), 1) <= val

    def test_two_singletons(self):
        dist = ExplicitDistribution(
            [frozenset({"a"}), frozenset({"b"})], [Fraction(1, 2), Fraction(1, 2)]
        )
        t, val = exact_spread(dist)
        assert val.prob == Fraction(1, 2) and val.size == 1

    def test_uniform_two_subsets_of_four(self):
        from itertools import combinations

        pairs = [frozenset(c) for c in combinations(range(4), 2)]
        dist = ExplicitDistribution(pairs, [Fraction(1, 6)] * 6)
        t, val = exact_spread(dist)
        # singletons win: P = 1/2 beats sqrt(1/6)
        assert len(t) == 1
        assert val.prob == Fraction(1, 2) and val.size == 1

    def test_size_cap(self):
        dist = ExplicitDistribution([frozenset({1, 2, 3})], [Fraction(1)])
        _, val = exact_spread(dist, size_cap=1)
        assert val.size == 1

    def test_ground_set_cap(self):
        dist = ExplicitDistribution([frozenset(range(21))], [Fraction(1)])
        with pytest.raises(CapExceeded):
            exact_spread(dist)

    def test_matches_monte_carlo(self):
        outcomes = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})]
        probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        dist = ExplicitDistribution(outcomes, probs)
        rng = np.random.default_rng(8)
        trials = 5000
        hits = sum(
            1
            for _ in range(trials)
            if 1 in outcomes[rng.choice(3, p=[float(p) for p in probs])]
        )
        exact = float(dist.containment(frozenset({1})))
        assert abs(hits / trials - exact) < 0.03

    def test_worst_set_agrees_with_estimator_ci(self):
        # oracle cross-check: the Monte Carlo CI for the worst test set must
        # cover its exact containment probability
        outcomes = [frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]
        probs = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
        dist = ExplicitDistribution(outcomes, probs)
        worst_t, val = exact_spread(dist)
        arrs = [np.array([1 if x in o else 0 for x in range(3)]) for o in outcomes]

        def sampler(rng: np.random.Generator) -> np.ndarray:
            return arrs[int(rng.integers(3))]

        est = estimate_containment(
            sampler, [(x, 1) for x in worst_t], trials=4000, seed=13
        )
        exact = float(dist.containment(worst_t))
        assert est.ci_low <= exact <= est.ci_high
        assert val.prob == dist.containment(worst_t)


def _random_distribution(rng: random.Random, ground: list, max_outcomes: int = 4):
    k = rng.randint(1, max_outcomes)
    outcomes = []
    for _ in range(k):
        outcomes.append(frozenset(x for x in ground if rng.random() < 0.5))
    weights = [rng.randint(1, 8) for _ in outcomes]
    total = sum(weights)
    return ExplicitDistribution(outcomes, [Fraction(w, total) for w in weights])


class TestComposition:
    def test_independent_disjoint_is_max(self):
        s = ExplicitDistribution(
            [frozenset({"x1"}), frozenset({"x2"})], [Fraction(1, 2), Fraction(1, 2)]
        )
        t = ExplicitDistribution(
            [frozenset({"y1"}), frozenset({"y2"})], [Fraction(1, 2), Fraction(1, 2)]
        )
        rep = check_composition(s, lambda s0: t, disjoint=True)
        assert rep.bound_holds
        assert rep.factor == 1

    def test_empty_conditional_keeps_spread(self):
        s = ExplicitDistribution(
            [frozenset({"a"}), frozenset({"b"})], [Fraction(1, 2), Fraction(1, 2)]
        )
        empty = ExplicitDistribution([frozenset()], [Fraction(1)])
        rep = check_composition(s, lambda s0: empty)
        assert rep.bound_holds
        assert rep.q_spread.prob == 0  # empty set contains nothing

    def test_overlapping_adversarial_random_search(self):
        rng = random.Random(99)
        for i in range(300):
            ground_s = list(range(rng.randint(1, 4)))
            ground_t = list(range(rng.randint(1, 4)))  # overlaps ground_s
            s = _random_distribution(rng, ground_s)
            conds = {s0: _random_distribution(rng, ground_t) for s0 in set(s.outcomes)}
            rep = check_composition(s, lambda s0: conds[s0])
            assert rep.bound_holds, f"instance {i} violated the 2*max bound"

    def test_disjoint_random_search(self):
        rng = random.Random(123)
        for i in range(300):
            ground_s = [f"x{j}" for j in range(rng.randint(1, 4))]
            ground_t = [f"y{j}" for j in range(rng.randint(1, 4))]
            s = _random_distribution(rng, ground_s)
            conds = {s0: _random_distribution(rng, ground_t) for s0 in set(s.outcomes)}
            rep = check_composition(s, lambda s0: conds[s0], disjoint=True)
            assert rep.bound_holds, f"instance {i} violated the max bound"

    def test_disjoint_requires_disjoint_grounds(self):
        s = ExplicitDistribution([frozenset({"a"})], [Fraction(1)])
        with pytest.raises(ValueError):
            check_composition(s, lambda s0: s, disjoint=True)
