from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from spreadcolor import audit
from spreadcolor.audit import (
    ExplicitDistribution,
    SpreadReport,
    SpreadValue,
    check_composition,
    exact_spread,
    spread_report_from_samples,
    audit_set_family,
    wilson_interval,
)
from spreadcolor.errors import CapExceeded, NoKeptSamples
from spreadcolor.graphs import complete_graph, keyed_rng
from spreadcolor.greedy import build_counterexample, enumerate_colorings

from oracles import (
    c_hat_reference,
    set_family_reference,
    spread_csv_reference,
    spread_rows_reference,
)


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
    colorings = list(enumerate_colorings(g, lists))

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return colorings[int(rng.integers(len(colorings)))]

    return sampler


def _keyed_audit(sampler, n, palette_size, trials, seed, family="singletons+pairs", sets=None):
    """The audit of `sampler` over the keyed streams (seed, 0..trials-1), the
    stream that `audit --sampler random-greedy` feeds the aggregation."""
    if sets is None:
        sets = audit_set_family(n, palette_size, seed, family)
    samples = (sampler(keyed_rng(seed, t)) for t in range(trials))
    return spread_report_from_samples(samples, n, palette_size, sets)


def _one_set(sampler, n, palette, trials, seed, pairs) -> SpreadReport:
    """A one-set audit of `pairs`."""
    return _keyed_audit(sampler, n, palette, trials, seed, sets=[tuple(pairs)])


class TestSpreadReportRow:
    def test_half_on_k2(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        est = _one_set(sampler, 2, 2, 4000, 2, [(0, 1)])
        (ci_low,), (ci_high,) = est.intervals()
        assert ci_low <= 0.5 <= ci_high
        assert abs(est.hits[0] / est.trials - 0.5) < 0.05

    def test_contradictory_pairs_zero(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        est = _one_set(sampler, 2, 2, 300, 3, [(0, 1), (0, 2)])
        assert est.hits[0] == 0

    def test_deterministic_in_seed(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        a = _one_set(sampler, 2, 2, 500, 7, [(0, 1)])
        b = _one_set(sampler, 2, 2, 500, 7, [(0, 1)])
        assert a.hits[0] == b.hits[0]

    def test_counts_one_keyed_stream_per_trial(self):
        # trial t samples from the (seed, t) stream, whatever sets are audited
        g = complete_graph(3)
        sampler = _uniform_coloring_sampler(g, [[1, 2, 3]] * 3)
        pairs = ((0, 1), (2, 3))
        hits = sum(
            all(sampler(keyed_rng(4, t))[v] == c for v, c in pairs) for t in range(300)
        )
        lo, hi = wilson_interval(hits, 300)
        rep = _one_set(sampler, 3, 3, 300, 4, pairs)
        assert (rep.sets, rep.trials, rep.hits.tolist()) == ([pairs], 300, [hits])
        assert rep.hits.dtype == np.int64
        assert rep.intervals().tolist() == [[lo], [hi]]

    @pytest.mark.parametrize(
        "sets, message",
        [
            ([()], "empty test set"),
            ([((0, 1),), ((0, 1), (1, 2)), ()], "empty test set"),
            ([((0, 1), (0, 1))], r"test set \(\(0, 1\), \(0, 1\)\) repeats a \(vertex, color\) pair"),
            ([((0, 1), (1, 2), (0, 1))], "repeats a"),
            ([((0, 1, 2),), ((1, 2),)], r"not \(vertex, color\)"),
        ],
    )
    def test_an_empty_or_repeating_test_set_is_a_value_error(self, sets, message):
        # an empty set made c_hat divide by zero; a repeated pair counted as
        # |T| = 2 with a singleton's hits; a pair of three numbers would shift
        # the pairs of every later set
        samples = [np.array([1, 2, 3])]
        with pytest.raises(ValueError, match=message):
            spread_report_from_samples(samples, 3, 3, sets)


def _random_sets(rng: np.random.Generator, n: int, palette: int, size: int, count: int):
    """`count` test sets of `size` distinct (vertex, color) pairs, colors in 0..palette."""
    sets = []
    while len(sets) < count:
        pairs = tuple(
            (int(v), int(c))
            for v, c in zip(rng.integers(n, size=size), rng.integers(palette + 1, size=size))
        )
        if len(set(pairs)) == size:
            sets.append(pairs)
    return sets


def _random_samples(rng: np.random.Generator, n: int, palette: int, trials: int):
    # colors 0..palette + 2: color 0 and colors past the palette both occur
    return [rng.integers(palette + 3, size=n) for _ in range(trials)]


class TestSpreadReportAgainstRows:
    """The array report against the row-per-set aggregation it replaced."""

    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (1, 2), (1, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_hits_csv_c_hat_and_json(self, sizes, seed):
        rng = np.random.default_rng(seed)
        n, palette, trials = 6, 3, 40 + 30 * seed
        sets = [s for k in sizes for s in _random_sets(rng, n, palette, k, 60)]
        samples = _random_samples(rng, n, palette, trials)
        rep = spread_report_from_samples(samples, n, palette, sets, flagged_trials=seed)
        rows = spread_rows_reference(samples, n, palette, sets)
        assert rep.hits.tolist() == [hits for _, _, hits, *_ in rows]
        assert rep.hits.any()
        assert rep.to_csv() == spread_csv_reference(rows)
        assert rep.c_hat == c_hat_reference(rows, palette)
        assert rep.to_json() == json.dumps(
            {"palette_size": palette, "trials": trials, "flagged_trials": seed,
             "c_hat": c_hat_reference(rows, palette), "rows": len(rows)}
        )

    def test_the_default_family_matches(self):
        rng = np.random.default_rng(3)
        sets = audit_set_family(8, 4, seed=3)
        samples = _random_samples(rng, 8, 4, 200)
        rep = spread_report_from_samples(samples, 8, 4, sets)
        rows = spread_rows_reference(samples, 8, 4, sets)
        assert rep.to_csv() == spread_csv_reference(rows)
        assert rep.c_hat == c_hat_reference(rows, 4)

    def test_a_family_mixing_sizes_counts_each_set(self):
        # the row-based report could not take 2-sets and 3-sets together
        rng = np.random.default_rng(4)
        n, palette = 5, 2
        pairs = _random_sets(rng, n, palette, 2, 40)
        triples = _random_sets(rng, n, palette, 3, 40)
        mixed = [s for both in zip(pairs, triples) for s in both]
        samples = _random_samples(rng, n, palette, 300)
        rep = spread_report_from_samples(samples, n, palette, mixed)
        want = {}
        for family in (pairs, triples):
            rows = spread_rows_reference(samples, n, palette, family)
            want.update((s, hits) for s, _, hits, *_ in rows)
        assert rep.hits.tolist() == [want[s] for s in mixed]
        assert sum(want.values()) > 0

    def test_an_empty_family_is_a_value_error(self):
        # it reported c_hat 0.0 over no rows, a gate that passed vacuously
        with pytest.raises(ValueError, match="empty test family"):
            spread_report_from_samples([np.array([1, 2])], 2, 2, [])

    @pytest.mark.parametrize(
        "bad",
        [np.array([1, 2]), np.array([1, 2, 3, 1]), np.array([[1, 2, 3]]),
         np.array([1.0, 2.0, 3.0]), np.array([True, False, True])],
    )
    def test_a_malformed_sample_is_a_value_error(self, bad):
        # a short or long sample raised numpy's IndexError, a float one too
        samples = [np.array([1, 2, 3]), None, bad]
        with pytest.raises(ValueError, match=r"sample 2 is not an integer array of shape \(3,\)"):
            spread_report_from_samples(samples, 3, 3, [((0, 1),), ((0, 1), (1, 2))])

    @pytest.mark.parametrize(
        "bad", [((-1, 3),), ((0, -1),), ((0, 7),), ((5, 1),), ((0, 1), (3, 2))]
    )
    def test_a_vertex_or_color_out_of_range_is_a_value_error(self, bad):
        # a negative vertex wrapped to vertex n-1, a negative color read the
        # clip column, and a vertex or color past the end raised IndexError
        sets = [((0, 1),), ((2, 3), (1, 0)), bad]
        message = f"test set {bad} has a vertex outside 0..2 or a color outside 0..3"
        with pytest.raises(ValueError, match=re.escape(message)):
            spread_report_from_samples([np.array([1, 2, 3])], 3, 3, sets)

    def test_a_sample_color_outside_the_palette_hits_no_set(self):
        # -1 was clipped to column 0: a hit on ((0, 0),) but on no larger set
        sets = [((0, 0),), ((0, 0), (1, 2)), ((0, 0), (2, 3), (1, 2))]
        rep = spread_report_from_samples([np.array([-1, 2, 3])], 3, 3, sets)
        assert rep.hits.tolist() == [0, 0, 0]


class TestSpreadReport:
    def test_bijective_clique_c_hat_near_one(self):
        d = 5
        g = complete_graph(d + 1)
        lists = [list(range(1, d + 2)) for _ in range(d + 1)]
        sampler = _uniform_coloring_sampler(g, lists)
        rep = _keyed_audit(
            sampler, g.n, d + 1, trials=3000, seed=4, family="singletons"
        )
        for p_hat in rep.hits / rep.trials:
            assert abs(p_hat - 1 / (d + 1)) < 0.05
        assert rep.c_hat < 1.6

    def test_red_thumb_c_hat_near_two(self):
        ce = build_counterexample("red_thumb", 3)
        sampler = _uniform_coloring_sampler(ce.graph, ce.lists)
        rep = _keyed_audit(
            sampler,
            ce.graph.n,
            palette_size=4,
            trials=3000,
            seed=5,
            sets=[((0, 0),)],
        )
        assert abs(rep.hits[0] / rep.trials - 0.5) < 0.05
        assert 1.8 < rep.c_hat < 2.4

    def test_family_sizes(self):
        sets = audit_set_family(10, 4, seed=0)
        singles = [s for s in sets if len(s) == 1]
        pairs = [s for s in sets if len(s) == 2]
        assert len(singles) == 40
        assert len(pairs) == 100
        assert all(s[0] != s[1] for s in pairs)

    def test_pairs_need_two_vertex_color_pairs(self):
        # one vertex with a one-color palette: every 2-set would repeat its
        # only pair, and drawing used to loop forever
        for n, palette in ((1, 1), (1, 0), (5, 0)):
            with pytest.raises(ValueError, match="needs two"):
                audit_set_family(n, palette, seed=0)
        assert audit_set_family(1, 1, seed=0, family="singletons") == [((0, 1),)]
        assert len(audit_set_family(1, 2, seed=0)) == 2 + 10
        assert audit_set_family(0, 1, seed=0) == []

    def test_csv_shape(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        rep = _keyed_audit(sampler, 2, 2, trials=200, seed=6, family="singletons")
        lines = rep.to_csv().strip().splitlines()
        assert lines[0].startswith("pairs,trials,hits")
        assert len(lines) == 1 + 4

    def test_no_kept_samples_is_an_error(self):
        # an all-flagged run must not report a C_hat over zero trials
        with pytest.raises(NoKeptSamples, match="7 flagged"):
            spread_report_from_samples([], 2, 2, [((0, 1),)], flagged_trials=7)
        with pytest.raises(NoKeptSamples, match="7 flagged"):
            spread_report_from_samples(iter([None] * 5), 2, 2, [((0, 1),)], flagged_trials=2)

    def test_a_none_in_the_stream_is_a_flagged_trial(self):
        rng = np.random.default_rng(9)
        sets = audit_set_family(4, 3, seed=9)
        kept = _random_samples(rng, 4, 3, 30)
        stream = [None if t % 4 == 1 else kept.pop() for t in range(40)]
        want = spread_report_from_samples([a for a in stream if a is not None], 4, 3, sets)
        rep = spread_report_from_samples(iter(stream), 4, 3, sets, flagged_trials=3)
        assert (rep.trials, rep.flagged_trials) == (30, 10 + 3)
        assert rep.hits.tolist() == want.hits.tolist() and rep.to_csv() == want.to_csv()

    def test_c_hat_shrinks_with_trials(self):
        # CI uppers tighten with more trials, so C_hat must come down
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        small = _keyed_audit(sampler, 2, 2, trials=200, seed=6, family="singletons")
        big = _keyed_audit(sampler, 2, 2, trials=20000, seed=6, family="singletons")
        assert big.c_hat < small.c_hat

    def test_c_hat_recomputable_from_rows(self):
        g = complete_graph(2)
        sampler = _uniform_coloring_sampler(g, [[1, 2], [1, 2]])
        rep = _keyed_audit(sampler, 2, 2, trials=300, seed=8, family="singletons")
        _, ci_high = rep.intervals()
        manual = max(hi ** (1 / len(pairs)) for pairs, hi in zip(rep.sets, ci_high)) * 2
        assert rep.c_hat == pytest.approx(manual)


class TestSetFamilyBlocks:
    """The pairs drawn in keyed blocks equal the per-candidate loop's."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 100])
    def test_the_same_sets_in_the_same_order_as_the_loop(self, n):
        for palette in (1, 2, 3, 17):
            for seed in range(25):
                if n * palette == 1:
                    continue  # needs two: test_pairs_need_two_vertex_color_pairs
                assert audit_set_family(n, palette, seed) == set_family_reference(
                    n, palette, seed
                ), (n, palette, seed)

    def test_the_grid_has_families_that_need_a_second_block(self, monkeypatch):
        blocks = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, **kwargs):
                blocks.append(args)
                return self.rng.integers(*args, **kwargs)

        monkeypatch.setattr(audit, "keyed_rng", lambda *key: Counting(keyed_rng(*key)))
        most = 0
        for n, palette in itertools.product((1, 2, 3), (1, 2, 3)):
            for seed in range(25):
                if n * palette > 1:
                    blocks.clear()
                    audit_set_family(n, palette, seed)
                    most = max(most, len(blocks))
        assert most >= 2

    @pytest.mark.parametrize("a, b", [(2**31 + 1, 17), (100, 2**33), (2**31 + 1, 2**33)])
    def test_array_bounds_draw_from_the_stream_as_scalar_calls_do(self, a, b):
        # the property the blocks rely on: each element of an array-bounded
        # call is drawn in turn, as alternating scalar-bounded calls draw;
        # at 2^31 + 1 about half the 32-bit draws are rejected, and 2^33
        # takes 64-bit draws
        candidates = 500
        block = keyed_rng(9, 1 << 40).integers(
            np.tile([0, 0, 1, 1], candidates), np.tile([a, a, b + 1, b + 1], candidates)
        )
        rng = keyed_rng(9, 1 << 40)
        calls = [
            (rng.integers(a, size=2), rng.integers(1, b + 1, size=2))
            for _ in range(candidates)
        ]
        assert np.array_equal(block, np.concatenate([np.concatenate(c) for c in calls]))


class TestSpreadValue:
    def test_exact_comparisons(self):
        a = SpreadValue(Fraction(1, 4), 2)   # = 1/2
        b = SpreadValue(Fraction(1, 2), 1)   # = 1/2
        assert a <= b and b <= a and not (a < b)
        c = SpreadValue(Fraction(1, 8), 3)   # = 1/2
        assert not (c < a) and not (a < c)
        d = SpreadValue(Fraction(1, 9), 2)   # = 1/3
        assert d < a


class TestExactSpread:
    def test_point_mass(self):
        dist = ExplicitDistribution([frozenset({"a", "b"})], [Fraction(1)])
        t, val = exact_spread(dist)
        assert (val.prob, val.size) == (1, 1)

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

        est = _one_set(sampler, 3, 1, 4000, 13, [(x, 1) for x in worst_t])
        exact = float(dist.containment(worst_t))
        (ci_low,), (ci_high,) = est.intervals()
        assert ci_low <= exact <= ci_high
        assert val.prob == dist.containment(worst_t)


def _random_distribution(rng: random.Random, ground: list, max_outcomes: int = 4):
    k = rng.randint(1, max_outcomes)
    outcomes = []
    for _ in range(k):
        outcomes.append(frozenset(x for x in ground if rng.random() < 0.5))
    weights = [rng.randint(1, 8) for _ in outcomes]
    total = sum(weights)
    return ExplicitDistribution(outcomes, [Fraction(w, total) for w in weights])


def _union(s: ExplicitDistribution, conds) -> ExplicitDistribution:
    """The law of S ∪ T_S, with T_S drawn from conds[S]."""
    law: dict[frozenset, Fraction] = {}
    for s0, ps in zip(s.outcomes, s.probs):
        for t0, pt in zip(conds[s0].outcomes, conds[s0].probs):
            law[s0 | t0] = law.get(s0 | t0, Fraction(0)) + ps * pt
    return ExplicitDistribution(list(law), list(law.values()))


def _bound_holds_per_set(union: ExplicitDistribution, m: SpreadValue, factor: int) -> bool:
    """P(U) <= (factor * m)^|U| for every nonempty U, set by set."""
    ground = sorted(union.ground(), key=repr)
    return all(
        union.containment(frozenset(u)) ** m.size <= Fraction(factor) ** (k * m.size) * m.prob**k
        for k in range(1, len(ground) + 1)
        for u in itertools.combinations(ground, k)
    )


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
            self._assert_union_read_from_exact_spread(rep, _union(s, conds))

    def test_disjoint_random_search(self):
        rng = random.Random(123)
        for i in range(300):
            ground_s = [f"x{j}" for j in range(rng.randint(1, 4))]
            ground_t = [f"y{j}" for j in range(rng.randint(1, 4))]
            s = _random_distribution(rng, ground_s)
            conds = {s0: _random_distribution(rng, ground_t) for s0 in set(s.outcomes)}
            rep = check_composition(s, lambda s0: conds[s0], disjoint=True)
            assert rep.bound_holds, f"instance {i} violated the max bound"
            self._assert_union_read_from_exact_spread(rep, _union(s, conds))

    @staticmethod
    def _assert_union_read_from_exact_spread(rep, union):
        # union_worst is the union's worst set, and the one comparison of
        # the union's spread agrees with the bound checked set by set
        worst, value = exact_spread(union)
        assert rep.union_worst == worst
        if union.ground():
            assert worst and union.containment(worst) == value.prob
        m = max(rep.p_spread, rep.q_spread)
        assert rep.bound_holds == _bound_holds_per_set(union, m, rep.factor)

    def test_a_union_ground_above_20_is_capped(self):
        # each side alone is within the cap; the union's 21 elements are not
        s = ExplicitDistribution([frozenset(f"x{j}" for j in range(11))], [Fraction(1)])
        t = ExplicitDistribution([frozenset(f"y{j}" for j in range(10))], [Fraction(1)])
        with pytest.raises(CapExceeded, match="ground set of size 21 exceeds 20"):
            check_composition(s, lambda s0: t, disjoint=True)

    def test_disjoint_requires_disjoint_grounds(self):
        s = ExplicitDistribution([frozenset({"a"})], [Fraction(1)])
        with pytest.raises(ValueError):
            check_composition(s, lambda s0: s, disjoint=True)
