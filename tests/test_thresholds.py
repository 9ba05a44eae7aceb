from __future__ import annotations

import csv
import io
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from spreadcolor import thresholds
from spreadcolor.errors import CapExceeded
from spreadcolor.graphs import Graph, complete_graph, gen_random_regular
from spreadcolor.greedy import uniform_lists
from spreadcolor.thresholds import (
    CurveRow,
    Hypergraph,
    SparsificationCurve,
    _draw_lists,
    cost_bruteforce,
    decide_list_colorable,
    expense,
    sparsification_scan,
)
from oracles import search_reference


class TestExpense:
    def test_single_singleton(self):
        f = Hypergraph(("a",), (frozenset({"a"}),))
        assert expense(f, {"a": Fraction(3, 10)}) == Fraction(3, 10)

    def test_empty_edge_counts_one(self):
        f = Hypergraph(("a",), (frozenset(),))
        assert expense(f, {"a": Fraction(1, 2)}) == 1

    def test_two_overlapping_edges(self):
        f = Hypergraph(("a", "b", "c"), (frozenset("ab"), frozenset("bc")))
        q = {x: Fraction(1, 2) for x in "abc"}
        assert expense(f, q) == Fraction(1, 2)

    def test_weight_validation(self):
        f = Hypergraph(("a",), (frozenset({"a"}),))
        with pytest.raises(ValueError):
            expense(f, {"a": Fraction(3, 2)})


def _oracle_cost(f: Hypergraph, q) -> Fraction:
    """Independent exhaustive-cover enumeration: every selector picks a
    subset of each edge; the chosen (deduplicated) family is a cover."""
    def weight(b):
        prod = Fraction(1)
        for x in b:
            prod *= q[x]
        return prod

    if not f.edges:
        return Fraction(0)
    best = None
    options = [
        [frozenset(c) for r in range(len(e) + 1) for c in itertools.combinations(sorted(e, key=repr), r)]
        for e in f.edges
    ]
    for picks in itertools.product(*options):
        val = sum((weight(b) for b in set(picks)), Fraction(0))
        if best is None or val < best:
            best = val
    return best


class TestCost:
    def test_singleton(self):
        f = Hypergraph(("a",), (frozenset({"a"}),))
        value, witness = cost_bruteforce(f, {"a": Fraction(3, 10)})
        assert value == Fraction(3, 10)
        assert witness == [frozenset({"a"})]

    def test_heavy_pair_prefers_itself(self):
        f = Hypergraph(("a", "b"), (frozenset("ab"),))
        q = {"a": Fraction(9, 10), "b": Fraction(9, 10)}
        value, witness = cost_bruteforce(f, q)
        assert value == Fraction(81, 100)
        assert witness == [frozenset("ab")]

    def test_cheap_element_shared(self):
        # one cheap element covers both edges through its singleton
        f = Hypergraph(("a", "b", "c"), (frozenset("ab"), frozenset("ac")))
        q = {"a": Fraction(1, 10), "b": Fraction(1), "c": Fraction(1)}
        value, witness = cost_bruteforce(f, q)
        assert value == Fraction(1, 10)
        assert witness == [frozenset("a")]

    def test_cost_at_most_expense(self):
        rng = random.Random(5)
        for _ in range(30):
            ground = tuple(range(rng.randint(1, 6)))
            edges = tuple(
                frozenset(x for x in ground if rng.random() < 0.6)
                for _ in range(rng.randint(1, 4))
            )
            f = Hypergraph(ground, edges)
            q = {x: Fraction(rng.randint(0, 10), 10) for x in ground}
            value, _ = cost_bruteforce(f, q)
            assert value <= expense(f, q)

    def test_monotone_under_edge_removal(self):
        rng = random.Random(6)
        for _ in range(20):
            ground = tuple(range(5))
            edges = [
                frozenset(x for x in ground if rng.random() < 0.5) for _ in range(3)
            ]
            q = {x: Fraction(rng.randint(1, 9), 10) for x in ground}
            full, _ = cost_bruteforce(Hypergraph(ground, tuple(edges)), q)
            fewer, _ = cost_bruteforce(Hypergraph(ground, tuple(edges[:2])), q)
            assert fewer <= full

    def test_matches_selector_oracle(self):
        rng = random.Random(7)
        for i in range(25):
            ground = tuple(range(rng.randint(2, 8)))
            edges = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(0, min(4, len(ground)))
                edges.append(frozenset(rng.sample(ground, size)))
            f = Hypergraph(ground, tuple(edges))
            q = {x: Fraction(rng.randint(0, 12), 12) for x in ground}
            value, witness = cost_bruteforce(f, q)
            assert value == _oracle_cost(f, q), f"instance {i}"
            # witness must actually cover f at the claimed expense
            assert all(any(b <= e for b in witness) for e in f.edges)
            witness_expense = sum(
                (math.prod((q[x] for x in b), start=Fraction(1)) for b in set(witness)),
                Fraction(0),
            )
            assert witness_expense == value

    def test_ground_cap(self):
        ground = tuple(range(17))
        f = Hypergraph(ground, (frozenset({0}),))
        with pytest.raises(CapExceeded):
            cost_bruteforce(f, {x: Fraction(1, 2) for x in ground})

    def test_json_parse(self):
        h, q = Hypergraph.from_json(
            '{"ground": ["a", "b"], "edges": [["a"], ["a", "b"]], "q": {"a": "3/10", "b": 0.5}}'
        )
        assert max(map(len, h.edges)) == 2
        assert q["a"] == Fraction(3, 10)
        assert q["b"] == Fraction(1, 2)

    def test_json_keys_name_ground_elements_by_their_json_text(self):
        h, q = Hypergraph.from_json(
            '{"ground": ["a", 2, true, null, 1.5], "edges": [[2, true]], '
            '"q": {"a": 0.1, "2": "1/2", "true": "1/3", "null": 0, "1.5": 1}}'
        )
        assert h.ground == ("a", 2, True, None, 1.5)
        assert q == {"a": Fraction(1, 10), 2: Fraction(1, 2), True: Fraction(1, 3),
                     None: 0, 1.5: 1}
        assert [type(x) for x in q] == [str, int, bool, type(None), float]
        assert expense(h, q) == Fraction(1, 6)


class TestListColorable:
    def test_full_palette_always_colorable(self):
        g = gen_random_regular(40, 6, seed=1)
        assert decide_list_colorable(g, uniform_lists(g, 7))

    def test_k2_identical_singletons(self):
        g = complete_graph(2)
        assert not decide_list_colorable(g, [[1], [1]])
        assert decide_list_colorable(g, [[1], [2]])

    def test_k3_two_colors(self):
        g = complete_graph(3)
        assert not decide_list_colorable(g, [[1, 2], [1, 2], [1, 2]])

    def test_agrees_with_enumeration(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 7)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph.from_edges(n, edges)
            lists = [
                rng.sample(range(1, 6), rng.randint(1, 4)) for _ in range(n)
            ]
            expected = next(search_reference(g, lists), None) is not None
            assert decide_list_colorable(g, lists) == expected

    def test_cap(self):
        g = complete_graph(12)
        with pytest.raises(CapExceeded):
            decide_list_colorable(g, uniform_lists(g, 12), cap=5)

    def test_cap_hit_after_backtracking(self):
        # K4 on {0, 1, 3, 4} with three colors, plus the isolated vertex 2:
        # both colors of 2 and of 3 are tried before the K4 is refuted, 7
        # nodes in all.  One descent holds at most n + 1 = 6 nodes, so a
        # cap of 6 is hit after a backtrack.
        g = Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4)])
        lists = [[1, 2, 3], [1, 2, 3], [2, 3], [2, 3], [1, 2, 3]]
        assert reference_decide(g, lists) == (False, 7)
        with pytest.raises(CapExceeded):
            decide_list_colorable(g, lists, cap=6)
        assert not decide_list_colorable(g, lists, cap=7)

    def test_a_branch_per_vertex_is_not_bounded_by_the_recursion_limit(self):
        # full lists on a 4-regular graph branch once on every vertex: the
        # recursive search raised RecursionError past about 1,000 of them
        g = gen_random_regular(2000, 4, seed=1)
        lists = [range(1, 6)] * g.n
        assert decide_list_colorable(g, lists, cap=2001)
        with pytest.raises(CapExceeded):
            decide_list_colorable(g, lists, cap=2000)

    def test_colors_past_62(self):
        # numpy int64 colors: 1 << np.int64(70) is 0 in numpy
        assert decide_list_colorable(complete_graph(2), [np.array([6]), np.array([70])])
        assert not decide_list_colorable(complete_graph(2), [np.array([70]), np.array([70])])
        g = complete_graph(66)
        assert decide_list_colorable(g, [np.arange(1, 67)] * 66)

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
        # negative color raised "negative shift count"
        with pytest.raises(ValueError, match=message):
            decide_list_colorable(complete_graph(3), lists)


def reference_decide(g: Graph, lists) -> tuple[bool, int]:
    """Frozen copy of the full-scan decision (every node scans all vertices
    for the branch vertex, every propagation scans them for singletons),
    with Python-int masks.  Returns (decision, search nodes); the nodes are
    the smallest cap under which decide_list_colorable does not raise."""
    n = g.n
    avail = []
    for v in range(n):
        mask = 0
        for c in lists[v]:
            mask |= 1 << int(c)
        avail.append(mask)
    assigned = [0] * n
    nodes = 0

    def propagate(trail) -> bool:
        queue = [v for v in range(n) if assigned[v] == 0 and avail[v].bit_count() == 1]
        while queue:
            v = queue.pop()
            if assigned[v]:
                continue
            bit = avail[v]
            if bit == 0:
                return False
            assigned[v] = bit
            trail.append((v, -1))
            for w in g.neighbors(v):
                if assigned[w]:
                    if assigned[w] == bit:
                        return False
                    continue
                if avail[w] & bit:
                    avail[w] &= ~bit
                    trail.append((w, bit))
                    cnt = avail[w].bit_count()
                    if cnt == 0:
                        return False
                    if cnt == 1:
                        queue.append(w)
        return True

    def undo(trail) -> None:
        while trail:
            v, bit = trail.pop()
            if bit == -1:
                assigned[v] = 0
            else:
                avail[v] |= bit

    def search() -> bool:
        nonlocal nodes
        nodes += 1
        v_best, best_cnt = -1, 1 << 30
        for v in range(n):
            if assigned[v] == 0:
                cnt = avail[v].bit_count()
                if cnt == 0:
                    return False
                if cnt < best_cnt:
                    v_best, best_cnt = v, cnt
        if v_best == -1:
            return True
        mask = avail[v_best]
        while mask:
            bit = mask & -mask
            mask ^= bit
            trail = []
            saved = avail[v_best]
            avail[v_best] = bit
            trail.append((v_best, saved & ~bit))
            if propagate(trail) and search():
                return True
            undo(trail)
            avail[v_best] = saved
        return False

    if not propagate([]):
        return False, nodes
    return search(), nodes


def assert_same_search(g: Graph, lists) -> tuple[bool, int]:
    """decide_list_colorable decides as the reference does and raises
    CapExceeded exactly below the reference's node count."""
    decision, nodes = reference_decide(g, lists)
    assert decide_list_colorable(g, lists, cap=nodes) == decision
    if nodes:
        with pytest.raises(CapExceeded):
            decide_list_colorable(g, lists, cap=nodes - 1)
    return decision, nodes


class TestDecisionMatchesReference:
    def test_seeded_random_instances(self):
        # 3-color lists from [D] or [D+1] on 3..6-regular graphs: small
        # enough to decide fast, tight enough that the search backtracks
        rng = random.Random(2024)
        decisions, backtracked = set(), 0
        for _ in range(400):
            d = rng.randint(3, 6)
            n = max(rng.randint(6, 20), d + 1)
            n += n * d % 2
            g = gen_random_regular(n, d, seed=rng.randrange(10**6))
            palette = range(1, d + 1 + rng.randint(0, 1))
            lists = [rng.sample(palette, 3) for _ in range(n)]
            decision, nodes = assert_same_search(g, lists)
            decisions.add(decision)
            backtracked += nodes > n
        assert decisions == {True, False}
        assert backtracked >= 20

    def test_edge_cases(self):
        k2 = complete_graph(2)
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        cases = [
            (Graph.from_edges(0, []), []),
            (Graph.from_edges(1, []), [[]]),
            (Graph.from_edges(1, []), [[4]]),
            (Graph.from_edges(1, []), [[1, 2, 3]]),
            (k2, [[3], [3]]),
            (k2, [[], [1, 2]]),
            (k2, [[1, 2], []]),
            (path, [[1, 2], [], [1]]),
            (Graph.from_edges(4, []), [[1, 2], [3], [2, 5, 7], [1, 1]]),  # isolated
            (Graph.from_edges(4, [(0, 1)]), [[1], [1, 2], [5, 6], [7]]),
            (path, [[1, 2, 3, 4], [2], [1, 2]]),  # unequal lengths
            (path, [[1, 2], [1, 2, 3], [2, 3]]),
            (complete_graph(4), [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]),
            (complete_graph(4), [[1, 2, 3, 4], [1, 2, 3], [1, 2], [1]]),
            (complete_graph(4), [[1, 2, 3]] * 4),
            (Graph(1, np.array([0]), np.array([0, 1])), [[1, 2]]),  # a self-loop, only through the raw constructor
        ]
        seen = set()
        for g, lists in cases:
            seen.add(assert_same_search(g, lists))
        assert (True, 1) in seen  # n = 0
        assert (False, 1) in seen  # an empty list ends the first node
        assert (False, 0) in seen  # the root propagation fails

    def test_bench_shape(self):
        # the lists sparsification_scan draws on gen_random_regular(100, 20)
        g = gen_random_regular(100, 20, seed=555)
        decisions = set()
        for k in (2, 3, 4, 6, 8, 10, 14, 21):
            for t in range(2):
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((555, k, t))))
                decisions.add(assert_same_search(g, _draw_lists(rng, g.n, 20, k))[0])
        assert decisions == {True, False}


class TestDrawLists:
    @pytest.mark.parametrize("d, k", [(0, 1), (1, 1), (5, 3), (20, 2), (20, 20), (70, 35)])
    def test_rows_are_k_distinct_palette_colors(self, d, k):
        lists = _draw_lists(np.random.default_rng(11), 300, d, k)
        assert lists.shape == (300, k)
        assert lists.min() >= 1 and lists.max() <= d + 1
        assert all(len(set(row)) == k for row in lists.tolist())

    @pytest.mark.parametrize("d", [0, 1, 6, 64])
    def test_k_of_d_plus_one_is_the_full_palette(self, d):
        lists = _draw_lists(np.random.default_rng(12), 50, d, d + 1)
        assert (np.sort(lists, axis=1) == np.arange(1, d + 2)).all()

    def test_no_vertices(self):
        assert _draw_lists(np.random.default_rng(13), 0, 4, 2).shape == (0, 2)

    def test_subsets_and_colors_are_uniform(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(14)
        subsets = [tuple(row) for row in np.sort(_draw_lists(rng, 20_000, 5, 3), axis=1).tolist()]
        counts = [subsets.count(s) for s in itertools.combinations(range(1, 7), 3)]
        assert sum(counts) == 20_000  # all 20 subsets of 3 from 1..6
        assert stats.chisquare(counts).pvalue > 1e-6
        colors = np.bincount(_draw_lists(rng, 20_000, 5, 1)[:, 0], minlength=7)
        assert colors[0] == 0
        assert stats.chisquare(colors[1:]).pvalue > 1e-6


class TestSparsificationScan:
    def test_full_palette_rate_one(self):
        g = gen_random_regular(30, 6, seed=2)
        curve = sparsification_scan(g, [7], trials=20, seed=3)
        assert curve.rows[0].rate == 1.0

    def test_k1_on_k2_closed_form(self):
        g = complete_graph(2)  # D = 1, palette {1, 2}
        curve = sparsification_scan(g, [1], trials=600, seed=4)
        row = curve.rows[0]
        assert row.ci_low <= 0.5 <= row.ci_high

    def test_monotone_curve_small_graph(self):
        g = gen_random_regular(24, 6, seed=5)
        curve = sparsification_scan(g, [2, 3, 4, 5, 7], trials=60, seed=6)
        assert curve.nondecreasing_within_ci()
        assert curve.rows[-1].rate == 1.0

    def test_nondecreasing_within_ci(self):
        def row(k, lo, hi):
            return CurveRow(k, 10, 5, 0, 0.5, lo, hi)

        # each row's upper bound must reach the previous row's lower bound
        assert SparsificationCurve([row(2, 0.4, 0.6), row(3, 0.1, 0.4)]).nondecreasing_within_ci()
        assert not SparsificationCurve(
            [row(2, 0.4, 0.6), row(3, 0.1, 0.39)]
        ).nondecreasing_within_ci()
        assert not SparsificationCurve(
            [row(2, 0.0, 0.2), row(3, 0.5, 0.9), row(4, 0.1, 0.3)]
        ).nondecreasing_within_ci()

    @pytest.mark.parametrize("ks", [[3, 2], [2, 2], [2, 4, 3]])
    def test_a_curve_built_with_k_out_of_order_is_a_value_error(self, ks):
        # a curve pooled outside the scan is checked by the same rule
        rows = [CurveRow(k, 10, 5, 0, 0.5, 0.2, 0.8) for k in ks]
        with pytest.raises(ValueError, match=re.escape(f"strictly increasing, got {ks}")):
            SparsificationCurve(rows)

    def test_k_range_validated(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            sparsification_scan(g, [9], trials=10, seed=0)

    @pytest.mark.parametrize(
        "k_values, message",
        [
            ([True], "must be integers, got True"),
            ([1, np.True_], "must be integers"),
            ([2.5], "must be integers, got 2.5"),
            ([2.0], "must be integers, got 2.0"),
            (["2"], "must be integers"),
            ([0], r"must lie in \[1, D\+1\] = \[1, 3\], got 0"),
            ([1, 4], r"must lie in \[1, D\+1\]"),
            ([3, 2], r"^k values must be strictly increasing, got \[3, 2\]$"),
            ([1, 2, 2], r"^k values must be strictly increasing, got \[1, 2, 2\]$"),
        ],
    )
    def test_k_values_are_checked_before_any_decision(self, monkeypatch, k_values, message):
        # bools and floats used to fail inside rng.choice, and an unsorted
        # list only after every decision had run
        def fail(*args, **kwargs):
            raise AssertionError("decided before the k values were checked")

        monkeypatch.setattr(thresholds, "decide_list_colorable", fail)
        with pytest.raises(ValueError, match=message):
            sparsification_scan(complete_graph(3), k_values, trials=5, seed=0)

    def test_numpy_k_values_are_accepted(self):
        g = complete_graph(3)
        curve = sparsification_scan(g, [np.int32(1), np.int64(3)], trials=5, seed=0)
        assert [type(r.k) for r in curve.rows] == [int, int]
        assert curve.to_csv() == sparsification_scan(g, [1, 3], trials=5, seed=0).to_csv()

    def test_csv(self):
        g = complete_graph(3)
        curve = sparsification_scan(g, [1, 3], trials=30, seed=7)
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "k,trials,successes,rate,ci_lo,ci_hi,indeterminate"
        assert len(lines) == 3

    def test_csv_tells_a_cap_exceeded_decision_from_an_uncolorable_one(self):
        # at k = 1 on K3, 5 of 7 draws are uncolorable, decided within
        # either cap; a one-node cap stops every decision at k = 3, where
        # the full lists branch at the root
        g = complete_graph(3)
        rows = [
            row
            for cap in (100, 1)
            for row in csv.DictReader(
                io.StringIO(sparsification_scan(g, [1, 3], trials=7, seed=2, cap=cap).to_csv())
            )
        ]
        got = [(r["k"], r["successes"], r["indeterminate"]) for r in rows]
        assert got == [("1", "2", "0"), ("3", "7", "0"), ("1", "2", "0"), ("3", "0", "7")]

    def test_full_lists_past_color_62(self):
        # full lists at D >= 62 hold colors past 62, which broke int64 masks
        for n in (63, 66):
            assert sparsification_scan(complete_graph(n), [n], trials=3, seed=0).rows[0].rate == 1.0
        g = gen_random_regular(200, 64, seed=1)
        assert sparsification_scan(g, [65], trials=3, seed=0).rows[0].rate == 1.0

    def test_a_scan_that_branches_on_2000_vertices(self):
        # it raised RecursionError
        curve = sparsification_scan(gen_random_regular(2000, 4, seed=1), [5], trials=1, seed=0)
        assert curve.rows[0].rate == 1.0

    def test_a_cap_that_every_decision_exceeds_tallies_them_all(self):
        # full or near-full lists on 20 vertices branch past the root, so a
        # cap of one node stops every decision before it finds a coloring
        g = gen_random_regular(20, 4, seed=1)
        curve = sparsification_scan(g, [3, 5], trials=10, seed=0, cap=1)
        assert [(r.successes, r.indeterminate, r.rate) for r in curve.rows] == [(0, 10, 0.0)] * 2

    def test_deterministic(self):
        g = gen_random_regular(20, 4, seed=8)
        a = sparsification_scan(g, [2, 3], trials=40, seed=9)
        b = sparsification_scan(g, [2, 3], trials=40, seed=9)
        assert [(r.k, r.successes) for r in a.rows] == [
            (r.k, r.successes) for r in b.rows
        ]
