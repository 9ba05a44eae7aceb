from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadcolor import clusters, sparse_phase
from spreadcolor.clusters import Pipeline
from spreadcolor.decompose import Decomposition, sparse_dense_decompose
from spreadcolor.errors import MaxTriesExceeded, StuckVertex, VerificationFailed
from spreadcolor.graphs import (
    Graph,
    check_proper,
    complete_graph,
    disjoint_union,
    gen_random_regular,
    keyed_rng,
)
from spreadcolor.greedy import slack_greedy
from spreadcolor.params import Params
from spreadcolor.sparse_phase import (
    _GREEDY_TAG,
    _LABEL_TAG,
    _bad_vertices,
    _check_hand_off,
    _edges_below,
    _in_t_counts,
    _pair_count,
    _thresholds,
    default_window_halfwidth,
    sample_conditioned_labeling,
    sparse_phase_color,
    tranquil_mask,
)
from oracles import is_proper
from test_clusters import swapped_double_clique
from test_golden import _clustered, _irregular


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def as_dict(colors: np.ndarray) -> dict[int, int]:
    """The colored vertices of a color array (0 = uncolored) as a dict."""
    vs = np.flatnonzero(colors)
    return dict(zip(vs.tolist(), colors[vs].tolist()))


def reference_bad_event(
    g: Graph, tau: np.ndarray, vstar, window_halfwidth: float, pair_min: float
) -> dict[int, bool]:
    """The per-vertex bad-event loop the predicate replaced, with its own
    set-based pair count: |N_v ∩ T| more than the halfwidth from D/e, or
    fewer than pair_min non-adjacent equal-label pairs u, w in N_v whose
    label appears nowhere else in N_v ∪ N_u ∪ N_w."""
    d = g.max_degree
    t = {v for v in range(g.n) if all(tau[w] != tau[v] for w in g.neighbors(v))}
    bad = {}
    for v in sorted(vstar):
        c = sum(1 for w in g.neighbors(v) if w in t)
        nbrs = sorted(set(g.neighbors(v)))
        p = 0
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if tau[u] != tau[w] or w in g.neighbors(u):
                    continue
                zone = (set(g.neighbors(v)) | set(g.neighbors(u)) | set(g.neighbors(w))) - {u, w}
                p += all(tau[z] != tau[u] for z in zone)
        bad[v] = abs(c - d / math.e) > window_halfwidth or p < pair_min
    return bad


def _literal_bad(g: Graph, tau: np.ndarray, theta_prime: float) -> np.ndarray:
    """The literal bad event on every vertex: window (e^-1 ± theta'/3)D and
    pair_min theta'*D."""
    d = g.max_degree
    every = np.ones(g.n, dtype=bool)
    return _bad_vertices(
        g, tau, tranquil_mask(g, tau), every, d, theta_prime / 3.0 * d, theta_prime * d
    )


def label(g: Graph, vstar, seed: int, max_tries: int = 10_000):
    """sample_conditioned_labeling with the thresholds sparse_phase_color
    derives for |vstar| sparse vertices under Params(): the calibrated
    window, and no pair clause (theta' * D < 1 at every D here)."""
    window, pair_min = _thresholds(g.max_degree, len(vstar), Params())
    assert pair_min == 0
    return sample_conditioned_labeling(g, vstar, seed, window, pair_min, max_tries)


def reference_slack_greedy(g: Graph, dec: Decomposition, res, seed: int) -> dict[int, int]:
    """The per-vertex dict/set slack greedy: labels kept on T ∩ V*, then each
    leftover in ascending order drops the colors of its T-neighbors and of
    its already colored leftover neighbors."""
    tau, t = res.labeling, res.t_mask
    sigma = {v: int(tau[v]) for v in dec.sparse if t[v]}
    uniforms = keyed_rng(seed, _GREEDY_TAG).random(g.n)
    for v in sorted(dec.sparse - res.t_set):
        used = {int(tau[w]) if t[w] else sigma.get(w) for w in g.neighbors(v)}
        avail = [c for c in range(1, g.max_degree + 2) if c not in used]
        sigma[v] = avail[int(uniforms[v] * len(avail))]
    return sigma


class TestLabelStatistics:
    def test_all_distinct_labels_gives_full_t(self):
        g = complete_graph(4)
        assert tranquil_mask(g, np.array([1, 2, 3, 4])).all()

    def test_k2_equal_labels_empty_t(self):
        g = complete_graph(2)
        assert not tranquil_mask(g, np.array([1, 1])).any()

    def test_five_cycle_hand_check(self):
        g = cycle_graph(5)
        tau = np.array([1, 1, 2, 3, 4])
        # vertices 0,1 share a label along an edge; 2,3,4 are conflict-free
        t_mask = tranquil_mask(g, tau)
        assert np.flatnonzero(t_mask).tolist() == [2, 3, 4]
        assert _in_t_counts(g, t_mask).tolist() == [1, 1, 1, 2, 1]

    @pytest.mark.parametrize("n", [0, 4])
    def test_in_t_counts_on_an_edgeless_graph_are_zero(self, n):
        counts = _in_t_counts(Graph.from_edges(n, []), np.ones(n, dtype=bool))
        assert counts.dtype == np.int64 and counts.tolist() == [0] * n

    @pytest.mark.parametrize(
        "g",
        [
            gen_random_regular(90, 8, seed=2),
            _irregular(),
            Graph.from_edges(6, [(0, 1), (1, 2)]),  # isolated vertices
            Graph.from_edges(0, []),
        ],
        ids=["regular", "irregular", "isolated", "empty"],
    )
    def test_in_t_counts_equal_the_row_reduction(self, g):
        # the reference is the count as it was: a gather over every adjacency
        # entry, summed per row with reduceat
        def reference(g, t_mask):
            flat, ptr = g.flat, g.ptr
            vals = t_mask[flat].astype(np.int64)
            counts = np.zeros(g.n, dtype=np.int64)
            nonempty = ptr[:-1] < ptr[1:]
            counts[nonempty] = np.add.reduceat(vals, ptr[:-1][nonempty])
            return counts

        rng = np.random.default_rng(11)
        masks = [np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool), rng.random(g.n) < 0.37]
        for mask in masks:
            got = _in_t_counts(g, mask)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference(g, mask))

    def test_pair_count_definition(self):
        # star center: leaves are mutually non-adjacent; two leaves sharing a
        # label form a pair iff nothing else in the three neighborhoods
        # carries that label.
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert _pair_count(g, np.array([9, 5, 5, 7]), 0) == 1
        # a third leaf with the same label kills every pair
        assert _pair_count(g, np.array([9, 5, 5, 5]), 0) == 0

    def test_literal_bad_event_thresholds(self):
        g = cycle_graph(5)
        tau = np.array([1, 1, 2, 3, 4])
        # window is (e^-1 ± 0.1) * 2 = [0.54, 0.94]; every count is 1 or 2
        assert _literal_bad(g, tau, theta_prime=0.3).all()
        # at theta' = 0.01 the window is [0.73, 0.74] and pair_min 0.02
        assert _literal_bad(g, tau, theta_prime=0.01).all()

    def test_only_where_is_evaluated(self):
        g = cycle_graph(5)
        tau = np.array([1, 1, 2, 3, 4])
        t_mask = tranquil_mask(g, tau)
        where = np.array([False, True, False, True, False])
        # the window D/e ± 0.2 = [0.54, 0.94] holds no count (each is 1 or 2)
        assert (_bad_vertices(g, tau, t_mask, where, 2, 0.2, 1.0) == where).all()
        # the pair clause never runs off `where`
        assert not _bad_vertices(g, tau, t_mask, np.zeros(5, dtype=bool), 2, 9.0, 1.0).any()

    # D = 10: a halfwidth that puts one end of the window D/e ± halfwidth
    # exactly on an integer count, and the step that leaves the window there
    @pytest.mark.parametrize(
        "halfwidth, end, step", [(10 / math.e - 2, 2, -1), (5 - 10 / math.e, 5, 1)]
    )
    def test_a_count_on_the_window_end_is_inside_for_both_checks(self, halfwidth, end, step):
        d = 10
        assert end in (d / math.e - halfwidth, d / math.e + halfwidth)
        star = Graph.from_edges(d + 1, [(0, i) for i in range(1, d + 1)])
        where = np.arange(d + 1) == 0
        for count, inside in ((end, True), (end + step, False)):
            # vertex 0 has `count` neighbors in T; its list meets the slack
            # D + 1 - count with equality, and it has no leftover neighbor
            t_mask = np.arange(d + 1) <= count
            t_mask[0] = False
            tau = np.arange(1, d + 2)
            assert _bad_vertices(star, tau, t_mask, where, d, halfwidth, 0.0)[0] != inside
            args = (np.array([0]), np.array([count]), np.array([0]), np.array([d + 1 - count]))
            if inside:
                _check_hand_off(*args, d, halfwidth, 0.0)
            else:
                with pytest.raises(VerificationFailed, match="^vertex 0 escaped the accepted"):
                    _check_hand_off(*args, d, halfwidth, 0.0)

    @pytest.mark.parametrize("pair_min", [0.0, 1.0, 2.0])
    def test_matches_the_per_vertex_reference(self, pair_min):
        rng = np.random.default_rng(int(pair_min) + 40)
        graphs = [
            cycle_graph(6),
            Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
            gen_random_regular(12, 3, seed=1),
            gen_random_regular(16, 5, seed=2),
            gen_random_regular(20, 6, seed=3),
            # irregular, with isolated vertices
            Graph.from_edges(14, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 5), (5, 6), (7, 8)]),
        ]
        outcomes = set()
        for g in graphs:
            d = g.max_degree
            for trial in range(25):
                # a small palette makes equal-label pairs common
                tau = rng.integers(1, int(rng.integers(2, d + 3)), size=g.n)
                where = rng.random(g.n) < 0.7
                w = float(rng.uniform(0.2, d / 2))
                got = _bad_vertices(g, tau, tranquil_mask(g, tau), where, d, w, pair_min)
                want = reference_bad_event(g, tau, np.flatnonzero(where), w, pair_min)
                assert got[~where].sum() == 0
                assert {v: bool(got[v]) for v in want} == want
                outcomes.update(want.values())
        assert outcomes == {False, True}


class TestConditionedLabeling:
    def test_empty_vstar_single_draw(self):
        g = complete_graph(4)
        tau, t_mask = label(g, [], seed=5)
        assert tau.shape == (4,)
        assert set(tau) <= set(range(1, 6))
        # no sparse vertex: attempt 0's labels and its T
        assert np.array_equal(tau, keyed_rng(5, _LABEL_TAG, 0).integers(1, 6, size=4))
        assert np.array_equal(t_mask, tranquil_mask(g, tau))

    def test_acceptance_rate_at_desk_scale(self):
        g = gen_random_regular(500, 50, seed=21)
        runs = 30
        for s in range(runs):
            tau, _ = label(g, range(500), seed=s, max_tries=200)
            assert tau.shape == (500,)
        # acceptance target is 50%; just require the default window to make
        # the conditioning routinely reachable
        # (every call above succeeded within 200 tries)

    def test_conditioning_enforces_window(self):
        g = gen_random_regular(100, 16, seed=2)
        d = 16
        w = default_window_halfwidth(d, 100)
        tau, t_mask = label(g, range(100), seed=3)
        every = np.ones(100, dtype=bool)
        assert not _bad_vertices(g, tau, t_mask, every, d, w, 0.0).any()

    def test_adversarial_theta_prime_exhausts(self):
        # a pair threshold of 2 on a 5-cycle, which has at most one
        # candidate pair per vertex, so rejection can never accept.
        g = cycle_graph(5)
        with pytest.raises(MaxTriesExceeded):
            sample_conditioned_labeling(
                g, range(5), seed=0, window_halfwidth=5.0, pair_min=2.0, max_tries=50
            )

    def test_any_iterable_of_ids_gives_the_same_labeling(self):
        # sparse_phase_color hands on Decomposition.sparse_ids(), an array
        g = gen_random_regular(60, 8, seed=4)
        ids = range(0, 60, 3)
        want = label(g, ids, seed=78)
        for vstar in (frozenset(ids), list(ids), np.array(ids), Decomposition(
            frozenset(ids), (), 0.4, 0.001
        ).sparse_ids()):
            got = label(g, vstar, seed=78)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("vstar", [[-1], [3, 60], np.array([5, -2, 70])])
    def test_an_id_outside_the_graph_is_a_value_error(self, vstar):
        # -1 used to mark vertex 59, and 60 raised IndexError
        g = gen_random_regular(60, 8, seed=4)
        stray = min(v for v in np.asarray(vstar).tolist() if not 0 <= v < 60)
        with pytest.raises(ValueError, match=f"^vertex {stray} not in graph of order 60$"):
            label(g, vstar, seed=78)

    def test_deterministic_given_seed(self):
        g = gen_random_regular(60, 8, seed=4)
        a = label(g, range(60), seed=77)
        b = label(g, range(60), seed=77)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_first_try_acceptance_rate(self):
        # calibration targets 50% acceptance of the whole-graph window event
        g = gen_random_regular(500, 50, seed=21)
        ok = 0
        for s in range(60):
            try:
                label(g, range(500), seed=s, max_tries=1)
                ok += 1
            except MaxTriesExceeded:
                pass
        assert ok / 60 >= 0.5

    def test_a_component_without_sparse_vertex_keeps_attempt_0(self):
        # the second cycle has no sparse vertex; in the first, the window
        # 2/e ± 1 rejects a vertex with both neighbors in T, and at seed 4
        # attempt 0 has one
        g = disjoint_union(cycle_graph(6), cycle_graph(6))
        seed = 4
        tau, t_mask = sample_conditioned_labeling(g, range(6), seed, 1.0, 0.0, 1000)
        first = keyed_rng(seed, _LABEL_TAG, 0).integers(1, 4, size=12)
        assert np.array_equal(tau[6:], first[6:])
        assert not np.array_equal(tau[:6], first[:6])
        assert np.array_equal(t_mask, tranquil_mask(g, tau))

    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.sampled_from([(6, 3), (8, 3), (10, 4), (12, 5)]), st.integers(0, 999)),
            min_size=1,
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
        halfwidth=st.floats(1.2, 4.0),
        data=st.data(),
    )
    def test_the_returned_t_is_the_t_of_the_labeling(self, parts, seed, halfwidth, data):
        # T is kept per component from the attempt that accepted it; the
        # union is the T of the labeling those attempts assemble, also for
        # components with no sparse vertex and for no sparse vertex at all
        g, vstar = None, []
        for (n, d), s in parts:
            base = 0 if g is None else g.n
            vstar += [base + v for v in data.draw(st.sets(st.integers(0, n - 1)))]
            h = gen_random_regular(n, d, seed=s)
            g = h if g is None else disjoint_union(g, h)
        tau, t_mask = sample_conditioned_labeling(g, vstar, seed, halfwidth, 0.0, 10_000)
        assert t_mask.dtype == bool
        assert np.array_equal(t_mask, tranquil_mask(g, tau))
        every = np.zeros(g.n, dtype=bool)
        every[vstar] = True
        assert not _bad_vertices(g, tau, t_mask, every, g.max_degree, halfwidth, 0.0).any()


def _decompose_all_sparse(g: Graph) -> Decomposition:
    return sparse_dense_decompose(g, eps_in=0.05)


class TestSparsePhaseColor:
    def test_empty_sparse_set(self):
        d = 16
        g = complete_graph(d + 1)
        dec = sparse_dense_decompose(g, eps_in=0.05)
        assert dec.sparse == frozenset()
        res = sparse_phase_color(g, dec, seed=1)
        assert not res.colors.any()

    def test_proper_and_complete_on_vstar(self):
        g = gen_random_regular(200, 16, seed=6)
        dec = _decompose_all_sparse(g)
        res = sparse_phase_color(g, dec, seed=9)
        coloring = as_dict(res.colors)
        assert set(coloring) == set(dec.sparse)
        assert is_proper(g, coloring)
        assert set(coloring.values()) <= set(range(1, 18))

    def test_t_vertices_keep_their_labels(self):
        g = gen_random_regular(100, 12, seed=7)
        dec = _decompose_all_sparse(g)
        res = sparse_phase_color(g, dec, seed=10)
        for v in res.t_set & dec.sparse:
            assert res.colors[v] == res.labeling[v]

    def test_hand_off_inequalities(self):
        g = gen_random_regular(200, 50, seed=8)
        dec = _decompose_all_sparse(g)
        res = sparse_phase_color(g, dec, seed=12)
        d = 50
        t = res.t_set
        for v in dec.sparse - t:
            in_t = sum(1 for w in g.neighbors(v) if w in t)
            assert abs(in_t - d / math.e) <= res.window_halfwidth + 1e-9
            rest_deg = sum(1 for w in g.neighbors(v) if w in dec.sparse and w not in t)
            assert rest_deg <= d - in_t
            n_list = d + 1 - len({int(res.labeling[w]) for w in g.neighbors(v) if w in t})
            assert n_list >= d + 1 - in_t

    def test_matches_reference_greedy(self):
        cases = [
            (gen_random_regular(200, 16, seed=6), Params()),
            # sparse vertices next to dense ones: labels on T \ V* ban colors
            (swapped_double_clique(17), Params(theta=0.05)),
            # about 630 leftovers
            (gen_random_regular(1000, 16, seed=6), Params()),
        ]
        for g, params in cases:
            dec = sparse_dense_decompose(g, params.eps, params.theta)
            for seed in range(5):
                res = sparse_phase_color(g, dec, seed, params)
                assert as_dict(res.colors) == reference_slack_greedy(g, dec, res, seed)

    def test_labeling_escaping_the_window_is_caught(self, monkeypatch):
        # one label everywhere: T is empty, so |N_v ∩ T| = 0, far below
        # D/e = 18.4 at D = 50
        g = gen_random_regular(100, 50, seed=3)
        dec = _decompose_all_sparse(g)
        monkeypatch.setattr(
            sparse_phase,
            "sample_conditioned_labeling",
            lambda *a: (np.ones(g.n, dtype=np.int64), np.zeros(g.n, dtype=bool)),
        )
        with pytest.raises(VerificationFailed, match="vertex 0 escaped the accepted window"):
            sparse_phase_color(g, dec, seed=0)

    def test_improper_labeling_on_t_is_caught(self, monkeypatch):
        # a T that claims every vertex while all labels agree
        g = gen_random_regular(100, 50, seed=3)
        dec = _decompose_all_sparse(g)
        monkeypatch.setattr(
            sparse_phase,
            "sample_conditioned_labeling",
            lambda *a: (np.ones(g.n, dtype=np.int64), np.ones(g.n, dtype=bool)),
        )
        with pytest.raises(
            VerificationFailed, match=r"labeling restricted to T is not proper: edge \(\d+,\d+\) has both ends colored 1"
        ):
            sparse_phase_color(g, dec, seed=0)

    def test_every_sample_checks_t_and_the_final_coloring(self, monkeypatch):
        # the greedy cannot produce a conflict, so the final check is shown
        # to run on the returned colors rather than to fire
        g = gen_random_regular(100, 12, seed=7)
        dec = _decompose_all_sparse(g)
        seen = []
        real = sparse_phase.check_proper

        def spy(g, colors, **kw):
            seen.append((kw["what"], np.array(colors)))
            real(g, colors, **kw)

        monkeypatch.setattr(sparse_phase, "check_proper", spy)
        for seed in range(3):
            seen.clear()
            res = sparse_phase_color(g, dec, seed=seed)
            assert [w for w, _ in seen] == ["labeling restricted to T", "sparse-phase coloring"]
            assert np.array_equal(seen[1][1], res.colors)

    def test_each_quantity_is_computed_once(self, monkeypatch):
        # per sample: T and its CSR counts once per rejection attempt and
        # nowhere else, the thresholds once, and the two properness checks
        calls: Counter = Counter()  # (name, called inside the rejection?)
        inside = [False]

        def spy(name, rejection=False):
            real = getattr(sparse_phase, name)

            def wrapped(*a, **k):
                calls[name, inside[-1]] += 1
                inside.append(inside[-1] or rejection)
                try:
                    return real(*a, **k)
                finally:
                    inside.pop()

            monkeypatch.setattr(sparse_phase, name, wrapped)

        for name in ("tranquil_mask", "_in_t_counts", "_thresholds", "check_proper", "keyed_rng"):
            spy(name)
        spy("sample_conditioned_labeling", rejection=True)
        cases = [
            (gen_random_regular(100, 12, seed=7), range(4)),
            (complete_graph(17), range(1)),  # no sparse vertex: one attempt
        ]
        samples = 0
        for g, seeds in cases:
            dec = _decompose_all_sparse(g)
            for seed in seeds:
                sparse_phase_color(g, dec, seed=seed)
                samples += 1
        # inside the rejection, keyed_rng draws each attempt's labels
        attempts = calls["keyed_rng", True]
        assert attempts > samples  # some sample took more than one attempt
        assert calls == Counter({
            ("sample_conditioned_labeling", False): samples,
            ("keyed_rng", True): attempts,
            ("tranquil_mask", True): attempts,
            ("_in_t_counts", True): attempts,
            ("keyed_rng", False): samples,  # the greedy's uniforms
            ("_thresholds", False): samples,
            ("check_proper", False): 2 * samples,
        })

    def test_each_hand_off_invariant_fires(self):
        # D = 10, window 2 around 3.68: in_t = 4 is inside, and the lists
        # below meet every inequality with equality
        vs, d, window = np.array([7, 9]), 10, 2.0
        in_t, d_rest, n_list = np.array([4, 4]), np.array([6, 6]), np.array([7, 7])
        _check_hand_off(vs, in_t, d_rest, n_list, d, window, 0.0)
        _check_hand_off(vs, in_t, d_rest, n_list + 1, d, window, 1.0)
        for t, r, nl, pair_min, what in [
            (np.array([4, 7]), d_rest, n_list, 0.0, "escaped the accepted window"),
            (in_t, np.array([6, 7]), n_list, 0.0, "leftover degree exceeding"),
            (in_t, d_rest, np.array([7, 6]), 0.0, "hand-off list shorter"),
            (in_t, d_rest, np.array([8, 7]), 1.0, "hand-off list shorter"),
        ]:
            with pytest.raises(VerificationFailed, match=f"vertex 9 .*{what}"):
                _check_hand_off(vs, t, r, nl, d, window, pair_min)

    def test_requires_regular_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        dec = Decomposition(frozenset(range(3)), (), eps=0.4, theta=0.001)
        with pytest.raises(ValueError):
            sparse_phase_color(g, dec, seed=0)

    def test_componentwise_determinism(self):
        # the restriction of a run on g1 ⊔ g2 to the prefix component equals
        # a run on g1 alone with the same seed
        g1 = gen_random_regular(40, 6, seed=13)
        g2 = gen_random_regular(30, 6, seed=14)
        g = disjoint_union(g1, g2)
        dec = sparse_dense_decompose(g, eps_in=0.05)
        dec1 = sparse_dense_decompose(g1, eps_in=0.05)
        assert dec.sparse == frozenset(range(70))
        for seed in (0, 1, 2):
            full = sparse_phase_color(g, dec, seed=seed)
            alone = sparse_phase_color(g1, dec1, seed=seed)
            assert np.array_equal(full.colors[:40], alone.colors)


def _irregular_sparse(seed: int) -> Graph:
    """gen_random_regular(100, 40, seed) minus a seeded matching of 20 edges:
    regularize builds 42 copies, 4,200 vertices, all of them sparse."""
    edges = list(gen_random_regular(100, 40, seed=seed).edges())
    dropped, used = set(), set()
    for i in np.random.default_rng(seed).permutation(len(edges)).tolist():
        u, v = edges[i]
        if u not in used and v not in used:
            dropped.add((u, v))
            used |= {u, v}
            if len(dropped) == 20:
                break
    return Graph.from_edges(100, set(edges) - dropped)


class TestStop:
    @pytest.mark.parametrize(
        "make, params",
        [
            (_irregular, Params()),
            (lambda: _irregular_sparse(5), Params()),
            # a fixed window narrower than the calibrated 0.51 * D
            (_irregular, Params(t_window=0.4)),
        ],
        ids=["irregular", "irregular-sparse", "fixed-window"],
    )
    def test_a_pipeline_sample_is_the_prefix_of_the_full_run(self, make, params):
        g = make()
        pipe = Pipeline(g, params)
        assert pipe.dec.clusters == () and pipe.reg.n > g.n
        for seed in range(20):
            full = sparse_phase_color(pipe.reg, pipe.dec, seed, params)
            assert np.array_equal(pipe.sample(seed).coloring, full.colors[: g.n])

    def test_colors_from_stop_on_are_zero(self):
        g = gen_random_regular(200, 16, seed=6)
        dec = _decompose_all_sparse(g)
        full = sparse_phase_color(g, dec, seed=3)
        assert np.array_equal(sparse_phase_color(g, dec, seed=3, stop=g.n).colors, full.colors)
        for stop in (0, 1, 77, 199):
            res = sparse_phase_color(g, dec, seed=3, stop=stop)
            assert not res.colors[stop:].any()
            assert np.array_equal(res.colors[:stop], full.colors[:stop])
            assert np.array_equal(res.t_mask, full.t_mask)

    @pytest.mark.parametrize("stop", [-1, 201])
    def test_a_stop_outside_the_graph_is_a_value_error(self, stop):
        g = gen_random_regular(200, 16, seed=6)
        with pytest.raises(ValueError, match=f"stop {stop} outside 0..200"):
            sparse_phase_color(g, _decompose_all_sparse(g), seed=0, stop=stop)

    @pytest.mark.parametrize("n", [1, 99, 100, 4200])
    def test_the_greedy_uniforms_are_a_stream_prefix(self, n):
        # sparse_phase_color draws `stop` uniforms, not n: the colors below
        # stop are the full run's only while a shorter draw is a prefix of
        # a longer one, which a numpy change could break
        for seed in (0, 555, 7373):
            full = keyed_rng(seed, _GREEDY_TAG).random(n)
            for k in sorted({0, 1, n // 3, n - 1, n}):
                assert np.array_equal(keyed_rng(seed, _GREEDY_TAG).random(k), full[:k])

    def test_edges_below_stop_are_the_filtered_edge_arrays(self):
        g = _irregular()
        eu, ev = g.edge_arrays()
        for stop in (0, 1, 17, 59, 60):
            below = (eu < stop) & (ev < stop)
            u, v = _edges_below(g, stop)
            assert np.array_equal(u, eu[below]) and np.array_equal(v, ev[below])

    def test_a_clash_below_stop_names_the_whole_graph_edge(self, monkeypatch):
        # a greedy that gives the later end of its first leftover pair the
        # earlier end's pick: the check over the edges below stop must fail
        # with the message of a check over every edge
        pipe = Pipeline(_irregular())
        stop = pipe.original.n
        real = sparse_phase.slack_greedy

        def clashing(leftovers, allowed, earlier, later, uniforms):
            picked = real(leftovers, allowed, earlier, later, uniforms)
            picked[later[0]] = picked[earlier[0]]
            return picked

        seen = []
        real_check = sparse_phase.check_proper

        def spy(g, colors, **kw):
            seen.append(np.array(colors))
            real_check(g, colors, **kw)

        monkeypatch.setattr(sparse_phase, "slack_greedy", clashing)
        monkeypatch.setattr(sparse_phase, "check_proper", spy)
        for seed in range(3):
            with pytest.raises(VerificationFailed) as got:
                sparse_phase_color(pipe.reg, pipe.dec, seed, stop=stop)
            with pytest.raises(VerificationFailed) as want:
                check_proper(pipe.reg, seen[-1], what="sparse-phase coloring")
            assert str(got.value) == str(want.value)

    def test_a_pipeline_clash_names_the_whole_graph_edge(self, monkeypatch):
        # a sparse phase whose coloring repeats a color across one input
        # edge: the pipeline's check over the input's edges must fail with
        # the message of a check over every edge of the regularized graph
        g = _irregular()
        pipe = Pipeline(g)
        real = clusters.sparse_phase_color
        planted = []

        def clashing(*a, **k):
            res = real(*a, **k)
            u, v = next((u, v) for u, v in g.edges() if u > 30)
            res.colors[v] = res.colors[u]
            planted.append(res.colors.copy())
            return res

        monkeypatch.setattr(clusters, "sparse_phase_color", clashing)
        for seed in range(3):
            with pytest.raises(VerificationFailed) as got:
                pipe.sample(seed)
            with pytest.raises(VerificationFailed) as want:
                check_proper(pipe.reg, planted[-1], what="pipeline coloring")
            assert str(got.value) == str(want.value)

    def test_a_t_clash_past_stop_is_caught(self, monkeypatch):
        # an accepted labeling on the first copy and one label on the whole
        # second copy, all of it claimed for T: every clash lies past stop,
        # and the check of the labels on T still reads the whole graph
        g1 = gen_random_regular(100, 50, seed=3)
        g = disjoint_union(g1, g1)
        dec = _decompose_all_sparse(g)
        window, pair_min = _thresholds(50, len(dec.sparse), Params())
        tau, t_mask = sample_conditioned_labeling(g, dec.sparse_ids(), 0, window, pair_min, 100)
        tau[100:], t_mask[100:] = 1, True
        monkeypatch.setattr(sparse_phase, "sample_conditioned_labeling", lambda *a: (tau, t_mask))
        u, v = next(g1.edges())
        with pytest.raises(
            VerificationFailed,
            match=rf"labeling restricted to T is not proper: edge \({u + 100},{v + 100}\)",
        ):
            sparse_phase_color(g, dec, seed=0, stop=100)

    @pytest.mark.parametrize("clustered", [False, True], ids=["cluster-free", "clustered"])
    def test_the_checks_read_only_the_edges_that_can_clash(self, monkeypatch, clustered):
        # per sample: the labels on T are checked on every edge; without a
        # cluster the sparse-phase and pipeline checks read at most the
        # input's edges, and with one (stop is the whole regularized graph)
        # every edge
        if clustered:
            edges = list(_clustered().edges())
            g, params = Graph.from_edges(_clustered().n, edges[:-1]), Params(theta=0.05)
        else:
            g, params = _irregular(), Params()
        pipe = Pipeline(g, params)
        assert bool(pipe.dec.clusters) == clustered and pipe.reg.n > g.n
        whole = pipe.reg.edge_count()
        counted = []

        def spy(real):
            def wrapped(h, colors, edges=None, what="coloring"):
                counted.append((what, h.edge_count() if edges is None else len(edges[0])))
                real(h, colors, edges=edges, what=what)

            return wrapped

        monkeypatch.setattr(sparse_phase, "check_proper", spy(sparse_phase.check_proper))
        monkeypatch.setattr(clusters, "check_proper", spy(clusters.check_proper))
        for seed in range(3):
            counted.clear()
            pipe.sample(seed)
            got = [(w, m) for w, m in counted if w not in ("cluster coloring", "pair process coloring")]
            assert [w for w, _ in got] == [
                "labeling restricted to T", "sparse-phase coloring", "pipeline coloring"
            ]
            assert got[0][1] == whole
            for _, m in got[1:]:
                assert m == whole if clustered else m <= g.edge_count()

    def test_a_leftover_past_stop_escaping_the_window_is_caught(self, monkeypatch):
        # an accepted labeling on the first copy, one label everywhere on
        # the second: every vertex of the second copy is an uncolored
        # leftover with |N_v ∩ T| = 0, far below D/e = 18.4 at D = 50.  A
        # stop of 100 leaves only the re-count of the uncolored leftovers to
        # catch it, and every stop names vertex 100, as the full run does
        g1 = gen_random_regular(100, 50, seed=3)
        g = disjoint_union(g1, g1)
        dec = _decompose_all_sparse(g)
        window, pair_min = _thresholds(50, len(dec.sparse), Params())
        tau, t_mask = sample_conditioned_labeling(g, dec.sparse_ids(), 0, window, pair_min, 100)
        tau[100:], t_mask[100:] = 1, False
        monkeypatch.setattr(sparse_phase, "sample_conditioned_labeling", lambda *a: (tau, t_mask))
        for stop in (100, 150, None):
            with pytest.raises(VerificationFailed, match="vertex 100 escaped the accepted window"):
                sparse_phase_color(g, dec, seed=0, stop=stop)


def _greedy_input(rng, k: int, edges, d: int, p_allowed: float = 1.0):
    """(leftovers, allowed, earlier, later, uniforms) for k leftovers with
    increasing vertex ids, the given (earlier, later) position pairs, and
    each color of 1..D+1 allowed with probability p_allowed."""
    leftovers = np.cumsum(rng.integers(1, 4, size=k))
    allowed = rng.random((k, d + 2)) < p_allowed
    allowed[:, 0] = False
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return leftovers, allowed, pairs[:, 0], pairs[:, 1], rng.random(k)


def _random_edges(rng, k: int, m: int) -> set[tuple[int, int]]:
    if k < 2:
        return set()
    a, b = rng.integers(k, size=(2, m))
    return {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist()) if x != y}


def _outcome(args):
    try:
        return slack_greedy(*args)
    except StuckVertex as exc:
        return str(exc)


def _rule(leftovers, allowed, earlier, later, uniforms):
    """The slack greedy, one position at a time from the arrays as given:
    position i's list is its allowed columns less the picks of the earlier
    ends of its edges, and it takes the floor(uniforms[i] * |list|)-th."""
    picked = []
    for i in range(len(leftovers)):
        used = {picked[j] for j in earlier[later == i].tolist()}
        avail = [c for c in np.flatnonzero(allowed[i]).tolist() if c not in used]
        if not avail:
            return f"slack greedy stuck at vertex {leftovers[i]}"
        picked.append(avail[int(uniforms[i] * len(avail))])
    return np.array(picked, dtype=np.int64)


def _assert_follows_rule(args):
    allowed = args[1].copy()
    got = _outcome(args)
    assert np.array_equal(args[1], allowed)  # the greedy does not write its input
    want = _rule(*args)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    return got


class TestSlackGreedy:
    def test_no_leftovers(self):
        args = _greedy_input(np.random.default_rng(0), 0, set(), 4)
        assert len(_assert_follows_rule(args)) == 0

    @pytest.mark.parametrize("k", [1, 50, 600])
    def test_no_edges(self, k):
        rng = np.random.default_rng(k)
        _, allowed, _, _, u = args = _greedy_input(rng, k, set(), 10, p_allowed=0.5)
        allowed[:, 1] = True  # no row is empty
        picked = _assert_follows_rule(args)
        for i in range(k):
            avail = np.flatnonzero(allowed[i])
            assert picked[i] == avail[int(u[i] * len(avail))]

    @pytest.mark.parametrize("k", [2, 40, 600])
    def test_chain(self, k):
        # consecutive positions must differ
        rng = np.random.default_rng(k)
        args = _greedy_input(rng, k, {(i, i + 1) for i in range(k - 1)}, 1)
        picked = _assert_follows_rule(args)
        assert (picked[1:] != picked[:-1]).all()

    @pytest.mark.parametrize("k", [30, 600])
    def test_star(self, k):
        rng = np.random.default_rng(k)
        # centre first: every leaf avoids its color
        picked = _assert_follows_rule(_greedy_input(rng, k, {(0, i) for i in range(1, k)}, 3))
        assert picked[0] not in picked[1:]
        # centre last: its list must lose every leaf color, so give it room
        args = _greedy_input(rng, k, {(i, k - 1) for i in range(k - 1)}, k)
        picked = _assert_follows_rule(args)
        assert picked[-1] not in picked[:-1]

    @pytest.mark.parametrize("k", [100, 511, 512, 900])
    def test_random_inputs(self, k):
        rng = np.random.default_rng(k)
        stuck = 0
        for trial in range(12):
            d = int(rng.integers(2, 40))
            edges = _random_edges(rng, k, int(rng.integers(0, 8 * k)))
            p = 1.0 if trial % 2 else float(rng.uniform(0.5, 1.0))
            stuck += isinstance(_assert_follows_rule(_greedy_input(rng, k, edges, d, p)), str)
        assert 0 < stuck < 12  # both outcomes are exercised

    def test_the_first_stuck_position_is_named(self):
        # the chain 0 -> 1 -> 2 -> 3 with lists {3}, {2}, {1}, {1} leaves 3
        # stuck by its predecessor's pick, and 5 has an empty list; 3 comes
        # first
        rng = np.random.default_rng(7)
        leftovers, allowed, earlier, later, u = _greedy_input(
            rng, 6, {(0, 1), (1, 2), (2, 3)}, 4
        )
        allowed[[0, 1, 2, 3, 5]] = False
        allowed[[0, 1, 2, 3], [3, 2, 1, 1]] = True
        args = (leftovers, allowed, earlier, later, u)
        with pytest.raises(StuckVertex, match=f"stuck at vertex {leftovers[3]}$"):
            slack_greedy(*args)
        # with 3 freed, 5 is the first stuck one
        allowed[3, 2] = True
        with pytest.raises(StuckVertex, match=f"stuck at vertex {leftovers[5]}$"):
            slack_greedy(*args)


def test_concentration_at_moderate_scale():
    # fluctuations of |N_v ∩ T| are binomial-like; the calibrated window is
    # several sigma wide, so nearly every (vertex, labeling) pair lands inside
    g = gen_random_regular(200, 30, seed=15)
    d = 30
    p = (1 - 1 / (d + 1)) ** d
    inside = 0
    total = 0
    for s in range(30):
        rng = np.random.default_rng(s)
        tau = rng.integers(1, d + 2, size=200)
        mask = tranquil_mask(g, tau)
        for v in range(200):
            cnt = sum(1 for w in g.neighbors(v) if mask[w])
            total += 1
            if abs(cnt - d * p) <= 3.5 * math.sqrt(d * p * (1 - p)):
                inside += 1
    assert inside / total > 0.99
