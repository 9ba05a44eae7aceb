from __future__ import annotations

import math

import numpy as np
import pytest

from spreadcolor import sparse_phase
from spreadcolor.decompose import Decomposition, sparse_dense_decompose
from spreadcolor.errors import MaxTriesExceeded, StuckVertex, VerificationFailed
from spreadcolor.graphs import Graph, complete_graph, disjoint_union, gen_random_regular
from spreadcolor.params import Params
from spreadcolor.sparse_phase import (
    _GREEDY_TAG,
    _LEVEL_MIN_LEFTOVERS,
    _bad_vertices,
    _check_hand_off,
    _greedy_levels,
    _greedy_sequential,
    _in_t_counts,
    _pair_count,
    _rng,
    default_window_halfwidth,
    sample_conditioned_labeling,
    sparse_phase_color,
    tranquil_mask,
)
from oracles import is_proper
from test_clusters import swapped_double_clique


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
        nbrs = sorted(set(g.adj[v]))
        p = 0
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if tau[u] != tau[w] or w in g.adj[u]:
                    continue
                zone = (set(g.adj[v]) | set(g.adj[u]) | set(g.adj[w])) - {u, w}
                p += all(tau[z] != tau[u] for z in zone)
        bad[v] = abs(c - d / math.e) > window_halfwidth or p < pair_min
    return bad


def _literal_bad(g: Graph, tau: np.ndarray, theta_prime: float) -> np.ndarray:
    """The literal bad event on every vertex: window (e^-1 ± theta'/3)D and
    pair_min theta'*D."""
    d = g.max_degree
    w = theta_prime / 3.0 * d
    every = np.ones(g.n, dtype=bool)
    return _bad_vertices(g, tau, every, d / math.e - w, d / math.e + w, theta_prime * d)


def reference_slack_greedy(g: Graph, dec: Decomposition, res, seed: int) -> dict[int, int]:
    """The per-vertex dict/set slack greedy: labels kept on T ∩ V*, then each
    leftover in ascending order drops the colors of its T-neighbors and of
    its already colored leftover neighbors."""
    tau, t = res.labeling, res.t_mask
    sigma = {v: int(tau[v]) for v in dec.sparse if t[v]}
    uniforms = _rng(seed, _GREEDY_TAG).random(g.n)
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
        where = np.array([False, True, False, True, False])
        assert (_bad_vertices(g, tau, where, 0.0, 0.5, 1.0) == where).all()
        # the pair clause never runs off `where`
        assert not _bad_vertices(g, tau, np.zeros(5, dtype=bool), 0.0, 9.0, 1.0).any()

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
                got = _bad_vertices(g, tau, where, d / math.e - w, d / math.e + w, pair_min)
                want = reference_bad_event(g, tau, np.flatnonzero(where), w, pair_min)
                assert got[~where].sum() == 0
                assert {v: bool(got[v]) for v in want} == want
                outcomes.update(want.values())
        assert outcomes == {False, True}


class TestConditionedLabeling:
    def test_empty_vstar_single_draw(self):
        g = complete_graph(4)
        tau = sample_conditioned_labeling(g, [], theta_prime=0.001, seed=5)
        assert tau.shape == (4,)
        assert set(tau) <= set(range(1, 6))

    def test_acceptance_rate_at_desk_scale(self):
        g = gen_random_regular(500, 50, seed=21)
        params = Params()
        tries = 0
        runs = 30
        for s in range(runs):
            tau = sample_conditioned_labeling(
                g, range(500), params.theta_prime_value(), seed=s, max_tries=200
            )
            assert tau.shape == (500,)
        # acceptance target is 50%; just require the default window to make
        # the conditioning routinely reachable
        # (every call above succeeded within 200 tries)

    def test_conditioning_enforces_window(self):
        g = gen_random_regular(100, 16, seed=2)
        d = 16
        w = default_window_halfwidth(d, 100, 0.5)
        tau = sample_conditioned_labeling(g, range(100), 1e-5, seed=3)
        every = np.ones(100, dtype=bool)
        assert not _bad_vertices(g, tau, every, d / math.e - w, d / math.e + w, 0.0).any()

    def test_adversarial_theta_prime_exhausts(self):
        # theta' = 1 wants |P_v| >= D pairs; a 5-cycle has at most one
        # candidate pair per vertex, so rejection can never accept.
        g = cycle_graph(5)
        with pytest.raises(MaxTriesExceeded):
            sample_conditioned_labeling(
                g, range(5), theta_prime=1.0, seed=0, max_tries=50,
                window_halfwidth=5.0, pair_min=2.0,
            )

    def test_deterministic_given_seed(self):
        g = gen_random_regular(60, 8, seed=4)
        a = sample_conditioned_labeling(g, range(60), 1e-4, seed=77)
        b = sample_conditioned_labeling(g, range(60), 1e-4, seed=77)
        assert np.array_equal(a, b)

    def test_first_try_acceptance_rate(self):
        # calibration targets 50% acceptance of the whole-graph window event
        g = gen_random_regular(500, 50, seed=21)
        params = Params()
        ok = 0
        for s in range(60):
            try:
                sample_conditioned_labeling(
                    g, range(500), params.theta_prime_value(), seed=s, max_tries=1
                )
                ok += 1
            except MaxTriesExceeded:
                pass
        assert ok / 60 >= 0.5


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
            # about 630 leftovers: the level path
            (gen_random_regular(1000, 16, seed=6), Params()),
        ]
        for g, params in cases:
            dec = sparse_dense_decompose(g, params.eps, params.theta)
            for seed in range(5):
                res = sparse_phase_color(g, dec, seed, params)
                assert as_dict(res.colors) == reference_slack_greedy(g, dec, res, seed)
        assert len(dec.sparse - res.t_set) >= _LEVEL_MIN_LEFTOVERS

    def test_leftover_count_selects_the_greedy(self, monkeypatch):
        ran = []
        for f in (_greedy_levels, _greedy_sequential):
            monkeypatch.setattr(
                sparse_phase, f.__name__, lambda *a, f=f: ran.append(f.__name__) or f(*a)
            )
        for n, want in ((200, "_greedy_sequential"), (1000, "_greedy_levels")):
            g = gen_random_regular(n, 16, seed=6)
            ran.clear()
            sparse_phase_color(g, _decompose_all_sparse(g), seed=0)
            assert ran == [want]

    def test_labeling_escaping_the_window_is_caught(self, monkeypatch):
        # one label everywhere: T is empty, so |N_v ∩ T| = 0, far below
        # D/e = 18.4 at D = 50
        g = gen_random_regular(100, 50, seed=3)
        dec = _decompose_all_sparse(g)
        monkeypatch.setattr(
            sparse_phase, "sample_conditioned_labeling", lambda *a, **k: np.ones(g.n, dtype=np.int64)
        )
        with pytest.raises(VerificationFailed, match="vertex 0 escaped the accepted window"):
            sparse_phase_color(g, dec, seed=0)

    def test_improper_labeling_on_t_is_caught(self, monkeypatch):
        # a T that claims every vertex while all labels agree
        g = gen_random_regular(100, 50, seed=3)
        dec = _decompose_all_sparse(g)
        monkeypatch.setattr(
            sparse_phase, "sample_conditioned_labeling", lambda *a, **k: np.ones(g.n, dtype=np.int64)
        )
        monkeypatch.setattr(sparse_phase, "tranquil_mask", lambda g, tau: np.ones(g.n, dtype=bool))
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


def _outcome(greedy, args):
    try:
        return greedy(*args)
    except StuckVertex as exc:
        return str(exc)


def _assert_same_outcome(args):
    allowed = args[1].copy()
    seq, lev = _outcome(_greedy_sequential, args), _outcome(_greedy_levels, args)
    assert np.array_equal(args[1], allowed)  # neither greedy writes its input
    if isinstance(seq, str):
        assert lev == seq
    else:
        assert lev.dtype == seq.dtype == np.int64
        assert np.array_equal(lev, seq)
    return seq


class TestGreedyPaths:
    """The level path against the sequential loop on the same arrays."""

    def test_no_leftovers(self):
        args = _greedy_input(np.random.default_rng(0), 0, set(), 4)
        assert len(_assert_same_outcome(args)) == 0

    @pytest.mark.parametrize("k", [1, 50, 600])
    def test_no_edges(self, k):
        rng = np.random.default_rng(k)
        _, allowed, _, _, u = args = _greedy_input(rng, k, set(), 10, p_allowed=0.5)
        allowed[:, 1] = True  # no row is empty
        picked = _assert_same_outcome(args)
        for i in range(k):
            avail = np.flatnonzero(allowed[i])
            assert picked[i] == avail[int(u[i] * len(avail))]

    @pytest.mark.parametrize("k", [2, 40, 600])
    def test_chain(self, k):
        # one vertex per level: consecutive positions must differ
        rng = np.random.default_rng(k)
        args = _greedy_input(rng, k, {(i, i + 1) for i in range(k - 1)}, 1)
        picked = _assert_same_outcome(args)
        assert (picked[1:] != picked[:-1]).all()

    @pytest.mark.parametrize("k", [30, 600])
    def test_star(self, k):
        rng = np.random.default_rng(k)
        # centre first: one level of k - 1 leaves after it
        _assert_same_outcome(_greedy_input(rng, k, {(0, i) for i in range(1, k)}, 3))
        # centre last: its list must lose every leaf color, so give it room
        args = _greedy_input(rng, k, {(i, k - 1) for i in range(k - 1)}, k)
        picked = _assert_same_outcome(args)
        assert picked[-1] not in picked[:-1]

    @pytest.mark.parametrize("k", [100, 511, 512, 900])
    def test_random_inputs(self, k):
        rng = np.random.default_rng(k)
        stuck = 0
        for trial in range(12):
            d = int(rng.integers(2, 40))
            edges = _random_edges(rng, k, int(rng.integers(0, 8 * k)))
            p = 1.0 if trial % 2 else float(rng.uniform(0.5, 1.0))
            stuck += isinstance(_assert_same_outcome(_greedy_input(rng, k, edges, d, p)), str)
        assert 0 < stuck < 12  # both outcomes are exercised

    def test_first_stuck_in_ascending_order_not_in_level_order(self):
        # the chain 0 -> 1 -> 2 -> 3 with lists {3}, {2}, {1}, {1} leaves 3
        # stuck at level 3, while 5 has an empty list and is stuck at level
        # 0; 3 comes first
        rng = np.random.default_rng(7)
        leftovers, allowed, earlier, later, u = _greedy_input(
            rng, 6, {(0, 1), (1, 2), (2, 3)}, 4
        )
        allowed[[0, 1, 2, 3, 5]] = False
        allowed[[0, 1, 2, 3], [3, 2, 1, 1]] = True
        args = (leftovers, allowed, earlier, later, u)
        for greedy in (_greedy_sequential, _greedy_levels):
            with pytest.raises(StuckVertex, match=f"stuck at vertex {leftovers[3]}$"):
                greedy(*args)
        # with 3 freed, the level-0 vertex is the first stuck one
        allowed[3, 2] = True
        for greedy in (_greedy_sequential, _greedy_levels):
            with pytest.raises(StuckVertex, match=f"stuck at vertex {leftovers[5]}$"):
                greedy(*args)

    def test_stuck_vertex_with_stuck_successors(self):
        # 0 has an empty list; its successors see a row the loop never
        # builds, and may be stuck too, but 0 is named
        rng = np.random.default_rng(8)
        k = 600
        edges = {(0, i) for i in range(1, k)} | {(i, i + 1) for i in range(1, 20)}
        leftovers, allowed, earlier, later, u = _greedy_input(rng, k, edges, 2)
        allowed[0] = False
        allowed[1:21] = False
        allowed[1:21, 1] = True
        args = (leftovers, allowed, earlier, later, u)
        with pytest.raises(StuckVertex, match=f"stuck at vertex {leftovers[0]}$"):
            _greedy_levels(*args)
        _assert_same_outcome(args)


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
