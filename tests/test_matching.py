from __future__ import annotations

from collections import Counter, deque
from itertools import combinations
from math import comb

import numpy as np
import pytest

from spreadcolor import matching
from spreadcolor.errors import (
    HypothesisViolated,
    MaxTriesExceeded,
    VerificationFailed,
)
from spreadcolor.matching import (
    Matching,
    kout_subgraph,
    perfect_matching,
    spread_matching_dense,
    spread_X_perfect_matching,
)
from oracles import adjacency_rows, bigraph_from_edges


def complete(nx: int, ny: int) -> np.ndarray:
    return np.ones((nx, ny), dtype=bool)


def matched_pairs(m: Matching) -> dict[int, int]:
    """The matching as {x: y} over its matched x's."""
    return {x: y for x, y in enumerate(m.match.tolist()) if y >= 0}


class TestPerfectMatching:
    def test_complete_square_is_x_perfect(self):
        b = complete(6, 6)
        m = perfect_matching(b)
        assert m.is_x_perfect()
        assert m.match.dtype == np.int64
        m.validate(b)

    def test_star_not_x_perfect(self):
        # one x sees all of Y, the other x's are isolated
        b = bigraph_from_edges(3, 3, [(0, y) for y in range(3)])
        m = perfect_matching(b)
        assert not m.is_x_perfect()
        assert m.match.tolist() == [0, -1, -1]

    def test_deterministic(self):
        b = bigraph_from_edges(4, 4, [(0, 1), (0, 2), (1, 1), (2, 3), (3, 0), (3, 3)])
        assert np.array_equal(perfect_matching(b).match, perfect_matching(b).match)

    def test_maximum_on_known_instance(self):
        # max matching is 2 (x0 and x1 compete for y0)
        b = bigraph_from_edges(3, 3, [(0, 0), (1, 0), (2, 1)])
        assert np.count_nonzero(perfect_matching(b).match >= 0) == 2

    def test_matching_rejects_reused_right_vertex(self):
        with pytest.raises(VerificationFailed):
            Matching(np.array([1, -1, 1]))
        Matching(np.array([-1, 1, -1]))  # unmatched x's share no y

    def test_three_out_almost_always_perfect(self):
        j = 100
        b = complete(j, j)
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(50):
            k = kout_subgraph(b, 3, rng)
            if perfect_matching(k).is_x_perfect():
                hits += 1
        assert hits >= 48


class TestKout:
    def test_k_at_least_max_degree_keeps_everything(self):
        b = bigraph_from_edges(3, 4, [(0, 0), (0, 1), (1, 2), (2, 3)])
        k = kout_subgraph(b, 5, np.random.default_rng(1))
        assert k.dtype == bool and np.array_equal(k, b)

    def test_k1_complete_degree_bounds(self):
        j = 8
        k = kout_subgraph(complete(j, j), 1, np.random.default_rng(2))
        assert (np.count_nonzero(k, axis=1) >= 1).all()
        assert (np.count_nonzero(k, axis=0) >= 1).all()
        assert np.count_nonzero(k) <= 2 * j

    def test_edge_probability_closed_form(self):
        # P(edge kept) = 1 - (1 - k/J)^2 for a complete J x J bigraph
        j, k, trials = 50, 2, 3000
        b = complete(j, j)
        rng = np.random.default_rng(3)
        p_expect = 1 - (1 - k / j) ** 2
        hits = sum(1 for _ in range(trials) if kout_subgraph(b, k, rng)[3, 7])
        se = (p_expect * (1 - p_expect) / trials) ** 0.5
        assert abs(hits / trials - p_expect) < 5 * se

    def test_row_keeps_each_k_subset_with_its_exact_probability(self):
        # Row 0 picks a uniform k-subset A of its neighbors, probability
        # 1/C(deg, k); each neighbor y outside A must then not pick x=0 on
        # its own side, which it does with probability k/deg(y).  So the
        # kept row equals A with probability
        # 1/C(deg, k) * prod_{y in N(0) \ A} (1 - k/deg(y)).
        m = np.ones((5, 6), dtype=bool)
        m[1, [1, 2]] = m[2, 2] = m[3, 4] = m[0, 5] = False
        k, trials = 2, 20_000
        nbrs = np.flatnonzero(m[0])
        deg_y = np.count_nonzero(m, axis=0)
        rng = np.random.default_rng(16)
        seen = Counter(adjacency_rows(kout_subgraph(m, k, rng))[0] for _ in range(trials))
        subsets = list(combinations(nbrs.tolist(), k))
        assert len(subsets) == comb(len(nbrs), k)
        for a in subsets:
            p = 1 / comb(len(nbrs), k)
            for y in set(nbrs.tolist()) - set(a):
                p *= 1 - k / deg_y[y]
            se = (p * (1 - p) / trials) ** 0.5
            assert abs(seen[a] / trials - p) < 5 * se, (a, seen[a] / trials, p)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            kout_subgraph(complete(2, 2), 0, np.random.default_rng(0))


class TestDenseMatching:
    def test_complete_accepts_quickly(self):
        b = complete(100, 100)
        rng = np.random.default_rng(4)
        tries = []
        for _ in range(20):
            m = spread_matching_dense(b, lam=0.1, k=3, rng=rng)
            assert m.is_x_perfect()
            tries.append(m.meta["tries"])
        assert sum(t == 1 for t in tries) >= 18  # acceptance >= 90%

    def test_complete_minus_perfect_matching(self):
        i = 50
        edges = [(x, y) for x in range(i) for y in range(i) if x != y]
        b = bigraph_from_edges(i, i, edges)
        m = spread_matching_dense(b, lam=0.1, k=3, rng=np.random.default_rng(5))
        assert m.is_x_perfect()
        assert (m.match != np.arange(i)).all()

    def test_low_degree_vertex_rejected(self):
        i = 20
        edges = [(x, y) for x in range(i) for y in range(i) if x > 0]
        edges.append((0, 0))
        b = bigraph_from_edges(i, i, edges)
        with pytest.raises(HypothesisViolated):
            spread_matching_dense(b, lam=0.1, k=3, rng=np.random.default_rng(6))

    def test_lambda_guard(self):
        b = complete(10, 10)
        with pytest.raises(HypothesisViolated):
            spread_matching_dense(b, lam=0.5, k=3, rng=np.random.default_rng(7))
        # the ceiling is 1/4, inclusive
        spread_matching_dense(b, lam=0.25, k=3, rng=np.random.default_rng(7))
        with pytest.raises(HypothesisViolated, match="^lambda = 0.2600 exceeds lambda_max = 0.25$"):
            spread_matching_dense(b, lam=0.26, k=3, rng=np.random.default_rng(7))

    def test_unequal_parts_rejected(self):
        with pytest.raises(HypothesisViolated):
            spread_matching_dense(
                complete(3, 4), lam=0.1, k=2, rng=np.random.default_rng(8)
            )

    def test_trivial_instance(self):
        b = bigraph_from_edges(1, 1, [(0, 0)])
        m = spread_matching_dense(b, lam=0.0, k=1, rng=np.random.default_rng(9))
        assert m.match.tolist() == [0]

    def test_max_tries_exceeded(self):
        # with k=1 a 4x4 one-out draw frequently misses a perfect matching;
        # find a seed whose first draw fails and allow only one try
        i = 4
        edges = [(x, y) for x in range(i) for y in range(i) if x != y]
        b = bigraph_from_edges(i, i, edges)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = kout_subgraph(b, 1, rng)
            if not perfect_matching(k).is_x_perfect():
                with pytest.raises(MaxTriesExceeded):
                    spread_matching_dense(
                        b, lam=0.25, k=1, rng=np.random.default_rng(seed), max_tries=1
                    )
                return
        pytest.fail("no failing seed found")


class TestKDoubling:
    """spread_matching_dense doubles k, up to K_MAX, after 100 failed
    draws at one k.  perfect_matching is patched so that its first
    `fail` results leave every x unmatched."""

    @staticmethod
    def _patch(monkeypatch, fail: int) -> list[int]:
        ks: list[int] = []
        real_kout, real_match = matching.kout_subgraph, matching.perfect_matching

        def kout(m, k, rng):
            ks.append(k)
            return real_kout(m, k, rng)

        def match(m):
            if len(ks) <= fail:
                return Matching(np.full(len(m), -1))
            return real_match(m)

        monkeypatch.setattr(matching, "kout_subgraph", kout)
        monkeypatch.setattr(matching, "perfect_matching", match)
        return ks

    def test_k_doubles_after_100_failures(self, monkeypatch):
        ks = self._patch(monkeypatch, fail=100)
        b = complete(20, 20)
        m = spread_matching_dense(b, lam=0.1, k=3, rng=np.random.default_rng(30))
        assert m.meta == {"tries": 101, "k": 6}
        assert ks == [3] * 100 + [6]
        assert m.is_x_perfect()
        m.validate(b)

    def test_k_doubles_no_further_than_k_max(self, monkeypatch):
        ks = self._patch(monkeypatch, fail=100)
        m = spread_matching_dense(complete(20, 20), lam=0.1, k=12, rng=np.random.default_rng(31))
        assert m.meta == {"tries": 101, "k": 16}
        assert ks == [12] * 100 + [16]

    def test_k_at_k_max_does_not_double(self, monkeypatch):
        ks = self._patch(monkeypatch, fail=10**9)
        with pytest.raises(MaxTriesExceeded, match=r"in 200 k-out draws \(final k=16\)"):
            spread_matching_dense(complete(20, 20), lam=0.1, k=16, rng=np.random.default_rng(32))
        assert ks == [16] * 200

    @pytest.mark.parametrize("k", [0, 17])
    def test_k_outside_1_to_k_max_is_a_value_error(self, k):
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= 16, got k={k}$"):
            spread_matching_dense(complete(4, 4), lam=0.1, k=k, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("k", [1, 16])
    def test_k_at_either_end_of_1_to_k_max_is_accepted(self, k):
        m = spread_matching_dense(complete(4, 4), lam=0.1, k=k, rng=np.random.default_rng(0))
        assert m.is_x_perfect()
        m.validate(complete(4, 4))

    def test_the_X_perfect_matcher_starts_its_dense_phase_at_K(self, monkeypatch):
        ks = self._patch(monkeypatch, fail=0)
        m = spread_X_perfect_matching(complete(4, 4), z=0.1, rng=np.random.default_rng(0))
        assert (matching.K, matching.K_MAX) == (3, 16)
        assert ks == [matching.K] and m.meta["dense"] == {"tries": 1, "k": matching.K}


def _instance_r_le_0(j: int, big_r: int) -> np.ndarray:
    """Near-complete J x (J+R) bigraph: hypotheses hold, no unpopular colors."""
    return complete(j, j + big_r)


def _instance_r_gt_0(j: int, big_r: int, n_unpop: int, unpop_deg: int) -> np.ndarray:
    """Plant n_unpop unpopular colors of degree unpop_deg; every x misses at
    most R edges so the hypotheses hold with r_x = 0."""
    missing_per_x = {x: 0 for x in range(j)}
    edges = set((x, y) for x in range(j) for y in range(j + big_r))
    drop = j - unpop_deg
    y_cursor = 0
    for u in range(n_unpop):
        y = u  # make colors 0..n_unpop-1 unpopular
        dropped = 0
        while dropped < drop:
            x = y_cursor % j
            y_cursor += 1
            if missing_per_x[x] < big_r and (x, y) in edges:
                edges.discard((x, y))
                missing_per_x[x] += 1
                dropped += 1
    return bigraph_from_edges(j, j + big_r, edges)


class TestXPerfectMatching:
    def test_complete_square_dense_only(self):
        b = complete(40, 40)
        m = spread_X_perfect_matching(b, z=0.05, rng=np.random.default_rng(10))
        assert m.is_x_perfect()
        assert m.meta["branch"] == "dense"

    def test_r_le_0_branch_drops_least_popular(self):
        j = 200
        b = _instance_r_le_0(j, big_r=1)
        m = spread_X_perfect_matching(b, z=0.01, rng=np.random.default_rng(11))
        assert m.is_x_perfect()
        assert m.meta["r"] <= 0

    def test_r_gt_0_branch(self):
        j, big_r = 200, 2
        b = _instance_r_gt_0(j, big_r, n_unpop=3, unpop_deg=99)
        m = spread_X_perfect_matching(b, z=0.01, rng=np.random.default_rng(12))
        assert m.is_x_perfect()
        assert m.meta["branch"] == "greedy+dense"
        assert m.meta["r"] == 1

    @pytest.mark.parametrize("ny", [0, 3])
    def test_no_x_is_the_empty_branch(self, ny):
        rng = np.random.default_rng(18)
        m = spread_X_perfect_matching(complete(0, ny), z=0.1, rng=rng)
        assert m.match.shape == (0,) and m.is_x_perfect()
        assert m.meta == {"branch": "empty"}
        assert rng.bit_generator.state == np.random.default_rng(18).bit_generator.state

    def test_sum_r_hypothesis_violated(self):
        j = 10
        edges = [(x, y) for x in range(j) for y in range(j) if (x + y) % 5 != 0]
        b = bigraph_from_edges(j, j, edges)
        with pytest.raises(HypothesisViolated):
            spread_X_perfect_matching(b, z=0.01, rng=np.random.default_rng(13))

    def test_negative_R_rejected(self):
        b = complete(5, 4)
        with pytest.raises(HypothesisViolated):
            spread_X_perfect_matching(b, z=0.1, rng=np.random.default_rng(14))

    def test_caller_supplied_r_x_checked(self):
        b = complete(10, 10)
        with pytest.raises(HypothesisViolated):
            # claims d(x) >= J + 1, impossible
            spread_X_perfect_matching(
                b, z=0.1, rng=np.random.default_rng(15), r_x=[-1] + [0] * 9
            )


# -- reference implementations on tuple adjacency lists: the matrix code
# must give the same adjacency and consume the same random stream ----------


def _ref_adj_y(nx: int, ny: int, adj_x) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(ny)]
    for x, row in enumerate(adj_x):
        for y in row:
            out[y].append(x)
    return out


def _ref_kout(nx: int, ny: int, adj_x, k: int, rng) -> tuple[tuple[int, ...], ...]:
    """Keyed k-out, one row at a time: each row of degree > k (X rows, then
    Y rows) draws one uniform key per vertex of the other side and keeps
    the k neighbors with the smallest keys."""
    chosen: set[tuple[int, int]] = set()
    for x in range(nx):
        row = adj_x[x]
        if len(row) <= k:
            chosen.update((x, y) for y in row)
        else:
            keys = rng.random(ny)
            chosen.update((x, y) for y in sorted(row, key=lambda y: keys[y])[:k])
    for y, col in enumerate(_ref_adj_y(nx, ny, adj_x)):
        if len(col) <= k:
            chosen.update((x, y) for x in col)
        else:
            keys = rng.random(nx)
            chosen.update((x, y) for x in sorted(col, key=lambda x: keys[x])[:k])
    adj: list[set[int]] = [set() for _ in range(nx)]
    for x, y in chosen:
        adj[x].add(y)
    return tuple(tuple(sorted(s)) for s in adj)


def _random_bigraph(nx: int, ny: int, p: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((nx, ny)) < p


_REFERENCE_CASES = [
    (nx, ny, p, seed)
    for seed, (nx, ny, p) in enumerate(
        [(1, 1, 1.0), (5, 7, 0.5), (12, 12, 0.9), (30, 33, 0.8), (20, 10, 0.3), (0, 4, 1.0), (6, 0, 1.0)]
    )
]


class TestKoutAgainstReference:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("nx, ny, p, seed", _REFERENCE_CASES)
    def test_kout_same_edges_and_same_stream(self, nx, ny, p, seed, k):
        for b in (_random_bigraph(nx, ny, p, seed), complete(nx, ny)):
            for s in range(3):
                new_rng = np.random.default_rng((seed, s))
                ref_rng = np.random.default_rng((seed, s))
                got = kout_subgraph(b, k, new_rng)
                assert adjacency_rows(got) == _ref_kout(nx, ny, adjacency_rows(b), k, ref_rng)
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state


class TestMatchingArray:
    def test_validate_rejects_non_edges(self):
        b = bigraph_from_edges(2, 2, [(0, 0), (1, 1)])
        Matching(np.array([0, 1])).validate(b)
        Matching(np.array([-1, 1])).validate(b)
        with pytest.raises(VerificationFailed, match=r"\(0,1\) is not an edge"):
            Matching(np.array([1, -1])).validate(b)
        with pytest.raises(VerificationFailed, match=r"\(1,0\) is not an edge"):
            Matching(np.array([-1, 0])).validate(b)

    @pytest.mark.parametrize("match", [[0, 2], [-2, 1], [0], [0, 1, -1]])
    def test_validate_rejects_a_y_out_of_range_or_a_wrong_length(self, match):
        # a y of -2 would read the last column, and ny = 2 one past it
        with pytest.raises(VerificationFailed, match=r"does not fit a \(2, 2\) bigraph"):
            Matching(np.array(match)).validate(complete(2, 2))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty_sides(self, n):
        no_x = perfect_matching(np.ones((0, n), dtype=bool))
        assert no_x.match.shape == (0,) and no_x.match.dtype == np.int64
        assert no_x.is_x_perfect()
        no_x.validate(np.ones((0, n), dtype=bool))
        no_y = perfect_matching(np.ones((n, 0), dtype=bool))
        assert no_y.match.tolist() == [-1] * n
        assert no_y.is_x_perfect() == (n == 0)
        no_y.validate(np.ones((n, 0), dtype=bool))
        rng = np.random.default_rng(0)
        assert kout_subgraph(np.ones((0, n), dtype=bool), 2, rng).shape == (0, n)
        assert kout_subgraph(np.ones((n, 0), dtype=bool), 2, rng).shape == (n, 0)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: perfect_matching(m),
            lambda m: kout_subgraph(m, 2, np.random.default_rng(0)),
            lambda m: spread_matching_dense(m, lam=0.1, k=2, rng=np.random.default_rng(0)),
            lambda m: spread_X_perfect_matching(m, z=0.1, rng=np.random.default_rng(0)),
        ],
        ids=["perfect_matching", "kout_subgraph", "spread_matching_dense", "spread_X"],
    )
    def test_a_matrix_that_is_not_2d_is_a_value_error(self, call, shape):
        with pytest.raises(ValueError, match=r"must be 2-D, got shape"):
            call(np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("nx, ny, p, seed", _REFERENCE_CASES)
    def test_an_int_matrix_acts_as_its_bool_twin(self, nx, ny, p, seed):
        b = _random_bigraph(nx, ny, p, seed)
        twin = b.astype(np.int64)
        assert np.array_equal(perfect_matching(twin).match, perfect_matching(b).match)
        for k in (1, 3):
            rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(kout_subgraph(twin, k, twin_rng), kout_subgraph(b, k, rng))
            assert twin_rng.bit_generator.state == rng.bit_generator.state

    def test_an_int_matrix_is_matched_as_its_bool_twin(self):
        for b in (complete(30, 30), _instance_r_gt_0(200, 2, n_unpop=3, unpop_deg=99)):
            ours = spread_X_perfect_matching(b, z=0.01, rng=np.random.default_rng(33))
            rng = np.random.default_rng(33)
            twin = spread_X_perfect_matching(b.astype(np.int8), z=0.01, rng=rng)
            assert np.array_equal(twin.match, ours.match) and twin.meta == ours.meta
        b = ~np.eye(30, dtype=bool)
        dense = spread_matching_dense(b, lam=0.1, k=3, rng=np.random.default_rng(34))
        twin = spread_matching_dense(b.astype(int), lam=0.1, k=3, rng=np.random.default_rng(34))
        assert np.array_equal(twin.match, dense.match) and twin.meta == dense.meta


def _ref_perfect_matching(b: np.ndarray) -> dict[int, int]:
    """Hopcroft-Karp on tuple adjacency lists, as perfect_matching was
    before it walked CSR arrays; same search order, so the same pairs."""
    adj, INF = adjacency_rows(b), -1
    nx, ny = b.shape
    pair_x, pair_y, dist = [INF] * nx, [INF] * ny, [0] * nx

    def bfs() -> bool:
        q: deque[int] = deque()
        for x in range(nx):
            if pair_x[x] == INF:
                dist[x] = 0
                q.append(x)
            else:
                dist[x] = INF
        found = INF
        while q:
            x = q.popleft()
            if found != INF and dist[x] >= found:
                continue
            for y in adj[x]:
                x2 = pair_y[y]
                if x2 == INF:
                    if found == INF:
                        found = dist[x] + 1
                elif dist[x2] == INF:
                    dist[x2] = dist[x] + 1
                    q.append(x2)
        return found != INF

    def dfs(x: int) -> bool:
        for y in adj[x]:
            x2 = pair_y[y]
            if x2 == INF or (dist[x2] == dist[x] + 1 and dfs(x2)):
                pair_x[x] = y
                pair_y[y] = x
                return True
        dist[x] = INF
        return False

    while bfs():
        for x in range(nx):
            if pair_x[x] == INF:
                dfs(x)
    return {x: y for x, y in enumerate(pair_x) if y != INF}


def test_hopcroft_karp_on_csr_finds_the_same_pairs_as_the_tuple_version():
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (6, 6), (5, 9), (9, 5)]
    cases = [complete(nx, ny) for nx, ny in shapes]
    cases += [np.zeros((nx, ny), dtype=bool) for nx, ny in [(4, 4), (3, 7)]]
    rng = np.random.default_rng(17)
    for _ in range(80):
        nx, ny = (int(v) for v in rng.integers(1, 30, size=2))
        cases.append(rng.random((nx, ny)) < rng.uniform(0.02, 0.6))
    for _ in range(20):
        cases.append(kout_subgraph(complete(42, 42), 3, rng))
    for b in cases:
        ours = perfect_matching(b)
        assert ours.match.shape == (b.shape[0],)
        assert matched_pairs(ours) == _ref_perfect_matching(b), b.shape


def test_maximum_matching_size_agrees_with_scipy():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    for seed in range(60):
        rng = np.random.default_rng(seed)
        nx, ny = (int(v) for v in rng.integers(1, 25, size=2))
        b = rng.random((nx, ny)) < rng.uniform(0.02, 0.5)
        ours = perfect_matching(b)
        ours.validate(b)
        match = csgraph.maximum_bipartite_matching(sparse.csr_matrix(b), perm_type="column")
        size = int(np.count_nonzero(match >= 0))
        assert np.count_nonzero(ours.match >= 0) == size, (seed, nx, ny)
