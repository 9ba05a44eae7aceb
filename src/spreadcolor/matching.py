"""Bipartite matching machinery.

A bigraph on parts X (size nx) and Y (size ny), both 0-indexed, is its
nx-by-ny boolean biadjacency matrix; each entry point coerces its input
with np.asarray(m, dtype=bool) and rejects anything but a 2-D result.
A matching is one int64 array giving the y of each x, or -1 where x is
unmatched.

Deterministic Hopcroft-Karp maximum matching, random k-out subgraphs,
rejection-sampled perfect matchings in dense bigraphs, and the
two-phase X-perfect matcher (greedy on unpopular right-vertices, then
dense matching among high-degree ones) with its in-flight inequality
checks.  The k-out schedule is fixed: the dense phase starts from
k = K and doubles k up to K_MAX.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    EmptyChoiceSet,
    FloorNotMet,
    HypothesisViolated,
    MaxTriesExceeded,
    VerificationFailed,
)
from .params import Params

__all__ = [
    "Matching",
    "perfect_matching",
    "kout_subgraph",
    "spread_matching_dense",
    "spread_X_perfect_matching",
]

INF = -1  # an unmatched vertex, and an unreached one in the search

LAMBDA_MAX = 0.25  # the largest lambda (degrees >= (1-lambda)I) the dense matcher takes
K = 3  # the k of the k-out subgraph the X-perfect matcher's dense phase starts from
K_MAX = 16  # the largest k the dense matcher doubles to


def _biadjacency(m) -> np.ndarray:
    """The boundary check of every entry point: m as a 2-D boolean matrix."""
    m = np.asarray(m, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"biadjacency matrix must be 2-D, got shape {m.shape}")
    return m


@dataclass
class Matching:
    """Disjoint edges of a bigraph: match[x] is the y matched to x, or -1
    where x is unmatched."""

    match: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.match = np.asarray(self.match, dtype=np.int64)
        ys = self.match[self.match >= 0]
        if np.unique(ys).size != ys.size:
            raise VerificationFailed("matching reuses a right vertex")

    def is_x_perfect(self) -> bool:
        return bool((self.match >= 0).all())

    def validate(self, m: np.ndarray) -> None:
        """Raise VerificationFailed unless match has one entry per row of
        the biadjacency matrix m and every matched pair is an edge of m."""
        m, match = _biadjacency(m), self.match
        if match.shape != m.shape[:1] or not ((INF <= match) & (match < m.shape[1])).all():
            raise VerificationFailed(f"matching does not fit a {m.shape} bigraph: {match}")
        xs = np.flatnonzero(match >= 0)
        bad = xs[~m[xs, match[xs]]]
        if bad.size:
            raise VerificationFailed(f"matched pair ({bad[0]},{match[bad[0]]}) is not an edge")


def perfect_matching(m: np.ndarray) -> Matching:
    """Deterministic maximum matching of the nx-by-ny boolean biadjacency
    matrix m via Hopcroft-Karp; check .is_x_perfect() on the result for
    X-perfection.

    The neighbors of x are cols[ptr[x]:ptr[x+1]], in ascending order."""
    m = _biadjacency(m)
    nx, ny = m.shape
    flat = np.flatnonzero(m)
    cols = (flat % ny).tolist() if ny else []
    ptr = np.searchsorted(flat, np.arange(nx + 1) * ny).tolist()
    pair_x = [INF] * nx
    pair_y = [INF] * ny
    dist = [0] * nx

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
            for y in cols[ptr[x] : ptr[x + 1]]:
                x2 = pair_y[y]
                if x2 == INF:
                    if found == INF:
                        found = dist[x] + 1
                elif dist[x2] == INF:
                    dist[x2] = dist[x] + 1
                    q.append(x2)
        return found != INF

    def dfs(x: int) -> bool:
        for y in cols[ptr[x] : ptr[x + 1]]:
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
    return Matching(np.array(pair_x, dtype=np.int64))


def kout_subgraph(m: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Each vertex on BOTH sides keeps min(k, deg) uniformly chosen
    incident edges; the subgraph is their union.  Two-sided selection is
    what kills isolated vertices, the main obstruction to a perfect
    matching.

    Keyed draw: the rows of degree > k on one side (X rows first, then Y
    rows, each in index order) get one block of uniform keys, one key per
    matrix entry; a row keeps the k neighbors with the smallest keys,
    which is a uniform k-subset of its neighbors."""
    m = _biadjacency(m)
    if k < 1:
        raise ValueError("need k >= 1")
    out = np.zeros(m.shape, dtype=bool)
    for adj, kept in ((m, out), (m.T, out.T)):  # rows of X, then rows of Y
        deg = np.count_nonzero(adj, axis=1)
        small = deg <= k
        kept[small] |= adj[small]
        big = np.flatnonzero(~small)
        if big.size:
            keys = rng.random((big.size, adj.shape[1]))
            keys += ~adj[big]  # non-edges key above 1, after every neighbor
            kept[big[:, None], np.argpartition(keys, k - 1, axis=1)[:, :k]] = True
    return out


def spread_matching_dense(
    f: np.ndarray,
    lam: float,
    k: int,
    rng: np.random.Generator,
    max_tries: int = Params.match_max_tries,
) -> Matching:
    """Perfect matching in a bigraph with both sides of size I and all
    degrees >= (1-lam)I, sampled by repeating {k-out subgraph, maximum
    matching} until the matching is perfect.

    Conditioning a spread edge set on an event of constant probability
    keeps it spread, so the retries do not spoil the distribution.  k
    doubles (up to K_MAX) when acceptance looks hopeless; k outside
    1..K_MAX is a ValueError.
    """
    f = _biadjacency(f)
    if not 1 <= k <= K_MAX:
        raise ValueError(f"need 1 <= k <= {K_MAX}, got k={k}")
    i_size, ny = f.shape
    if i_size != ny:
        raise HypothesisViolated(f"parts must have equal size, got {i_size} vs {ny}")
    if not 0 <= lam <= LAMBDA_MAX:
        raise HypothesisViolated(f"lambda = {lam:.4f} exceeds lambda_max = {LAMBDA_MAX}")
    need = (1.0 - lam) * i_size
    if i_size:
        low = int(min(np.count_nonzero(f, axis=1).min(), np.count_nonzero(f, axis=0).min()))
        if low < need:
            raise HypothesisViolated(f"min degree {low} < (1-lambda)I = {need:.2f}")

    failures_at_k = 0
    for t in range(max_tries):
        m = perfect_matching(kout_subgraph(f, k, rng))
        if m.is_x_perfect():
            m.meta.update(tries=t + 1, k=k)
            m.validate(f)
            return m
        failures_at_k += 1
        if failures_at_k >= 100:
            k = min(2 * k, K_MAX)
            failures_at_k = 0
    raise MaxTriesExceeded(
        f"no perfect matching in {max_tries} k-out draws (final k={k})"
    )


def spread_X_perfect_matching(
    b: np.ndarray,
    z: float,
    rng: np.random.Generator,
    r_x: Sequence[float] | None = None,
    max_tries: int = Params.match_max_tries,
) -> Matching:
    """X-perfect matching in a bigraph on (X, Y) with |X| = J,
    |Y| = J + R, under the checked hypotheses

        0 <= R <= zJ,  d(x) >= J - r_x,  max r_x <= zJ,  sum r_x <= zJ.

    Phase 1 (only when r = |unpopular| - R > 0): repeatedly pick a
    uniform edge into the unpopular colors (right vertices of degree
    < (1-delta)J, delta = 5*sqrt(z)) and remove both endpoints.  Phase 2
    matches the rest against the surviving high-degree colors.  The
    edge-count lower bounds that make phase 1 work are asserted at every
    step; they are finite-D floors, so a miss raises FloorNotMet.  Phase 2
    runs spread_matching_dense from k = K.
    """
    b = _biadjacency(b)
    j, ny = b.shape
    big_r = ny - j
    if j == 0:
        return Matching(np.zeros(0, dtype=np.int64), meta={"branch": "empty"})
    deg_x = np.count_nonzero(b, axis=1)
    if r_x is None:
        r_x = (j - deg_x).tolist()
    if len(r_x) != j:
        raise ValueError("r_x must have one entry per X vertex")

    if big_r < 0:
        raise HypothesisViolated(f"R = {big_r} < 0")
    if big_r > z * j:
        raise HypothesisViolated(f"R = {big_r} > zJ = {z * j:.2f}")
    max_r = max(r_x)
    if max_r > z * j:
        raise HypothesisViolated(f"max r_x = {max_r} > zJ = {z * j:.2f}")
    sum_r = sum(r_x)
    if sum_r > z * j:
        raise HypothesisViolated(f"sum r_x = {sum_r} > zJ = {z * j:.2f}")
    short = np.flatnonzero(deg_x < j - np.asarray(r_x))
    if short.size:
        x = int(short[0])
        raise HypothesisViolated(
            f"d(x={x}) = {deg_x[x]} < J - r_x = {j - r_x[x]:.2f}"
        )

    delta = 5.0 * z**0.5
    degs_y = np.count_nonzero(b, axis=0)
    unpopular = degs_y < (1.0 - delta) * j
    n_unpop = int(np.count_nonzero(unpopular))
    # consequence of the hypotheses; catches instance-construction bugs
    if n_unpop * delta * j > big_r * j + z * j + 1e-9:
        raise VerificationFailed(
            f"|U| = {n_unpop} exceeds (R+z)/delta = {(big_r + z) / delta:.2f}"
        )
    r = n_unpop - big_r

    match = np.full(j, INF, dtype=np.int64)
    meta: dict = {"branch": "dense", "unpopular": n_unpop, "r": r}
    if r > 0:
        meta["branch"] = "greedy+dense"
        u_live = unpopular.copy()
        floor_target = r * delta * j / 2.0
        for step in range(r):
            # edges into live unpopular colors, ordered by color, then by x
            ys, xs = np.nonzero((b & (match == INF)[:, None] & u_live).T)
            count_before = len(ys)
            if count_before < floor_target - 1e-9:
                raise FloorNotMet(
                    f"greedy-phase edge count {count_before} fell below "
                    f"r*delta*J/2 = {floor_target:.2f} at step {step}"
                )
            if not count_before:
                raise EmptyChoiceSet(
                    f"no edges left into unpopular colors at step {step}"
                )
            e = int(rng.integers(count_before))
            x, y = int(xs[e]), int(ys[e])
            match[x] = y
            u_live[y] = False
            count_after = int(np.count_nonzero(b & (match == INF)[:, None] & u_live))
            if count_after < count_before - n_unpop - (1.0 - delta) * j - 1e-9:
                raise VerificationFailed(
                    "greedy step removed more edges than |U| + (1-delta)J"
                )
            if step == r - 1 and count_after < floor_target - 1e-9:
                raise FloorNotMet(
                    f"greedy-phase edge count {count_after} fell below "
                    f"r*delta*J/2 = {floor_target:.2f} after the last step"
                )
        v0 = np.flatnonzero(match == INF)
        v1 = np.flatnonzero(~unpopular)
    else:
        # drop the R least-popular colors, ties broken by id
        v0 = np.arange(j)
        v1 = np.sort(np.argsort(-degs_y, kind="stable")[:j])

    i_size = len(v0)
    if len(v1) != i_size:
        raise VerificationFailed(f"dense phase sizes differ: {i_size} vs {len(v1)}")
    dense_meta = {}
    if i_size:
        lam = min(2.0 * delta, LAMBDA_MAX)
        m_dense = spread_matching_dense(b[np.ix_(v0, v1)], lam, K, rng, max_tries)
        dense_meta = m_dense.meta
        hit = m_dense.match >= 0
        match[v0[hit]] = v1[m_dense.match[hit]]

    out = Matching(match, meta={**meta, "dense": dense_meta})
    out.validate(b)
    if not out.is_x_perfect():
        raise VerificationFailed("result is not X-perfect")
    return out
