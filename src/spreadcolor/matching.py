"""Bipartite matching machinery.

Deterministic Hopcroft-Karp maximum matching, random k-out subgraphs,
rejection-sampled perfect matchings in dense bigraphs, and the
two-phase X-perfect matcher (greedy on unpopular right-vertices, then
dense matching among high-degree ones) with its in-flight inequality
checks.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyChoiceSet,
    FloorNotMet,
    HypothesisViolated,
    MaxTriesExceeded,
    VerificationFailed,
)

__all__ = [
    "Bigraph",
    "Matching",
    "perfect_matching",
    "kout_subgraph",
    "spread_matching_dense",
    "spread_X_perfect_matching",
]

INF = -1


def _csr(m: np.ndarray) -> tuple[list[int], list[int]]:
    """(column of each True entry of a boolean matrix, row by row and
    ascending within a row; offsets of each row's run, length nrows+1)."""
    ncols = m.shape[1]
    flat = np.flatnonzero(m)
    ptr = np.searchsorted(flat, np.arange(m.shape[0] + 1) * ncols)
    return (flat % ncols).tolist() if ncols else [], ptr.tolist()


class Bigraph:
    """Bipartite graph on parts X (size nx) and Y (size ny), both 0-indexed,
    held as its read-only nx-by-ny boolean biadjacency matrix `m`."""

    __slots__ = ("m",)

    def __init__(self, m: np.ndarray):
        m = np.asarray(m, dtype=bool).view()
        if m.ndim != 2:
            raise ValueError(f"biadjacency matrix must be 2-D, got shape {m.shape}")
        m.flags.writeable = False
        self.m = m

    @staticmethod
    def from_edges(nx: int, ny: int, edges: Iterable[tuple[int, int]]) -> "Bigraph":
        m = np.zeros((nx, ny), dtype=bool)
        for x, y in edges:
            if not (0 <= x < nx and 0 <= y < ny):
                raise ValueError(f"edge ({x},{y}) out of range")
            m[x, y] = True
        return Bigraph(m)

    @staticmethod
    def complete(nx: int, ny: int) -> "Bigraph":
        return Bigraph(np.ones((nx, ny), dtype=bool))

    @property
    def nx(self) -> int:
        return self.m.shape[0]

    @property
    def ny(self) -> int:
        return self.m.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bigraph):
            return NotImplemented
        return self.m.shape == other.m.shape and bool(np.array_equal(self.m, other.m))

    def __hash__(self) -> int:
        return hash((self.m.shape, self.m.tobytes()))

    def __repr__(self) -> str:
        return f"Bigraph(nx={self.nx}, ny={self.ny}, edges={self.edge_count()})"

    @property
    def adj_x(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbors of each x."""
        cols, ptr = _csr(self.m)
        return tuple(tuple(cols[a:b]) for a, b in zip(ptr, ptr[1:]))

    def deg_x(self, x: int) -> int:
        return int(np.count_nonzero(self.m[x]))

    def degrees_y(self) -> np.ndarray:
        return np.count_nonzero(self.m, axis=0).astype(np.int64)

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.m))

    def subgraph(self, xs: Sequence[int], ys: Sequence[int]) -> "Bigraph":
        """Induced bigraph on (xs, ys), reindexed in the given order."""
        return Bigraph(self.m[np.ix_(xs, ys)])


@dataclass
class Matching:
    """Set of disjoint edges, stored as x -> y."""

    pairs: dict[int, int]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ys = list(self.pairs.values())
        if len(set(ys)) != len(ys):
            raise VerificationFailed("matching reuses a right vertex")

    def is_x_perfect(self, b: Bigraph) -> bool:
        return set(self.pairs) == set(range(b.nx))

    def validate(self, b: Bigraph) -> None:
        m, nx, ny = b.m, b.nx, b.ny
        for x, y in self.pairs.items():
            if not (0 <= x < nx and 0 <= y < ny and m[x, y]):
                raise VerificationFailed(f"matched pair ({x},{y}) is not an edge")


def perfect_matching(b: Bigraph) -> Matching:
    """Deterministic maximum matching via Hopcroft-Karp; check
    .is_x_perfect(b) on the result for X-perfection.

    The neighbors of x are cols[ptr[x]:ptr[x+1]], in ascending order."""
    cols, ptr = _csr(b.m)
    pair_x = [INF] * b.nx
    pair_y = [INF] * b.ny
    dist = [0] * b.nx

    def bfs() -> bool:
        q: deque[int] = deque()
        for x in range(b.nx):
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
        for x in range(b.nx):
            if pair_x[x] == INF:
                dfs(x)
    return Matching({x: y for x, y in enumerate(pair_x) if y != INF})


def kout_subgraph(b: Bigraph, k: int, rng: np.random.Generator) -> Bigraph:
    """Each vertex on BOTH sides keeps min(k, deg) uniformly chosen
    incident edges; the subgraph is their union.  Two-sided selection is
    what kills isolated vertices, the main obstruction to a perfect
    matching.

    Keyed draw: the rows of degree > k on one side (X rows first, then Y
    rows, each in index order) get one block of uniform keys, one key per
    matrix entry; a row keeps the k neighbors with the smallest keys,
    which is a uniform k-subset of its neighbors."""
    if k < 1:
        raise ValueError("need k >= 1")
    out = np.zeros(b.m.shape, dtype=bool)
    for adj, kept in ((b.m, out), (b.m.T, out.T)):  # rows of X, then rows of Y
        deg = np.count_nonzero(adj, axis=1)
        small = deg <= k
        kept[small] |= adj[small]
        big = np.flatnonzero(~small)
        if big.size:
            keys = rng.random((big.size, adj.shape[1]))
            keys += ~adj[big]  # non-edges key above 1, after every neighbor
            kept[big[:, None], np.argpartition(keys, k - 1, axis=1)[:, :k]] = True
    return Bigraph(out)


def spread_matching_dense(
    f: Bigraph,
    lam: float,
    k: int,
    rng: np.random.Generator,
    max_tries: int = 200,
    lambda_max: float = 0.25,
    k_max: int = 16,
) -> Matching:
    """Perfect matching in a bigraph with both sides of size I and all
    degrees >= (1-lam)I, sampled by repeating {k-out subgraph, maximum
    matching} until the matching is perfect.

    Conditioning a spread edge set on an event of constant probability
    keeps it spread, so the retries do not spoil the distribution.  k
    doubles (up to k_max) when acceptance looks hopeless.
    """
    if f.nx != f.ny:
        raise HypothesisViolated(f"parts must have equal size, got {f.nx} vs {f.ny}")
    i_size = f.nx
    if not 0 <= lam <= lambda_max:
        raise HypothesisViolated(f"lambda = {lam:.4f} exceeds lambda_max = {lambda_max}")
    need = (1.0 - lam) * i_size
    min_x = int(np.count_nonzero(f.m, axis=1).min()) if f.nx else 0
    min_y = int(f.degrees_y().min()) if f.ny else 0
    if min(min_x, min_y) < need:
        raise HypothesisViolated(
            f"min degree {min(min_x, min_y)} < (1-lambda)I = {need:.2f}"
        )

    failures_at_k = 0
    for t in range(max_tries):
        sub = kout_subgraph(f, k, rng)
        m = perfect_matching(sub)
        if len(m.pairs) == i_size:
            m.meta.update(tries=t + 1, k=k)
            m.validate(f)
            return m
        failures_at_k += 1
        if failures_at_k >= 100 and k < k_max:
            k = min(2 * k, k_max)
            failures_at_k = 0
    raise MaxTriesExceeded(
        f"no perfect matching in {max_tries} k-out draws (final k={k})"
    )


def spread_X_perfect_matching(
    b: Bigraph,
    z: float,
    rng: np.random.Generator,
    r_x: Sequence[float] | None = None,
    k: int = 3,
    max_tries: int = 200,
    lambda_max: float = 0.25,
    k_max: int = 16,
) -> Matching:
    """X-perfect matching in a bigraph on (X, Y) with |X| = J,
    |Y| = J + R, under the checked hypotheses

        0 <= R <= zJ,  d(x) >= J - r_x,  max r_x <= zJ,  sum r_x <= zJ.

    Phase 1 (only when r = |unpopular| - R > 0): repeatedly pick a
    uniform edge into the unpopular colors (right vertices of degree
    < (1-delta)J, delta = 5*sqrt(z)) and remove both endpoints.  Phase 2
    matches the rest against the surviving high-degree colors.  The
    edge-count lower bounds that make phase 1 work are asserted at every
    step; they are finite-D floors, so a miss raises FloorNotMet.
    """
    j = b.nx
    big_r = b.ny - b.nx
    if j == 0:
        return Matching({}, meta={"branch": "empty"})
    deg_x = np.count_nonzero(b.m, axis=1)
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
    degs_y = b.degrees_y()
    unpopular = degs_y < (1.0 - delta) * j
    n_unpop = int(np.count_nonzero(unpopular))
    # consequence of the hypotheses; catches instance-construction bugs
    if n_unpop * delta * j > big_r * j + z * j + 1e-9:
        raise VerificationFailed(
            f"|U| = {n_unpop} exceeds (R+z)/delta = {(big_r + z) / delta:.2f}"
        )
    r = n_unpop - big_r

    greedy_pairs: dict[int, int] = {}
    meta: dict = {"branch": "dense", "unpopular": n_unpop, "r": r}
    if r > 0:
        meta["branch"] = "greedy+dense"
        live_x = np.ones(j, dtype=bool)
        u_live = unpopular.copy()
        floor_target = r * delta * j / 2.0
        for step in range(r):
            # edges into live unpopular colors, ordered by color, then by x
            ys, xs = np.nonzero((b.m & live_x[:, None] & u_live).T)
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
            live_x[x] = False
            u_live[y] = False
            greedy_pairs[x] = y
            count_after = int(np.count_nonzero(b.m & live_x[:, None] & u_live))
            if count_after < count_before - n_unpop - (1.0 - delta) * j - 1e-9:
                raise VerificationFailed(
                    "greedy step removed more edges than |U| + (1-delta)J"
                )
            if step == r - 1 and count_after < floor_target - 1e-9:
                raise FloorNotMet(
                    f"greedy-phase edge count {count_after} fell below "
                    f"r*delta*J/2 = {floor_target:.2f} after the last step"
                )
        v0 = np.flatnonzero(live_x)
        v1 = np.flatnonzero(~unpopular)
    else:
        # drop the R least-popular colors, ties broken by id
        v0 = np.arange(j)
        v1 = np.sort(np.argsort(-degs_y, kind="stable")[:j])

    i_size = len(v0)
    if len(v1) != i_size:
        raise VerificationFailed(f"dense phase sizes differ: {i_size} vs {len(v1)}")
    dense_meta = {}
    dense_pairs = {}
    if i_size:
        f = b.subgraph(v0, v1)
        lam = min(2.0 * delta, lambda_max)
        m_dense = spread_matching_dense(
            f, lam, k, rng, max_tries=max_tries, lambda_max=lambda_max, k_max=k_max
        )
        dense_meta = m_dense.meta
        xs, ys = v0.tolist(), v1.tolist()
        dense_pairs = {xs[x]: ys[y] for x, y in m_dense.pairs.items()}

    pairs = {**greedy_pairs, **dense_pairs}
    out = Matching(pairs, meta={**meta, "dense": dense_meta})
    out.validate(b)
    if not out.is_x_perfect(b):
        raise VerificationFailed("result is not X-perfect")
    return out
