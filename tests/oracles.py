"""Independent reference implementations that the array code is checked against."""
from __future__ import annotations

import csv
import io
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from spreadcolor.audit import wilson_interval
from spreadcolor.errors import CapExceeded
from spreadcolor.graphs import Graph, keyed_rng


def is_proper(
    g: Graph,
    sigma: Mapping[int, int] | np.ndarray,
    lists: Sequence[Sequence[int]] | None = None,
) -> bool:
    """True when no edge has both ends colored alike in the partial coloring
    sigma (vertex -> color), and, given lists, every color is in its list.
    An array sigma is a full coloring indexed by vertex."""
    if isinstance(sigma, np.ndarray):
        sigma = dict(enumerate(sigma.tolist()))
    for v, c in sigma.items():
        if lists is not None and c not in lists[v]:
            return False
        for w in g.neighbors(v):
            if w in sigma and sigma[w] == c:
                return False
    return True


def search_reference(
    g: Graph, lists: Sequence[Sequence[int]], cap: int = 10**8
) -> Iterator[dict[int, int]]:
    """The recursive set-based enumeration that `thresholds.list_colorings`
    replaced, kept verbatim as the reference its colorings must equal:
    branch on the vertex with the fewest remaining colors, try them in
    sorted order, no propagation; each search node counts against `cap`.
    Recursion depth grows with n, so small graphs only."""
    n = g.n
    sigma: dict[int, int] = {}
    avail: list[set[int]] = [set(s) for s in lists]
    adj = g.neighbor_lists()
    nodes = 0

    def pick() -> int:
        best, best_len = -1, 1 << 60
        for v in range(n):
            if v not in sigma and len(avail[v]) < best_len:
                best, best_len = v, len(avail[v])
        return best

    def rec() -> Iterator[dict[int, int]]:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"enumeration exceeded {cap} nodes")
        if len(sigma) == n:
            yield dict(sigma)
            return
        v = pick()
        for c in sorted(avail[v]):
            removed = []
            for w in adj[v]:
                if w not in sigma and c in avail[w]:
                    avail[w].discard(c)
                    removed.append(w)
            sigma[v] = c
            yield from rec()
            del sigma[v]
            for w in removed:
                avail[w].add(c)

    yield from rec()


def cluster_fallback_reference(g: Graph, members: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """The per-vertex loop that `clusters._greedy_cluster_fallback` ran
    before it called the slack-greedy engine, kept verbatim as the
    reference it must equal: each member in ascending order takes the
    first color of 1..D+1 that no neighbor holds (0 = uncolored)."""
    d = g.max_degree
    colors = colors.copy()
    for v in members.tolist():
        used = set(colors[g.flat[g.ptr[v] : g.ptr[v + 1]]].tolist())
        colors[v] = next(c for c in range(1, d + 2) if c not in used)
    return colors[members]


def from_edges_reference(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """The set-based Graph.from_edges that the CSR one replaced, kept as the
    reference it must equal: edges checked one by one in input order into
    per-vertex neighbor sets, whose sorted rows go to the raw constructor."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        adj[u].add(v)
        adj[v].add(u)
    rows = [sorted(s) for s in adj]
    flat = np.array([w for row in rows for w in row], dtype=np.int64)
    return Graph(n, flat, np.array([0, *accumulate(map(len, rows))], dtype=np.int64))


def bigraph_from_edges(nx: int, ny: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """The nx-by-ny boolean biadjacency matrix of a list of (x, y) edges."""
    m = np.zeros((nx, ny), dtype=bool)
    for x, y in edges:
        if not (0 <= x < nx and 0 <= y < ny):
            raise ValueError(f"edge ({x},{y}) out of range")
        m[x, y] = True
    return m


def adjacency_rows(m: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbors of each x of a biadjacency matrix."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in m)


def regularize_reference(g: Graph) -> Graph:
    """The tuple-and-set regularization that `graphs.regularize` replaced,
    kept verbatim (without its self-checks) as the reference its array
    construction must equal: m copies of g and, per deficient vertex, an
    f_v-regular circulant on its copies, all through from_edges_reference."""
    d = g.max_degree
    if d < 1:
        raise ValueError("regularize requires max degree >= 1")
    deficiency = [d - g.degree(v) for v in range(g.n)]
    if all(f == 0 for f in deficiency):
        return g

    if all(f * (d + 1) % 2 == 0 for f in deficiency):
        m = d + 1
    else:
        m = d + 2

    n = g.n
    edges: list[tuple[int, int]] = []
    for c in range(m):
        base = c * n
        edges.extend((base + u, base + v) for u, v in g.edges())
    for v in range(n):
        f = deficiency[v]
        if f == 0:
            continue
        offsets = list(range(1, f // 2 + 1))
        if f % 2 == 1:
            offsets.append(m // 2)
        for c in range(m):
            for off in offsets:
                c2 = (c + off) % m
                a, b = c * n + v, c2 * n + v
                if a != b:
                    edges.append((min(a, b), max(a, b)))
    return from_edges_reference(n * m, set(edges))


def set_family_reference(n: int, palette_size: int, seed: int) -> list[tuple[tuple[int, int], ...]]:
    """The singletons+pairs family as `audit.audit_set_family` built it
    before its keyed blocks, the per-candidate loop kept verbatim as the
    reference the blocks must equal: every singleton, then two
    `integers(size=2)` calls per candidate pair from the keyed stream
    (seed, 2^40), keeping the first 10n whose two pairs differ."""
    sets: list[tuple[tuple[int, int], ...]] = [
        ((v, c),) for v in range(n) for c in range(1, palette_size + 1)
    ]
    if n and n * palette_size < 2:
        # every drawn 2-set would repeat its one pair: the loop never ends
        raise ValueError(f"needs two (vertex, color) pairs, got {n * palette_size}")
    rng = keyed_rng(seed, 1 << 40)
    while len(sets) < n * palette_size + 10 * n:
        v1, v2 = (int(x) for x in rng.integers(n, size=2))
        c1, c2 = (int(x) for x in rng.integers(1, palette_size + 1, size=2))
        if (v1, c1) != (v2, c2):
            sets.append(((v1, c1), (v2, c2)))
    return sets


# one row of the row-based audit: (pairs, trials, hits, p_hat, ci_low, ci_high)
SpreadRowReference = tuple[tuple[tuple[int, int], ...], int, int, float, float, float]


def spread_rows_reference(
    samples: Iterable[np.ndarray],
    n: int,
    palette_size: int,
    sets: Sequence[tuple[tuple[int, int], ...]],
) -> list[SpreadRowReference]:
    """The row-per-set aggregation that the array `SpreadReport` replaced,
    kept (its checks and errors aside) as the reference it must equal:
    singletons from a (vertex, color) histogram, every other set by one
    comparison per sample (all of one size), a Wilson interval per row."""
    single_hits = np.zeros((n, palette_size + 2), dtype=np.int64)
    pair_sets = [s for s in sets if len(s) != 1]
    pair_hits = np.zeros(len(pair_sets), dtype=np.int64)
    if pair_sets:
        pv = np.array([[p[0] for p in s] for s in pair_sets], dtype=np.int64)
        pc = np.array([[p[1] for p in s] for s in pair_sets], dtype=np.int64)
    kept = 0
    idx = np.arange(n)
    for sample in samples:
        sample = np.asarray(sample)
        kept += 1
        single_hits[idx, np.clip(sample, 0, palette_size + 1)] += 1
        if pair_sets:
            pair_hits += np.all(sample[pv] == pc, axis=1)
    rows: list[SpreadRowReference] = []
    pair_i = 0
    for s in sets:
        if len(s) == 1:
            v, c = s[0]
            h = int(single_hits[v, c])
        else:
            h = int(pair_hits[pair_i])
            pair_i += 1
        lo, hi = wilson_interval(h, kept)
        rows.append((s, kept, h, h / kept, lo, hi))
    return rows


def c_hat_reference(rows: list[SpreadRowReference], palette_size: int) -> float:
    """Max over rows of (CI upper)^(1/|T|), times the palette size."""
    best = 0.0
    for pairs, *_, ci_high in rows:
        best = max(best, ci_high ** (1.0 / len(pairs)))
    return best * palette_size


def spread_csv_reference(rows: list[SpreadRowReference]) -> str:
    """The row-based report's CSV."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["pairs", "trials", "hits", "p_hat", "ci_low", "ci_high"])
    for pairs, trials, hits, p_hat, ci_low, ci_high in rows:
        w.writerow(
            [
                ";".join(f"{v}:{c}" for v, c in pairs),
                trials,
                hits,
                f"{p_hat:.8f}",
                f"{ci_low:.8f}",
                f"{ci_high:.8f}",
            ]
        )
    return buf.getvalue()
