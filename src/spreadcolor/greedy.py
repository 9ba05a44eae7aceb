"""Slack greedy, exact coloring enumeration, and the three counterexample
instances showing that the uniform and random-greedy distributions need
not be well spread.

`slack_greedy` is the package's one greedy coloring, a loop over the
positions in ascending order: the sparse phase, the cluster fallback
(every uniform 0: the first legal color) and both samplers run it.

A list assignment maps each vertex to its allowed colors.  The samplers
and the enumeration give int64 color arrays indexed by vertex; only the
exact oracles' partial targets are dicts vertex -> color.  Exact
probabilities are Fractions throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Mapping, Sequence

import numpy as np

from .audit import EXACT_CAP
from .errors import CapExceeded, StuckVertex
from .graphs import Graph, complete_bipartite, complete_graph
from .params import Params
from .thresholds import list_colorings

__all__ = [
    "ListAssignment",
    "slack_greedy_sample",
    "ColoringEnumeration",
    "enumerate_colorings",
    "exact_containment_uniform",
    "random_greedy_sample",
    "random_greedy_exact_probability",
    "slack_greedy_exact_distribution",
    "Counterexample",
    "build_counterexample",
]

ListAssignment = Sequence[Sequence[int]]
Coloring = dict[int, int]


def uniform_lists(g: Graph, palette_size: int) -> list[list[int]]:
    return [list(range(1, palette_size + 1)) for _ in range(g.n)]


# ---------------------------------------------------------------------------
# Slack greedy
# ---------------------------------------------------------------------------


def slack_greedy(
    leftovers: np.ndarray,
    allowed: np.ndarray,
    earlier: np.ndarray,
    later: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Slack greedy over the leftovers in ascending order: position i drops
    the colors of its earlier leftover neighbors from its allowed row and
    takes avail[floor(uniforms[i] * |avail|)].  allowed's column 0 (no
    color) is False; (earlier[e], later[e]) are positions in leftovers.
    Returns the column each position picks; the first position left with
    no color is a StuckVertex."""
    k = len(leftovers)
    order = np.argsort(later, kind="stable")
    pred = earlier[order].tolist()
    pred_ptr = np.searchsorted(later[order], np.arange(k + 1)).tolist()
    rows, cols = np.nonzero(allowed)
    avail_ptr = np.searchsorted(rows, np.arange(k + 1)).tolist()
    cols = cols.tolist()
    picked: list[int] = []
    for i, u in enumerate(uniforms.tolist()):
        avail = cols[avail_ptr[i] : avail_ptr[i + 1]]
        if pred_ptr[i] < pred_ptr[i + 1]:
            used = {picked[j] for j in pred[pred_ptr[i] : pred_ptr[i + 1]]}
            avail = [c for c in avail if c not in used]
        if not avail:
            raise StuckVertex(f"slack greedy stuck at vertex {leftovers[i]}")
        picked.append(avail[int(u * len(avail))])
    return np.array(picked, dtype=np.int64)


def ban_matrix(g: Graph, vertices: np.ndarray, colors: np.ndarray) -> tuple[np.ndarray, ...]:
    """slack_greedy's (allowed, earlier, later) for coloring the uncolored
    `vertices` in the given order against `colors` (0 = uncolored, else
    1..D+1), and each vertex's number of colored neighbors, whose colors
    its row of allowed bans.  The vertices must be distinct: a repeated
    one gives a wrong matrix, not an error.

    Only the vertices' own rows are read, so the cost follows their
    degrees, not the graph's edge count.  Each edge between two of them
    is taken once, from the row of its later end, so the pairs come
    sorted by `later`."""
    k = len(vertices)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[vertices] = np.arange(k)
    lens, nbrs = g.gather_neighbors(vertices)
    rows = np.repeat(np.arange(k), lens)
    seen = colors[nbrs]
    hit = seen > 0
    allowed = np.ones((k, g.max_degree + 2), dtype=bool)
    allowed[:, 0] = False
    allowed[rows[hit], seen[hit]] = False
    p = pos[nbrs]
    pair = (p >= 0) & (p < rows)
    return allowed, p[pair], rows[pair], np.bincount(rows[hit], minlength=k)


def slack_greedy_sample(g: Graph, lists: ListAssignment, rng: np.random.Generator) -> np.ndarray:
    """Color the vertices in ascending order, each uniformly from its
    list minus the colors already placed on its neighbors; returns the
    colors indexed by vertex.  A list count other than n, or a repeated
    color, is a ValueError; with |S_v| >= d(v) + 1 for all v no vertex can
    get stuck, otherwise StuckVertex may be raised."""
    if len(lists) != g.n:
        raise ValueError(f"{len(lists)} lists for a graph on {g.n} vertices")
    lens = np.fromiter(map(len, lists), dtype=np.int64, count=g.n)
    # column j + 1 stands for the j-th smallest color of any list
    palette, col = np.unique(np.fromiter(chain.from_iterable(lists), np.int64), return_inverse=True)
    allowed = np.zeros((g.n, len(palette) + 1), dtype=bool)
    allowed[np.repeat(np.arange(g.n), lens), col + 1] = True
    repeats = allowed.sum(axis=1) < lens
    if repeats.any():
        raise ValueError(f"vertex {np.argmax(repeats)} lists a color twice")
    return palette[slack_greedy(np.arange(g.n), allowed, *g.edge_arrays(), rng.random(g.n)) - 1]


def slack_greedy_exact_distribution(
    g: Graph, lists: ListAssignment, order: Sequence[int] | None = None
) -> dict[tuple[int, ...], Fraction]:
    """Exact output distribution of slack greedy in the given order
    (slack_greedy_sample's ascending order by default), keyed by the color
    tuple in vertex order.  Exponential; for small instances only.  A list
    count other than n, a repeated color or an order that is not a
    permutation of 0..n-1 is a ValueError."""
    if len(lists) != g.n:
        raise ValueError(f"{len(lists)} lists for a graph on {g.n} vertices")
    repeats = [v for v, s in enumerate(lists) if len(set(s)) < len(s)]
    if repeats:
        raise ValueError(f"vertex {repeats[0]} lists a color twice")
    order = list(range(g.n)) if order is None else list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError(f"order {order} is not a permutation of 0..{g.n - 1}")
    out: dict[tuple[int, ...], Fraction] = {}
    adj = g.neighbor_lists()

    def rec(i: int, sigma: Coloring, prob: Fraction):
        if i == len(order):
            key = tuple(sigma[v] for v in range(g.n))
            out[key] = out.get(key, Fraction(0)) + prob
            return
        v = order[i]
        used = {sigma[w] for w in adj[v] if w in sigma}
        avail = [c for c in lists[v] if c not in used]
        if not avail:
            raise StuckVertex(f"vertex {v} has no available color")
        step = prob / len(avail)
        for c in avail:
            sigma[v] = c
            rec(i + 1, sigma, step)
            del sigma[v]

    rec(0, {}, Fraction(1))
    return out


# ---------------------------------------------------------------------------
# Exact enumeration of proper list colorings
# ---------------------------------------------------------------------------


@dataclass
class ColoringEnumeration:
    """Count plus re-runnable iterator over all proper list colorings."""

    graph: Graph
    lists: tuple[tuple[int, ...], ...]
    cap: int
    count: int

    def __iter__(self) -> Iterator[np.ndarray]:
        """Each coloring once, as an int64 color array indexed by vertex."""
        for masks in list_colorings(self.graph, self.lists, self.cap):
            yield np.array([m.bit_length() - 1 for m in masks], dtype=np.int64)


def enumerate_colorings(
    g: Graph, lists: ListAssignment, cap: int = Params.enum_cap
) -> ColoringEnumeration:
    """Exact count of proper list colorings: the stops of
    thresholds.list_colorings, which raises CapExceeded beyond `cap`
    search nodes.  Also an iterator that yields each coloring once."""
    count = sum(1 for _ in list_colorings(g, lists, cap))
    return ColoringEnumeration(
        graph=g, lists=tuple(tuple(s) for s in lists), cap=cap, count=count
    )


def exact_containment_uniform(
    g: Graph, lists: ListAssignment, tau: Mapping[int, int], cap: int = Params.enum_cap
) -> Fraction:
    """P(sigma ⊇ tau) for sigma uniform over all proper list colorings,
    as an exact rational.  Raises ValueError for a target vertex outside
    0..n-1."""
    if any(not 0 <= v < g.n for v in tau):
        raise ValueError(f"target {dict(tau)} has a vertex outside 0..{g.n - 1}")
    total = enumerate_colorings(g, lists, cap).count
    if total == 0:
        raise ValueError("no proper colorings exist; containment undefined")
    if any(tau[v] not in lists[v] for v in tau):
        return Fraction(0)
    restricted = [
        [tau[v]] if v in tau else list(s) for v, s in enumerate(lists)
    ]
    good = enumerate_colorings(g, restricted, cap).count
    return Fraction(good, total)


# ---------------------------------------------------------------------------
# Random greedy
# ---------------------------------------------------------------------------


def ordered_greedy_sample(g: Graph, order: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Color the vertices in `order` (a permutation of 0..n-1), each with a
    uniform color of the palette 1..D+1 outside its colored neighborhood;
    returns the colors indexed by vertex.  This is slack greedy on the
    full palette; in the order arange(n) it is slack_greedy_sample with
    every list 1..D+1, without building the lists.  An order that is not a
    permutation of 0..n-1 is a ValueError."""
    order = np.asarray(order)
    if order.shape != (g.n,) or not np.array_equal(np.sort(order), np.arange(g.n)):
        raise ValueError(f"order {order.tolist()} is not a permutation of 0..{g.n - 1}")
    allowed, earlier, later, _ = ban_matrix(g, order, np.zeros(g.n, dtype=np.int64))
    return slack_greedy(order, allowed, earlier, later, rng.random(g.n))[np.argsort(order)]


def random_greedy_sample(g: Graph, rng: np.random.Generator) -> np.ndarray:
    """Pick a uniform uncolored vertex, then a uniform color outside its
    colored neighborhood; palette is [max_degree + 1] so this always
    completes.  The vertex picks read no color: this is
    ordered_greedy_sample in the order rng.permutation(n)."""
    return ordered_greedy_sample(g, rng.permutation(g.n), rng)


def random_greedy_exact_probability(g: Graph, target: Mapping[int, int]) -> Fraction:
    """Exact P(random greedy output == target), summed over all vertex
    orders and color choices.

    Along any order consistent with producing `target`, the partial
    coloring is target restricted to the colored set, so a subset-DP
    over colored sets is exact.  2^n states: n above EXACT_CAP (the
    ground cap of audit.exact_spread) is a CapExceeded.  A target random greedy never
    outputs (a color off the palette 1..D+1, or an edge whose ends share
    one) has probability 0.
    """
    n = g.n
    if set(target) != set(range(n)):
        raise ValueError("target must color every vertex")
    if n > EXACT_CAP:
        raise CapExceeded(f"random-greedy subset DP over {n} vertices exceeds {EXACT_CAP}")
    palette = range(1, g.max_degree + 2)
    if any(c not in palette for c in target.values()) or any(
        target[u] == target[v] for u, v in g.edges()
    ):
        return Fraction(0)
    full = (1 << n) - 1
    adj = g.neighbor_lists()
    prob = {0: Fraction(1)}
    for mask in range(full):
        p = prob[mask]
        uncolored = n - bin(mask).count("1")
        pick = Fraction(1, uncolored)
        for v in range(n):
            if mask >> v & 1:
                continue
            used = {target[w] for w in adj[v] if mask >> w & 1}
            n_avail = sum(1 for c in palette if c not in used)
            nxt = mask | 1 << v
            prob[nxt] = prob.get(nxt, Fraction(0)) + p * pick / n_avail
    return prob[full]


# ---------------------------------------------------------------------------
# Counterexample instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    kind: str
    graph: Graph
    lists: tuple[tuple[int, ...], ...]
    target: dict[int, int]
    # the containment probability the instance is designed to exhibit
    expected: Fraction | None


def build_counterexample(kind: str, d: int) -> Counterexample:
    """Exact instances whose natural coloring distributions fail to be
    O(1/D)-spread.

    red_thumb: K_{D+1} where vertex 0 additionally allows color 0; the
    uniform list-coloring puts mass 1/2 on sigma(0) = 0.

    clique_minus_clique: complete graph minus a clique on sqrt(D+1)
    vertices; the uniform (D+1)-coloring gives all of U the last color
    with probability (D+1)^(-(sqrt(D+1)+1)/2).

    greedy_boys: K_{D,D}; the random-greedy distribution hits the
    coloring that stacks color D+1 on one side with probability at
    least (2D)^-D.
    """
    if d < 1:
        raise ValueError("need D >= 1")
    if kind == "red_thumb":
        g = complete_graph(d + 1)
        lists = [list(range(0, d + 2))] + [list(range(1, d + 2)) for _ in range(d)]
        return Counterexample(
            kind, g, tuple(map(tuple, lists)), {0: 0}, Fraction(1, 2)
        )
    if kind == "clique_minus_clique":
        root = math.isqrt(d + 1)
        if root * root != d + 1:
            raise ValueError(f"clique_minus_clique needs D+1 a perfect square, got D={d}")
        n = d + 1
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not (u < root and v < root)
        ]
        g = Graph.from_edges(n, edges)
        lists = [list(range(1, d + 2)) for _ in range(n)]
        target = {u: d + 1 for u in range(root)}
        # favorable / total = D-falling-(n-root) / ((D+1)-falling-(n-root) * root^root),
        # which equals (D+1)^(-(sqrt(D+1)+1)/2)
        expected = Fraction(
            math.prod(range(d - (n - root) + 1, d + 1)),  # D falling (n-root)
            math.prod(range(d + 1 - (n - root) + 1, d + 2)) * root**root,
        )
        return Counterexample(kind, g, tuple(map(tuple, lists)), target, expected)
    if kind == "greedy_boys":
        g = complete_bipartite(d, d)
        lists = [list(range(1, d + 2)) for _ in range(2 * d)]
        target = {i: i + 1 for i in range(d)}
        target.update({j: d + 1 for j in range(d, 2 * d)})
        return Counterexample(kind, g, tuple(map(tuple, lists)), target, None)
    raise ValueError(f"unknown counterexample kind {kind!r}")
