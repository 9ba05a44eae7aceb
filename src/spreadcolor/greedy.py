"""Greedy samplers, exact coloring enumeration, and the three
counterexample instances showing that the uniform and random-greedy
distributions need not be well spread.

A list assignment maps each vertex to its allowed colors; a (partial)
coloring is a plain dict vertex -> color.  Exact probabilities are
Fractions throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import CapExceeded, StuckVertex
from .graphs import Graph, complete_bipartite, complete_graph

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


def slack_greedy_sample(
    g: Graph,
    lists: ListAssignment,
    order: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
) -> Coloring:
    """Color the vertices in the given order, each uniformly from its
    list minus the colors already placed on its neighbors.

    With |S_v| >= d(v) + 1 for all v no vertex can get stuck; otherwise
    StuckVertex may be raised.  Default order is ascending id.
    """
    if rng is None:
        rng = np.random.default_rng()
    if order is None:
        order = range(g.n)
    sigma: Coloring = {}
    for v in order:
        used = {sigma[w] for w in g.neighbors(v) if w in sigma}
        avail = [c for c in lists[v] if c not in used]
        if not avail:
            raise StuckVertex(f"vertex {v} has no available color")
        sigma[v] = avail[int(rng.integers(len(avail)))]
    return sigma


def slack_greedy_exact_distribution(
    g: Graph, lists: ListAssignment, order: Sequence[int] | None = None
) -> dict[tuple[int, ...], Fraction]:
    """Exact output distribution of slack_greedy_sample, keyed by the
    color tuple in vertex order.  Exponential; for small instances only."""
    if order is None:
        order = list(range(g.n))
    out: dict[tuple[int, ...], Fraction] = {}

    def rec(i: int, sigma: Coloring, prob: Fraction):
        if i == len(order):
            key = tuple(sigma[v] for v in range(g.n))
            out[key] = out.get(key, Fraction(0)) + prob
            return
        v = order[i]
        used = {sigma[w] for w in g.neighbors(v) if w in sigma}
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

    def __iter__(self) -> Iterator[Coloring]:
        yield from _search(self.graph, self.lists, self.cap)


def _search(g: Graph, lists: Sequence[Sequence[int]], cap: int) -> Iterator[Coloring]:
    """Backtracking over vertices, always branching on the vertex with the
    fewest remaining colors.  Counts search nodes against `cap`."""
    n = g.n
    sigma: Coloring = {}
    avail: list[set[int]] = [set(s) for s in lists]
    nodes = 0

    def pick() -> int:
        best, best_len = -1, 1 << 60
        for v in range(n):
            if v not in sigma and len(avail[v]) < best_len:
                best, best_len = v, len(avail[v])
        return best

    def rec() -> Iterator[Coloring]:
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
            for w in g.neighbors(v):
                if w not in sigma and c in avail[w]:
                    avail[w].discard(c)
                    removed.append(w)
            sigma[v] = c
            yield from rec()
            del sigma[v]
            for w in removed:
                avail[w].add(c)

    yield from rec()


def enumerate_colorings(
    g: Graph, lists: ListAssignment, cap: int = 10**8
) -> ColoringEnumeration:
    """Exact count of proper list colorings (CapExceeded beyond `cap`
    search nodes), plus an iterator that yields each coloring once."""
    count = sum(1 for _ in _search(g, lists, cap))
    return ColoringEnumeration(
        graph=g, lists=tuple(tuple(s) for s in lists), cap=cap, count=count
    )


def exact_containment_uniform(
    g: Graph, lists: ListAssignment, tau: Mapping[int, int], cap: int = 10**8
) -> Fraction:
    """P(sigma ⊇ tau) for sigma uniform over all proper list colorings,
    as an exact rational."""
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


def random_greedy_sample(g: Graph, rng: np.random.Generator) -> Coloring:
    """Pick a uniform uncolored vertex, then a uniform color outside its
    colored neighborhood; palette is [max_degree + 1] so this always
    completes."""
    palette = range(1, g.max_degree + 2)
    uncolored = list(range(g.n))
    sigma: Coloring = {}
    while uncolored:
        i = int(rng.integers(len(uncolored)))
        uncolored[i], uncolored[-1] = uncolored[-1], uncolored[i]
        v = uncolored.pop()
        used = {sigma[w] for w in g.neighbors(v) if w in sigma}
        avail = [c for c in palette if c not in used]
        sigma[v] = avail[int(rng.integers(len(avail)))]
    return sigma


def random_greedy_exact_probability(g: Graph, target: Mapping[int, int]) -> Fraction:
    """Exact P(random greedy output == target), summed over all vertex
    orders and color choices.

    Along any order consistent with producing `target`, the partial
    coloring is target restricted to the colored set, so a subset-DP
    over colored sets is exact.  2^n states; small graphs only.
    """
    n = g.n
    if set(target) != set(range(n)):
        raise ValueError("target must color every vertex")
    palette = range(1, g.max_degree + 2)
    full = (1 << n) - 1
    prob = {0: Fraction(1)}
    for mask in range(full):
        p = prob.get(mask)
        if p is None or p == 0:
            continue
        uncolored = n - bin(mask).count("1")
        pick = Fraction(1, uncolored)
        for v in range(n):
            if mask >> v & 1:
                continue
            used = {target[w] for w in g.neighbors(v) if mask >> w & 1}
            if target[v] in used:
                continue
            n_avail = sum(1 for c in palette if c not in used)
            nxt = mask | 1 << v
            prob[nxt] = prob.get(nxt, Fraction(0)) + p * pick / n_avail
    return prob.get(full, Fraction(0))


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
