"""Independent dict-based oracles that the array code is checked against."""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from spreadcolor.graphs import Graph


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


def regularize_reference(g: Graph) -> Graph:
    """The tuple-and-set regularization that `graphs.regularize` replaced,
    kept verbatim (without its self-checks) as the reference its array
    construction must equal: m copies of g and, per deficient vertex, an
    f_v-regular circulant on its copies, all through Graph.from_edges."""
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
    return Graph.from_edges(n * m, set(edges))
