"""Simple undirected graphs: container, generators, regularization.

Vertices are the integers 0..n-1.  Edge-list files carry one "u v" pair
per line (0-based ids, '#' starts a comment) after an optional first-line
"# n=<count>" header.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MaxTriesExceeded, VerificationFailed

__all__ = [
    "Graph",
    "check_proper",
    "complete_graph",
    "complete_bipartite",
    "disjoint_union",
    "neighborhood_complement_edges",
    "regularize",
    "gen_random_regular",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with sorted adjacency lists.

    Invariants (enforced by the constructors): no self-loops, no
    duplicate edges, symmetric adjacency.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    _nbr_sets: tuple[frozenset[int], ...] = field(repr=False, compare=False, default=())

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(
            n=n,
            adj=tuple(tuple(sorted(s)) for s in adj),
            _nbr_sets=tuple(frozenset(s) for s in adj),
        )

    def __post_init__(self):
        if not self._nbr_sets:
            object.__setattr__(self, "_nbr_sets", tuple(frozenset(a) for a in self.adj))

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @property
    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} not in graph of order {self.n}")
        return self.adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} not in graph of order {self.n}")
        return self._nbr_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._nbr_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def is_regular(self, d: int | None = None) -> bool:
        if self.n == 0:
            return True
        if d is None:
            d = len(self.adj[0])
        return all(len(a) == d for a in self.adj)

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        us, vs = [], []
        for u, v in self.edges():
            us.append(u)
            vs.append(v)
        return np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two int64 arrays (u < v); cached."""
        return self._edge_arrays

    @cached_property
    def _flat_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        flat = np.fromiter(
            (w for a in self.adj for w in a),
            dtype=np.int64,
            count=sum(len(a) for a in self.adj),
        )
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        ptr[1:] = np.cumsum([len(a) for a in self.adj])
        return flat, ptr

    def flat_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (flat neighbor array, offsets of length n+1); cached."""
        return self._flat_adjacency

    @cached_property
    def _components(self) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
        label = [-1] * self.n
        comps: list[tuple[int, ...]] = []
        for s in range(self.n):
            if label[s] >= 0:
                continue
            k = len(comps)
            comp, stack = [], [s]
            label[s] = k
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adj[u]:
                    if label[w] < 0:
                        label[w] = k
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        labels = np.asarray(label, dtype=np.int64)
        labels.flags.writeable = False
        return labels, tuple(comps)

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by their
        smallest vertex; computed once per graph."""
        return [list(c) for c in self._components[1]]

    def component_labels(self) -> np.ndarray:
        """Per vertex, the index of its component in components(); cached
        and read-only."""
        return self._components[0]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [[u, v] for u, v in self.edges()]})

    @staticmethod
    def from_json(text: str) -> "Graph":
        data = json.loads(text)
        return Graph.from_edges(int(data["n"]), [(int(u), int(v)) for u, v in data["edges"]])


def check_proper(
    g: Graph,
    colors: np.ndarray,
    touching: Sequence[int] | None = None,
    what: str = "coloring",
) -> None:
    """Raise VerificationFailed naming the first edge whose two ends share
    a color.  colors is indexed by vertex, 0 meaning uncolored, which never
    conflicts.  With `touching`, only the edges with an end in that vertex
    set are checked."""
    colors = np.asarray(colors)
    if colors.shape != (g.n,):
        raise ValueError(f"color array has shape {colors.shape}, expected ({g.n},)")
    if touching is None:
        u, v = g.edge_arrays()
    else:
        flat, ptr = g.flat_adjacency()
        s = np.asarray(touching, dtype=np.int64)
        lens = ptr[s + 1] - ptr[s]
        u = np.repeat(s, lens)
        v = flat[np.repeat(ptr[s] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]
    bad = np.flatnonzero((colors[u] == colors[v]) & (colors[u] != 0))
    if bad.size:
        a, b = sorted((int(u[bad[0]]), int(v[bad[0]])))
        raise VerificationFailed(
            f"{what} is not proper: edge ({a},{b}) has both ends colored {int(colors[a])}"
        )


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: parts {0..a-1} and {a..a+b-1}."""
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 on its own ids, g2 shifted up by g1.n."""
    edges = list(g1.edges()) + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + g2.n, edges)


# ---------------------------------------------------------------------------
# Neighborhood statistics
# ---------------------------------------------------------------------------


def neighborhood_complement_edges(g: Graph, v: int) -> int:
    """Number of non-edges among the neighbors of v.

    Equals C(d(v),2) minus the number of edges inside N_v; this is the
    sparsity statistic that classifies vertices for the decomposition.
    """
    nbrs = g.neighbor_set(v)
    inside = sum(len(nbrs & g._nbr_sets[u]) for u in nbrs) // 2
    return comb(len(nbrs), 2) - inside


def induced_edge_count(g: Graph, vs: Iterable[int]) -> int:
    vset = frozenset(vs)
    return sum(len(vset & g._nbr_sets[u]) for u in vset) // 2


# ---------------------------------------------------------------------------
# Regularization
# ---------------------------------------------------------------------------


def regularize(g: Graph) -> Graph:
    """Embed g as an induced prefix of a D-regular supergraph, D = max degree.

    Takes m copies of g (m = D+1, or D+2 when some deficiency f_v has
    f_v*(D+1) odd) and joins the copies of each deficient vertex v by an
    f_v-regular circulant: offsets +-1..+-floor(f_v/2), plus the antipodal
    offset m/2 when f_v is odd (m is even in that case).  Vertex v of the
    input is vertex v of the output, and copy 0 induces g exactly.
    """
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

    out = Graph.from_edges(n * m, set(edges))
    if not out.is_regular(d):
        raise VerificationFailed("regularized graph is not D-regular")
    for v in range(n):
        if out.neighbor_set(v) & frozenset(range(n)) != g.neighbor_set(v):
            raise VerificationFailed("original graph not induced on vertex prefix")
    return out


# ---------------------------------------------------------------------------
# Random regular graphs
# ---------------------------------------------------------------------------


def gen_random_regular(n: int, d: int, seed: int, max_tries: int = 1000) -> Graph:
    """Random simple d-regular graph on n vertices, deterministic per seed.

    Pairing-model construction: repeatedly pair up the remaining stubs,
    keep the simple edges, and re-shuffle only the stubs whose pair was a
    loop or duplicate.  A round that cannot place any remaining stub
    aborts the attempt; after `max_tries` aborted attempts we give up.
    Plain whole-pairing rejection would be hopeless already at d ~ 20.
    """
    if d >= n:
        raise ValueError(f"need d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = random.Random(seed)
    if d == 0:
        return Graph.from_edges(n, [])

    def attempt() -> set[tuple[int, int]] | None:
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            rng.shuffle(stubs)
            leftover: list[int] = []
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                if u == v or (u, v) in edges:
                    leftover.extend((u, v))
                else:
                    edges.add((u, v))
            if len(leftover) == len(stubs):
                # No stub could be placed; check whether any placement exists.
                ok = any(
                    a != b and (min(a, b), max(a, b)) not in edges
                    for i, a in enumerate(leftover)
                    for b in leftover[i + 1 :]
                )
                if not ok:
                    return None
            stubs = leftover
        return edges

    for _ in range(max_tries):
        edges = attempt()
        if edges is not None:
            g = Graph.from_edges(n, edges)
            if g.is_regular(d):
                return g
    raise MaxTriesExceeded(f"no simple {d}-regular graph found in {max_tries} attempts")


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------


def read_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse an edge-list file.  The vertex count is `n` if given, else the
    first-line header "# n=<count>" that write_edge_list writes, else one
    more than the largest id.  An edge outside the count is a ValueError."""
    lines = text.splitlines()
    header = re.fullmatch(r"#\s*n=(\d+)", lines[0].strip()) if lines else None
    if n is None and header:
        n = int(header.group(1))
    edges: list[tuple[int, int]] = []
    top = -1
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge-list line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        top = max(top, u, v)
    if n is None:
        n = top + 1
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
