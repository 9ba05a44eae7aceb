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
from typing import Iterable, Iterator

import numpy as np

from .errors import MaxTriesExceeded, VerificationFailed

__all__ = [
    "Graph",
    "check_proper",
    "common_neighbor_blocks",
    "count_complement_edges",
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

    Invariants: no self-loops, no duplicate edges, symmetric adjacency.
    `from_edges` (and every generator and reader built on it) enforces
    them; the raw `Graph(n, adj)` checks nothing and trusts its caller.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    # Lazy caches, empty (None or -1) until first use and then set through
    # object.__setattr__.  They are declared fields rather than
    # cached_propertys: a cached_property adds a key to the instance
    # __dict__ after construction, which sends every later attribute load
    # on the graph down CPython's slower path.
    _min_degree: int = field(repr=False, compare=False, default=-1)
    _max_degree: int = field(repr=False, compare=False, default=-1)
    _edge_arrays: tuple[np.ndarray, np.ndarray] | None = field(
        repr=False, compare=False, default=None
    )
    _flat_adjacency: tuple[np.ndarray, np.ndarray] | None = field(
        repr=False, compare=False, default=None
    )
    _components: tuple[np.ndarray, tuple[tuple[int, ...], ...]] | None = field(
        repr=False, compare=False, default=None
    )
    _complement_edges: np.ndarray | None = field(repr=False, compare=False, default=None)

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
        return Graph(n=n, adj=tuple(tuple(sorted(s)) for s in adj))

    @staticmethod
    def _from_csr(n: int, flat: np.ndarray, ptr: np.ndarray) -> "Graph":
        """Graph whose row v is flat[ptr[v]:ptr[v+1]], with both arrays kept
        as the flat_adjacency() cache.  Checks what from_edges enforces, ids
        in range, no self-loop and strictly increasing rows (so no duplicate
        edge), and raises ValueError otherwise.  Symmetry is the caller's
        duty: every undirected edge must appear once in each row."""
        flat = np.asarray(flat, dtype=np.int64)
        ptr = np.asarray(ptr, dtype=np.int64)
        lens = np.diff(ptr)
        if ptr.shape != (n + 1,) or ptr[0] != 0 or ptr[-1] != len(flat) or (lens < 0).any():
            raise ValueError(f"bad CSR offsets for n={n} and {len(flat)} entries")
        if flat.size and not (0 <= flat.min() and flat.max() < n):
            raise ValueError(f"neighbor id out of range for n={n}")
        rows = np.repeat(np.arange(n, dtype=np.int64), lens)
        loops = np.flatnonzero(flat == rows)
        if loops.size:
            raise ValueError(f"self-loop at {rows[loops[0]]}")
        same_row = rows[1:] == rows[:-1]
        bad = np.flatnonzero(same_row & (flat[1:] <= flat[:-1]))
        if bad.size:
            raise ValueError(
                f"row {rows[bad[0]]} is not strictly increasing at "
                f"{flat[bad[0]]}, {flat[bad[0] + 1]} (a duplicate or unsorted neighbor)"
            )
        cells, bounds = flat.tolist(), ptr.tolist()
        adj = tuple(tuple(cells[a:b]) for a, b in zip(bounds, bounds[1:]))
        out = Graph(n=n, adj=adj)
        object.__setattr__(out, "_flat_adjacency", (flat, ptr))
        return out

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def _cache_degree_range(self) -> None:
        lens = list(map(len, self.adj))
        object.__setattr__(self, "_min_degree", min(lens, default=0))
        object.__setattr__(self, "_max_degree", max(lens, default=0))

    @property
    def max_degree(self) -> int:
        if self._max_degree < 0:
            self._cache_degree_range()
        return self._max_degree

    @property
    def min_degree(self) -> int:
        if self._min_degree < 0:
            self._cache_degree_range()
        return self._min_degree

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} not in graph of order {self.n}")
        return self.adj[v]

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
        return self.min_degree == self.max_degree and d in (None, self.max_degree)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two int64 arrays (u < v), in edges() order; cached."""
        if self._edge_arrays is None:
            flat, ptr = self.flat_adjacency()
            u = np.repeat(np.arange(self.n), np.diff(ptr))
            keep = u < flat
            object.__setattr__(self, "_edge_arrays", (u[keep], flat[keep]))
        return self._edge_arrays

    def flat_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (flat neighbor array, offsets of length n+1); cached."""
        if self._flat_adjacency is None:
            flat = np.fromiter(
                (w for a in self.adj for w in a),
                dtype=np.int64,
                count=sum(len(a) for a in self.adj),
            )
            ptr = np.zeros(self.n + 1, dtype=np.int64)
            ptr[1:] = np.cumsum([len(a) for a in self.adj])
            object.__setattr__(self, "_flat_adjacency", (flat, ptr))
        return self._flat_adjacency

    def gather_neighbors(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(degree of each vertex in vs, their sorted neighbor lists
        concatenated in the order of vs)."""
        flat, ptr = self.flat_adjacency()
        lens = ptr[vs + 1] - ptr[vs]
        return lens, flat[np.repeat(ptr[vs] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]

    def _component_data(self) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
        if self._components is None:
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
            object.__setattr__(self, "_components", (labels, tuple(comps)))
        return self._components

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by their
        smallest vertex; computed once per graph."""
        return [list(c) for c in self._component_data()[1]]

    def component_labels(self) -> np.ndarray:
        """Per vertex, the index of its component in components(); cached
        and read-only."""
        return self._component_data()[0]

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
    edges: tuple[np.ndarray, np.ndarray] | None = None,
    what: str = "coloring",
) -> None:
    """Raise VerificationFailed naming the first edge whose two ends share
    a color.  colors is indexed by vertex, 0 meaning uncolored, which never
    conflicts.  `edges`, two arrays of endpoints, restricts the check to
    those edges of g; by default every edge is checked."""
    colors = np.asarray(colors)
    if colors.shape != (g.n,):
        raise ValueError(f"color array has shape {colors.shape}, expected ({g.n},)")
    u, v = g.edge_arrays() if edges is None else edges
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


# Cells of one block's common-neighbor count matrix, rows x n; a block also
# gathers at most this many wedges (rows x D^2).  At 2^16 the transient
# arrays of a block stay within a few MiB.
_BLOCK_CELLS = 1 << 16


def common_neighbor_blocks(
    g: Graph, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (block, cnt) over consecutive blocks of the vertex array `rows`:
    cnt has shape (len(block), n) and cnt[i, w] = |N(block[i]) ∩ N(w)|.

    Each block gathers the wedges b - m - w for m in N(b) from the CSR
    arrays and counts them with one bincount over the keys i*n + w."""
    n = g.n
    step = max(1, _BLOCK_CELLS // max(n, g.max_degree**2, 1))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        lens, mids = g.gather_neighbors(block)
        mid_lens, ends = g.gather_neighbors(mids)
        owner = np.repeat(np.repeat(np.arange(len(block)), lens), mid_lens)
        cnt = np.bincount(owner * n + ends, minlength=len(block) * n)
        yield block, cnt.reshape(len(block), n)


def neighborhood_complement_edges(g: Graph) -> np.ndarray:
    """Per vertex v, the number of non-edges among the neighbors of v, as a
    read-only int64 array; computed once per graph.

    Equals C(d(v),2) minus the edges inside N_v, and the latter is half of
    the sum over w in N_v of |N_v ∩ N_w|; this is the sparsity statistic
    that classifies vertices for the decomposition.  A graph built by
    regularize has it cached from the start (see regularize).
    """
    if g._complement_edges is None:
        out = count_complement_edges(g, np.arange(g.n))
        out.flags.writeable = False
        object.__setattr__(g, "_complement_edges", out)
    return g._complement_edges


def count_complement_edges(g: Graph, rows: np.ndarray) -> np.ndarray:
    """The sparsity statistic of each vertex in `rows`, in that order,
    counted afresh from blocked common-neighbor counts; no cache is read
    or filled."""
    out = []
    for block, cnt in common_neighbor_blocks(g, rows):
        lens, mids = g.gather_neighbors(block)
        row = np.repeat(np.arange(len(block)), lens)
        twice_inside = np.bincount(row, weights=cnt[row, mids], minlength=len(block))
        out.append(lens * (lens - 1) // 2 - twice_inside.astype(np.int64) // 2)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


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

    The output is built as arrays: both directions of every edge are
    emitted once, sorted by (row, column) into one CSR and handed to
    Graph._from_csr.  The offsets are pairwise distinct mod m (2*off < m,
    and m/2 is its own inverse), so no edge is emitted twice.

    The output's sparsity statistic is derived from the input's and cached
    on it, so neighborhood_complement_edges(out) does not count it again.
    For copy c of input vertex u, with d_u = deg(u) and f_u = D - d_u,

        nce_out(c*n + u) = C(D,2) - C(d_u,2) + nce_g(u) - t(f_u),

    where t(f) is the number of edges among the neighbors of vertex 0 in
    the f-regular circulant on Z_m with the offsets above.  N_out(c*n + u)
    is the copy-c image of N_g(u) together with the f_u circulant
    neighbors of u, and the edges inside it fall into three cases:
    between two copy-c neighbors, exactly the edges of N_g(u) (copy c is
    an induced copy of g); between two circulant neighbors, the t(f_u)
    circulant edges, since those vertices are copies of u alone; and
    between a copy-c neighbor w and a circulant neighbor (c', u), none,
    since an edge of the output either stays inside one copy (and c' != c)
    or joins two copies of one vertex (and w != u).
    """
    d = g.max_degree
    if d < 1:
        raise ValueError("regularize requires max degree >= 1")
    if g.is_regular():
        return g
    n = g.n
    gflat, gptr = g.flat_adjacency()
    degree = np.diff(gptr)
    deficiency = d - degree
    m = d + 2 if (deficiency * (d + 1) % 2).any() else d + 1
    big = n * m

    # the m copies of g: row c*n + u, column c*n + w for each w in N(u)
    copies = np.arange(m, dtype=np.int64)[:, None]
    copy_rows = copies * n + np.repeat(np.arange(n, dtype=np.int64), degree)
    copy_cols = copies * n + gflat
    # the circulants: vertex v's j-th offset, j < f_v, is +(j//2 + 1) for
    # even j and -(j//2 + 1) for odd j, except that the last one is m/2
    # when f_v is odd
    owner = np.repeat(np.arange(n, dtype=np.int64), deficiency)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(deficiency) - deficiency, deficiency)
    offset = np.where(j % 2 == 0, j // 2 + 1, -(j // 2 + 1))
    offset[(j == deficiency[owner] - 1) & (deficiency[owner] % 2 == 1)] = m // 2
    circ_rows = copies * n + owner
    circ_cols = (copies + offset) % m * n + owner

    keys = np.concatenate(
        [(copy_rows * big + copy_cols).ravel(), (circ_rows * big + circ_cols).ravel()]
    )
    keys.sort()
    rows, flat = np.divmod(keys, big)
    ptr = np.zeros(big + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=big), out=ptr[1:])
    out = Graph._from_csr(big, flat, ptr)

    if not out.is_regular(d):
        raise VerificationFailed("regularized graph is not D-regular")
    # both edge lists are in lexicographic order with u < v, so the edges
    # inside the prefix are those with v < n, in g's order
    ou, ov = out.edge_arrays()
    gu, gv = g.edge_arrays()
    prefix = ov < n
    if not (np.array_equal(ou[prefix], gu) and np.array_equal(ov[prefix], gv)):
        raise VerificationFailed("original graph not induced on vertex prefix")

    # t(f) from the offsets of one vertex of each deficiency f: the pairs
    # of offsets whose difference is an offset too, counted both ways
    circulant_edges = np.zeros(d + 1, dtype=np.int64)
    fs, first = np.unique(deficiency, return_index=True)
    starts = np.cumsum(deficiency) - deficiency
    for f, u in zip(fs.tolist(), first.tolist()):
        own = offset[starts[u] : starts[u] + f] % m
        is_offset = np.zeros(m, dtype=bool)
        is_offset[own] = True
        circulant_edges[f] = is_offset[(own[:, None] - own[None, :]) % m].sum() // 2
    stat = (
        d * (d - 1) // 2
        - degree * (degree - 1) // 2
        + neighborhood_complement_edges(g)
        - circulant_edges[deficiency]
    )
    stat = np.tile(stat, m)
    stat.flags.writeable = False
    object.__setattr__(out, "_complement_edges", stat)
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
    if n < 0 or d < 0:
        raise ValueError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
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
