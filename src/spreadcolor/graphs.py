"""Simple undirected graphs: container, generators, regularization.

Vertices are the integers 0..n-1.  Edge-list files carry one "u v" pair
per line (0-based ids, '#' starts a comment) after an optional first-line
"# n=<count>" header.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import MaxTriesExceeded, VerificationFailed

__all__ = [
    "Graph",
    "check_proper",
    "common_neighbor_blocks",
    "connected_components",
    "count_complement_edges",
    "complete_graph",
    "complete_bipartite",
    "disjoint_union",
    "neighborhood_complement_edges",
    "regularize",
    "gen_random_regular",
    "keyed_rng",
    "read_edge_list",
    "write_edge_list",
]


# the largest n whose edge keys u*n + v (u, v < n) fit int64
_MAX_ORDER = math.isqrt(2**63 - 1)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph held as CSR arrays: the neighbors of vertex v
    are flat[ptr[v]:ptr[v+1]], in increasing order.  Both arrays are int64
    and read-only.

    Invariants: no self-loops, no duplicate edges, symmetric adjacency.
    `from_edges` and `_from_csr` (and every generator and reader built on
    them) enforce them; the raw `Graph(n, flat, ptr)` checks nothing and
    trusts its caller.
    """

    n: int
    flat: np.ndarray
    ptr: np.ndarray
    # Caches, set through object.__setattr__: the degree range on
    # construction, the rest (None until then) on first use.  They are
    # declared fields rather than cached_propertys: a cached_property adds a
    # key to the instance __dict__ after construction, which sends every
    # later attribute load on the graph down CPython's slower path.
    _min_degree: int = field(init=False, repr=False)
    _max_degree: int = field(init=False, repr=False)
    _edge_arrays: tuple[np.ndarray, np.ndarray] | None = field(repr=False, default=None)
    _components: tuple[np.ndarray, tuple[tuple[int, ...], ...]] | None = field(
        repr=False, default=None
    )
    _complement_edges: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flat", _frozen(self.flat))
        object.__setattr__(self, "ptr", _frozen(self.ptr))
        lens = np.diff(self.ptr) if self.n else np.zeros(1, dtype=np.int64)
        object.__setattr__(self, "_min_degree", int(lens.min()))
        object.__setattr__(self, "_max_degree", int(lens.max()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.flat, other.flat)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.flat.tobytes(), self.ptr.tobytes()))

    def __reduce__(self):  # unpickled arrays would be writable, and caches can be rebuilt
        return Graph, (self.n, self.flat, self.ptr)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on 0..n-1 with the given edges, repeats merged.  A negative n,
        an edge out of range or a self-loop is a ValueError naming the first
        bad edge in input order.  So is an n past _MAX_ORDER, checked before
        anything is allocated."""
        if n < 0:
            raise ValueError(f"need n >= 0, got n={n}")
        if n > _MAX_ORDER:
            raise ValueError(f"n={n} is too large: the edge keys u*n+v need n <= {_MAX_ORDER}")
        edges = list(edges)
        try:
            ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        except OverflowError:  # an id past int64; clipping keeps it out of range
            ends = np.fromiter((min(max(x, -1), n) for x in chain.from_iterable(edges)), np.int64)
        if len(ends) != 2 * len(edges):
            raise ValueError("every edge must be a pair of vertex ids")
        u, v = ends[0::2], ends[1::2]
        bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v))
        if bad.size:
            a, b = edges[bad[0]]
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            raise ValueError(f"self-loop at {a}")
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        return _from_keys(n, keys[np.diff(keys, prepend=-1) > 0])  # 10x faster than np.unique

    @staticmethod
    def _from_csr(n: int, flat: np.ndarray, ptr: np.ndarray) -> "Graph":
        """Graph whose row v is flat[ptr[v]:ptr[v+1]].  Checks what
        from_edges enforces, ids in range, no self-loop and strictly
        increasing rows (so no duplicate edge), and raises ValueError
        otherwise.  Symmetry is the caller's duty: every undirected edge
        must appear once in each row."""
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
        return Graph(n, flat, ptr)

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def min_degree(self) -> int:
        return self._min_degree

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} not in graph of order {self.n}")
        return tuple(self.flat[self.ptr[v] : self.ptr[v + 1]].tolist())

    def neighbor_lists(self) -> list[list[int]]:
        """Every row as a list of ints, for Python loops over the whole graph; not cached."""
        cells, bounds = self.flat.tolist(), self.ptr.tolist()
        return [cells[a:b] for a, b in zip(bounds, bounds[1:])]

    def edges(self) -> Iterator[tuple[int, int]]:
        """The edges (u, v) with u < v, in lexicographic order."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    def edge_count(self) -> int:
        return len(self.flat) // 2

    def is_regular(self, d: int | None = None) -> bool:
        if self.n == 0:
            return True
        return self.min_degree == self.max_degree and d in (None, self.max_degree)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints (u < v) as two read-only int64 arrays in edges() order; cached."""
        if self._edge_arrays is None:
            u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.ptr))
            keep = u < self.flat
            object.__setattr__(self, "_edge_arrays", (_frozen(u[keep]), _frozen(self.flat[keep])))
        return self._edge_arrays

    def gather_neighbors(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(degree of each vertex in vs, their sorted neighbor lists
        concatenated in the order of vs).  On a regular graph the rows are
        read as a (n, D) view of flat."""
        flat, ptr = self.flat, self.ptr
        if self._min_degree == self._max_degree:
            d = self._max_degree
            return np.full(len(vs), d, dtype=np.int64), flat.reshape(self.n, d)[vs].ravel()
        lens = ptr[vs + 1] - ptr[vs]
        return lens, flat[np.repeat(ptr[vs] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]

    def _component_data(self) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
        if self._components is None:
            label, comps = connected_components(self.neighbor_lists(), range(self.n))
            comps = tuple(tuple(sorted(c)) for c in comps)
            object.__setattr__(self, "_components", (_frozen(label), comps))
        return self._components

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by their
        smallest vertex; computed once per graph."""
        return [list(c) for c in self._component_data()[1]]

    def component_labels(self) -> np.ndarray:
        """Per vertex, the index of its component in components(); cached
        and read-only."""
        return self._component_data()[0]


def _frozen(a) -> np.ndarray:
    """A read-only int64 view of a; a itself keeps its flags."""
    view = np.asarray(a, dtype=np.int64).view()
    view.flags.writeable = False
    return view


def _from_keys(n: int, keys: np.ndarray) -> Graph:
    """Graph._from_csr of the sorted keys u*n + v, one per edge direction."""
    rows, flat = np.divmod(keys, n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return Graph._from_csr(n, flat, ptr)


def connected_components(
    rows: list[list[int]], roots: Iterable[int]
) -> tuple[list[int], list[list[int]]]:
    """Depth-first search from each root not reached yet, in the graph where
    u has neighbors rows[u].  Returns (label, comps): comps[k] is the k-th
    component in visit order, label[v] its k, or -1 if no root reaches v."""
    label = [-1] * len(rows)
    comps: list[list[int]] = []
    for s in roots:
        if label[s] >= 0:
            continue
        k = len(comps)
        comp, stack = [], [s]
        label[s] = k
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in rows[u]:
                if label[w] < 0:
                    label[w] = k
                    stack.append(w)
        comps.append(comp)
    return label, comps


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
        stat = count_complement_edges(g, np.arange(g.n))
        object.__setattr__(g, "_complement_edges", _frozen(stat))
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
    degree = np.diff(g.ptr)
    deficiency = d - degree
    m = d + 2 if (deficiency * (d + 1) % 2).any() else d + 1
    big = n * m

    # the m copies of g: row c*n + u, column c*n + w for each w in N(u)
    copies = np.arange(m, dtype=np.int64)[:, None]
    copy_rows = copies * n + np.repeat(np.arange(n, dtype=np.int64), degree)
    copy_cols = copies * n + g.flat
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
    out = _from_keys(big, keys)

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
    object.__setattr__(out, "_complement_edges", _frozen(np.tile(stat, m)))
    return out


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------


def keyed_rng(*key: int) -> np.random.Generator:
    """The PCG64 stream keyed by a tuple of ints, such as (seed, trial):
    each key has its own stream, whatever order the keys are drawn in."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


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
    more than the largest id.  An edge outside the count is a ValueError,
    and so is a first line that starts like the header, "# n=", but is not
    one."""
    lines = text.splitlines()
    first = lines[0].strip() if lines else ""
    header = re.fullmatch(r"#\s*n=(\d+)", first)
    if header is None and re.match(r"#\s*n=", first):
        raise ValueError(f"bad edge-list header: {first!r} (expected '# n=<count>')")
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
