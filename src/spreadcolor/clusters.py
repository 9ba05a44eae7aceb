"""Cluster coloring and the full pipeline.

Each cluster C is matched against the palette through the legal-color
bigraph B (vertex ~ color iff no colored outside neighbor uses it).
Sparse-in-complement clusters (zeta = e(complement[C])/D^2 below
zeta0 = sqrt(eps)/D) are matched directly; denser ones first run the pair
process, which assigns one fresh color to each of eta*D non-adjacent
pairs, and match the leftovers.  Neither zeta0 nor eta is a parameter:
both are derived from the cluster's shape (its eps, D and zeta).  The
pipeline glues regularization, decomposition, the sparse phase and the
cluster loop into a sampler of proper (D+1)-colorings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decompose import check_vertex_ids, cluster_condition_counts, sparse_dense_decompose
from .errors import (
    EmptyChoiceSet,
    FloorNotMet,
    HypothesisViolated,
    MaxTriesExceeded,
    NegativeR,
    VerificationFailed,
)
from .graphs import Graph, check_proper, keyed_rng, regularize
from .greedy import ban_matrix, slack_greedy
from .matching import spread_X_perfect_matching
from .params import Params
from .sparse_phase import sparse_phase_color

__all__ = [
    "ClusterShape",
    "ClusterContext",
    "cluster_shape",
    "build_cluster_context",
    "process_pair_coloring",
    "color_cluster",
    "Pipeline",
    "PipelineResult",
]

_CLUSTER_TAG = 0xC1

H_MARGIN = 1.25  # the numeric margin standing in for "<<" in the eta hierarchy
D_MIN = 4  # the smallest max degree a Pipeline takes


@dataclass(frozen=True)
class ClusterShape:
    """The part of a cluster's context that no sample changes: the
    complement graph H on the cluster, zeta = e(H)/D^2, the branch
    threshold zeta0 = sqrt(eps)/D, the (position, outside neighbor) pairs
    that B is gathered from, and the edges with an end in the cluster,
    which the properness checks read.  Positions index `members`, the
    sorted cluster.  cluster_shape builds a shape only for a cluster that
    meets the cluster conditions."""

    members: np.ndarray  # the sorted cluster's vertex ids
    d: int
    eps: float
    zeta: float
    zeta0: float  # zeta below zeta0 takes the small branch, else the large one
    h_pairs: np.ndarray  # (e(H), 2) position pairs i < j, in lexicographic order
    h_deg: np.ndarray  # H-degree by position
    out_pos: np.ndarray  # position of each (vertex, outside neighbor) pair
    out_nbr: np.ndarray  # the outside neighbor of that pair
    edges: tuple[np.ndarray, np.ndarray]  # (member, neighbor) of each incident edge


def cluster_shape(g: Graph, cluster: Sequence[int], eps: float) -> ClusterShape:
    """Check |N_v \\ C| < eps*D and |C \\ N_v| < eps*D for each v of the
    cluster C, then compute H, zeta, zeta0 and the outside-neighbor index
    arrays.  The first failed condition (in vertex order, outside first)
    is a HypothesisViolated.  An eps outside (0, 1/2] (see _eta_rounds),
    an id outside 0..n-1 or a repeated id is a ValueError."""
    if not 0 < eps <= 0.5:
        raise ValueError(f"cluster tolerance eps = {eps} is not in (0, 1/2]")
    d = g.max_degree
    cl = sorted(cluster)
    check_vertex_ids(g, cl)
    repeated = [u for u, v in zip(cl, cl[1:]) if u == v]
    if repeated:
        raise ValueError(f"vertex {repeated[0]} appears more than once in the cluster")
    members = np.asarray(cl, dtype=np.int64)
    size = len(cl)
    lens, nbrs = g.gather_neighbors(members)
    outside, missing = cluster_condition_counts(g, members, (lens, nbrs))
    bad = np.flatnonzero((outside >= eps * d) | (missing >= eps * d))
    if bad.size:
        i = int(bad[0])
        if outside[i] >= eps * d:
            raise HypothesisViolated(f"|N_v \\ C| = {outside[i]} >= eps*D for v={cl[i]}")
        raise HypothesisViolated(f"|C \\ N_v| = {missing[i]} >= eps*D for v={cl[i]}")
    rows = np.repeat(np.arange(size), lens)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[members] = np.arange(size)
    inside = pos[nbrs] >= 0
    h = np.ones((size, size), dtype=bool)
    h[rows[inside], pos[nbrs[inside]]] = False  # its diagonal is never read
    h_pairs = np.argwhere(np.triu(h, 1))
    return ClusterShape(
        members=members,
        d=d,
        eps=eps,
        zeta=len(h_pairs) / (d * d),
        zeta0=math.sqrt(eps) / d,
        h_pairs=h_pairs,
        h_deg=missing - 1,
        out_pos=rows[~inside],
        out_nbr=nbrs[~inside],
        edges=(np.repeat(members, lens), nbrs),
    )


@dataclass
class ClusterContext:
    """Everything needed to color one cluster against a fixed outside
    coloring: its shape (the cluster, D, eps, H, zeta) and the legal-color
    bigraph B, held as its read-only |C|-by-(D+1) boolean matrix `b`:
    b[x, y] is true when color y + 1 is legal for the vertex at position x
    in `shape.members`."""

    graph: Graph
    shape: ClusterShape
    sigma_out: np.ndarray  # outside colors indexed by vertex, 0 = uncolored
    b: np.ndarray


def build_cluster_context(g: Graph, shape: ClusterShape, sigma_out: np.ndarray) -> ClusterContext:
    """Assemble B on the cluster's shape: one gather of sigma_out, a color
    array indexed by vertex with 0 for uncolored.  sigma_out may be
    partial (later clusters are still uncolored while earlier ones are
    being processed); only colored outside neighbors constrain B.  A
    sigma_out of another length, or one that colors a cluster vertex or
    uses a color outside 0..D+1, is a ValueError."""
    d = shape.d
    out = np.array(sigma_out, dtype=np.int64)  # a copy: the caller colors on
    if out.shape != (g.n,):
        raise ValueError(f"sigma_out must be a color array of shape ({g.n},)")
    if out[shape.members].any():
        raise ValueError("sigma_out must not color cluster vertices")

    seen = out[shape.out_nbr]
    if seen.size and not (0 <= seen.min() and seen.max() <= d + 1):
        raise ValueError(f"sigma_out colors must lie in 0..D+1 = {d + 1}")
    banned = np.zeros((len(shape.members), d + 2), dtype=bool)  # column 0: uncolored
    banned[shape.out_pos, seen] = True
    legal = ~banned[:, 1:]
    legal.flags.writeable = False
    return ClusterContext(graph=g, shape=shape, sigma_out=out, b=legal)


def _eta_rounds(shape: ClusterShape) -> tuple[float, int]:
    """Pick eta strictly inside the hierarchy 1/D, zeta << eta << zeta/eps, 1
    (the geometric mean of the two ends), round eta*D to an integer >= 1,
    and check the rounded eta against the hierarchy.

    zeta <= eta*h_margin needs no check: 1.25*rounds >= zeta*D + 1/2, a
    margin no rounding error reaches.  Check 1 gives rounds >= 2, enough
    while zeta*D <= 2.  Above that low = zeta, and the cluster conditions
    every shape meets (|C| < (1+eps)*D, H-degrees < eps*D) with eps <= 1/2
    give zeta < (1+eps)*eps/2 <= 3/8, so high >= 2*zeta, rounds >=
    sqrt(2)*zeta*D - 1/2, and 1.25 times that is >= zeta*D + 1/2.  (Near
    eps = 1 the margin is gone, and rounding can break the bound.)"""
    d, eps, zeta = shape.d, shape.eps, shape.zeta
    low = max(zeta, 1.0 / d)
    high = min(zeta / eps, 1.0)
    eta = (low * high) ** 0.5
    rounds = max(1, round(eta * d))
    eta = rounds / d
    if not 1.0 / d < eta:
        raise HypothesisViolated(f"hierarchy: 1/D = {1/d:.4f} !< eta = {eta:.4f}")
    cap = min(zeta / eps, 1.0) / H_MARGIN
    if not eta <= cap:
        raise HypothesisViolated(
            f"hierarchy: eta = {eta:.4f} !<= min(zeta/eps,1)/h_margin = {cap:.4f}"
        )
    return eta, rounds


def process_pair_coloring(
    ctx: ClusterContext, rng: np.random.Generator, rounds: int, eta: float
) -> dict[int, int]:
    """`rounds` rounds of: pick a uniform non-edge pair still in the
    cluster, give both ends a uniform common legal color, retire pair and
    color.  color_cluster derives eta and rounds = eta*D (_eta_rounds, which
    checks the hierarchy); eta sets the floors each round must exceed.

    Every color in the result is used exactly twice, on a non-adjacent
    pair, so the partial coloring is proper no matter what the matching
    phase does with the remaining colors."""
    shape = ctx.shape
    d, eps, zeta, members = shape.d, shape.eps, shape.zeta, shape.members
    if zeta < shape.zeta0:
        raise HypothesisViolated(
            f"pair process requires zeta >= zeta0 ({zeta:.5f} < {shape.zeta0:.5f})"
        )
    hu, hv = shape.h_pairs.T  # positions
    alive = np.ones(len(members), dtype=bool)
    gamma = np.ones(d + 1, dtype=bool)  # y-indices
    pi: dict[int, int] = {}
    edge_floor = (zeta - 2 * eta * eps) * d * d
    color_floor = (1.0 - 2 * eps - eta) * d
    for i in range(rounds):
        edges = np.flatnonzero(alive[hu] & alive[hv])
        if not edges.size:
            raise EmptyChoiceSet(f"no non-edge pairs left at round {i + 1}")
        if not edges.size > edge_floor:
            raise FloorNotMet(
                f"round {i + 1}: e(H_i) = {edges.size} !> (zeta - 2*eta*eps)*D^2 "
                f"= {edge_floor:.2f}"
            )
        e = edges[int(rng.integers(edges.size))]
        p, q = int(hu[e]), int(hv[e])
        u, v = int(members[p]), int(members[q])
        common = np.flatnonzero(ctx.b[p] & ctx.b[q] & gamma)
        if not common.size:
            raise EmptyChoiceSet(f"no common legal color for pair ({u},{v})")
        if not common.size > color_floor:
            raise FloorNotMet(
                f"round {i + 1}: common colors {common.size} !> (1-2eps-eta)*D "
                f"= {color_floor:.2f}"
            )
        c = int(common[int(rng.integers(common.size))])
        pi[u] = c + 1
        pi[v] = c + 1
        alive[[p, q]] = False
        gamma[c] = False

    if len(set(pi.values())) != rounds or len(pi) != 2 * rounds:
        raise VerificationFailed("pair process bookkeeping broken")
    colors = np.zeros(ctx.graph.n, dtype=np.int64)
    colors[list(pi)] = list(pi.values())
    check_proper(ctx.graph, colors, edges=shape.edges, what="pair process coloring")
    return pi


def color_cluster(
    ctx: ClusterContext, rng: np.random.Generator, max_tries: int = Params.match_max_tries
) -> tuple[np.ndarray, str]:
    """Proper coloring of the cluster consistent with sigma_out; returns
    (colors, branch taken), colors an int64 array aligned with ctx.shape.members.
    The branch, eta and the pair rounds come from the shape; max_tries is
    the matching's retry budget."""
    shape = ctx.shape
    d, eps, size = shape.d, shape.eps, len(shape.members)
    colors = np.zeros(size, dtype=np.int64)
    if shape.zeta < shape.zeta0:
        # the matching alone colors the cluster: no pair rounds
        branch, rounds = "small", 0
        z = 3.0 * (eps + shape.zeta * d)
    else:
        branch = "large"
        eta, rounds = _eta_rounds(shape)
        pi = process_pair_coloring(ctx, rng, rounds, eta)
        colors[np.searchsorted(shape.members, list(pi))] = list(pi.values())
        z = 2.0 * (eps + eta)
    big_r = d + 1 - size + rounds
    if big_r < 0:
        raise NegativeR(f"R = {big_r} < 0 on the {branch}-zeta path")
    # X: the positions still uncolored; Y: the colors the pairs did not use
    x_idx = np.flatnonzero(colors == 0)
    free = np.ones(d + 2, dtype=bool)
    free[colors] = False
    rest_y = np.flatnonzero(free[1:])
    if len(rest_y) - len(x_idx) != big_r:
        raise VerificationFailed(f"{branch}-zeta bookkeeping: |Y| - |X| != R")
    m = spread_X_perfect_matching(
        ctx.b[np.ix_(x_idx, rest_y)],
        z,
        rng,
        r_x=(shape.h_deg[x_idx] - rounds).tolist(),
        max_tries=max_tries,
    )
    hit = m.match >= 0
    colors[x_idx[hit]] = rest_y[m.match[hit]] + 1

    _assert_cluster_proper(ctx, colors)
    return colors, branch


def _assert_cluster_proper(ctx: ClusterContext, colors: np.ndarray) -> None:
    if not colors.all():
        raise VerificationFailed("cluster coloring does not cover the cluster")
    full = ctx.sigma_out.copy()
    full[ctx.shape.members] = colors
    check_proper(ctx.graph, full, edges=ctx.shape.edges, what="cluster coloring")


def _greedy_cluster_fallback(g: Graph, members: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """The members' colors in the deterministic first-legal-color completion
    of the sorted, uncolored cluster `members` against `colors` (0 = none):
    slack greedy with every uniform 0.  Palette D+1 suffices at max degree D."""
    allowed, earlier, later, _ = ban_matrix(g, members, colors)
    return slack_greedy(members, allowed, earlier, later, np.zeros(len(members)))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    """One sample: colors indexed by input vertex (int64), whether a
    cluster fell back to greedy (no spread guarantee), and each cluster's
    branch."""

    coloring: np.ndarray
    flagged: bool
    cluster_paths: list[str]
    seed: int


class Pipeline:
    """Regularize + decompose once, then sample colorings per seed."""

    def __init__(self, g: Graph, params: Params | None = None):
        self.params = params or Params()
        if g.max_degree < D_MIN:
            raise ValueError(f"max degree {g.max_degree} below d_min = {D_MIN}")
        self.original = g
        self.reg = regularize(g)
        self.dec = sparse_dense_decompose(
            self.reg, self.params.eps, self.params.theta
        )
        self._shapes: list[ClusterShape | None] = [None] * len(self.dec.clusters)
        # a sample returns the input prefix; a cluster reads its outside
        # neighbors' colors, which may lie in any copy
        self._stop = self.reg.n if self.dec.clusters else g.n
        # without a cluster only the prefix is colored, and the edges inside
        # it are g's own (regularize checks that g is induced on it)
        self._checked = None if self.dec.clusters else g.edge_arrays()

    def _shape(self, i: int) -> ClusterShape:
        """Cluster i's sample-independent context, built on first use."""
        shape = self._shapes[i]
        if shape is None:
            shape = self._shapes[i] = cluster_shape(
                self.reg, self.dec.clusters[i], self.params.cluster_eps()
            )
        return shape

    def _sample(self, seed: int) -> tuple[np.ndarray, bool, list[str]]:
        """(colors of the input vertices, flagged?, cluster paths)."""
        params = self.params
        flagged = False
        paths: list[str] = []
        colors = sparse_phase_color(self.reg, self.dec, seed, params, stop=self._stop).colors

        for i in range(len(self.dec.clusters)):
            # outside the try: the verified decomposition checked the cluster
            # conditions at this eps, so a raise here is a bug, not a fallback
            # (which could not read a shape it never got)
            shape = self._shape(i)
            rng = keyed_rng(seed, _CLUSTER_TAG, i)
            try:
                ctx = build_cluster_context(self.reg, shape, colors)
                colors[shape.members], branch = color_cluster(ctx, rng, params.match_max_tries)
                paths.append(branch)
            except (HypothesisViolated, EmptyChoiceSet, MaxTriesExceeded) as exc:
                # a cluster outside the construction's hypotheses; a broken
                # invariant (VerificationFailed) is a bug and propagates
                colors[shape.members] = _greedy_cluster_fallback(self.reg, shape.members, colors)
                paths.append(f"fallback({type(exc).__name__})")
                flagged = True

        check_proper(self.reg, colors, edges=self._checked, what="pipeline coloring")
        colors = colors[: self.original.n].copy()  # not a view pinning the regularized array
        if not colors.all():
            raise VerificationFailed("pipeline left vertices uncolored")
        return colors, flagged, paths

    def sample(self, seed: int) -> PipelineResult:
        colors, flagged, paths = self._sample(seed)
        return PipelineResult(colors, flagged, paths, seed)

    def sample_array(self, seed: int) -> tuple[np.ndarray, bool]:
        """(colors indexed by vertex, flagged?) without the cluster paths."""
        colors, flagged, _ = self._sample(seed)
        return colors, flagged

