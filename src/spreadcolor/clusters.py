"""Cluster coloring and the full pipeline.

Each cluster C is matched against the palette through the legal-color
bigraph B (vertex ~ color iff no colored outside neighbor uses it).
Sparse-in-complement clusters (zeta = e(complement[C])/D^2 below zeta0)
are matched directly; denser ones first run the pair process, which
assigns one fresh color to each of eta*D non-adjacent pairs, and match
the leftovers.  The pipeline glues regularization, decomposition, the
sparse phase and the cluster loop into a sampler of proper
(D+1)-colorings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .decompose import sparse_dense_decompose
from .errors import (
    EmptyChoiceSet,
    FloorNotMet,
    HypothesisViolated,
    MaxTriesExceeded,
    NegativeR,
    VerificationFailed,
)
from .graphs import Graph, check_proper, regularize
from .matching import Bigraph, spread_X_perfect_matching
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
    "color_graph_spread",
    "FLAG_NO_SPREAD",
]

FLAG_NO_SPREAD = "no-spread-guarantee"
_CLUSTER_TAG = 0xC1


@dataclass(frozen=True)
class ClusterShape:
    """The part of a cluster's context that no sample changes: the
    complement graph H on the cluster, zeta = e(H)/D^2, the
    (position, outside neighbor) pairs that B is gathered from, and the
    edges with an end in the cluster, which the cluster check reads.
    Positions index the sorted cluster.  `violation` is the message of the
    first failed cluster condition, or None; every context built on this
    shape raises it."""

    cluster: tuple[int, ...]
    members: np.ndarray  # the cluster as an int array
    d: int
    eps: float
    zeta: float
    h_pairs: np.ndarray  # (e(H), 2) position pairs i < j, in lexicographic order
    h_deg: tuple[int, ...]  # H-degree by position
    out_pos: np.ndarray  # position of each (vertex, outside neighbor) pair
    out_nbr: np.ndarray  # the outside neighbor of that pair
    edges: tuple[np.ndarray, np.ndarray]  # (member, neighbor) of each incident edge
    violation: str | None


def cluster_shape(g: Graph, cluster: Sequence[int], eps: float) -> ClusterShape:
    """Compute H, zeta, the outside-neighbor index arrays and the checks
    |N_v \\ C| < eps*D and |C \\ N_v| < eps*D (in vertex order, outside
    first) of one cluster."""
    d = g.max_degree
    cl = tuple(sorted(cluster))
    members = np.asarray(cl, dtype=np.int64)
    size = len(cl)
    lens, nbrs = g.gather_neighbors(members)
    rows = np.repeat(np.arange(size), lens)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[members] = np.arange(size)
    inside = pos[nbrs] >= 0
    h = np.ones((size, size), dtype=bool)
    h[rows[inside], pos[nbrs[inside]]] = False
    np.fill_diagonal(h, False)

    outside = np.bincount(rows[~inside], minlength=size)
    missing = np.count_nonzero(h, axis=1) + 1  # |C \ N_v|, v itself included
    violation = None
    bad = np.flatnonzero((outside >= eps * d) | (missing >= eps * d))
    if bad.size:
        i = int(bad[0])
        if outside[i] >= eps * d:
            violation = f"|N_v \\ C| = {outside[i]} >= eps*D for v={cl[i]}"
        else:
            violation = f"|C \\ N_v| = {missing[i]} >= eps*D for v={cl[i]}"
    h_pairs = np.argwhere(np.triu(h, 1))
    return ClusterShape(
        cluster=cl,
        members=members,
        d=d,
        eps=eps,
        zeta=len(h_pairs) / (d * d),
        h_pairs=h_pairs,
        h_deg=tuple((missing - 1).tolist()),
        out_pos=rows[~inside],
        out_nbr=nbrs[~inside],
        edges=(np.repeat(members, lens), nbrs),
        violation=violation,
    )


@dataclass
class ClusterContext:
    """Everything needed to color one cluster against a fixed outside
    coloring: its shape (H, zeta) and the legal-color bigraph B
    (x-index = position in `cluster`, y-index = color - 1)."""

    graph: Graph
    shape: ClusterShape
    sigma_out: np.ndarray  # outside colors indexed by vertex, 0 = uncolored
    zeta0: float
    b: Bigraph

    @property
    def cluster(self) -> tuple[int, ...]:
        return self.shape.cluster

    @property
    def d(self) -> int:
        return self.shape.d

    @property
    def eps(self) -> float:
        return self.shape.eps

    @property
    def zeta(self) -> float:
        return self.shape.zeta

    @property
    def palette(self) -> range:
        return range(1, self.d + 2)


def build_cluster_context(
    g: Graph,
    cluster: Sequence[int],
    sigma_out: Mapping[int, int] | np.ndarray,
    params: Params | None = None,
    eps: float | None = None,
    shape: ClusterShape | None = None,
) -> ClusterContext:
    """Check the cluster conditions and assemble H, zeta and B.

    sigma_out, a dict or a color array indexed by vertex with 0 for
    uncolored, may be partial (later clusters are still uncolored while
    earlier ones are being processed); only colored outside neighbors
    constrain B.  `shape`, when given, is cluster_shape(g, cluster, eps)
    computed earlier; B is then one gather of sigma_out.
    """
    if params is None:
        params = Params()
    if shape is None:
        shape = cluster_shape(g, cluster, params.cluster_eps() if eps is None else eps)
    d = shape.d
    if isinstance(sigma_out, np.ndarray):
        out = sigma_out.copy()
    else:
        out = np.zeros(g.n, dtype=np.int64)
        out[list(sigma_out)] = list(sigma_out.values())
    if out[shape.members].any():
        raise ValueError("sigma_out must not color cluster vertices")
    if shape.violation is not None:
        raise HypothesisViolated(shape.violation)

    seen = out[shape.out_nbr]
    if seen.size and not (0 <= seen.min() and seen.max() <= d + 1):
        raise ValueError(f"sigma_out colors must lie in 0..D+1 = {d + 1}")
    banned = np.zeros((len(shape.cluster), d + 2), dtype=bool)  # column 0: uncolored
    banned[shape.out_pos, seen] = True
    return ClusterContext(
        graph=g,
        shape=shape,
        sigma_out=out,
        zeta0=params.zeta0_value(d),
        b=Bigraph(~banned[:, 1:]),
    )


def _eta_rounds(ctx: ClusterContext, params: Params) -> tuple[float, int]:
    """Pick eta strictly inside the hierarchy 1/D, zeta << eta << zeta/eps, 1
    (geometric mean of the two ends), then round eta*D to an integer >= 1."""
    d = ctx.d
    if params.eta is not None:
        eta = params.eta
    else:
        low = max(ctx.zeta, 1.0 / d)
        high = min(ctx.zeta / ctx.eps, 1.0)
        eta = (low * high) ** 0.5
    rounds = max(1, round(eta * d))
    return rounds / d, rounds


def _check_hierarchy(ctx: ClusterContext, eta: float, h: float) -> None:
    d = ctx.d
    if not 1.0 / d < eta:
        raise HypothesisViolated(f"hierarchy: 1/D = {1/d:.4f} !< eta = {eta:.4f}")
    if not ctx.zeta <= eta * h:
        raise HypothesisViolated(
            f"hierarchy: zeta = {ctx.zeta:.4f} !<= eta*h_margin = {eta * h:.4f}"
        )
    cap = min(ctx.zeta / ctx.eps, 1.0) / h
    if not eta <= cap:
        raise HypothesisViolated(
            f"hierarchy: eta = {eta:.4f} !<= min(zeta/eps,1)/h_margin = {cap:.4f}"
        )


def process_pair_coloring(
    ctx: ClusterContext,
    rng: np.random.Generator,
    rounds: int | None = None,
    eta: float | None = None,
    params: Params | None = None,
) -> dict[int, int]:
    """eta*D rounds of: pick a uniform non-edge pair still in the cluster,
    give both ends a uniform common legal color, retire pair and color.

    Every color in the result is used exactly twice, on a non-adjacent
    pair, so the partial coloring is proper no matter what the matching
    phase does with the remaining colors."""
    if params is None:
        params = Params()
    if ctx.zeta < ctx.zeta0:
        raise HypothesisViolated(
            f"pair process requires zeta >= zeta0 ({ctx.zeta:.5f} < {ctx.zeta0:.5f})"
        )
    if rounds is None or eta is None:
        eta, rounds = _eta_rounds(ctx, params)
    d, eps, cl = ctx.d, ctx.eps, ctx.cluster
    legal = ctx.b.m
    hu, hv = ctx.shape.h_pairs.T  # positions
    alive = np.ones(len(cl), dtype=bool)
    gamma = np.ones(d + 1, dtype=bool)  # y-indices
    pi: dict[int, int] = {}
    edge_floor = (ctx.zeta - 2 * eta * eps) * d * d
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
        u, v = cl[p], cl[q]
        common = np.flatnonzero(legal[p] & legal[q] & gamma)
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
    for u in pi:
        for v in pi:
            if u < v and pi[u] == pi[v] and ctx.graph.has_edge(u, v):
                raise VerificationFailed("pair process colored an edge")
    return pi


def color_cluster(
    ctx: ClusterContext, rng: np.random.Generator, params: Params | None = None
) -> tuple[dict[int, int], str]:
    """Proper coloring of the cluster consistent with sigma_out; returns
    (coloring, branch taken)."""
    if params is None:
        params = Params()
    d, eps = ctx.d, ctx.eps
    if ctx.zeta < ctx.zeta0:
        branch = "small"
        j = len(ctx.cluster)
        big_r = d + 1 - j
        if big_r < 0:
            raise NegativeR(f"|C| = {j} > D+1 = {d + 1} on the small-zeta path")
        z = 3.0 * (eps + ctx.zeta * d)
        r_x = list(ctx.shape.h_deg)
        m = spread_X_perfect_matching(
            ctx.b,
            z,
            rng,
            r_x=r_x,
            k=params.k_out,
            max_tries=params.match_max_tries,
            lambda_max=params.lambda_max,
            k_max=params.k_out_max,
        )
        coloring = {ctx.cluster[x]: y + 1 for x, y in m.pairs.items()}
    else:
        branch = "large"
        eta, rounds = _eta_rounds(ctx, params)
        _check_hierarchy(ctx, eta, params.h_margin)
        pi = process_pair_coloring(ctx, rng, rounds=rounds, eta=eta, params=params)
        rest = [v for v in ctx.cluster if v not in pi]
        used_y = {c - 1 for c in pi.values()}
        rest_y = [y for y in range(d + 1) if y not in used_y]
        x_idx = [i for i, v in enumerate(ctx.cluster) if v not in pi]
        b2 = ctx.b.subgraph(x_idx, rest_y)
        j = len(rest)
        big_r = d + 1 - len(ctx.cluster) + rounds
        if big_r < 0:
            raise NegativeR(f"R = {big_r} < 0 on the large-zeta path")
        if b2.ny - b2.nx != big_r:
            raise VerificationFailed("large-zeta bookkeeping: |Y| - |X| != R")
        z = 2.0 * (eps + eta)
        r_x = [ctx.shape.h_deg[i] - rounds for i in x_idx]
        m = spread_X_perfect_matching(
            b2,
            z,
            rng,
            r_x=r_x,
            k=params.k_out,
            max_tries=params.match_max_tries,
            lambda_max=params.lambda_max,
            k_max=params.k_out_max,
        )
        coloring = dict(pi)
        coloring.update({rest[x]: rest_y[y] + 1 for x, y in m.pairs.items()})

    _assert_cluster_proper(ctx, coloring)
    return coloring, branch


def _assert_cluster_proper(ctx: ClusterContext, coloring: dict[int, int]) -> None:
    if set(coloring) != set(ctx.cluster):
        raise VerificationFailed("cluster coloring does not cover the cluster")
    colors = ctx.sigma_out.copy()
    colors[list(coloring)] = list(coloring.values())
    check_proper(ctx.graph, colors, edges=ctx.shape.edges, what="cluster coloring")


def _greedy_cluster_fallback(
    g: Graph, cluster: Sequence[int], colors: np.ndarray
) -> dict[int, int]:
    """Deterministic first-legal-color completion against the color array
    (0 = uncolored); palette D+1 always suffices on a graph of max degree D."""
    d = g.max_degree
    colors = colors.copy()
    out: dict[int, int] = {}
    for v in sorted(cluster):
        used = {int(colors[w]) for w in g.neighbors(v)}
        out[v] = colors[v] = next(c for c in range(1, d + 2) if c not in used)
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    coloring: dict[int, int]
    flags: list[str]
    cluster_paths: list[str]
    seed: int
    params: Params

    @property
    def flagged(self) -> bool:
        return FLAG_NO_SPREAD in self.flags

    def to_json(self) -> str:
        return json.dumps(
            {
                "coloring": {str(v): c for v, c in sorted(self.coloring.items())},
                "flags": self.flags,
                "cluster_paths": self.cluster_paths,
                "seed": self.seed,
                "params": self.params.to_dict(),
            }
        )


class Pipeline:
    """Regularize + decompose once, then sample colorings per seed."""

    def __init__(self, g: Graph, params: Params | None = None):
        self.params = params or Params()
        d = g.max_degree
        if d < self.params.d_min:
            raise ValueError(f"max degree {d} below d_min = {self.params.d_min}")
        self.original = g
        self.d = d
        self.reg = regularize(g)
        self.dec = sparse_dense_decompose(
            self.reg, self.params.eps, self.params.theta
        )
        self._shapes: list[ClusterShape | None] = [None] * len(self.dec.clusters)

    def _shape(self, i: int) -> ClusterShape:
        """Cluster i's sample-independent context, built on first use."""
        shape = self._shapes[i]
        if shape is None:
            shape = self._shapes[i] = cluster_shape(
                self.reg, self.dec.clusters[i], self.params.cluster_eps()
            )
        return shape

    def _sample(self, seed: int) -> tuple[np.ndarray, list[str], list[str]]:
        """(colors of the input vertices, flags, cluster paths)."""
        params = self.params
        flags: list[str] = []
        paths: list[str] = []
        colors = sparse_phase_color(self.reg, self.dec, seed, params).colors

        for i, cluster in enumerate(self.dec.clusters):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((seed, _CLUSTER_TAG, i)))
            )
            try:
                ctx = build_cluster_context(
                    self.reg, cluster, colors, params, shape=self._shape(i)
                )
                coloring, branch = color_cluster(ctx, rng, params)
                paths.append(branch)
            except (HypothesisViolated, EmptyChoiceSet, MaxTriesExceeded) as exc:
                # a cluster outside the construction's hypotheses; a broken
                # invariant (VerificationFailed) is a bug and propagates
                coloring = _greedy_cluster_fallback(self.reg, cluster, colors)
                paths.append(f"fallback({type(exc).__name__})")
                if FLAG_NO_SPREAD not in flags:
                    flags.append(FLAG_NO_SPREAD)
            colors[list(coloring)] = list(coloring.values())

        check_proper(self.reg, colors, what="pipeline coloring")
        colors = colors[: self.original.n].copy()  # not a view pinning the regularized array
        if not colors.all():
            raise VerificationFailed("pipeline left vertices uncolored")
        return colors, flags, paths

    def sample(self, seed: int) -> PipelineResult:
        colors, flags, paths = self._sample(seed)
        return PipelineResult(
            coloring=dict(enumerate(colors.tolist())),
            flags=flags,
            cluster_paths=paths,
            seed=seed,
            params=self.params,
        )

    def sample_array(self, seed: int) -> tuple[np.ndarray, bool]:
        """(colors indexed by vertex, flagged?) for fast audit loops."""
        colors, flags, _ = self._sample(seed)
        return colors, FLAG_NO_SPREAD in flags


def color_graph_spread(
    g: Graph, seed: int, params: Params | None = None
) -> PipelineResult:
    """One-shot pipeline run: regularize, decompose, sparse phase, cluster
    phase, restricted back to the input vertices."""
    return Pipeline(g, params).sample(seed)
