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
    "ClusterContext",
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


@dataclass
class ClusterContext:
    """Everything needed to color one cluster against a fixed outside
    coloring: the complement graph H, its density statistic zeta, and
    the legal-color bigraph B (x-index = position in `cluster`,
    y-index = color - 1)."""

    graph: Graph
    cluster: tuple[int, ...]
    sigma_out: np.ndarray  # outside colors indexed by vertex, 0 = uncolored
    eps: float
    d: int
    zeta: float
    zeta0: float
    b: Bigraph
    h_adj: dict[int, frozenset[int]]
    h_edges: tuple[tuple[int, int], ...]

    def h_degree(self, v: int) -> int:
        return len(self.h_adj[v])

    @property
    def palette(self) -> range:
        return range(1, self.d + 2)


def build_cluster_context(
    g: Graph,
    cluster: Sequence[int],
    sigma_out: Mapping[int, int] | np.ndarray,
    params: Params | None = None,
    eps: float | None = None,
) -> ClusterContext:
    """Check the cluster conditions and assemble H, zeta and B.

    sigma_out, a dict or a color array indexed by vertex with 0 for
    uncolored, may be partial (later clusters are still uncolored while
    earlier ones are being processed); only colored outside neighbors
    constrain B.
    """
    if params is None:
        params = Params()
    if eps is None:
        eps = params.cluster_eps()
    d = g.max_degree
    cl = tuple(sorted(cluster))
    cset = frozenset(cl)
    if isinstance(sigma_out, np.ndarray):
        out = sigma_out.copy()
    else:
        out = np.zeros(g.n, dtype=np.int64)
        out[list(sigma_out)] = list(sigma_out.values())
    if out[list(cl)].any():
        raise ValueError("sigma_out must not color cluster vertices")

    h_adj: dict[int, frozenset[int]] = {}
    for v in cl:
        nbrs = g.neighbor_set(v)
        outside = len(nbrs - cset)
        if outside >= eps * d:
            raise HypothesisViolated(f"|N_v \\ C| = {outside} >= eps*D for v={v}")
        missing = cset - nbrs - {v}
        if len(missing) + 1 >= eps * d:
            raise HypothesisViolated(
                f"|C \\ N_v| = {len(missing) + 1} >= eps*D for v={v}"
            )
        h_adj[v] = frozenset(missing)
    h_edges = tuple(
        (u, v) for i, u in enumerate(cl) for v in cl[i + 1 :] if v in h_adj[u]
    )
    zeta = len(h_edges) / (d * d)

    colors = range(1, d + 2)
    rows = []
    for v in cl:
        banned = {int(out[w]) for w in g.neighbor_set(v) - cset}
        rows.append(tuple(c - 1 for c in colors if c not in banned))
    b = Bigraph(nx=len(cl), ny=d + 1, adj_x=tuple(rows))

    return ClusterContext(
        graph=g,
        cluster=cl,
        sigma_out=out,
        eps=eps,
        d=d,
        zeta=zeta,
        zeta0=params.zeta0_value(d),
        b=b,
        h_adj=h_adj,
        h_edges=h_edges,
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
    d, eps = ctx.d, ctx.eps
    legal = {v: frozenset(ctx.b.adj_x[i]) for i, v in enumerate(ctx.cluster)}
    alive = set(ctx.cluster)
    gamma = set(range(d + 1))  # y-indices
    pi: dict[int, int] = {}
    edge_floor = (ctx.zeta - 2 * eta * eps) * d * d
    color_floor = (1.0 - 2 * eps - eta) * d
    for i in range(rounds):
        edges = [(u, v) for u, v in ctx.h_edges if u in alive and v in alive]
        if not edges:
            raise EmptyChoiceSet(f"no non-edge pairs left at round {i + 1}")
        if not len(edges) > edge_floor:
            raise VerificationFailed(
                f"round {i + 1}: e(H_i) = {len(edges)} !> (zeta - 2*eta*eps)*D^2 "
                f"= {edge_floor:.2f}"
            )
        u, v = edges[int(rng.integers(len(edges)))]
        common = sorted((legal[u] & legal[v]) & gamma)
        if not common:
            raise EmptyChoiceSet(f"no common legal color for pair ({u},{v})")
        if not len(common) > color_floor:
            raise VerificationFailed(
                f"round {i + 1}: common colors {len(common)} !> (1-2eps-eta)*D "
                f"= {color_floor:.2f}"
            )
        c = common[int(rng.integers(len(common)))]
        pi[u] = c + 1
        pi[v] = c + 1
        alive -= {u, v}
        gamma.discard(c)

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
        r_x = [ctx.h_degree(v) for v in ctx.cluster]
        m = spread_X_perfect_matching(
            ctx.b,
            z,
            rng,
            r_x=r_x,
            k=params.k_out,
            max_tries=params.match_max_tries,
            lambda_max=params.lambda_max,
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
        r_x = [ctx.h_degree(v) - rounds for v in rest]
        m = spread_X_perfect_matching(
            b2,
            z,
            rng,
            r_x=r_x,
            k=params.k_out,
            max_tries=params.match_max_tries,
            lambda_max=params.lambda_max,
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
    check_proper(ctx.graph, colors, touching=ctx.cluster, what="cluster coloring")


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
                ctx = build_cluster_context(self.reg, cluster, colors, params)
                coloring, branch = color_cluster(ctx, rng, params)
                paths.append(branch)
            except (
                HypothesisViolated,
                EmptyChoiceSet,
                MaxTriesExceeded,
                VerificationFailed,
            ) as exc:
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
