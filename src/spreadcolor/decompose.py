"""Sparse-dense decomposition of a D-regular graph.

Partitions V into a sparse set (vertices with many non-edges inside
their neighborhood) and clusters (near-cliques with few outside
neighbors and few missing cluster-mates).  The construction is verified
against its own postconditions before being returned.

Both the sparsity statistic and the friend graph come from blocked
common-neighbor counts over the CSR adjacency
(`graphs.common_neighbor_blocks`), never from pairwise set
intersections.  The statistic is one int64 array per graph
(`neighborhood_complement_edges(g)`), computed once and read by the
classifier and by `verify_decomposition` alike.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import HypothesisViolated, VerificationFailed
from .graphs import Graph, common_neighbor_blocks, neighborhood_complement_edges

__all__ = ["Decomposition", "DecompositionReport", "check_vertex_ids",
           "cluster_condition_counts", "sparse_dense_decompose", "verify_decomposition"]


@dataclass(frozen=True)
class Decomposition:
    """Partition V = sparse ∪ clusters[0] ∪ ... ∪ clusters[m-1].

    theta: sparsity threshold, every sparse v has >= theta*D^2 non-edges
    inside N_v.  eps: cluster tolerance, every cluster member misses
    fewer than eps*D cluster-mates and has fewer than eps*D outside
    neighbors.
    """

    sparse: frozenset[int]
    clusters: tuple[tuple[int, ...], ...]
    eps: float
    theta: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "sparse": sorted(self.sparse),
                "clusters": [list(c) for c in self.clusters],
                "eps": self.eps,
                "theta": self.theta,
            }
        )

    @staticmethod
    def from_json(text: str) -> "Decomposition":
        d = json.loads(text)
        return Decomposition(
            sparse=frozenset(d["sparse"]),
            clusters=tuple(tuple(c) for c in d["clusters"]),
            eps=float(d["eps"]),
            theta=float(d["theta"]),
        )


@dataclass
class DecompositionReport:
    """Per-vertex pass/fail for the three invariants, with margins."""

    is_partition: bool
    sparse_failures: list[int]
    outside_failures: list[tuple[int, int]]  # (vertex, |N_v \ C|)
    missing_failures: list[tuple[int, int]]  # (vertex, |C \ N_v|)
    worst_sparse_margin: float = field(default=float("inf"))
    worst_outside_margin: float = field(default=float("inf"))
    worst_missing_margin: float = field(default=float("inf"))

    @property
    def ok(self) -> bool:
        return (
            self.is_partition
            and not self.sparse_failures
            and not self.outside_failures
            and not self.missing_failures
        )


def cluster_condition_counts(g: Graph, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two cluster conditions' counts |N_v \\ C| and |C \\ N_v| for each
    entry v of the int array `members`, where C is the set of its entries;
    v itself counts in C \\ N_v.  Ids must lie in 0..n-1."""
    lens, nbrs = g.gather_neighbors(members)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[members] = np.arange(len(members))
    rows = np.repeat(np.arange(len(members)), lens)
    inside = np.bincount(rows[pos[nbrs] >= 0], minlength=len(members))
    return lens - inside, np.count_nonzero(pos >= 0) - inside


def check_vertex_ids(g: Graph, ids: Iterable[int]) -> None:
    """ValueError naming the smallest id outside 0..n-1, if there is one."""
    stray = set(ids).difference(range(g.n))
    if stray:
        raise ValueError(f"vertex {min(stray)} not in graph of order {g.n}")


def verify_decomposition(
    g: Graph,
    dec: Decomposition,
    *,
    counts: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
) -> DecompositionReport:
    """Pure check of the Decomposition invariants against g.  A vertex id
    outside 0..n-1 is a ValueError.

    `counts`, if given, holds each cluster's (members in dec.clusters
    order, |N_v \\ C|, |C \\ N_v|) as cluster_condition_counts gives them,
    so a caller that has counted the clusters already need not count them
    again; by default they are counted here, once the ids are checked."""
    d = g.max_degree
    parts = [dec.sparse, *map(frozenset, dec.clusters)]
    covered = set().union(*parts)
    check_vertex_ids(g, covered)
    is_partition = len(covered) == g.n and sum(map(len, parts)) == g.n

    report = DecompositionReport(is_partition, [], [], [])
    if dec.sparse:
        sparse = np.fromiter(dec.sparse, dtype=np.int64, count=len(dec.sparse))
        margin = neighborhood_complement_edges(g)[sparse] - dec.theta * d * d
        report.worst_sparse_margin = float(margin.min())
        report.sparse_failures = sparse[margin < 0].tolist()
    if counts is None:
        arrays = (np.asarray(c, dtype=np.int64) for c in dec.clusters)
        counts = ((members, *cluster_condition_counts(g, members)) for members in arrays)
    limit = dec.eps * d
    for members, outside, missing in counts:
        report.worst_outside_margin = min(
            report.worst_outside_margin, float(np.min(limit - outside, initial=np.inf))
        )
        report.worst_missing_margin = min(
            report.worst_missing_margin, float(np.min(limit - missing, initial=np.inf))
        )
        out_bad, miss_bad = outside >= limit, missing >= limit
        report.outside_failures += zip(members[out_bad].tolist(), outside[out_bad].tolist())
        report.missing_failures += zip(members[miss_bad].tolist(), missing[miss_bad].tolist())
    return report


def sparse_dense_decompose(
    g: Graph, eps_in: float, theta: float | None = None
) -> Decomposition:
    """Decompose a D-regular graph with tolerance eps = 8*eps_in.

    A vertex is dense when its neighborhood has fewer than theta*D^2
    non-edges (theta defaults to eps_in^2/16).  Dense u, v are friends
    when |N_u ∩ N_v| >= (1 - 2*eps_in)*D; clusters are the connected
    components of the friend graph.  Below D = 1/(2*eps_in) friends need
    N_u = N_v, so no cluster can meet the cluster conditions: a graph with
    a dense vertex there raises HypothesisViolated.  Cluster members are
    dense, so a violated cluster condition cannot be repaired by demoting
    the vertex to the sparse side; it surfaces as VerificationFailed rather
    than a silently weakened output.
    """
    d = g.max_degree
    if not g.is_regular(d):
        raise ValueError("sparse_dense_decompose expects a D-regular graph")
    if not (0 < eps_in <= 0.05):
        raise ValueError(f"need 0 < eps_in <= 1/20, got {eps_in}")
    if theta is None:
        theta = eps_in * eps_in / 16.0
    eps = 8.0 * eps_in

    is_sparse = neighborhood_complement_edges(g) >= theta * d * d
    sparse = set(np.flatnonzero(is_sparse).tolist())
    dense = np.flatnonzero(~is_sparse)
    bound = 1.0 / (2.0 * eps_in)
    if dense.size and d < bound:
        raise HypothesisViolated(
            f"D = {d} < 1/(2*eps_in) = {bound:g} and vertex {dense[0]} "
            f"is dense: friends would need equal neighborhoods, so no cluster "
            f"can meet the cluster conditions"
        )

    # friend graph on the dense vertices: only pairs at distance 2 share a
    # neighbor, and every such pair is a cell of the common-neighbor counts
    friend_thr = (1.0 - 2.0 * eps_in) * d
    friend_adj: dict[int, list[int]] = {}
    for block, cnt in common_neighbor_blocks(g, dense):
        friend = (cnt >= friend_thr) & ~is_sparse
        friend[np.arange(len(block)), block] = False
        for u, row in zip(block.tolist(), friend):
            friend_adj[u] = np.flatnonzero(row).tolist()

    clusters: list[set[int]] = []
    seen: set[int] = set()
    for s in friend_adj:
        if s in seen:
            continue
        comp, stack = set(), [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.add(u)
            for w in friend_adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        clusters.append(comp)

    # one count per cluster serves both this check, which names the first
    # failing vertex in set order, and the verification, which reads the
    # counts in sorted order
    counts = []
    for cluster in clusters:
        members = np.fromiter(cluster, dtype=np.int64, count=len(cluster))  # set order
        outside, missing = cluster_condition_counts(g, members)
        bad = np.flatnonzero((outside >= eps * d) | (missing >= eps * d))
        if bad.size:
            raise VerificationFailed(
                f"vertex {members[bad[0]]} violates a cluster condition but fails the "
                f"sparsity test; no valid decomposition at eps_in={eps_in}"
            )
        order = np.argsort(members)
        counts.append((members[order], outside[order], missing[order]))

    dec = Decomposition(
        sparse=frozenset(sparse),
        clusters=tuple(tuple(sorted(c)) for c in clusters),
        eps=eps,
        theta=theta,
    )
    report = verify_decomposition(g, dec, counts=counts)
    if not report.ok:
        raise VerificationFailed(f"decomposition failed verification: {report}")
    return dec
