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
classifier and by `verify_decomposition` alike.  A graph that
`graphs.regularize` built arrives with that array already cached:
regularize derives it from the input's statistic, so only a regular
input, which regularize returns as it is, gets its statistic counted
here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import HypothesisViolated, VerificationFailed
from .graphs import (Graph, common_neighbor_blocks, connected_components,
                     neighborhood_complement_edges)
from .params import Params

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
    # cache of sparse_ids(), set through object.__setattr__ on first use
    _sparse_ids: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def sparse_ids(self) -> np.ndarray:
        """The sparse set as a sorted read-only int64 array; built once per
        decomposition, so each sample indexes with it at no conversion cost."""
        if self._sparse_ids is None:
            ids = np.array(sorted(self.sparse), dtype=np.int64)
            ids.flags.writeable = False
            object.__setattr__(self, "_sparse_ids", ids)
        return self._sparse_ids

    def to_json(self) -> str:
        return json.dumps(
            {
                "sparse": sorted(self.sparse),
                "clusters": [list(c) for c in self.clusters],
                "eps": self.eps,
                "theta": self.theta,
            }
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


def cluster_condition_counts(
    g: Graph, members: np.ndarray, gather: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The two cluster conditions' counts |N_v \\ C| and |C \\ N_v| for each
    entry v of the int array `members`, where C is the set of its entries;
    v itself counts in C \\ N_v.  Ids must lie in 0..n-1.  `gather`, if
    given, is g.gather_neighbors(members), which the caller has made."""
    lens, nbrs = g.gather_neighbors(members) if gather is None else gather
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


def verify_decomposition(g: Graph, dec: Decomposition) -> DecompositionReport:
    """Pure check of the Decomposition invariants against g, with one
    cluster_condition_counts call per cluster.  A vertex id outside 0..n-1
    is a ValueError."""
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
    limit = dec.eps * d
    for members in (np.asarray(c, dtype=np.int64) for c in dec.clusters):
        outside, missing = cluster_condition_counts(g, members)
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
    """Decompose a D-regular graph.

    eps_in and theta are checked, and theta's default and the cluster
    tolerance eps derived, by Params(eps=eps_in, theta=theta), so a value
    Params refuses is a ValueError here too.  A vertex is dense when its
    neighborhood has fewer than theta*D^2 non-edges.  Dense u, v are friends
    when |N_u ∩ N_v| >= (1 - 2*eps_in)*D; clusters are the connected
    components of the friend graph.  Below D = 1/(2*eps_in) friends need
    N_u = N_v, so no cluster can meet the cluster conditions: a graph with
    a dense vertex there raises HypothesisViolated.  Cluster members are
    dense, so a violated cluster condition cannot be repaired by demoting
    the vertex to the sparse side; it surfaces as VerificationFailed, naming
    the smallest such vertex, rather than a silently weakened output.
    """
    d = g.max_degree
    if not g.is_regular(d):
        raise ValueError("sparse_dense_decompose expects a D-regular graph")
    params = Params(eps=eps_in, theta=theta)
    theta, eps = params.theta_value(), params.cluster_eps()

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
    # (a sparse vertex keeps the shared empty row); clusters are its
    # components, searched from the dense vertices in order and sorted
    friend_thr = (1.0 - 2.0 * eps_in) * d
    friend_adj: list[list[int]] = [[]] * g.n
    for block, cnt in common_neighbor_blocks(g, dense):
        friend = (cnt >= friend_thr) & ~is_sparse
        friend[np.arange(len(block)), block] = False
        for u, row in zip(block.tolist(), friend):
            friend_adj[u] = np.flatnonzero(row).tolist()
    comps = connected_components(friend_adj, dense.tolist())[1]

    dec = Decomposition(
        sparse=frozenset(sparse),
        clusters=tuple(tuple(sorted(c)) for c in comps),
        eps=eps,
        theta=theta,
    )
    report = verify_decomposition(g, dec)
    failing = [v for v, _ in report.outside_failures + report.missing_failures]
    if failing:
        raise VerificationFailed(
            f"vertex {min(failing)} violates a cluster condition but fails the "
            f"sparsity test; no valid decomposition at eps_in={eps_in}"
        )
    if not report.ok:
        raise VerificationFailed(f"decomposition failed verification: {report}")
    return dec
