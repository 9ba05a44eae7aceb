from __future__ import annotations

from math import comb

import pytest

from spreadcolor import decompose, graphs
from spreadcolor.decompose import (
    Decomposition,
    DecompositionReport,
    sparse_dense_decompose,
    verify_decomposition,
)
from spreadcolor.errors import HypothesisViolated, VerificationFailed
from spreadcolor.graphs import (
    Graph,
    complete_graph,
    disjoint_union,
    gen_random_regular,
    regularize,
)


def test_single_clique_is_one_cluster():
    d = 20
    g = complete_graph(d + 1)
    dec = sparse_dense_decompose(g, eps_in=0.05)
    assert dec.sparse == frozenset()
    assert len(dec.clusters) == 1
    assert set(dec.clusters[0]) == set(range(d + 1))


def test_random_regular_is_all_sparse():
    g = gen_random_regular(500, 20, seed=3)
    dec = sparse_dense_decompose(g, eps_in=0.05)
    assert dec.sparse == frozenset(range(500))
    assert dec.clusters == ()


def test_two_cliques_two_clusters():
    d = 16
    g = disjoint_union(complete_graph(d + 1), complete_graph(d + 1))
    dec = sparse_dense_decompose(g, eps_in=0.05)
    assert dec.sparse == frozenset()
    assert sorted(map(set, dec.clusters), key=min) == [
        set(range(d + 1)),
        set(range(d + 1, 2 * (d + 1))),
    ]


def test_mixed_graph():
    d = 16
    g = disjoint_union(complete_graph(d + 1), gen_random_regular(60, d, seed=8))
    dec = sparse_dense_decompose(g, eps_in=0.05)
    assert len(dec.clusters) == 1
    assert dec.sparse == frozenset(range(d + 1, d + 1 + 60))


def test_requires_regular_input():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        sparse_dense_decompose(g, eps_in=0.04)


def test_eps_range_checked():
    g = complete_graph(5)
    with pytest.raises(ValueError):
        sparse_dense_decompose(g, eps_in=0.2)
    with pytest.raises(ValueError):
        sparse_dense_decompose(g, eps_in=0.0)


def test_deterministic():
    g = gen_random_regular(120, 12, seed=11)
    assert sparse_dense_decompose(g, 0.04) == sparse_dense_decompose(g, 0.04)


def test_every_output_passes_verifier():
    for seed, n, d in [(0, 60, 8), (1, 80, 10), (2, 120, 16)]:
        g = gen_random_regular(n, d, seed=seed)
        dec = sparse_dense_decompose(g, eps_in=0.05)
        assert verify_decomposition(g, dec).ok


class TestVerifier:
    def test_valid_passes(self):
        d = 16
        g = complete_graph(d + 1)
        dec = sparse_dense_decompose(g, eps_in=0.05)
        assert verify_decomposition(g, dec).ok

    def test_clique_vertex_in_sparse_fails_sparsity(self):
        d = 16
        g = complete_graph(d + 1)
        dec = Decomposition(
            sparse=frozenset({0}),
            clusters=(tuple(range(1, d + 1)),),
            eps=8 * 0.05,
            theta=0.05**2 / 16,
        )
        report = verify_decomposition(g, dec)
        assert report.sparse_failures == [0]

    def test_merged_far_clusters_fail_missing_check(self):
        d = 16
        g = disjoint_union(complete_graph(d + 1), complete_graph(d + 1))
        dec = Decomposition(
            sparse=frozenset(),
            clusters=(tuple(range(2 * (d + 1))),),
            eps=8 * 0.05,
            theta=0.05**2 / 16,
        )
        report = verify_decomposition(g, dec)
        assert report.missing_failures  # every vertex misses a whole clique
        assert not report.ok

    def test_non_partition_detected(self):
        g = complete_graph(4)
        dec = Decomposition(
            sparse=frozenset({0}), clusters=((1, 2),), eps=0.4, theta=0.001
        )
        assert not verify_decomposition(g, dec).is_partition

    @pytest.mark.parametrize(
        "sparse, clusters, vertex",
        [({0, 1, 5}, ((2, 3, 4),), 5), ({-1, 0, 1}, ((2, 3, 4),), -1),
         ({0, 1}, ((2, 3, 4, 5),), 5), ({0, 1}, ((-1, 2, 3, 4),), -1)],
    )
    def test_out_of_range_id_is_a_value_error(self, sparse, clusters, vertex):
        # checked before any gather: a numpy gather would wrap -1 to vertex 4
        dec = Decomposition(frozenset(sparse), clusters, eps=0.4, theta=0.001)
        with pytest.raises(ValueError, match=rf"^vertex {vertex} not in graph of order 5$"):
            verify_decomposition(complete_graph(5), dec)


def test_dense_vertex_below_the_degree_bound_is_rejected():
    # At D=6 and eps_in=0.01, D < 1/(2*eps_in) = 50: two vertices of a
    # clique neighborhood share D-1 < (1-2*eps_in)*D neighbors, so friends
    # would need equal neighborhoods and no cluster can be valid.
    g = complete_graph(7)
    with pytest.raises(HypothesisViolated, match=r"D = 6 < 1/\(2\*eps_in\) = 50"):
        sparse_dense_decompose(g, eps_in=0.01)
    # the same K_7 at eps_in = 0.05 is still below the bound (10)
    with pytest.raises(HypothesisViolated, match=r"D = 6 < 1/\(2\*eps_in\) = 10"):
        sparse_dense_decompose(g, eps_in=0.05)


def test_all_sparse_graph_below_the_degree_bound_is_accepted():
    # the bound only matters when a dense vertex exists
    g = gen_random_regular(60, 6, seed=4)
    dec = sparse_dense_decompose(g, eps_in=0.05)
    assert dec.sparse == frozenset(range(60)) and dec.clusters == ()


def test_clique_at_the_degree_bound_is_one_cluster():
    # D = 10 = 1/(2*eps_in): clique-mates share D-1 = (1-2*eps_in)*D neighbors
    dec = sparse_dense_decompose(complete_graph(11), eps_in=0.05)
    assert dec.clusters == (tuple(range(11)),)


def test_cluster_violation_raises_verification_failed():
    # theta = 0.5 makes every vertex of a random 20-regular graph dense;
    # its friend components cannot meet the cluster conditions
    g = gen_random_regular(40, 20, seed=1)
    with pytest.raises(VerificationFailed, match="violates a cluster condition"):
        sparse_dense_decompose(g, eps_in=0.05, theta=0.5)


# -- differential check against the pairwise construction --------------------


def reference_decompose(g: Graph, eps_in: float, theta: float | None = None) -> Decomposition:
    """Frozen copy of the earlier construction: the statistic from neighbor
    sets per vertex, friends by intersecting every pair of dense neighbor
    sets, clusters by DFS, then the repair loop."""
    sets = [frozenset(a) for a in g.adj]

    def stat(v: int) -> int:
        return comb(len(sets[v]), 2) - sum(len(sets[v] & sets[u]) for u in sets[v]) // 2

    d = g.max_degree
    if theta is None:
        theta = eps_in * eps_in / 16.0
    eps = 8.0 * eps_in
    thr = theta * d * d
    sparse = {v for v in range(g.n) if stat(v) >= thr}
    dense = [v for v in range(g.n) if v not in sparse]
    friend_thr = (1.0 - 2.0 * eps_in) * d
    friend_adj: dict[int, list[int]] = {v: [] for v in dense}
    for i, u in enumerate(dense):
        for v in dense[i + 1 :]:
            if len(sets[u] & sets[v]) >= friend_thr:
                friend_adj[u].append(v)
                friend_adj[v].append(u)
    clusters: list[set[int]] = []
    seen: set[int] = set()
    for s in dense:
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
    changed = True
    while changed:
        changed = False
        for cluster in clusters:
            for v in list(cluster):
                nbrs = sets[v]
                if len(nbrs - cluster) >= eps * d or len(cluster - nbrs) >= eps * d:
                    if stat(v) >= thr:
                        cluster.discard(v)
                        sparse.add(v)
                        changed = True
                    else:
                        raise VerificationFailed(
                            f"vertex {v} violates a cluster condition but fails the "
                            f"sparsity test; no valid decomposition at eps_in={eps_in}"
                        )
    return Decomposition(
        sparse=frozenset(sparse),
        clusters=tuple(tuple(sorted(c)) for c in clusters if c),
        eps=eps,
        theta=theta,
    )


def sparse_twin() -> Graph:
    """D=20 after regularize: a dense vertex u whose neighborhood A is K_20
    minus a matching on 18 of its vertices A', and a sparse vertex w whose
    neighbors are A' and two vertices b1, b2 off A'.  u and w share 18 =
    (1 - 2*0.05)*20 neighbors, so only the dense mask keeps w out of u's
    friend list."""
    u, a, w, b1, b2 = 0, list(range(1, 21)), 21, 22, 23
    matched = {(a[i], a[i + 1]) for i in range(0, 18, 2)}
    edges = [(u, x) for x in a]
    edges += [(x, y) for i, x in enumerate(a) for y in a[i + 1 :] if (x, y) not in matched]
    edges += [(x, w) for x in a[:18]] + [(w, b1), (w, b2), (b1, b2)]
    return regularize(Graph.from_edges(24, edges))


def decomposition_cases() -> dict[str, Graph]:
    from test_clusters import clique_minus_cycle, swapped_double_clique

    many_cliques = complete_graph(21)
    for _ in range(11):
        many_cliques = disjoint_union(many_cliques, complete_graph(21))
    return {
        "empty": Graph.from_edges(0, []),
        "K5": complete_graph(5),
        "C5": Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
        "K11": complete_graph(11),
        "K17+K17": disjoint_union(complete_graph(17), complete_graph(17)),
        "K17+regular": disjoint_union(complete_graph(17), gen_random_regular(60, 16, seed=8)),
        "clique_minus_cycle(23)": clique_minus_cycle(23),
        "swapped_double_clique(17)": swapped_double_clique(17),
        "clustered": disjoint_union(
            disjoint_union(swapped_double_clique(21), clique_minus_cycle(23)),
            gen_random_regular(60, 20, seed=3),
        ),
        "regular(120, 12)": gen_random_regular(120, 12, seed=11),
        "12 x K21 + regular": disjoint_union(many_cliques, gen_random_regular(60, 20, seed=9)),
        "sparse twin": sparse_twin(),
    }


DECOMPOSITION_CASES = decomposition_cases()
SETTINGS = [(0.05, None), (0.05, 0.05), (0.03, 0.02), (0.05, 0.5)]


def outcome(fn):
    try:
        return fn()
    except (HypothesisViolated, VerificationFailed) as exc:
        return exc


@pytest.mark.parametrize("eps_in, theta", SETTINGS)
@pytest.mark.parametrize("name", sorted(DECOMPOSITION_CASES))
def test_matches_the_pairwise_reference(name, eps_in, theta):
    g = DECOMPOSITION_CASES[name]
    want = outcome(lambda: reference_decompose(g, eps_in, theta))
    got = outcome(lambda: sparse_dense_decompose(g, eps_in, theta))
    if isinstance(got, HypothesisViolated):
        # the reference gets as far as its repair loop and fails there
        assert isinstance(want, VerificationFailed), want
        assert g.max_degree < 1 / (2 * eps_in)
    elif isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want
        assert list(got.sparse) == list(want.sparse)  # same set, built in the same order


@pytest.mark.parametrize("eps_in, theta", SETTINGS)
@pytest.mark.parametrize("name", sorted(DECOMPOSITION_CASES))
def test_one_count_per_cluster_gives_the_same_report(name, eps_in, theta, monkeypatch):
    # the decomposition's own check and its verification share one
    # cluster_condition_counts call per cluster, and the report they give
    # equals a fresh verify_decomposition of the result
    g = DECOMPOSITION_CASES[name]
    calls, reports = [], []
    count, verify = decompose.cluster_condition_counts, decompose.verify_decomposition

    def counted(*args):
        calls.append(1)
        return count(*args)

    def verified(*args, **kwargs):
        reports.append(verify(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(decompose, "cluster_condition_counts", counted)
    monkeypatch.setattr(decompose, "verify_decomposition", verified)
    dec = outcome(lambda: sparse_dense_decompose(g, eps_in, theta))
    monkeypatch.undo()
    if not isinstance(dec, Decomposition):
        assert not reports
        return
    assert len(calls) == len(dec.clusters)
    want = verify_decomposition(g, dec)
    assert (reports, repr(reports)) == ([want], repr([want]))


def reference_verify(g: Graph, dec: Decomposition) -> DecompositionReport:
    """Frozen copy of the set-based verifier: the statistic from neighbor
    sets, and the cluster conditions member by member."""
    sets = [frozenset(a) for a in g.adj]
    d = g.max_degree
    parts = [dec.sparse, *map(frozenset, dec.clusters)]
    covered = set().union(*parts)
    report = DecompositionReport(
        covered == set(range(g.n)) and sum(map(len, parts)) == g.n, [], [], []
    )
    for v in dec.sparse:
        stat = comb(len(sets[v]), 2) - sum(len(sets[v] & sets[u]) for u in sets[v]) // 2
        margin = stat - dec.theta * d * d
        report.worst_sparse_margin = min(report.worst_sparse_margin, margin)
        if margin < 0:
            report.sparse_failures.append(v)
    for cluster in dec.clusters:
        cset = frozenset(cluster)
        for v in cluster:
            outside = len(sets[v] - cset)
            missing = len(cset - sets[v])  # counts v itself
            report.worst_outside_margin = min(report.worst_outside_margin, dec.eps * d - outside)
            report.worst_missing_margin = min(report.worst_missing_margin, dec.eps * d - missing)
            if outside >= dec.eps * d:
                report.outside_failures.append((v, outside))
            if missing >= dec.eps * d:
                report.missing_failures.append((v, missing))
    return report


def verifier_cases() -> dict[str, tuple[Graph, Decomposition]]:
    """Every decomposition case's own decomposition where one exists, its
    components taken as clusters, and hand-built invalid decompositions."""
    eps, theta = 8 * 0.05, 0.05**2 / 16
    cases = {}
    for name, g in DECOMPOSITION_CASES.items():
        dec = outcome(lambda: sparse_dense_decompose(g, 0.05, 0.05))
        if isinstance(dec, Decomposition):
            cases[name] = g, dec
        comps = tuple(map(tuple, g.components()))
        cases[f"{name}, components"] = g, Decomposition(frozenset(), comps, eps, theta)
    k17 = DECOMPOSITION_CASES["K17+K17"]
    first, second = tuple(range(17)), tuple(range(17, 34))
    for name, sparse, clusters in [
        ("merged far cliques", (), (first + second,)),
        ("overlapping clusters", (), (first + (17, 18), second)),
        ("clique vertex on the sparse side", (5,), (first[:5] + first[6:], second)),
        ("unsorted cluster", (), (first[::-1], second)),
        ("repeated member", (), (first + (3,), second)),
    ]:
        cases[name] = k17, Decomposition(frozenset(sparse), clusters, eps, theta)
    return cases


VERIFIER_CASES = verifier_cases()


@pytest.mark.parametrize("name", sorted(VERIFIER_CASES))
def test_verifier_matches_the_set_based_reference(name):
    g, dec = VERIFIER_CASES[name]
    got, want = verify_decomposition(g, dec), reference_verify(g, dec)
    # repr too: it is the text of a failed verification, and shows int types
    assert (got, repr(got)) == (want, repr(want))


def test_the_verifier_cases_fail_each_check():
    reports = {name: reference_verify(g, dec) for name, (g, dec) in VERIFIER_CASES.items()}
    assert reports["merged far cliques"].missing_failures
    assert reports["overlapping clusters"].outside_failures
    assert not reports["overlapping clusters"].is_partition
    assert reports["clique vertex on the sparse side"].sparse_failures == [5]
    assert reports["K17+regular, components"].missing_failures
    assert reports["K17+regular"].ok


def test_one_row_blocks_give_the_same_decomposition(monkeypatch):
    monkeypatch.setattr(graphs, "_BLOCK_CELLS", 1)
    for name in ("clustered", "K17+regular", "swapped_double_clique(17)"):
        # a fresh graph, so its statistic is computed under the small budget
        g = Graph.from_edges(DECOMPOSITION_CASES[name].n, DECOMPOSITION_CASES[name].edges())
        assert sparse_dense_decompose(g, 0.05, 0.05) == reference_decompose(g, 0.05, 0.05)


def test_the_large_case_spans_several_blocks():
    # both the statistic pass (all n rows) and the friend pass (the 252
    # dense rows) take more than one block
    g = DECOMPOSITION_CASES["12 x K21 + regular"]
    rows_per_block = graphs._BLOCK_CELLS // max(g.n, g.max_degree**2)
    dense = g.n - len(sparse_dense_decompose(g, 0.05).sparse)
    assert rows_per_block < dense < g.n


def test_json_round_trip():
    d = 16
    g = complete_graph(d + 1)
    dec = sparse_dense_decompose(g, eps_in=0.05)
    assert Decomposition.from_json(dec.to_json()) == dec
