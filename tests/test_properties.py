"""Property tests over small irregular and disconnected graphs.

Three claims: every Pipeline sample is a proper (D+1)-coloring of every
vertex; the coloring restricted to a prefix component equals a run on that
component alone; `spreadcolor sample --jobs 2` writes what `--jobs 1`
writes.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spreadcolor.cli import main  # noqa: E402
from spreadcolor.clusters import D_MIN, Pipeline  # noqa: E402
from spreadcolor.errors import HypothesisViolated  # noqa: E402
from spreadcolor.graphs import (  # noqa: E402
    Graph,
    complete_graph,
    disjoint_union,
    gen_random_regular,
    neighborhood_complement_edges,
    regularize,
    write_edge_list,
)
from spreadcolor.params import Params  # noqa: E402

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_part(draw) -> Graph:
    """A clique K_2..K_13 or an arbitrary graph on 1..9 vertices."""
    if draw(st.booleans()):
        return complete_graph(draw(st.integers(2, 13)))
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def small_graphs(draw) -> Graph:
    """Disjoint union of one to four small parts, max degree >= D_MIN."""
    g = draw(small_part())
    for part in draw(st.lists(small_part(), max_size=3)):
        g = disjoint_union(g, part)
    assume(g.max_degree >= D_MIN)
    return g


@st.composite
def regular_graphs(draw) -> tuple[Graph, Graph]:
    """(first part, whole graph): a D-regular disjoint union whose first
    part, K_{D+1} or a random D-regular graph, holds the smallest ids."""
    d = draw(st.integers(4, 12))

    def part() -> Graph:
        if draw(st.integers(0, 3)) == 0:
            return complete_graph(d + 1)
        n = draw(st.integers(d + 1, 40))
        n += n * d % 2  # n*D must be even
        return gen_random_regular(n, d, seed=draw(st.integers(0, 10_000)))

    first = g = part()
    for _ in range(draw(st.integers(1, 3))):
        g = disjoint_union(g, part())
    return first, g


def _pipeline_or_known_failure(g: Graph, params: Params) -> Pipeline | None:
    """Pipeline(g, params), or None when the decomposition rejects the input
    for the known reason: below D = 1/(2*eps_in) the D-1 common neighbors of
    two vertices of a clique neighborhood miss the (1-2*eps_in)*D friend
    threshold, so a dense vertex could only form an invalid cluster, and the
    decomposition raises HypothesisViolated."""
    try:
        return Pipeline(g, params)
    except HypothesisViolated as exc:
        reg = regularize(g)
        dense = (neighborhood_complement_edges(reg) == 0).any()
        assert "< 1/(2*eps_in)" in str(exc)
        assert g.max_degree < 1 / (2 * params.eps) and dense, str(exc)
        return None


@settings(max_examples=40, **_SETTINGS)
@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_every_sample_is_proper_and_covers_every_vertex(g, seed):
    pipe = _pipeline_or_known_failure(g, Params())
    event(f"pipeline built: {pipe is not None}")
    if pipe is None:
        return
    for s in range(seed, seed + 3):
        res = pipe.sample(s)
        event(f"cluster paths: {sorted(set(res.cluster_paths))}")
        assert res.coloring.shape == (g.n,)
        colors = res.coloring.tolist()
        assert all(1 <= c <= g.max_degree + 1 for c in colors)
        assert all(colors[u] != colors[v] for u, v in g.edges())


@settings(max_examples=25, **_SETTINGS)
@given(regular_graphs(), st.integers(0, 2**32 - 1))
def test_prefix_component_colors_as_if_alone(case, seed):
    # a fixed window: the calibrated one depends on the whole graph's
    # sparse-vertex count (see test_restriction_fails_* below)
    first, g = case
    params = Params(t_window=0.5)
    whole = _pipeline_or_known_failure(g, params)
    alone = _pipeline_or_known_failure(first, params)
    if whole is None or alone is None:
        return
    for s in range(seed, seed + 3):
        got = whole.sample(s)
        assert got.coloring[: first.n].tolist() == alone.sample(s).coloring.tolist()


# The README's restriction claim does not hold in general.  Each case below
# is a fault in the program, not in the test; fixing one changes the law of
# the sampler on every irregular or multi-component input.


@pytest.mark.xfail(strict=True, reason="regularize lays out copies of the whole graph")
def test_restriction_fails_on_irregular_input():
    r1 = gen_random_regular(20, 4, seed=1)
    first = Graph.from_edges(20, list(r1.edges())[1:])
    g = disjoint_union(first, gen_random_regular(30, 4, seed=2))
    params = Params(t_window=0.5)
    got = Pipeline(g, params).sample(1).coloring
    assert got[:20].tolist() == Pipeline(first, params).sample(1).coloring.tolist()


@pytest.mark.xfail(strict=True, reason="the calibrated window depends on the whole graph")
def test_restriction_fails_with_the_calibrated_window():
    first = gen_random_regular(20, 4, seed=1)
    g = disjoint_union(first, gen_random_regular(30, 4, seed=2))
    got = Pipeline(g).sample(4).coloring
    assert got[:20].tolist() == Pipeline(first).sample(4).coloring.tolist()


@settings(max_examples=8, **_SETTINGS)
@given(small_graphs(), st.integers(0, 1000))
def test_sample_jobs_2_writes_what_jobs_1_writes(g, seed):
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "g.txt"
        graph.write_text(write_edge_list(g))
        outputs = []
        for jobs in ("1", "2"):
            out = Path(tmp) / f"jobs{jobs}.json"
            args = ["sample", "--graph", str(graph), "--seeds", "3", "--seed", str(seed)]
            rc = main(args + ["--jobs", jobs, "--out", str(out)])
            outputs.append((rc, out.read_text() if out.exists() else None))
    assert outputs[0] == outputs[1]
