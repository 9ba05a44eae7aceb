"""Golden colorings: Pipeline.sample must stay bit-identical per seed.

Each digest is a sha256 over, per seed, the JSON of
[seed, colors in vertex order, flags, cluster paths].  A change to the
sampler that alters any random stream or any choice made from it changes
a digest; such a change must say so and recompute them deliberately.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from spreadcolor.clusters import Pipeline
from spreadcolor.graphs import Graph, complete_graph, disjoint_union, gen_random_regular
from spreadcolor.params import Params
from spreadcolor.sparse_phase import sample_conditioned_labeling
from test_clusters import clique_minus_cycle, swapped_double_clique

SEEDS = range(20)


def _irregular() -> Graph:
    # a 12-regular graph thinned to max degree 11, so regularize builds copies
    edges = list(gen_random_regular(60, 12, seed=21).edges())
    return Graph.from_edges(60, edges[::2] + edges[1::4])


def _tiny_components() -> Graph:
    # an isolated vertex, K2, P3 and two small 4-regular graphs
    g = Graph.from_edges(1, [])
    for part in (
        gen_random_regular(8, 4, seed=1),
        complete_graph(2),
        gen_random_regular(10, 4, seed=2),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
    ):
        g = disjoint_union(g, part)
    return g


def _clustered() -> Graph:
    # at theta = 0.05 and D = 20: two small-zeta clusters (the swapped
    # K21 pair), one large-zeta cluster (K23 minus a Hamilton cycle) and a
    # sparse random part
    g = disjoint_union(swapped_double_clique(21), clique_minus_cycle(23))
    return disjoint_union(g, gen_random_regular(60, 20, seed=3))


CASES = {
    "regular": (
        lambda: gen_random_regular(200, 16, seed=17),
        Params(),
        "df2191337d06e9d7420dc3816152de789cf79d16eae6b13a13f60ca48eccb58c",
    ),
    "irregular": (
        _irregular,
        Params(),
        "667c513dd7e1abe466473d08e87d9736ea4c81129506923fb7d90da2ba9ca370",
    ),
    "tiny-components": (
        _tiny_components,
        Params(),
        "09c943597bd4c7cd2cfb9e28c193dee05d85dbf19450a8af8f86399eda284892",
    ),
    "clustered": (
        _clustered,
        Params(theta=0.05),
        "86bdc0c510a927f95eda9583056a4e72bf39a147f3bd839da9b686f6337ee386",
    ),
    # zeta0 = 0 sends both cliques down the large path, whose hierarchy
    # check fails: every sample is flagged and finished by the fallback
    "fallback": (
        lambda: disjoint_union(complete_graph(17), complete_graph(17)),
        Params(zeta0=0.0),
        "808daebe3ebc18476929431cd85685a7a73cbbfee90bf31533525ca1db1dd137",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pipeline_colorings_are_bit_identical_per_seed(name):
    make, params, expected = CASES[name]
    g = make()
    pipe = Pipeline(g, params)
    h = hashlib.sha256()
    for seed in SEEDS:
        res = pipe.sample(seed)
        rec = [seed, [res.coloring[v] for v in range(g.n)], res.flags, res.cluster_paths]
        h.update(json.dumps(rec).encode())
    assert h.hexdigest() == expected


def test_clustered_fixture_reaches_both_branches():
    pipe = Pipeline(_clustered(), Params(theta=0.05))
    assert sorted(pipe.sample(0).cluster_paths) == ["large", "small", "small"]


def test_labeling_with_live_pair_clause_is_bit_identical_per_seed():
    # three 4-cycles: every vertex has a pair exactly when its cycle reads
    # a,b,a,b, so pair_min = 1 rejects per component until that happens
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    g = disjoint_union(disjoint_union(c4, c4), c4)
    h = hashlib.sha256()
    for seed in range(10):
        tau = sample_conditioned_labeling(
            g, range(12), theta_prime=0.5, seed=seed, max_tries=500,
            window_halfwidth=5.0, pair_min=1.0,
        )
        h.update(np.asarray(tau, dtype=np.int64).tobytes())
    assert h.hexdigest() == "d4aa4e7a0d1ec43206ab60a62884757d30f6c58504f60d7aa4e9154678865f9b"
