"""Tests of the benchmark's own code: its inputs, its span arithmetic, the
wrappers it swaps onto the package, and the result line it prints."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from spreadcolor import Graph, Params, Pipeline, gen_random_regular
from spreadcolor.graphs import complete_graph, disjoint_union

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_irregular_sparse_regularizes_to_4200_sparse_vertices():
    inp = workloads.IrregularSparse().make_input(1)
    degrees = [inp.graph.degree(v) for v in range(inp.n)]
    assert inp.n == 100 and degrees.count(39) == 40 and degrees.count(40) == 60
    pipe = Pipeline(inp.graph, inp.params)
    assert pipe.reg.n == 4200
    assert len(pipe.dec.sparse) == 4200 and pipe.dec.clusters == ()


def test_clustered_has_40_clusters_20_per_branch_and_no_fallback():
    inp = workloads.Clustered().make_input(1)
    assert inp.n == 2080 and inp.graph.is_regular(40)
    pipe = Pipeline(inp.graph, inp.params)
    assert len(pipe.dec.clusters) == 40 and len(pipe.dec.sparse) == 400
    res = pipe.sample(1)
    assert res.cluster_paths.count("small") == 20
    assert res.cluster_paths.count("large") == 20
    assert not res.flagged


def test_check_coloring_rejects_each_kind_of_wrong_output():
    inp = workloads._input(0, 3, [(0, 1), (1, 2)], Params())  # a path, D = 2
    assert workloads.check_coloring(np.array([1, 2, 1]), inp) is None
    assert "edge (0, 1)" in workloads.check_coloring(np.array([1, 1, 2]), inp)
    assert "palette" in workloads.check_coloring(np.array([1, 2, 4]), inp)
    assert "shape" in workloads.check_coloring(np.array([1, 2]), inp)
    assert "uncolored" in workloads.as_array({0: 1, 1: 2, 5: 1}, 3)


def test_self_time_subtracts_the_union_of_child_intervals():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),    # overlaps a: union of a and b is [1, 6]
        S("c", 8.0, 12.0, 0, 0),   # runs past the parent: counts [8, 10]
        S("a1", 1.5, 2.0, 1, 0),
        S("d", 2.0, 2.5, 0, 0),    # inside a: covered already
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5, 0.5])


def _small_input() -> workloads.Input:
    # a K17 cluster beside a random 16-regular graph: both phases run
    g = disjoint_union(complete_graph(17), gen_random_regular(60, 16, seed=3))
    return workloads._input(5, g.n, g.edges(), Params())


def _originals() -> list:
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in spans.targets()]


def test_wrappers_are_removed_after_a_traced_run_and_change_no_output():
    wl = workloads.IrregularSparse()  # any sampling workload runs any input
    inp = _small_input()
    before = _originals()
    max_degree = Graph.__dict__["max_degree"]
    plain = wl.run(inp, math.inf, max_rounds=4, setup_reps=1)
    again = wl.run(inp, math.inf, max_rounds=4, setup_reps=1)
    tracer = spans.Tracer()
    with tracer.installed():
        assert Graph.__dict__["max_degree"] is not max_degree
        wrapped = wl.run(inp, math.inf, max_rounds=4, setup_reps=1, span=tracer.span)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before)
    assert plain.digest == again.digest == wrapped.digest
    assert not plain.errors and not wrapped.errors
    layers = spans.layer_metrics(tracer)
    assert layers["clusters.small"] == 1.0 and layers["decompose.clusters"] == 1.0
    assert layers["graphs.components_calls"] == 1.0


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in before)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_exactly_the_declared_metrics(trace, kind):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "sparsify",
           "--seed", "2", "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 110 and result["failed"] == 0
    assert [m["name"] for m in declared[kind]] == list(result["metrics"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sparsify",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
