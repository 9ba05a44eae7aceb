from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import pytest

import numpy as np

from spreadcolor import audit, clusters
from spreadcolor.cli import _build_config, _make_sampler, build_parser, main
from spreadcolor.clusters import Pipeline
from spreadcolor.graphs import (
    complete_graph,
    disjoint_union,
    gen_random_regular,
    read_edge_list,
    write_edge_list,
)
from spreadcolor.matching import Matching
from spreadcolor.params import Params


def test_gen_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--n", "20", "--D", "4", "--seed", "3", "--out", str(out)]) == 0
    g = read_edge_list(out.read_text())
    assert g.n == 20
    assert g.is_regular(4)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "--n", "16", "--D", "3", "--seed", "9", "--out", str(a)])
    main(["gen", "--n", "16", "--D", "3", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_parity_usage_error(capsys):
    assert main(["gen", "--n", "5", "--D", "3"]) == 2
    assert "even" in capsys.readouterr().err


def test_counterexample_red_thumb(capsys):
    assert main(["counterexample", "red_thumb", "--D", "3"]) == 0
    out = capsys.readouterr().out
    assert "= 1/2" in out


def test_counterexample_clique_minus_clique(capsys):
    assert main(["counterexample", "clique_minus_clique", "--D", "3"]) == 0
    assert "1/8" in capsys.readouterr().out


def test_counterexample_greedy_boys(capsys):
    assert main(["counterexample", "greedy_boys", "--D", "2"]) == 0
    out = capsys.readouterr().out
    assert "7/108" in out and "True" in out


def test_sample_pipeline(tmp_path, capsys):
    out = tmp_path / "runs.json"
    rc = main(
        ["sample", "--n", "40", "--D", "8", "--seeds", "3", "--seed", "1",
         "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["runs"]) == 3
    assert data["palette"] == 9
    for run in data["runs"]:
        assert len(run["coloring"]) == 40


def test_decompose_json(tmp_path, capsys):
    g_file = tmp_path / "g.txt"
    main(["gen", "--n", "30", "--D", "6", "--seed", "2", "--out", str(g_file)])
    capsys.readouterr()
    assert main(["decompose", "--graph", str(g_file)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"sparse", "clusters", "eps", "theta"}


def test_audit_slack_greedy(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        ["audit", "--sampler", "slack-greedy", "--n", "20", "--D", "4",
         "--trials", "400", "--seed", "5", "--family", "singletons",
         "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["trials"] == 400
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 20 * 5


def test_audit_pipeline_small(capsys):
    rc = main(
        ["audit", "--sampler", "pipeline", "--n", "30", "--D", "6",
         "--trials", "300", "--seed", "6", "--family", "singletons"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["c_hat"] < 64


def test_audit_all_flagged_exits_1(tmp_path, capsys):
    # zeta0 = 0 sends both cliques down the large path, whose hierarchy check
    # fails, so every trial is flagged and none is kept
    g_file = tmp_path / "g.txt"
    g_file.write_text(write_edge_list(disjoint_union(complete_graph(17), complete_graph(17))))
    rc = main(
        ["audit", "--graph", str(g_file), "--zeta0", "0", "--trials", "3",
         "--family", "singletons"]
    )
    assert rc == 1
    assert "NoKeptSamples" in capsys.readouterr().err


def test_sparsify(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(
        ["sparsify", "--n", "20", "--D", "4", "--k-values", "2,3,5",
         "--trials", "40", "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,trials,successes,rate,ci_lo,ci_hi"
    assert len(lines) == 4


def test_cost_command(tmp_path, capsys):
    hg = tmp_path / "h.json"
    hg.write_text(
        '{"ground": ["a", "b"], "edges": [["a", "b"]], "q": {"a": "9/10", "b": "9/10"}}'
    )
    assert main(["cost", "--hypergraph", str(hg)]) == 0
    out = capsys.readouterr().out
    assert "cost    = 81/100" in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text('{"eps": 0.04, "d_min": 2}')
    g_file = tmp_path / "g.txt"
    main(["gen", "--n", "30", "--D", "6", "--seed", "2", "--out", str(g_file)])
    capsys.readouterr()
    rc = main(
        ["decompose", "--graph", str(g_file), "--config", str(cfgf), "--eps", "0.05"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eps"] == pytest.approx(0.4)  # flag eps=0.05 -> cluster eps 0.4


@pytest.mark.parametrize(
    "config, message",
    [('{"max_tries": 2.5}', "max_tries must be an integer, got 2.5"),
     ('{"eps": "0.05"}', "eps must be a real number, got '0.05'")],
)
def test_wrongly_typed_config_exit_2(tmp_path, capsys, config, message):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(config)
    rc = main(["sample", "--n", "20", "--D", "4", "--config", str(cfgf)])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_usage_error_exit_2():
    assert main(["counterexample", "nonsense", "--D", "3"]) == 2


def test_missing_graph_args_exit_2(capsys):
    assert main(["decompose"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--n", "20", "--D", "4", "--trials", "0"],
        ["audit", "--n", "20", "--D", "4", "--trials", "-3"],
        ["sparsify", "--n", "20", "--D", "4", "--trials", "0"],
        ["sample", "--n", "20", "--D", "4", "--seeds", "-2"],
        ["sample", "--n", "20", "--D", "4", "--seeds", "0"],
        ["sample", "--n", "20", "--D", "4", "--jobs", "0"],
        ["audit", "--n", "20", "--D", "4", "--jobs", "-4"],
    ],
)
def test_count_below_one_is_a_usage_error(argv, capsys):
    # zero trials used to exit 1 as NoKeptSamples, and zero seeds to exit 0
    # with no colorings
    assert main(argv) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith(f"error: argument {argv[-2]}: must be >= 1, got {argv[-1]}")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["gen", "decompose", "sparsify"])
def test_jobs_is_offered_only_where_pipeline_trials_run(command, capsys):
    # only sample and audit run pipeline trials, so only they take --jobs
    assert main([command, "--n", "20", "--D", "4", "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("sampler", ["random-greedy", "slack-greedy"])
def test_greedy_audit_rejects_parallel_jobs(sampler, capsys):
    # the greedy samplers run every trial in one process, so --jobs 2 would
    # do nothing; --jobs 1 (the default) is still accepted
    base = ["audit", "--sampler", sampler, "--n", "20", "--D", "4", "--trials", "5"]
    assert main(base + ["--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: --jobs 2: --sampler {sampler} runs in one process; "
        "only --sampler pipeline takes --jobs\n"
    )
    assert main(base + ["--jobs", "1"]) == 0


def test_every_sampler_returns_an_int64_vertex_array():
    g = gen_random_regular(30, 6, seed=2)
    for name in ("random-greedy", "slack-greedy"):
        colors = _make_sampler(name, g)(audit.trial_rng(0, 0))
        assert colors.dtype == np.int64 and colors.shape == (g.n,), name
    pipe = Pipeline(g)
    for seed in range(3):
        res = pipe.sample(seed)
        arr, flagged = pipe.sample_array(seed)
        assert res.coloring.dtype == np.int64 and res.coloring.shape == (g.n,)
        assert np.array_equal(res.coloring, arr) and res.flagged == flagged


def test_sample_moderate_scale(tmp_path):
    out = tmp_path / "runs.json"
    rc = main(
        ["sample", "--n", "200", "--D", "16", "--seeds", "10", "--seed", "4",
         "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["runs"]) == 10
    assert all(not r["flagged"] for r in data["runs"])


def test_sample_jobs_matches_serial(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sample", "--n", "30", "--D", "6", "--seeds", "4", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())


def test_sample_jobs_2_fails_like_jobs_1_when_the_pipeline_cannot_be_built(tmp_path, capsys):
    # at D=4 a K5 component has no valid decomposition; the error must come
    # out as exit 1 whatever --jobs is, not as a broken worker pool
    g_file = tmp_path / "g.txt"
    g_file.write_text(write_edge_list(complete_graph(5)))
    for jobs in ("1", "2"):
        assert main(["sample", "--graph", str(g_file), "--jobs", jobs]) == 1
        assert "HypothesisViolated: D = 4 < 1/(2*eps_in) = 10" in capsys.readouterr().err


def test_dense_vertex_below_the_degree_bound_exits_1(tmp_path, capsys):
    # a K5 at D=4 is rejected when the decomposition classifies it, before
    # any friend graph or cluster is built
    g_file = tmp_path / "g.txt"
    g_file.write_text(write_edge_list(complete_graph(5)))
    assert main(["decompose", "--graph", str(g_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("HypothesisViolated: D = 4 < 1/(2*eps_in) = 10 and vertex 0 is dense")


def test_sample_with_broken_matcher_exits_1(tmp_path, monkeypatch, capsys):
    # a matcher that leaves a vertex out breaks an invariant: the run fails
    # loudly instead of coming back flagged
    g_file = tmp_path / "g.txt"
    g_file.write_text(write_edge_list(complete_graph(17)))
    monkeypatch.setattr(
        clusters, "spread_X_perfect_matching",
        lambda b, *a, **k: Matching({x: x for x in range(b.nx - 1)}),
    )
    assert main(["sample", "--graph", str(g_file)]) == 1
    assert "VerificationFailed: cluster coloring does not cover" in capsys.readouterr().err


def _flag_value(f) -> str:
    """A valid non-default value for each Params field, as typed on the command line."""
    default = f.default
    if default is None:
        return "0.01"
    if isinstance(default, int):
        return str(default + 1)
    return repr(default * 0.9)


def test_every_param_has_exactly_one_flag_and_round_trips():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices["sample"]
    dests = [a.dest for a in sub._actions]
    names = [f.name for f in fields(Params)]
    for name in names:
        assert dests.count(name) == 1, name
    argv = ["sample", "--n", "40", "--D", "8"]
    for f in fields(Params):
        argv += [f"--{f.name.replace('_', '-')}", _flag_value(f)]
    cfg = _build_config(parser.parse_args(argv))
    for f in fields(Params):
        got, want = getattr(cfg.params, f.name), type(f.default or 0.0)(_flag_value(f))
        assert (got, type(got)) == (want, type(want)), f.name
    assert Params.from_dict(cfg.params.to_dict()) == cfg.params


def test_bad_matching_param_is_a_usage_error(capsys):
    assert main(["sample", "--n", "40", "--D", "8", "--k-out", "0"]) == 2
    assert "k_out" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--theta", "--theta-prime", "--t-window", "--c-hat-ceiling"])
@pytest.mark.parametrize("value", ["nan", "0", "-0.1", "inf"])
def test_bad_threshold_is_a_usage_error(flag, value, capsys):
    assert main(["sample", "--n", "40", "--D", "8", flag, value]) == 2
    assert "must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--n", "40", "--D", "8", "--h-margin", "nan"], "h_margin must be finite and > 1"),
        (["sample", "--n", "40", "--D", "8", "--zeta0", "-1"], "zeta0 must be finite and >= 0"),
        (["sample", "--n", "40", "--D", "8", "--eta", "2"], "eta must be finite and in (0, 1]"),
        (["sparsify", "--n", "20", "--D", "4", "--color-cap", "0"], "color_cap must be >= 1"),
        (["counterexample", "red_thumb", "--D", "3", "--enum-cap", "0"], "enum_cap must be >= 1"),
    ],
)
def test_bad_cluster_or_cap_value_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_audit_pairs_on_a_one_vertex_graph_is_a_usage_error(tmp_path, capsys):
    # a single vertex with palette 1 has one (vertex, color) pair, so no
    # 2-set can be drawn; the run used to hang
    g_file = tmp_path / "g.txt"
    g_file.write_text("# n=1\n")
    argv = ["audit", "--graph", str(g_file), "--sampler", "random-greedy", "--trials", "100"]
    assert main(argv) == 2
    assert "needs two (vertex, color) pairs" in capsys.readouterr().err
    assert main(argv + ["--family", "singletons"]) == 0


def test_audit_with_a_nan_ceiling_is_a_usage_error(capsys):
    # a nan ceiling would pass the gate vacuously: c_hat > nan is False
    argv = ["audit", "--n", "20", "--D", "4", "--trials", "100", "--c-hat-ceiling", "nan"]
    assert main(argv) == 2
    assert "c_hat_ceiling must be finite and > 0" in capsys.readouterr().err


# sha256 of each command's --out file followed by its stdout, pinned from
# the dict-returning samplers: the array samplers must print the same bytes
CLI_GOLDEN = {
    "sample": (
        ["sample", "--n", "40", "--D", "8", "--seeds", "3", "--seed", "1"],
        "8d5cce0f213fa22075f35035ead0c02622923b66d533771f20b8afa263e1159b",
    ),
    "audit-pipeline": (
        ["audit", "--sampler", "pipeline", "--n", "30", "--D", "6", "--trials", "200",
         "--seed", "6"],
        "1f97c5a09f9e3731dd837fb79741a7f18cbd506d3269383f7fbe318732bb913f",
    ),
    "audit-random-greedy": (
        ["audit", "--sampler", "random-greedy", "--n", "30", "--D", "6", "--trials", "200",
         "--seed", "6"],
        "1721a8de4bdd66c6ff455712a2d8eb54dba63c21e0efdbedda76a07dbf88d010",
    ),
    "audit-slack-greedy": (
        ["audit", "--sampler", "slack-greedy", "--n", "30", "--D", "6", "--trials", "200",
         "--seed", "6"],
        "84b952d23dac374f3a45c88c7d0dc0e8f078d66f33f71781d944e2321b51621a",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_output_is_byte_identical(name, tmp_path, capsys):
    argv, expected = CLI_GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    h = hashlib.sha256(out.read_bytes())
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == expected
