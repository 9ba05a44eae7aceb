from __future__ import annotations

import json

import pytest

from spreadcolor.cli import main
from spreadcolor.graphs import complete_graph, disjoint_union, read_edge_list, write_edge_list


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


def test_usage_error_exit_2():
    assert main(["counterexample", "nonsense", "--D", "3"]) == 2


def test_missing_graph_args_exit_2(capsys):
    assert main(["decompose"]) == 2


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
