from __future__ import annotations

import hashlib
import json
import re
import time
import tracemalloc
from dataclasses import fields

import pytest

import numpy as np

from spreadcolor import audit, clusters
from spreadcolor.cli import _build_config, _make_sampler, _run_trials, build_parser, main
from spreadcolor.clusters import Pipeline
from spreadcolor.graphs import (
    complete_graph,
    disjoint_union,
    gen_random_regular,
    keyed_rng,
    read_edge_list,
    write_edge_list,
)
from spreadcolor.matching import Matching
from spreadcolor.params import Params
from spreadcolor.thresholds import CurveRow, SparsificationCurve
from test_clusters import force_large_branch
from test_params import REMOVED_FIELDS


def test_gen_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--n", "20", "--D", "4", "--seed", "3", "--out", str(out)]) == 0
    g = read_edge_list(out.read_text())
    assert g.n == 20
    assert g.is_regular(4)


def test_gen_without_out_writes_the_edge_list_to_stdout(capsys):
    assert main(["gen", "--n", "20", "--D", "4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == write_edge_list(gen_random_regular(20, 4, seed=3))


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "--n", "16", "--D", "3", "--seed", "9", "--out", str(a)])
    main(["gen", "--n", "16", "--D", "3", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_parity_usage_error(capsys):
    assert main(["gen", "--n", "5", "--D", "3"]) == 2
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize("n,d", [("10", "-1"), ("-2", "-4")])
def test_gen_negative_size_usage_error(capsys, n, d):
    assert main(["gen", "--n", n, "--D", d]) == 2
    assert "need n >= 0 and d >= 0" in capsys.readouterr().err


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


def test_counterexample_greedy_boys_past_the_subset_cap(capsys):
    # n = 2D = 22: 2^22 subset states, which would take minutes; refused
    # before the first is built
    t0 = time.perf_counter()
    assert main(["counterexample", "greedy_boys", "--D", "11"]) == 1
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "CapExceeded: random-greedy subset DP over 22 vertices exceeds 20"
    ]


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


def test_sample_without_out_prints_the_json(tmp_path, capsys):
    argv = ["sample", "--n", "40", "--D", "8", "--seeds", "2", "--seed", "1"]
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert printed.err == "2 colorings, 0 flagged no-spread-guarantee\n"
    out = tmp_path / "runs.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert printed.out == out.read_text() + "\n"


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


def test_audit_all_flagged_exits_1(tmp_path, capsys, monkeypatch):
    # zeta0 = 0 sends both cliques down the large path, whose hierarchy check
    # fails, so every trial is flagged and none is kept
    force_large_branch(monkeypatch)
    g_file = tmp_path / "g.txt"
    g_file.write_text(write_edge_list(disjoint_union(complete_graph(17), complete_graph(17))))
    rc = main(
        ["audit", "--graph", str(g_file), "--trials", "3", "--family", "singletons"]
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
    assert lines[0] == "k,trials,successes,rate,ci_lo,ci_hi,indeterminate"
    assert len(lines) == 4


def test_sparsify_exits_1_when_the_curve_decreases(monkeypatch, capsys):
    curve = SparsificationCurve(
        [CurveRow(2, 10, 9, 0, 0.9, 0.6, 0.98), CurveRow(3, 10, 1, 0, 0.1, 0.02, 0.4)]
    )
    monkeypatch.setattr("spreadcolor.cli.sparsification_scan", lambda *a, **k: curve)
    assert main(["sparsify", "--n", "20", "--D", "4", "--k-values", "2,3"]) == 1
    printed = capsys.readouterr()
    assert printed.out == curve.to_csv()
    assert printed.err == "warning: curve not nondecreasing within CI\n"


def test_sparsify_a_search_deeper_than_the_recursion_limit(capsys):
    # full lists branch once per vertex; this exited 1 with a RecursionError
    assert main(["sparsify", "--n", "1000", "--D", "4", "--k-values", "5", "--trials", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("5,1,1,1.000000,")


def test_cost_command(tmp_path, capsys):
    hg = tmp_path / "h.json"
    hg.write_text(
        '{"ground": ["a", "b"], "edges": [["a", "b"]], "q": {"a": "9/10", "b": "9/10"}}'
    )
    assert main(["cost", "--hypergraph", str(hg)]) == 0
    out = capsys.readouterr().out
    assert "cost    = 81/100" in out


def test_cost_command_weights_numeric_ground_elements(tmp_path, capsys):
    # JSON keys are strings: the key "1" names the ground element 1
    hg = tmp_path / "h.json"
    hg.write_text('{"ground": [1, 2], "edges": [[1, 2]], "q": {"1": "1/2", "2": "1/3"}}')
    assert main(["cost", "--hypergraph", str(hg)]) == 0
    captured = capsys.readouterr()
    assert "expense = 1/6" in captured.out and captured.err == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "a hypergraph is a JSON object"),
        ('{"ground": ["a"]}', "a hypergraph is a JSON object"),
        # a string edge used to be split into its characters
        ('{"ground": ["a", "b"], "edges": "ab"}', "a hypergraph is a JSON object"),
        ('{"ground": ["a", "b"], "edges": ["ab"]}', "a hypergraph is a JSON object"),
        ('{"ground": [["a"]], "edges": []}', "a hypergraph is a JSON object"),
        ('{"ground": ["a"], "edges": [["a"]], "q": [0.5]}', "a hypergraph is a JSON object"),
        ('{"ground": ["a"], "edges": [["a"]], "q": {}}', "no weight q['a']"),
        ('{"ground": ["a"], "edges": [["a"]], "q": {"a": "1/0"}}', "divides by zero"),
        ('{"ground": ["a"], "edges": [["b"]], "q": {"a": 0.5}}', "not inside the ground set"),
        # JSON keys are strings, so 1 and "1" would share the key "1"
        ('{"ground": [1, "1"], "edges": [[1]], "q": {"1": 0.5}}', "share a q key"),
        ('{"ground": ["a"], "edges": [["a"]], "q": {"a": 0.5, "b": 0.5}}', "q key 'b' names no"),
    ],
)
def test_a_hypergraph_of_the_wrong_shape_exits_2(tmp_path, capsys, text, message):
    # the first eight ended in a traceback, or read the string edge as its
    # characters; the last two took q's keys for ground elements as they stood
    hg = tmp_path / "h.json"
    hg.write_text(text)
    assert main(["cost", "--hypergraph", str(hg)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert captured.out == ""


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text('{"eps": 0.04, "max_tries": 2}')
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


@pytest.mark.parametrize("config", ["null", "[1]", '[["eps", 0.04]]', '"eps"', "0.04", "true"])
def test_a_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, config):
    # a list of [name, value] pairs is not an object either
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(config)
    assert main(["decompose", "--n", "20", "--D", "4", "--config", str(cfgf)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: --config {cfgf}: expected a JSON object, got {config}"
    ]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, why",
    [
        (["decompose", "--n", "20", "--D", "4", "--config", "{missing}"],
         "No such file or directory"),
        (["decompose", "--n", "20", "--D", "4", "--config", "{dir}"], "Is a directory"),
        (["sample", "--graph", "{missing}"], "No such file or directory"),
        (["cost", "--hypergraph", "{missing}"], "No such file or directory"),
        (["gen", "--n", "10", "--D", "3", "--out", "{missing}/g.txt"],
         "No such file or directory"),
        (["decompose", "--n", "20", "--D", "4", "--out", "{dir}"], "Is a directory"),
        (["sample", "--n", "20", "--D", "4", "--out", "{dir}"], "Is a directory"),
        (["audit", "--sampler", "slack-greedy", "--n", "20", "--D", "4", "--trials", "5",
          "--out", "{dir}"], "Is a directory"),
        (["sparsify", "--n", "20", "--D", "4", "--k-values", "5", "--trials", "2",
          "--out", "{dir}"], "Is a directory"),
    ],
)
def test_a_file_that_cannot_be_read_or_written_exits_2(tmp_path, capsys, argv, why):
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert re.fullmatch(rf"error: \[Errno \d+\] {why}: '{re.escape(argv[-1])}'", line)


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
def test_jobs_is_offered_only_where_trials_run(command, capsys):
    # only sample and audit run trials, so only they take --jobs
    assert main([command, "--n", "20", "--D", "4", "--jobs", "2"]) == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("sampler", ["pipeline", "random-greedy", "slack-greedy"])
def test_audit_jobs_2_writes_what_jobs_1_writes(sampler, tmp_path, capsys):
    # every sampler's trials run through one runner, and trial t draws from
    # its own keyed stream in whichever process runs it; the greedy samplers
    # used to refuse --jobs 2
    base = ["audit", "--sampler", sampler, "--n", "30", "--D", "6", "--trials", "200",
            "--seed", "6"]
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(base + ["--jobs", jobs, "--out", str(out)]) == 0
        written.append((out.read_bytes(), capsys.readouterr().out))
    assert written[0] == written[1]


def test_run_trials_runs_each_trial_as_it_is_consumed():
    # so an audit counts each coloring before the next trial draws one
    ran = []
    stream = _run_trials(lambda t: ran.append(t) or (np.array([t]), False), [5, 6, 7], 1)
    assert ran == []
    assert next(stream)[0].tolist() == [5] and ran == [5]
    assert [colors.tolist() for colors, _ in stream] == [[6], [7]] and ran == [5, 6, 7]


@pytest.mark.parametrize(
    "jobs, trials, cpus, pool",
    [("64", "3", 8, (3, 1)), ("2", "5", 8, (2, 3)), ("4", "10", 3, (3, 4)),
     ("64", "3", 1, None), ("64", "3", None, None), ("1", "5", 8, None), ("8", "1", 8, None)],
)
def test_the_pool_is_sized_by_jobs_trials_and_cpus(
    jobs, trials, cpus, pool, monkeypatch, tmp_path, capsys
):
    # --jobs 64 asked for 64 workers for 3 trials, and the fork start method
    # starts every worker at the first submit; this pool starts no process
    made = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, ts, chunksize):
            made.append((self.max_workers, chunksize))
            return map(fn, ts)

    monkeypatch.setattr("spreadcolor.cli.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr("spreadcolor.cli.os.cpu_count", lambda: cpus)
    base = ["audit", "--sampler", "random-greedy", "--n", "10", "--D", "4", "--trials", trials]
    written = []
    for j in ("1", jobs):
        out = tmp_path / f"jobs{j}.csv"
        assert main(base + ["--jobs", j, "--out", str(out)]) == 0
        written.append((out.read_bytes(), capsys.readouterr().out))
    assert made == ([pool] if pool else [])
    assert written[0] == written[1]


def test_audit_memory_does_not_grow_with_trials(capsys):
    # the audit counts each coloring as its trial yields it; it used to hold
    # all of them first, n int64s a trial (4.2 MiB at 50 trials, 8.4 at 400)
    def peak(trials: int) -> int:
        tracemalloc.start()
        try:
            assert main(["audit", "--sampler", "random-greedy", "--n", "2000", "--D", "4",
                         "--family", "singletons", "--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)  # imports and first-call caches
    assert abs(peak(400) - peak(50)) < 1 << 20


@pytest.mark.parametrize("sampler", ["random-greedy", "slack-greedy"])
@pytest.mark.parametrize("family", ["singletons", "singletons+pairs"])
def test_an_audit_with_no_test_set_is_a_usage_error(sampler, family, tmp_path, capsys):
    # a graph with no vertex has no (vertex, color) pair to test: the audit
    # printed "c_hat": 0.0 over 0 rows and passed its gate
    g_file = tmp_path / "g.txt"
    g_file.write_text("# n=0\n")
    argv = ["audit", "--sampler", sampler, "--graph", str(g_file), "--trials", "5",
            "--family", family]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: empty test family: nothing to audit"]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["gen", "decompose", "sample", "audit", "sparsify"])
def test_a_negative_seed_is_a_usage_error_at_parse_time(command, monkeypatch, capsys):
    # sample, audit and sparsify used to draw the graph and then fail in
    # numpy with "expected non-negative integer"; gen and decompose took it
    monkeypatch.setattr(
        "spreadcolor.cli.gen_random_regular", lambda *a, **k: pytest.fail("graph drawn")
    )
    assert main([command, "--n", "20", "--D", "4", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"spreadcolor {command}: error: argument --seed: must be >= 0, got -1"]
    assert captured.out == ""


def test_every_sampler_returns_an_int64_vertex_array():
    g = gen_random_regular(30, 6, seed=2)
    for name in ("random-greedy", "slack-greedy"):
        colors = _make_sampler(name, g)(keyed_rng(0, 0))
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
        lambda b, *a, **k: Matching(np.r_[np.arange(len(b) - 1), -1]),
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


PIPELINE = {f.name for f in fields(Params)} - {"enum_cap", "color_cap", "c_hat_ceiling"}

# each subcommand's shortest argv, and the settable values it offers:
# --seed, --config and a flag for each Params field it reads
SUBCOMMAND_PARAMS = {
    "gen": (["gen", "--n", "4", "--D", "2"], {"seed"}),
    "decompose": (["decompose"], {"seed", "config", "eps", "theta"}),
    "sample": (["sample"], {"seed", "config", *PIPELINE}),
    "audit": (["audit"], {"seed", "config", *PIPELINE, "c_hat_ceiling"}),
    "counterexample": (["counterexample", "red_thumb", "--D", "3"], {"config", "enum_cap"}),
    "sparsify": (["sparsify"], {"seed", "config", "color_cap"}),
    "cost": (["cost", "--hypergraph", "h.json"], set()),
}


def test_the_subcommands_offer_25_settable_values_covering_every_param():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert set(subparsers) == set(SUBCOMMAND_PARAMS)
    assert sum(len(offered) for _, offered in SUBCOMMAND_PARAMS.values()) == 25
    covered = set().union(*(offered for _, offered in SUBCOMMAND_PARAMS.values()))
    assert covered >= {f.name for f in fields(Params)}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_PARAMS))
def test_each_subcommand_offers_exactly_the_params_it_reads_and_round_trips(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    base, offered = SUBCOMMAND_PARAMS[command]
    settable = {"seed", "config"} | {f.name for f in fields(Params)}
    dests = [a.dest for a in sub._actions if a.dest in settable]
    assert sorted(dests) == sorted(offered)
    if "config" not in offered:
        return
    argv = list(base)
    read = [f for f in fields(Params) if f.name in offered]
    for f in read:
        argv += [f"--{f.name.replace('_', '-')}", _flag_value(f)]
    params = _build_config(parser.parse_args(argv))
    for f in fields(Params):
        want = type(f.default or 0.0)(_flag_value(f)) if f in read else f.default
        got = getattr(params, f.name)
        assert (got, type(got)) == (want, type(want)), f.name
    assert Params.from_dict(params.to_dict()) == params


@pytest.mark.parametrize(
    "argv, unrecognized",
    [
        (["cost", "--hypergraph", "h.json", "--eps", "7", "--config", "/nonexistent.json"],
         "--eps 7 --config /nonexistent.json"),
        (["gen", "--n", "20", "--D", "4", "--t-window", "0.5"], "--t-window 0.5"),
        (["counterexample", "red_thumb", "--D", "3", "--seed", "99"], "--seed 99"),
        (["sparsify", "--n", "20", "--D", "4", "--max-tries", "1", "--t-window", "3"],
         "--max-tries 1 --t-window 3"),
        (["decompose", "--n", "20", "--D", "4", "--t-window", "0.5"], "--t-window 0.5"),
        (["sample", "--n", "20", "--D", "4", "--color-cap", "5"], "--color-cap 5"),
    ],
)
def test_a_param_the_subcommand_does_not_read_is_a_usage_error(argv, unrecognized, capsys):
    # each of these used to exit 0 and ignore the flag
    assert main(argv) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].endswith(f"error: unrecognized arguments: {unrecognized}")
    assert captured.out == ""


@pytest.mark.parametrize("sampler", ["random-greedy", "slack-greedy"])
@pytest.mark.parametrize("name", sorted(PIPELINE))
def test_greedy_audit_rejects_pipeline_params(sampler, name, capsys):
    # the greedy samplers never build a Pipeline, so its flags would do nothing
    f = next(f for f in fields(Params) if f.name == name)
    flag = f"--{name.replace('_', '-')}"
    argv = ["audit", "--sampler", sampler, "--n", "20", "--D", "4", "--trials", "5"]
    assert main(argv + [flag, _flag_value(f)]) == 2
    value = type(f.default or 0.0)(_flag_value(f))
    assert capsys.readouterr().err == (
        f"error: {flag} {value}: --sampler {sampler} does not run the pipeline; "
        f"only --sampler pipeline takes {flag}\n"
    )


def test_greedy_audit_takes_pipeline_params_from_a_config_file(tmp_path, capsys):
    # a config file may carry any field, so one file serves every subcommand
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text('{"t_window": 0.5}')
    argv = ["audit", "--sampler", "slack-greedy", "--n", "20", "--D", "4", "--trials", "5",
            "--family", "singletons"]
    assert main(argv + ["--config", str(cfgf)]) == 0
    with_config = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == with_config
    assert main(argv + ["--t-window", "0.5"]) == 2


def test_greedy_boys_rejects_enum_cap(tmp_path, capsys):
    # greedy_boys is a subset DP that never reads the cap; it used to exit 0
    argv = ["counterexample", "greedy_boys", "--D", "2"]
    assert main(argv + ["--enum-cap", "1"]) == 2
    assert capsys.readouterr().err == "error: --enum-cap 1: greedy_boys runs no capped enumeration\n"
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text('{"enum_cap": 1}')
    assert main(argv + ["--config", str(cfgf)]) == 0
    assert "7/108" in capsys.readouterr().out
    assert main(["counterexample", "red_thumb", "--D", "3", "--enum-cap", "1"]) == 1
    assert "CapExceeded" in capsys.readouterr().err


def test_decompose_seed_with_a_graph_file_is_a_usage_error(tmp_path, capsys):
    # the seed only draws the --n/--D graph; next to --graph it changed nothing
    g_file = tmp_path / "g.txt"
    g_file.write_text(write_edge_list(gen_random_regular(30, 6, seed=2)))
    assert main(["decompose", "--graph", str(g_file), "--seed", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: --seed 5: decompose --graph reads no seed, only --n/--D do\n"
    )
    assert main(["decompose", "--graph", str(g_file)]) == 0
    from_file = capsys.readouterr().out
    assert main(["decompose", "--n", "30", "--D", "6", "--seed", "2"]) == 0
    assert capsys.readouterr().out == from_file
    assert main(["decompose", "--n", "30", "--D", "6"]) == 0
    default_seed = capsys.readouterr().out
    assert main(["decompose", "--n", "30", "--D", "6", "--seed", "0"]) == 0
    assert capsys.readouterr().out == default_seed


@pytest.mark.parametrize("command", ["decompose", "sample", "audit", "sparsify"])
@pytest.mark.parametrize("flags", [["--n", "999"], ["--D", "7"], ["--n", "999", "--D", "7"]])
def test_a_graph_file_with_n_or_D_is_a_usage_error(command, flags, tmp_path, capsys):
    # --graph used to win silently over --n and --D
    g_file = tmp_path / "g.txt"
    g_file.write_text(write_edge_list(gen_random_regular(20, 4, seed=2)))
    assert main([command, "--graph", str(g_file), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {flags[0]} {flags[1]}: --graph reads its graph from the file; "
        "only without --graph do --n and --D draw one\n"
    )
    assert captured.out == ""


def test_a_zero_n_or_D_is_given_not_missing(capsys):
    # a zero --n or --D read as a missing flag: "need --graph FILE or both --n and --D"
    assert main(["sparsify", "--n", "6", "--D", "0", "--k-values", "1", "--trials", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,3,3,1.000000,")
    assert main(["decompose", "--n", "6", "--D", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["sparse"] == list(range(6))
    # --n 0 reaches the generator, whose own check names both values
    assert main(["sample", "--n", "0", "--D", "3"]) == 2
    assert capsys.readouterr().err == "error: need d < n, got d=3, n=0\n"


def test_bad_matching_param_is_a_usage_error(capsys):
    assert main(["sample", "--n", "40", "--D", "8", "--match-max-tries", "0"]) == 2
    assert "match_max_tries must be >= 1" in capsys.readouterr().err


# every subcommand that takes --config, each exiting before it does any work
CONFIG_COMMANDS = {
    "sample": ["sample", "--n", "20", "--D", "4"],
    "audit": ["audit", "--n", "20", "--D", "4"],
    "audit-random-greedy": ["audit", "--sampler", "random-greedy", "--n", "20", "--D", "4"],
    "audit-slack-greedy": ["audit", "--sampler", "slack-greedy", "--n", "20", "--D", "4"],
    "decompose": ["decompose", "--n", "20", "--D", "4"],
    "counterexample": ["counterexample", "red_thumb", "--D", "3"],
    "sparsify": ["sparsify", "--n", "20", "--D", "4"],
}


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("name", REMOVED_FIELDS)
def test_a_removed_knob_exits_2_as_a_flag_and_in_a_config_file(command, name, tmp_path, capsys):
    # these values are constants of the construction, not Params fields
    flag = f"--{name.replace('_', '-')}"
    argv = CONFIG_COMMANDS[command]
    assert main(argv + [flag, "2"]) == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} 2\n")
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({name: 2}))
    assert main(argv + ["--config", str(cfgf)]) == 2
    assert capsys.readouterr().err == f"error: unknown parameter(s): ['{name}']\n"


@pytest.mark.parametrize("flag", ["--theta", "--t-window", "--c-hat-ceiling"])
@pytest.mark.parametrize("value", ["nan", "0", "-0.1", "inf"])
def test_bad_threshold_is_a_usage_error(flag, value, capsys):
    command = "audit" if flag == "--c-hat-ceiling" else "sample"  # only audit reads the ceiling
    assert main([command, "--n", "40", "--D", "8", flag, value]) == 2
    assert "must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sparsify", "--n", "20", "--D", "4", "--color-cap", "0"], "color_cap must be >= 1"),
        (["counterexample", "red_thumb", "--D", "3", "--enum-cap", "0"], "enum_cap must be >= 1"),
    ],
)
def test_bad_cap_value_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_graph_order_past_the_int64_keys_is_a_usage_error(tmp_path, capsys):
    # it used to exit 1 with an OverflowError traceback
    g_file = tmp_path / "g.txt"
    g_file.write_text(f"# n={2**70}\n0 1\n")
    assert main(["decompose", "--graph", str(g_file)]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"error: n={2**70} is too large: the edge keys u*n+v need n <= 3037000499"]
    assert captured.out == ""


def test_a_malformed_edge_list_header_exits_2(tmp_path, capsys):
    # "# n=x" was read as a comment, and the graph silently took n = 2
    g_file = tmp_path / "g.txt"
    g_file.write_text("# n=x\n0 1\n")
    assert main(["decompose", "--graph", str(g_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: bad edge-list header: '# n=x' (expected '# n=<count>')"
    ]
    assert captured.out == ""


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


def test_audit_over_the_ceiling_exits_1(capsys):
    # reads C_hat 2.59 against a ceiling of 1
    argv = ["audit", "--n", "20", "--D", "4", "--trials", "50", "--c-hat-ceiling", "1.0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["C_hat 2.59 exceeds ceiling 1.0"]
    assert json.loads(captured.out)["c_hat"] > 1.0


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
    # the two greedy samplers: re-pinned when they moved onto the slack-greedy
    # engine, whose uniforms make another stream of the same law
    # (test_greedy.TestSamplerLaws checks the law)
    "audit-random-greedy": (
        ["audit", "--sampler", "random-greedy", "--n", "30", "--D", "6", "--trials", "200",
         "--seed", "6"],
        "fa9af9d6bac29f8023d02bfb32483005011f8e62176992f27e3dc6a562c343e9",
    ),
    "audit-slack-greedy": (
        ["audit", "--sampler", "slack-greedy", "--n", "30", "--D", "6", "--trials", "200",
         "--seed", "6"],
        "143e88f4170686ce6504d23a5b36645ec0c8b776d5b26fcde2b197c96f5d2912",
    ),
    # pinned from the row-per-set SpreadReport, which the array report replaced
    "audit-singletons": (
        ["audit", "--sampler", "pipeline", "--n", "30", "--D", "6", "--trials", "200",
         "--seed", "6", "--family", "singletons"],
        "9183561f968ad43e29d2a0fd189c8df4980a073d0a5f2cb14aae9f6473b05352",
    ),
    # re-pinned for the CSV's `indeterminate` column alone
    "sparsify": (
        ["sparsify", "--n", "20", "--D", "4", "--k-values", "2,3,5", "--trials", "40",
         "--seed", "7"],
        "8ab9afbdf7b465700ec95e343416e0c3e777509ebc93b3e1a88c1cc0bab71324",
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
