"""Fuzz the command line: every subcommand, every flag of its field table.

Each example builds one argv for one subcommand from `cli.PARAM_FIELDS`
(the Params fields it reads, so a new field is fuzzed without a change
here) and from its own flags, with good and bad values alike: generated
and malformed edge lists, --config files, hypergraph files, and --out
paths that can and cannot be written.  Trials run at --jobs 1.

The contract checked is the cli module docstring's exit codes: main
returns 0, 1 or 2 and never lets an exception out.  An exit 1 prints one
line on stderr: a `SpreadColorError`, or a verdict (the audit's C_hat
over its ceiling, or a sparsification curve that is not nondecreasing).
An exit 2 prints one `error:` line, alone or at the end of an argparse
usage message.  An exit 0 prints neither.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spreadcolor import errors  # noqa: E402
from spreadcolor.cli import _PARAM_TYPES, PARAM_FIELDS, main  # noqa: E402
from spreadcolor.graphs import Graph, write_edge_list  # noqa: E402

# command-line values of each Params field type: first those every field of
# the type takes, then those that some or all refuse
FLAG_VALUES = {
    int: (["1", "3", "200"], ["0", "-2", "1.5", "x"]),
    float: (["0.01", "0.05"], ["0.3", "1", "0", "-0.5", "nan", "inf", "x"]),
}
ERROR_NAMES = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.SpreadColorError)
}
VERDICTS = ("C_hat ", "warning: curve not nondecreasing within CI")


@st.composite
def edge_lists(draw, broken: bool) -> str:
    """An edge list of a graph on 1..12 vertices, or a malformed one."""
    if broken and draw(st.booleans()):
        return draw(st.sampled_from(["", "0 1\n1 x\n", "# n=2\n0 5\n", "# n=x\n0 1\n", "0\n"]))
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return write_edge_list(Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k]))


@st.composite
def sizes(draw, broken: bool, d_min: int = 0) -> list[str]:
    """--n and --D: a pair gen_random_regular takes with D >= d_min, or if
    broken any small pair."""
    d = draw(st.integers(-1 if broken else d_min, 8))
    n = draw(st.integers(-1, 24) if broken else st.integers(d + 1, 24).map(lambda n: n + n * d % 2))
    return ["--n", str(n), "--D", str(d)]


@st.composite
def config_files(draw, broken: bool) -> str:
    """A JSON object setting Params fields to values they take; if broken,
    also an object of any values, one with an unknown key, another JSON
    value, or text that is not JSON."""
    kind = draw(st.integers(0, 5)) if broken else 5
    if kind == 0:
        return draw(st.sampled_from(["{", "[1, 2]", "null", '"eps"']))
    if kind == 5:
        names = draw(st.lists(st.sampled_from(list(_PARAM_TYPES)), max_size=3, unique=True))
        return json.dumps({
            name: _PARAM_TYPES[name](draw(st.sampled_from(FLAG_VALUES[_PARAM_TYPES[name]][0])))
            for name in names
        })
    keys = st.sampled_from([*_PARAM_TYPES, "no_such_field"] if kind == 1 else list(_PARAM_TYPES))
    values = st.one_of(
        st.integers(-3, 300), st.floats(-2, 2), st.sampled_from([float("nan"), float("inf")]),
        st.none(), st.booleans(), st.text(max_size=3),
    )
    return json.dumps(draw(st.dictionaries(keys, values, max_size=3)))


@st.composite
def hypergraph_files(draw, broken: bool) -> str:
    """A small hypergraph with weights; if broken, with a weight that is no
    number or names no ground element, or JSON of another shape."""
    if broken and draw(st.booleans()):
        return draw(st.sampled_from(
            ["[1]", '{"ground": ["a"]}', "{", '{"ground": [1, "1"], "edges": []}']
        ))
    ground = draw(st.lists(st.sampled_from(["a", "b", "c", 1, 2]), max_size=4, unique=True))
    edges = draw(st.lists(st.lists(st.sampled_from(ground or ["a"]), max_size=3), max_size=4))
    keys = [x if isinstance(x, str) else json.dumps(x) for x in ground] + ["zz"] * broken
    weights = st.one_of(st.floats(0, 1), st.sampled_from(["1/3", "0", *["1/0", "x"] * broken]))
    q = draw(st.dictionaries(st.sampled_from(keys), weights, max_size=4)) if keys else {}
    return json.dumps({"ground": ground, "edges": edges, "q": q})


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """(argv, files): argv names files as {tmp}/<name>, and files holds the
    text of each one to write.  A broken invocation may take bad values,
    miss its graph or its files, and name an --out path that cannot be
    written; the others take only values their flags' types allow."""
    command = draw(st.sampled_from(sorted(PARAM_FIELDS)))
    broken = draw(st.booleans())
    argv, files = [command], {}

    def maybe(flag: str, good: list[str], bad: list[str] = []) -> None:
        if draw(st.integers(0, 2)) == 0:
            argv.extend([flag, draw(st.sampled_from(good + bad if broken else good))])

    if command in ("decompose", "sample", "audit", "sparsify"):
        sources = ["file", "n/D", "both", "none", "missing file"] if broken else ["file", "n/D"]
        source = draw(st.sampled_from(sources))
        if source in ("file", "both"):
            files["g.txt"] = draw(edge_lists(broken))
        if source in ("file", "both", "missing file"):
            argv += ["--graph", "{tmp}/g.txt"]
        if source in ("n/D", "both"):
            argv += draw(sizes(broken, 4 if command in ("sample", "audit") else 0))
    if command == "gen":
        argv += draw(sizes(broken))
    if command == "counterexample":
        kind = draw(st.sampled_from(["red_thumb", "clique_minus_clique", "greedy_boys"]))
        argv += [kind, "--D", str(draw(st.integers(-1 if broken else 1, 5)))]
    if command == "cost":
        files["h.json"] = draw(hypergraph_files(broken))
        argv += ["--hypergraph", "{tmp}/h.json"]
    if command in ("gen", "sample", "audit", "sparsify") or "--n" in argv or broken:
        maybe("--seed", ["0", "7"], ["-1"])  # decompose reads it only to draw a graph
    if command in ("gen", "decompose", "sample", "audit", "sparsify"):
        maybe("--out", ["{tmp}/out"], ["{tmp}/missing/out", "{tmp}"])
    if command == "sample":
        maybe("--seeds", ["1", "2"], ["0"])
    if command == "audit":
        argv += ["--trials", draw(st.sampled_from(["1", "3", "12"]))]
        maybe("--sampler", ["pipeline", "random-greedy", "slack-greedy"])
        maybe("--family", ["singletons", "singletons+pairs"])
    if command == "sparsify":
        argv += ["--trials", draw(st.sampled_from(["1", "4"]))]
        maybe("--k-values", ["1", "1,2", "2,5", "3,1"], ["0", "x", "1,,2"])
    if command in ("sample", "audit"):
        maybe("--jobs", ["1"])
    for name in PARAM_FIELDS[command]:
        maybe(f"--{name.replace('_', '-')}", *FLAG_VALUES[_PARAM_TYPES[name]])
    if PARAM_FIELDS[command] and draw(st.integers(0, 2)) == 0:
        files["cfg.json"] = draw(config_files(broken))
        argv += ["--config", "{tmp}/cfg.json"]
    return argv, files


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_exits_0_1_or_2_with_one_message(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [a.replace("{tmp}", tmp) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert not any("Traceback" in line for line in lines), argv
    errors_ = [line for line in lines if "error:" in line]
    failures = [line for line in lines if line.split(":")[0] in ERROR_NAMES]
    if code == 2:
        assert errors_ == lines[-1:], (argv, lines)
        assert re.match(r"(spreadcolor( \w+)?: )?error: ", errors_[0]), lines
        assert len(lines) == 1 or lines[0].startswith("usage: "), lines
    elif code == 1:
        assert len(lines) == 1, (argv, lines)
        assert failures == lines or lines[0].startswith(VERDICTS), (argv, lines)
    else:
        assert errors_ == failures == [], (argv, lines)
