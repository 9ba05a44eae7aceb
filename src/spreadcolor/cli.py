"""Command-line entry point.

Subcommands: gen, decompose, sample, audit, counterexample, sparsify,
cost.  All randomness derives from --seed; per-trial streams are keyed
by trial index, so --jobs (sample and audit, with any sampler) changes
wall time but never output.  Trials stream in order, and audit holds one
coloring at a time (about trials/N with N workers).  Each subcommand
offers a flag for each Params field it reads (PARAM_FIELDS), and those
that read any also take a JSON config file (--config), which may set
every field; explicit flags win.

Exit codes: 0 success, 1 assertion/verification failure, 2 usage error
(a bad value, or a file that cannot be read or written).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .clusters import Pipeline
from .decompose import sparse_dense_decompose
from .errors import SpreadColorError
from .graphs import Graph, gen_random_regular, keyed_rng, read_edge_list, write_edge_list
from .greedy import (
    build_counterexample,
    exact_containment_uniform,
    ordered_greedy_sample,
    random_greedy_exact_probability,
    random_greedy_sample,
)
from .params import Params
from .thresholds import Hypergraph, cost_bruteforce, expense, sparsification_scan

__all__ = ["main"]


# the argparse type of each Params field; `float | None` parses as float
_PARAM_TYPES: dict[str, type] = {
    name: next(t for t in (*typing.get_args(hint), hint) if t is not type(None))
    for name, hint in typing.get_type_hints(Params).items()
}


def count(text: str, low: int = 1) -> int:
    """argparse type of --jobs, --seeds and --trials: an integer >= low = 1."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def nonnegative(text: str) -> int:
    """argparse type of --seed: an integer >= 0."""
    return count(text, 0)


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _add_params(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    """--config and one flag per Params field in `names`."""
    p.add_argument("--config", type=Path, help="JSON file of parameter defaults")
    for name in names:
        p.add_argument(_flag(name), type=_PARAM_TYPES[name], default=None)


def _build_config(args: argparse.Namespace) -> Params:
    """Params from the --config file, a JSON object, with the subcommand's
    flags winning; the file may set any field."""
    base: dict = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
        if not isinstance(base, dict):
            got = json.dumps(base)
            raise ValueError(f"--config {args.config}: expected a JSON object, got {got:.40}")
    for name in _PARAM_TYPES:
        val = getattr(args, name, None)
        if val is not None:
            base[name] = val
    return Params.from_dict(base)


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph is not None:
        for flag, value in (("--n", args.n), ("--D", args.D)):
            if value is not None:
                raise ValueError(f"{flag} {value}: --graph reads its graph from the file; "
                                 "only without --graph do --n and --D draw one")
        return read_edge_list(args.graph.read_text())
    if args.n is not None and args.D is not None:
        return gen_random_regular(args.n, args.D, seed=args.seed)
    raise ValueError("need --graph FILE or both --n and --D")


# --- trials ------------------------------------------------------------------


def _run_trials(
    trial: typing.Callable[[int], tuple[np.ndarray, bool]], ts: list[int], jobs: int
) -> typing.Iterator[tuple[np.ndarray, bool]]:
    """trial(t) for t in ts, in order, each run as it is consumed; trial(t)
    is (colors, flagged?).  With workers = min(jobs, len(ts), CPUs) > 1,
    ts is cut into one chunk per worker, each pickled with trial once and
    run in a worker process, and the results arrive a chunk at a time."""
    workers = min(jobs, len(ts), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(trial, ts)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(trial, ts, chunksize=-(-len(ts) // workers))


def _greedy_trial(sampler: typing.Callable[[np.random.Generator], np.ndarray], seed: int,
                  t: int) -> tuple[np.ndarray, bool]:
    """Audit trial t of a greedy sampler: its keyed stream, never flagged.
    Module level, so a worker process can unpickle it."""
    return sampler(keyed_rng(seed, t)), False


# --- subcommands -------------------------------------------------------------


def _cmd_gen(args) -> int:
    g = gen_random_regular(args.n, args.D, seed=args.seed)
    text = write_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: n={g.n} D={args.D} edges={g.edge_count()}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decompose(args) -> int:
    # --seed only draws the --n/--D graph, so it has no default here
    if args.seed is None:
        args.seed = 0
    elif args.graph:
        raise ValueError(f"--seed {args.seed}: decompose --graph reads no seed, only --n/--D do")
    params = _build_config(args)
    g = _load_graph(args)
    dec = sparse_dense_decompose(g, params.eps, params.theta)
    out = dec.to_json()
    if args.out:
        Path(args.out).write_text(out)
    else:
        print(out)
    print(
        f"sparse={len(dec.sparse)} clusters={len(dec.clusters)} "
        f"eps={dec.eps} theta={dec.theta}",
        file=sys.stderr,
    )
    return 0


def _cmd_sample(args) -> int:
    params = _build_config(args)
    g = _load_graph(args)
    seeds = [args.seed + i for i in range(args.seeds)]
    results = list(_run_trials(Pipeline(g, params).sample_array, seeds, args.jobs))
    records = []
    for s, (arr, flagged) in zip(seeds, results):
        colors = {str(v): int(c) for v, c in enumerate(arr)}
        records.append({"seed": s, "flagged": flagged, "coloring": colors})
    payload = json.dumps({"n": g.n, "palette": g.max_degree + 1, "runs": records})
    if args.out:
        Path(args.out).write_text(payload)
    else:
        print(payload)
    flagged_count = sum(1 for _, f in results if f)
    print(
        f"{len(results)} colorings, {flagged_count} flagged no-spread-guarantee",
        file=sys.stderr,
    )
    return 0


def _make_sampler(name: str, g: Graph) -> typing.Callable[[np.random.Generator], np.ndarray]:
    """The greedy sampler `name` (an --sampler choice) on g; slack-greedy,
    every list the palette 1..D+1, is the greedy in ascending vertex order."""
    if name == "random-greedy":
        return partial(random_greedy_sample, g)
    return partial(ordered_greedy_sample, g, np.arange(g.n))


def _cmd_audit(args) -> int:
    if args.sampler != "pipeline":
        # the greedy samplers never build a Pipeline
        for name in PIPELINE_FIELDS:
            value = getattr(args, name)
            if value is not None:
                raise ValueError(
                    f"{_flag(name)} {value}: --sampler {args.sampler} does not run the "
                    f"pipeline; only --sampler pipeline takes {_flag(name)}"
                )
    params = _build_config(args)
    g = _load_graph(args)
    palette = g.max_degree + 1
    sets = audit_mod.audit_set_family(g.n, palette, args.seed, args.family)
    ts = list(range(args.trials))
    if args.sampler == "pipeline":
        # built before any worker starts, so a graph the pipeline cannot
        # take fails the same way whatever --jobs is
        trial = Pipeline(g, params).sample_array
        ts = [int(np.random.SeedSequence((args.seed, t)).generate_state(1)[0]) for t in ts]
    else:
        trial = partial(_greedy_trial, _make_sampler(args.sampler, g), args.seed)
    results = _run_trials(trial, ts, args.jobs)
    rep = audit_mod.spread_report_from_samples(
        (None if flagged else colors for colors, flagged in results), g.n, palette, sets
    )
    if args.out:
        Path(args.out).write_text(rep.to_csv())
    print(rep.to_json())
    ceiling = params.c_hat_ceiling
    if rep.c_hat > ceiling:
        print(f"C_hat {rep.c_hat:.2f} exceeds ceiling {ceiling}", file=sys.stderr)
        return 1
    return 0


def _cmd_counterexample(args) -> int:
    if args.kind == "greedy_boys" and args.enum_cap is not None:
        raise ValueError(f"--enum-cap {args.enum_cap}: greedy_boys runs no capped enumeration")
    params = _build_config(args)
    ce = build_counterexample(args.kind, args.D)
    if args.kind == "greedy_boys":
        # the (2D)^-D reference value holds at D = 2 but not at every D;
        # this subcommand reports exact numbers and does not assert it
        p = random_greedy_exact_probability(ce.graph, ce.target)
        bound = Fraction(1, (2 * args.D) ** args.D)
        print(f"P(random greedy output = target) = {p} (>= {bound}: {p >= bound})")
        return 0
    p = exact_containment_uniform(ce.graph, ce.lists, ce.target, cap=params.enum_cap)
    print(f"P(uniform coloring ⊇ target) = {p}")
    print(f"expected exact value       = {ce.expected}")
    return 0 if p == ce.expected else 1


def _cmd_sparsify(args) -> int:
    params = _build_config(args)
    g = _load_graph(args)
    k_values = [int(k) for k in args.k_values.split(",")]
    curve = sparsification_scan(
        g, k_values, trials=args.trials, seed=args.seed, cap=params.color_cap
    )
    text = curve.to_csv()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not curve.nondecreasing_within_ci():
        print("warning: curve not nondecreasing within CI", file=sys.stderr)
        return 1
    return 0


def _cmd_cost(args) -> int:
    hg, q = Hypergraph.from_json(Path(args.hypergraph).read_text())
    e = expense(hg, q)
    value, witness = cost_bruteforce(hg, q)
    print(f"expense = {e}")
    print(f"cost    = {value}")
    print(f"witness = {[sorted(map(str, b)) for b in witness]}")
    return 0


JOBS_HELP = "worker processes that run trials in parallel (default 1)"

# the Params fields a Pipeline reads: all but the caps and the audit ceiling
PIPELINE_FIELDS = tuple(
    name for name in _PARAM_TYPES if name not in ("enum_cap", "color_cap", "c_hat_ceiling")
)

# The Params fields each subcommand reads, which are the flags it offers;
# a subcommand that reads any also takes --config.
PARAM_FIELDS: dict[str, tuple[str, ...]] = {
    "gen": (),
    "decompose": ("eps", "theta"),
    "sample": PIPELINE_FIELDS,
    "audit": (*PIPELINE_FIELDS, "c_hat_ceiling"),
    "counterexample": ("enum_cap",),
    "sparsify": ("color_cap",),
    "cost": (),
}


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", type=Path)
    p.add_argument("--n", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--seed", type=nonnegative, default=0, help="master seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spreadcolor",
        description="Spread (D+1)-colorings: pipeline, audits, counterexamples.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="random D-regular graph to an edge-list file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--seed", type=nonnegative, default=0, help="master seed (default 0)")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decompose", help="sparse-dense decomposition as JSON")
    _add_graph_source(p)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_decompose, seed=None)

    p = sub.add_parser("sample", help="pipeline colorings for N seeds")
    _add_graph_source(p)
    p.add_argument("--seeds", type=count, default=1)
    p.add_argument("--out", type=Path)
    p.add_argument("--jobs", type=count, default=1, help=JOBS_HELP)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("audit", help="SpreadReport for a named sampler")
    p.add_argument("--sampler", choices=["pipeline", "random-greedy", "slack-greedy"],
                   default="pipeline")
    _add_graph_source(p)
    p.add_argument("--trials", type=count, default=2000)
    p.add_argument("--family", default="singletons+pairs",
                   choices=["singletons", "singletons+pairs"])
    p.add_argument("--out", type=Path, help="CSV output path")
    p.add_argument("--jobs", type=count, default=1, help=JOBS_HELP)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("counterexample", help="exact counterexample numbers")
    p.add_argument("kind", choices=["red_thumb", "clique_minus_clique", "greedy_boys"])
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("sparsify", help="palette sparsification curve")
    _add_graph_source(p)
    p.add_argument("--k-values", default="2,4,6,8,10,12,14,16,18,20,21")
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("cost", help="expense and cost of a hypergraph file")
    p.add_argument("--hypergraph", type=Path, required=True)
    p.set_defaults(func=_cmd_cost)

    for name, names in PARAM_FIELDS.items():
        if names:
            _add_params(sub.choices[name], names)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return exc.code
    except SpreadColorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad values, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
