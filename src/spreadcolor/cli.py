"""Command-line entry point.

Subcommands: gen, decompose, sample, audit, counterexample, sparsify,
cost.  All randomness derives from --seed; per-trial streams are keyed
by trial index, so --jobs changes wall time but never output.  A JSON
config file (--config) supplies parameter defaults; explicit flags win.

Exit codes: 0 success, 1 assertion/verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .clusters import Pipeline
from .decompose import sparse_dense_decompose
from .errors import SpreadColorError
from .graphs import Graph, gen_random_regular, read_edge_list, write_edge_list
from .greedy import (
    build_counterexample,
    exact_containment_uniform,
    random_greedy_exact_probability,
    random_greedy_sample,
    slack_greedy_sample,
    uniform_lists,
)
from .params import Params
from .thresholds import Hypergraph, cost_bruteforce, expense, sparsification_scan

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    seed: int
    jobs: int
    params: Params


_PARAM_FLAGS = [
    ("eps", float),
    ("theta", float),
    ("theta_prime", float),
    ("t_window", float),
    ("accept_target", float),
    ("max_tries", int),
    ("k_out", int),
    ("zeta0", float),
    ("eta", float),
    ("h_margin", float),
    ("d_min", int),
]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.add_argument("--config", type=Path, help="JSON file of parameter defaults")
    for name, typ in _PARAM_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None)


def _build_config(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if getattr(args, "config", None):
        base.update(json.loads(Path(args.config).read_text()))
    for name, _ in _PARAM_FLAGS:
        val = getattr(args, name, None)
        if val is not None:
            base[name] = val
    return RunConfig(seed=args.seed, jobs=args.jobs, params=Params.from_dict(base))


def _load_graph(args: argparse.Namespace, cfg: RunConfig) -> Graph:
    if getattr(args, "graph", None):
        return read_edge_list(Path(args.graph).read_text())
    if getattr(args, "n", None) and getattr(args, "D", None):
        return gen_random_regular(args.n, args.D, seed=cfg.seed)
    raise SystemExit2("need --graph FILE or both --n and --D")


class SystemExit2(SystemExit):
    def __init__(self, msg: str):
        print(f"error: {msg}", file=sys.stderr)
        super().__init__(2)


# --- worker functions (module level so ProcessPoolExecutor can pickle them) --


_WORKER_PIPE: Pipeline | None = None


def _init_pipeline_worker(graph_json: str, params_dict: dict) -> None:
    global _WORKER_PIPE
    _WORKER_PIPE = Pipeline(Graph.from_json(graph_json), Params.from_dict(params_dict))


def _pipeline_trial(seed: int) -> tuple[list[int], bool]:
    assert _WORKER_PIPE is not None
    arr, flagged = _WORKER_PIPE.sample_array(seed)
    return arr.tolist(), flagged


def _run_pipeline_trials(
    g: Graph, params: Params, seeds: list[int], jobs: int
) -> list[tuple[np.ndarray, bool]]:
    if jobs <= 1:
        pipe = Pipeline(g, params)
        return [pipe.sample_array(s) for s in seeds]
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_pipeline_worker,
        initargs=(g.to_json(), params.to_dict()),
    ) as pool:
        out = list(pool.map(_pipeline_trial, seeds))
    return [(np.asarray(colors), flagged) for colors, flagged in out]


# --- subcommands -------------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = _build_config(args)
    g = gen_random_regular(args.n, args.D, seed=cfg.seed)
    text = write_edge_list(g)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: n={g.n} D={args.D} edges={g.edge_count()}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decompose(args) -> int:
    cfg = _build_config(args)
    g = _load_graph(args, cfg)
    dec = sparse_dense_decompose(g, cfg.params.eps, cfg.params.theta)
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
    cfg = _build_config(args)
    g = _load_graph(args, cfg)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    results = _run_pipeline_trials(g, cfg.params, seeds, cfg.jobs)
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


def _make_sampler(name: str, g: Graph):
    palette = g.max_degree + 1
    if name == "random-greedy":
        def sample(rng: np.random.Generator) -> np.ndarray:
            sigma = random_greedy_sample(g, rng)
            return np.array([sigma[v] for v in range(g.n)])

        return sample
    if name == "slack-greedy":
        lists = uniform_lists(g, palette)

        def sample(rng: np.random.Generator) -> np.ndarray:
            sigma = slack_greedy_sample(g, lists, rng=rng)
            return np.array([sigma[v] for v in range(g.n)])

        return sample
    raise SystemExit2(f"unknown sampler {name!r}")


def _cmd_audit(args) -> int:
    cfg = _build_config(args)
    g = _load_graph(args, cfg)
    palette = g.max_degree + 1
    sets = audit_mod.audit_set_family(g.n, palette, cfg.seed, args.family)
    if args.sampler == "pipeline":
        trial_seeds = [
            int(np.random.SeedSequence((cfg.seed, t)).generate_state(1)[0])
            for t in range(args.trials)
        ]
        results = _run_pipeline_trials(g, cfg.params, trial_seeds, cfg.jobs)
        samples = [arr for arr, is_flagged in results if not is_flagged]
        flagged = sum(1 for _, is_flagged in results if is_flagged)
        rep = audit_mod.spread_report_from_samples(
            samples, g.n, palette, sets, flagged_trials=flagged
        )
    else:
        sampler = _make_sampler(args.sampler, g)
        rep = audit_mod.spread_report(
            sampler, g.n, palette, args.trials, cfg.seed, family=args.family
        )
    if args.out:
        Path(args.out).write_text(rep.to_csv())
    print(rep.to_json())
    ceiling = cfg.params.c_hat_ceiling
    if rep.c_hat > ceiling:
        print(f"C_hat {rep.c_hat:.2f} exceeds ceiling {ceiling}", file=sys.stderr)
        return 1
    return 0


def _cmd_counterexample(args) -> int:
    cfg = _build_config(args)
    ce = build_counterexample(args.kind, args.D)
    if args.kind == "greedy_boys":
        # the (2D)^-D reference value holds at D = 2 but not at every D;
        # this subcommand reports exact numbers and does not assert it
        p = random_greedy_exact_probability(ce.graph, ce.target)
        bound = Fraction(1, (2 * args.D) ** args.D)
        print(f"P(random greedy output = target) = {p} (>= {bound}: {p >= bound})")
        return 0
    p = exact_containment_uniform(ce.graph, ce.lists, ce.target, cap=cfg.params.enum_cap)
    print(f"P(uniform coloring ⊇ target) = {p}")
    if ce.expected is not None:
        print(f"expected exact value       = {ce.expected}")
        return 0 if p == ce.expected else 1
    return 0


def _cmd_sparsify(args) -> int:
    cfg = _build_config(args)
    g = _load_graph(args, cfg)
    k_values = [int(k) for k in args.k_values.split(",")]
    curve = sparsification_scan(
        g, k_values, trials=args.trials, seed=cfg.seed, cap=cfg.params.color_cap
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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spreadcolor",
        description="Spread (D+1)-colorings: pipeline, audits, counterexamples.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="random D-regular graph to an edge-list file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--out", type=Path)
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decompose", help="sparse-dense decomposition as JSON")
    p.add_argument("--graph", type=Path)
    p.add_argument("--n", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--out", type=Path)
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("sample", help="pipeline colorings for N seeds")
    p.add_argument("--graph", type=Path)
    p.add_argument("--n", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", type=Path)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("audit", help="SpreadReport for a named sampler")
    p.add_argument("--sampler", choices=["pipeline", "random-greedy", "slack-greedy"],
                   default="pipeline")
    p.add_argument("--graph", type=Path)
    p.add_argument("--n", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--family", default="singletons+pairs",
                   choices=["singletons", "singletons+pairs"])
    p.add_argument("--out", type=Path, help="CSV output path")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("counterexample", help="exact counterexample numbers")
    p.add_argument("kind", choices=["red_thumb", "clique_minus_clique", "greedy_boys"])
    p.add_argument("--D", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("sparsify", help="palette sparsification curve")
    p.add_argument("--graph", type=Path)
    p.add_argument("--n", type=int)
    p.add_argument("--D", type=int)
    p.add_argument("--k-values", default="2,4,6,8,10,12,14,16,18,20,21")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", type=Path)
    _add_common(p)
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("cost", help="expense and cost of a hypergraph file")
    p.add_argument("--hypergraph", type=Path, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_cost)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and SystemExit2
        code = exc.code
        return code if isinstance(code, int) else 2
    except SpreadColorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
