"""Set-up at scale: `Pipeline(g)` on large irregular inputs.

Not a pytest module (the name does not match test_*.py), so tier-1 does
not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/scale_setup.py [--n 5000 20000] [--rows 200]

Each input is gen_random_regular(n, 20) minus every 50th edge, so
regularize builds D+2 = 22 copies (110,000 vertices at n = 5,000 and
440,000 at n = 20,000).  For each n the script times `Pipeline(g)` on a
fresh graph, then recounts a seeded sample of rows of the sparsity
statistic of the regularized graph with `count_complement_edges` (the
blocked common-neighbor count, which reads no cache) and compares them
with the array that regularize cached.  It then runs the sparse phase
in full (`sparse_phase_color` without `stop`), which also builds the
graph's lazy caches, times one `Pipeline.sample` on the same seed, which
colors only the input's prefix, and compares that coloring with the
prefix of the full run; the inputs have no cluster, so the two must be
equal.  It exits 1 on either mismatch, or when a set-up takes more than
the 20 s budget of ROADMAP item 4.  Each line also gives the process's
peak resident set size after the set-up (ru_maxrss), so run one n per
process to read one input's set-up peak.
"""
from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

from spreadcolor.clusters import Pipeline
from spreadcolor.graphs import Graph, count_complement_edges, gen_random_regular
from spreadcolor.sparse_phase import sparse_phase_color

BUDGET_S = 20.0


def scale_input(n: int) -> Graph:
    """gen_random_regular(n, 20) minus every 50th edge."""
    base = gen_random_regular(n, 20, seed=n)
    return Graph.from_edges(n, [e for i, e in enumerate(base.edges()) if i % 50])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[5000, 20000])
    ap.add_argument("--rows", type=int, default=200, help="statistic rows recounted per input")
    args = ap.parse_args(argv)
    ok = True
    for n in args.n:
        g = scale_input(n)
        t0 = time.perf_counter()
        pipe = Pipeline(g)
        setup_s = time.perf_counter() - t0
        reg = pipe.reg
        stat = reg._complement_edges
        rows = np.sort(np.random.default_rng(n).choice(reg.n, min(args.rows, reg.n), replace=False))
        same = stat is not None and np.array_equal(stat[rows], count_complement_edges(reg, rows))
        in_budget = setup_s <= BUDGET_S
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        # the full run goes first and builds the graph's lazy caches
        full = sparse_phase_color(reg, pipe.dec, n, pipe.params).colors[:n]
        t0 = time.perf_counter()
        coloring = pipe.sample(n).coloring
        sample_s = time.perf_counter() - t0
        prefix = np.array_equal(coloring, full)
        ok &= same and in_budget and prefix
        print(
            f"n={n}: {reg.n} vertices regularized, Pipeline(g) {setup_s:.2f} s"
            f"{'' if in_budget else f' OVER the {BUDGET_S:.0f} s budget'}, "
            f"peak RSS {peak_mb:.0f} MB, "
            f"{len(pipe.dec.sparse)} sparse, {len(pipe.dec.clusters)} clusters, "
            f"{len(rows)} statistic rows {'match' if same else 'MISMATCH'}, "
            f"one sample {sample_s:.3f} s, "
            f"{'equal to' if prefix else 'MISMATCH with'} the full-run prefix"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
