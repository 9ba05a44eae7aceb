"""The benchmark's four workloads.

Each makes its input from a seed (untimed), runs a closed loop with one
caller through the package's public API, and checks every output against
the benchmark's own copy of the input edges.  A round is the unit the loop
stops on: one sample, one audit of AUDIT_TRIALS trials, or one sweep of
sparsification decisions over K_VALUES.
"""
from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spreadcolor import Graph, Params, Pipeline, audit, gen_random_regular, thresholds
from spreadcolor.errors import SpreadColorError
from spreadcolor.thresholds import CurveRow, SparsificationCurve

K_VALUES = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 21)
K_TARGET = 20          # 4 * ceil(ln 100), the acceptance-09 threshold
AUDIT_TRIALS = 1000

_MATCHING_TAG = 0xB1
_SHUFFLE_TAG = 0xB2


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag))))


def _no_span(name: str):
    return nullcontext()


@dataclass
class Input:
    seed: int
    n: int
    edges: np.ndarray          # (m, 2) int64: the benchmark's copy, for checks
    graph: Graph
    params: Params
    d: int                     # max degree, from `edges`


def _input(seed: int, n: int, edges, params: Params) -> Input:
    edges = sorted(edges)
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    d = int(np.bincount(arr.ravel(), minlength=n).max())
    return Input(seed, n, arr, Graph.from_edges(n, edges), params, d)


def check_coloring(colors: np.ndarray, inp: Input) -> str | None:
    """None if colors is a proper coloring of every input vertex within the
    palette 1..D+1, else what is wrong."""
    if colors.shape != (inp.n,):
        return f"coloring has shape {colors.shape}, expected ({inp.n},)"
    if colors.min() < 1 or colors.max() > inp.d + 1:
        return f"colors span {colors.min()}..{colors.max()}, palette is 1..{inp.d + 1}"
    u, v = inp.edges[:, 0], inp.edges[:, 1]
    clash = np.flatnonzero(colors[u] == colors[v])
    if clash.size:
        return f"edge {tuple(inp.edges[clash[0]].tolist())} has both ends colored {colors[u[clash[0]]]}"
    return None


def as_array(coloring: dict[int, int], n: int) -> np.ndarray | str:
    if len(coloring) != n:
        return f"coloring has {len(coloring)} vertices, expected {n}"
    try:
        return np.fromiter((coloring[v] for v in range(n)), dtype=np.int64, count=n)
    except KeyError as exc:
        return f"vertex {exc} uncolored"


@dataclass
class Run:
    """What one pass of a workload measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # one per operation
    busy_s: float = 0.0        # wall time the throughput is taken over
    attempted: int = 0
    failed: int = 0            # SpreadColorError raised, or decision indeterminate
    flagged: int = 0
    rounds: int = 0
    errors: list[str] = field(default_factory=list)  # failed output checks
    facts: dict = field(default_factory=dict)
    head_digest: str = ""      # outputs of the first `digest_rounds` rounds
    _hash: "hashlib._Hash" = field(default_factory=hashlib.sha256, repr=False)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    def output(self, payload: bytes) -> None:
        self._hash.update(payload)

    def end_round(self, digest_rounds: int) -> None:
        self.rounds += 1
        if self.rounds == digest_rounds:
            self.head_digest = self.digest

    def error(self, msg: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(msg)


def _more(run: Run, start: float, seconds: float, max_rounds: int | None, min_rounds: int) -> bool:
    if max_rounds is not None:
        return run.rounds < max_rounds
    return run.rounds < min_rounds or perf_counter() - start < seconds


class Workload:
    """A named workload: `make_input(seed)` builds its Input untimed, and
    `run(inp, seconds, max_rounds=None, setup_reps=None, span=...)` returns a
    Run.  With max_rounds the loop does exactly that many rounds; otherwise
    at least `digest_rounds`, then until `seconds` have passed.  `span(name)`
    is opened around each set-up ("setup") and each operation ("op")."""

    name: str
    op: str                    # what one operation is, plural
    digest_rounds: int
    setup_reps: int = 3


# -- pipeline samples ------------------------------------------------------------


class Sampling(Workload):
    """Pipeline(g, params) set up several times, then pipe.sample(seed + i)
    for i = 0, 1, ... as `spreadcolor sample` does."""

    op = "samples"
    digest_rounds = 10

    def run(self, inp, seconds, max_rounds=None, setup_reps=None, span=_no_span):
        run = Run()
        for _ in range(setup_reps or self.setup_reps):
            with span("setup"):
                t0 = perf_counter()
                pipe = Pipeline(inp.graph, inp.params)
                run.setup_s.append(perf_counter() - t0)
        run.facts["colored_vertices"] = pipe.reg.n
        start = perf_counter()
        while _more(run, start, seconds, max_rounds, self.digest_rounds):
            with span("op"):
                t0 = perf_counter()
                try:
                    res = pipe.sample(inp.seed + run.rounds)
                except SpreadColorError as exc:
                    res = exc
                run.op_s.append(perf_counter() - t0)
            run.attempted += 1
            if isinstance(res, SpreadColorError):
                run.failed += 1
                run.output(type(res).__name__.encode())
            else:
                run.flagged += res.flagged
                colors = as_array(res.coloring, inp.n)
                bad = colors if isinstance(colors, str) else check_coloring(colors, inp)
                if bad:
                    run.error(f"seed {res.seed}: {bad}")
                else:
                    run.output(colors.tobytes())
            run.end_round(self.digest_rounds)
        run.busy_s = sum(run.op_s)
        return run


class IrregularSparse(Sampling):
    """gen_random_regular(100, 40) minus a seeded matching of 20 edges:
    regularize builds 42 copies, 4,200 vertices, all sparse."""

    name = "irregular-sparse"

    def make_input(self, seed):
        g0 = gen_random_regular(100, 40, seed)
        edges = list(g0.edges())
        dropped, used = set(), set()
        for i in _rng(seed, _MATCHING_TAG).permutation(len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                dropped.add((u, v))
                used |= {u, v}
                if len(dropped) == 20:
                    break
        return _input(seed, 100, set(edges) - dropped, Params())


def clustered_edges(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A 40-regular graph on 2,080 vertices with ids shuffled by the seed:
    10 pairs of K41 with 3 edge swaps across each pair (small-zeta clusters
    whose color lists the cross edges cut), 20 copies of K43 minus a Hamilton
    cycle (large-zeta clusters), and a random 40-regular graph on 400
    vertices (the sparse part)."""
    edges: list[tuple[int, int]] = []

    def clique(base: int, k: int, drop=frozenset()) -> set[tuple[int, int]]:
        return {(base + i, base + j) for i in range(k) for j in range(i + 1, k)
                if (i, j) not in drop}

    base = 0
    for _ in range(10):
        a, b = base, base + 41
        swapped = {(2 * s, 2 * s + 1) for s in range(3)}
        edges += clique(a, 41, swapped) | clique(b, 41, swapped)
        edges += [(a + x, b + x) for s in swapped for x in s]
        base += 82
    cycle = {(i, i + 1) for i in range(42)} | {(0, 42)}
    for _ in range(20):
        edges += clique(base, 43, cycle)
        base += 43
    edges += [(base + u, base + v) for u, v in gen_random_regular(400, 40, seed).edges()]
    n = base + 400
    perm = _rng(seed, _SHUFFLE_TAG).permutation(n).tolist()
    return n, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]


class Clustered(Sampling):
    """clustered_edges(seed) at Params(theta=0.05), the calibrated theta of the
    cluster tests: 40 clusters, 20 on each branch."""

    name = "clustered"

    def make_input(self, seed):
        n, edges = clustered_edges(seed)
        return _input(seed, n, edges, Params(theta=0.05))


# -- spread audit ------------------------------------------------------------------


class AuditSmall(Workload):
    """The calls of `spreadcolor audit --sampler pipeline --jobs 1` on
    gen_random_regular(100, 16): set family, Pipeline, one sample per keyed
    trial seed, aggregation.  Audit r of a run uses master seed seed + r."""

    name = "audit-small"
    op = "trials"
    digest_rounds = 1

    def make_input(self, seed):
        return _input(seed, 100, gen_random_regular(100, 16, seed).edges(), Params())

    def run(self, inp, seconds, max_rounds=None, setup_reps=None, span=_no_span):
        run = Run()
        palette = inp.d + 1
        ceiling = inp.params.c_hat_ceiling
        start = perf_counter()
        while _more(run, start, seconds, max_rounds, self.digest_rounds):
            audit_seed = inp.seed + run.rounds
            with span("setup"):
                t0 = perf_counter()
                sets = audit.audit_set_family(inp.n, palette, audit_seed, "singletons+pairs")
                pipe = Pipeline(inp.graph, inp.params)
                t1 = perf_counter()
            run.setup_s.append(t1 - t0)
            seeds = [int(np.random.SeedSequence((audit_seed, t)).generate_state(1)[0])
                     for t in range(AUDIT_TRIALS)]
            busy = perf_counter() - t0
            kept, flagged = [], 0
            for s in seeds:
                with span("op"):
                    t2 = perf_counter()
                    try:
                        res = pipe.sample_array(s)
                    except SpreadColorError as exc:
                        res = exc
                    dt = perf_counter() - t2
                busy += dt
                run.op_s.append(dt)
                run.attempted += 1
                if isinstance(res, SpreadColorError):
                    run.failed += 1
                    run.output(type(res).__name__.encode())
                    continue
                arr, is_flagged = res
                bad = check_coloring(arr, inp)
                if bad:
                    run.error(f"audit seed {audit_seed}, trial seed {s}: {bad}")
                    continue
                run.output(arr.tobytes())
                flagged += is_flagged
                if not is_flagged:
                    kept.append(arr)
            t3 = perf_counter()
            rep = audit.spread_report_from_samples(kept, inp.n, palette, sets, flagged_trials=flagged)
            run.busy_s += busy + perf_counter() - t3
            run.flagged += flagged
            if rep.trials == 0:
                run.error(f"audit seed {audit_seed}: every trial flagged, nothing audited")
            elif not rep.c_hat <= ceiling:
                run.error(f"audit seed {audit_seed}: C_hat {rep.c_hat:.3f} exceeds {ceiling}")
            if run.rounds == 0:
                run.facts["c_hat"] = rep.c_hat
            run.facts["colored_vertices"] = pipe.reg.n
            run.end_round(self.digest_rounds)
        return run


# -- palette sparsification --------------------------------------------------------


class Sparsify(Workload):
    """sparsification_scan on gen_random_regular(100, 20), one decision per
    call: round r calls it once for each k in K_VALUES with trials=1 and seed
    seed + r.  The timed set-up builds the Graph again from the edge list."""

    name = "sparsify"
    op = "decisions"
    digest_rounds = 10
    setup_reps = 25

    def make_input(self, seed):
        return _input(seed, 100, gen_random_regular(100, 20, seed).edges(), Params())

    def run(self, inp, seconds, max_rounds=None, setup_reps=None, span=_no_span):
        run = Run()
        edge_list = [tuple(e) for e in inp.edges.tolist()]
        for _ in range(setup_reps or self.setup_reps):
            with span("setup"):
                t0 = perf_counter()
                g = Graph.from_edges(inp.n, edge_list)
                run.setup_s.append(perf_counter() - t0)
        tally = {k: [0, 0, 0] for k in K_VALUES}  # trials, successes, indeterminate
        start = perf_counter()
        while _more(run, start, seconds, max_rounds, self.digest_rounds):
            for k in K_VALUES:
                with span("op"):
                    t0 = perf_counter()
                    curve = thresholds.sparsification_scan(g, [k], trials=1, seed=inp.seed + run.rounds)
                    run.op_s.append(perf_counter() - t0)
                row = curve.rows[0]
                tally[k][0] += 1
                tally[k][1] += row.successes
                tally[k][2] += row.indeterminate
                run.attempted += 1
                run.failed += row.indeterminate
                run.output(bytes([row.successes, row.indeterminate]))
            run.end_round(self.digest_rounds)
        run.busy_s = sum(run.op_s)

        rows = []
        for k, (trials, ok, indet) in tally.items():
            lo, hi = audit.wilson_interval(ok, trials)
            rows.append(CurveRow(k, trials, ok, indet, ok / trials, lo, hi))
        pooled = SparsificationCurve(rows)
        rates = {r.k: r.rate for r in rows}
        if not pooled.nondecreasing_within_ci():
            run.error(f"colorability rate not nondecreasing within CI: {rates}")
        if rates[K_TARGET] < 0.95:
            run.error(f"rate at k={K_TARGET} is {rates[K_TARGET]:.3f} < 0.95")
        if rates[inp.d + 1] != 1.0:
            run.error(f"full lists (k=D+1) not always colorable: rate {rates[inp.d + 1]:.3f}")
        return run


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (IrregularSparse(), Clustered(), AuditSmall(), Sparsify())
}
