"""Outside-in tracing: timing wrappers swapped onto the package's public
functions, spans kept in memory, and the per-layer metrics derived from them.

Nothing inside the package is instrumented.  `Tracer.installed()` replaces
each target below, in the namespace of the module (or on the class) that
calls it, and puts the original objects back when the block exits, even on
error.  A span is (name, start, end, parent); its self time is its duration
minus the part of it that child spans cover.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from spreadcolor import audit, clusters, decompose, matching, sparse_phase, thresholds
from spreadcolor.clusters import Pipeline
from spreadcolor.errors import (
    EmptyChoiceSet,
    HypothesisViolated,
    MaxTriesExceeded,
    VerificationFailed,
)
from spreadcolor.graphs import Graph

# the exception classes Pipeline.sample turns into a greedy cluster fallback
FALLBACK_ERRORS = (HypothesisViolated, EmptyChoiceSet, MaxTriesExceeded, VerificationFailed)

# span names the benchmark itself opens around each set-up and each operation
SETUP, OP = "setup", "op"
HOOK = "trace.hook"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    root: int           # index of the outermost enclosing span (itself if none)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    out = []
    for s, ks in zip(spans, kids):
        covered, reach = 0.0, s.start
        for c in sorted(ks, key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.fallbacks: list[str] = []  # "Class: message" of each caught fallback
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else idx
        self.spans.append(Span(name, perf_counter(), float("nan"), parent, root))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                # bookkeeping gets its own span so no layer's self time pays for it
                with self.span(HOOK):
                    on_result(self, args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its timing wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, on_result, on_error in targets():
                orig = owner.__dict__[attr]
                name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
                if isinstance(orig, property):
                    new = property(self.wrap(orig.fget, name, on_result, on_error))
                else:
                    new = self.wrap(orig, name, on_result, on_error)
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


# -- what is wrapped, and what the wrappers count ------------------------------


def _decomposition(t: Tracer, args, dec) -> None:
    t.counts["dense_vertices"] += args[0].n - len(dec.sparse)
    t.counts["clusters"] += len(dec.clusters)


def _leftovers(t: Tracer, args, res) -> None:
    t.counts["leftovers"] += len(args[1].sparse - res.t_set)


def _branch(t: Tracer, args, out) -> None:
    t.counts[f"branch.{out[1]}"] += 1


def _fallback(t: Tracer, exc: Exception) -> None:
    if isinstance(exc, FALLBACK_ERRORS):
        t.counts["fallback"] += 1
        t.fallbacks.append(f"{type(exc).__name__}: {exc}")


def _pair_rounds(t: Tracer, args, pi) -> None:
    t.counts["pair_rounds"] += len(set(pi.values()))


def _x_branch(t: Tracer, args, m) -> None:
    if m.meta.get("branch") == "greedy+dense":
        t.counts["greedy_dense"] += 1


def _dense_ok(t: Tracer, args, m) -> None:
    t.counts["dense_ok"] += 1


def _indeterminate(t: Tracer, args, curve) -> None:
    t.counts["indeterminate"] += sum(r.indeterminate for r in curve.rows)


def targets():
    """(owner, attribute, on_result, on_error); the owner is the module whose
    code makes the call, or the class for methods and properties."""
    return [
        (clusters, "regularize", None, None),
        (clusters, "sparse_dense_decompose", _decomposition, None),
        (decompose, "neighborhood_complement_edges", None, None),
        (decompose, "verify_decomposition", None, None),
        (Graph, "components", None, None),
        (Graph, "max_degree", None, None),
        (clusters, "sparse_phase_color", _leftovers, None),
        (sparse_phase, "sample_conditioned_labeling", None, None),
        (sparse_phase, "tranquil_mask", None, None),
        (Pipeline, "sample", None, None),
        (Pipeline, "sample_array", None, None),
        (clusters, "build_cluster_context", None, _fallback),
        (clusters, "color_cluster", _branch, _fallback),
        (clusters, "process_pair_coloring", _pair_rounds, None),
        (clusters, "spread_X_perfect_matching", _x_branch, None),
        (matching, "spread_matching_dense", _dense_ok, None),
        (matching, "kout_subgraph", None, None),
        (matching, "perfect_matching", None, None),
        (audit, "audit_set_family", None, None),
        (audit, "spread_report_from_samples", None, None),
        (thresholds, "sparsification_scan", _indeterminate, None),
        (thresholds, "decide_list_colorable", None, None),
    ]


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced run: `_ms` is self time per
    operation, `_s` self time per set-up, `_calls` calls per operation.
    A layer the workload never reaches reads 0."""
    spans = tracer.spans
    own = self_times(spans)
    self_by = defaultdict(float)   # (root name, span name) -> summed self time
    calls_by = Counter()           # (root name, span name) -> calls
    under = defaultdict(list)      # (parent name, span name) -> span indices
    for i, s in enumerate(spans):
        key = (spans[s.root].name, s.name)
        self_by[key] += own[i]
        calls_by[key] += 1
        if s.parent is not None:
            under[(spans[s.parent].name, s.name)].append(i)
    n_ops = calls_by[(OP, OP)]
    n_setups = calls_by[(SETUP, SETUP)]
    cnt = tracer.counts

    def per(x, n):
        return x / n if n else 0.0

    def op_ms(name):
        return per(self_by[(OP, name)] * 1e3, n_ops)

    def op_calls(name):
        return per(calls_by[(OP, name)], n_ops)

    def setup_s(name):
        return per(self_by[(SETUP, name)], n_setups)

    scl = "sample_conditioned_labeling"
    attempts = Counter(spans[i].parent for i in under[(scl, "tranquil_mask")])
    n_scl = calls_by[(OP, scl)]
    n_kout = calls_by[(OP, "kout_subgraph")]
    aggregate_s = sum(own[i] for i, s in enumerate(spans) if s.name == "spread_report_from_samples")
    return {
        "graphs.regularize_s": setup_s("regularize"),
        "graphs.components_calls": op_calls("Graph.components"),
        "graphs.components_ms": op_ms("Graph.components"),
        "graphs.max_degree_calls": op_calls("Graph.max_degree"),
        "graphs.max_degree_ms": op_ms("Graph.max_degree"),
        "decompose.sparsity_test_s": per(
            sum(own[i] for i in under[("sparse_dense_decompose", "neighborhood_complement_edges")]),
            n_setups,
        ),
        "decompose.friend_graph_s": setup_s("sparse_dense_decompose"),
        "decompose.verify_s": per(
            sum(spans[i].end - spans[i].start for i in under[("sparse_dense_decompose", "verify_decomposition")]),
            n_setups,
        ),
        "decompose.dense_vertices": per(cnt["dense_vertices"], n_setups),
        "decompose.clusters": per(cnt["clusters"], n_setups),
        "sparse_phase.rejection_ms": op_ms(scl),
        "sparse_phase.tranquil_ms": op_ms("tranquil_mask"),
        "sparse_phase.attempts_mean": per(sum(attempts.values()), n_scl),
        "sparse_phase.attempts_max": float(max(attempts.values(), default=0)),
        "sparse_phase.accept_ratio": per(n_scl, sum(attempts.values())),
        "sparse_phase.greedy_ms": op_ms("sparse_phase_color"),
        "sparse_phase.leftovers": per(cnt["leftovers"], calls_by[(OP, "sparse_phase_color")]),
        "clusters.pipeline_ms": op_ms("Pipeline.sample"),
        "clusters.context_ms": op_ms("build_cluster_context"),
        "clusters.color_ms": op_ms("color_cluster"),
        "clusters.pair_process_ms": op_ms("process_pair_coloring"),
        "clusters.pair_rounds": per(cnt["pair_rounds"], calls_by[(OP, "process_pair_coloring")]),
        "clusters.small": per(cnt["branch.small"], n_ops),
        "clusters.large": per(cnt["branch.large"], n_ops),
        "clusters.fallback": per(cnt["fallback"], n_ops),
        "matching.x_perfect_ms": op_ms("spread_X_perfect_matching"),
        "matching.dense_ms": op_ms("spread_matching_dense"),
        "matching.kout_ms": op_ms("kout_subgraph"),
        "matching.kout_calls": op_calls("kout_subgraph"),
        "matching.hk_ms": op_ms("perfect_matching"),
        "matching.hk_calls": op_calls("perfect_matching"),
        "matching.accept_ratio": per(cnt["dense_ok"], n_kout),
        "matching.greedy_dense": per(cnt["greedy_dense"], n_ops),
        "audit.sample_ms": op_ms("Pipeline.sample_array"),
        "audit.aggregate_ms": per(aggregate_s * 1e3, n_ops),
        "audit.family_s": setup_s("audit_set_family"),
        "thresholds.decide_ms": op_ms("decide_list_colorable"),
        "thresholds.decide_calls": op_calls("decide_list_colorable"),
        "thresholds.draw_ms": op_ms("sparsification_scan"),
        "thresholds.indeterminate": per(cnt["indeterminate"], n_ops),
    }
