"""Hypergraph expense/cost, the exact list-coloring search, and the
palette sparsification harness.

The cost of a hypergraph F under weights q is the cheapest expense of
any hypergraph G covering F (every edge of F contains an edge of G).
Minimal covers are antichains of subsets of F's edges, which the
branch-and-bound search below exploits.  `list_colorings` is the one
exact search over list colorings: `decide_list_colorable` takes its
first stop, and `greedy.enumerate_colorings` counts its stops.  The
sparsification harness draws uniform k-sublists of the palette per
vertex and measures the exact colorability rate.
"""
from __future__ import annotations

import csv
import io
import json
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .audit import wilson_interval
from .errors import CapExceeded
from .graphs import Graph, keyed_rng
from .params import Params

__all__ = [
    "Hypergraph",
    "expense",
    "cost_bruteforce",
    "list_colorings",
    "decide_list_colorable",
    "SparsificationCurve",
    "sparsification_scan",
]


@dataclass(frozen=True)
class Hypergraph:
    ground: tuple[Hashable, ...]
    edges: tuple[frozenset[Hashable], ...]

    def __post_init__(self):
        gset = set(self.ground)
        if len(gset) != len(self.ground):
            raise ValueError("ground set has duplicates")
        for e in self.edges:
            if not e <= gset:
                raise ValueError(f"edge {set(e)} not inside the ground set")

    @staticmethod
    def from_json(text: str) -> tuple["Hypergraph", dict[Hashable, Fraction]]:
        """Parse {ground: [...], edges: [[...]], q: {x: w}}, q optional; q
        values may be floats or strings like "3/10" (kept exact).  JSON
        keys are strings, so a key of q names the ground element whose
        JSON text it is: "a" for "a", "1" for 1, "true" for true.  Any
        other shape, two ground elements with one key, or a key that
        names no ground element is a ValueError."""
        data = json.loads(text)

        def is_list_of_scalars(xs) -> bool:
            return isinstance(xs, list) and not any(isinstance(x, (list, dict)) for x in xs)

        if not (
            isinstance(data, dict)
            and is_list_of_scalars(data.get("ground"))
            and isinstance(data.get("edges"), list)
            and all(map(is_list_of_scalars, data["edges"]))
            and isinstance(data.get("q", {}), dict)
        ):
            raise ValueError(
                'a hypergraph is a JSON object {"ground": [...], "edges": [[...], ...]} '
                f'with an optional object "q", got {text.strip()[:80]}'
            )
        h = Hypergraph(tuple(data["ground"]), tuple(frozenset(e) for e in data["edges"]))
        named = {x if isinstance(x, str) else json.dumps(x): x for x in h.ground}
        if len(named) != len(h.ground):
            raise ValueError('two ground elements share a q key, as 1 and "1" do')
        q: dict[Hashable, Fraction] = {}
        for key, w in data.get("q", {}).items():
            if key not in named:
                raise ValueError(f"q key {key!r} names no ground element")
            x = named[key]
            try:
                q[x] = Fraction(w) if isinstance(w, str) else Fraction(str(w))
            except ZeroDivisionError:
                raise ValueError(f"weight q[{x!r}] = {w!r} divides by zero") from None
        return h, q


def _weight_of(q: Mapping[Hashable, Fraction | float]):
    def get(x: Hashable) -> Fraction:
        if x not in q:
            raise ValueError(f"no weight q[{x!r}]")
        w = Fraction(q[x]) if not isinstance(q[x], Fraction) else q[x]
        if not 0 <= w <= 1:
            raise ValueError(f"weight q[{x!r}] = {w} outside [0, 1]")
        return w

    return get


def expense(f: Hypergraph, q: Mapping[Hashable, Fraction | float]) -> Fraction:
    """Sum over edges of the product of their element weights.  The empty
    edge contributes 1 (empty product)."""
    get = _weight_of(q)
    total = Fraction(0)
    for e in f.edges:
        prod = Fraction(1)
        for x in e:
            prod *= get(x)
        total += prod
    return total


def cost_bruteforce(
    f: Hypergraph, q: Mapping[Hashable, Fraction | float]
) -> tuple[Fraction, list[frozenset[Hashable]]]:
    """Exact minimum expense over covers of f, with a witness cover.

    Branches on the first uncovered edge: some subset B of it must be in
    the cover, and B then retires every edge containing B.  Memoized on
    the set of surviving edges; branches whose accumulated weight already
    meets the incumbent are pruned.
    """
    if len(f.ground) > 16:
        raise CapExceeded(f"|X| = {len(f.ground)} exceeds the brute-force cap of 16")
    get = _weight_of(q)
    weights = {x: get(x) for x in f.ground}

    def subset_weight(b: frozenset) -> Fraction:
        prod = Fraction(1)
        for x in b:
            prod *= weights[x]
        return prod

    def subsets(edge: frozenset):
        items = sorted(edge, key=repr)
        for mask in range(1 << len(items)):
            yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)

    memo: dict[frozenset, tuple[Fraction, tuple[frozenset, ...]]] = {}

    def solve(remaining: frozenset[frozenset]) -> tuple[Fraction, tuple[frozenset, ...]]:
        if not remaining:
            return Fraction(0), ()
        if remaining in memo:
            return memo[remaining]
        first = min(remaining, key=lambda e: (len(e), sorted(map(repr, e))))
        value: Fraction | None = None
        witness: tuple[frozenset, ...] = ()
        for b in subsets(first):
            w = subset_weight(b)
            if value is not None and w >= value:
                continue
            rest = frozenset(e for e in remaining if not b <= e)
            sub_value, sub_witness = solve(rest)
            cand = w + sub_value
            if value is None or cand < value:
                value, witness = cand, (b, *sub_witness)
        assert value is not None
        memo[remaining] = (value, witness)
        return memo[remaining]

    value, witness = solve(frozenset(f.edges))
    return value, list(witness)


# ---------------------------------------------------------------------------
# Exact list colorability
# ---------------------------------------------------------------------------


def list_colorings(
    g: Graph, lists: Sequence[Sequence[int]], cap: int = Params.color_cap
) -> Iterator[list[int]]:
    """Every proper coloring of g from the lists, once each, by
    backtracking with unit propagation, branching on the vertex with the
    fewest remaining colors (lowest index on ties) and trying its colors
    lowest first.  Raises CapExceeded past `cap` search nodes: the root
    and each branch whose propagation succeeds.  Raises ValueError unless
    there is one list per vertex, with no negative color.

    At every full assignment the search yields its live color masks:
    Python ints, so any color >= 0 fits, with one bit set (vertex v has
    color masks[v].bit_length() - 1).  Read them before resuming: the
    search then backtracks as after a failed branch.

    The remaining-color counts are kept in step with the masks: propagation
    and undo update both, and a fixed vertex holds a sentinel above every
    count.  So the branch vertex is the first minimum of the counts (a
    vertex left with no color has no branch to try).  Only the root
    propagates from every singleton list; a successful propagation leaves
    no unfixed singleton, so after a branch it starts from the branched
    vertex alone.  The search keeps its own stack of branch vertices, so
    its depth is not bounded by Python's recursion limit."""
    n = g.n
    if len(lists) != n:
        raise ValueError(f"{len(lists)} lists for a graph on {n} vertices")
    adj = g.neighbor_lists()
    avail = []
    for v in range(n):
        lst = lists[v]
        mask = 0
        try:
            for c in lst.tolist() if isinstance(lst, np.ndarray) else map(operator.index, lst):
                mask |= 1 << c
        except ValueError:  # a negative shift count
            raise ValueError(f"vertex {v} has the negative color {c}") from None
        avail.append(mask)
    cnt = [mask.bit_count() for mask in avail]
    fixed = max(cnt, default=0) + 1  # the count of a fixed vertex
    cnt.append(fixed)  # cnt[n]: min(cnt) == fixed iff every vertex is fixed

    def propagate(queue: list[int], trail: list[int]) -> bool:
        """Fix every singleton list reachable from `queue`, recording each
        fixed vertex as ~v and each removed color as (w, bit) on `trail`;
        returns False on a wipe-out."""
        while queue:
            v = queue.pop()  # queued once: its count reached 1 just once
            bit = avail[v]
            cnt[v] = fixed
            trail.append(~v)
            for w in adj[v]:
                if avail[w] & bit:
                    if cnt[w] == fixed:  # a fixed neighbor holds the same color
                        return False
                    avail[w] ^= bit
                    trail.append(w)
                    trail.append(bit)
                    c = cnt[w] - 1
                    cnt[w] = c
                    if c == 0:
                        return False
                    if c == 1:
                        queue.append(w)
        return True

    def undo(trail: list[int]) -> None:
        while trail:
            x = trail.pop()
            if x < 0:
                cnt[~x] = 1
            else:
                w = trail.pop()
                avail[w] |= x
                cnt[w] += 1

    if not propagate([v for v in range(n) if cnt[v] == 1], []):
        return
    # one frame per branch vertex on the current path: [vertex, its mask
    # and count before branching, the colors left to try, the trail of the
    # color being tried]
    stack: list[list] = []
    nodes = 0
    while True:
        nodes += 1  # a search node: the root, or a branch that propagated
        if nodes > cap:
            raise CapExceeded(f"list-coloring search exceeded {cap} nodes")
        least = min(cnt)
        if least == fixed:
            yield avail
        else:
            v = cnt.index(least)
            stack.append([v, avail[v], least, avail[v], []])
        while True:  # the next color of the deepest frame, or backtrack
            if not stack:
                return
            frame = stack[-1]
            v, saved, least, mask, trail = frame
            undo(trail)
            if not mask:
                avail[v] = saved
                cnt[v] = least
                stack.pop()
                continue
            bit = mask & -mask
            frame[3] = mask ^ bit
            avail[v] = bit
            cnt[v] = 1
            if propagate([v], trail):
                break


def decide_list_colorable(
    g: Graph, lists: Sequence[Sequence[int]], cap: int = Params.color_cap
) -> bool:
    """Exact decision: whether list_colorings stops at all (n = 0 stops
    once, on the empty coloring)."""
    return next(list_colorings(g, lists, cap), None) is not None


# ---------------------------------------------------------------------------
# Palette sparsification harness
# ---------------------------------------------------------------------------


@dataclass
class CurveRow:
    k: int
    trials: int
    successes: int
    indeterminate: int
    rate: float
    ci_low: float
    ci_high: float


@dataclass
class SparsificationCurve:
    rows: list[CurveRow]

    def __post_init__(self):
        _check_k_order([r.k for r in self.rows])

    def to_csv(self) -> str:
        """One line per k; `indeterminate` counts the capped decisions (failures)."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["k", "trials", "successes", "rate", "ci_lo", "ci_hi", "indeterminate"])
        for r in self.rows:
            w.writerow([r.k, r.trials, r.successes, f"{r.rate:.6f}", f"{r.ci_low:.6f}",
                        f"{r.ci_high:.6f}", r.indeterminate])
        return buf.getvalue()

    def nondecreasing_within_ci(self) -> bool:
        """Monotonicity up to CI noise: each row's upper bound must reach
        the previous row's lower bound."""
        for prev, cur in zip(self.rows, self.rows[1:]):
            if cur.ci_high < prev.ci_low:
                return False
        return True


def _check_k_order(ks: Sequence[int]) -> None:
    """The k-order rule, read by every curve and by the scan before its first draw."""
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"k values must be strictly increasing, got {[int(k) for k in ks]}")


def _draw_lists(rng: np.random.Generator, n: int, d: int, k: int) -> np.ndarray:
    """n uniform k-subsets of the palette 1..d+1, one row per vertex: the
    colors of the k smallest of d+1 i.i.d. uniform keys, in no set order."""
    keys = rng.random((n, d + 1))
    return np.argpartition(keys, k - 1, axis=1)[:, :k] + 1


def sparsification_scan(
    g: Graph,
    k_values: Sequence[int],
    trials: int,
    seed: int,
    cap: int = Params.color_cap,
) -> SparsificationCurve:
    """For each k: draw uniform k-sublists of [D+1] per vertex, decide
    exact colorability, and record the success rate with a Wilson CI.
    Cap-exceeded decisions count as failures (conservative) and are
    tallied separately.  Every k value is checked before the first draw.

    Each (seed, k, trial) has its own generator, which draws the trial's
    lists as one (n, D+1) block of keys (_draw_lists)."""
    d = g.max_degree
    ks = list(k_values)
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"k values must be integers, got {k!r}")
        if not 1 <= k <= d + 1:
            raise ValueError(f"k values must lie in [1, D+1] = [1, {d + 1}], got {k}")
    _check_k_order(ks)
    rows = []
    for k in map(int, ks):
        successes = 0
        indeterminate = 0
        for t in range(trials):
            lists = _draw_lists(keyed_rng(seed, k, t), g.n, d, k)
            try:
                if decide_list_colorable(g, lists, cap=cap):
                    successes += 1
            except CapExceeded:
                indeterminate += 1
        lo, hi = wilson_interval(successes, trials)
        rows.append(
            CurveRow(
                k=k,
                trials=trials,
                successes=successes,
                indeterminate=indeterminate,
                rate=successes / trials,
                ci_low=lo,
                ci_high=hi,
            )
        )
    return SparsificationCurve(rows)
