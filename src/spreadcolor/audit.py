"""Spread auditing.

Monte Carlo containment estimation over one stream of samples, read
once, with Wilson intervals; an exact spread computation for explicit
small distributions (max over test sets T of P(S ⊇ T)^(1/|T|), kept as
an exact root to allow rational comparisons); and exact checks of the
two composition bounds for glued random sets.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapExceeded, NoKeptSamples
from .graphs import keyed_rng

__all__ = [
    "wilson_interval",
    "SpreadReport",
    "spread_report_from_samples",
    "SpreadValue",
    "ExplicitDistribution",
    "exact_spread",
    "CompositionReport",
    "check_composition",
]

EXACT_CAP = 20  # the largest ground set (or vertex count) of an exact 2^n computation


def wilson_interval(hits: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError("hits must lie in [0, trials]")
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class SpreadReport:
    """Containment hits of each test set in `sets` (an int64 array aligned
    with it) over `trials` samples, plus the empirical spread constant
    C_hat = max over sets T of (CI upper)^(1/|T|) * (D+1)."""

    sets: Sequence[tuple[tuple[int, int], ...]]
    hits: np.ndarray
    palette_size: int
    trials: int
    flagged_trials: int = 0

    def intervals(self) -> np.ndarray:
        """Each set's Wilson interval, as rows ci_low and ci_high: one
        wilson_interval call per distinct hit count (at most trials + 1)."""
        distinct, inverse = np.unique(self.hits, return_inverse=True)
        bounds = np.array([wilson_interval(h, self.trials) for h in distinct.tolist()])
        return bounds.reshape(-1, 2)[inverse].T

    @property
    def c_hat(self) -> float:
        # one root per set size, of its largest bound, in Python floats:
        # numpy's power can differ from them in the last digit
        sizes = np.fromiter(map(len, self.sets), np.int64, len(self.sets))
        ci_high = self.intervals()[1]
        roots = (float(ci_high[sizes == k].max()) ** (1.0 / k) for k in np.unique(sizes).tolist())
        return max(roots, default=0.0) * self.palette_size

    def to_csv(self) -> str:
        pairs = (";".join(f"{v}:{c}" for v, c in s) for s in self.sets)
        p_hat, ci_low, ci_high = (
            (f"{x:.8f}" for x in column.tolist())
            for column in (self.hits / self.trials, *self.intervals())
        )
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["pairs", "trials", "hits", "p_hat", "ci_low", "ci_high"])
        w.writerows(zip(pairs, repeat(self.trials), self.hits.tolist(), p_hat, ci_low, ci_high))
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "palette_size": self.palette_size,
                "trials": self.trials,
                "flagged_trials": self.flagged_trials,
                "c_hat": self.c_hat,
                "rows": len(self.sets),
            }
        )


def audit_set_family(
    n: int,
    palette_size: int,
    seed: int,
    family: str = "singletons+pairs",
) -> list[tuple[tuple[int, int], ...]]:
    """The default audit family: every (vertex, color) singleton, plus 10n
    random genuine 2-sets when requested.

    The pairs come from the keyed stream (seed, 2^40) in blocks: one
    array-bounded `integers` call draws (v1, v2, c1, c2) for each candidate
    of a block, element by element from the same stream as one
    `integers(n, size=2)` and one `integers(1, palette_size + 1, size=2)`
    call per candidate would.  Candidates with (v1, c1) == (v2, c2) are
    dropped and the first 10n kept, in order, so the family equals the
    per-candidate loop's; a block that comes up short is followed by
    another from the same stream."""
    if family not in ("singletons", "singletons+pairs"):
        raise ValueError(f"unknown family {family!r}")
    sets: list[tuple[tuple[int, int], ...]] = [
        ((v, c),) for v in range(n) for c in range(1, palette_size + 1)
    ]
    if family == "singletons+pairs":
        if n and n * palette_size < 2:
            # every drawn 2-set would repeat its one pair: no block ever fills
            raise ValueError(
                f"the singletons+pairs family needs two (vertex, color) pairs, "
                f"got {n * palette_size} (n = {n}, palette {palette_size})"
            )
        rng = keyed_rng(seed, 1 << 40)
        low = np.array([0, 0, 1, 1])
        high = np.array([n, n, palette_size + 1, palette_size + 1])
        pairs = np.empty((0, 4), dtype=np.int64)
        while len(pairs) < 10 * n:
            # the missing pairs, the repeats expected among them (1 in n P) and a margin
            missing = 10 * n - len(pairs)
            candidates = missing + missing // (n * palette_size - 1) + 8
            draws = rng.integers(np.tile(low, candidates), np.tile(high, candidates))
            draws = draws.reshape(-1, 4)
            keep = (draws[:, 0] != draws[:, 1]) | (draws[:, 2] != draws[:, 3])
            pairs = np.concatenate([pairs, draws[keep]])
        sets.extend(((v1, c1), (v2, c2)) for v1, v2, c1, c2 in pairs[: 10 * n].tolist())
    return sets


def spread_report_from_samples(
    samples: Iterable[np.ndarray | None],
    n: int,
    palette_size: int,
    sets: Sequence[tuple[tuple[int, int], ...]],
    flagged_trials: int = 0,
) -> SpreadReport:
    """Containment counts over test sets of any sizes, from one pass over
    samples: colors by vertex, or None for a flagged trial (one more in
    `flagged_trials`).  Raises NoKeptSamples when none is kept, and
    ValueError for a sample not an integer array of shape (n,), an empty
    family or set, a vertex outside 0..n-1 or a color outside 0..palette_size,
    or a set repeating a (vertex, color) pair, whose 1/|T| root would be wrong."""
    sizes = np.fromiter(map(len, sets), np.int64, len(sets))
    if not (len(sets) and sizes.min()):
        raise ValueError("empty test set" if len(sets) else "empty test family: nothing to audit")
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(sets)), np.int64)
    if len(flat) != 2 * sizes.sum():
        raise ValueError("a test set holds a pair that is not (vertex, color)")
    start = 2 * (np.cumsum(sizes) - sizes)  # where each set's pairs begin in flat
    # per set size k, (m, k) vertex and color arrays and m hit counters
    groups = []
    for k in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == k)
        at = start[idx, None] + 2 * np.arange(k)
        v, c = flat[at], flat[at + 1]
        keys = np.sort(v * (palette_size + 1) + c, axis=1)
        for bad, why in (
            ((v < 0) | (v >= n) | (c < 0) | (c > palette_size),
             f"has a vertex outside 0..{n - 1} or a color outside 0..{palette_size}"),
            (keys[:, 1:] == keys[:, :-1], "repeats a (vertex, color) pair"),
        ):
            if bad.any():
                raise ValueError(f"test set {sets[int(idx[bad.any(axis=1).argmax()])]} {why}")
        groups.append((idx, v, c, np.zeros(len(idx), dtype=np.int64)))

    # singletons read a (vertex, color) histogram whose last column (index -1
    # too) takes any color outside 0..palette_size; larger sets gather and compare
    larger = [group for group in groups if group[1].shape[1] > 1]
    single_hits = np.zeros((n, palette_size + 2), dtype=np.int64)
    kept = 0
    vertices = np.arange(n)
    for t, sample in enumerate(samples):
        if sample is None:
            flagged_trials += 1
            continue
        sample = np.asarray(sample)
        if sample.shape != (n,) or not np.issubdtype(sample.dtype, np.integer):
            raise ValueError(f"sample {t} is not an integer array of shape ({n},)")
        kept += 1
        single_hits[vertices, np.clip(sample, -1, palette_size + 1)] += 1
        for _, v, c, group_hits in larger:
            group_hits += np.all(sample[v] == c, axis=1)

    if kept == 0:
        raise NoKeptSamples(
            f"no samples to aggregate ({flagged_trials} flagged no-spread-guarantee)"
        )
    hits = np.zeros(len(sets), dtype=np.int64)
    for idx, v, c, group_hits in groups:
        hits[idx] = group_hits if v.shape[1] > 1 else single_hits[v[:, 0], c[:, 0]]
    return SpreadReport(sets, hits, palette_size, kept, flagged_trials)


# ---------------------------------------------------------------------------
# Exact spread of explicit distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpreadValue:
    """The number prob^(1/size), kept symbolic for exact comparisons."""

    prob: Fraction
    size: int

    def __post_init__(self):
        if self.size < 1 or self.prob < 0:
            raise ValueError("need size >= 1 and prob >= 0")

    def __le__(self, other: "SpreadValue") -> bool:
        return self.prob**other.size <= other.prob**self.size

    def __lt__(self, other: "SpreadValue") -> bool:
        return self.prob**other.size < other.prob**self.size


@dataclass
class ExplicitDistribution:
    """Finite distribution over subsets of a named ground set."""

    outcomes: list[frozenset[Hashable]]
    probs: list[Fraction]

    def __post_init__(self):
        if len(self.outcomes) != len(self.probs):
            raise ValueError("outcomes and probs must align")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to 1")

    def ground(self) -> frozenset[Hashable]:
        out: frozenset[Hashable] = frozenset()
        for s in self.outcomes:
            out |= s
        return out

    def containment(self, t: frozenset[Hashable]) -> Fraction:
        return sum(
            (p for s, p in zip(self.outcomes, self.probs) if t <= s), Fraction(0)
        )


def exact_spread(
    dist: ExplicitDistribution, size_cap: int | None = None
) -> tuple[frozenset[Hashable], SpreadValue]:
    """Worst test set and p* = max over nonempty T (|T| <= size_cap) of
    P(S ⊇ T)^(1/|T|), by exhaustive enumeration with exact arithmetic."""
    ground = sorted(dist.ground(), key=repr)
    if len(ground) > EXACT_CAP:
        raise CapExceeded(f"ground set of size {len(ground)} exceeds {EXACT_CAP}")
    if size_cap is None:
        size_cap = len(ground)
    best_t: frozenset[Hashable] = frozenset()
    best = SpreadValue(Fraction(0), 1)
    for k in range(1, min(size_cap, len(ground)) + 1):
        for combo in combinations(ground, k):
            t = frozenset(combo)
            val = SpreadValue(dist.containment(t), k)
            if best < val:
                best, best_t = val, t
    return best_t, best


@dataclass
class CompositionReport:
    p_spread: SpreadValue          # spread of S
    q_spread: SpreadValue          # worst spread among the conditionals T|S
    union_worst: frozenset         # worst test set of the union S ∪ T_S
    bound_holds: bool              # union spread <= factor * max(p, q)
    factor: int                    # 2 in general, 1 for disjoint grounds


def check_composition(
    dist_s: ExplicitDistribution,
    cond_t: Mapping[frozenset, ExplicitDistribution] | Callable[[frozenset], ExplicitDistribution],
    disjoint: bool = False,
) -> CompositionReport:
    """Exact check that S ∪ T_S is 2*max{p,q}-spread (max{p,q}-spread when
    the T's live on a ground set disjoint from S's).

    p, q and the union's spread are exact spread constants (exact_spread,
    so a union ground above EXACT_CAP raises CapExceeded): the union is
    factor*m-spread, m = max{p,q}, exactly when its spread is at most
    factor*m, which one cross-power comparison decides with no floating
    point.
    """
    get = cond_t.__getitem__ if isinstance(cond_t, Mapping) else cond_t

    _, p_val = exact_spread(dist_s)
    q_val = SpreadValue(Fraction(0), 1)
    union_outcomes: dict[frozenset, Fraction] = {}
    s_ground = dist_s.ground()
    for s0, ps in zip(dist_s.outcomes, dist_s.probs):
        dt = get(s0)
        if disjoint and (dt.ground() & s_ground):
            raise ValueError("disjoint composition requires disjoint grounds")
        _, qv = exact_spread(dt)
        if q_val < qv:
            q_val = qv
        for t0, pt in zip(dt.outcomes, dt.probs):
            u = s0 | t0
            union_outcomes[u] = union_outcomes.get(u, Fraction(0)) + ps * pt
    union = ExplicitDistribution(
        outcomes=list(union_outcomes), probs=list(union_outcomes.values())
    )
    worst, u_val = exact_spread(union)

    m = p_val if q_val <= p_val else q_val
    factor = 1 if disjoint else 2
    # factor * m.prob^(1/m.size) = (factor^m.size * m.prob)^(1/m.size)
    bound = SpreadValue(Fraction(factor) ** m.size * m.prob, m.size)
    return CompositionReport(
        p_spread=p_val,
        q_spread=q_val,
        union_worst=worst,
        bound_holds=u_val <= bound,
        factor=factor,
    )
