"""Spread auditing.

Monte Carlo containment estimation with Wilson intervals, an exact
spread computation for explicit small distributions (max over test sets
T of P(S ⊇ T)^(1/|T|), kept as an exact root to allow rational
comparisons), and exact checks of the two composition bounds for glued
random sets.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapExceeded, NoKeptSamples

__all__ = [
    "wilson_interval",
    "SpreadRow",
    "estimate_containment",
    "SpreadReport",
    "spread_report",
    "SpreadValue",
    "ExplicitDistribution",
    "exact_spread",
    "CompositionReport",
    "check_composition",
]

# sampler: maps a seeded Generator to an array of colors indexed by vertex
Sampler = Callable[[np.random.Generator], np.ndarray]


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


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


@dataclass
class SpreadRow:
    """Containment frequency of one set of (vertex, color) pairs with its
    Wilson interval."""

    pairs: tuple[tuple[int, int], ...]
    trials: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float


def estimate_containment(
    sampler: Sampler,
    pairs: Iterable[tuple[int, int]],
    trials: int,
    seed: int,
) -> SpreadRow:
    """Frequency of {sample contains every (vertex, color) pair} with its
    Wilson interval.  Per-trial streams are keyed by (seed, index), so the
    result does not depend on evaluation order."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    pairs = tuple(pairs)
    hits = 0
    for t in range(trials):
        sample = sampler(_trial_rng(seed, t))
        if all(sample[v] == c for v, c in pairs):
            hits += 1
    lo, hi = wilson_interval(hits, trials)
    return SpreadRow(pairs, trials, hits, hits / trials, lo, hi)


@dataclass
class SpreadReport:
    """Containment rows for a family of test sets plus the empirical
    spread constant C_hat = max over rows of (CI upper)^(1/|T|) * (D+1)."""

    rows: list[SpreadRow]
    palette_size: int
    trials: int
    flagged_trials: int = 0

    @property
    def c_hat(self) -> float:
        best = 0.0
        for row in self.rows:
            best = max(best, row.ci_high ** (1.0 / len(row.pairs)))
        return best * self.palette_size

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["pairs", "trials", "hits", "p_hat", "ci_low", "ci_high"])
        for row in self.rows:
            w.writerow(
                [
                    ";".join(f"{v}:{c}" for v, c in row.pairs),
                    row.trials,
                    row.hits,
                    f"{row.p_hat:.8f}",
                    f"{row.ci_low:.8f}",
                    f"{row.ci_high:.8f}",
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "palette_size": self.palette_size,
                "trials": self.trials,
                "flagged_trials": self.flagged_trials,
                "c_hat": self.c_hat,
                "rows": len(self.rows),
            }
        )


def audit_set_family(
    n: int,
    palette_size: int,
    seed: int,
    family: str = "singletons+pairs",
    custom_sets: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> list[tuple[tuple[int, int], ...]]:
    """The default audit family: every (vertex, color) singleton, plus 10n
    random genuine 2-sets when requested."""
    if family == "custom":
        if custom_sets is None:
            raise ValueError("custom family needs custom_sets")
        return [tuple((int(v), int(c)) for v, c in s) for s in custom_sets]
    if family not in ("singletons", "singletons+pairs"):
        raise ValueError(f"unknown family {family!r}")
    sets: list[tuple[tuple[int, int], ...]] = [
        ((v, c),) for v in range(n) for c in range(1, palette_size + 1)
    ]
    if family == "singletons+pairs":
        if n and n * palette_size < 2:
            # every drawn 2-set would repeat its one pair: the loop never ends
            raise ValueError(
                f"the singletons+pairs family needs two (vertex, color) pairs, "
                f"got {n * palette_size} (n = {n}, palette {palette_size})"
            )
        rng = _trial_rng(seed, 1 << 40)
        while len(sets) < n * palette_size + 10 * n:
            v1, v2 = (int(x) for x in rng.integers(n, size=2))
            c1, c2 = (int(x) for x in rng.integers(1, palette_size + 1, size=2))
            if (v1, c1) != (v2, c2):
                sets.append(((v1, c1), (v2, c2)))
    return sets


def spread_report_from_samples(
    samples: Iterable[np.ndarray],
    n: int,
    palette_size: int,
    sets: Sequence[tuple[tuple[int, int], ...]],
    flagged_trials: int = 0,
) -> SpreadReport:
    """Aggregate containment counts for pre-drawn samples (colors indexed
    by vertex) over the given test sets.  Raises NoKeptSamples when there
    are none, rather than reporting intervals over zero trials."""
    single_hits = np.zeros((n, palette_size + 2), dtype=np.int64)
    pair_sets = [s for s in sets if len(s) != 1]
    pair_hits = np.zeros(len(pair_sets), dtype=np.int64)
    if pair_sets:
        pv = np.array([[p[0] for p in s] for s in pair_sets], dtype=np.int64)
        pc = np.array([[p[1] for p in s] for s in pair_sets], dtype=np.int64)

    kept = 0
    idx = np.arange(n)
    for sample in samples:
        sample = np.asarray(sample)
        kept += 1
        single_hits[idx, np.clip(sample, 0, palette_size + 1)] += 1
        if pair_sets:
            pair_hits += np.all(sample[pv] == pc, axis=1)

    if kept == 0:
        raise NoKeptSamples(
            f"no samples to aggregate ({flagged_trials} flagged no-spread-guarantee)"
        )
    rows: list[SpreadRow] = []
    pair_i = 0
    for s in sets:
        if len(s) == 1:
            v, c = s[0]
            h = int(single_hits[v, c])
        else:
            h = int(pair_hits[pair_i])
            pair_i += 1
        lo, hi = wilson_interval(h, kept)
        rows.append(SpreadRow(s, kept, h, h / kept, lo, hi))
    return SpreadReport(
        rows=rows, palette_size=palette_size, trials=kept, flagged_trials=flagged_trials
    )


def spread_report(
    sampler: Sampler,
    n: int,
    palette_size: int,
    trials: int,
    seed: int,
    family: str = "singletons+pairs",
    custom_sets: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> SpreadReport:
    """Estimate P(sigma ⊇ T) for every T in the chosen family, with one
    keyed stream per trial."""
    sets = audit_set_family(n, palette_size, seed, family, custom_sets)
    samples = (sampler(_trial_rng(seed, t)) for t in range(trials))
    return spread_report_from_samples(samples, n, palette_size, sets)


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

    def le_scalar(self, c: Fraction | int) -> bool:
        """self <= c, exactly."""
        return self.prob <= Fraction(c) ** self.size


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
    if len(ground) > 20:
        raise CapExceeded(f"ground set of size {len(ground)} exceeds 20")
    if size_cap is None:
        size_cap = len(ground)
    from itertools import combinations

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
    union_worst: frozenset
    bound_holds: bool              # union spread <= factor * max(p, q)
    factor: int                    # 2 in general, 1 for disjoint grounds


def check_composition(
    dist_s: ExplicitDistribution,
    cond_t: Mapping[frozenset, ExplicitDistribution] | Callable[[frozenset], ExplicitDistribution],
    disjoint: bool = False,
) -> CompositionReport:
    """Exact check that S ∪ T_S is 2*max{p,q}-spread (max{p,q}-spread when
    the T's live on a ground set disjoint from S's).

    p and q are the exact spread constants of S and of the worst
    conditional; the inequality P(U ⊆ S ∪ T_S) <= factor^|U| * max{p,q}^|U|
    is verified for every nonempty U by cross-powering, so no floating
    point is involved.
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

    m = p_val if q_val <= p_val else q_val
    factor = 1 if disjoint else 2
    from itertools import combinations

    ground = sorted(union.ground(), key=repr)
    holds = True
    worst: frozenset = frozenset()
    for k in range(1, len(ground) + 1):
        for combo in combinations(ground, k):
            u = frozenset(combo)
            pu = union.containment(u)
            # P(U) <= factor^k * m^k  <=>  P(U)^m.size <= (factor^k)^m.size * m.prob^k
            if pu**m.size > Fraction(factor) ** (k * m.size) * m.prob**k:
                holds = False
                worst = u
    return CompositionReport(
        p_spread=p_val,
        q_spread=q_val,
        union_worst=worst,
        bound_holds=holds,
        factor=factor,
    )
