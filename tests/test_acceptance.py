"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible
with `pytest -s` or on failure) and asserts the criterion at its stated
tolerance, including the runtime budget.  Where the paper's statement is
only asymptotic, the criterion states the finite instance it is asserted
at: criterion 06 (concentration of |N_v ∩ T|) names the degree, D = 120,
at which its window and target are asserted, and also measures D = 50.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from spreadcolor.audit import (
    ExplicitDistribution,
    audit_set_family,
    check_composition,
    spread_report_from_samples,
    wilson_interval,
)
from spreadcolor.clusters import Pipeline
from spreadcolor.graphs import gen_random_regular
from spreadcolor.greedy import (
    build_counterexample,
    enumerate_colorings,
    exact_containment_uniform,
    random_greedy_exact_probability,
)
from spreadcolor.matching import (
    kout_subgraph,
    perfect_matching,
    spread_X_perfect_matching,
)
from spreadcolor.params import Params
from spreadcolor.sparse_phase import _in_t_counts, tranquil_mask
from spreadcolor.thresholds import Hypergraph, cost_bruteforce, expense, sparsification_scan
from oracles import bigraph_from_edges, is_proper


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s/<{budget:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_red_thumb_exactness():
    t0 = time.time()
    values = {}
    for d in (3, 4, 5):
        ce = build_counterexample("red_thumb", d)
        values[d] = exact_containment_uniform(ce.graph, ce.lists, ce.target)
    ok = all(v == Fraction(1, 2) for v in values.values())
    _report(1, "red-thumb-exactness", ok, time.time() - t0, 10,
            f"P(sigma(0)=0) = {dict(values)}")


def test_criterion_02_uniform_counterexample():
    t0 = time.time()
    d = 3
    ce = build_counterexample("clique_minus_clique", d)
    total = enumerate_colorings(ce.graph, ce.lists).count
    favorable_lists = [
        [ce.target[v]] if v in ce.target else list(s)
        for v, s in enumerate(ce.lists)
    ]
    favorable = enumerate_colorings(ce.graph, favorable_lists).count
    p = exact_containment_uniform(ce.graph, ce.lists, ce.target)
    formula = Fraction(1, 8)  # (D+1)^(-(sqrt(D+1)+1)/2) at D = 3
    ok = total == 48 and favorable == 6 and p == formula == ce.expected
    _report(2, "uniform-counterexample", ok, time.time() - t0, 1,
            f"total={total} favorable={favorable} P={p}")


def test_criterion_03_greedy_boys_bound():
    t0 = time.time()
    d = 2
    ce = build_counterexample("greedy_boys", d)
    p = random_greedy_exact_probability(ce.graph, ce.target)
    bound = Fraction(1, (2 * d) ** d)
    ok = p >= bound
    _report(3, "greedy-boys-bound", ok, time.time() - t0, 10,
            f"P = {p} >= (2D)^-D = {bound}")


def test_criterion_04_pipeline_validity():
    t0 = time.time()
    good = 0
    runs = 0
    for gi in range(10):
        g = gen_random_regular(200, 16, seed=1000 + gi)
        pipe = Pipeline(g)
        for si in range(10):
            runs += 1
            res = pipe.sample(seed=si)
            if (
                len(res.coloring) == 200
                and is_proper(g, res.coloring)
                and set(res.coloring.tolist()) <= set(range(1, 18))
                and not res.flagged
            ):
                good += 1
    ok = good == runs == 100
    _report(4, "pipeline-validity", ok, time.time() - t0, 300,
            f"{good}/{runs} proper colorings, zero assertion failures")


def test_criterion_05_spread_audit():
    t0 = time.time()
    trials = 20_000
    ceiling = Params().c_hat_ceiling  # 64
    details = []
    ok = True
    for d in (12, 16):
        g = gen_random_regular(100, d, seed=2000 + d)
        pipe = Pipeline(g)
        samples = []
        flagged = 0
        for t in range(trials):
            arr, fl = pipe.sample_array(t)
            if fl:
                flagged += 1
            else:
                samples.append(arr)
        sets = audit_set_family(100, d + 1, seed=31)
        rep = spread_report_from_samples(samples, 100, d + 1, sets, flagged)
        frac = flagged / trials
        details.append(f"D={d}: C_hat={rep.c_hat:.2f} flagged={frac:.3f}")
        ok = ok and rep.c_hat <= ceiling and frac <= 0.20
    _report(5, "spread-audit", ok, time.time() - t0, 900,
            f"{'; '.join(details)} (ceiling {ceiling})")


def _binomial_window_mass(d: int, p: float, lo: float, hi: float) -> float:
    """Exact P(lo <= X <= hi) for X ~ Binomial(d, p)."""
    return sum(
        math.comb(d, k) * p**k * (1.0 - p) ** (d - k)
        for k in range(d + 1)
        if lo <= k <= hi
    )


def _concentration_at(d: int, lo: float, hi: float) -> tuple[float, float, float]:
    """On one D-regular graph with n = 10*D vertices, 200 uniform
    labelings: (fraction of (vertex, labeling) pairs with |N_v ∩ T| in
    [lo, hi], grand mean of |N_v ∩ T|, standard error of that mean from
    the 200 per-labeling means)."""
    n = 10 * d
    g = gen_random_regular(n, d, seed=3000)
    inside = 0
    means = np.empty(200)
    for t in range(200):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((77, t))))
        tau = rng.integers(1, d + 2, size=n)
        counts = _in_t_counts(g, tranquil_mask(g, tau))
        inside += int(np.count_nonzero((counts >= lo) & (counts <= hi)))
        means[t] = counts.mean()
    se = float(means.std(ddof=1)) / math.sqrt(len(means))
    return inside / (200 * n), float(means.mean()), se


def test_criterion_06_concentration():
    # In a D-regular graph a neighbour u of v is in T exactly when none of
    # u's D neighbours shares its uniform label, so P(u in T) = p =
    # (1 - 1/(D+1))^D and E|N_v ∩ T| = D*p exactly; |N_v ∩ T| then
    # fluctuates like Binomial(D, p), on the scale sigma = sqrt(D p (1-p)).
    # The paper proves concentration only as D -> infinity and fixes no
    # finite-D constant, so the criterion states the degree it is asserted
    # at.  The (e^-1 ± 0.1)D window reaches 0.1*D/sigma standard deviations
    # to each side:
    #   D = 50:  sigma = 3.42, window ±1.46 sigma, exact binomial mass 0.858;
    #            0.95 is out of reach at this degree (measured 0.847 on
    #            n = 500), so this instance is measured and printed, and
    #            only its centre is asserted.
    #   D = 120: sigma = 5.29, window ±2.27 sigma, exact binomial mass 0.977.
    # The mass first passes 0.95 near D = 90 (0.951), where the measured
    # fraction, which runs about 0.004-0.01 below the binomial mass on
    # random regular graphs, would sit on the target; D = 120 leaves a
    # margin of about 0.02 over the 0.95 target, well beyond the spread of
    # the measured fraction over other graph/labeling seeds (0.972-0.975).
    # At both degrees the mean of |N_v ∩ T| must lie within 4 standard
    # errors of the exact D*p.  All reference values are closed forms.
    t0 = time.time()
    ok = True
    details = []
    for d in (50, 120):
        lo = (math.exp(-1) - 0.1) * d
        hi = (math.exp(-1) + 0.1) * d
        p = (1.0 - 1.0 / (d + 1)) ** d
        mass = _binomial_window_mass(d, p, lo, hi)
        frac, mean, se = _concentration_at(d, lo, hi)
        z = (mean - d * p) / se
        ok = ok and abs(z) <= 4.0
        if d == 120:
            ok = ok and mass >= 0.95 and frac >= 0.95
        details.append(
            f"D={d}: fraction in (e^-1 ± 0.1)D window = {frac:.4f} "
            f"(binomial {mass:.4f}), mean {mean:.2f} vs D*p {d * p:.2f} (z={z:+.2f})"
        )
    _report(6, "concentration-check", ok, time.time() - t0, 120,
            f"{'; '.join(details)}; needs >= 0.95 at D=120 and |z| <= 4 at both")


def _matcher_instance_r_le_0(j: int, big_r: int, drop: int, rng: random.Random) -> np.ndarray:
    """Near-complete J x (J+R): remove `drop` edges on distinct x's (each x
    then misses at most R+1 <= zJ of its J+R columns)."""
    edges = {(x, y) for x in range(j) for y in range(j + big_r)}
    xs = rng.sample(range(j), drop)
    for x in xs:
        edges.discard((x, rng.randrange(j + big_r)))
    return bigraph_from_edges(j, j + big_r, edges)


def _matcher_instance_r_gt_0(j: int, unpop_deg: int) -> np.ndarray:
    """R = 2 with three right vertices of degree `unpop_deg` < (1-delta)J:
    |U| = 3, r = 1, so the greedy phase runs exactly once.  Missing edges
    are spread so every x keeps degree >= J (r_x <= 0)."""
    big_r = 2
    edges = {(x, y) for x in range(j) for y in range(j + big_r)}
    missing_per_x = {x: 0 for x in range(j)}
    cursor = 0
    for y in range(3):
        dropped = 0
        while dropped < (j + big_r) - unpop_deg:
            x = cursor % j
            cursor += 1
            if missing_per_x[x] < big_r and (x, y) in edges:
                edges.discard((x, y))
                missing_per_x[x] += 1
                dropped += 1
    return bigraph_from_edges(j, j + big_r, edges)


# criterion 07: no singleton edge of the dense matcher may be hit with
# probability above this constant over |I|
DENSE_EDGE_CEILING = 10.0


def test_criterion_07_x_perfect_matcher():
    t0 = time.time()
    j, z = 200, 0.01
    rng = random.Random(404)
    instances = []
    for i in range(25):
        instances.append(("r<=0", _matcher_instance_r_le_0(j, i % 3, drop=i % 3, rng=rng)))
    for i in range(25):
        instances.append(("r>0", _matcher_instance_r_gt_0(j, unpop_deg=70 + i)))
    successes = 0
    branches = {"greedy+dense": 0, "dense": 0}
    for idx, (kind, b) in enumerate(instances):
        try:
            m = spread_X_perfect_matching(
                b, z, np.random.default_rng(idx), max_tries=500
            )
            if m.is_x_perfect():
                successes += 1
                branches[m.meta["branch"]] += 1
        except Exception:
            pass
    rate = successes / len(instances)

    # dense-phase singleton-edge audit on a complete 100x100 bigraph
    i_size = 100
    f = np.ones((i_size, i_size), dtype=bool)
    arng = np.random.default_rng(505)
    trials = 10_000
    hits = np.zeros((i_size, i_size), dtype=np.int64)
    xs = np.arange(i_size)
    for _ in range(trials):
        k = kout_subgraph(f, 3, arng)
        m = perfect_matching(k)
        while not m.is_x_perfect():  # resample rare non-perfect draws
            k = kout_subgraph(f, 3, arng)
            m = perfect_matching(k)
        hits[xs, m.match] += 1
    worst = int(hits.max())
    _, upper = wilson_interval(worst, trials)
    edge_ceiling = DENSE_EDGE_CEILING / i_size
    ok = rate >= 0.98 and branches["greedy+dense"] > 0 and branches["dense"] > 0 \
        and upper <= edge_ceiling
    _report(7, "x-perfect-matcher", ok, time.time() - t0, 300,
            f"success {successes}/50 ({branches}), max edge p_hat upper {upper:.4f} "
            f"<= {edge_ceiling}")


def _random_dist(rng: random.Random, ground: list) -> ExplicitDistribution:
    k = rng.randint(1, 4)
    outcomes = [frozenset(x for x in ground if rng.random() < 0.5) for _ in range(k)]
    weights = [rng.randint(1, 9) for _ in outcomes]
    total = sum(weights)
    return ExplicitDistribution(outcomes, [Fraction(w, total) for w in weights])


def test_criterion_08_composition_facts():
    t0 = time.time()
    rng = random.Random(808)
    violations = 0
    for i in range(500):  # overlapping grounds, 2*max{p,q} bound
        gs = list(range(rng.randint(1, 4)))
        gt = list(range(rng.randint(1, 4)))
        s = _random_dist(rng, gs)
        conds = {s0: _random_dist(rng, gt) for s0 in set(s.outcomes)}
        if not check_composition(s, lambda s0: conds[s0]).bound_holds:
            violations += 1
    for i in range(500):  # disjoint grounds, max{p,q} bound
        gs = [f"x{v}" for v in range(rng.randint(1, 4))]
        gt = [f"y{v}" for v in range(rng.randint(1, 4))]
        s = _random_dist(rng, gs)
        conds = {s0: _random_dist(rng, gt) for s0 in set(s.outcomes)}
        if not check_composition(s, lambda s0: conds[s0], disjoint=True).bound_holds:
            violations += 1
    ok = violations == 0
    _report(8, "composition-facts", ok, time.time() - t0, 120,
            f"{violations} violations over 1000 exact instances")


def test_criterion_09_sparsification_harness():
    t0 = time.time()
    g = gen_random_regular(100, 20, seed=909)
    k_values = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 21]
    curve = sparsification_scan(g, k_values, trials=200, seed=17)
    k_target = 4 * math.ceil(math.log(100))  # = 20
    row20 = next(r for r in curve.rows if r.k == k_target)
    ok = curve.nondecreasing_within_ci() and row20.rate >= 0.95
    rates = {r.k: round(r.rate, 3) for r in curve.rows}
    _report(9, "sparsification-harness", ok, time.time() - t0, 600,
            f"rates={rates}, rate(k={k_target})={row20.rate:.3f}")


def _oracle_cost_enumeration(f: Hypergraph, q) -> Fraction:
    """Independent oracle: enumerate all selector covers (one subset per
    edge), deduplicate, take the cheapest expense."""
    def weight(b):
        prod = Fraction(1)
        for x in b:
            prod *= q[x]
        return prod

    if not f.edges:
        return Fraction(0)
    options = [
        [
            frozenset(c)
            for r in range(len(e) + 1)
            for c in itertools.combinations(sorted(e, key=repr), r)
        ]
        for e in f.edges
    ]
    best = None
    for picks in itertools.product(*options):
        val = sum((weight(b) for b in set(picks)), Fraction(0))
        if best is None or val < best:
            best = val
    return best


def test_criterion_10_expense_cost_oracle():
    t0 = time.time()
    rng = random.Random(1010)
    mismatches = 0
    for i in range(25):
        ground = tuple(range(rng.randint(2, 8)))
        edges = tuple(
            frozenset(rng.sample(ground, rng.randint(0, min(4, len(ground)))))
            for _ in range(rng.randint(1, 4))
        )
        f = Hypergraph(ground, edges)
        q = {x: Fraction(rng.randint(0, 12), 12) for x in ground}
        value, witness = cost_bruteforce(f, q)
        oracle = _oracle_cost_enumeration(f, q)
        covers = all(any(b <= e for b in witness) for e in f.edges)
        if value != oracle or not covers or value > expense(f, q):
            mismatches += 1
    ok = mismatches == 0
    _report(10, "expense-cost-oracle", ok, time.time() - t0, 60,
            f"{mismatches} mismatches over 25 instances")
