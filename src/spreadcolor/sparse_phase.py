"""Coloring the sparse vertices.

Draw a uniform label for every vertex, condition (by rejection) on every
sparse vertex seeing a typical number of locally-unique labels, keep the
labels on the conflict-free set T as colors, then finish the remaining
sparse vertices by slack greedy on the leftover lists.

Randomness is keyed: attempt t of the rejection loop uses the stream
(seed, LABEL_TAG, t) and the greedy stage uses (seed, GREEDY_TAG), one
uniform per vertex.  Because acceptance is decided per connected
component and vector draws are stream prefixes, the result restricted to
a component equals a run on that component alone (same seed, same D and
window, ids preserved as a prefix).  The default window depends on the
number of sparse vertices in the whole graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .decompose import Decomposition
from .errors import MaxTriesExceeded, StuckVertex, VerificationFailed
from .graphs import Graph, check_proper
from .params import Params

__all__ = [
    "tranquil_mask",
    "default_window_halfwidth",
    "sample_conditioned_labeling",
    "SparsePhaseResult",
    "sparse_phase_color",
]

_LABEL_TAG = 0xA1
_GREEDY_TAG = 0xA2


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *tags))))


def tranquil_mask(g: Graph, tau: np.ndarray) -> np.ndarray:
    """Boolean mask of T = vertices none of whose neighbors share their label."""
    eu, ev = g.edge_arrays()
    mask = np.ones(g.n, dtype=bool)
    if len(eu):
        clash = tau[eu] == tau[ev]
        mask[eu[clash]] = False
        mask[ev[clash]] = False
    return mask


def _in_t_counts(g: Graph, t_mask: np.ndarray) -> np.ndarray:
    """Per vertex, the number of its neighbors inside the mask."""
    flat, ptr = g.flat_adjacency()
    if len(flat) == 0:
        return np.zeros(g.n, dtype=np.int64)
    vals = t_mask[flat].astype(np.int64)
    counts = np.zeros(g.n, dtype=np.int64)
    nonempty = ptr[:-1] < ptr[1:]
    counts[nonempty] = np.add.reduceat(vals, ptr[:-1][nonempty])
    return counts


def _pair_count(g: Graph, tau: np.ndarray, v: int) -> int:
    """|P_v|: non-adjacent pairs u,w in N_v with equal labels that appear
    nowhere else in N_v ∪ N_u ∪ N_w."""
    nbrs = g.neighbors(v)
    by_label: dict[int, list[int]] = {}
    for u in nbrs:
        by_label.setdefault(int(tau[u]), []).append(u)
    count = 0
    for label, group in by_label.items():
        if len(group) < 2:
            continue
        for i, u in enumerate(group):
            u_nbrs = set(g.adj[u])
            for w in group[i + 1 :]:
                if w in u_nbrs:
                    continue
                zone = u_nbrs.union(nbrs, g.adj[w]) - {u, w}
                if all(int(tau[z]) != label for z in zone):
                    count += 1
    return count


def _bad_vertices(
    g: Graph,
    tau: np.ndarray,
    where: np.ndarray,
    lo: float,
    hi: float,
    pair_min: float,
) -> np.ndarray:
    """Mask of the vertices in `where` hit by the bad event of the labeling
    tau: |N_v ∩ T| outside [lo, hi], or |P_v| < pair_min.  The pair clause
    is evaluated only when pair_min > 0, and only on the vertices of
    `where` that the window has not already marked."""
    counts = _in_t_counts(g, tranquil_mask(g, tau))
    bad = where & ((counts < lo) | (counts > hi))
    if pair_min > 0:
        for v in np.flatnonzero(where & ~bad).tolist():
            bad[v] = _pair_count(g, tau, v) < pair_min
    return bad


def default_window_halfwidth(
    d: int, n_star: int, accept_target: float = 0.5
) -> float:
    """Halfwidth (absolute units) of the accepted |N_v ∩ T| window around
    e^-1 * D, sized so that all n_star sparse vertices land inside with
    probability about accept_target.

    |N_v ∩ T| behaves like Binomial(D, p) with p = (1 - 1/(D+1))^D, whose
    fluctuation scale sqrt(D p (1-p)) dwarfs the theta'/3 window of the
    asymptotic statement at any desk-scale D.
    """
    p = (1.0 - 1.0 / (d + 1)) ** d
    mu = d * p
    sigma = math.sqrt(d * p * (1.0 - p))
    beta = (1.0 - accept_target) / max(n_star, 1)
    z = NormalDist().inv_cdf(1.0 - min(beta, 0.5) / 2.0)
    return abs(mu - d / math.e) + z * sigma


def _thresholds(
    d: int,
    n_star: int,
    theta_prime: float,
    accept_target: float,
    window_halfwidth: float | None = None,
    pair_min: float | None = None,
) -> tuple[float, float]:
    """(window halfwidth, pair threshold) of the accepted labelings, each
    defaulting to its desk-scale calibration when not given."""
    if window_halfwidth is None:
        window_halfwidth = max(
            default_window_halfwidth(d, n_star, accept_target), theta_prime / 3.0 * d
        )
    if pair_min is None:
        pair_min = float(math.floor(theta_prime * d))
    return window_halfwidth, pair_min


def sample_conditioned_labeling(
    g: Graph,
    vstar,
    theta_prime: float,
    seed: int,
    max_tries: int = 10_000,
    window_halfwidth: float | None = None,
    pair_min: float | None = None,
    accept_target: float = 0.5,
) -> np.ndarray:
    """Uniform labeling of V conditioned on no sparse vertex being bad,
    realized by per-component rejection.

    The pair threshold defaults to floor(theta' * D): at desk scale that
    is 0 and the |P_v| clause is vacuous, which is the only regime in
    which the conditioned measure is reachable at all (E|P_v| is O(1)
    for any feasible D here, while the asymptotic statement wants
    Theta(theta * D) of them).  The window defaults to the calibrated
    one; see default_window_halfwidth.
    """
    d = g.max_degree
    n = g.n
    star = np.zeros(n, dtype=bool)
    star[list(vstar)] = True
    window_halfwidth, pair_min = _thresholds(
        d, int(star.sum()), theta_prime, accept_target, window_halfwidth, pair_min
    )
    center = d / math.e
    lo, hi = center - window_halfwidth, center + window_halfwidth

    n_comps = len(g.components())
    labels = g.component_labels()
    # components without a sparse vertex keep their attempt-0 labels
    pending = np.bincount(labels[star], minlength=n_comps) > 0
    final = _rng(seed, _LABEL_TAG, 0).integers(1, d + 2, size=n)
    tau = final.copy()
    for t in range(max_tries):
        if not pending.any():
            return final
        if t:
            tau = _rng(seed, _LABEL_TAG, t).integers(1, d + 2, size=n)
        bad = _bad_vertices(g, tau, star & pending[labels], lo, hi, pair_min)
        ok = pending & (np.bincount(labels[bad], minlength=n_comps) == 0)
        take = ok[labels]
        final[take] = tau[take]
        pending &= ~ok
    if pending.any():
        raise MaxTriesExceeded(
            f"conditioned labeling not found in {max_tries} attempts "
            f"(window halfwidth {window_halfwidth:.2f}, pair_min {pair_min})"
        )
    return final


@dataclass
class SparsePhaseResult:
    colors: np.ndarray                # indexed by vertex; 0 off V*
    labeling: np.ndarray              # the accepted conditioned labeling
    t_mask: np.ndarray                # conflict-free set T of the labeling
    window_halfwidth: float
    pair_min: float

    @property
    def t_set(self) -> frozenset[int]:
        """T as a set of vertices."""
        return frozenset(np.flatnonzero(self.t_mask).tolist())


def _check_hand_off(
    vertices: np.ndarray,
    in_t: np.ndarray,
    d_rest: np.ndarray,
    n_list: np.ndarray,
    d: int,
    window: float,
    pair_min: float,
) -> None:
    """The invariants the accepted window hands to the slack greedy, over
    every leftover vertex at once: |N_v ∩ T| inside the window, leftover
    degree at most D - |N_v ∩ T|, and a list of at least D + 1 - |N_v ∩ T|
    colors (plus pair_min when the pair clause is live)."""
    slack = d + 1 - in_t
    for bad, what in (
        (np.abs(in_t - d / math.e) > window + 1e-9, "escaped the accepted window"),
        (d_rest > d - in_t, "has leftover degree exceeding D - |N_v ∩ T|"),
        (
            (n_list < slack - 1e-9) | ((pair_min > 0) & (n_list < slack + pair_min)),
            "has a hand-off list shorter than the window implies",
        ),
    ):
        if bad.any():
            raise VerificationFailed(f"vertex {vertices[np.argmax(bad)]} {what}")


# Below this many leftovers the sequential greedy is faster: the level path
# pays about fifteen numpy calls per level (40-50 levels at every size
# measured), and that fixed cost outweighs a Python loop over a few hundred
# vertices.  On random regular graphs the level path took up to 3x longer
# at 60-260 leftovers, from even to 1.5x faster at 500 (D = 16 and 40),
# and 3-5x faster at 2,700.
_LEVEL_MIN_LEFTOVERS = 512


def _stuck(leftovers: np.ndarray, i: int) -> StuckVertex:
    return StuckVertex(f"sparse-phase greedy stuck at vertex {leftovers[i]}")


def _greedy_sequential(
    leftovers: np.ndarray,
    allowed: np.ndarray,
    earlier: np.ndarray,
    later: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Slack greedy over the leftovers in ascending order: position i drops
    the colors of its earlier leftover neighbors from its allowed row and
    takes avail[floor(uniforms[i] * |avail|)].  allowed is (k, D+2) with
    column 0 False; (earlier[e], later[e]) are positions in leftovers."""
    k = len(leftovers)
    order = np.argsort(later, kind="stable")
    pred = earlier[order].tolist()
    pred_ptr = np.searchsorted(later[order], np.arange(k + 1)).tolist()
    rows, cols = np.nonzero(allowed)
    avail_ptr = np.searchsorted(rows, np.arange(k + 1)).tolist()
    cols = cols.tolist()
    picked: list[int] = []
    for i, u in enumerate(uniforms.tolist()):
        avail = cols[avail_ptr[i] : avail_ptr[i + 1]]
        if pred_ptr[i] < pred_ptr[i + 1]:
            used = {picked[j] for j in pred[pred_ptr[i] : pred_ptr[i + 1]]}
            avail = [c for c in avail if c not in used]
        if not avail:
            raise _stuck(leftovers, i)
        picked.append(avail[int(u * len(avail))])
    return np.array(picked, dtype=np.int64)


def _greedy_levels(
    leftovers: np.ndarray,
    allowed: np.ndarray,
    earlier: np.ndarray,
    later: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """The same greedy, one frontier of the leftover DAG at a time: a
    position whose earlier neighbors are all colored sees exactly the row
    it would see in the sequential loop, so the whole frontier picks in
    one step (Jones & Plassmann's priority DAG).  The colors picked are
    the sequential ones.

    A stuck position is recorded and the loop carries on; the smallest one
    is raised.  That is the sequential loop's first stuck position: its
    predecessors are earlier and none of them is stuck, so its row is
    exact, while every wrong row lies after it."""
    k = len(leftovers)
    allowed = allowed.copy()
    indeg = np.bincount(later, minlength=k)
    order = np.argsort(earlier, kind="stable")
    succ = later[order]
    succ_ptr = np.concatenate(([0], np.cumsum(np.bincount(earlier, minlength=k))))
    picked = np.zeros(k, dtype=np.int64)
    first_stuck = k
    front = np.flatnonzero(indeg == 0)
    while len(front):
        rows = allowed[front]
        cnt = rows.sum(axis=1)
        nth = (uniforms[front] * cnt).astype(np.int64)
        # the nth allowed color is the number of columns whose running count
        # of allowed colors is still <= nth; a stuck row takes column 0,
        # which is never allowed, so clearing it below changes nothing
        c = (np.cumsum(rows, axis=1) <= nth[:, None]).sum(axis=1)
        stuck = cnt == 0
        if stuck.any():
            first_stuck = min(first_stuck, int(front[stuck].min()))
            c[stuck] = 0
        picked[front] = c
        # out-edges of the frontier, gathered from the CSR ranges
        start = succ_ptr[front]
        lens = succ_ptr[front + 1] - start
        offsets = np.repeat(start - (np.cumsum(lens) - lens), lens)
        s = succ[offsets + np.arange(len(offsets))]
        allowed[s, np.repeat(c, lens)] = False
        indeg -= np.bincount(s, minlength=k)
        ready = np.zeros(k, dtype=bool)
        ready[s[indeg[s] == 0]] = True
        front = np.flatnonzero(ready)
    if first_stuck < k:
        raise _stuck(leftovers, first_stuck)
    return picked


def sparse_phase_color(
    g: Graph, dec: Decomposition, seed: int, params: Params | None = None
) -> SparsePhaseResult:
    """Proper coloring of the sparse set V*.

    sigma on T is the conditioned labeling itself (proper there by
    construction of T); V* \\ T is finished by slack greedy on the lists
    Gamma minus the colors seen on T-neighbors.  Labels on T \\ V* are
    used for those lists and then dropped.  On a D-regular graph the
    greedy always has |S_v| >= d'(v) + 1, so it cannot get stuck.

    The T-neighbor colors of every vertex come from one ban matrix, so
    the greedy depends only on leftover-to-leftover edges: each leftover,
    in ascending order, removes the colors of its earlier leftover
    neighbors from its list and takes avail[floor(u_v * |avail|)].  From
    _LEVEL_MIN_LEFTOVERS leftovers on, the same choices are made one
    level of that order at a time (_greedy_levels); below it, one
    vertex at a time (_greedy_sequential).
    """
    if params is None:
        params = Params()
    d = g.max_degree
    if not g.is_regular(d):
        raise ValueError("sparse phase expects the regularized (D-regular) graph")
    theta_prime = params.theta_prime_value()
    window, pair_min = _thresholds(
        d,
        len(dec.sparse),
        theta_prime,
        params.accept_target,
        None if params.t_window is None else params.t_window * d,
    )
    tau = sample_conditioned_labeling(
        g,
        dec.sparse,
        theta_prime,
        seed,
        max_tries=params.max_tries,
        window_halfwidth=window,
        pair_min=pair_min,
        accept_target=params.accept_target,
    )
    t_mask = tranquil_mask(g, tau)
    # sigma restricted to T is proper by the definition of T
    check_proper(g, np.where(t_mask, tau, 0), what="labeling restricted to T")

    star = np.zeros(g.n, dtype=bool)
    star[list(dec.sparse)] = True
    left_mask = star & ~t_mask
    leftovers = np.flatnonzero(left_mask)

    # allowed[i, c]: no T-neighbor of leftover i has label c; column 0 is
    # no color
    pos = np.cumsum(left_mask) - 1
    eu, ev = g.edge_arrays()
    allowed = np.ones((len(leftovers), d + 2), dtype=bool)
    allowed[:, 0] = False
    for a, b in ((eu, ev), (ev, eu)):
        hit = left_mask[a] & t_mask[b]
        allowed[pos[a[hit]], tau[b[hit]]] = False
    _check_hand_off(
        leftovers,
        _in_t_counts(g, t_mask)[leftovers],
        _in_t_counts(g, left_mask)[leftovers],
        allowed.sum(axis=1),
        d,
        window,
        pair_min,
    )

    # leftover-to-leftover edges as (earlier, later) positions in `leftovers`
    both = left_mask[eu] & left_mask[ev]
    earlier, later = pos[eu[both]], pos[ev[both]]
    uniforms = _rng(seed, _GREEDY_TAG).random(g.n)[leftovers]
    greedy = _greedy_levels if len(leftovers) >= _LEVEL_MIN_LEFTOVERS else _greedy_sequential
    picked = greedy(leftovers, allowed, earlier, later, uniforms)

    colors = np.where(star & t_mask, tau, 0)
    colors[leftovers] = picked
    check_proper(g, colors, what="sparse-phase coloring")
    return SparsePhaseResult(
        colors=colors,
        labeling=tau,
        t_mask=t_mask,
        window_halfwidth=window,
        pair_min=pair_min,
    )
