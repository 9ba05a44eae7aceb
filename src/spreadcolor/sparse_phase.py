"""Coloring the sparse vertices.

Draw a uniform label for every vertex, condition (by rejection) on every
sparse vertex seeing a typical number of locally-unique labels, keep the
labels on the conflict-free set T as colors, then finish the remaining
sparse vertices by slack greedy on the leftover lists.

Randomness is keyed: attempt t of the rejection loop uses the stream
(seed, LABEL_TAG, t) and the greedy stage uses (seed, GREEDY_TAG), one
uniform per vertex.  Because acceptance is decided per connected
component and vector draws are stream prefixes, the result restricted to
a component equals a run on that component alone (same seed, ids
preserved as a prefix).
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
    "LabelingStats",
    "label_statistics",
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
            for w in group[i + 1 :]:
                if g.has_edge(u, w):
                    continue
                zone = (
                    (g.neighbor_set(v) | g.neighbor_set(u) | g.neighbor_set(w))
                    - {u, w}
                )
                if all(int(tau[z]) != label for z in zone):
                    count += 1
    return count


@dataclass
class LabelingStats:
    """Exact statistics of one labeling, restricted to the sparse set."""

    t_set: frozenset[int]
    in_t: dict[int, int]
    pair_count: dict[int, int]
    bad: dict[int, bool]
    window_halfwidth: float  # absolute units of |N_v ∩ T|
    pair_min: float

    @property
    def any_bad(self) -> bool:
        return any(self.bad.values())


def label_statistics(
    g: Graph,
    tau: np.ndarray,
    vstar,
    theta_prime: float,
    window_halfwidth: float | None = None,
    pair_min: float | None = None,
) -> LabelingStats:
    """T, |N_v ∩ T|, |P_v| and the bad-event flag for each sparse vertex.

    By default the bad event is the literal one: |N_v ∩ T| outside
    (e^-1 ± theta'/3)D or |P_v| < theta'*D.  Callers running at desk
    scale pass wider/looser thresholds explicitly.
    """
    d = g.max_degree
    if window_halfwidth is None:
        window_halfwidth = theta_prime / 3.0 * d
    if pair_min is None:
        pair_min = theta_prime * d
    tau = np.asarray(tau)
    t_mask = tranquil_mask(g, tau)
    counts = _in_t_counts(g, t_mask)
    center = d / math.e
    in_t: dict[int, int] = {}
    pairs: dict[int, int] = {}
    bad: dict[int, bool] = {}
    for v in sorted(vstar):
        c = int(counts[v])
        in_t[v] = c
        p = _pair_count(g, tau, v)
        pairs[v] = p
        bad[v] = abs(c - center) > window_halfwidth or p < pair_min
    return LabelingStats(
        t_set=frozenset(np.flatnonzero(t_mask).tolist()),
        in_t=in_t,
        pair_count=pairs,
        bad=bad,
        window_halfwidth=window_halfwidth,
        pair_min=pair_min,
    )


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

    comps = g.components()
    labels = g.component_labels()
    # components without a sparse vertex keep their attempt-0 labels
    pending = np.bincount(labels[star], minlength=len(comps)) > 0
    final = _rng(seed, _LABEL_TAG, 0).integers(1, d + 2, size=n)
    tau = final.copy()
    for t in range(max_tries):
        if not pending.any():
            return final
        if t:
            tau = _rng(seed, _LABEL_TAG, t).integers(1, d + 2, size=n)
        counts = _in_t_counts(g, tranquil_mask(g, tau))
        bad = star & ((counts < lo) | (counts > hi))
        ok = pending & (np.bincount(labels[bad], minlength=len(comps)) == 0)
        if pair_min > 0:
            for c in np.flatnonzero(ok):
                ok[c] = all(_pair_count(g, tau, v) >= pair_min for v in comps[c] if star[v])
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
    def coloring(self) -> dict[int, int]:
        """The coloring of V* as a dict."""
        vs = np.flatnonzero(self.colors)
        return dict(zip(vs.tolist(), self.colors[vs].tolist()))

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
    the greedy is sequential only over leftover-to-leftover edges: each
    leftover, in ascending order, removes the colors of its earlier
    leftover neighbors from its list and takes avail[floor(u_v * |avail|)].
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

    # ban[v, c]: some T-neighbor of v has label c
    eu, ev = g.edge_arrays()
    ban = np.zeros((g.n, d + 2), dtype=bool)
    for a, b in ((eu, ev), (ev, eu)):
        in_t = t_mask[b]
        ban[a[in_t], tau[b[in_t]]] = True
    left_ban = ban[leftovers]
    _check_hand_off(
        leftovers,
        _in_t_counts(g, t_mask)[leftovers],
        _in_t_counts(g, left_mask)[leftovers],
        d + 1 - left_ban.sum(axis=1),
        d,
        window,
        pair_min,
    )

    # earlier leftover neighbors of each leftover, by position in `leftovers`
    pos = np.cumsum(left_mask) - 1
    both = left_mask[eu] & left_mask[ev]
    later, earlier = pos[ev[both]], pos[eu[both]]
    order = np.argsort(later, kind="stable")
    pred = earlier[order].tolist()
    pred_ptr = np.searchsorted(later[order], np.arange(len(leftovers) + 1)).tolist()
    allowed = ~left_ban
    allowed[:, 0] = False
    rows, cols = np.nonzero(allowed)
    avail_ptr = np.searchsorted(rows, np.arange(len(leftovers) + 1)).tolist()
    cols = cols.tolist()
    uniforms = _rng(seed, _GREEDY_TAG).random(g.n)[leftovers].tolist()
    picked: list[int] = []
    for i, u in enumerate(uniforms):
        avail = cols[avail_ptr[i] : avail_ptr[i + 1]]
        if pred_ptr[i] < pred_ptr[i + 1]:
            used = {picked[j] for j in pred[pred_ptr[i] : pred_ptr[i + 1]]}
            avail = [c for c in avail if c not in used]
        if not avail:
            raise StuckVertex(f"sparse-phase greedy stuck at vertex {leftovers[i]}")
        picked.append(avail[int(u * len(avail))])

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
