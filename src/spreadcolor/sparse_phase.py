"""Coloring the sparse vertices.

Draw a uniform label for every vertex, condition (by rejection) on every
sparse vertex seeing a typical number of locally-unique labels, keep the
labels on the conflict-free set T as colors, then finish the remaining
sparse vertices by slack greedy on the leftover lists.  A caller that
returns only a prefix of the vertices (the pipeline's input inside its
regularized supergraph) passes `stop`, and the greedy colors only the
leftovers below it; every color there is the full run's.

Each quantity is computed once.  The window and the pair threshold come
from Params through _thresholds.  Rejection accepts each component with
the T of its accepting attempt and hands that T forward; no edge leaves
a component, so it is the T of the final labeling.  The hand-off counts
(|N_v ∩ T| and the leftover degree of each leftover) come from the
leftovers' own rows, read once to build the greedy's inputs
(greedy.ban_matrix), so the window the rejection accepted is checked
again on a second, separate count.  Leftovers from `stop` on take no
part in the greedy, so their window is re-counted by _in_t_counts.

After the rejection, which labels every vertex, the work follows what
is colored: the ban matrix reads the leftovers' rows, the greedy draws
uniforms only below `stop`, and the final properness check reads only
the edges below `stop` (an uncolored end never clashes).  Only the check
of the labels on T reads the whole graph.

Randomness is keyed: attempt t of the rejection loop uses the stream
(seed, LABEL_TAG, t) and the greedy stage uses (seed, GREEDY_TAG), one
uniform per vertex below `stop`.  Because acceptance is decided per
connected component and vector draws are stream prefixes, the result
restricted to a component equals a run on that component alone (same
seed, same D and window, ids preserved as a prefix).  The default window
depends on the number of sparse vertices in the whole graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .decompose import Decomposition
from .errors import MaxTriesExceeded, VerificationFailed
from .graphs import Graph, check_proper, keyed_rng
from .greedy import ban_matrix, slack_greedy
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
ACCEPT_TARGET = 0.5  # the calibrated window accepts a whole labeling about this often


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
    """Per vertex, the number of its neighbors inside the mask: one bincount
    over the rows of the masked vertices (adjacency is symmetric), so the
    cost follows the mask, not the whole adjacency."""
    return np.bincount(g.gather_neighbors(np.flatnonzero(t_mask))[1], minlength=g.n)


def _edges_below(g: Graph, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of g with both ends below `stop`, in edge_arrays order: the
    arrays are sorted by their smaller end u, so these are a prefix of
    them filtered by v < stop."""
    eu, ev = g.edge_arrays()
    if stop == g.n:
        return eu, ev
    cut = np.searchsorted(eu, stop)
    keep = ev[:cut] < stop
    return eu[:cut][keep], ev[:cut][keep]


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
            u_nbrs = set(g.neighbors(u))
            for w in group[i + 1 :]:
                if w in u_nbrs:
                    continue
                zone = u_nbrs.union(nbrs, g.neighbors(w)) - {u, w}
                if all(int(tau[z]) != label for z in zone):
                    count += 1
    return count


def _outside(counts: np.ndarray, d: int, halfwidth: float) -> np.ndarray:
    """Mask of the |N_v ∩ T| counts outside the accepted window, the closed
    interval D/e ± halfwidth."""
    center = d / math.e
    return (counts < center - halfwidth) | (counts > center + halfwidth)


def _bad_vertices(
    g: Graph,
    tau: np.ndarray,
    t_mask: np.ndarray,
    where: np.ndarray,
    d: int,
    halfwidth: float,
    pair_min: float,
) -> np.ndarray:
    """Mask of the vertices in `where` hit by the bad event of the labeling
    tau, whose conflict-free set is t_mask: |N_v ∩ T| outside the window,
    or |P_v| < pair_min.  The pair clause is evaluated only when
    pair_min > 0, and only on the vertices of `where` that the window has
    not already marked."""
    bad = where & _outside(_in_t_counts(g, t_mask), d, halfwidth)
    if pair_min > 0:
        for v in np.flatnonzero(where & ~bad).tolist():
            bad[v] = _pair_count(g, tau, v) < pair_min
    return bad


def default_window_halfwidth(d: int, n_star: int) -> float:
    """Halfwidth (absolute units) of the accepted |N_v ∩ T| window around
    e^-1 * D, sized so that all n_star sparse vertices land inside with
    probability about ACCEPT_TARGET.

    |N_v ∩ T| behaves like Binomial(D, p) with p = (1 - 1/(D+1))^D, whose
    fluctuation scale sqrt(D p (1-p)) dwarfs the theta'/3 window of the
    asymptotic statement at any desk-scale D.
    """
    p = (1.0 - 1.0 / (d + 1)) ** d
    mu = d * p
    sigma = math.sqrt(d * p * (1.0 - p))
    beta = (1.0 - ACCEPT_TARGET) / max(n_star, 1)
    z = NormalDist().inv_cdf(1.0 - min(beta, 0.5) / 2.0)
    return abs(mu - d / math.e) + z * sigma


def _thresholds(d: int, n_star: int, params: Params) -> tuple[float, float]:
    """(window halfwidth, pair threshold) of the accepted labelings.

    The window is t_window * D when set, else the calibrated one (see
    default_window_halfwidth), never narrower than the theta'/3 * D of
    the asymptotic statement (theta' = e^-3 * theta / 2, derived by
    Params).  The pair threshold is floor(theta' * D): at desk scale that is 0 and the |P_v| clause is vacuous, which is the
    only regime in which the conditioned measure is reachable at all
    (E|P_v| is O(1) for any feasible D here, while the asymptotic
    statement wants Theta(theta * D) of them)."""
    theta_prime = params.theta_prime_value()
    if params.t_window is not None:
        window = params.t_window * d
    else:
        window = max(default_window_halfwidth(d, n_star), theta_prime / 3.0 * d)
    return window, float(math.floor(theta_prime * d))


def sample_conditioned_labeling(
    g: Graph,
    vstar,
    seed: int,
    window_halfwidth: float,
    pair_min: float,
    max_tries: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(labeling, T mask): a uniform labeling of V conditioned on no sparse
    vertex being bad, realized by per-component rejection, and its
    conflict-free set T.  vstar is any iterable of the sparse vertex ids;
    an id array (Decomposition.sparse_ids()) indexes as it is, with no
    conversion.  An id outside 0..n-1 is a ValueError.

    Each component keeps the labels and the T of the attempt that
    accepted it, and a component without a sparse vertex those of
    attempt 0.  No edge leaves a component, so the mask returned is
    tranquil_mask(g, labeling).
    """
    d = g.max_degree
    n = g.n
    ids = vstar if isinstance(vstar, np.ndarray) else np.fromiter(vstar, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        stray = min(v for v in ids.tolist() if not 0 <= v < n)
        raise ValueError(f"vertex {stray} not in graph of order {n}")
    star = np.zeros(n, dtype=bool)
    star[ids] = True

    n_comps = len(g.components())
    labels = g.component_labels()
    pending = np.bincount(labels[star], minlength=n_comps) > 0
    for t in range(max_tries):
        tau = keyed_rng(seed, _LABEL_TAG, t).integers(1, d + 2, size=n)
        tau_t = tranquil_mask(g, tau)
        bad = _bad_vertices(g, tau, tau_t, star & pending[labels], d, window_halfwidth, pair_min)
        ok = pending & (np.bincount(labels[bad], minlength=n_comps) == 0)
        if t == 0:
            labeling, t_mask = tau, tau_t
        else:
            take = ok[labels]
            labeling[take] = tau[take]
            t_mask[take] = tau_t[take]
        pending &= ~ok
        if not pending.any():
            return labeling, t_mask
    raise MaxTriesExceeded(
        f"conditioned labeling not found in {max_tries} attempts "
        f"(window halfwidth {window_halfwidth:.2f}, pair_min {pair_min})"
    )


@dataclass
class SparsePhaseResult:
    colors: np.ndarray                # indexed by vertex; 0 off V* and from stop on
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
        (_outside(in_t, d, window), "escaped the accepted window"),
        (d_rest > d - in_t, "has leftover degree exceeding D - |N_v ∩ T|"),
        (
            (n_list < slack) | ((pair_min > 0) & (n_list < slack + pair_min)),
            "has a hand-off list shorter than the window implies",
        ),
    ):
        if bad.any():
            raise VerificationFailed(f"vertex {vertices[np.argmax(bad)]} {what}")


def sparse_phase_color(
    g: Graph,
    dec: Decomposition,
    seed: int,
    params: Params = Params(),
    *,
    stop: int | None = None,
) -> SparsePhaseResult:
    """Proper coloring of the sparse set V*, or of its part below `stop`.

    sigma on T is the conditioned labeling itself (proper there by
    construction of T); V* \\ T is finished by slack greedy
    (greedy.slack_greedy, in ascending order) on the lists Gamma minus the
    colors seen on T-neighbors, one ban matrix.  Labels on T \\ V* are used
    for those lists and then dropped.  On a D-regular graph the greedy
    always has |S_v| >= d'(v) + 1, so it cannot get stuck.

    With `stop` (0..n, default n) the greedy colors only the leftovers
    below it, and colors is 0 from `stop` on.  Each color below `stop` is
    the full run's: position i of the ascending greedy reads only its
    allowed row, the picks of earlier positions and uniform i, and the
    `stop` uniforms drawn are the prefix of the n a full run draws.  The
    labeling, T and the window check still cover every sparse vertex.
    """
    d = g.max_degree
    if not g.is_regular(d):
        raise ValueError("sparse phase expects the regularized (D-regular) graph")
    if stop is None:
        stop = g.n
    elif not 0 <= stop <= g.n:
        raise ValueError(f"stop {stop} outside 0..{g.n}")
    window, pair_min = _thresholds(d, len(dec.sparse), params)
    sparse_ids = dec.sparse_ids()
    tau, t_mask = sample_conditioned_labeling(
        g, sparse_ids, seed, window, pair_min, params.max_tries
    )
    # sigma restricted to T is proper by the definition of T
    on_t = np.where(t_mask, tau, 0)
    check_proper(g, on_t, what="labeling restricted to T")

    leftovers = sparse_ids[~t_mask[sparse_ids]]
    cut = np.searchsorted(leftovers, stop)
    leftovers, rest = leftovers[:cut], leftovers[cut:]
    k = len(leftovers)
    # a leftover's colored neighbors are its T-neighbors: it sees |N_v ∩ T|
    allowed, earlier, later, in_t = ban_matrix(g, leftovers, on_t)
    d_rest = np.bincount(earlier, minlength=k) + np.bincount(later, minlength=k)
    _check_hand_off(leftovers, in_t, d_rest, allowed.sum(axis=1), d, window, pair_min)
    if len(rest):
        # uncolored, but the window is part of the law's conditioning
        outside = _outside(_in_t_counts(g, t_mask)[rest], d, window)
        if outside.any():
            raise VerificationFailed(
                f"vertex {rest[np.argmax(outside)]} escaped the accepted window"
            )

    uniforms = keyed_rng(seed, _GREEDY_TAG).random(stop)[leftovers]
    picked = slack_greedy(leftovers, allowed, earlier, later, uniforms)

    # labels on T \ V* banned colors above and are dropped here, and no
    # leftover keeps its clashing label
    colors = np.zeros_like(tau)
    colors[sparse_ids] = on_t[sparse_ids]
    colors[leftovers] = picked
    colors[stop:] = 0
    # an uncolored end never clashes, so only the edges below stop can
    check_proper(g, colors, edges=_edges_below(g, stop), what="sparse-phase coloring")
    return SparsePhaseResult(
        colors=colors,
        labeling=tau,
        t_mask=t_mask,
        window_halfwidth=window,
        pair_min=pair_min,
    )
